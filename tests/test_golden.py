"""CLI stdout, experiment CSVs, triangle- and subset-SDP vectors, pinned byte for byte.

The files under tests/data/golden are the inputs and the expected outputs.
Regenerate them only for an intended change of output:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from predcut.cli import main
from predcut.csp import CspInstance, predicate_from_bits, save_csp
from predcut.graph import gen_erdos_renyi
from predcut.partial import revealed_edge_set
from predcut.predictions import PartialPrediction
from predcut.sdp import SdpConfig, save_solution, solve_sdp

DATA = Path(__file__).parent / "data" / "golden"

# name -> argv; bare file names refer to files in DATA
RUNS = {
    "oracle": ["oracle", "--graph", "graph.txt"],
    "wide": ["solve", "--graph", "graph.txt", "--pred", "noisy.txt", "--algo", "wide",
             "--delta", "2", "--eta", "0.3", "--eps-prime", "0.2", "--seed", "3"],
    "wide-pipage": ["solve", "--graph", "graph.txt", "--pred", "noisy.txt", "--algo", "wide",
                    "--delta", "2", "--eta", "0.3", "--eps-prime", "0.2", "--rounding", "pipage"],
    # an LP that comes back infeasible: the fallback to GW or the prediction
    "wide-fallback": ["solve", "--graph", "graph.txt", "--pred", "noisy.txt", "--algo", "wide",
                      "--delta", "1", "--eta", "0.1", "--assume-eps", "0.1", "--seed", "4"],
    "narrow": ["solve", "--graph", "graph.txt", "--pred", "noisy.txt", "--algo", "narrow",
               "--restarts", "5", "--seed", "3"],
    "auto": ["solve", "--graph", "graph.txt", "--pred", "noisy.txt", "--algo", "auto",
             "--restarts", "5", "--oracle"],
    "auto-wide": ["solve", "--graph", "graph.txt", "--pred", "noisy.txt", "--algo", "auto",
                  "--c-delta", "0.02", "--eta", "0.3", "--eps-prime", "0.2", "--seed", "2"],
    "auto-fallback": ["solve", "--graph", "graph.txt", "--pred", "noisy.txt", "--algo", "auto",
                      "--c-delta", "1e-6", "--eta", "0.2", "--eps-prime", "0.01",
                      "--assume-eps", "0.1", "--seed", "2"],
    "gw": ["solve", "--graph", "graph.txt", "--algo", "gw", "--seed", "3", "--oracle"],
    "gw-fixed": ["solve", "--graph", "graph.txt", "--pred", "partial.txt", "--algo", "gw-fixed",
                 "--seed", "3"],
    "rt": ["solve", "--graph", "graph.txt", "--pred", "partial.txt", "--algo", "rt",
           "--tau-step", "0.1", "--roundings", "5", "--seed", "3"],
    "prediction": ["solve", "--graph", "graph.txt", "--pred", "partial.txt",
                   "--algo", "prediction"],
    "csp-solve": ["csp-solve", "--csp", "csp.txt", "--predicate", "1110", "--pred",
                  "csp_noisy.txt", "--delta", "1", "--eta", "0.3", "--eps-prime", "0.3",
                  "--seed", "5", "--oracle"],
}

EXPERIMENTS = {
    "noisy": """
[experiment]
master_seed = 4
trials = 2

[graph]
n = 12
p = 0.6
weight_law = uniform

[prediction]
model = noisy
eps = 0.3

[algorithms]
list = oracle, auto, gw, prediction, wide, narrow

[params]
eta = 0.3
eps_prime = 0.2
delta = 2
restarts = 5
roundings = 5

[output]
path = {out}
""",
    "partial": """
[experiment]
master_seed = 6
trials = 2

[graph]
n = 30
weight_law = planted
q_cross = 0.5
q_within = 0.4

[prediction]
model = partial
eps = 0.3

[algorithms]
list = gw-fixed, rt, gw, prediction

[params]
tau_step = 0.1
roundings = 5

[output]
path = {out}
""",
}

# triangle-SDP vectors: solves at n = 12 and n = 22, each from its rounded
# floor (the file names predate the one floor rule, when n <= 20 took the
# exact cut); name -> gen_erdos_renyi arguments
TRIANGLE = {
    "triangle_exact": (12, 0.6, "uniform", 0),
    "triangle_rounded": (22, 0.5, "planted", 0),
}


# subset-SDP vectors of one pinned graph, the subset being the edges at the
# pins: a tau met at the first multiplier rung, one that bisects the
# multiplier and one that no rung meets; name -> tau
SUBSET = {"subset_met": 2.0, "subset_bisected": 3.75, "subset_infeasible": 4.0}


def _stdout(argv):
    argv = [str(DATA / a) if (DATA / a).is_file() else a for a in argv]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    return buf.getvalue()


def _experiment(name, tmp):
    cfg = Path(tmp) / f"{name}.ini"
    out = Path(tmp) / f"{name}.csv"
    cfg.write_text(EXPERIMENTS[name].format(out=out))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["experiment", "--config", str(cfg)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_stdout_is_pinned(name):
    expected = json.loads((DATA / "stdout.json").read_text())
    assert _stdout(RUNS[name]) == expected[name]


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_experiment_csv_is_pinned(name, tmp_path):
    assert _experiment(name, tmp_path) == (DATA / f"{name}.csv").read_bytes()


def _triangle_vectors(name):
    n, p, law, seed = TRIANGLE[name]
    g = gen_erdos_renyi(n, p, law, seed=seed, q_cross=0.6, q_within=0.3)
    sol = solve_sdp(g, SdpConfig(triangle=True, seed=seed))
    return save_solution(sol).encode()


@pytest.mark.parametrize("name", sorted(TRIANGLE))
def test_triangle_vectors_are_pinned(name):
    assert _triangle_vectors(name) == (DATA / f"{name}.txt").read_bytes()


def _subset_vectors(name):
    g = gen_erdos_renyi(12, 0.6, "uniform", seed=0)
    y = PartialPrediction(y=np.array([1.0, 0, 0, -1.0] + [0] * 8), epsilon=0.2)
    cfg = SdpConfig(fixed_labels={0: 1, 3: -1},
                    subset_constraint=(revealed_edge_set(g, y), SUBSET[name]))
    return save_solution(solve_sdp(g, cfg)).encode()


@pytest.mark.parametrize("name", sorted(SUBSET))
def test_subset_vectors_are_pinned(name):
    assert _subset_vectors(name) == (DATA / f"{name}.txt").read_bytes()


def _write_inputs():
    DATA.mkdir(parents=True, exist_ok=True)
    with contextlib.redirect_stdout(io.StringIO()):
        main(["gen-graph", "--n", "20", "--weight-law", "planted", "--q-cross", "0.6",
              "--q-within", "0.45", "--seed", "7", "--out", str(DATA / "graph.txt"),
              "--planted-out", str(DATA / "truth.txt")])
        for model, eps in (("noisy", "0.45"), ("partial", "0.3")):
            main(["gen-predictions", "--truth", str(DATA / "truth.txt"), "--model", model,
                  "--eps", eps, "--seed", "1", "--out", str(DATA / f"{model}.txt")])
    # an OR instance with tied weights and negations, and a planted assignment
    rng = np.random.default_rng(11)
    n = 12
    truth = rng.choice([-1, 1], size=n)
    cons = []
    while len(cons) < 40:
        i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
        c = [int(v) for v in rng.choice([-1, 1], size=2)]
        cons.append((float(rng.choice([1.0, 2.0])), c, (i, j)))
    (DATA / "csp.txt").write_text(save_csp(CspInstance(n, predicate_from_bits("1110"), cons)))
    (DATA / "csp_truth.txt").write_text("\n".join(f"{v:+d}" for v in truth) + "\n")
    with contextlib.redirect_stdout(io.StringIO()):
        main(["gen-predictions", "--truth", str(DATA / "csp_truth.txt"), "--model", "noisy",
              "--eps", "0.4", "--seed", "2", "--out", str(DATA / "csp_noisy.txt")])


if __name__ == "__main__":
    import tempfile

    _write_inputs()
    stdout = {name: _stdout(argv) for name, argv in RUNS.items()}
    (DATA / "stdout.json").write_text(json.dumps(stdout, indent=1, sort_keys=True) + "\n")
    with tempfile.TemporaryDirectory() as tmp:
        for name in EXPERIMENTS:
            (DATA / f"{name}.csv").write_bytes(_experiment(name, tmp))
    for name in TRIANGLE:
        (DATA / f"{name}.txt").write_bytes(_triangle_vectors(name))
    for name in SUBSET:
        (DATA / f"{name}.txt").write_bytes(_subset_vectors(name))
