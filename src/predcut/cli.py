"""Command-line front end and experiment harness.

Subcommands: gen-graph, gen-predictions, solve, oracle, csp-solve,
experiment. Every invocation is deterministic given its seed; the
experiment CSV is byte-identical across repeated runs of the same config
(wall-clock timing is opt-in via --timing for that reason).
"""

from __future__ import annotations

import argparse
import configparser
import sys
import time
from pathlib import Path

import numpy as np

from .csp import csp_value, load_csp, predicate_from_bits, solve_csp_wide
from .errors import ParameterError, PredcutError
from .exact import MAXCUT_LIMIT, exact_csp, exact_maxcut
from .graph import (CutAssignment, _records, cut_value, gen_erdos_renyi, load_edge_list,
                    save_edge_list)
from .narrow import solve_narrow
from .partial import TauGrid, solve_partial_gw, solve_partial_rt
from .pipeline import choose_delta, solve_noisy
from .predictions import (MUTUAL, PAIRWISE, NoisyPrediction, PartialPrediction, _labels,
                          load_prediction, sample_noisy, sample_partial, save_prediction)
from .sdp import SdpConfig, sdp_upper_bound, solve_gw, solve_sdp
from .seeds import derive, seed_to_int
from .wide import solve_wide

ALGOS = ("oracle", "wide", "narrow", "auto", "gw", "gw-fixed", "rt", "prediction")
# stable per-algorithm seed salts
_ALGO_SALT = {name: 100 + k for k, name in enumerate(ALGOS)}
_SAMPLERS = {"noisy": sample_noisy, "partial": sample_partial}

# Solver parameters as (name, type, default); a tuple type lists the allowed
# strings. `solve` takes each as a flag, `csp-solve` the first four, and an
# experiment config reads them, and only them, from its [params] section.
PARAMS = (
    ("eta", float, 0.05),
    ("eps_prime", float, 0.05),
    ("c_delta", float, 1.0),
    ("delta", int, None),
    ("tau_step", float, 0.05),
    ("restarts", int, 20),
    ("roundings", int, 20),
    ("rounding", ("repeat", "pipage"), "repeat"),
)


def _fmt(v: float) -> str:
    return f"{v:.10g}"


def _read(path):
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ParameterError(f"cannot read {path}: {exc.strerror}")


def _write(path, text):
    Path(path).write_text(text)


def _load_truth(path) -> np.ndarray:
    return _labels(list(_records(_read(path))), ("+1", "1", "-1"))


def _save_truth(x) -> str:
    return "\n".join("+1" if v > 0 else "-1" for v in x) + "\n"


def _prediction_as_cut(pred) -> CutAssignment:
    """The raw prediction as a cut; blank partial labels default to +1."""
    vals = np.where(pred.y == 0.0, 1.0, pred.y)
    return CutAssignment(values=vals)


def cmd_gen_graph(args):
    g = gen_erdos_renyi(args.n, args.p, args.weight_law, seed=args.seed,
                        q_cross=args.q_cross, q_within=args.q_within)
    _write(args.out, save_edge_list(g))
    if args.planted_out:
        if g.planted is None:
            raise ParameterError("--planted-out needs --weight-law planted")
        _write(args.planted_out, _save_truth(g.planted))
    print(f"wrote {args.out} (n={g.n}, m={g.num_edges})")
    return 0


def cmd_gen_predictions(args):
    truth = _load_truth(args.truth)
    pred = _SAMPLERS[args.model](truth, args.eps, args.seed, args.independence)
    _write(args.out, save_prediction(pred))
    print(f"wrote {args.out} (n={len(pred)}, model={args.model}, eps={_fmt(args.eps)})")
    return 0


def cmd_oracle(args):
    g = load_edge_list(_read(args.graph))
    opt, _ = exact_maxcut(g)
    print(f"opt {_fmt(opt)}")
    return 0


def _run_algo(algo, g, pred, args, seed):
    """Dispatch one solver; returns (cut assignment, optional branch tag)."""
    if algo == "wide":
        _need(pred, NoisyPrediction, algo)
        return solve_wide(g, pred, _delta(args, pred), args.eta, args.eps_prime,
                          rounding=args.rounding, seed=seed), None
    if algo == "narrow":
        delta = _delta(args, pred)
        if delta is None:
            raise ParameterError("narrow needs --delta (or a noisy prediction to derive it)")
        return solve_narrow(g, delta, args.eta, seed=seed, restarts=args.restarts), None
    if algo == "auto":
        _need(pred, NoisyPrediction, algo)
        cut, tag = solve_noisy(g, pred, args.eta, args.eps_prime, args.c_delta,
                               seed=seed, rounding=args.rounding,
                               narrow_restarts=args.restarts,
                               gw_roundings=args.roundings)
        return cut, tag
    if algo == "gw":
        return solve_gw(g, derive(seed, 0), derive(seed, 1), args.roundings), None
    if algo == "gw-fixed":
        _need(pred, PartialPrediction, algo)
        return solve_partial_gw(g, pred, seed=seed, roundings=args.roundings), None
    if algo == "rt":
        _need(pred, PartialPrediction, algo)
        grid = TauGrid.for_graph(g, args.tau_step)
        return solve_partial_rt(g, pred, grid, seed=seed, roundings=args.roundings), None
    if algo == "prediction":
        if pred is None:
            raise ParameterError("algo prediction needs --pred")
        return _prediction_as_cut(pred), None
    raise ParameterError(f"unknown algorithm {algo!r}")


def _delta(args, pred):
    """--delta, else choose_delta from a noisy prediction's bias; None without either."""
    if args.delta is None and isinstance(pred, NoisyPrediction):
        return choose_delta(pred.epsilon, args.eps_prime, args.c_delta)
    return args.delta


def _need(pred, kind, algo):
    if not isinstance(pred, kind):
        model = "noisy" if kind is NoisyPrediction else "partial"
        raise ParameterError(f"algo {algo} needs a {model} prediction file")


def cmd_solve(args):
    g = load_edge_list(_read(args.graph))
    pred = load_prediction(_read(args.pred)) if args.pred else None
    if args.model is not None and pred is not None:
        actual = "noisy" if isinstance(pred, NoisyPrediction) else "partial"
        if actual != args.model:
            raise ParameterError(f"--model {args.model} but {args.pred} holds {actual}")
    if args.assume_eps is not None:
        if not isinstance(pred, NoisyPrediction):
            raise ParameterError("--assume-eps only applies to noisy predictions")
        # unknown true bias: rerun with a guessed value (sweep via bias_grid)
        pred = NoisyPrediction(y=pred.y, epsilon=args.assume_eps)
    cut, tag = _run_algo(args.algo, g, pred, args, derive(args.seed, _ALGO_SALT[args.algo]))
    val = cut_value(g, cut)
    print(f"cut {_fmt(val)}")
    if tag:
        print(f"branch {tag}")
    if args.oracle:
        opt, _ = exact_maxcut(g)
        ratio = val / opt if opt > 0 else 1.0
        print(f"opt {_fmt(opt)}")
        print(f"ratio {_fmt(ratio)}")
    return 0


def cmd_csp_solve(args):
    predicate = predicate_from_bits(args.predicate)
    inst = load_csp(_read(args.csp), predicate)
    pred = load_prediction(_read(args.pred))
    if not isinstance(pred, NoisyPrediction):
        raise ParameterError("csp-solve needs a noisy prediction file")
    x = solve_csp_wide(inst, pred, _delta(args, pred), args.eta, args.eps_prime,
                       C=args.constraint_scale, seed=derive(args.seed, 7))
    val = csp_value(inst, x)
    print(f"val {_fmt(val)}")
    if args.oracle:
        opt, _ = exact_csp(inst)
        print(f"opt {_fmt(opt)}")
        print(f"ratio {_fmt(val / opt if opt > 0 else 1.0)}")
    return 0


# ---------------------------------------------------------------- experiment

def _cfg_get(cfg, section, key, default=None, cast=str):
    """[section] key read by `cast` (a type or a tuple of allowed strings); default if unset."""
    raw = cfg.get(section, key, fallback="").strip()
    if not raw:
        return default
    if isinstance(cast, tuple):
        if raw in cast:
            return raw
        expected = "|".join(cast)
    else:
        try:
            return cast(raw)
        except ValueError:
            expected = cast.__name__
    raise ParameterError(f"config [{section}] {key}: expected {expected}, got {raw!r}")


def _experiment_params(cfg):
    """The [params] section read through PARAMS; any other key is refused."""
    names = [name for name, _, _ in PARAMS]
    for key in cfg.options("params") if cfg.has_section("params") else ():
        if key not in names:
            raise ParameterError(f"config [params] has unknown key {key!r}")
    return argparse.Namespace(**{name: _cfg_get(cfg, "params", name, default, kind)
                                 for name, kind, default in PARAMS})


def _experiment_graph(cfg, seed):
    if cfg.has_option("graph", "path"):
        return load_edge_list(_read(cfg.get("graph", "path")))
    gen = _cfg_get(cfg, "graph", "generator", "erdos_renyi")
    if gen != "erdos_renyi":
        raise ParameterError(f"unknown generator {gen!r}")
    n = _cfg_get(cfg, "graph", "n", cast=int)
    if n is None:
        raise ParameterError("config [graph] needs n")
    p = _cfg_get(cfg, "graph", "p", 0.5, float)
    law = _cfg_get(cfg, "graph", "weight_law", "unit")
    return gen_erdos_renyi(n, p, law, seed=seed,
                           q_cross=_cfg_get(cfg, "graph", "q_cross", cast=float),
                           q_within=_cfg_get(cfg, "graph", "q_within", cast=float))


def run_experiment(config_path, master_seed=None, timing=False):
    """Run all (trial, algorithm) cells and return the CSV text."""
    cfg = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cfg.read_string(_read(config_path), source=str(config_path))
    except configparser.Error as exc:
        raise ParameterError(f"cannot parse {config_path}: {exc.message.splitlines()[0]}")
    if master_seed is None:
        master_seed = _cfg_get(cfg, "experiment", "master_seed", 0, int)
    trials = _cfg_get(cfg, "experiment", "trials", 1, int)
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    algos = [a.strip().replace("_", "-") for a in
             _cfg_get(cfg, "algorithms", "list", "gw").split(",") if a.strip()]
    for a in algos:
        if a not in ALGOS:
            raise ParameterError(f"unknown algorithm {a!r} in config")
    model = _cfg_get(cfg, "prediction", "model")
    if model is not None and model not in _SAMPLERS:
        raise ParameterError(f"unknown prediction model {model!r}")
    eps = _cfg_get(cfg, "prediction", "eps", cast=float) if model else None
    if model and eps is None:
        raise ParameterError("config [prediction] needs eps")
    independence = (_cfg_get(cfg, "prediction", "independence", MUTUAL, (MUTUAL, PAIRWISE))
                    if model else None)
    params = _experiment_params(cfg)
    out_path = _cfg_get(cfg, "output", "path", "results.csv")

    rows = []
    reference_kinds = set()
    for trial in range(trials):
        trial_seed = seed_to_int([master_seed, trial])
        g = _experiment_graph(cfg, seed=derive(master_seed, trial, 0))
        if g.n <= MAXCUT_LIMIT:
            reference, truth = exact_maxcut(g)
            truth = truth.values
            ref_kind = "oracle"
        elif g.planted is not None:
            truth = g.planted
            reference = cut_value(g, truth)
            ref_kind = "planted"
        elif model is not None:
            raise ParameterError(f"{model} predictions need an oracle or planted ground truth")
        else:
            sol = solve_sdp(g, SdpConfig(seed=derive(master_seed, trial, 1)))
            reference = sdp_upper_bound(g, sol)
            ref_kind = "bound"
        reference_kinds.add(ref_kind)

        pred = None
        if model is not None:
            pred = _SAMPLERS[model](truth, eps, derive(master_seed, trial, 2), independence)

        for algo in sorted(algos):
            t0 = time.perf_counter()
            if algo == "oracle":
                if ref_kind != "oracle":
                    raise ParameterError("algo oracle needs n small enough for the exact solver")
                val = reference
            else:
                cut, _ = _run_algo(algo, g, pred, params,
                                   derive(master_seed, trial, _ALGO_SALT[algo]))
                val = cut_value(g, cut)
            ms = int(round(1000.0 * (time.perf_counter() - t0))) if timing else 0
            ratio = val / reference if reference > 0 else 1.0
            rows.append([str(trial), str(g.n), model or "none",
                         _fmt(eps if eps is not None else 0.0), algo, _fmt(val),
                         _fmt(reference), _fmt(ratio), str(trial_seed), str(ms), ref_kind])

    header = "trial,n,model,eps,algo,cut,reference,ratio,seed,runtime_ms,reference_kind".split(",")
    if reference_kinds == {"oracle"}:       # the kind column only when some reference is not
        header, rows = header[:-1], [cells[:-1] for cells in rows]
    csv_text = "".join(",".join(cells) + "\n" for cells in [header] + rows)
    _write(out_path, csv_text)
    return out_path, csv_text


def cmd_experiment(args):
    out_path, csv_text = run_experiment(args.config, master_seed=args.seed,
                                        timing=args.timing)
    print(f"wrote {out_path} ({csv_text.count(chr(10)) - 1} rows)")
    return 0


def _add_params(parser, params):
    for name, kind, default in params:
        flag = "--" + name.replace("_", "-")
        if isinstance(kind, tuple):
            parser.add_argument(flag, choices=kind, default=default)
        else:
            parser.add_argument(flag, type=kind, default=default)


def build_parser():
    p = argparse.ArgumentParser(prog="predcut",
                                description="MaxCut with noisy or partial predictions")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-graph", help="write a random graph as an edge list")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--p", type=float, default=0.5)
    g.add_argument("--weight-law", choices=("unit", "uniform", "planted"), default="unit")
    g.add_argument("--q-cross", type=float, default=0.9)
    g.add_argument("--q-within", type=float, default=0.1)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.add_argument("--planted-out", default=None)
    g.set_defaults(func=cmd_gen_graph)

    gp = sub.add_parser("gen-predictions", help="sample predictions of a truth file")
    gp.add_argument("--truth", required=True)
    gp.add_argument("--model", choices=("noisy", "partial"), required=True)
    gp.add_argument("--eps", type=float, required=True)
    gp.add_argument("--independence", choices=("mutual", "pairwise_only"), default="mutual")
    gp.add_argument("--seed", type=int, default=0)
    gp.add_argument("--out", required=True)
    gp.set_defaults(func=cmd_gen_predictions)

    o = sub.add_parser("oracle", help="exact maximum cut of a small graph")
    o.add_argument("--graph", required=True)
    o.add_argument("--seed", type=int, default=0)
    o.set_defaults(func=cmd_oracle)

    s = sub.add_parser("solve", help="run one solver on a graph")
    s.add_argument("--graph", required=True)
    s.add_argument("--pred", default=None)
    s.add_argument("--model", choices=("noisy", "partial"), default=None)
    s.add_argument("--algo", choices=ALGOS[1:], required=True)
    _add_params(s, PARAMS)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--assume-eps", type=float, default=None,
                   help="treat a noisy prediction as having this bias "
                        "(sweep bias_grid values when the true one is unknown)")
    s.add_argument("--oracle", action="store_true",
                   help="also print the exact optimum and the ratio")
    s.set_defaults(func=cmd_solve)

    c = sub.add_parser("csp-solve", help="wide solver for a 2-CSP instance")
    c.add_argument("--csp", required=True)
    c.add_argument("--predicate", required=True,
                   help="4 bits for P(+1,+1) P(+1,-1) P(-1,+1) P(-1,-1), e.g. 0110")
    c.add_argument("--pred", required=True)
    _add_params(c, PARAMS[:4])
    c.add_argument("--constraint-scale", type=float, default=4.0)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--oracle", action="store_true")
    c.set_defaults(func=cmd_csp_solve)

    e = sub.add_parser("experiment", help="run a config-driven experiment to CSV")
    e.add_argument("--config", required=True)
    e.add_argument("--seed", type=int, default=None,
                   help="override the config master seed")
    e.add_argument("--timing", action="store_true",
                   help="record wall-clock runtime_ms (breaks byte-identity)")
    e.set_defaults(func=cmd_experiment)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PredcutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
