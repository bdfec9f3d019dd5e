import configparser

import pytest

from predcut.cli import PARAMS, _experiment_params, build_parser, main, run_experiment
from predcut.csp import maxcut_as_csp, save_csp
from predcut.exact import exact_maxcut
from predcut.graph import gen_erdos_renyi, load_edge_list
from predcut.sdp import SdpConfig, sdp_upper_bound, solve_sdp
from predcut.seeds import derive


@pytest.fixture
def workdir(tmp_path, capsys):
    def run(*argv):
        rc = main([str(a) for a in argv])
        out = capsys.readouterr().out
        return rc, out
    return tmp_path, run


def test_gen_oracle_solve_flow(workdir):
    d, run = workdir
    rc, _ = run("gen-graph", "--n", 10, "--p", 0.7, "--seed", 3, "--out", d / "g.txt")
    assert rc == 0
    rc, out = run("oracle", "--graph", d / "g.txt")
    assert rc == 0 and out.startswith("opt ")

    g = load_edge_list((d / "g.txt").read_text())
    _, x = exact_maxcut(g)
    (d / "truth.txt").write_text("\n".join("+1" if v > 0 else "-1" for v in x.values))

    rc, _ = run("gen-predictions", "--truth", d / "truth.txt", "--model", "noisy",
                "--eps", 0.3, "--seed", 1, "--out", d / "p.txt")
    assert rc == 0
    rc, out = run("solve", "--graph", d / "g.txt", "--pred", d / "p.txt",
                  "--algo", "auto", "--oracle", "--seed", 5)
    assert rc == 0
    lines = dict(l.split(" ", 1) for l in out.strip().splitlines())
    assert float(lines["ratio"]) <= 1.0 + 1e-9
    assert lines["branch"] in ("wide", "narrow", "gw", "prediction")


def test_solve_partial_algorithms(workdir):
    d, run = workdir
    run("gen-graph", "--n", 8, "--p", 0.8, "--seed", 4, "--out", d / "g.txt")
    g = load_edge_list((d / "g.txt").read_text())
    _, x = exact_maxcut(g)
    (d / "truth.txt").write_text("\n".join("+1" if v > 0 else "-1" for v in x.values))
    run("gen-predictions", "--truth", d / "truth.txt", "--model", "partial",
        "--eps", "1.0", "--seed", 2, "--out", d / "p.txt")
    for algo in ("gw-fixed", "rt"):
        rc, out = run("solve", "--graph", d / "g.txt", "--pred", d / "p.txt",
                      "--algo", algo, "--oracle", "--tau-step", 0.5)
        assert rc == 0
        lines = dict(l.split(" ", 1) for l in out.strip().splitlines())
        # fully labeled: exact optimum
        assert float(lines["ratio"]) == pytest.approx(1.0, abs=1e-9)


def test_model_mismatch_is_an_error(workdir):
    d, run = workdir
    run("gen-graph", "--n", 6, "--p", 0.9, "--seed", 5, "--out", d / "g.txt")
    (d / "truth.txt").write_text("\n".join(["+1"] * 6))
    run("gen-predictions", "--truth", d / "truth.txt", "--model", "noisy",
        "--eps", 0.2, "--seed", 3, "--out", d / "p.txt")
    rc, _ = run("solve", "--graph", d / "g.txt", "--pred", d / "p.txt",
                "--algo", "rt", "--model", "partial")
    assert rc == 1


def test_narrow_limit_is_a_typed_error(workdir, capsys):
    d, run = workdir
    run("gen-graph", "--n", 201, "--p", 0.05, "--seed", 5, "--out", d / "g.txt")
    rc, out = run("solve", "--graph", d / "g.txt", "--algo", "narrow", "--delta", 3)
    assert rc == 1 and out == ""


def test_unknown_flag_exits_nonzero(workdir):
    d, run = workdir
    with pytest.raises(SystemExit) as e:
        run("oracle", "--graph", "x", "--bogus-flag")
    assert e.value.code != 0


def test_csp_solve_command(workdir, tmp_path):
    d, run = workdir
    run("gen-graph", "--n", 10, "--p", 0.9, "--seed", 6, "--out", d / "g.txt")
    g = load_edge_list((d / "g.txt").read_text())
    (d / "inst.txt").write_text(save_csp(maxcut_as_csp(g)))
    _, x = exact_maxcut(g)
    (d / "truth.txt").write_text("\n".join("+1" if v > 0 else "-1" for v in x.values))
    run("gen-predictions", "--truth", d / "truth.txt", "--model", "noisy",
        "--eps", 0.45, "--seed", 7, "--out", d / "p.txt")
    rc, out = run("csp-solve", "--csp", d / "inst.txt", "--predicate", "0110",
                  "--pred", d / "p.txt", "--eta", 0.35, "--eps-prime", 0.3,
                  "--delta", 2, "--oracle")
    assert rc == 0
    lines = dict(l.split(" ", 1) for l in out.strip().splitlines())
    assert 0.0 <= float(lines["val"]) <= 1.0
    assert float(lines["ratio"]) <= 1.0 + 1e-9


def test_csp_solve_refuses_delta_zero(workdir, capsys):
    # --delta 0 is passed on, not replaced by a derived delta, and the
    # classification refuses it
    d, run = workdir
    run("gen-graph", "--n", 8, "--p", 0.9, "--seed", 6, "--out", d / "g.txt")
    g = load_edge_list((d / "g.txt").read_text())
    (d / "inst.txt").write_text(save_csp(maxcut_as_csp(g)))
    (d / "truth.txt").write_text("\n".join(["+1", "-1"] * 4))
    run("gen-predictions", "--truth", d / "truth.txt", "--model", "noisy",
        "--eps", 0.45, "--seed", 7, "--out", d / "p.txt")
    argv = ("csp-solve", "--csp", d / "inst.txt", "--predicate", "0110", "--pred", d / "p.txt",
            "--eta", 0.35, "--eps-prime", 0.3)
    capsys.readouterr()
    assert main([str(a) for a in argv + ("--delta", 0)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "delta must be >= 1, got 0" in err
    assert run(*argv)[0] == 0


@pytest.mark.parametrize("algo", ["auto", "wide", "narrow", "csp-solve"])
def test_a_zero_eps_prime_is_a_typed_error(workdir, capsys, algo):
    # without --delta, delta comes from choose_delta, which refuses eps' = 0
    d, run = workdir
    run("gen-graph", "--n", 8, "--p", 0.9, "--seed", 6, "--out", d / "g.txt")
    g = load_edge_list((d / "g.txt").read_text())
    (d / "inst.txt").write_text(save_csp(maxcut_as_csp(g)))
    (d / "truth.txt").write_text("\n".join(["+1", "-1"] * 4))
    run("gen-predictions", "--truth", d / "truth.txt", "--model", "noisy",
        "--eps", 0.45, "--seed", 7, "--out", d / "p.txt")
    if algo == "csp-solve":
        argv = ("csp-solve", "--csp", d / "inst.txt", "--predicate", "0110")
    else:
        argv = ("solve", "--graph", d / "g.txt", "--algo", algo)
    capsys.readouterr()
    assert main([str(a) for a in argv + ("--pred", d / "p.txt", "--eps-prime", 0)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: eps_prime must be positive, got 0.0\n"


def test_an_eps_prime_whose_delta_leaves_the_float_range_is_a_typed_error(workdir, capsys):
    d, run = workdir
    run("gen-graph", "--n", 8, "--p", 0.9, "--seed", 6, "--out", d / "g.txt")
    (d / "truth.txt").write_text("\n".join(["+1", "-1"] * 4))
    run("gen-predictions", "--truth", d / "truth.txt", "--model", "noisy",
        "--eps", 0.45, "--seed", 7, "--out", d / "p.txt")
    capsys.readouterr()
    argv = ("solve", "--graph", d / "g.txt", "--algo", "auto", "--pred", d / "p.txt",
            "--eps-prime", "1e-200")
    assert main([str(a) for a in argv]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert "out of float range" in err


EXP_CONFIG = """
[experiment]
master_seed = 5
trials = 2

[graph]
generator = erdos_renyi
n = 9
p = 0.6
weight_law = uniform

[prediction]
model = noisy
eps = 0.25
independence = mutual

[algorithms]
list = oracle, auto, gw, prediction

[params]
restarts = 3
roundings = 4

[output]
path = {out}
"""


def test_experiment_schema_and_determinism(workdir):
    d, run = workdir
    cfg = d / "exp.ini"
    out = d / "r.csv"
    cfg.write_text(EXP_CONFIG.format(out=out))
    rc, _ = run("experiment", "--config", cfg)
    assert rc == 0
    first = out.read_bytes()
    header = first.decode().splitlines()[0]
    assert header == "trial,n,model,eps,algo,cut,reference,ratio,seed,runtime_ms"
    rows = first.decode().strip().splitlines()[1:]
    assert len(rows) == 2 * 4
    # oracle rows have ratio exactly 1
    for row in rows:
        cells = row.split(",")
        if cells[4] == "oracle":
            assert cells[7] == "1"
        assert cells[9] == "0"  # timing off by default
    rc, _ = run("experiment", "--config", cfg)
    assert out.read_bytes() == first


def test_experiment_planted_reference(workdir):
    d, run = workdir
    cfg = d / "exp.ini"
    out = d / "r.csv"
    cfg.write_text("""
[experiment]
master_seed = 2
trials = 1

[graph]
generator = erdos_renyi
n = 40
weight_law = planted
q_cross = 0.9
q_within = 0.1

[prediction]
model = partial
eps = 0.5

[algorithms]
list = gw-fixed

[params]
roundings = 3

[output]
path = {}
""".format(out))
    rc, _ = run("experiment", "--config", cfg)
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].endswith(",reference_kind")
    assert lines[1].endswith(",planted")


SDP_REFERENCE_CONFIG = """
[experiment]
master_seed = 3
trials = 2

[graph]
n = 30
p = 0.3

[algorithms]
list = gw

[params]
roundings = 2

[output]
path = {out}
"""


def test_experiment_without_truth_uses_the_sdp_bound_as_reference(tmp_path, capsys):
    # n > 24 with no planted cut: no oracle, so the certified upper bound of
    # the plain SDP is the reference, every ratio is at most 1, and
    # predictions, which need a truth, are refused
    cfg = tmp_path / "exp.ini"
    out = tmp_path / "r.csv"
    cfg.write_text(SDP_REFERENCE_CONFIG.format(out=out))
    _, text = run_experiment(cfg)
    header, *rows = text.splitlines()
    assert header.endswith(",reference_kind") and len(rows) == 2
    for trial, row in enumerate(rows):
        g = gen_erdos_renyi(30, 0.3, "unit", seed=derive(3, trial, 0))
        ref = sdp_upper_bound(g, solve_sdp(g, SdpConfig(seed=derive(3, trial, 1))))
        cells = row.split(",")
        assert cells[4] == "gw" and cells[6] == f"{ref:.10g}" and cells[10] == "bound"
        assert float(cells[7]) <= 1.0
    for model in ("noisy", "partial"):
        cfg.write_text(SDP_REFERENCE_CONFIG.format(out=out)
                       + f"\n[prediction]\nmodel = {model}\neps = 0.2\n")
        rc, err = _error(capsys, "experiment", "--config", cfg)
        assert rc == 1
        assert err == f"error: {model} predictions need an oracle or planted ground truth\n"


def test_run_experiment_python_api(tmp_path):
    cfg = tmp_path / "exp.ini"
    out = tmp_path / "r.csv"
    cfg.write_text(EXP_CONFIG.format(out=out))
    path, text = run_experiment(cfg)
    assert str(path) == str(out)
    assert text == out.read_text()


def _error(capsys, *argv):
    """(exit code, stderr) of main on argv, with nothing written to stdout."""
    capsys.readouterr()
    rc = main([str(a) for a in argv])
    out, err = capsys.readouterr()
    assert out == ""
    return rc, err


def test_bad_truth_file_is_an_error_on_its_line(tmp_path, capsys):
    truth = tmp_path / "truth.txt"
    truth.write_text("# labels\n+1\n\n0.5\n-1\n")
    rc, err = _error(capsys, "gen-predictions", "--truth", truth, "--model", "noisy",
                     "--eps", 0.2, "--out", tmp_path / "p.txt")
    assert rc == 1 and err == "error: line 4: bad label '0.5'\n"


@pytest.mark.parametrize("old, new, message", [
    ("n = 9", "n = abc", "error: config [graph] n: expected int, got 'abc'"),
    ("roundings = 4", "roundings = 2.5",
     "error: config [params] roundings: expected int, got '2.5'"),
    ("roundings = 4", "rounding = round",
     "error: config [params] rounding: expected repeat|pipage, got 'round'"),
    ("restarts = 3", "restart = 3", "error: config [params] has unknown key 'restart'"),
    ("model = noisy", "model = bogus", "error: unknown prediction model 'bogus'"),
])
def test_bad_config_values_are_named_errors(tmp_path, capsys, old, new, message):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(EXP_CONFIG.format(out=tmp_path / "r.csv").replace(old, new))
    rc, err = _error(capsys, "experiment", "--config", cfg)
    assert rc == 1 and err == message + "\n"


@pytest.mark.parametrize("config, old, new, message", [
    (EXP_CONFIG, "model = noisy", "model = bogus", "error: unknown prediction model 'bogus'"),
    (EXP_CONFIG, "independence = mutual", "independence = pairwise",
     "error: config [prediction] independence: expected mutual|pairwise_only, got 'pairwise'"),
    (SDP_REFERENCE_CONFIG, "[output]", "[prediction]\nmodel = partial\neps = 0.2\n\n[output]",
     "error: partial predictions need an oracle or planted ground truth"),
], ids=["model", "independence", "ground-truth"])
def test_prediction_config_errors_come_before_the_reference_solve(monkeypatch, tmp_path, capsys,
                                                                  config, old, new, message):
    import predcut.cli

    def no_reference(*args, **kwargs):
        raise AssertionError("a reference was solved before the config was checked")

    monkeypatch.setattr(predcut.cli, "exact_maxcut", no_reference)
    monkeypatch.setattr(predcut.cli, "solve_sdp", no_reference)
    cfg = tmp_path / "exp.ini"
    cfg.write_text(config.format(out=tmp_path / "r.csv").replace(old, new))
    rc, err = _error(capsys, "experiment", "--config", cfg)
    assert rc == 1 and err == message + "\n"


def test_missing_config_is_refused(tmp_path, capsys):
    rc, err = _error(capsys, "experiment", "--config", tmp_path / "absent.ini")
    assert rc == 1 and err.startswith(f"error: cannot read {tmp_path / 'absent.ini'}")


def test_noisy_config_without_eps_is_refused(tmp_path, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(EXP_CONFIG.format(out=tmp_path / "r.csv").replace("eps = 0.25\n", ""))
    rc, err = _error(capsys, "experiment", "--config", cfg)
    assert rc == 1 and err == "error: config [prediction] needs eps\n"


def test_unparsable_config_is_an_error_naming_the_file(tmp_path, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_text("n = 8\n")     # a key before any [section]
    rc, err = _error(capsys, "experiment", "--config", cfg)
    assert rc == 1
    assert err == f"error: cannot parse {cfg}: File contains no section headers.\n"


def test_parameter_flags_and_config_share_one_table(tmp_path):
    parser = build_parser()
    solve = vars(parser.parse_args(["solve", "--graph", "g", "--algo", "gw"]))
    csp = vars(parser.parse_args(["csp-solve", "--csp", "c", "--predicate", "0110",
                                  "--pred", "p"]))
    cfg = configparser.ConfigParser()
    cfg.read_string("[params]\n")
    params = vars(_experiment_params(cfg))
    assert params == {name: default for name, _, default in PARAMS}
    assert all(solve[name] == params[name] for name in params)
    assert all(csp[name] == params[name] for name, _, _ in PARAMS[:4])
    assert "tau_step" not in csp
    with pytest.raises(SystemExit) as e:
        parser.parse_args(["solve", "--graph", "g", "--algo", "wide", "--rounding", "round"])
    assert e.value.code == 2
