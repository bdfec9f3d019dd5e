import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from predcut import sdp
from predcut.csp import CUT_PREDICATE, CspInstance, classify_literals
from predcut.errors import DimensionError, ParameterError
from predcut.exact import exact_maxcut
from predcut.graph import (classify, cut_value, delta_prefix_weight, gen_erdos_renyi,
                           truncated_adjacency)
from predcut.partial import revealed_edge_set, solve_partial_gw
from predcut.pipeline import choose_delta, solve_noisy
from predcut.predictions import NoisyPrediction, PartialPrediction, sample_noisy
from predcut.wide import estimate_imbalance, solve_wide

from conftest import random_graph, regular_graph


def test_choose_delta():
    assert choose_delta(0.3, 0.2) == int(np.ceil(1 / 0.06 ** 2))
    assert choose_delta(0.3, 0.2, c_delta=2.0) == int(np.ceil(2 / 0.06 ** 2))


@pytest.mark.parametrize("args, name", [((0.0, 0.2), "epsilon"), ((-0.1, 0.2), "epsilon"),
                                        ((0.3, 0.0), "eps_prime"), ((0.3, -0.2), "eps_prime"),
                                        ((0.3, 0.2, 0.0), "c_delta"),
                                        ((0.3, 0.2, -1.0), "c_delta")])
def test_choose_delta_refuses_non_positive_inputs(args, name):
    with pytest.raises(ParameterError, match=f"{name} must be positive"):
        choose_delta(*args)


@pytest.mark.parametrize("args, message", [
    ((math.nan, 0.2), "epsilon must be positive"), ((math.inf, 0.2), "epsilon must be finite"),
    ((0.3, math.inf), "eps_prime must be finite"), ((0.3, 0.2, math.inf), "c_delta must be finite"),
    ((0.3, 1e-200), "out of float range"), ((0.3, 1e-160), "out of float range"),
    ((1e80, 1e80), "out of float range")])
def test_choose_delta_refuses_non_finite_inputs_and_quotients(args, message):
    with pytest.raises(ParameterError, match=message):
        choose_delta(*args)


def _wide_graph_and_prediction():
    g = gen_erdos_renyi(40, 0.0, "planted", seed=3, q_cross=0.6, q_within=0.3)
    return g, sample_noisy(g.planted, 0.3, seed=1)


@pytest.mark.parametrize("delta", [2.0, 2.5, "2", None])
def test_a_delta_that_is_not_an_integer_is_refused_before_the_prefix_order(delta):
    g, y = _wide_graph_and_prediction()
    inst = CspInstance(3, CUT_PREDICATE, [(1.0, (1, 1), (0, 1)), (2.0, (1, 1), (1, 2))])
    calls = [lambda: classify(g, delta, 0.3), lambda: truncated_adjacency(g, delta),
             lambda: delta_prefix_weight(g, 0, delta), lambda: estimate_imbalance(g, y, delta, 0.3),
             lambda: solve_wide(g, y, delta, 0.3, 0.2), lambda: classify_literals(inst, delta, 0.3)]
    for call in calls:
        with pytest.raises(ParameterError, match="delta must be an integer"):
            call()
    # the cached order was never built
    assert "prefix_order" not in vars(g) and "prefix_order" not in vars(inst)
    # numpy integers are integers
    a, b = classify(g, np.int64(2), 0.3), classify(g, 2, 0.3)
    assert np.array_equal(a.wide_mask, b.wide_mask) and a.graph_class == b.graph_class


def test_dispatch_narrow_on_three_regular():
    g = regular_graph(60, 3, seed=91)
    x = np.random.default_rng(92).choice([-1.0, 1.0], size=60)
    y = sample_noisy(x, 0.3, seed=93)
    cut, tag = solve_noisy(g, y, seed=1, narrow_restarts=5, gw_roundings=5)
    assert tag in ("narrow", "gw", "prediction")
    assert tag != "wide"


def test_output_dominates_prediction_candidate():
    rng = np.random.default_rng(94)
    for t in range(12):
        g = random_graph(rng, n=int(rng.integers(4, 10)))
        opt, x_star = exact_maxcut(g)
        y = sample_noisy(x_star, 0.25, seed=[95, t])
        cut, tag = solve_noisy(g, y, seed=t, narrow_restarts=3, gw_roundings=5)
        assert cut_value(g, cut) >= cut_value(g, y.y) - 1e-12
        assert cut_value(g, cut) <= opt + 1e-9


def test_wide_dispatch_on_dense_planted():
    g = gen_erdos_renyi(96, 0.0, "planted", seed=96, q_cross=0.9, q_within=0.1)
    y = sample_noisy(g.planted, 0.45, seed=97)
    # eps' large enough that delta = ceil(1/(eps eps')^2) ~ 11 < eta W_i ~ 14
    from predcut.graph import classify
    from predcut.pipeline import choose_delta
    assert classify(g, choose_delta(0.45, 0.7), 0.3).is_wide
    cut, tag = solve_noisy(g, y, eta=0.3, eps_prime=0.7, seed=3, gw_roundings=5)
    assert tag in ("wide", "gw", "prediction")
    assert cut_value(g, cut) >= cut_value(g, g.planted) - (2 * 0.7 + 5 * 0.3) * g.total_weight


def test_output_dominates_wide_branch():
    # replicate the pipeline's internal seed derivation for the wide branch
    from predcut.seeds import derive
    from predcut.wide import solve_wide
    from predcut.pipeline import choose_delta
    from predcut.graph import classify
    g = gen_erdos_renyi(96, 0.0, "planted", seed=200, q_cross=0.9, q_within=0.1)
    y = sample_noisy(g.planted, 0.45, seed=201)
    eta, eps_prime, seed = 0.3, 0.7, 11
    delta = choose_delta(y.epsilon, eps_prime)
    assert classify(g, delta, eta).is_wide
    cut, _ = solve_noisy(g, y, eta=eta, eps_prime=eps_prime, seed=seed, gw_roundings=4)
    wide_cut = solve_wide(g, y, delta, eta, eps_prime, seed=derive(seed, 0))
    assert cut_value(g, cut) >= cut_value(g, wide_cut) - 1e-12


def test_determinism():
    g = gen_erdos_renyi(20, 0.5, "uniform", seed=98)
    x = np.random.default_rng(99).choice([-1.0, 1.0], size=20)
    y = sample_noisy(x, 0.2, seed=100)
    a, tag_a = solve_noisy(g, y, seed=17, narrow_restarts=4, gw_roundings=6)
    b, tag_b = solve_noisy(g, y, seed=17, narrow_restarts=4, gw_roundings=6)
    assert tag_a == tag_b
    assert np.array_equal(a.values, b.values)


def test_narrow_graph_above_the_triangle_limit_fails_before_solving(monkeypatch):
    import pytest
    from predcut import sdp
    from predcut.errors import ParameterError
    from predcut.graph import classify

    def no_solve(*args, **kwargs):
        raise AssertionError("solve_noisy ran an SDP before refusing the graph")

    monkeypatch.setattr(sdp, "_coordinate_ascent", no_solve)
    monkeypatch.setattr(sdp, "_penalty_continuation", no_solve)
    g = gen_erdos_renyi(sdp.TRIANGLE_LIMIT + 1, 0.05, "unit", seed=7)
    y = sample_noisy(np.ones(g.n), 0.45, seed=8)
    assert classify(g, choose_delta(y.epsilon, 0.05), 0.05).is_wide == (g.total_weight == 0)
    with pytest.raises(ParameterError, match="triangle SDP"):
        solve_noisy(g, y)


@pytest.mark.parametrize("extra", [-3, 2])
def test_a_prediction_of_the_wrong_length_is_refused_before_any_solve(monkeypatch, extra):
    def no_solve(*args, **kwargs):
        raise AssertionError("an SDP ran before the prediction length was checked")

    monkeypatch.setattr(sdp, "_coordinate_ascent", no_solve)
    monkeypatch.setattr(sdp, "_penalty_continuation", no_solve)
    g, _ = _wide_graph_and_prediction()
    m = g.n + extra
    noisy = NoisyPrediction(y=np.ones(m), epsilon=0.3)
    partial = PartialPrediction(y=np.where(np.arange(m) % 3 == 0, 1.0, 0.0), epsilon=0.3)
    # the defaults give delta = 4445 > n, so the graph is narrow there
    assert not classify(g, choose_delta(0.3, 0.05), 0.05).is_wide
    assert classify(g, choose_delta(0.3, 0.2, 0.003), 0.3).is_wide
    calls = {
        "solve_noisy narrow": lambda: solve_noisy(g, noisy),
        "solve_noisy wide": lambda: solve_noisy(g, noisy, eta=0.3, eps_prime=0.2, c_delta=0.003),
        "estimate_imbalance": lambda: estimate_imbalance(g, noisy, 2, 0.3),
        "solve_partial_gw": lambda: solve_partial_gw(g, partial),
        "revealed_edge_set": lambda: revealed_edge_set(g, partial),
    }
    for name, call in calls.items():
        with pytest.raises(DimensionError, match=f"prediction length {m} does not match n=40"):
            call()


def test_infeasible_wide_lp_runs_one_plain_solve(monkeypatch):
    # the golden auto-fallback run: a wide graph whose LP comes back
    # infeasible adds no wide candidate, so only the GW candidate solves an SDP
    from predcut import pipeline, sdp
    from test_golden import RUNS, _stdout

    lp_cuts, configs = [], []
    wide_lp_cut, solve_sdp = pipeline.wide_lp_cut, sdp.solve_sdp

    def recording_lp_cut(*args, **kwargs):
        lp_cuts.append(wide_lp_cut(*args, **kwargs))
        return lp_cuts[-1]

    def counting_solve(g, cfg=None):
        configs.append(cfg)
        return solve_sdp(g, cfg)

    monkeypatch.setattr(pipeline, "wide_lp_cut", recording_lp_cut)
    monkeypatch.setattr(sdp, "solve_sdp", counting_solve)
    assert _stdout(RUNS["auto-fallback"]) == "cut 70\nbranch gw\n"
    assert lp_cuts == [None]
    assert len(configs) == 1 and not configs[0].triangle and not configs[0].fixed_labels


def oracle_case(n, p, data):
    """(rng, graph): zero-weight edges, isolated vertices, and no edges when p = 0."""
    from predcut.graph import Graph
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31 - 1)))
    weights = [0.0, 1.0, float(rng.uniform(0, 1))]
    isolated = rng.random(n) < 0.2
    edges = [(i, j, weights[int(rng.integers(3))]) for i in range(n) for j in range(i + 1, n)
             if not (isolated[i] or isolated[j]) and rng.random() < p]
    return rng, Graph(n, edges)


def plain_bound(g, seed):
    """sdp_upper_bound at a plain solve, with the slack 1e-9 max(W, 1)."""
    from predcut.sdp import SdpConfig, sdp_upper_bound, solve_sdp
    return (sdp_upper_bound(g, solve_sdp(g, SdpConfig(seed=seed)))
            + 1e-9 * max(g.total_weight, 1.0))


# the prediction's bias and solve_noisy's keyword arguments per drawn
# setting: the defaults take the narrow branch on every graph with weight;
# delta = 1 with eta 0.45 takes the wide branch on graphs with spread-out
# degrees, and an assumed bias of 0.01 with eps' 0.01 can leave their LP
# infeasible, as in the auto-fallback golden run
PORTFOLIO_SETTINGS = {
    "defaults": (0.45, dict(eta=0.05, eps_prime=0.05, c_delta=1.0)),
    "wide": (0.45, dict(eta=0.45, eps_prime=0.2, c_delta=1e-3)),
    "wide LP infeasible": (0.01, dict(eta=0.45, eps_prime=0.01, c_delta=1e-9)),
}


@settings(max_examples=40)
@given(n=st.integers(2, 14), p=st.sampled_from([0.0, 0.3, 0.7, 1.0]), data=st.data())
def test_narrow_portfolio_against_the_exact_oracle(n, p, data):
    # unpinned graphs with zero-weight edges, isolated vertices or no edges:
    # the triangle relaxation is at least OPT, and the portfolio finds at
    # most OPT, the same cut on each call; any unit vectors are feasible for
    # the plain relaxation, so the triangle objective and the cut are at
    # most its certified bound. The cut is at least every candidate, each
    # rebuilt from public calls on solve_noisy's seed layout, and the tag
    # names a candidate of the cut's value: never wide when the LP is
    # infeasible, since no wide candidate exists then
    from predcut.graph import CutAssignment, classify
    from predcut.narrow import solve_narrow
    from predcut.sdp import SdpConfig, solve_gw, solve_sdp
    from predcut.seeds import derive
    from predcut.wide import wide_lp_cut
    rng, g = oracle_case(n, p, data)
    opt, x_star = exact_maxcut(g)
    seed = int(rng.integers(1000))
    bound = plain_bound(g, seed)
    sol = solve_sdp(g, SdpConfig(triangle=True, seed=seed))
    assert sol.objective_value >= opt - 1e-12 * max(g.total_weight, 1.0)
    assert sol.objective_value <= bound
    y = sample_noisy(x_star, 0.45, seed=seed)
    assert classify(g, choose_delta(y.epsilon, 0.05), 0.05).is_wide == (g.total_weight == 0)
    eps, kwargs = PORTFOLIO_SETTINGS[data.draw(st.sampled_from(sorted(PORTFOLIO_SETTINGS)))]
    y = NoisyPrediction(y=y.y, epsilon=eps)
    cut, tag = solve_noisy(g, y, seed=seed, **kwargs)
    assert cut_value(g, cut) <= opt + 1e-9
    assert cut_value(g, cut) <= bound
    again, tag_again = solve_noisy(g, y, seed=seed, **kwargs)
    assert (again.values.tobytes(), tag_again) == (cut.values.tobytes(), tag)

    eta, eps_prime = kwargs["eta"], kwargs["eps_prime"]
    delta = choose_delta(eps, eps_prime, kwargs["c_delta"])
    candidates = {"gw": solve_gw(g, derive(seed, 2), derive(seed, 3), 20),
                  "prediction": CutAssignment(values=y.y)}
    if classify(g, delta, eta).is_wide:
        wide = wide_lp_cut(g, y, delta, eta, eps_prime, seed=derive(seed, 0))
        if wide is not None:
            candidates["wide"] = wide
    else:
        candidates["narrow"] = solve_narrow(g, delta, eta, seed=derive(seed, 1))
    values = {name: cut_value(g, c) for name, c in candidates.items()}
    assert tag in values and values[tag] == cut_value(g, cut)
    assert all(cut_value(g, cut) >= v for v in values.values())


@settings(max_examples=30)
@given(n=st.integers(2, 12), p=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
       reveal=st.sampled_from([0.2, 0.5, 1.0]), data=st.data())
def test_partial_solvers_against_the_exact_oracle(n, p, reveal, data):
    # the same graphs with a share of an optimal cut revealed (all of it
    # leaves every SDP vector at +-v_0): each partial solver finds at most
    # OPT and at most the plain bound, the same cut on each call
    from predcut.partial import solve_partial_rt
    rng, g = oracle_case(n, p, data)
    opt, x_star = exact_maxcut(g)
    seed = int(rng.integers(1000))
    bound = plain_bound(g, seed)
    shown = rng.random(n) < reveal if reveal < 1.0 else np.ones(n, dtype=bool)
    y = PartialPrediction(y=np.where(shown, x_star.values, 0.0), epsilon=reveal)
    for solve in (solve_partial_gw, solve_partial_rt):
        cut = solve(g, y, seed=seed)
        assert cut_value(g, cut) <= opt + 1e-9
        assert cut_value(g, cut) <= bound
        assert solve(g, y, seed=seed).values.tobytes() == cut.values.tobytes()
