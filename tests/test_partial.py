import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import predcut.sdp
from predcut.errors import ParameterError
from predcut.exact import exact_maxcut
from predcut.graph import Graph, cut_value, gen_erdos_renyi
from predcut.partial import (ROUNDING_FRAC, TauGrid, revealed_edge_maximum, revealed_edge_set,
                             solve_partial_gw, solve_partial_rt)
from predcut.predictions import PartialPrediction, sample_partial
from predcut.sdp import SUBSET_TOL_FRAC, SdpConfig, SubsetLadder, rt_round, solve_sdp

from conftest import random_graph


def path3():
    return Graph(3, [(0, 1, 1.0), (1, 2, 1.0)])


def test_revealed_edge_set_examples():
    g = path3()
    none = PartialPrediction(y=np.zeros(3), epsilon=0.5)
    assert len(revealed_edge_set(g, none)) == 0
    full = PartialPrediction(y=np.array([1.0, -1.0, 1.0]), epsilon=0.5)
    assert len(revealed_edge_set(g, full)) == g.num_edges
    mid = PartialPrediction(y=np.array([0.0, 1.0, 0.0]), epsilon=0.5)
    assert len(revealed_edge_set(g, mid)) == 2


def test_tau_grid_values():
    g = gen_erdos_renyi(10, 0.5, "uniform", seed=101)
    grid = TauGrid.for_graph(g, 0.05)
    W = g.total_weight
    assert grid.values[0] == 0.0
    assert grid.values[-1] == pytest.approx(W)
    assert np.all(np.diff(grid.values) > 0)
    assert np.all((0 <= grid.values) & (grid.values <= W + 1e-12))
    with pytest.raises(ParameterError):
        TauGrid.for_graph(g, 0.0)
    # a step finer than the feasibility tolerance is refused before its
    # 10^9 points are built
    with pytest.raises(ParameterError, match=r"\[0.0001, 1\]"):
        TauGrid.for_graph(g, 1e-9)
    assert len(TauGrid.for_graph(g, SUBSET_TOL_FRAC).values) == 10001


def test_tau_grid_appends_the_total_weight_when_the_step_misses_it():
    # 1 / 0.3 is not a whole number: the steps stop at 0.9 W and W is added
    g = gen_erdos_renyi(10, 0.5, "uniform", seed=101)
    W = g.total_weight
    grid = TauGrid.for_graph(g, 0.3)
    assert grid.values.tolist() == [0.0, 0.3 * W, 2 * 0.3 * W, 3 * 0.3 * W, W]


def test_gw_fully_labeled_recovers_optimum():
    rng = np.random.default_rng(102)
    for _ in range(5):
        g = random_graph(rng, n=int(rng.integers(4, 10)))
        opt, x_star = exact_maxcut(g)
        y = PartialPrediction(y=x_star.values.copy(), epsilon=1.0)
        out = solve_partial_gw(g, y, seed=1, roundings=4)
        assert np.array_equal(out.values, x_star.values)
        assert cut_value(g, out) == pytest.approx(opt, abs=1e-9)


def test_gw_k2_single_pin_cuts_edge():
    g = Graph(2, [(0, 1, 1.0)])
    y = PartialPrediction(y=np.array([1.0, 0.0]), epsilon=0.5)
    out = solve_partial_gw(g, y, seed=2, roundings=20)
    assert out.values[0] == 1.0
    assert cut_value(g, out) == 1.0


def test_pinned_side_correctness_both_solvers():
    rng = np.random.default_rng(103)
    for t in range(8):
        g = random_graph(rng, n=int(rng.integers(4, 10)))
        _, x_star = exact_maxcut(g)
        y = sample_partial(x_star, 0.6, seed=[104, t])
        for out in (
            solve_partial_gw(g, y, seed=t, roundings=5),
            solve_partial_rt(g, y, TauGrid.for_graph(g, 0.5), seed=t, roundings=5),
        ):
            for i in y.revealed_set:
                assert out.values[i] == y.y[i]


def test_rt_fully_labeled_is_exact_for_any_tau():
    rng = np.random.default_rng(105)
    g = random_graph(rng, n=8)
    opt, x_star = exact_maxcut(g)
    y = PartialPrediction(y=x_star.values.copy(), epsilon=1.0)
    out = solve_partial_rt(g, y, TauGrid.for_graph(g, 0.25), seed=3, roundings=3)
    assert cut_value(g, out) == pytest.approx(opt, abs=1e-9)


def test_rt_tau_zero_matches_plain_label_fixed_rounding():
    g = gen_erdos_renyi(9, 0.6, "uniform", seed=106)
    _, x_star = exact_maxcut(g)
    y = sample_partial(x_star, 0.4, seed=107)
    grid = TauGrid(step=1.0, values=np.array([0.0]))
    out = solve_partial_rt(g, y, grid, seed=4, roundings=6)
    # reference: the same rounding stream on the plain pinned SDP
    pins = {int(i): float(y.y[i]) for i in y.revealed_set}
    sol = solve_sdp(g, SdpConfig(fixed_labels=pins,
                                 subset_constraint=(revealed_edge_set(g, y), 0.0),
                                 seed=[4, 0]))
    best = max((rt_round(sol, [4, 1, 0, r]) for r in range(6)),
               key=lambda c: cut_value(g, c))
    assert cut_value(g, out) == pytest.approx(cut_value(g, best), abs=1e-12)


def test_per_edge_cut_probability_matches_sdp_contribution():
    # an edge with one pinned endpoint is cut with probability exactly its
    # share (1 - <v_i, v_j>)/2 under the marginal-preserving rounding
    g = Graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    y = PartialPrediction(y=np.array([1.0, 0.0, 0.0]), epsilon=0.4)
    pins = {0: 1.0}
    sol = solve_sdp(g, SdpConfig(fixed_labels=pins, seed=5))
    draws = 10_000
    cuts = np.zeros(g.num_edges)
    for s in range(draws):
        x = rt_round(sol, [108, s])
        for e, (i, j, w) in enumerate(zip(g.edge_i, g.edge_j, g.edge_w)):
            cuts[e] += x.values[i] != x.values[j]
    for e, (i, j, w) in enumerate(zip(g.edge_i, g.edge_j, g.edge_w)):
        if 0 in (i, j):
            share = (1 - sol.vertex_vectors[i] @ sol.vertex_vectors[j]) / 2
            emp = cuts[e] / draws
            sd = np.sqrt(max(share * (1 - share), 1e-9) / draws)
            assert abs(emp - share) <= 3 * sd + 0.005


def test_expected_revealed_optimal_weight():
    # mean weight of optimal-cut edges touching a revealed vertex is
    # (2 eps - eps^2) * opt
    g = gen_erdos_renyi(10, 0.6, "uniform", seed=109)
    opt, x_star = exact_maxcut(g)
    eps = 0.35
    cut_edges = [(i, j, w) for i, j, w in zip(g.edge_i, g.edge_j, g.edge_w)
                 if x_star.values[i] != x_star.values[j]]
    draws = 3000
    vals = np.empty(draws)
    for t in range(draws):
        y = sample_partial(x_star, eps, seed=[110, t])
        rev = y.revealed
        vals[t] = sum(w for (i, j, w) in cut_edges if rev[i] or rev[j])
    target = (2 * eps - eps ** 2) * opt
    sem = vals.std(ddof=1) / np.sqrt(draws)
    assert abs(vals.mean() - target) <= 3 * sem


def test_small_bound_sanity():
    # light version of the acceptance ratio checks
    rng = np.random.default_rng(111)
    ratios_gw, ratios_rt = [], []
    for t in range(12):
        g = random_graph(rng, n=int(rng.integers(6, 11)))
        opt, x_star = exact_maxcut(g)
        if opt <= 0:
            continue
        y = sample_partial(x_star, 0.5, seed=[112, t])
        gw = solve_partial_gw(g, y, seed=t, roundings=10)
        rt = solve_partial_rt(g, y, TauGrid.for_graph(g, 0.25), seed=t, roundings=10)
        ratios_gw.append(cut_value(g, gw) / opt)
        ratios_rt.append(cut_value(g, rt) / opt)
    assert np.mean(ratios_gw) >= 0.85
    assert np.mean(ratios_rt) >= 0.85


def unpruned_rt(g, y, grid, seed, roundings):
    """solve_partial_rt's sweep with every grid point solved, as before pruning.

    Returns the first best cut and each grid point's feasibility.
    """
    pins = {int(i): float(y.y[i]) for i in y.revealed_set}
    subset = revealed_edge_set(g, y)
    best, best_val, feasible = None, -np.inf, []
    for t_idx, tau in enumerate(grid.values):
        sol = solve_sdp(g, SdpConfig(fixed_labels=pins, subset_constraint=(subset, float(tau)),
                                     seed=[seed, 0]))
        feasible.append(sol.feasible_at_tau)
        if not sol.feasible_at_tau:
            continue
        for r in range(roundings):
            x = rt_round(sol, [seed, 1, t_idx, r])
            if cut_value(g, x) > best_val:
                best, best_val = x, cut_value(g, x)
    return best, feasible


def counted_solves(monkeypatch):
    """Make solve_partial_rt record every tau it solves in the returned list."""
    calls = []
    solve = SubsetLadder.solve

    def counting_solve(ladder, tau):
        calls.append(tau)
        return solve(ladder, tau)

    monkeypatch.setattr(SubsetLadder, "solve", counting_solve)
    return calls


def reach_of(g, y):
    """The largest tau solve_partial_rt solves: the revealed edges' maximum plus its margin."""
    return (revealed_edge_maximum(g, y)
            + (SUBSET_TOL_FRAC + ROUNDING_FRAC) * max(g.total_weight, 1.0))


def test_rt_pruned_sweep_matches_unpruned_loop(monkeypatch):
    # the first unmet tau lies below the subset's weight but above the
    # revealed edges' maximum, so it is skipped without a solve
    g = gen_erdos_renyi(14, 0.5, "uniform", seed=113)
    _, x_star = exact_maxcut(g)
    y = sample_partial(x_star, 0.3, seed=114)
    grid = TauGrid.for_graph(g, 0.1)
    ref, feasible = unpruned_rt(g, y, grid, 5, 4)
    infeasible = feasible.count(False)
    first_unmet = min(tau for tau, ok in zip(grid.values, feasible) if not ok)
    assert infeasible >= 2
    assert reach_of(g, y) < first_unmet < float(np.sum(g.edge_w[revealed_edge_set(g, y)]))

    calls = counted_solves(monkeypatch)
    out = solve_partial_rt(g, y, grid, seed=5, roundings=4)
    assert np.array_equal(out.values, ref.values)
    assert len(calls) == len(grid.values) - infeasible


def test_rt_skips_taus_above_the_subset_weight_without_a_solve(monkeypatch):
    # a bipartite graph pinned to its planted sides meets every tau up to the
    # subset's weight, so the first unmet tau lies above it and is never solved
    g = gen_erdos_renyi(14, 0.0, "planted", seed=117, q_cross=0.6, q_within=0.0)
    y = sample_partial(g.planted, 0.3, seed=118)
    grid = TauGrid.for_graph(g, 0.1)
    ref, feasible = unpruned_rt(g, y, grid, 5, 4)
    subset_weight = float(np.sum(g.edge_w[revealed_edge_set(g, y)]))
    assert feasible.count(False) >= 2
    assert all(tau > subset_weight for tau, ok in zip(grid.values, feasible) if not ok)

    calls = counted_solves(monkeypatch)
    out = solve_partial_rt(g, y, grid, seed=5, roundings=4)
    assert np.array_equal(out.values, ref.values)
    assert len(calls) == feasible.count(True)


def test_rt_solves_each_rung_once(monkeypatch):
    # a sweep's ascent runs are the distinct ladder rungs its taus read plus
    # each tau's bisection runs: a single-tau solve's runs less its rungs.
    # The taus come unsorted and reach the largest tau the sweep solves,
    # which no rung meets, so one tau reads all 22 rungs.
    g = gen_erdos_renyi(14, 0.5, "uniform", seed=113)
    _, x_star = exact_maxcut(g)
    y = sample_partial(x_star, 0.3, seed=114)
    subset = revealed_edge_set(g, y)
    taus = np.linspace(0.0, reach_of(g, y), 13)
    grid = TauGrid(step=1 / 12, values=np.random.default_rng(115).permutation(taus))
    runs, solved = [], []
    ascent, solve = predcut.sdp._coordinate_ascent, SubsetLadder.solve

    def counting_ascent(*args):
        runs.append(args)
        return ascent(*args)

    def recording_solve(ladder, tau):
        solved.append((tau, solve(ladder, tau)))
        return solved[-1][1]

    monkeypatch.setattr(predcut.sdp, "_coordinate_ascent", counting_ascent)
    monkeypatch.setattr(SubsetLadder, "solve", recording_solve)
    solve_partial_rt(g, y, grid, seed=5, roundings=4)
    monkeypatch.setattr(SubsetLadder, "solve", solve)
    sweep_runs = len(runs)
    rungs = max(sol.feasibility_report["rungs"] for _, sol in solved)

    pins = {int(i): float(y.y[i]) for i in y.revealed_set}
    bisections = 0
    for tau, sol in solved:
        del runs[:]
        alone = solve_sdp(g, SdpConfig(fixed_labels=pins, subset_constraint=(subset, tau),
                                       seed=[5, 0]))
        assert alone.feasibility_report == sol.feasibility_report
        bisections += len(runs) - alone.feasibility_report["rungs"]
    assert len(solved) == len(taus)
    assert rungs == 22 and bisections > 0
    assert sweep_runs == rungs + bisections


def test_rt_solves_a_tau_at_its_reach_and_skips_one_just_above(monkeypatch):
    # reach is the revealed edges' maximum plus 1e-4 and 1e-9 times
    # max(W, 1). The top rung meets the maximum to rounding, so the tau at
    # reach is solved and found unmet: the tau just above reach is skipped
    # by the maximum, the repeat of reach by that unmet solve
    g = gen_erdos_renyi(14, 0.5, "uniform", seed=113)
    _, x_star = exact_maxcut(g)
    y = sample_partial(x_star, 0.3, seed=114)
    reach = reach_of(g, y)
    assert reach < g.total_weight
    grid = TauGrid(step=1.0, values=np.array([reach, np.nextafter(reach, np.inf), 0.0, reach]))
    ref, feasible = unpruned_rt(g, y, grid, 5, 4)
    assert feasible == [False, False, True, False]

    calls = counted_solves(monkeypatch)
    out = solve_partial_rt(g, y, grid, seed=5, roundings=4)
    assert out.values.tobytes() == ref.values.tobytes()
    assert calls == [reach, 0.0]


def brute_force_revealed_maximum(g, y):
    """The best pin-consistent +-1 assignment's weight of cut revealed edges."""
    free = np.flatnonzero(~y.revealed)
    X = np.tile(y.y, (2 ** len(free), 1))
    X[:, free] = 1 - 2 * ((np.arange(2 ** len(free))[:, None] >> np.arange(len(free))) & 1)
    sub = revealed_edge_set(g, y)
    cut = X[:, g.edge_i[sub]] != X[:, g.edge_j[sub]]
    return float(np.max(cut @ g.edge_w[sub])) if len(sub) else 0.0


@settings(max_examples=30)
@given(n=st.integers(2, 12), reveal=st.sampled_from(["all", "none", "one", "some"]),
       data=st.data())
def test_revealed_edge_maximum_bounds_every_rung_and_prunes_nothing_reachable(n, reveal, data):
    # zero weights, an isolated vertex (the last) and all, none or one
    # vertex revealed
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31 - 1)))
    weights = [0.0, 1.0, 2.5, float(rng.uniform(0, 1))]
    edges = [(i, j, weights[int(rng.integers(4))]) for i in range(n - 1) for j in range(i + 1, n - 1)
             if rng.random() < 0.5]
    g = Graph(n, edges)
    shown = {"all": np.ones(n, dtype=bool), "none": np.zeros(n, dtype=bool),
             "one": np.arange(n) == int(rng.integers(n)), "some": rng.random(n) < 0.4}[reveal]
    y = PartialPrediction(y=np.where(shown, rng.choice([-1.0, 1.0], n), 0.0), epsilon=0.5)
    top = revealed_edge_maximum(g, y)
    assert top == pytest.approx(brute_force_revealed_maximum(g, y), rel=0, abs=1e-12 * max(g.total_weight, 1.0))

    pins = {int(i): float(y.y[i]) for i in y.revealed_set}
    ladder = SubsetLadder(g, revealed_edge_set(g, y), pins, [6, 0])
    values = [ladder._rung(m)[1] for m in range(ladder.top + 1)]
    assert len(values) == (22 if ladder.top else 1)
    assert max(values) <= top + ROUNDING_FRAC * max(g.total_weight, 1.0)

    grid = TauGrid.for_graph(g, 0.25)
    ref, _ = unpruned_rt(g, y, grid, 6, 3)
    assert solve_partial_rt(g, y, grid, seed=6, roundings=3).values.tobytes() == ref.values.tobytes()
