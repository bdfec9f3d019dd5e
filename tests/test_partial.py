import numpy as np
import pytest

import predcut.sdp
from predcut.errors import ParameterError
from predcut.exact import exact_maxcut
from predcut.graph import Graph, cut_value, gen_erdos_renyi
from predcut.partial import (TauGrid, revealed_edge_set, solve_partial_gw,
                             solve_partial_rt)
from predcut.predictions import PartialPrediction, sample_partial
from predcut.sdp import SdpConfig, SubsetLadder, rt_round, solve_sdp

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


def test_rt_pruned_sweep_matches_unpruned_loop(monkeypatch):
    g = gen_erdos_renyi(14, 0.5, "uniform", seed=113)
    _, x_star = exact_maxcut(g)
    y = sample_partial(x_star, 0.3, seed=114)
    grid = TauGrid.for_graph(g, 0.1)
    ref, feasible = unpruned_rt(g, y, grid, 5, 4)
    infeasible = feasible.count(False)
    assert infeasible >= 2

    calls = counted_solves(monkeypatch)
    out = solve_partial_rt(g, y, grid, seed=5, roundings=4)
    assert np.array_equal(out.values, ref.values)
    assert len(calls) == len(grid.values) - infeasible + 1


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
    # The taus come unsorted and reach the subset's weight.
    g = gen_erdos_renyi(14, 0.5, "uniform", seed=113)
    _, x_star = exact_maxcut(g)
    y = sample_partial(x_star, 0.3, seed=114)
    subset = revealed_edge_set(g, y)
    taus = np.linspace(0.0, float(np.sum(g.edge_w[subset])), 13)
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
    assert rungs == 22 and bisections > 0
    assert sweep_runs == rungs + bisections
