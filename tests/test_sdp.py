import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

import predcut
from predcut.errors import DimensionError, ParameterError, ParseError
from predcut.exact import exact_maxcut
from predcut.graph import Graph, cut_value, gen_erdos_renyi
from predcut.sdp import (CERTIFIED_ROOM, SUBSET_TOL_FRAC, TRIANGLE_TOL, SdpConfig, SdpSolution,
                         SubsetLadder, _ClassRows, _colour_classes, _coordinate_ascent,
                         _csr_product, _one_opt, _penalty_continuation, _row_norms,
                         _rt_thresholds, _subset_weights, _triangle_terms, hyperplane_round,
                         load_solution, round_by_direction, rt_round, save_solution,
                         sdp_objective, sdp_upper_bound, solve_sdp)
from predcut.seeds import derive

from conftest import random_graph, three_sigma


def k3():
    return Graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])


def synthetic_solution(vertex_rows):
    """SdpSolution from explicit vertex vectors, v_0 = e_1."""
    V = np.asarray(vertex_rows, dtype=np.float64)
    v0 = np.zeros(V.shape[1])
    v0[0] = 1.0
    full = np.vstack([v0, V])
    return SdpSolution(vectors=full, objective_value=np.nan,
                       feasibility_report={"unit_norm": 0.0})


def test_solution_dim_is_read_from_its_vectors():
    import dataclasses
    assert "dim" not in {f.name for f in dataclasses.fields(SdpSolution)}
    assert synthetic_solution(np.eye(4)[:3]).dim == 4
    sol = solve_sdp(gen_erdos_renyi(12, 0.5, "unit", seed=3))
    assert sol.dim == sol.vectors.shape[1] == len(sol.v0)
    # a dim that disagrees with the rows can no longer be given
    with pytest.raises(TypeError):
        SdpSolution(dim=5, vectors=np.eye(4, 3), objective_value=0.0, feasibility_report={})


def test_single_edge_objective():
    g = Graph(2, [(0, 1, 1.0)])
    sol = solve_sdp(g)
    assert sol.objective_value == pytest.approx(1.0, abs=1e-6)
    assert sol.vertex_vectors[0] @ sol.vertex_vectors[1] == pytest.approx(-1.0, abs=1e-5)


def test_k3_objective_matches_psd_grid_oracle():
    # independent oracle: symmetric Gram [[1,c,c],[c,1,c],[c,c,1]] is PSD
    # iff c >= -1/2, so the best symmetric value is max_c 3(1-c)/2 = 9/4;
    # scan c to find it numerically rather than trusting the algebra
    best = -np.inf
    for c in np.linspace(-1.0, 1.0, 20001):
        G = np.full((3, 3), c) + np.eye(3) * (1 - c)
        if np.linalg.eigvalsh(G)[0] >= -1e-12:
            best = max(best, 3 * (1 - c) / 2)
    sol = solve_sdp(k3())
    assert best == pytest.approx(2.25, abs=1e-3)
    assert sol.objective_value == pytest.approx(best, abs=1e-4 * 6)


def test_fully_pinned_edge_gives_zero():
    g = Graph(2, [(0, 1, 1.0)])
    sol = solve_sdp(g, SdpConfig(fixed_labels={0: 1, 1: 1}))
    assert sol.objective_value == pytest.approx(0.0, abs=1e-9)


def test_pins_are_bit_exact():
    g = gen_erdos_renyi(10, 0.6, "uniform", seed=2)
    pins = {0: 1, 3: -1, 7: 1}
    sol = solve_sdp(g, SdpConfig(fixed_labels=pins))
    for v, s in pins.items():
        assert np.array_equal(sol.vertex_vectors[v], s * sol.v0)
    assert sol.feasibility_report["pins"] == 0.0


def test_contradictory_pins_rejected():
    g = Graph(2, [(0, 1, 1.0)])
    with pytest.raises(ParameterError):
        solve_sdp(g, SdpConfig(fixed_labels={0: 2}))


def test_relaxation_dominates_exact_optimum():
    rng = np.random.default_rng(41)
    for _ in range(15):
        g = random_graph(rng, n=int(rng.integers(3, 11)))
        opt, _ = exact_maxcut(g)
        sol = solve_sdp(g)
        assert sol.objective_value >= opt - 1e-6 * max(g.total_weight, 1.0)


def test_hyperplane_antipodal_always_cut():
    sol = synthetic_solution([[0, 1, 0], [0, -1, 0]])
    g = Graph(2, [(0, 1, 1.0)])
    for s in range(50):
        assert cut_value(g, hyperplane_round(sol, s)) == 1.0


def test_hyperplane_identical_never_cut():
    sol = synthetic_solution([[0, 1, 0], [0, 1, 0]])
    g = Graph(2, [(0, 1, 1.0)])
    for s in range(50):
        assert cut_value(g, hyperplane_round(sol, s)) == 0.0


def test_hyperplane_orthogonal_pair_frequency():
    sol = synthetic_solution([[0, 1, 0], [0, 0, 1]])
    hits = sum(
        hyperplane_round(sol, s).values[0] != hyperplane_round(sol, s).values[1]
        for s in range(10_000)
    )
    assert abs(hits / 10_000 - 0.5) <= 0.02


def test_rt_round_pinned_is_deterministic():
    sol = synthetic_solution([[1.0, 0, 0], [-1.0, 0, 0], [0.6, 0.8, 0]])
    for s in range(200):
        x = rt_round(sol, s)
        assert x.values[0] == 1.0
        assert x.values[1] == -1.0


def test_rt_round_marginals():
    draws = 10_000
    for mu, target in ((0.0, 0.5), (0.6, 0.8)):
        w = np.sqrt(1 - mu * mu)
        sol = synthetic_solution([[mu, w, 0]])
        hits = sum(rt_round(sol, s).values[0] == 1.0 for s in range(draws))
        assert abs(hits / draws - target) <= 0.02


def test_rt_round_expectation_matches_mu():
    rng = np.random.default_rng(43)
    mus = rng.uniform(-0.9, 0.9, size=5)
    rows = [[m, np.sqrt(1 - m * m), 0] for m in mus]
    sol = synthetic_solution(rows)
    draws = 10_000
    acc = np.zeros(5)
    for s in range(draws):
        acc += rt_round(sol, s).values
    for i, m in enumerate(mus):
        p = m / 2 + 0.5
        assert abs(acc[i] / draws - m) <= 2 * (three_sigma(p, draws) + 0.01)


def test_rt_thresholds_equal_norm_ppf_bit_for_bit():
    rng = np.random.default_rng(52)
    mus = np.concatenate([[-1.0, 0.0, 1.0, 1e-300, -1e-300, -0.0],
                          rng.uniform(-1.0, 1.0, 2000), 1.0 - rng.uniform(0, 1e-9, 50),
                          -1.0 + rng.uniform(0, 1e-9, 50), rng.uniform(-1e-12, 1e-12, 50)])
    with np.errstate(invalid="ignore"):
        ref = norm.ppf(np.clip(mus, -1.0, 1.0) / 2.0 + 0.5)
    t = _rt_thresholds(mus)
    assert t.tobytes() == ref.tobytes()
    assert t[0] == -np.inf and t[2] == np.inf


def test_sdp_objective_all_equal_vectors():
    g = k3()
    sol = synthetic_solution([[0, 1, 0]] * 3)
    assert sdp_objective(g, sol) == 0.0


def test_sdp_objective_bipartite_antipodal():
    g = Graph(4, [(0, 2, 1.0), (0, 3, 1.0), (1, 2, 1.0), (1, 3, 1.0)])
    sol = synthetic_solution([[0, 1, 0], [0, 1, 0], [0, -1, 0], [0, -1, 0]])
    assert sdp_objective(g, sol) == pytest.approx(4.0)


def test_sdp_objective_matches_independent_recomputation():
    rng = np.random.default_rng(44)
    for _ in range(10):
        g = random_graph(rng)
        sol = solve_sdp(g, SdpConfig(seed=int(rng.integers(100))))
        # second evaluation path: dense Gram matrix trace form
        Vv = sol.vertex_vectors
        G = Vv @ Vv.T
        dense = 0.25 * (g.total_weight - float(np.sum(g.csr.toarray() * G)))
        assert sol.objective_value == pytest.approx(dense, abs=1e-8)
        assert sdp_objective(g, sol) == pytest.approx(sol.objective_value, abs=1e-8)


def test_sdp_objective_dimension_check():
    sol = synthetic_solution([[0, 1, 0]] * 3)
    with pytest.raises(DimensionError):
        sdp_objective(Graph(2, [(0, 1, 1.0)]), sol)


def max_triangle_violation(sol):
    """Independent exhaustive check over all sign patterns and triples."""
    V = sol.vertex_vectors
    G = V @ V.T
    n = G.shape[0]
    worst = 0.0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if i == j or j == k or i == k:
                    continue
                for s in (1.0, -1.0):
                    worst = max(worst, s * (G[j, k] + G[i, k]) - 1.0 - G[i, j])
    return worst


def test_triangle_constraints_enforced():
    for seed, n in ((1, 8), (2, 12)):
        g = gen_erdos_renyi(n, 0.6, "uniform", seed=seed)
        sol = solve_sdp(g, SdpConfig(triangle=True, seed=seed))
        assert max_triangle_violation(sol) <= 1e-3 + 1e-9
        assert sol.feasibility_report["triangle"] <= 1e-3 + 1e-9
        opt, _ = exact_maxcut(g)
        assert sol.objective_value >= opt - 1e-6 * max(g.total_weight, 1.0)


def test_report_counts_penalty_rounds():
    # every weight 1.5 keeps C5 out of the certified exit: its cut values
    # are not integers, and its best cut, 6, lies 0.78 under the bound
    c5 = Graph(5, [(i, (i + 1) % 5, 1.5) for i in range(5)])
    report = solve_sdp(c5, SdpConfig(triangle=True)).feasibility_report
    # the floor cut's perturbed embedding violates the triangle family; one
    # run of <= 50 rounds
    assert 1 <= report["penalty_rounds"] <= 50
    assert "penalty_rounds" not in solve_sdp(c5).feasibility_report


def test_a_unit_weight_odd_cycle_exits_certified():
    # C5's bound, 4.52, floors to its maximum cut, 4, which a floor
    # rounding reaches: the stage returns that cut with no penalty round
    c5 = Graph(5, [(i, (i + 1) % 5, 1.0) for i in range(5)])
    assert math.floor(sdp_upper_bound(c5, solve_sdp(c5))) == 4
    sol = solve_sdp(c5, SdpConfig(triangle=True))
    report = sol.feasibility_report
    assert report["certified"] is True and report["penalty_rounds"] == 0
    assert report["fallback"] is False and report["triangle"] == 0.0
    assert sol.objective_value == exact_maxcut(c5)[0]
    assert "certified" not in solve_sdp(c5).feasibility_report


def test_report_names_the_fallback():
    g = gen_erdos_renyi(12, 0.6, "uniform", seed=0)
    report = solve_sdp(g, SdpConfig(triangle=True)).feasibility_report
    assert report["fallback"] is False and "start" not in report
    # C5 plus the chord (0, 2), every weight 1.5 to stay out of the
    # certified exit: the perturbed floor embedding already meets the
    # tolerance, yet the run still takes its rounds and climbs above the
    # maximum cut (to about 7.5005) instead of falling back to the floor
    g5 = Graph(5, [(i, (i + 1) % 5, 1.5) for i in range(5)] + [(0, 2, 1.5)])
    opt, _ = exact_maxcut(g5)
    for seed in range(4):
        sol = solve_sdp(g5, SdpConfig(triangle=True, seed=seed))
        report = sol.feasibility_report
        assert report["fallback"] is False and report["penalty_rounds"] >= 1
        assert report["triangle"] <= TRIANGLE_TOL
        assert sol.objective_value > opt + 1e-4
    assert "fallback" not in solve_sdp(g5).feasibility_report


def integer_weight_graph(rng, n, p):
    """A graph with weights in {0, 1, 2, 3}, isolated vertices, and no edges when p = 0."""
    isolated = rng.random(n) < 0.2
    return Graph(n, [(i, j, float(rng.integers(4))) for i in range(n) for j in range(i + 1, n)
                     if not (isolated[i] or isolated[j]) and rng.random() < p])


def floor_rounding(g, seed):
    """(earliest best cut, its value) of the triangle stage's 20 one-opt roundings, all drawn.

    The roundings project the plain solve at the same seed, which is the
    stage's rung 0, on the streams derive(seed, 90, r).
    """
    P = solve_sdp(g, SdpConfig(seed=seed)).vertex_vectors
    D = g.csr.toarray()
    best, best_val = None, -np.inf
    for r in range(20):
        proj = P @ np.random.default_rng(derive(seed, 90, r)).standard_normal(P.shape[1])
        x = _one_opt(D, np.where(proj > 0, 1.0, -1.0))
        if cut_value(g, x) > best_val:
            best, best_val = x, cut_value(g, x)
    return best, best_val


@settings(max_examples=60)
@given(n=st.integers(1, 14), p=st.sampled_from([0.0, 0.3, 0.7, 1.0]), data=st.data())
def test_the_certified_exit_returns_the_earliest_best_rounding_at_the_optimum(n, p, data):
    # unpinned integer weights: a certified solve returns the +-v_0
    # embedding of a maximum cut, its objective is exactly OPT and the goal
    # of its reported bound is OPT; the stage certifies whenever its best
    # end-of-ascent rounding reaches the goal of the plain bound, and an
    # in-ascent check may certify earlier. An uncertified solve ran the
    # ascent to its tolerance and took the floor path on the plain bound
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31 - 1)))
    g = integer_weight_graph(rng, n, p)
    seed = int(rng.integers(1000))
    sol = solve_sdp(g, SdpConfig(triangle=True, seed=seed))
    report = sol.feasibility_report
    plain = solve_sdp(g, SdpConfig(seed=seed))
    bound = sdp_upper_bound(g, plain)
    best, best_val = floor_rounding(g, seed)
    goal = math.floor(bound + 1e-9)
    opt = exact_maxcut(g)[0]
    if best_val >= goal:
        assert report["certified"] is True
    if report["certified"]:
        x = np.where(sol.vertex_vectors @ sol.v0 > 0, 1.0, -1.0)
        assert sol.vertex_vectors.tobytes() == (x[:, None] * sol.v0[None, :]).tobytes()
        assert sol.objective_value == cut_value(g, x) == opt
        assert math.floor(report["bound"] + 1e-9) == opt
        assert report["penalty_rounds"] == 0 and report["triangle"] == 0.0
        assert report["fallback"] is False
        assert report["sweeps"] <= plain.feasibility_report["sweeps"]
    else:
        assert best_val < goal
        assert report["bound"] == bound
        assert report["sweeps"] == plain.feasibility_report["sweeps"]
        assert report["penalty_rounds"] >= 1
        if report["fallback"]:
            assert sol.vertex_vectors.tobytes() == (best[:, None] * sol.v0[None, :]).tobytes()


def test_the_in_ascent_check_certifies_before_the_plain_ascent_ends():
    # the check after sweep 2 or 4 already proves a rounding of the current
    # rows a maximum cut, where the plain solve at the same seed runs on to
    # its tolerance; the check only reads the rows, so the plain ascent is
    # the one a solve without checks runs
    graphs = [gen_erdos_renyi(16, 0.5, "unit", seed=0),
              gen_erdos_renyi(16, 0.5, "planted", seed=5, q_cross=0.6, q_within=0.3)]
    for g in graphs:
        sol = solve_sdp(g, SdpConfig(triangle=True))
        report = sol.feasibility_report
        plain = solve_sdp(g).feasibility_report
        assert report["certified"] and report["converged"]
        assert report["sweeps"] in (2, 4) and plain["sweeps"] > 8
        assert sol.objective_value == exact_maxcut(g)[0]


@settings(max_examples=30)
@given(n=st.integers(1, 14), p=st.sampled_from([0.0, 0.3, 0.7, 1.0]), data=st.data())
def test_non_integer_weights_exit_only_within_the_certified_room(n, p, data):
    # with a non-integer weight the stage exits exactly when its best
    # rounding lies within CERTIFIED_ROOM * max(W, 1) of the bound, and then
    # returns that rounding's embedding, at the floor cut's value
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31 - 1)))
    g = integer_weight_graph(rng, n, p)
    w = g.edge_w.copy()
    if len(w):
        w[int(rng.integers(len(w)))] += 0.5
        g = Graph(n, np.column_stack([g.edge_i, g.edge_j, w]))
    else:
        g = Graph(max(n, 2), [(0, 1, 0.5)])
    seed = int(rng.integers(1000))
    sol = solve_sdp(g, SdpConfig(triangle=True, seed=seed))
    report = sol.feasibility_report
    best, best_val = floor_rounding(g, seed)
    bound = sdp_upper_bound(g, solve_sdp(g, SdpConfig(seed=seed)))
    room = (bound - best_val) / max(g.total_weight, 1.0)
    assert report["certified"] is bool(room <= CERTIFIED_ROOM)
    if report["certified"]:
        assert sol.objective_value == pytest.approx(best_val, rel=1e-12, abs=0)
        assert report["penalty_rounds"] == 0 and report["triangle"] == 0.0
        assert sol.vertex_vectors.tobytes() == (best[:, None] * sol.v0[None, :]).tobytes()


def test_a_sparse_uniform_graph_meets_the_tolerance_in_one_round():
    # the start weight scaled by the floor cut's room lets the first round
    # end within the tolerance; the weight max(1, W/n) alone took two
    g = gen_erdos_renyi(60, 10 / 60, "uniform", seed=60000)
    _, floor_val = floor_rounding(g, 0)
    sol = solve_sdp(g, SdpConfig(triangle=True))
    report = sol.feasibility_report
    assert report["certified"] is False and report["penalty_rounds"] == 1
    assert report["triangle"] <= TRIANGLE_TOL
    assert sol.objective_value >= floor_val


def test_triangle_sdp_on_an_odd_cycle_with_chords():
    # C7 plus chords (2, 4) and (1, 5): a start from a random embedding used
    # to end above the floor-started run here, so only the contract is checked
    g = Graph(7, [(i, (i + 1) % 7, 1.0) for i in range(7)] + [(2, 4, 1.0), (1, 5, 1.0)])
    sol = solve_sdp(g, SdpConfig(triangle=True))
    assert max_triangle_violation(sol) <= 1e-3 + 1e-9
    assert sol.feasibility_report["triangle"] <= 1e-3
    opt, _ = exact_maxcut(g)
    assert sol.objective_value >= opt


@pytest.mark.parametrize("n", [3, 12, 28, 30])
def test_triangle_gradient_matches_central_differences(n):
    # dpen/dV = (dG + dG^T) V, since G = V V^T
    rng = np.random.default_rng(100 + n)
    V = random_unit_rows(rng, n, 3)
    pen, _, dG = _triangle_terms(V)
    assert pen > 0
    grad = (dG + dG.T) @ V
    h = 1e-6
    for _ in range(8):
        i, c = int(rng.integers(n)), int(rng.integers(3))
        Vp, Vm = V.copy(), V.copy()
        Vp[i, c] += h
        Vm[i, c] -= h
        fd = (_triangle_terms(Vp)[0] - _triangle_terms(Vm)[0]) / (2 * h)
        assert fd == pytest.approx(grad[i, c], rel=1e-5, abs=1e-6)


def triangle_terms_by_loop(V):
    """(pen, maxv, dG) by a plain loop over ordered distinct triples and both signs.

    dG[a, b] is the derivative with respect to G[a, b] taken as its own
    variable, as _triangle_terms reports it.
    """
    G = V @ V.T
    n = G.shape[0]
    pen, maxv, dG = 0.0, 0.0, np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if i == j or j == k or i == k:
                    continue
                for s in (1.0, -1.0):
                    v = s * (G[j, k] + G[i, k]) - 1.0 - G[i, j]
                    if v > 0:
                        pen += v * v
                        maxv = max(maxv, v)
                        dG[j, k] += 2 * s * v
                        dG[i, k] += 2 * s * v
                        dG[i, j] -= 2 * v
    return pen, maxv, dG


@pytest.mark.parametrize("n, chunk_elems", [(3, None), (12, None), (28, None), (30, None),
                                            (30, 7 * 30 * 30), (12, 12 * 12), (66, None)])
def test_triangle_terms_match_a_per_triple_loop(n, chunk_elems):
    # 7 rows per pass split n = 30 into five passes, the last one short; one
    # row per pass splits n = 12 into twelve; n = 66 takes passes of 60 and
    # 6 rows at the default chunk size
    V = random_unit_rows(np.random.default_rng(200 + n), n, 3)
    if chunk_elems is None:
        pen, maxv, dG = _triangle_terms(V)
    else:
        pen, maxv, dG = _triangle_terms(V, chunk_elems)
    ref_pen, ref_maxv, ref_dG = triangle_terms_by_loop(V)
    assert ref_pen > 0
    assert pen == pytest.approx(ref_pen, rel=1e-12, abs=0)
    assert maxv == pytest.approx(ref_maxv, rel=1e-12, abs=0)
    assert np.max(np.abs(dG - ref_dG)) <= 1e-12 * max(1.0, np.max(np.abs(ref_dG)))


def continuation_case(rng, n, blend, k=None):
    """Dense multiplier-adjusted weights (zero weights, isolated vertices) and a
    start V blended from a random cut embedding as solve_sdp blends it."""
    weights = [0.0, 1.0, 2.0, float(rng.uniform(0, 1))]
    g = Graph(n, [(i, j, weights[int(rng.integers(4))]) for i in range(n - 1)
                  for j in range(i + 1, n - 1) if rng.random() < 0.5])   # n - 1 isolated
    sub = np.flatnonzero(rng.random(g.num_edges) < 0.3)
    lam = float(rng.choice([0.0, 1.5, 8.0]))
    A = (g.csr + lam * subset_matrix(g, sub)).toarray()
    k = k or int(np.ceil(np.sqrt(2 * n))) + 1
    v0 = np.eye(k)[0]
    x = rng.choice([-1.0, 1.0], n)
    V = (1 - blend) * x[:, None] * v0[None, :] + blend * rng.standard_normal((n, k))
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    return A, V, max(g.total_weight, 1.0)


@settings(max_examples=30)
@given(n=st.integers(3, 30), blend=st.sampled_from([0.02, 0.3, 1.0]),
       rho=st.sampled_from([1.0, 7.5, 300.0, 1e5]), seed=st.integers(0, 2 ** 31 - 1))
def test_penalty_rounds_keep_unit_rows(n, blend, rho, seed):
    # the returned worst violation is the exhaustive one at the returned
    # rows, whatever the start weight
    A, V, scale = continuation_case(np.random.default_rng(seed), n, blend)
    worst, rounds = _penalty_continuation(A, V, scale, rho)
    assert np.max(np.abs(np.linalg.norm(V, axis=1) - 1.0)) <= 1e-12
    assert worst <= TRIANGLE_TOL or rounds == 50
    assert 1 <= rounds <= 50
    assert worst == _triangle_terms(V)[1]
    assert worst == pytest.approx(max_triangle_violation(synthetic_solution(V)), rel=0, abs=1e-12)


def test_rounded_floor_triangle_solves_still_run_the_plain_ascent():
    # every floor rounds the plain vectors, so every triangle solve runs the
    # plain ascent, whatever n
    g22 = gen_erdos_renyi(22, 0.5, "planted", seed=0, q_cross=0.6, q_within=0.3)
    g12 = gen_erdos_renyi(12, 0.6, "uniform", seed=0)
    for g in (g22, g12, Graph(3, [])):
        report = solve_sdp(g, SdpConfig(triangle=True)).feasibility_report
        assert report["sweeps"] >= 1 and report["converged"]


def test_sdp_module_does_not_reference_the_exact_oracle():
    # the triangle floor comes from roundings of the plain solve, never from
    # the exhaustive oracle that the tests check the solver against
    import predcut.sdp
    assert "exact_maxcut" not in Path(predcut.sdp.__file__).read_text()
    assert not hasattr(predcut.sdp, "exact_maxcut")


def test_graph_keeps_no_dense_view_and_three_bounded_callers_densify():
    # a Graph holds its edge arrays and CSR only; a dense matrix is built
    # by toarray() inside the three callers that stop at a typed n limit
    import ast
    g = Graph(3, [(0, 1, 1.0)])
    for name in ("adjacency", "edges"):
        assert not hasattr(Graph, name) and not hasattr(g, name)
    found = []

    def visit(node, owner):
        if isinstance(node, ast.FunctionDef):
            owner = node.name
        if isinstance(node, ast.Attribute) and node.attr == "toarray":
            found.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for path in sorted(Path(predcut.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), None)
    assert sorted(found) == ["_triangle_solve", "exact_maxcut", "sdp_upper_bound"]


def test_triangle_sdp_refuses_graphs_above_the_limit():
    from predcut.sdp import TRIANGLE_LIMIT
    g = Graph(TRIANGLE_LIMIT + 1, [(0, 1, 1.0)])
    with pytest.raises(ParameterError, match="triangle SDP"):
        solve_sdp(g, SdpConfig(triangle=True))
    assert solve_sdp(g).feasibility_report["converged"]


def test_triangle_config_with_a_subset_is_refused():
    g = gen_erdos_renyi(8, 0.6, "unit", seed=0)
    with pytest.raises(ParameterError, match="subset"):
        solve_sdp(g, SdpConfig(triangle=True, subset_constraint=(np.arange(2), 1.0)))
    with pytest.raises(ParameterError, match="subset"):
        solve_sdp(g, SdpConfig(triangle=True, subset_constraint=([], 0.0)))


def test_triangle_config_with_pins_is_refused_before_any_sweep(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("a triangle config with pins ran an ascent sweep")

    monkeypatch.setattr(predcut.sdp, "_coordinate_ascent", no_solve)
    g = gen_erdos_renyi(8, 0.6, "unit", seed=0)
    with pytest.raises(ParameterError, match="no pins"):
        solve_sdp(g, SdpConfig(triangle=True, fixed_labels={0: 1}))


def test_only_solve_sdp_reads_the_config_options():
    # SdpConfig's constraint fields are read in one place; the ladder and the
    # triangle stage take the pins and the seed as arguments
    import ast
    readers = []

    def visit(node, owner):
        if isinstance(node, ast.FunctionDef):
            owner = node.name
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and node.attr in ("fixed_labels", "subset_constraint", "triangle")):
            readers.append((owner, node.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for path in sorted(Path(predcut.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), None)
    assert {owner for owner, _ in readers} == {"solve_sdp"}
    assert {attr for _, attr in readers} == {"fixed_labels", "subset_constraint", "triangle"}


@settings(max_examples=30)
@given(n=st.sampled_from([1, 2, 3, 4, 7, 12, 19, 20, 21, 22]),
       p=st.sampled_from([0.0, 0.4, 0.8]), data=st.data())
def test_triangle_stage_on_degenerate_graphs(n, p, data):
    # no edges, zero-weight edges and isolated vertices, with n up to 22
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31 - 1)))
    weights = [0.0, 1.0, float(rng.uniform(0, 1))]
    isolated = rng.random(n) < 0.2
    edges = [(i, j, weights[int(rng.integers(3))]) for i in range(n) for j in range(i + 1, n)
             if not (isolated[i] or isolated[j]) and rng.random() < p]
    g = Graph(n, edges)
    sol = solve_sdp(g, SdpConfig(triangle=True, seed=int(rng.integers(1000))))
    assert np.max(np.abs(np.linalg.norm(sol.vectors, axis=1) - 1.0)) <= 1e-12
    assert sol.feasibility_report["triangle"] <= TRIANGLE_TOL
    assert sol.feasibility_report["sweeps"] >= 1
    opt, _ = exact_maxcut(g)
    assert sol.objective_value >= opt - 1e-12 * max(g.total_weight, 1.0)


def test_subset_constraint_drives_edge():
    # C5 with one designated edge forced to carry ~its full weight
    g = Graph(5, [(i, (i + 1) % 5, 1.0) for i in range(5)])
    base = solve_sdp(g)
    e0 = base.vertex_vectors[0] @ base.vertex_vectors[1]
    sol = solve_sdp(g, SdpConfig(subset_constraint=(np.array([0]), 0.999)))
    assert sol.feasible_at_tau
    contrib = (1 - sol.vertex_vectors[0] @ sol.vertex_vectors[1]) / 2
    assert contrib >= 0.999 - 1e-4 * g.total_weight
    # C5's relaxation spreads every edge strictly below 1, so this bound bites
    assert (1 - e0) / 2 < 0.999


def test_subset_constraint_infeasible_tau():
    g = k3()
    sol = solve_sdp(g, SdpConfig(subset_constraint=(np.arange(3), 2.5)))
    assert not sol.feasible_at_tau
    with pytest.raises(ParameterError):
        solve_sdp(g, SdpConfig(subset_constraint=(np.arange(3), 7.0)))


def test_unit_norms():
    rng = np.random.default_rng(45)
    for _ in range(5):
        g = random_graph(rng)
        sol = solve_sdp(g)
        assert sol.feasibility_report["unit_norm"] <= 1e-6


def test_solution_round_trip():
    g = gen_erdos_renyi(6, 0.7, "unit", seed=3)
    sol = solve_sdp(g, SdpConfig(seed=9))
    loaded = load_solution(save_solution(sol))
    assert loaded.dim == sol.dim
    assert np.array_equal(loaded.vectors, sol.vectors)


def test_solution_file_errors_name_the_file_line():
    text = "\n2 2\n1.0 0.0\n\n0.0 1.0\n0.0 x\n"
    with pytest.raises(ParseError, match="line 6: coordinates must be floats"):
        load_solution(text)
    with pytest.raises(ParseError, match="line 6: expected 2 coordinates"):
        load_solution(text.replace("0.0 x", "0.0 1.0 0.0"))
    with pytest.raises(ParseError, match="line 2: expected 3 vector rows"):
        load_solution(text.replace("0.0 x\n", ""))
    for header in ("3 -1", "0 2", "-1 0"):
        with pytest.raises(ParseError, match="line 2: header needs k >= 1 and n >= 0"):
            load_solution(text.replace("2 2", header))
    with pytest.raises(ParseError, match="line 1: header needs k >= 1 and n >= 0"):
        load_solution("3 -1\n")
    assert load_solution(text.replace("0.0 x", "1.0 0.0")).vectors.shape == (3, 2)


def test_round_by_direction_matches_manual_signs():
    sol = synthetic_solution([[0.6, 0.8, 0], [0.2, -0.9, np.sqrt(1 - 0.85)]])
    gvec = np.array([0.3, -1.2, 0.5])
    x = round_by_direction(sol, gvec)
    proj = sol.vertex_vectors @ gvec
    assert np.array_equal(x.values, np.where(proj > 0, 1.0, -1.0))


def dense_objective(g, V):
    """sum_{i<j} w_ij (1 - <v_i, v_j>)/2 from the dense Gram matrix."""
    return 0.25 * (g.total_weight - float(np.sum(g.csr.toarray() * (V @ V.T))))


def random_unit_rows(rng, n, k):
    V = rng.standard_normal((n, k))
    return V / np.linalg.norm(V, axis=1, keepdims=True)


def subset_matrix(g, edge_idx):
    """scipy's symmetric CSR matrix of the edges edge_idx, duplicate entries summed."""
    i, j, w = g.edge_i[edge_idx], g.edge_j[edge_idx], g.edge_w[edge_idx]
    return sp.csr_matrix((np.concatenate([w, w]), (np.concatenate([i, j]), np.concatenate([j, i]))),
                         shape=(g.n, g.n))


def on_pattern(A, B):
    """B's values on A's stored entries, 0 on the others; B's pattern lies within A's."""
    def keys(M):
        rows = np.repeat(np.arange(M.shape[0], dtype=np.int64), np.diff(M.indptr))
        return rows * M.shape[1] + M.indices

    s = np.zeros(A.nnz)
    s[np.searchsorted(keys(A), keys(B))] = B.data
    return s


def test_subset_weights_equal_the_scipy_subset_matrix_on_the_pattern():
    rng = np.random.default_rng(46)
    for trial in range(40):
        g = random_graph(rng) if trial % 2 else Graph(
            7, [(0, 1, 0.0), (1, 2, 1.0), (0, 2, 2.5), (4, 5, float(rng.uniform(0, 1)))])
        m = g.num_edges
        assert _subset_weights(g, np.arange(m)).tobytes() == g.csr.data.tobytes()
        sub = np.flatnonzero(rng.random(m) < 0.5)
        ref = np.zeros((g.n, g.n))
        for e in sub:
            i, j, w = g.edge_i[e], g.edge_j[e], g.edge_w[e]
            ref[i, j] = ref[j, i] = w
        assert np.array_equal(subset_matrix(g, sub).toarray(), ref)
        # repeated indices add once per repeat, as scipy sums duplicates
        for idx in (sub, np.concatenate([sub, rng.integers(0, max(m, 1), 4 if m else 0)]),
                    np.repeat(sub, 3), np.empty(0, dtype=np.intp)):
            s = _subset_weights(g, idx)
            assert s.tobytes() == on_pattern(g.csr, subset_matrix(g, idx)).tobytes()


def test_colour_classes_partition_free_vertices_into_independent_sets():
    rng = np.random.default_rng(47)
    for _ in range(20):
        g = random_graph(rng)
        free = np.flatnonzero(rng.random(g.n) < 0.7)
        classes = _colour_classes(g.csr, free)
        colour = {}
        for c, members in enumerate(classes):
            for v in members.tolist():
                assert v not in colour
                colour[v] = c
        assert sorted(colour) == free.tolist()
        for i, j in zip(g.edge_i.tolist(), g.edge_j.tolist()):
            if i in colour and j in colour:
                assert colour[i] != colour[j]


@settings(max_examples=60)
@given(n=st.integers(1, 20), p=st.sampled_from([0.0, 0.3, 0.8]), data=st.data())
def test_class_rows_equal_the_scipy_row_slice(n, p, data):
    # pins (vertices left out of the classes), isolated vertices, no edges
    # and repeated subset edges: the gathered rows are scipy's row slice of
    # A in class order, column indices remapped to the layout, bit for bit
    # and dtype for dtype
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31 - 1)))
    g = random_graph(rng, n=n) if p else Graph(n, [])
    free = np.flatnonzero(rng.random(n) < 0.7)
    classes = _colour_classes(g.csr, free)
    sub = rng.integers(0, g.num_edges, int(rng.integers(0, 6))) if g.num_edges else None
    s = None if sub is None else _subset_weights(g, sub)
    rows = _ClassRows(g.csr, classes, s)
    A = g.csr
    order = np.concatenate(classes) if classes else np.empty(0, dtype=np.intp)
    perm = np.concatenate([order, np.setdiff1d(np.arange(n), order)])
    P = sp.csr_matrix((np.arange(A.nnz), A.indices, A.indptr), shape=A.shape)[order]
    layout = np.empty(n, dtype=P.indices.dtype)
    layout[perm] = np.arange(n)
    expected = {"indptr": P.indptr, "indices": layout[P.indices], "a": A.data[P.data],
                "data": A.data[P.data], "perm": perm}
    if s is not None:
        expected["s"] = s[P.data]
    else:
        assert rows.s is None
    for name, want in expected.items():
        got = getattr(rows, name)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


def test_ascent_objective_never_decreases():
    rng = np.random.default_rng(48)
    for n, p in ((40, 0.3), (25, 0.8)):
        g = gen_erdos_renyi(n, p, "uniform", seed=n)
        M = g.csr
        classes = _colour_classes(M, np.arange(n))
        V = random_unit_rows(rng, n, 8)
        prev = dense_objective(g, V)
        for _ in range(40):
            assert _coordinate_ascent(_ClassRows(M, classes), V, 0.0, 1) == (1, False)
            obj = dense_objective(g, V)
            assert obj >= prev - 1e-12 * g.total_weight
            prev = obj


@settings(max_examples=40)
@given(n=st.integers(1, 16), l=st.sampled_from([0.0, 1.0, 3.0, 2.0 ** 10]), data=st.data())
def test_sweep_gain_equals_the_dense_objective_difference(n, l, data):
    # pins (vertices left out of the classes), zero weights, an isolated
    # vertex and multipliers above 0; the objective is -<V, M V>/2
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31 - 1)))
    weights = [0.0, 1.0, 2.5, float(rng.uniform(0, 1))]
    edges = [(i, j, weights[int(rng.integers(4))]) for i in range(n - 1) for j in range(i + 1, n - 1)
             if rng.random() < 0.5]
    g = Graph(n, edges)
    sub = np.flatnonzero(rng.random(g.num_edges) < 0.4)
    free = np.union1d([0], np.flatnonzero(rng.random(n) < 0.7))
    rows = _ClassRows(g.csr, _colour_classes(g.csr, free), _subset_weights(g, sub))
    rows.set_multiplier(l)
    M = (g.csr + l * subset_matrix(g, sub)).toarray()
    scale = max(float(M.sum()), 1.0)
    # a sweep takes V in the run's layout: free rows class by class, pinned last
    assert sorted(rows.perm.tolist()) == list(range(n))
    assert rows.perm[:rows.free].tolist() == np.concatenate(rows.classes).tolist()
    V = random_unit_rows(rng, n, 4)[rows.perm]
    M = M[np.ix_(rows.perm, rows.perm)]
    for _ in range(3):
        before = -0.5 * float(np.sum(M * (V @ V.T)))
        gain = rows.sweep(V)
        after = -0.5 * float(np.sum(M * (V @ V.T)))
        assert gain == pytest.approx(after - before, rel=0, abs=1e-12 * scale)


def test_ascent_never_writes_pinned_rows():
    rng = np.random.default_rng(49)
    g = gen_erdos_renyi(15, 0.6, "uniform", seed=50)
    M = g.csr
    pinned = np.array([0, 4, 9, 14])
    free = np.setdiff1d(np.arange(g.n), pinned)
    V = random_unit_rows(rng, g.n, 7)
    before = V.copy()
    _coordinate_ascent(_ClassRows(M, _colour_classes(M, free)), V, 0.0, 50)
    assert np.array_equal(V[pinned], before[pinned])
    assert not np.array_equal(V[free], before[free])


def test_zero_edges_and_isolated_vertices_keep_unit_rows():
    graphs = (Graph(1, []), Graph(5, []), Graph(3, [(0, 1, 0.0)]),
              Graph(6, [(0, 1, 1.0), (1, 2, 2.0)]))
    for g in graphs:
        sol = solve_sdp(g, SdpConfig(seed=3))
        assert np.max(np.abs(np.linalg.norm(sol.vectors, axis=1) - 1.0)) <= 1e-12
        assert sol.feasibility_report["converged"]
    sol = solve_sdp(graphs[-1])
    assert sol.objective_value == pytest.approx(3.0, abs=1e-9)


def test_report_exposes_sweeps_and_the_cap(monkeypatch):
    g = gen_erdos_renyi(30, 0.4, "uniform", seed=51)
    sol = solve_sdp(g, SdpConfig(seed=1))
    assert sol.feasibility_report["converged"]
    assert 2 <= sol.feasibility_report["sweeps"] < predcut.sdp.MAX_SWEEPS
    with monkeypatch.context() as m:
        m.setattr(predcut.sdp, "MAX_SWEEPS", 2)
        capped = solve_sdp(g, SdpConfig(seed=1))
    assert capped.feasibility_report["sweeps"] == 2
    assert not capped.feasibility_report["converged"]
    # every multiplier run of a subset solve counts toward the total
    sub = solve_sdp(g, SdpConfig(seed=1, subset_constraint=(np.arange(10), 9.5)))
    assert sub.feasibility_report["sweeps"] > sol.feasibility_report["sweeps"]


@settings(max_examples=40)
@given(n=st.integers(1, 9), p=st.floats(0.0, 1.0),
       law=st.sampled_from(["unit", "uniform"]), seed=st.integers(0, 2 ** 31 - 1))
def test_relaxation_dominates_exact_with_unit_vectors(n, p, law, seed):
    g = gen_erdos_renyi(n, p, law, seed=seed)
    opt, _ = exact_maxcut(g)
    sol = solve_sdp(g, SdpConfig(seed=seed))
    assert sol.objective_value >= opt - 1e-6 * max(g.total_weight, 1.0)
    assert np.max(np.abs(np.linalg.norm(sol.vectors, axis=1) - 1.0)) <= 1e-6


@settings(max_examples=80)
@given(n=st.integers(1, 12), p=st.sampled_from([0.0, 0.4, 0.9]),
       kind=st.sampled_from(["plain", "pinned", "subset", "triangle"]),
       data=st.data())
def test_upper_bound_dominates_the_exact_cut_and_the_objective(n, p, kind, data):
    # no edges, zero-weight edges and isolated vertices; the bound holds for
    # any u, so pinned, subset and triangle solutions bound the plain MaxCut
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31 - 1)))
    weights = [0.0, 1.0, float(rng.uniform(0, 3))]
    isolated = rng.random(n) < 0.2
    edges = [(i, j, weights[int(rng.integers(3))]) for i in range(n) for j in range(i + 1, n)
             if not (isolated[i] or isolated[j]) and rng.random() < p]
    g = Graph(n, edges)
    pins = {}
    if kind == "pinned":
        pins = {int(v): float(rng.choice([-1.0, 1.0]))
                for v in rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)}
    subset = None
    if kind == "subset" and edges:
        idx = np.flatnonzero(rng.random(len(edges)) < 0.5)
        subset = (idx, float(rng.uniform(0, 1)) * float(g.edge_w[idx].sum()))
    sol = solve_sdp(g, SdpConfig(fixed_labels=pins, subset_constraint=subset,
                                 triangle=kind == "triangle", seed=int(rng.integers(1000))))
    bound = sdp_upper_bound(g, sol)
    opt, _ = exact_maxcut(g)
    assert bound >= opt
    assert bound >= sol.objective_value


def test_upper_bound_refuses_a_mismatched_solution():
    with pytest.raises(DimensionError):
        sdp_upper_bound(k3(), solve_sdp(Graph(4, [(0, 1, 1.0)])))


def test_upper_bound_of_a_single_edge_is_its_weight():
    # antipodal rows: u = (w/4, w/4), C - Diag(u) has eigenvalues 0 and -w/2
    g = Graph(2, [(0, 1, 3.0)])
    bound = sdp_upper_bound(g, synthetic_solution([[1.0, 0.0], [-1.0, 0.0]]))
    assert bound == pytest.approx(3.0, abs=1e-12) and bound >= 3.0


def test_lanczos_bound_matches_the_dense_bound(monkeypatch):
    # above DENSE_EIG_LIMIT the bound reads eigsh's Ritz value plus its residual
    g = gen_erdos_renyi(120, 0.0, "planted", seed=61, q_cross=0.15, q_within=0.05)
    sol = solve_sdp(g, SdpConfig(seed=2))
    dense = sdp_upper_bound(g, sol)
    monkeypatch.setattr(predcut.sdp, "DENSE_EIG_LIMIT", 100)
    lanczos = sdp_upper_bound(g, sol)
    assert lanczos == pytest.approx(dense, rel=1e-9)
    assert lanczos >= sol.objective_value and lanczos >= cut_value(g, g.planted)


@pytest.mark.parametrize("n, k", [(180, 20), (181, 21), (200, 21), (201, 21), (1000, 21)])
def test_rank_is_capped_at_max_rank(n, k):
    g = gen_erdos_renyi(n, 4.0 / n, "unit", seed=n)
    assert solve_sdp(g, SdpConfig(seed=1)).dim == k


@pytest.mark.parametrize("n", [700, 900, 1100])
def test_capped_solves_have_a_small_certified_gap(n):
    # the bench's gw_sparse graphs: planted, 9 expected neighbours across the
    # cut and 3 within, solved at rank 21 < sqrt(2n)
    g = gen_erdos_renyi(n, 0.0, "planted", seed=[62, n], q_cross=18.0 / n, q_within=6.0 / n)
    sol = solve_sdp(g, SdpConfig(seed=3))
    assert sol.dim == 21 and sol.feasibility_report["converged"]
    bound = sdp_upper_bound(g, sol)
    assert 0.0 <= (bound - sol.objective_value) / bound <= 1e-4


def class_rows_reference(A, A_sub, l, classes, V):
    """The products with V of scipy's A + l * A_sub, by colour class."""
    M = A + l * A_sub
    return [(M[c] @ V).tobytes() for c in classes]


@settings(max_examples=60)
@given(n=st.integers(1, 14), data=st.data())
def test_class_rows_equal_scipy_sums_bit_for_bit(n, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31 - 1)))
    weights = [0.0, 1.0, 2.5, float(rng.uniform(0, 1))]
    edges = [(i, j, weights[int(rng.integers(4))]) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.5]
    g = Graph(n, edges)
    sub = np.flatnonzero(rng.random(g.num_edges) < 0.4)
    classes = _colour_classes(g.csr, np.flatnonzero(rng.random(n) < 0.8))
    rows = _ClassRows(g.csr, classes, _subset_weights(g, sub))
    assert not any(sp.issparse(v) for v in vars(rows).values())
    cuts = [(r0, r1) for r0, r1, _ in rows.blocks]
    V = random_unit_rows(rng, n, 4)
    W = V[rows.perm]
    assert [W[r0:r1].tobytes() for r0, r1 in cuts] == [V[c].tobytes() for c in classes]
    for l in (0.0, 1.0, 3.0, 0.5 * (2.0 + 4.0), float(rng.uniform(0, 2 ** 20)), 2.0 ** 20):
        rows.set_multiplier(l)
        M = sp.csr_matrix((rows.data, rows.indices, rows.indptr), shape=(rows.free, n))
        blocks = class_rows_reference(g.csr, subset_matrix(g, sub), l, classes, V)
        assert [(M[r0:r1] @ W).tobytes() for r0, r1 in cuts] == blocks


@settings(max_examples=60)
@given(n=st.integers(1, 16), k=st.integers(2, 12), data=st.data())
def test_direct_class_products_equal_scipy_bit_for_bit(n, k, data):
    # the ascent calls csr_matvecs itself; zero weights, isolated vertices
    # (empty rows) and multiplier-adjusted block data included
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31 - 1)))
    weights = [0.0, 1.0, 2.5, float(rng.uniform(0, 1))]
    edges = [(i, j, weights[int(rng.integers(4))]) for i in range(n - 1) for j in range(i + 1, n - 1)
             if rng.random() < 0.5]
    g = Graph(n, edges)
    sub = np.flatnonzero(rng.random(g.num_edges) < 0.4)
    classes = _colour_classes(g.csr, np.flatnonzero(rng.random(n) < 0.8))
    rows = _ClassRows(g.csr, classes, _subset_weights(g, sub))
    V = rng.standard_normal((n, k)) * float(rng.choice([1e-200, 1.0, 1e200]))
    for l in (0.0, 1.0, 0.5 * (2.0 + 4.0), float(rng.uniform(0, 2 ** 20))):
        rows.set_multiplier(l)
        M = sp.csr_matrix((rows.data, rows.indices, rows.indptr), shape=(rows.free, n))
        # the sweep's call: a class's indptr slice reads the whole indices
        # and data, into its rows of one zeroed buffer
        out = np.zeros((rows.free, k))
        for r0, r1, indptr in rows.blocks:
            assert indptr.tobytes() == rows.indptr[r0:r1 + 1].tobytes()
            U = _csr_product(indptr, rows.indices, rows.data, V, out[r0:r1])
            assert U.tobytes() == (M[r0:r1] @ V).tobytes()
        assert out.tobytes() == (M @ V).tobytes()


@settings(max_examples=60)
@given(m=st.integers(0, 20), k=st.integers(1, 12), data=st.data())
def test_row_norms_equal_numpy_norm_bit_for_bit(m, k, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31 - 1)))
    U = rng.standard_normal((m, k)) * rng.choice([0.0, 1e-170, 1e-300, 1.0, 1e150], (m, 1))
    for keepdims in (False, True):
        assert (_row_norms(U, keepdims).tobytes()
                == np.linalg.norm(U, axis=1, keepdims=keepdims).tobytes())


def test_ascent_keeps_rows_without_weighted_neighbours():
    # vertex 3's edges carry weight 0 and vertex 6 is isolated between pins:
    # their u is 0, so their rows keep the seeded values, while vertex 0,
    # in the same colour class as 3, moves
    g = Graph(8, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (3, 4, 0.0), (3, 5, 0.0),
                  (4, 5, 1.0), (5, 7, 2.0), (0, 7, 1.0)])
    pins = {5: 1.0, 7: -1.0}
    free = np.setdiff1d(np.arange(g.n), list(pins))
    classes = _colour_classes(g.csr, free)
    assert any({0, 3, 6} <= set(c.tolist()) for c in classes)
    V = random_unit_rows(np.random.default_rng(53), g.n, 5)
    start = V.copy()
    sweeps, converged = _coordinate_ascent(_ClassRows(g.csr, classes), V, 1e-12, 200)
    assert converged and 2 <= sweeps < 200
    assert V[[3, 5, 6, 7]].tobytes() == start[[3, 5, 6, 7]].tobytes()
    assert not np.array_equal(V[0], start[0])
    assert np.max(np.abs(np.linalg.norm(V, axis=1) - 1.0)) <= 1e-12
    # through solve_sdp the pins sit at +-v_0 and the zero-norm rows keep the seeded start
    sol = solve_sdp(g, SdpConfig(fixed_labels=pins, seed=9))
    seeded = np.random.default_rng(9).standard_normal((g.n, sol.dim))
    seeded /= np.linalg.norm(seeded, axis=1, keepdims=True)
    assert sol.vertex_vectors[[3, 6]].tobytes() == seeded[[3, 6]].tobytes()
    assert sol.feasibility_report["converged"]


def rt_round_per_draw(sol, seed):
    """rt_round as it ran before its decomposition was kept: all of it per draw."""
    rng = np.random.default_rng(seed)
    v0, Vv = sol.v0, sol.vertex_vectors
    mu = Vv @ v0
    W_perp = Vv - mu[:, None] * v0[None, :]
    norms = np.linalg.norm(W_perp, axis=1)
    safe = norms > 1e-9
    wbar = np.zeros_like(W_perp)
    wbar[safe] = W_perp[safe] / norms[safe, None]
    gvec = rng.standard_normal(sol.dim)
    gvec = gvec - float(gvec @ v0) * v0
    thresholds = norm.ppf(np.clip(mu, -1.0, 1.0) / 2.0 + 0.5)
    return np.where(wbar @ gvec <= thresholds, 1.0, -1.0)


def test_rt_round_equals_the_per_draw_formula():
    g = gen_erdos_renyi(14, 0.5, "uniform", seed=54)
    subset = np.flatnonzero(g.edge_i < 4)
    sols = [solve_sdp(g, SdpConfig(fixed_labels={0: 1, 5: -1}, seed=2,
                                   subset_constraint=(subset, 0.8 * float(g.edge_w[subset].sum())))),
            solve_sdp(g, SdpConfig(seed=3)),
            synthetic_solution([[1.0, 0, 0], [-1.0, 0, 0], [0.6, 0.8, 0], [0.0, 0.0, 1.0],
                                [1.0 - 1e-12, np.sqrt(2e-12), 0.0]])]
    for sol in sols:
        for s in range(20):
            assert rt_round(sol, [s, 7]).values.tobytes() == rt_round_per_draw(sol, [s, 7]).tobytes()


def test_library_does_not_import_scipy_stats():
    # scipy.stats costs about 21 MiB of resident memory; rt_round needs only ndtri
    src = str(Path(predcut.__file__).resolve().parent.parent)
    code = ("import sys, predcut\n"
            "g = predcut.gen_erdos_renyi(12, 0.5, 'uniform', seed=1)\n"
            "predcut.rt_round(predcut.solve_sdp(g), 0)\n"
            "print('scipy.stats' in sys.modules, 'scipy.sparse' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120, check=True)
    assert out.stdout.split() == ["False", "True"]


def per_tau_reference(g, pins, subset, tau, seed):
    """The multiplier search of one tau, as solve_sdp ran it before the ladder was shared.

    Every run forms scipy's A + l * A_sub and slices its colour-class rows,
    and stops by the README's rule: two sweeps in a row, not counting the
    first, whose gain sum_i ||u_i|| (1 - <v_i new, v_i old>) is below the
    tolerance. Returns (vertex rows, sweeps, converged, feasible at tau,
    multiplier).
    """
    n = g.n
    k = int(np.ceil(np.sqrt(2 * n))) + 1
    V = np.random.default_rng(seed).standard_normal((n, k))
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    v0 = np.eye(k)[0]
    for v, s in pins.items():
        V[v] = s * v0
    free = np.setdiff1d(np.arange(n), list(pins))
    A = g.csr
    classes = _colour_classes(A, free)
    scale = max(g.total_weight, 1.0)
    tol_abs, sub_tol = 1e-8 * scale, SUBSET_TOL_FRAC * scale
    runs = []

    def value():
        i, j, w = g.edge_i[subset], g.edge_j[subset], g.edge_w[subset]
        return float(np.sum(w * (1.0 - np.einsum("ek,ek->e", V[i], V[j]))) / 2.0) if len(w) else 0.0

    def run(l):
        if not classes:
            runs.append((0, True))
            return value()
        M = A + l * subset_matrix(g, subset)
        blocks, quiet = [M[c] for c in classes], 0
        for sweep in range(1, 1501):
            norms, dots = [], []
            for c, B in zip(classes, blocks):
                old = V[c]
                U = B @ V
                nrm = np.linalg.norm(U, axis=1)
                ok = nrm > 1e-300
                V[c[ok]] = -U[ok] / nrm[ok, None]
                norms.append(nrm)
                dots.append(np.einsum("ik,ik->i", V[c], old))
            # the gain of the README's stopping rule, read from the row updates
            gain = float(np.concatenate(norms) @ (1.0 - np.concatenate(dots)))
            quiet = quiet + 1 if gain < tol_abs and sweep > 1 else 0
            if quiet >= 2:
                runs.append((sweep, True))
                return value()
        runs.append((1500, False))
        return value()

    s_val = run(0.0)
    if len(subset) == 0:
        return V, sum(r[0] for r in runs), True, tau <= sub_tol, 0.0
    lam, feasible = 0.0, True
    if s_val < tau - sub_tol:
        lo, hi, found, best_V, best_s = 0.0, 1.0, False, V.copy(), s_val
        while hi <= 2.0 ** 20:
            s_val = run(hi)
            if s_val > best_s:
                best_s, best_V = s_val, V.copy()
            if s_val >= tau - sub_tol:
                found = True
                break
            lo, hi = hi, 2 * hi
        if not found:
            return best_V, sum(r[0] for r in runs), all(r[1] for r in runs), False, lo
        lam, sat_V = hi, V.copy()
        for _ in range(30):
            if hi - lo <= 1e-3 * max(hi, 1.0):
                break
            mid = 0.5 * (lo + hi)
            if run(mid) >= tau - sub_tol:
                hi, lam, sat_V = mid, mid, V.copy()
            else:
                lo = mid
        V = sat_V
    return V, sum(r[0] for r in runs), all(r[1] for r in runs), feasible, lam


@settings(max_examples=50)
@given(n=st.integers(2, 12), data=st.data())
def test_shared_ladder_equals_a_single_tau_solve_per_tau(n, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31 - 1)))
    weights = [0.0, 1.0, 2.0, float(rng.uniform(0, 1))]
    edges = [(i, j, weights[int(rng.integers(4))]) for i in range(n) for j in range(i + 1, n)
             if rng.random() < rng.uniform(0.2, 0.9)]
    g = Graph(n, edges)
    revealed = rng.random(n) < data.draw(st.sampled_from([0.0, 0.3, 0.6]))
    pins = {int(v): float(rng.choice([-1.0, 1.0])) for v in np.flatnonzero(revealed)}
    if data.draw(st.booleans()):
        revealed = rng.random(n) < 0.3          # a subset that is not the pins' edges
    subset = np.flatnonzero(revealed[g.edge_i] | revealed[g.edge_j])
    seed = int(rng.integers(0, 1000))
    # taus between consecutive rung values of a probe ladder bisect at the
    # later rung; the subset's weight is met late or by no rung
    reach = min(float(np.sum(g.edge_w[subset])), g.total_weight)
    probe = SubsetLadder(g, subset, pins, seed)
    probe.solve(reach)
    values = [r[1] for r in probe.rungs]
    taus = [0.0, reach] + [min(f * reach, g.total_weight) for f in rng.uniform(0.0, 1.1, 2)]
    taus += [0.5 * (a + b) for a, b in zip(values, values[1:]) if b > a + 1e-3][:3]
    rng.shuffle(taus)
    ladder = SubsetLadder(g, subset, pins, seed)
    for tau in taus:
        shared = ladder.solve(tau)
        alone = solve_sdp(g, SdpConfig(fixed_labels=pins, seed=seed,
                                       subset_constraint=(subset, tau)))
        assert save_solution(shared) == save_solution(alone)
        assert shared.feasibility_report == alone.feasibility_report
        assert shared.feasible_at_tau == alone.feasible_at_tau
        assert shared.objective_value == alone.objective_value
        V, sweeps, converged, feasible, lam = per_tau_reference(g, pins, subset, tau, seed)
        report = shared.feasibility_report
        assert shared.vertex_vectors.tobytes() == V.tobytes()
        assert (report["sweeps"], report["converged"]) == (sweeps, converged)
        assert (shared.feasible_at_tau, report["multiplier"]) == (feasible, lam)


def test_ladder_reports_rungs_and_multiplier():
    # the instance of the golden subset pins: tau 2.0 is met at rung 0,
    # 3.75 bisects between rungs and 4.0 is met by no rung
    g = gen_erdos_renyi(12, 0.6, "uniform", seed=0)
    subset = np.flatnonzero(np.isin(g.edge_i, [0, 3]) | np.isin(g.edge_j, [0, 3]))
    pins = {0: 1, 3: -1}
    ladder = SubsetLadder(g, subset, pins)
    reports = {tau: ladder.solve(tau).feasibility_report for tau in (4.0, 0.0, 3.75, 2.0)}
    assert (reports[2.0]["rungs"], reports[2.0]["multiplier"]) == (1, 0.0)
    assert reports[0.0] == reports[2.0] | {"subset": 0.0}
    met = reports[3.75]
    assert 1 < met["rungs"] < 22
    assert 2.0 ** (met["rungs"] - 3) < met["multiplier"] <= 2.0 ** (met["rungs"] - 2)
    assert (reports[4.0]["rungs"], reports[4.0]["multiplier"]) == (22, 2.0 ** 20)
    assert len(ladder.rungs) == 22
    for tau, report in reports.items():
        alone = solve_sdp(g, SdpConfig(fixed_labels=pins, subset_constraint=(subset, tau)))
        assert alone.feasibility_report == report
    # a plain solve reports neither key; an empty subset has rung 0 alone
    assert "rungs" not in solve_sdp(g, SdpConfig(fixed_labels=pins)).feasibility_report
    empty = SubsetLadder(g, [], pins)
    assert empty.solve(0.0).feasibility_report["rungs"] == 1
    assert not empty.solve(1.0).feasible_at_tau
    assert (empty.solve(1.0).feasibility_report["multiplier"], len(empty.rungs)) == (0.0, 1)
    with pytest.raises(ParameterError):
        ladder.solve(float("nan"))
