import math

import numpy as np
import pytest
from scipy.stats import norm

from predcut.errors import ContractViolationError, ParameterError
from predcut.exact import exact_maxcut
from predcut.graph import Graph, cut_value
from predcut.narrow import fkl_band_width, flip_step, solve_narrow
from predcut.sdp import SdpConfig, round_by_direction, solve_sdp
from predcut.seeds import derive

from conftest import random_graph, regular_graph, three_sigma
from test_sdp import synthetic_solution


def test_band_width_clamps_small_d():
    # d = e < 3 clamps to 3
    delta, eta = math.e, 1.0
    assert fkl_band_width(delta, eta) == pytest.approx(1 / (3 * math.sqrt(math.log(3))))
    assert fkl_band_width(2.9, 1.0) == fkl_band_width(1.0, 1.0)


def test_band_width_doubling_bound():
    # the exact formula attains the upper end of the stated bracket
    for d in (4.0, 16.0, 300.0):
        r = fkl_band_width(d, 1.0) / fkl_band_width(2 * d, 1.0)
        assert 2.0 < r <= 2.0 * math.sqrt(math.log(2 * d) / math.log(d)) + 1e-12


def test_band_width_frozen_value():
    # delta=30, eta=1: 1/(30 sqrt(ln 30)) checked on an independent calculator
    assert fkl_band_width(30, 1.0) == pytest.approx(0.0180743, rel=1e-5)


def test_band_width_parameter_errors():
    with pytest.raises(ParameterError):
        fkl_band_width(0, 0.5)
    with pytest.raises(ParameterError):
        fkl_band_width(3, 0.0)


def test_flip_step_empty_band_is_identity():
    g = Graph(4, [(0, 1, 1.0), (2, 3, 2.0)])
    rng = np.random.default_rng(81)
    V = rng.standard_normal((4, 3))
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    sol = synthetic_solution(V)
    gvec = rng.standard_normal(3)
    x_hat = round_by_direction(sol, gvec)
    new, rep = flip_step(g, x_hat, sol, gvec, 0.0)
    assert np.array_equal(new.values, x_hat.values)
    assert rep.gain == 0.0
    assert not rep.flipped.any()


def test_flip_step_star_center():
    # center nearly orthogonal to g sits in the band; leaves land on the
    # center's side outside the band, so flipping the center gains W_center
    n_leaves = 6
    g = Graph(n_leaves + 1, [(0, j, 1.0) for j in range(1, n_leaves + 1)])
    t = 1e-4
    center = [math.sqrt(1 - t * t), t, 0.0]
    leaf = [0.0, 1.0, 0.0]
    sol = synthetic_solution([center] + [leaf] * n_leaves)
    gvec = np.array([0.0, 1.0, 0.0])
    x_hat = round_by_direction(sol, gvec)
    assert np.all(x_hat.values == 1.0)
    band = 1e-3
    new, rep = flip_step(g, x_hat, sol, gvec, band)
    assert list(rep.band_set) == [0]
    assert list(rep.flipped_set) == [0]
    assert rep.gain == n_leaves
    assert cut_value(g, new) == n_leaves


def test_flip_step_inconsistent_rounding_rejected():
    g = Graph(2, [(0, 1, 1.0)])
    sol = synthetic_solution([[0.0, 1.0, 0.0], [0.0, -1.0, 0.0]])
    gvec = np.array([0.0, 1.0, 0.0])
    bad = np.array([1.0, 1.0])  # rounding would give (+1, -1)
    with pytest.raises(ContractViolationError):
        flip_step(g, bad, sol, gvec, 0.1)


def test_flip_never_decreases_cut():
    rng = np.random.default_rng(82)
    for _ in range(60):
        g = random_graph(rng)
        V = rng.standard_normal((g.n, 4))
        V /= np.linalg.norm(V, axis=1, keepdims=True)
        sol = synthetic_solution(V)
        gvec = rng.standard_normal(4)
        x_hat = round_by_direction(sol, gvec)
        band = float(rng.uniform(0.0, 0.5))
        new, rep = flip_step(g, x_hat, sol, gvec, band)
        assert cut_value(g, new) >= cut_value(g, x_hat) - 1e-9
        assert rep.gain >= -1e-9
        assert np.all(rep.flipped <= rep.in_band)  # F' subset of F
        assert np.array_equal(new.values[~rep.flipped], x_hat.values[~rep.flipped])
        for i in np.nonzero(rep.flipped)[0]:
            assert rep.same_side_weight[i] > rep.other_side_weight[i] + rep.band_weight[i]


def test_band_membership_frequency():
    # unit vectors: projection is exactly standard normal, so
    # Pr[|proj| <= delta] = 2 Phi(delta) - 1
    rng = np.random.default_rng(83)
    v = rng.standard_normal(5)
    v /= np.linalg.norm(v)
    sol = synthetic_solution([v])
    for band in (0.05, 0.2):
        target = 2 * norm.cdf(band) - 1
        draws = 10_000
        hits = 0
        for s in range(draws):
            gvec = np.random.default_rng([84, s]).standard_normal(5)
            hits += int(abs(sol.vertex_vectors[0] @ gvec) <= band)
        assert abs(hits / draws - target) <= three_sigma(target, draws) + 0.003


def test_solve_narrow_k2():
    g = Graph(2, [(0, 1, 1.0)])
    assert cut_value(g, solve_narrow(g, delta=3, eta=0.45, seed=0, restarts=3)) == 1.0


def test_solve_narrow_c5_hits_optimum():
    g = Graph(5, [(i, (i + 1) % 5, 1.0) for i in range(5)])
    opt, _ = exact_maxcut(g)
    best = solve_narrow(g, delta=3, eta=0.45, seed=1, restarts=50)
    assert cut_value(g, best) == opt == 4.0


def test_solve_narrow_three_regular_quality():
    g = regular_graph(60, 3, seed=85)
    sol = solve_sdp(g, SdpConfig(triangle=True, seed=85))
    best = solve_narrow(g, delta=3, eta=0.45, seed=2, restarts=100)
    assert cut_value(g, best) >= 0.9 * sol.objective_value


def test_solve_narrow_equals_the_public_round_and_flip_loop(monkeypatch):
    # a restart projects once and flips only when the band holds a vertex;
    # the cut is that of round_by_direction + flip_step, bit for bit, on the
    # triangle solution and on random unit vectors, with a band that holds
    # vertices (d clamped to 3) and the default one
    import predcut.narrow
    rng = np.random.default_rng(86)
    in_band = flipped = 0
    for t in range(8):
        g = random_graph(rng, n=int(rng.integers(6, 16)))
        sol = solve_sdp(g, SdpConfig(triangle=True, seed=derive(t, 0)))
        if t % 2:
            V = rng.standard_normal((g.n, sol.dim))
            sol = synthetic_solution(V / np.linalg.norm(V, axis=1, keepdims=True))
            monkeypatch.setattr(predcut.narrow, "solve_sdp", lambda g, cfg: sol)
        for delta, eta in ((1.0, 1.0), (1976, 0.05)):
            band = fkl_band_width(delta, eta)
            best, best_val = None, -np.inf
            for r in range(8):
                gvec = np.random.default_rng(derive(t, 1, r)).standard_normal(sol.dim)
                cut, rep = flip_step(g, round_by_direction(sol, gvec), sol, gvec, band)
                in_band += int(rep.in_band.any())
                flipped += int(rep.flipped.any())
                if cut_value(g, cut) > best_val:
                    best, best_val = cut, cut_value(g, cut)
            got = solve_narrow(g, delta, eta, seed=t, restarts=8)
            assert got.values.tobytes() == best.values.tobytes()
        monkeypatch.undo()
    assert in_band > 0 and flipped > 0


def test_the_restarts_stop_at_the_goal_with_the_cut_of_all_restarts(monkeypatch):
    # integer weights: the restarts stop at the first cut that reaches the
    # goal of the triangle solve's bound, and that cut is the one the
    # public round and flip loop picks from all 20 restarts, bit for bit.
    # An edgeless graph has bound 0 and goal 0, so its first restart stops
    import predcut.narrow
    graphs = [Graph(5, [])] + [
        Graph(n, [(i, j, float(w)) for i in range(n) for j in range(i + 1, n)
                  if (w := (i * 7 + j * 3 + n) % 4)])
        for n in (6, 9, 12)] + [random_graph(np.random.default_rng(s), law="unit") for s in range(8)]
    drawn, stopped = [], 0
    real_derive = predcut.narrow.derive

    def counting_derive(seed, *salts):
        if salts[:1] == (1,):
            drawn[-1] += 1
        return real_derive(seed, *salts)

    monkeypatch.setattr(predcut.narrow, "derive", counting_derive)
    delta, eta = 1976, 0.05
    band = fkl_band_width(delta, eta)
    for t, g in enumerate(graphs):
        sol = solve_sdp(g, SdpConfig(triangle=True, seed=derive(t, 0)))
        best, best_val = None, -np.inf
        for r in range(20):
            gvec = np.random.default_rng(derive(t, 1, r)).standard_normal(sol.dim)
            cut, _ = flip_step(g, round_by_direction(sol, gvec), sol, gvec, band)
            if cut_value(g, cut) > best_val:
                best, best_val = cut, cut_value(g, cut)
        drawn.append(0)
        got = solve_narrow(g, delta, eta, seed=t)
        assert got.values.tobytes() == best.values.tobytes()
        if best_val >= math.floor(sol.feasibility_report["bound"] + 1e-9):
            stopped += drawn[-1] < 20
        else:
            assert drawn[-1] == 20
    assert drawn[0] == 1 and stopped >= 3
