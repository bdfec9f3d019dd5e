import itertools
import time

import numpy as np
import pytest

import predcut.exact
from predcut.csp import csp_value, fourier_expand, maxcut_as_csp, predicate_from_bits, CspInstance
from predcut.errors import ParameterError
from predcut.exact import exact_csp, exact_maxcut
from predcut.graph import Graph, cut_value, gen_erdos_renyi

from conftest import random_cut, random_graph


def test_k4_balanced_bipartition():
    g = gen_erdos_renyi(4, 1.0, "unit", seed=0)
    opt, x = exact_maxcut(g)
    assert opt == 4.0
    assert cut_value(g, x) == 4.0


def test_c5_via_independent_enumeration():
    g = Graph(5, [(i, (i + 1) % 5, 1.0) for i in range(5)])
    # plain 2^5 loop as the oracle for the oracle
    best = max(
        cut_value(g, np.array(signs, dtype=float))
        for signs in itertools.product((-1.0, 1.0), repeat=5)
    )
    opt, _ = exact_maxcut(g)
    assert opt == best == 4.0


def test_bipartite_graph_cuts_everything():
    edges = [(i, j + 3, float(i + j + 1)) for i in range(3) for j in range(4)]
    g = Graph(7, edges)
    opt, _ = exact_maxcut(g)
    assert opt == pytest.approx(sum(w for (_, _, w) in edges))


def test_flip_symmetry_of_returned_assignment():
    rng = np.random.default_rng(51)
    for _ in range(10):
        g = random_graph(rng)
        opt, x = exact_maxcut(g)
        assert cut_value(g, x) == pytest.approx(opt, abs=1e-9)
        assert cut_value(g, -x.values) == pytest.approx(opt, abs=1e-9)


def test_dominates_random_assignments():
    rng = np.random.default_rng(52)
    for _ in range(10):
        g = random_graph(rng)
        opt, _ = exact_maxcut(g)
        for _ in range(50):
            assert cut_value(g, random_cut(rng, g.n)) <= opt + 1e-9


def test_size_limit_enforced():
    g = gen_erdos_renyi(25, 0.1, "unit", seed=0)
    with pytest.raises(ParameterError):
        exact_maxcut(g)


def test_n24_runs_fast_enough():
    g = gen_erdos_renyi(24, 0.5, "uniform", seed=7)
    t0 = time.perf_counter()
    opt, x = exact_maxcut(g)
    assert time.perf_counter() - t0 < 60.0
    assert cut_value(g, x) == pytest.approx(opt, abs=1e-9)


def test_exact_csp_matches_maxcut_on_k4():
    g = gen_erdos_renyi(4, 1.0, "unit", seed=0)
    inst = maxcut_as_csp(g)
    opt_cut, _ = exact_maxcut(g)
    opt_val, x = exact_csp(inst)
    assert opt_val == pytest.approx(2 * opt_cut / inst.total_weight, abs=1e-9)
    assert csp_value(inst, x) == pytest.approx(opt_val, abs=1e-9)


def test_exact_csp_constant_one_predicate():
    pred = fourier_expand([1, 1, 1, 1])
    inst = CspInstance(3, pred, [(1.0, (1, 1), (0, 1)), (2.0, (1, -1), (1, 2))])
    opt, _ = exact_csp(inst)
    assert opt == pytest.approx(1.0)


def test_exact_csp_dominates_samples():
    rng = np.random.default_rng(53)
    pred = fourier_expand([0, 1, 1, 1])  # OR-style
    cons = [(float(rng.uniform(0.1, 2)), (int(rng.choice([-1, 1])), int(rng.choice([-1, 1]))),
             (int(rng.integers(10)), int(rng.integers(10)))) for _ in range(25)]
    inst = CspInstance(10, pred, cons)
    opt, _ = exact_csp(inst)
    for _ in range(100):
        assert csp_value(inst, random_cut(rng, 10)) <= opt + 1e-9


def test_exact_csp_brute_force_cross_check():
    # independent oracle: plain loop over all assignments of a small instance
    rng = np.random.default_rng(54)
    pred = fourier_expand([1, 0, 0, 1])  # equality predicate
    cons = [(float(rng.uniform(0.1, 2)), (int(rng.choice([-1, 1])), int(rng.choice([-1, 1]))),
             (int(rng.integers(6)), int(rng.integers(6)))) for _ in range(12)]
    inst = CspInstance(6, pred, cons)
    brute = max(
        csp_value(inst, np.array(signs, dtype=float))
        for signs in itertools.product((-1.0, 1.0), repeat=6)
    )
    opt, _ = exact_csp(inst)
    assert opt == pytest.approx(brute, abs=1e-9)


def test_small_blocks_keep_the_default_value_and_maximizer(monkeypatch):
    # blocks of two head rows split the head half many times over, and unit
    # weights make many ties: each must still keep the first maximizer in
    # enumeration order. A one-row block would go through BLAS's
    # matrix-vector kernel, whose sums may differ in the last bit; the
    # library forms one only when the head half has a single row.
    rng = np.random.default_rng(55)
    graphs = [random_graph(rng, n=int(rng.integers(10, 19))) for _ in range(8)]
    csps = []
    for _ in range(6):
        n = int(rng.integers(10, 19))
        bits = "".join(str(int(rng.integers(2))) for _ in range(4))
        cons = [(float(rng.choice([1.0, rng.uniform(0.1, 2)])),
                 (int(rng.choice([-1, 1])), int(rng.choice([-1, 1]))),
                 (int(rng.integers(n)), int(rng.integers(n)))) for _ in range(2 * n)]
        csps.append(CspInstance(n, predicate_from_bits(bits), cons))

    cases = [(exact_maxcut, g) for g in graphs] + [(exact_csp, inst) for inst in csps]
    for solve, inst in cases:
        v, x = solve(inst)
        with monkeypatch.context() as m:
            # two head rows per block, each scored against 2^t tail rows
            m.setattr(predcut.exact, "BLOCK_SCORES", 2 * 2 ** (inst.n // 2))
            v_small, x_small = solve(inst)
        assert v_small == v
        assert np.array_equal(x_small.values, x.values)
