import itertools
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

import predcut.lp
from predcut.errors import DimensionError, DomainError
from predcut.lp import (AbsSumLp, FEAS_TOL, INFEASIBLE, LpGroup, OPT_TOL, OPTIMAL,
                        check_feasibility, solve)


# ---------------------------------------------------------------------------
# Independent oracle (written before the solver wiring): enumerate every
# vertex of the linearized polytope (slack variable per |form|) by solving
# all square subsystems of active constraints, keep the feasible ones, and
# take the best objective among them. The LP optimum is attained at one.
# ---------------------------------------------------------------------------

def _linearize(lp):
    n = lp.n
    K = sum(g.coeffs.shape[0] for g in lp.groups)
    dim = n + K
    rows, rhs = [], []
    off = n
    for g in lp.groups:
        k = g.coeffs.shape[0]
        G = g.coeffs.toarray()
        for t in range(k):
            r = np.zeros(dim)
            r[:n] = G[t]
            r[off + t] = -1.0
            rows.append(r)
            rhs.append(-g.offsets[t])
            r = np.zeros(dim)
            r[:n] = -G[t]
            r[off + t] = -1.0
            rows.append(r)
            rhs.append(g.offsets[t])
        r = np.zeros(dim)
        r[off:off + k] = 1.0
        rows.append(r)
        rhs.append(g.budget)
        off += k
    for v in range(dim):
        hi = np.zeros(dim)
        hi[v] = 1.0
        rows.append(hi)
        rhs.append(1.0 if v < n else max(gr.budget for gr in lp.groups))
        lo = np.zeros(dim)
        lo[v] = -1.0
        rows.append(lo)
        rhs.append(1.0 if v < n else 0.0)
    return np.array(rows), np.array(rhs), dim


def brute_force_lp(lp):
    """(best objective, argmin x) by exhaustive vertex enumeration."""
    A, b, dim = _linearize(lp)
    c = np.concatenate([lp.objective, np.zeros(dim - lp.n)])
    best_val, best_x = np.inf, None
    for rows in itertools.combinations(range(len(A)), dim):
        M = A[list(rows)]
        if abs(np.linalg.det(M)) < 1e-10:
            continue
        v = np.linalg.solve(M, b[list(rows)])
        if np.all(A @ v <= b + 1e-8):
            val = c @ v
            if val < best_val - 1e-12:
                best_val, best_x = val, v[:lp.n]
    return best_val, best_x


def random_abs_sum_lp(rng, n=3, forms=2):
    c = rng.normal(size=n)
    coeffs = rng.normal(size=(forms, n))
    offsets = rng.normal(size=forms)
    budget = float(rng.uniform(0.5, 3.0))
    return AbsSumLp(objective=c, groups=[LpGroup(coeffs, offsets, budget)])


def test_interval_geometry_example():
    lp = AbsSumLp(objective=np.array([1.0]),
                  groups=[LpGroup(np.array([[1.0]]), np.array([-1.0]), 0.5)])
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert sol.x[0] == pytest.approx(0.5, abs=1e-7)
    assert sol.objective_value == pytest.approx(0.5, abs=1e-6)


def test_zero_objective_feasible():
    lp = AbsSumLp(objective=np.zeros(2),
                  groups=[LpGroup(np.eye(2), np.zeros(2), 5.0)])
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert sol.objective_value == 0.0


def test_matches_vertex_enumeration_oracle():
    rng = np.random.default_rng(31)
    for _ in range(12):
        lp = random_abs_sum_lp(rng, n=3, forms=2)
        oracle_val, _ = brute_force_lp(lp)
        sol = solve(lp)
        if oracle_val is np.inf:
            assert sol.status == INFEASIBLE
        else:
            assert sol.status == OPTIMAL
            assert sol.objective_value == pytest.approx(
                oracle_val, abs=1e-6 * (1 + abs(oracle_val)))


def test_matches_oracle_five_variables():
    rng = np.random.default_rng(32)
    lp = random_abs_sum_lp(rng, n=5, forms=2)
    oracle_val, _ = brute_force_lp(lp)
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert sol.objective_value == pytest.approx(oracle_val, abs=1e-6 * (1 + abs(oracle_val)))


def test_infeasible_detected():
    # |x - 3| <= 0.5 cannot hold on [-1, 1]
    lp = AbsSumLp(objective=np.array([1.0]),
                  groups=[LpGroup(np.array([[1.0]]), np.array([-3.0]), 0.5)])
    assert solve(lp).status == INFEASIBLE


def test_empty_variable_vector_with_fitting_constant_forms_is_optimal():
    # with n = 0 every form is its constant h_k: no groups, groups whose
    # constants fit (one binding, one dense and one sparse), all optimal at x = ()
    for groups, slack in (([], ()),
                          ([LpGroup(np.zeros((2, 0)), np.array([1.0, -2.0]), 3.0),
                            LpGroup(sp.csr_matrix((1, 0)), np.array([0.5]), 1.25)], (0.0, 0.75))):
        sol = solve(AbsSumLp(objective=np.zeros(0), groups=groups))
        assert sol.status == OPTIMAL and sol.optimal
        assert sol.x.shape == (0,) and sol.objective_value == 0.0
        assert sol.budget_slack == slack


def test_empty_variable_vector_with_an_overrun_budget_is_infeasible():
    # |1| + |-2| = 3 > 2.5: no x, empty or not, can fit the second group
    lp = AbsSumLp(objective=np.zeros(0),
                  groups=[LpGroup(np.zeros((1, 0)), np.array([0.0]), 0.0),
                          LpGroup(np.zeros((2, 0)), np.array([1.0, -2.0]), 2.5)])
    sol = solve(lp)
    assert sol.status == INFEASIBLE and sol.budget_slack == ()


@pytest.mark.parametrize("overrun, status", [(0.0, OPTIMAL), (5e-8, OPTIMAL), (1e-7, OPTIMAL),
                                             (2e-7, INFEASIBLE), (1e-6, INFEASIBLE)])
def test_empty_variable_vector_overruns_its_budget_within_the_feasibility_tolerance(overrun,
                                                                                   status):
    # n = 0 takes the general path: the empty x_box fits only at overrun 0,
    # and HiGHS allows an overrun up to FEAS_TOL
    lp = AbsSumLp(objective=np.zeros(0), groups=[LpGroup(np.zeros((1, 0)), [overrun], 0.0)])
    sol = solve(lp)
    assert sol.status == status and sol.x.shape == (0,)
    if status == OPTIMAL:
        assert sol.objective_value == 0.0 and sol.budget_slack == (-overrun,)
    else:
        assert sol.budget_slack == ()


def test_highs_tolerance_applies_to_its_own_rows_not_to_the_numpy_slack():
    # x_box overruns the budget, so HiGHS runs; its 1e-7 tolerance admits the
    # equality row 1 + 1e-7 = p - q at p = 1, and the numpy slack then reads
    # the float 1 + 1e-7, which lies a few ulps above it
    lp = AbsSumLp(objective=np.array([1.0]),
                  groups=[LpGroup(np.zeros((1, 1)), [1.0 + 1e-7], 1.0)])
    sol = solve(lp)
    assert sol.status == OPTIMAL and sol.x.tolist() == [-1.0] and sol.objective_value == -1.0
    assert sol.budget_slack == (1.0 - (1.0 + 1e-7),) == (-1.0000000005838672e-07,)
    assert sol.budget_slack[0] < -FEAS_TOL


def test_zero_budget_forces_equalities():
    # |x1 + x2 - 1| <= 0 and |x1 - x2| <= 0  ->  x = (0.5, 0.5)
    lp = AbsSumLp(objective=np.array([1.0, 0.0]),
                  groups=[LpGroup(np.array([[1.0, 1.0], [1.0, -1.0]]),
                                  np.array([-1.0, 0.0]), 0.0)])
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert sol.x == pytest.approx([0.5, 0.5], abs=1e-7)


def test_feasibility_certificate():
    rng = np.random.default_rng(33)
    for _ in range(20):
        lp = random_abs_sum_lp(rng, n=4, forms=3)
        sol = solve(lp)
        if sol.status == OPTIMAL:
            assert np.max(np.abs(sol.x)) <= 1.0 + 1e-9
            assert check_feasibility(lp, sol.x) <= 1e-7


def test_weak_duality_against_random_feasible_points():
    rng = np.random.default_rng(34)
    checked = 0
    while checked < 10:
        lp = random_abs_sum_lp(rng, n=4, forms=2)
        sol = solve(lp)
        if sol.status != OPTIMAL:
            continue
        scale = 1 + abs(sol.objective_value)
        found = 0
        for _ in range(200):
            x = rng.uniform(-1, 1, size=4)
            if check_feasibility(lp, x) <= 0:
                found += 1
                assert lp.objective @ x >= sol.objective_value - 1e-6 * scale
        if found:
            checked += 1


def test_scaling_invariance_of_argmin():
    # power-of-two scalings keep the normalized input bit-identical
    rng = np.random.default_rng(35)
    for _ in range(10):
        lp = random_abs_sum_lp(rng, n=4, forms=3)
        base = solve(lp)
        if base.status != OPTIMAL:
            continue
        for lam in (2.0, 0.25, 1024.0):
            scaled = AbsSumLp(objective=lam * lp.objective, groups=lp.groups)
            got = solve(scaled)
            assert np.array_equal(got.x, base.x)


def test_dimension_mismatch():
    with pytest.raises(DimensionError):
        AbsSumLp(objective=np.zeros(3),
                 groups=[LpGroup(np.zeros((1, 2)), np.zeros(1), 1.0)])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_objective_is_refused(bad):
    with pytest.raises(DomainError, match="objective must be finite"):
        AbsSumLp(objective=np.array([bad, 1.0]), groups=[LpGroup(np.eye(2), np.zeros(2), 5.0)])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_offset_is_refused(bad):
    with pytest.raises(DomainError, match="offsets must be finite"):
        LpGroup(np.eye(2), np.array([0.0, bad]), 5.0)


@pytest.mark.parametrize("sparse", [False, True])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_coefficient_is_refused(bad, sparse):
    coeffs = np.array([[1.0, 0.0], [0.0, bad]])
    with pytest.raises(DomainError, match="coefficients must be finite"):
        LpGroup(sp.csr_matrix(coeffs) if sparse else coeffs, np.zeros(2), 5.0)


# Coefficients, offsets and test points on a grid of quarters, so every
# product and sum below is exact and the two evaluation orders (dense
# matrix-vector product, CSR row sums) cannot round apart.
QUARTERS = st.sampled_from([0.0, 0.0, 0.0, 0.25, -0.5, 1.0, -1.0, 2.0])


@st.composite
def sparse_lp_data(draw):
    """(objective, [(coeffs, offsets, budget)]) with mostly-zero coefficient rows."""
    n = draw(st.integers(1, 6))
    objective = np.array(draw(st.lists(QUARTERS, min_size=n, max_size=n)))
    groups = []
    for _ in range(draw(st.integers(1, 3))):
        K = draw(st.integers(1, 4))
        coeffs = np.array(draw(st.lists(QUARTERS, min_size=K * n, max_size=K * n))).reshape(K, n)
        offsets = np.array(draw(st.lists(QUARTERS, min_size=K, max_size=K)))
        groups.append((coeffs, offsets, draw(st.sampled_from([0.0, 0.25, 1.0, 4.0]))))
    return objective, groups


def _sparse(coeffs, fmt):
    """coeffs in a scipy.sparse format; "stored zeros" keeps every entry, zeros included."""
    if fmt == "stored zeros":
        rows, cols = np.indices(coeffs.shape).reshape(2, -1)
        return sp.csr_matrix((coeffs.ravel(), (rows, cols)), shape=coeffs.shape)
    return sp.csr_matrix(coeffs).asformat(fmt)


def _bytes(v):
    return np.asarray(v, dtype=np.float64).tobytes()


def _given_slack(given, x):
    """Each group's budget slack with its forms evaluated through sp.csr_matrix of the given coeffs."""
    return tuple(b - float(np.abs(sp.csr_matrix(c) @ x + h).sum()) for c, h, b in given)


@settings(max_examples=80)
@given(data=sparse_lp_data(), fmt=st.sampled_from(["csr", "csc", "coo", "stored zeros"]))
# one one-form group whose budget cannot be met: |x - 3| <= 0.5 on [-1, 1]
@example(data=(np.array([1.0]), [(np.array([[1.0]]), np.array([-3.0]), 0.5)]), fmt="csr")
@example(data=(np.array([0.5, 0.0, 0.0]),
               [(np.array([[1.0, 0.0, 0.0], [0.0, -0.5, 0.0]]), np.array([0.0, 0.0]), 0.25)]),
         fmt="stored zeros")
# several groups, one of them a single form, and an all-zero form
@example(data=(np.array([1.0, -1.0, 0.0]),
               [(np.array([[0.0, 1.0, 0.0]]), np.array([0.5]), 1.0),
                (np.array([[1.0, 0.0, -1.0], [0.0, 0.0, 0.0]]), np.array([0.0, 0.25]), 0.25),
                (np.array([[2.0, -0.5, 0.0]]), np.array([-1.0]), 4.0)]), fmt="coo")
def test_sparse_and_dense_coefficients_give_the_same_lp(data, fmt):
    objective, groups = data
    given = [(c, h, b) for c, h, b in groups]
    given_sparse = [(_sparse(c, fmt), h, b) for c, h, b in groups]
    dense = AbsSumLp(objective=objective, groups=[LpGroup(c, h, b) for c, h, b in given])
    sparse = AbsSumLp(objective=objective, groups=[LpGroup(c, h, b) for c, h, b in given_sparse])
    # a group stores CSR whether its coefficients come dense or sparse
    for grp in dense.groups + sparse.groups:
        assert sp.issparse(grp.coeffs) and grp.coeffs.format == "csr"
    a, b = solve(dense), solve(sparse)
    assert a.status == b.status
    assert _bytes(a.x) == _bytes(b.x)
    assert _bytes(a.objective_value) == _bytes(b.objective_value)
    n = len(objective)
    points = [np.full(n, 0.5), np.linspace(-1.0, 1.0, n), -np.ones(n)]
    if a.optimal:
        points.append(a.x)
        # the slack is the value the given coefficients' CSR form computes, bit for bit
        assert _bytes(a.budget_slack) == _bytes(_given_slack(given, a.x))
        assert _bytes(b.budget_slack) == _bytes(_given_slack(given_sparse, b.x))
    for x in points:
        worst = float(np.max(np.abs(x)) - 1.0)
        for lp, grps in ((dense, given), (sparse, given_sparse)):
            expected = max([worst] + [-s for s in _given_slack(grps, x)])
            assert _bytes(check_feasibility(lp, x)) == _bytes(expected)
        assert check_feasibility(dense, x) == check_feasibility(sparse, x)


# ---------------------------------------------------------------------------
# The box minimizer: x_i = -1 where c_i > 0, +1 where c_i < 0, 0 where c_i = 0.
# When it fits every budget it is the LP's optimum and HiGHS never runs.
# ---------------------------------------------------------------------------

def _box(c):
    return np.array([-1.0 if ci > 0 else 1.0 if ci < 0 else 0.0 for ci in c])


def _usage(coeffs, offsets, x):
    return float(np.abs(coeffs @ x + offsets).sum())


# x_box = (-1, 0, 1, -1, 0) puts the forms at 0.75, 0 and 2; the zero-cost
# coordinates 1 and 4 only enter the form that x_box already zeroes, so no
# x with <c, x> = -3.5 uses less than 2.75 of the budget
BOX_C = np.array([1.0, 0.0, -2.0, 0.5, 0.0])
BOX_G = np.array([[1.0, 0.0, 0.0, 0.0, 0.0],
                  [0.0, -1.0, 1.0, 0.0, 1.0],
                  [0.5, 0.0, 0.0, 1.0, 0.0]])
BOX_H = np.array([0.25, -1.0, -0.5])


def test_box_minimizer_within_every_budget_skips_highs(monkeypatch):
    def no_highs(*args, **kwargs):
        raise AssertionError("HiGHS ran")

    monkeypatch.setattr(predcut.lp, "linprog", no_highs)
    lp = AbsSumLp(objective=BOX_C, groups=[LpGroup(BOX_G, BOX_H, 4.0),
                                           LpGroup(sp.csr_matrix(BOX_G[:1]), BOX_H[:1], 0.75)])
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert np.array_equal(sol.x, [-1.0, 0.0, 1.0, -1.0, 0.0])
    assert sol.objective_value == -np.abs(BOX_C).sum() == -3.5
    assert len(sol.budget_slack) == 2 and min(sol.budget_slack) >= 0.0
    assert sol.budget_slack[1] == 0.0   # |-1 + 0 + 0.25| = 0.75: a budget met exactly fits


def test_box_minimizer_over_budget_goes_to_highs():
    x_box = _box(BOX_C)
    budget = 0.99 * _usage(BOX_G, BOX_H, x_box)
    lp = AbsSumLp(objective=BOX_C, groups=[LpGroup(BOX_G, BOX_H, budget)])
    with mock.patch.object(predcut.lp, "linprog", wraps=predcut.lp.linprog) as highs:
        sol = solve(lp)
    assert highs.call_count == 1
    assert sol.status == OPTIMAL
    assert check_feasibility(lp, sol.x) <= FEAS_TOL
    assert sol.objective_value > BOX_C @ x_box


@st.composite
def box_lp_data(draw):
    """(c, coeffs, offsets, budget share): one group, n <= 5, n + forms <= 6."""
    n = draw(st.integers(1, 5))
    K = draw(st.integers(1, min(2, 6 - n)))
    c = np.array(draw(st.lists(st.sampled_from([0.0, 0.0, 1.0, -1.0, 0.5, -2.0, 3.0]),
                               min_size=n, max_size=n)))
    coeffs = np.array(draw(st.lists(QUARTERS, min_size=K * n, max_size=K * n))).reshape(K, n)
    offsets = np.array(draw(st.lists(QUARTERS, min_size=K, max_size=K)))
    return c, coeffs, offsets, draw(st.sampled_from([0.5, 0.99, 1.0, 1.5, 3.0]))


@settings(max_examples=60)
@given(data=box_lp_data())
@example(data=(np.array([1.0, 0.0, -2.0]), np.array([[1.0, -1.0, 0.25]]), np.array([0.5]), 1.0))
def test_box_early_exit_matches_vertex_enumeration(data):
    c, coeffs, offsets, share = data
    lp = AbsSumLp(objective=c, groups=[LpGroup(coeffs, offsets,
                                               share * _usage(coeffs, offsets, _box(c)))])
    with mock.patch.object(predcut.lp, "linprog", wraps=predcut.lp.linprog) as highs:
        sol = solve(lp)
    if highs.called:
        return
    oracle_val, _ = brute_force_lp(lp)
    assert sol.status == OPTIMAL and np.array_equal(sol.x, _box(c))
    assert sol.objective_value == pytest.approx(oracle_val, abs=OPT_TOL * (1 + abs(oracle_val)))
