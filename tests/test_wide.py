import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from predcut.graph import Graph, classify, cut_value, frac_objective, gen_erdos_renyi
from predcut.lp import (FEAS_TOL, INFEASIBLE, OPT_TOL, AbsSumLp, LpGroup, check_feasibility,
                        solve as lp_solve)
from predcut.predictions import NoisyPrediction, sample_noisy
from predcut.wide import (build_wide_lp, estimate_imbalance, pipage_round,
                          randomized_round_best, rounding_trials, solve_wide)

from conftest import random_cut, random_graph


def test_estimate_path_example():
    # path 1 - 0 - 2, delta=1, eta=0.6: vertex 0 wide, its row keeps edge to 2
    g = Graph(3, [(0, 1, 1.0), (0, 2, 1.0)])
    y = NoisyPrediction(y=np.ones(3), epsilon=0.25)
    est = estimate_imbalance(g, y, 1, 0.6)
    assert np.array_equal(est.r_hat, [2.0, 0.0, 0.0])
    assert list(est.wide_set) == [0]


def test_estimate_zero_graph():
    g = Graph(4, [])
    y = NoisyPrediction(y=np.ones(4), epsilon=0.3)
    est = estimate_imbalance(g, y, 2, 0.3)
    assert np.array_equal(est.r_hat, np.zeros(4))


def test_estimate_invariants():
    rng = np.random.default_rng(61)
    for _ in range(15):
        g = random_graph(rng)
        x = random_cut(rng, g.n)
        y = sample_noisy(x, 0.25, seed=int(rng.integers(1000)))
        delta, eta = int(rng.integers(1, 4)), float(rng.uniform(0.1, 0.45))
        est = estimate_imbalance(g, y, delta, eta)
        rep = classify(g, delta, eta)
        assert np.all(est.r_hat[~rep.wide_mask] == 0.0)
        assert np.all(np.abs(est.r_hat) <= g.weighted_degrees / (2 * 0.25) + 1e-9)


def test_build_wide_lp_budget_formula():
    rng = np.random.default_rng(62)
    for _ in range(10):
        g = random_graph(rng)
        x = random_cut(rng, g.n)
        y = sample_noisy(x, 0.3, seed=int(rng.integers(1000)))
        est = estimate_imbalance(g, y, 2, 0.3)
        eps_prime, eta = float(rng.uniform(0.05, 0.5)), float(rng.uniform(0.05, 0.45))
        lp = build_wide_lp(g, est, eps_prime, eta)
        assert lp.groups[0].budget == (eps_prime + 2 * eta) * g.total_weight
        # the group encodes r_hat_i - (Ax)_i
        z = rng.uniform(-1, 1, g.n)
        forms = lp.groups[0].coeffs @ z + lp.groups[0].offsets
        assert np.allclose(forms, est.r_hat - g.csr.toarray() @ z)


def test_build_wide_lp_empty_graph():
    g = Graph(2, [])
    y = NoisyPrediction(y=np.ones(2), epsilon=0.3)
    lp = build_wide_lp(g, estimate_imbalance(g, y, 1, 0.3), 0.2, 0.3)
    assert lp.groups[0].budget == 0.0
    assert lp_solve(lp).status == "optimal"


def test_k2_lp_feasible_at_zero():
    g = Graph(2, [(0, 1, 1.0)])
    y = NoisyPrediction(y=np.array([1.0, -1.0]), epsilon=0.25)
    est = estimate_imbalance(g, y, 1, 0.45)
    lp = build_wide_lp(g, est, 0.2, 0.45)
    assert check_feasibility(lp, np.zeros(2)) <= 0  # |0 - 0| vs positive budget


def _two_row_reference(lp, minimize_budget=False):
    """The one-group wide LP with slacks s_k >= +-(g_k x + h_k), by linprog's defaults.

    With minimize_budget, minimizes sum_k s_k with no budget row instead, which
    gives the smallest budget any x in the box can meet.
    """
    grp = lp.groups[0]
    G, K, n = sp.csr_matrix(grp.coeffs), grp.coeffs.shape[0], lp.n
    eye = sp.eye(K)
    rows = [sp.hstack([G, -eye]), sp.hstack([-G, -eye])]
    rhs = [-grp.offsets, grp.offsets]
    if minimize_budget:
        c = np.concatenate([np.zeros(n), np.ones(K)])
        caps = [(0.0, None)] * K
    else:
        c = np.concatenate([lp.objective, np.zeros(K)])
        caps = [(0.0, grp.budget)] * K
        rows.append(sp.hstack([sp.csr_matrix((1, n)), np.ones((1, K))]))
        rhs.append([grp.budget])
    return linprog(c, A_ub=sp.vstack(rows), b_ub=np.concatenate(rhs),
                   bounds=[(-1.0, 1.0)] * n + caps)


def _binding_lp():
    # eps' = 0 and eta = 0.1: every vertex is wide and the budget 0.2 W binds
    g = gen_erdos_renyi(150, 0.0, "planted", seed=0, q_cross=0.4, q_within=0.1)
    y = sample_noisy(g.planted, 0.25, seed=10)
    return g, y, build_wide_lp(g, estimate_imbalance(g, y, 2, 0.1), 0.0, 0.1)


def test_binding_budget_matches_two_row_reference():
    *_, lp = _binding_lp()
    grp = lp.groups[0]
    sol, ref = lp_solve(lp), _two_row_reference(lp)
    assert sol.optimal and ref.status == 0
    ref_value = float(lp.objective @ ref.x[:lp.n])
    assert abs(sol.objective_value - ref_value) <= OPT_TOL * max(1.0, abs(ref_value))
    # the budget decides the optimum: the box alone reaches -||r_hat||_1
    assert sol.objective_value > -np.abs(lp.objective).sum() + 1.0
    assert check_feasibility(lp, sol.x) <= FEAS_TOL
    used = float(np.abs(grp.coeffs @ sol.x + grp.offsets).sum())
    assert abs(used - grp.budget) <= 1e-7
    assert len(sol.budget_slack) == 1 and abs(sol.budget_slack[0]) <= 1e-7

    # one budget below the smallest feasible one: infeasible on both
    least = _two_row_reference(lp, minimize_budget=True).fun
    short = AbsSumLp(objective=lp.objective,
                     groups=[LpGroup(grp.coeffs, grp.offsets, 0.99 * least)])
    sol = lp_solve(short)
    assert sol.status == INFEASIBLE and sol.budget_slack == ()
    assert _two_row_reference(short).status == 2


def test_budget_slack_on_a_slack_budget():
    g, y, _ = _binding_lp()
    lp = build_wide_lp(g, estimate_imbalance(g, y, 2, 0.15), 0.0, 0.15)
    grp = lp.groups[0]
    sol = lp_solve(lp)
    used = float(np.abs(grp.coeffs @ sol.x + grp.offsets).sum())
    assert sol.budget_slack == (grp.budget - used,)
    assert sol.budget_slack[0] > 1.0


def test_rounding_trials_formula():
    assert rounding_trials(0.3) == int(np.ceil(np.log(100) / np.log1p(0.15)))


def test_randomized_round_integral_fixed_point():
    rng = np.random.default_rng(63)
    g = random_graph(rng, n=8)
    x = random_cut(rng, 8)
    for s in range(10):
        assert np.array_equal(randomized_round_best(g, x, 0.3, s).values, x)


def test_randomized_round_k2_beats_single_trial():
    g = Graph(2, [(0, 1, 1.0)])
    hits = sum(cut_value(g, randomized_round_best(g, np.zeros(2), 0.3, s)) == 1.0
               for s in range(400))
    assert hits / 400 >= 0.5


def test_randomized_round_expectation_preserved():
    # E <X, AX> = <x_hat, A x_hat> for a single rounding: Monte Carlo, 3 sigma
    rng = np.random.default_rng(64)
    g = random_graph(rng, n=10)
    x_hat = rng.uniform(-1, 1, 10)
    A = g.csr.toarray()
    draws = 4000
    U = np.random.default_rng(65).random((draws, 10))
    X = np.where(U < (1 + x_hat) / 2, 1.0, -1.0)
    vals = np.einsum("ti,ti->t", X @ A, X)
    target = x_hat @ A @ x_hat
    sem = vals.std(ddof=1) / np.sqrt(draws)
    assert abs(vals.mean() - target) <= 3 * sem + 1e-9


def test_randomized_round_deterministic_replay():
    rng = np.random.default_rng(66)
    g = random_graph(rng, n=9)
    x_hat = rng.uniform(-1, 1, 9)
    a = randomized_round_best(g, x_hat, 0.2, 123)
    b = randomized_round_best(g, x_hat, 0.2, 123)
    assert np.array_equal(a.values, b.values)


def test_pipage_integral_unchanged():
    rng = np.random.default_rng(67)
    g = random_graph(rng, n=7)
    x = random_cut(rng, 7)
    assert np.array_equal(pipage_round(g, x).values, x)


def test_pipage_k2_example():
    g = Graph(2, [(0, 1, 1.0)])
    out = pipage_round(g, np.array([0.5, -0.5]))
    assert np.array_equal(out.values, [1.0, -1.0])
    assert cut_value(g, out) == 1.0 >= 0.625


def test_pipage_rounding_residue_is_a_tie():
    # vertex 0's row value 0.1 + 0.2 - 0.3 computes to +5.55e-17: a tie, so +1
    g = Graph(4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)])
    x_hat = np.array([0.5, 0.1, 0.2, -0.3])
    assert x_hat[1:].sum() > 0
    assert np.array_equal(pipage_round(g, x_hat).values, [1.0, -1.0, -1.0, -1.0])


def test_pipage_never_decreases_objective():
    rng = np.random.default_rng(68)
    for _ in range(60):
        g = random_graph(rng)
        x_hat = rng.uniform(-1, 1, g.n)
        out = pipage_round(g, x_hat)
        assert np.all(np.abs(out.values) == 1)
        assert frac_objective(g, out) >= frac_objective(g, x_hat) - 1e-9


def test_pipage_stepwise_monotone():
    rng = np.random.default_rng(69)
    g = random_graph(rng, n=8)
    x = rng.uniform(-1, 1, 8)
    prev = frac_objective(g, x)
    for i in range(8):
        x[i] = -1.0 if g.csr[i].toarray()[0] @ x > 0 else 1.0
        cur = frac_objective(g, x)
        assert cur >= prev - 1e-9
        prev = cur


def test_solve_wide_noiseless_sanity():
    # prediction equals the reference exactly; additive-guarantee sanity run
    eta, eps_prime = 0.3, 0.2
    g = gen_erdos_renyi(60, 0.8, "unit", seed=70)
    opt_ref = None
    x_star = np.random.default_rng(71).choice([-1.0, 1.0], size=60)
    y = NoisyPrediction(y=x_star.copy(), epsilon=0.499)
    for rounding in ("repeat", "pipage"):
        cut = solve_wide(g, y, delta=4, eta=eta, eps_prime=eps_prime,
                         rounding=rounding, seed=4)
        bound = cut_value(g, x_star) - (2 * eps_prime + 5 * eta) * g.total_weight
        assert cut_value(g, cut) >= bound


def test_solve_wide_empty_graph():
    g = Graph(3, [])
    y = NoisyPrediction(y=np.ones(3), epsilon=0.3)
    cut = solve_wide(g, y, delta=1, eta=0.3, eps_prime=0.2, seed=0)
    assert cut_value(g, cut) == 0.0


def test_ground_truth_feasible_at_scaled_delta():
    # Markov-style feasibility of the reference labels at delta = 4/(eps eps')^2
    eps, eps_prime, eta = 0.49, 0.49, 0.49
    delta = int(np.ceil(4.0 / (eps * eps_prime) ** 2))
    g = gen_erdos_renyi(320, 0.5, "unit", seed=72)
    rep = classify(g, delta, eta)
    assert rep.is_wide
    rng = np.random.default_rng(73)
    x_star = rng.choice([-1.0, 1.0], size=320)
    ok = 0
    draws = 30
    budget = (eps_prime + 2 * eta) * g.total_weight
    for t in range(draws):
        y = sample_noisy(x_star, eps, seed=[74, t])
        est = estimate_imbalance(g, y, delta, eta)
        if np.abs(est.r_hat - g.csr.toarray() @ x_star).sum() <= budget:
            ok += 1
    assert ok / draws >= 0.9
