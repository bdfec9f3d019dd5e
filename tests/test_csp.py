import itertools

import numpy as np
import pytest

from predcut.csp import (CspInstance, CUT_PREDICATE, Predicate, build_csp_lp,
                         classify_literals, csp_value, csp_value_table,
                         fourier_expand, load_csp, maxcut_as_csp,
                         predicate_from_bits, save_csp, solve_csp_wide)
from predcut.errors import DomainError, ParseError
from predcut.exact import exact_csp
from predcut.graph import cut_value, gen_erdos_renyi
from predcut.lp import check_feasibility, solve as solve_lp
from predcut.predictions import NoisyPrediction, sample_noisy, scaled_prediction
from predcut.wide import estimate_imbalance

from conftest import random_cut, random_graph

ALL_INPUT_PAIRS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def random_instance(rng, n=8, m=20, pred_bits=None):
    bits = pred_bits or "".join(str(int(rng.integers(2))) for _ in range(4))
    pred = predicate_from_bits(bits)
    cons = [(float(rng.uniform(0.1, 2.0)),
             (int(rng.choice([-1, 1])), int(rng.choice([-1, 1]))),
             (int(rng.integers(n)), int(rng.integers(n))))
            for _ in range(m)]
    return CspInstance(n, pred, cons)


def test_cut_predicate_fourier_coefficients():
    assert CUT_PREDICATE.fourier == (0.5, 0.0, 0.0, -0.5)


def test_or_predicate_reconstruction():
    # OR under the +1/-1 convention: false only at (+1, +1)
    pred = fourier_expand([0, 1, 1, 1])
    for z in ALL_INPUT_PAIRS:
        assert pred.value_fourier(*z) == pytest.approx(pred.value(*z), abs=1e-12)


def test_constant_one_predicate():
    pred = fourier_expand([1, 1, 1, 1])
    assert pred.fourier == (1.0, 0.0, 0.0, 0.0)


def test_all_sixteen_predicates_reconstruct_exactly():
    for bits in itertools.product("01", repeat=4):
        pred = predicate_from_bits("".join(bits))
        for z in ALL_INPUT_PAIRS:
            assert pred.value_fourier(*z) == pred.value(*z)
        # Parseval for 0/1 predicates
        assert sum(f * f for f in pred.fourier) <= 1.0 + 1e-12


def test_a_predicate_holds_its_truth_table_only():
    # the coefficients derive from the table, so a table and coefficients
    # that disagree cannot be built
    with pytest.raises(TypeError):
        Predicate(table=CUT_PREDICATE.table, f0=1.0, f1=0.0, f2=0.0, f12=0.0)
    for bits in itertools.product((0, 1), repeat=4):
        pred = fourier_expand(list(bits))
        assert pred.table == bits and not hasattr(pred, "f0")
        assert fourier_expand(dict(zip(ALL_INPUT_PAIRS, bits))) == pred
        f = [sum(p * z1 for p, (z1, _) in zip(bits, ALL_INPUT_PAIRS)),
             sum(p * z2 for p, (_, z2) in zip(bits, ALL_INPUT_PAIRS)),
             sum(p * z1 * z2 for p, (z1, z2) in zip(bits, ALL_INPUT_PAIRS))]
        assert pred.fourier == (sum(bits) / 4.0, f[0] / 4.0, f[1] / 4.0, f[2] / 4.0)


def test_predicate_validation():
    with pytest.raises(DomainError):
        predicate_from_bits("012")
    with pytest.raises(DomainError):
        fourier_expand([0, 1, 2, 0])
    with pytest.raises(DomainError):
        Predicate((0, 1, 1))


def test_csp_value_k3_encoding():
    g = gen_erdos_renyi(3, 1.0, "unit", seed=0)
    inst = maxcut_as_csp(g)
    assert csp_value(inst, np.array([1.0, 1.0, -1.0])) == pytest.approx(2 / 3)


def test_csp_value_all_satisfied():
    pred = fourier_expand([1, 0, 0, 1])  # equality predicate
    inst = CspInstance(4, pred, [(1.0, (1, 1), (0, 1)), (2.0, (1, 1), (2, 3))])
    assert csp_value(inst, np.ones(4)) == pytest.approx(1.0)


def test_two_evaluation_paths_agree():
    rng = np.random.default_rng(121)
    for _ in range(25):
        inst = random_instance(rng, n=int(rng.integers(3, 9)), m=int(rng.integers(4, 25)))
        x = random_cut(rng, inst.n)
        assert csp_value(inst, x) == pytest.approx(csp_value_table(inst, x), abs=1e-9)


def test_two_paths_agree_for_asymmetric_predicate():
    # implication-like predicate has asymmetric linear coefficients
    pred = fourier_expand([1, 0, 1, 1])
    assert pred.fourier[1] != pred.fourier[2]
    rng = np.random.default_rng(122)
    cons = [(1.0, (1, -1), (0, 1)), (0.5, (-1, 1), (1, 2)), (2.0, (1, 1), (2, 0))]
    inst = CspInstance(3, pred, cons)
    for _ in range(10):
        x = random_cut(rng, 3)
        assert csp_value(inst, x) == pytest.approx(csp_value_table(inst, x), abs=1e-12)


def test_maxcut_correspondence_k2():
    g = gen_erdos_renyi(2, 1.0, "unit", seed=0)
    inst = maxcut_as_csp(g)
    assert csp_value(inst, np.array([1.0, -1.0])) == pytest.approx(1.0)


def test_maxcut_correspondence_random():
    rng = np.random.default_rng(123)
    for _ in range(100):
        g = random_graph(rng, n=int(rng.integers(2, 10)))
        inst = maxcut_as_csp(g)
        x = random_cut(rng, g.n)
        assert csp_value(inst, x) * inst.total_weight == pytest.approx(
            2 * cut_value(g, x), abs=1e-9)


def test_classify_literals_examples():
    pred = CUT_PREDICATE
    cons = [(1.0, (1, 1), (0, j)) for j in range(1, 11)]
    inst = CspInstance(11, pred, cons)
    assert classify_literals(inst, 2, 0.3).wide_mask[0]     # prefix 2 <= 3
    # delta exceeding |S_0| makes the prefix everything: narrow
    assert not classify_literals(inst, 25, 0.45).wide_mask[0]


def test_classify_matches_graph_on_encodings():
    from predcut.graph import classify
    rng = np.random.default_rng(124)
    for _ in range(10):
        g = gen_erdos_renyi(30, 0.8, "unit", seed=int(rng.integers(1000)))
        inst = maxcut_as_csp(g)
        delta, eta = int(rng.integers(1, 5)), float(rng.uniform(0.2, 0.45))
        grep = classify(g, delta, eta)
        crep = classify_literals(inst, delta, eta)
        if grep.is_wide:
            assert crep.is_wide
        assert np.array_equal(grep.wide_mask, crep.wide_mask)


def test_lp_specializes_to_wide_imbalance_objective():
    # on a MaxCut encoding, the LP objective coefficient is -(1/2)(A~ Z)_i
    g = gen_erdos_renyi(4, 1.0, "unit", seed=5)
    x = np.array([1.0, -1.0, 1.0, -1.0])
    y = NoisyPrediction(y=x, epsilon=0.3)
    z = scaled_prediction(y)
    inst = maxcut_as_csp(g)
    lp = build_csp_lp(inst, z, 1, 0.4, 0.2, C=4.0)
    est = estimate_imbalance(g, y, 1, 0.4)
    assert np.allclose(-lp.objective, -0.5 * est.r_hat, atol=1e-12)


def test_lp_constant_predicate_has_zero_objective():
    pred = fourier_expand([1, 1, 1, 1])
    rng = np.random.default_rng(125)
    cons = [(1.0, (1, 1), (int(rng.integers(5)), int(rng.integers(5))))
            for _ in range(20)]
    inst = CspInstance(5, pred, cons)
    lp = build_csp_lp(inst, np.zeros(5), 1, 0.3, 0.2)
    assert np.all(lp.objective == 0.0)


@pytest.mark.parametrize("k", [1.0, 2.0, 3.0, 7.0])
def test_lp_objective_snaps_cancelling_tail_terms_to_zero(k):
    # P = (1 + z1) / 2 has a1 = c1 / 2 and a12 = 0, so an entry of weight 2g
    # adds +-g to its literal's objective, whatever Z is; literal 0's head is
    # its heaviest entry and its tail adds -0.3k, 0.2k and 0.1k
    pred = predicate_from_bits("1100")
    cons = [(2 * 0.4 * k, (1, 1), (0, 1)), (2 * 0.3 * k, (-1, 1), (0, 2)),
            (2 * 0.2 * k, (1, 1), (0, 3)), (2 * 0.1 * k, (1, 1), (0, 4))]
    inst = CspInstance(5, pred, cons)
    assert classify_literals(inst, 1, 0.45).wide_mask[0]
    lp = build_csp_lp(inst, np.full(5, 1.25), 1, 0.45, 0.2)
    assert lp.objective[0] == 0.0
    assert solve_lp(lp).x[0] == 0.0


def test_lp_empty_instance():
    inst = CspInstance(3, CUT_PREDICATE, [])
    lp = build_csp_lp(inst, np.zeros(3), 1, 0.3, 0.2)
    assert lp.groups == []


def test_solve_csp_wide_constant_zero_predicate():
    pred = fourier_expand([0, 0, 0, 0])
    inst = CspInstance(4, pred, [(1.0, (1, 1), (0, 1)), (1.0, (1, 1), (2, 3))])
    y = NoisyPrediction(y=np.ones(4), epsilon=0.3)
    out = solve_csp_wide(inst, y, 2, 0.3, 0.2, seed=1)
    assert csp_value(inst, out) == pytest.approx(0.0)
    assert exact_csp(inst)[0] == pytest.approx(0.0)


def test_solve_csp_wide_returns_the_prediction_when_its_lp_is_infeasible():
    # every literal is narrow, so each head form is the constant weight of
    # its literal's always-satisfied constraints: their sum W = 8 overruns
    # the budget C (eps' + 2 eta) W = 1.2
    inst = CspInstance(4, fourier_expand([1, 1, 1, 1]),
                       [(1.0, (1, 1), (0, 1)), (2.0, (1, -1), (2, 3)), (1.0, (1, 1), (1, 2))])
    y = NoisyPrediction(y=np.array([1.0, -1.0, -1.0, 1.0]), epsilon=0.3)
    lp = build_csp_lp(inst, scaled_prediction(y), 2, 0.05, 0.05, C=1.0)
    assert not solve_lp(lp).optimal
    out = solve_csp_wide(inst, y, 2, 0.05, 0.05, C=1.0, seed=1)
    assert np.array_equal(out.values, y.y)


def test_zero_weight_instance_has_value_zero():
    inst = CspInstance(3, CUT_PREDICATE, [(0.0, (1, 1), (0, 1)), (0.0, (1, -1), (1, 2))])
    for x in (np.ones(3), np.array([1.0, -1.0, 1.0])):
        assert csp_value(inst, x) == 0.0
        assert csp_value_table(inst, x) == 0.0


def test_solve_csp_wide_near_perfect_predictions():
    rng = np.random.default_rng(126)
    for t in range(5):
        g = gen_erdos_renyi(12, 0.9, "unit", seed=int(rng.integers(1000)))
        inst = maxcut_as_csp(g)
        opt, x_star = exact_csp(inst)
        eta, eps_prime = 0.35, 0.2
        y = NoisyPrediction(y=x_star.values.copy(), epsilon=0.499)
        out = solve_csp_wide(inst, y, 2, eta, eps_prime, seed=t)
        assert csp_value(inst, out) >= opt - (5 * eta + 2 * eps_prime)


def test_solve_csp_wide_cross_checks_graph_solver():
    from predcut.wide import solve_wide
    g = gen_erdos_renyi(40, 0.0, "planted", seed=127, q_cross=0.85, q_within=0.1)
    inst = maxcut_as_csp(g)
    y = sample_noisy(g.planted, 0.4, seed=128)
    eta, eps_prime, delta = 0.3, 0.3, 4
    out_csp = solve_csp_wide(inst, y, delta, eta, eps_prime, seed=9)
    out_graph = solve_wide(g, y, delta, eta, eps_prime, seed=9)
    val_csp = csp_value(inst, out_csp) * inst.total_weight / 2
    # both pipelines respect the same additive guarantee scale
    planted = cut_value(g, g.planted)
    slack = (5 * eta + 2 * eps_prime) * g.total_weight
    assert val_csp >= planted - slack
    assert cut_value(g, out_graph) >= planted - slack


def test_ground_truth_feasible_for_csp_lp():
    # feasibility spot check at modest scale (the full frequency test
    # lives in the acceptance suite)
    g = gen_erdos_renyi(60, 0.9, "unit", seed=129)
    inst = maxcut_as_csp(g)
    rng = np.random.default_rng(130)
    x_star = rng.choice([-1.0, 1.0], size=60)
    eta, eps_prime, delta, C = 0.4, 0.3, 3, 4.0
    ok = 0
    for t in range(10):
        y = sample_noisy(x_star, 0.3, seed=[131, t])
        lp = build_csp_lp(inst, scaled_prediction(y), delta, eta, eps_prime, C)
        if check_feasibility(lp, x_star) <= 0:
            ok += 1
    assert ok >= 9


def test_csp_file_round_trip():
    rng = np.random.default_rng(132)
    inst = random_instance(rng, n=6, m=9, pred_bits="0111")
    loaded = load_csp(save_csp(inst), inst.predicate)
    assert loaded.n == inst.n
    for a in ("weight", "signs", "scope"):
        assert np.array_equal(getattr(loaded, a), getattr(inst, a))
    rng2 = np.random.default_rng(133)
    for _ in range(5):
        x = random_cut(rng2, 6)
        assert csp_value(loaded, x) == pytest.approx(csp_value(inst, x))


def test_csp_file_normalization_flag():
    text = "2 2 1\n2.0 +1 +1 0 1\n6.0 +1 -1 1 0\n"
    inst = load_csp(text, CUT_PREDICATE)
    assert inst.weight.tolist() == [2.0 / 8.0, 6.0 / 8.0]


def test_csp_file_errors_name_the_file_line():
    # blank and comment lines count, and an indented comment is a comment
    text = "# a CSP\n\n   # two constraints\n2 2 0\n1.0 +1 +1 0 1\n\n1.0 +1 x 1 0\n"
    with pytest.raises(ParseError, match="line 7: bad field types") as e:
        load_csp(text, CUT_PREDICATE)
    assert e.value.line == 7
    assert load_csp(text.replace(" x ", " -1 "), CUT_PREDICATE).num_constraints == 2
    with pytest.raises(ParseError, match="line 4: W_norm_flag"):
        load_csp(text.replace("2 2 0", "2 2 5"), CUT_PREDICATE)
