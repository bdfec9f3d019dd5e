import numpy as np
import pytest

from predcut.errors import DomainError, ParameterError, ParseError
from predcut.predictions import (NoisyPrediction, affine_uniforms, bias_grid,
                                 load_prediction, next_prime, sample_noisy,
                                 sample_partial, save_prediction,
                                 scaled_prediction)

from conftest import three_sigma


def reference(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.choice([-1.0, 1.0], size=n)


def test_noisy_near_half_bias_rarely_flips():
    x = reference(100)
    agree = 0
    total = 0
    for t in range(1000):
        y = sample_noisy(x, 0.499, seed=[1, t])
        agree += int(np.sum(y.y == x))
        total += 100
    assert agree / total >= 0.99


def test_noisy_agreement_rate():
    x = reference(1000)
    rates = [np.mean(sample_noisy(x, 0.1, seed=[2, t]).y == x) for t in range(400)]
    assert abs(np.mean(rates) - 0.6) <= 0.05


def test_pairwise_joint_correctness_probability():
    x = reference(400)
    eps = 0.2
    pairs = [(0, 1), (5, 200), (398, 399), (17, 256)]
    hits = {p: 0 for p in pairs}
    trials = 4000
    for t in range(trials):
        y = sample_noisy(x, eps, seed=[3, t], independence="pairwise_only")
        ok = y.y == x
        for (i, j) in pairs:
            hits[(i, j)] += int(ok[i] and ok[j])
    for p in pairs:
        assert abs(hits[p] / trials - (0.5 + eps) ** 2) <= 0.05


def test_partial_full_rate_reveals_everything():
    x = reference(50)
    y = sample_partial(x, 1.0, seed=4)
    assert np.array_equal(y.y, x)
    assert len(y.revealed_set) == 50


def test_partial_reveal_rate():
    x = reference(1000)
    fracs = [np.mean(sample_partial(x, 0.3, seed=[5, t]).y != 0) for t in range(400)]
    assert abs(np.mean(fracs) - 0.3) <= 0.05


def test_partial_never_lies():
    x = reference(300)
    for t in range(50):
        y = sample_partial(x, 0.4, seed=[6, t],
                           independence="pairwise_only" if t % 2 else "mutual")
        rev = y.revealed
        assert np.array_equal(y.y[rev], x[rev])
        assert np.all(y.y[~rev] == 0)


def test_scaled_prediction_values():
    y = NoisyPrediction(y=np.array([1.0, -1.0]), epsilon=0.25)
    assert np.array_equal(scaled_prediction(y), np.array([2.0, -2.0]))
    y = NoisyPrediction(y=np.array([-1.0]), epsilon=0.499)
    assert scaled_prediction(y)[0] == pytest.approx(-1.0, abs=3e-3)


def test_scaled_prediction_is_unbiased():
    # Monte-Carlo check of E[Z] = x*
    x = reference(8, seed=7)
    eps = 0.3
    acc = np.zeros(8)
    draws = 100_000
    rng = np.random.default_rng(8)
    correct = rng.random((draws, 8)) < 0.5 + eps
    Y = np.where(correct, x, -x)
    acc = (Y / (2 * eps)).mean(axis=0)
    assert np.all(np.abs(acc - x) <= 0.05)


def test_bias_grid_examples():
    assert bias_grid(5) == pytest.approx([0.1, 0.2, 0.3, 0.4])
    assert bias_grid(2) == pytest.approx([0.25])
    for v in bias_grid(17):
        assert 0.0 < v < 0.5
    with pytest.raises(ParameterError):
        bias_grid(1)


def test_marginal_calibration_three_sigma():
    x = reference(40, seed=9)
    draws = 2000
    for mode in ("mutual", "pairwise_only"):
        counts = np.zeros(40)
        for t in range(draws):
            counts += sample_noisy(x, 0.2, seed=[10, t], independence=mode).y == x
        band = three_sigma(0.7, draws)
        assert np.all(np.abs(counts / draws - 0.7) <= band + 0.005)
    counts = np.zeros(40)
    for t in range(draws):
        counts += sample_partial(x, 0.35, seed=[11, t]).y != 0
    assert np.all(np.abs(counts / draws - 0.35) <= three_sigma(0.35, draws) + 0.005)


def test_affine_family_exact_pair_law():
    # exhaustive enumeration over all (a, b) with a != 0: each off-diagonal
    # value pair appears exactly once, diagonal pairs never
    for n in (6, 10):
        P = next_prime(n)
        for (i, j) in ((0, 1), (1, n - 1), (2, 5)):
            seen = np.zeros((P, P), dtype=int)
            for a in range(1, P):
                for b in range(P):
                    u = affine_uniforms(n, a, b, P)
                    seen[int(u[i] * P), int(u[j] * P)] += 1
            off_diag = ~np.eye(P, dtype=bool)
            assert np.all(seen[off_diag] == 1)
            assert np.all(seen[~off_diag] == 0)


def test_affine_family_exact_uniform_marginals():
    n = 10
    P = next_prime(n)
    for i in (0, 3, 9):
        hist = np.zeros(P, dtype=int)
        for a in range(1, P):
            for b in range(P):
                hist[int(affine_uniforms(n, a, b, P)[i] * P)] += 1
        assert np.all(hist == P - 1)


def test_determinism():
    x = reference(64)
    a = sample_noisy(x, 0.17, seed=12)
    b = sample_noisy(x, 0.17, seed=12)
    assert np.array_equal(a.y, b.y)
    c = sample_partial(x, 0.6, seed=12, independence="pairwise_only")
    d = sample_partial(x, 0.6, seed=12, independence="pairwise_only")
    assert np.array_equal(c.y, d.y)


def test_parameter_validation():
    x = reference(5)
    with pytest.raises(ParameterError):
        sample_noisy(x, 0.5, seed=0)
    with pytest.raises(ParameterError):
        sample_noisy(x, 0.0, seed=0)
    with pytest.raises(ParameterError):
        sample_partial(x, 0.0, seed=0)
    with pytest.raises(ParameterError):
        sample_partial(x, 1.1, seed=0)
    with pytest.raises(DomainError):
        sample_noisy(np.array([1.0, 0.5]), 0.2, seed=0)


def test_prediction_file_round_trip():
    x = reference(12)
    for pred in (sample_noisy(x, 0.3, seed=13), sample_partial(x, 0.5, seed=13)):
        loaded = load_prediction(save_prediction(pred))
        assert type(loaded) is type(pred)
        assert loaded.epsilon == pred.epsilon
        assert np.array_equal(loaded.y, pred.y)


def test_prediction_file_errors():
    with pytest.raises(ParseError):
        load_prediction("2 weird 0.3\n+1\n-1\n")
    with pytest.raises(ParseError):
        load_prediction("2 noisy 0.3\n+1\n0\n")
    with pytest.raises(ParseError):
        load_prediction("3 noisy 0.3\n+1\n-1\n")


def test_prediction_file_errors_name_the_file_line():
    # blank and comment lines count, and an indented comment is a comment
    text = "# labels\n\n  # indented\n2 noisy 0.3\n+1\n+2\n"
    with pytest.raises(ParseError, match="line 6: bad label '\\+2'") as e:
        load_prediction(text)
    assert e.value.line == 6
    assert np.array_equal(load_prediction(text.replace("+2", "-1")).y, [1.0, -1.0])
    with pytest.raises(ParseError, match="line 4: unknown model"):
        load_prediction(text.replace("noisy", "weird"))
    with pytest.raises(ParseError, match="line 5: noisy predictions cannot contain 0"):
        load_prediction("2 noisy 0.3\n\n\n\n0\n+1\n")
