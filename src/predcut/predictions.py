"""Noisy and partial predictions of a fixed reference cut.

Noisy model: every vertex label equals the reference with probability
p = 1/2 + eps and is flipped otherwise. Partial model: every vertex label
is revealed (and then exactly correct) with probability eps, blank (0)
otherwise. Both come in a mutually independent flavor and a strictly
pairwise-independent flavor built by thresholding the affine hash family
u_i = ((a*i + b) mod P) / P over the smallest prime P > n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, ParameterError, ParseError
from .graph import _file_lines, _records, _typed, _values_of

MUTUAL = "mutual"
PAIRWISE = "pairwise_only"


@dataclass(frozen=True)
class NoisyPrediction:
    """+-1 labels, each correct with probability 1/2 + epsilon."""

    y: np.ndarray
    epsilon: float

    def __post_init__(self):
        y = np.asarray(self.y, dtype=np.float64)
        object.__setattr__(self, "y", y)
        if not np.all(np.abs(y) == 1.0):
            raise DomainError("noisy prediction entries must be +-1")
        if not (0.0 < self.epsilon < 0.5):
            raise ParameterError(f"noisy bias must lie in (0, 1/2), got {self.epsilon}")

    @property
    def p(self):
        return 0.5 + self.epsilon

    def __len__(self):
        return len(self.y)


@dataclass(frozen=True)
class PartialPrediction:
    """Labels in {-1, 0, +1}; nonzero entries are revealed and correct."""

    y: np.ndarray
    epsilon: float

    def __post_init__(self):
        y = np.asarray(self.y, dtype=np.float64)
        object.__setattr__(self, "y", y)
        if not np.all(np.isin(y, (-1.0, 0.0, 1.0))):
            raise DomainError("partial prediction entries must be in {-1, 0, +1}")
        if not (0.0 < self.epsilon <= 1.0):
            raise ParameterError(f"reveal rate must lie in (0, 1], got {self.epsilon}")

    @property
    def revealed(self):
        return self.y != 0.0

    @property
    def revealed_set(self):
        return np.nonzero(self.y)[0]

    def __len__(self):
        return len(self.y)


def _check_length(pred, n):
    """DimensionError unless the prediction holds one label per vertex (or CSP variable)."""
    if len(pred) != n:
        raise DimensionError(f"prediction length {len(pred)} does not match n={n}")


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than n (trial division, desk scale)."""
    c = max(2, n + 1)
    while True:
        if all(c % d for d in range(2, int(c ** 0.5) + 1)):
            return c
        c += 1


def affine_uniforms(n: int, a: int, b: int, P: int) -> np.ndarray:
    """u_i = ((a*i + b) mod P) / P for i = 0..n-1."""
    return ((a * np.arange(n, dtype=np.int64) + b) % P) / P


def pairwise_uniforms(n: int, rng) -> np.ndarray:
    """One draw from the affine pairwise-independent family on [0, 1).

    P is the smallest prime > n and a, b are uniform over [0, P) with
    a != 0. Marginals are exactly uniform on the P-point grid; for i != j
    the pair (u_i, u_j) is uniform over the off-diagonal grid pairs.
    """
    P = next_prime(n)
    a = int(rng.integers(1, P))
    b = int(rng.integers(0, P))
    return affine_uniforms(n, a, b, P)


def _uniforms(n, rng, independence):
    if independence == MUTUAL:
        return rng.random(n)
    if independence == PAIRWISE:
        return pairwise_uniforms(n, rng)
    raise ParameterError(f"unknown independence mode {independence!r}")


def sample_noisy(x_star, epsilon, seed, independence=MUTUAL) -> NoisyPrediction:
    """Draw a noisy prediction of x_star with bias epsilon.

    Deterministic given the seed. In pairwise_only mode correctness events
    are thresholded pairwise-independent uniforms, which preserves pairwise
    independence for any threshold.
    """
    x = _values_of(x_star)
    if not np.all(np.abs(x) == 1.0):
        raise DomainError("reference assignment must be +-1")
    rng = np.random.default_rng(seed)
    correct = _uniforms(len(x), rng, independence) < 0.5 + epsilon
    return NoisyPrediction(y=np.where(correct, x, -x), epsilon=float(epsilon))


def sample_partial(x_star, epsilon, seed, independence=MUTUAL) -> PartialPrediction:
    """Draw a partial prediction of x_star with reveal rate epsilon."""
    x = _values_of(x_star)
    if not np.all(np.abs(x) == 1.0):
        raise DomainError("reference assignment must be +-1")
    rng = np.random.default_rng(seed)
    revealed = _uniforms(len(x), rng, independence) < epsilon
    return PartialPrediction(y=np.where(revealed, x, 0.0), epsilon=float(epsilon))


def scaled_prediction(y: NoisyPrediction) -> np.ndarray:
    """Z = Y / (2 eps), the unbiased estimate of the reference labels."""
    return y.y / (2.0 * y.epsilon)


def bias_grid(resolution: int):
    """Evenly spaced bias guesses {k / (2 resolution)} strictly inside (0, 1/2).

    Used to sweep an unknown epsilon and keep the best resulting cut.
    """
    if resolution < 2:
        raise ParameterError(f"resolution must be >= 2, got {resolution}")
    return [k / (2.0 * resolution) for k in range(1, resolution)]


def save_prediction(pred) -> str:
    """Serialize: header "n model epsilon", then one label per line."""
    if isinstance(pred, NoisyPrediction):
        model = "noisy"
    elif isinstance(pred, PartialPrediction):
        model = "partial"
    else:
        raise DomainError(f"cannot serialize {type(pred).__name__}")
    lines = [f"{len(pred)} {model} {pred.epsilon!r}"]
    for v in pred.y:
        lines.append("+1" if v > 0 else ("-1" if v < 0 else "0"))
    return "\n".join(lines) + "\n"


def _labels(rows, allowed):
    """The label of each one-field row, which must be a token in `allowed`, as floats."""
    vals = np.empty(len(rows))
    for k, (ln, fields) in enumerate(rows):
        tok = " ".join(fields)
        if tok not in allowed:
            raise ParseError(f"bad label {tok!r}", line=ln)
        vals[k] = float(tok)
    return vals


def load_prediction(text: str):
    """Parse the prediction file format back into a prediction object.

    Blank lines and lines starting with '#' (after indentation) are
    skipped; a ParseError names the line's number in the file, and a bias
    the prediction refuses is reported on the header line.
    """
    (header, head), *rows = _records(text)
    n, model, eps = _typed(head, (int, str, float), "header 'n model epsilon'", header)
    if model not in ("noisy", "partial"):
        raise ParseError(f"unknown model {model!r}", line=header)
    if len(rows) != n:
        raise ParseError(f"expected {n} label lines, found {len(rows)}", line=header)
    vals = _labels(rows, ("+1", "1", "-1", "0"))
    if model == "noisy" and not vals.all():
        raise ParseError("noisy predictions cannot contain 0 labels",
                         line=rows[np.flatnonzero(vals == 0)[0]][0])
    with _file_lines(header, rows):
        if model == "noisy":
            return NoisyPrediction(y=vals, epsilon=eps)
        return PartialPrediction(y=vals, epsilon=eps)
