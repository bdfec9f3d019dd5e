"""Dispatching solver for noisy predictions.

Classifies the graph at delta = ceil(c_delta / (eps eps')^2), runs the
wide or narrow specialist accordingly, always also runs plain GW rounding
and the raw prediction as candidate cuts, and returns the best. The
result can only improve on any of its candidates.
"""

from __future__ import annotations

import math

from .errors import ParameterError
from .graph import CutAssignment, Graph, best_cut, classify
from .narrow import solve_narrow
from .predictions import NoisyPrediction, _check_length
from .sdp import solve_gw
from .seeds import derive
from .wide import REPEAT, wide_lp_cut


def choose_delta(epsilon: float, eps_prime: float, c_delta: float = 1.0) -> int:
    """delta = ceil(c_delta / (eps * eps')^2); c_delta tunes the constant. All must be finite."""
    for name, value in (("epsilon", epsilon), ("eps_prime", eps_prime), ("c_delta", c_delta)):
        if not value > 0:
            raise ParameterError(f"{name} must be positive, got {value}")
        if value == math.inf:
            raise ParameterError(f"{name} must be finite, got {value}")
    try:
        return max(1, math.ceil(c_delta / (epsilon * eps_prime) ** 2))
    except (ZeroDivisionError, OverflowError):
        raise ParameterError("c_delta / (epsilon * eps_prime)^2 is out of float range") from None


def solve_noisy(g: Graph, y: NoisyPrediction, eta: float = 0.05, eps_prime: float = 0.05,
                c_delta: float = 1.0, seed=0, rounding: str = REPEAT,
                narrow_restarts: int = 20, gw_roundings: int = 20):
    """Best cut over {dispatched specialist, GW, raw prediction}.

    Returns (cut, tag) where tag names the winning branch; ties resolve by
    the fixed priority wide > narrow > gw > prediction. A wide graph whose
    LP comes back infeasible adds no wide candidate, since GW and the
    prediction are candidates already. A narrow graph above
    sdp.TRIANGLE_LIMIT vertices raises ParameterError, and a prediction of
    the wrong length DimensionError, before any solve.
    """
    _check_length(y, g.n)
    delta = choose_delta(y.epsilon, eps_prime, c_delta)
    report = classify(g, delta, eta)
    candidates = {}
    if report.is_wide:
        wide = wide_lp_cut(g, y, delta, eta, eps_prime, rounding=rounding, seed=derive(seed, 0))
        if wide is not None:
            candidates["wide"] = wide
    else:
        candidates["narrow"] = solve_narrow(g, delta, eta, seed=derive(seed, 1),
                                            restarts=narrow_restarts)
    candidates["gw"] = solve_gw(g, derive(seed, 2), derive(seed, 3), gw_roundings)
    candidates["prediction"] = CutAssignment(values=y.y.copy())
    # insertion order is the tie priority
    best = best_cut(g, candidates.values())
    return best, next(tag for tag, cut in candidates.items() if cut is best)
