"""Wide-graph solver driven by noisy predictions.

Pipeline: estimate each wide vertex's neighborhood imbalance from the
prediction through the prefix-truncated adjacency, solve the box LP
    min <r_hat, x>  s.t.  ||r_hat - Ax||_1 <= (eps' + 2 eta) W,
then round the fractional solution, either by keeping the best of
O(1/eta) independent randomized roundings or by one deterministic
coordinate (pipage) pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .graph import (CutAssignment, Graph, best_cut, check_delta, truncated_adjacency,
                    wide_mask, _values_of)
from .lp import AbsSumLp, LpGroup, LpSolution, solve as lp_solve
from .predictions import NoisyPrediction, _check_length
from .sdp import solve_gw
from .seeds import derive

REPEAT = "repeat"
PIPAGE = "pipage"


@dataclass(frozen=True)
class ImbalanceEstimate:
    """Estimated neighborhood imbalances, zero on narrow vertices."""

    r_hat: np.ndarray
    delta: int
    epsilon: float
    eta: float
    wide_mask: np.ndarray

    @property
    def wide_set(self):
        return np.nonzero(self.wide_mask)[0]


def rounding_trials(eta: float) -> int:
    """Number of independent roundings matching the 0.99 success analysis."""
    if not (0.0 < eta):
        raise ParameterError(f"eta must be positive, got {eta}")
    return math.ceil(math.log(100.0) / math.log1p(eta / 2.0))


def estimate_imbalance(g: Graph, y: NoisyPrediction, delta: int, eta: float) -> ImbalanceEstimate:
    """r_hat_i = (A~ Y)_i / (2 eps) on wide vertices, 0 on narrow ones.

    The wide/narrow marking uses the eta the caller carries, which here may
    go up to 1 (unlike the graph-level classification contract).
    """
    _check_length(y, g.n)
    if not (0.0 < eta < 1.0):
        raise ParameterError(f"eta must lie in (0, 1), got {eta}")
    check_delta(delta)
    wide = wide_mask(g.prefix_order.prefix_weights(delta), g.weighted_degrees, eta)
    At = truncated_adjacency(g, delta)
    r_hat = (At @ y.y) / (2.0 * y.epsilon)
    r_hat[~wide] = 0.0
    return ImbalanceEstimate(r_hat=r_hat, delta=int(delta), epsilon=y.epsilon,
                             eta=float(eta), wide_mask=wide)


def build_wide_lp(g: Graph, est: ImbalanceEstimate, eps_prime: float, eta: float) -> AbsSumLp:
    """LP whose single group bounds sum_i |r_hat_i - (Ax)_i| by (eps'+2 eta) W."""
    budget = (eps_prime + 2.0 * eta) * g.total_weight
    group = LpGroup(coeffs=-g.csr, offsets=est.r_hat, budget=budget)
    return AbsSumLp(objective=est.r_hat, groups=[group])


def draw_roundings(x_hat, eta: float, seed) -> np.ndarray:
    """rounding_trials(eta) independent rows with Pr[X_i = +1] = (1 + x_hat_i)/2."""
    U = np.random.default_rng(seed).random((rounding_trials(eta), len(x_hat)))
    return np.where(U < (1.0 + x_hat) / 2.0, 1.0, -1.0)


def randomized_round_best(g: Graph, x_hat, eta: float, seed) -> CutAssignment:
    """Best of T independent roundings with Pr[X_i = +1] = (1 + x_hat_i)/2.

    "Best" minimizes <X, AX>, i.e. maximizes the cut. Deterministic given
    the seed; ties keep the earliest rounding.
    """
    X = draw_roundings(_values_of(x_hat, g.n), eta, seed)
    quad = np.einsum("it,ti->t", g.csr @ X.T, X)
    best = int(np.argmin(quad))
    return CutAssignment(values=X[best])


def pipage_round(g: Graph, x_hat) -> CutAssignment:
    """Deterministic coordinate rounding that never decreases the objective.

    <x, Ax> is affine in each coordinate (zero diagonal), so each fractional
    x_i, in index order, moves to the endpoint minimizing it: -1 if the
    computed row value sum_j A_ij x_j (row i's stored entries, in stored
    order) is > 0, else +1. A row value that is 0 in real arithmetic can
    come out as a rounding residue of either sign (such as +-5.6e-17), so
    values up to 1e-12 * sum_j |A_ij x_j| count as ties and go to +1.
    Coordinates already at +-1 stay put.
    """
    x = _values_of(x_hat, g.n).copy()
    A = g.csr
    for i in range(g.n):
        if x[i] == 1.0 or x[i] == -1.0:
            continue
        row = slice(A.indptr[i], A.indptr[i + 1])
        w, xj = A.data[row], x[A.indices[row]]
        x[i] = -1.0 if w @ xj > 1e-12 * (np.abs(w) @ np.abs(xj)) else 1.0
    return CutAssignment(values=x)


def wide_lp_cut(g: Graph, y: NoisyPrediction, delta: int, eta: float, eps_prime: float,
                rounding: str = REPEAT, seed=0):
    """The rounded LP cut of the wide-graph pipeline, or None if the LP is infeasible."""
    if rounding not in (REPEAT, PIPAGE):
        raise ParameterError(f"unknown rounding mode {rounding!r}")
    est = estimate_imbalance(g, y, delta, eta)
    lp = build_wide_lp(g, est, eps_prime, eta)
    sol: LpSolution = lp_solve(lp)
    if not sol.optimal:
        return None
    x_hat = np.clip(sol.x, -1.0, 1.0)
    if rounding == PIPAGE:
        return pipage_round(g, x_hat)
    return randomized_round_best(g, x_hat, eta, seed)


def solve_wide(g: Graph, y: NoisyPrediction, delta: int, eta: float, eps_prime: float,
               rounding: str = REPEAT, seed=0) -> CutAssignment:
    """Full wide-graph pipeline (wide_lp_cut); falls back to the better of the
    raw prediction and a GW rounding if the LP comes back infeasible."""
    cut = wide_lp_cut(g, y, delta, eta, eps_prime, rounding, seed)
    if cut is None:
        return best_cut(g, (CutAssignment(values=y.y.copy()),
                            solve_gw(g, derive(seed, 1), derive(seed, 2), 20)))
    return cut
