"""Solvers for partial (revealed-label) predictions.

Both solvers pin the revealed vertices to +-v_0 inside the relaxation.
The GW variant hyperplane-rounds the label-fixed SDP. The
marginal-preserving variant additionally guesses, over a grid of
thresholds tau, how much objective the edges touching revealed vertices
must contribute, constrains the SDP accordingly, threshold-rounds, and
keeps the best cut over the whole grid.

Every revealed edge has a pinned end, so the revealed edges' contribution
is separable in x_j = <v_0, v_j> over the free vertices j, and its exact
maximum over the pinned relaxation has a closed form
(revealed_edge_maximum). The sweep solves no tau above that maximum plus
the feasibility tolerance: no multiplier can reach it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .graph import CutAssignment, Graph, best_cut
from .predictions import PartialPrediction, _check_length
from .sdp import SUBSET_TOL_FRAC, SubsetLadder, rt_round, solve_gw
from .seeds import derive

DEFAULT_TAU_STEP = 0.05
ROUNDING_FRAC = 1e-9      # bounds the rounding of a computed contribution, times max(W, 1)


@dataclass(frozen=True)
class TauGrid:
    """Guessed subset-contribution thresholds {0, step*W, ..., W}."""

    step: float
    values: np.ndarray

    @classmethod
    def for_graph(cls, g: Graph, step: float = DEFAULT_TAU_STEP):
        # closer points lie inside solve_sdp's feasibility tolerance, 1e-4 * max(W, 1)
        if not (SUBSET_TOL_FRAC <= step <= 1.0):
            raise ParameterError(f"tau step must lie in [{SUBSET_TOL_FRAC}, 1], got {step}")
        W = g.total_weight
        ks = int(np.floor(1.0 / step + 1e-12))
        vals = np.array([k * step * W for k in range(ks + 1)])
        if vals[-1] < W - 1e-12 * max(W, 1.0):
            vals = np.append(vals, W)
        vals = np.minimum(vals, W)
        return cls(step=float(step), values=vals)


def revealed_edge_set(g: Graph, y: PartialPrediction) -> np.ndarray:
    """Indices of edges with at least one revealed endpoint."""
    _check_length(y, g.n)
    rev = y.revealed
    return np.nonzero(rev[g.edge_i] | rev[g.edge_j])[0]


def revealed_edge_maximum(g: Graph, y: PartialPrediction) -> float:
    """The revealed edges' largest contribution sum w (1 - <v_i, v_j>)/2 with v_i = y_i v_0 at pins.

    An edge between two pins contributes w [y_i != y_j] whatever the other
    vectors are. An edge from a free j to a pin i contributes
    w (1 - y_i x_j)/2, x_j = <v_0, v_j> in [-1, 1], so j's edges to pins
    contribute (W_j+ + W_j-)/2 - x_j (W_j+ - W_j-)/2, W_j+- being j's weight
    to pins labelled +-1. That is at most max(W_j+, W_j-), reached at
    x_j = -1 or +1, so the maximum is also the best pin-consistent cut's
    value on the revealed edges.
    """
    sub = revealed_edge_set(g, y)
    i, j, w = g.edge_i[sub], g.edge_j[sub], g.edge_w[sub]
    yi, yj = y.y[i], y.y[j]
    one = yi * yj == 0                      # one pinned end
    end = np.where(yi == 0, i, j)[one]
    label = (yi + yj)[one]
    to_plus = np.bincount(end, w[one] * (label > 0), minlength=g.n)
    to_minus = np.bincount(end, w[one] * (label < 0), minlength=g.n)
    return float(np.sum(w[yi * yj < 0])) + float(np.sum(np.maximum(to_plus, to_minus)))


def _pins_of(y: PartialPrediction) -> dict:
    return {int(i): float(y.y[i]) for i in y.revealed_set}


def solve_partial_gw(g: Graph, y: PartialPrediction, seed=0, roundings: int = 20) -> CutAssignment:
    """Label-fixed SDP plus best-of hyperplane roundings."""
    _check_length(y, g.n)
    return solve_gw(g, derive(seed, 0), derive(seed, 1), roundings, pins=_pins_of(y))


def solve_partial_rt(g: Graph, y: PartialPrediction, tau_grid: TauGrid = None,
                     seed=0, roundings: int = 20) -> CutAssignment:
    """Threshold-constrained SDP with marginal-preserving rounding.

    Infeasible grid points are skipped (tau = 0 is always feasible); ties
    between equal cuts keep the smaller tau, then the smaller draw index.
    Every grid point shares one seed, pin set and subset, and so one
    multiplier ladder (see SubsetLadder): each rung is solved once for the
    whole grid. Feasibility is monotone in tau, so once a tau is found
    infeasible, every tau at or above it is skipped without a solve. A tau
    above revealed_edge_maximum, plus solve_sdp's feasibility tolerance
    1e-4 * max(W, 1) and ROUNDING_FRAC * max(W, 1) for the rounding of the
    computed contribution, is skipped without a solve as well: no solve can
    meet it, so skipping it leaves the cut as it is. A direct solve_sdp or
    SubsetLadder.solve call at such a tau still climbs every rung.
    """
    if roundings < 1:
        raise ParameterError(f"roundings must be >= 1, got {roundings}")
    grid = tau_grid or TauGrid.for_graph(g)
    subset = revealed_edge_set(g, y)
    reach = (revealed_edge_maximum(g, y)
             + (SUBSET_TOL_FRAC + ROUNDING_FRAC) * max(g.total_weight, 1.0))
    ladder = SubsetLadder(g, subset, _pins_of(y), derive(seed, 0))

    def grid_roundings():
        unreachable = np.inf
        for t_idx, tau in enumerate(grid.values):
            if tau >= unreachable or tau > reach:
                continue
            sol = ladder.solve(tau)
            if not sol.feasible_at_tau:
                unreachable = tau
                continue
            for r in range(roundings):
                yield rt_round(sol, derive(seed, 1, t_idx, r))

    return best_cut(g, grid_roundings())
