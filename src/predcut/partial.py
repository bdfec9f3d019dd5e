"""Solvers for partial (revealed-label) predictions.

Both solvers pin the revealed vertices to +-v_0 inside the relaxation.
The GW variant hyperplane-rounds the label-fixed SDP. The
marginal-preserving variant additionally guesses, over a grid of
thresholds tau, how much objective the edges touching revealed vertices
must contribute, constrains the SDP accordingly, threshold-rounds, and
keeps the best cut over the whole grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .graph import CutAssignment, Graph, cut_value
from .predictions import PartialPrediction
from .sdp import SdpConfig, hyperplane_round, rt_round, solve_sdp
from .seeds import derive

DEFAULT_TAU_STEP = 0.05


@dataclass(frozen=True)
class TauGrid:
    """Guessed subset-contribution thresholds {0, step*W, ..., W}."""

    step: float
    values: np.ndarray

    @classmethod
    def for_graph(cls, g: Graph, step: float = DEFAULT_TAU_STEP):
        if not (0.0 < step <= 1.0):
            raise ParameterError(f"tau step must lie in (0, 1], got {step}")
        W = g.total_weight
        ks = int(np.floor(1.0 / step + 1e-12))
        vals = np.array([k * step * W for k in range(ks + 1)])
        if len(vals) == 0 or vals[-1] < W - 1e-12 * max(W, 1.0):
            vals = np.append(vals, W)
        vals = np.minimum(vals, W)
        return cls(step=float(step), values=vals)


def revealed_edge_set(g: Graph, y: PartialPrediction) -> np.ndarray:
    """Indices of edges with at least one revealed endpoint."""
    if len(y) != g.n:
        raise ParameterError("prediction length does not match the graph")
    rev = y.revealed
    return np.nonzero(rev[g.edge_i] | rev[g.edge_j])[0]


def _pins_of(y: PartialPrediction) -> dict:
    return {int(i): float(y.y[i]) for i in y.revealed_set}


def _align_to_pins(x: CutAssignment, pins: dict) -> CutAssignment:
    """Global flip (free for the cut value) so pinned vertices match.

    All pins sit at +-v_0, so one flip aligns them all; only a rounding
    direction exactly orthogonal to v_0 (measure zero) needs the explicit
    fix-up at the end.
    """
    if not pins:
        return x
    v, s = next(iter(pins.items()))
    vals = -x.values if x.values[v] != s else x.values
    if any(vals[u] != t for u, t in pins.items()):
        vals = vals.copy()
        for u, t in pins.items():
            vals[u] = t
    return CutAssignment(values=vals)


def solve_partial_gw(g: Graph, y: PartialPrediction, seed=0, roundings: int = 20) -> CutAssignment:
    """Label-fixed SDP plus best-of hyperplane roundings."""
    if roundings < 1:
        raise ParameterError(f"roundings must be >= 1, got {roundings}")
    pins = _pins_of(y)
    sol = solve_sdp(g, SdpConfig(fixed_labels=pins, seed=derive(seed, 0)))
    best = None
    best_val = -np.inf
    for r in range(roundings):
        x = _align_to_pins(hyperplane_round(sol, derive(seed, 1, r)), pins)
        val = cut_value(g, x)
        if val > best_val:
            best_val = val
            best = x
    return best


def solve_partial_rt(g: Graph, y: PartialPrediction, tau_grid: TauGrid = None,
                     seed=0, roundings: int = 20) -> CutAssignment:
    """Threshold-constrained SDP with marginal-preserving rounding.

    Infeasible grid points are skipped (tau = 0 is always feasible); ties
    between equal cuts keep the smaller tau, then the smaller draw index.
    Every grid point shares one seed, pin set and subset, so feasibility is
    monotone in tau (see solve_sdp): once a tau is found infeasible, every
    tau at or above it is skipped without a solve.
    """
    if roundings < 1:
        raise ParameterError(f"roundings must be >= 1, got {roundings}")
    grid = tau_grid or TauGrid.for_graph(g)
    pins = _pins_of(y)
    subset = revealed_edge_set(g, y)
    best = None
    best_val = -np.inf
    unreachable = np.inf
    for t_idx, tau in enumerate(grid.values):
        if tau >= unreachable:
            continue
        cfg = SdpConfig(fixed_labels=pins, subset_constraint=(subset, float(tau)),
                        seed=derive(seed, 0))
        sol = solve_sdp(g, cfg)
        if not sol.feasible_at_tau:
            unreachable = tau
            continue
        for r in range(roundings):
            x = rt_round(sol, derive(seed, 1, t_idx, r))
            val = cut_value(g, x)
            if val > best_val:
                best_val = val
                best = x
    return best
