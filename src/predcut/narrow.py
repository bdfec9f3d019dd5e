"""Narrow-graph solver: triangle SDP, hyperplane rounding, local flips.

After rounding against a Gaussian direction g, vertices whose vectors lie
in the thin band |<v_i, g>| <= delta_band are re-examined: splitting the
other vertices into same-side (B), other-side (C) and band (D) neighbors,
every band vertex with w(B) > w(C) + w(D) is flipped simultaneously, which
can only increase the cut. Predictions are not used on this path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, ParameterError
from .graph import CutAssignment, Graph, _best_until, _values_of, cut_value
from .sdp import SdpConfig, SdpSolution, _cut_goal, solve_sdp
from .seeds import derive


@dataclass(frozen=True)
class FlipReport:
    """Band membership, per-vertex partition weights, and the realized gain."""

    delta_band: float
    in_band: np.ndarray        # bool per vertex: i in F
    flipped: np.ndarray        # bool per vertex: i in F'
    same_side_weight: np.ndarray    # w(B_i)
    other_side_weight: np.ndarray   # w(C_i)
    band_weight: np.ndarray         # w(D_i)
    gain: float

    @property
    def band_set(self):
        return np.nonzero(self.in_band)[0]

    @property
    def flipped_set(self):
        return np.nonzero(self.flipped)[0]


def fkl_band_width(delta: float, eta: float) -> float:
    """Band half-width 1 / (d sqrt(log d)) with d = delta / eta^2.

    d is clamped up to 3 so the formula stays defined.
    """
    if delta <= 0:
        raise ParameterError(f"delta must be positive, got {delta}")
    if not (0.0 < eta <= 1.0):
        raise ParameterError(f"eta must lie in (0, 1], got {eta}")
    d = max(delta / (eta * eta), 3.0)
    return 1.0 / (d * math.sqrt(math.log(d)))


def flip_step(g: Graph, x_hat, sol: SdpSolution, gvec, delta_band: float):
    """Flip the profitable band vertices; returns (new cut, FlipReport).

    x_hat must be the sign rounding of sol against the same direction gvec.
    """
    x = _values_of(x_hat, g.n)
    gvec = np.asarray(gvec, dtype=np.float64)
    proj = sol.vertex_vectors @ gvec
    expected = np.where(proj > 0, 1.0, -1.0)
    if not np.array_equal(expected, x):
        raise ContractViolationError("assignment is not the rounding of the given direction")
    in_band = np.abs(proj) <= delta_band
    new_x, flipped, same, other, band_w = _band_flips(g, x, in_band)
    report = FlipReport(
        delta_band=float(delta_band),
        in_band=in_band,
        flipped=flipped,
        same_side_weight=same,
        other_side_weight=other,
        band_weight=band_w,
        gain=cut_value(g, new_x) - cut_value(g, x),
    )
    return CutAssignment(values=new_x), report


def _band_flips(g: Graph, x, in_band):
    """flip_step's arithmetic on the cut x: (new x, flipped, w(B), w(C), w(D)) per vertex."""
    A = g.csr
    out = ~in_band
    plus_out = A @ (out & (x > 0)).astype(np.float64)
    minus_out = A @ (out & (x < 0)).astype(np.float64)
    band_w = A @ in_band.astype(np.float64)
    same = np.where(x > 0, plus_out, minus_out)
    other = np.where(x > 0, minus_out, plus_out)
    # A has zero diagonal, so j = i never contributes to any of the three
    flipped = in_band & (same > other + band_w)
    return np.where(flipped, -x, x), flipped, same, other, band_w


def solve_narrow(g: Graph, delta: float, eta: float, seed=0, restarts: int = 20) -> CutAssignment:
    """Triangle SDP once, then best cut over rounding + flip restarts.

    A restart projects the vectors on its direction once and takes the
    rounding and flip_step's flips from that projection, with no contract
    check; with no vertex in the band it keeps the rounding as it is. The
    restarts stop at the first cut that reaches the goal of the triangle
    solve's `bound` (integer weights only, sdp._cut_goal): that cut is a
    maximum cut, so it is also the earliest best of all the restarts.
    """
    return _narrow_cut(g, delta, eta, seed, restarts)[0]


def _narrow_cut(g: Graph, delta, eta, seed, restarts):
    """solve_narrow's cut and the goal it was held to; a cut at the goal is a maximum cut."""
    if restarts < 1:
        raise ParameterError(f"restarts must be >= 1, got {restarts}")
    band = fkl_band_width(delta, eta)
    sol = solve_sdp(g, SdpConfig(triangle=True, seed=derive(seed, 0)))
    V = sol.vertex_vectors
    goal = _cut_goal(g, sol.feasibility_report.get("bound", math.inf))

    def restart(r):
        proj = V @ np.random.default_rng(derive(seed, 1, r)).standard_normal(sol.dim)
        x = np.where(proj > 0, 1.0, -1.0)
        in_band = np.abs(proj) <= band
        if in_band.any():
            x = _band_flips(g, x, in_band)[0]
        return CutAssignment(values=x)

    return _best_until(g, (restart(r) for r in range(restarts)), goal), goal
