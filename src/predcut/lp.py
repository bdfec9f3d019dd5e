"""Box-constrained linear programs with grouped absolute-value budgets.

Minimize <c, x> over x in [-1, 1]^n subject to, for each group t,
sum_k |<g_k, x> + h_k| <= B_t. Each absolute value is linearized with one
slack s_k >= +-(<g_k, x> + h_k) and each group adds sum_k s_k <= B_t; the
resulting standard-form LP goes to scipy's HiGHS backend. The contract is
the tolerance pair (1e-7 feasibility, 1e-6 relative optimality), not the
method. The objective is normalized by its largest magnitude before
solving, so rescaling c by a positive constant cannot change the argmin.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

from .errors import DimensionError, ParameterError, PredcutError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"

FEAS_TOL = 1e-7
OPT_TOL = 1e-6


@dataclass(frozen=True)
class LpGroup:
    """Affine forms <g_k, x> + h_k sharing one absolute-value budget."""

    coeffs: np.ndarray   # (K, n) rows g_k
    offsets: np.ndarray  # (K,) entries h_k
    budget: float

    def __post_init__(self):
        coeffs = np.atleast_2d(np.asarray(self.coeffs, dtype=np.float64))
        offsets = np.atleast_1d(np.asarray(self.offsets, dtype=np.float64))
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "offsets", offsets)
        if coeffs.shape[0] != offsets.shape[0]:
            raise DimensionError("one offset per affine form required")
        if coeffs.shape[0] == 0:
            raise ParameterError("groups must contain at least one form")
        if self.budget < 0:
            raise ParameterError(f"group budget must be >= 0, got {self.budget}")


@dataclass(frozen=True)
class AbsSumLp:
    """min <c, x> over the box, s.t. per-group absolute-sum budgets."""

    objective: np.ndarray
    groups: list = field(default_factory=list)

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=np.float64)
        object.__setattr__(self, "objective", c)
        for grp in self.groups:
            if grp.coeffs.shape[1] != c.shape[0]:
                raise DimensionError("group coefficient width must match objective length")

    @property
    def n(self):
        return self.objective.shape[0]


@dataclass(frozen=True)
class LpSolution:
    x: np.ndarray
    objective_value: float
    status: str

    @property
    def optimal(self):
        return self.status == OPTIMAL


def check_feasibility(lp: AbsSumLp, x) -> float:
    """Worst constraint violation of x (box overrun or group budget excess)."""
    x = np.asarray(x, dtype=np.float64)
    worst = float(np.max(np.abs(x)) - 1.0) if len(x) else 0.0
    for grp in lp.groups:
        total = float(np.abs(grp.coeffs @ x + grp.offsets).sum())
        worst = max(worst, total - grp.budget)
    return worst


def solve(lp: AbsSumLp) -> LpSolution:
    """Solve the linearized LP; returns status infeasible when no x fits."""
    n = lp.n
    num_slacks = sum(grp.coeffs.shape[0] for grp in lp.groups)
    dim = n + num_slacks

    c = np.asarray(lp.objective, dtype=np.float64)
    scale = float(np.max(np.abs(c))) if c.size else 0.0
    c_norm = c / scale if scale > 0 else c

    c_full = np.zeros(dim)
    c_full[:n] = c_norm

    rows = []
    rhs = []
    offset = n
    for grp in lp.groups:
        K = grp.coeffs.shape[0]
        eye = np.zeros((K, num_slacks))
        eye[np.arange(K), np.arange(offset - n, offset - n + K)] = 1.0
        # s_k >= (g_k x + h_k)   ->   g_k x - s_k <= -h_k
        rows.append(np.hstack([grp.coeffs, -eye]))
        rhs.append(-grp.offsets)
        # s_k >= -(g_k x + h_k)  ->  -g_k x - s_k <= h_k
        rows.append(np.hstack([-grp.coeffs, -eye]))
        rhs.append(grp.offsets)
        # group budget
        row = np.zeros(dim)
        row[offset:offset + K] = 1.0
        rows.append(row.reshape(1, -1))
        rhs.append(np.array([grp.budget]))
        offset += K
    if rows:
        A_ub = np.vstack(rows)
        b_ub = np.concatenate(rhs)
    else:
        A_ub = b_ub = None

    bounds = [(-1.0, 1.0)] * n
    for grp in lp.groups:
        bounds.extend([(0.0, grp.budget)] * grp.coeffs.shape[0])

    res = linprog(c_full, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if res.status == 2:
        return LpSolution(x=np.full(n, np.nan), objective_value=np.nan, status=INFEASIBLE)
    if res.status != 0:
        raise PredcutError(f"LP solver failed: {res.message}")
    x = np.asarray(res.x[:n], dtype=np.float64)
    return LpSolution(x=x, objective_value=float(c @ x), status=OPTIMAL)
