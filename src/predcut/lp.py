"""Box-constrained linear programs with grouped absolute-value budgets.

Minimize <c, x> over x in [-1, 1]^n subject to, for each group t,
sum_k |<g_k, x> + h_k| <= B_t. Each absolute value is linearized with one
slack s_k >= +-(<g_k, x> + h_k) and each group adds sum_k s_k <= B_t; the
resulting standard-form LP goes to scipy's HiGHS backend. A group's forms
may be a dense array or a scipy.sparse matrix (held as CSR); either way the
constraint matrix is assembled sparse, with the zero coefficients dropped,
so HiGHS receives the same matrix for the same coefficients. The contract is
the tolerance pair (1e-7 feasibility, 1e-6 relative optimality), not the
method. The objective is normalized by its largest magnitude before
solving, so rescaling c by a positive constant cannot change the argmin.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from .errors import DimensionError, ParameterError, PredcutError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"

FEAS_TOL = 1e-7
OPT_TOL = 1e-6


@dataclass(frozen=True)
class LpGroup:
    """Affine forms <g_k, x> + h_k sharing one absolute-value budget."""

    coeffs: object       # (K, n) rows g_k: a dense array, or CSR if given sparse
    offsets: np.ndarray  # (K,) entries h_k
    budget: float

    def __post_init__(self):
        if sp.issparse(self.coeffs):
            coeffs = sp.csr_matrix(self.coeffs, dtype=np.float64)
        else:
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
    """Worst constraint violation of x (box overrun or group budget excess).

    Forms are evaluated through the CSR form of coeffs, so dense coeffs and
    the same coefficients given sparse give the same value.
    """
    x = np.asarray(x, dtype=np.float64)
    worst = float(np.max(np.abs(x)) - 1.0) if len(x) else 0.0
    for grp in lp.groups:
        total = float(np.abs(sp.csr_matrix(grp.coeffs) @ x + grp.offsets).sum())
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

    blocks = []
    rhs = []
    start = 0       # first slack of the group, counted from column n
    for grp in lp.groups:
        K = grp.coeffs.shape[0]
        G = sp.csr_matrix(grp.coeffs)
        S = sp.eye(K, num_slacks, k=start, format="csr")     # the group's slacks
        # s_k >= (g_k x + h_k)   ->   g_k x - s_k <= -h_k
        blocks.append(sp.hstack([G, -S]))
        rhs.append(-grp.offsets)
        # s_k >= -(g_k x + h_k)  ->  -g_k x - s_k <= h_k
        blocks.append(sp.hstack([-G, -S]))
        rhs.append(grp.offsets)
        # group budget
        blocks.append(sp.csr_matrix((np.ones(K), n + start + np.arange(K), [0, K]),
                                    shape=(1, dim)))
        rhs.append(np.array([grp.budget]))
        start += K
    if blocks:
        A_ub = sp.vstack(blocks, format="csr")
        A_ub.eliminate_zeros()
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
