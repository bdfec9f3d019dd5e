"""Box-constrained linear programs with grouped absolute-value budgets.

Minimize <c, x> over x in [-1, 1]^n subject to, for each group t,
sum_k |<g_k, x> + h_k| <= B_t. Each absolute value is split in two: form k
becomes one equality row <g_k, x> + h_k = p_k - q_k with p_k, q_k in
[0, B_t], and group t adds one budget row sum_k (p_k + q_k) <= B_t. Any x
of the absolute-value model fits, with p_k and q_k the positive and
negative parts of its form, and p_k + q_k >= |<g_k, x> + h_k| always, so
both models allow the same x. Each g_k is stored once, in K + T rows; the
two-sided form s_k >= +-(<g_k, x> + h_k) stores it twice, in 2K + T rows.
On the bench's n = 1200 wide LP that is 1201 rows and 185,410 stored
entries against 2401 rows and 364,820.

Before any split LP is built, `solve` tries the box minimizer x_box: x_i =
-1 where c_i > 0, +1 where c_i < 0 and 0 where c_i = 0. No point of the
box has a lower objective, so when x_box fits every budget exactly (each
slack >= 0 in numpy, no tolerance) it is the optimum and is returned with
no solver call. HiGHS runs only when x_box overruns some budget (or
<c, x_box> is not finite).

The split LP goes to scipy's HiGHS backend with presolve off, since on
these box LPs presolve costs more time than it saves. Timed on the HiGHS
path, with the nine seed-0 LPs of the bench's `wide_lp` workload sent to
HiGHS (Intel Xeon, two runs), HiGHS took 1.5-1.9 s for the two-sided form
with presolve, 0.8-1.0 s for the split form with presolve, and 0.4-0.5 s
for the split form without it. Those nine LPs never reach HiGHS, since
x_box uses 6-22% of each budget.

A group stores its forms as one CSR matrix whether they come dense or as
any scipy.sparse matrix; the budget slacks and the HiGHS matrix, which
drops zero coefficients, read it, so the same coefficients give the same
LP either way. The contract is the tolerance pair (1e-7 feasibility on
HiGHS's own rows, 1e-6 relative optimality), not the method; the numpy
budget_slack of a HiGHS solution adds those rows' residuals and its own
rounding. The objective is normalized by its largest magnitude before
solving, so rescaling c by a positive constant cannot change the argmin.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from .errors import DimensionError, DomainError, ParameterError, PredcutError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"

FEAS_TOL = 1e-7
OPT_TOL = 1e-6


@dataclass(frozen=True)
class LpGroup:
    """Affine forms <g_k, x> + h_k sharing one absolute-value budget."""

    coeffs: sp.csr_matrix  # (K, n) rows g_k, stored as CSR whether given dense or sparse
    offsets: np.ndarray    # (K,) entries h_k
    budget: float

    def __post_init__(self):
        given = self.coeffs if sp.issparse(self.coeffs) else np.atleast_2d(self.coeffs)
        coeffs = sp.csr_matrix(given, dtype=np.float64)
        offsets = np.atleast_1d(np.asarray(self.offsets, dtype=np.float64))
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "offsets", offsets)
        if coeffs.shape[0] != offsets.shape[0]:
            raise DimensionError("one offset per affine form required")
        if coeffs.shape[0] == 0:
            raise ParameterError("groups must contain at least one form")
        if not np.isfinite(coeffs.data).all():
            raise DomainError("group coefficients must be finite")
        if not np.isfinite(offsets).all():
            raise DomainError("group offsets must be finite")
        if not 0 <= self.budget < np.inf:
            raise ParameterError(f"group budget must be finite and >= 0, got {self.budget}")


@dataclass(frozen=True)
class AbsSumLp:
    """min <c, x> over the box, s.t. per-group absolute-sum budgets."""

    objective: np.ndarray
    groups: list = field(default_factory=list)

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=np.float64)
        object.__setattr__(self, "objective", c)
        if not np.isfinite(c).all():
            raise DomainError("LP objective must be finite")
        for grp in self.groups:
            if grp.coeffs.shape[1] != c.shape[0]:
                raise DimensionError("group coefficient width must match objective length")

    @property
    def n(self):
        return self.objective.shape[0]


@dataclass(frozen=True)
class LpSolution:
    """x and <c, x>; `budget_slack` holds B_t - sum_k |<g_k, x> + h_k| per
    group, evaluated in numpy as `check_feasibility` does (() when infeasible)."""

    x: np.ndarray
    objective_value: float
    status: str
    budget_slack: tuple = ()

    @property
    def optimal(self):
        return self.status == OPTIMAL


def check_feasibility(lp: AbsSumLp, x) -> float:
    """Worst constraint violation of x (box overrun or group budget excess)."""
    x = np.asarray(x, dtype=np.float64)
    worst = float(np.max(np.abs(x)) - 1.0) if len(x) else 0.0
    return max([worst] + [-slack for slack in _budget_slack(lp, x)])


def _budget_slack(lp: AbsSumLp, x) -> tuple:
    """B_t - sum_k |<g_k, x> + h_k| for each group t."""
    return tuple(grp.budget - float(np.abs(grp.coeffs @ x + grp.offsets).sum())
                 for grp in lp.groups)


def solve(lp: AbsSumLp) -> LpSolution:
    """Solve the LP; returns status infeasible when no x fits.

    The box minimizer x_box is tried first (see the module docstring).
    Every x in the box has <c, x> >= -sum_i |c_i| = <c, x_box> and every
    feasible x lies in the box, so an x_box that fits every budget is
    optimal. With n = 0 the only x is the empty x_box: it is returned, with
    objective 0.0, when every group's constant forms fit its budget
    exactly, and otherwise HiGHS decides within its feasibility tolerance.
    """
    n = lp.n
    c = lp.objective
    x_box = np.zeros(n)
    x_box[c > 0] = -1.0
    x_box[c < 0] = 1.0
    box_value = float(c @ x_box)
    if np.isfinite(box_value):
        slack = _budget_slack(lp, x_box)
        if all(s >= 0 for s in slack):
            return LpSolution(x=x_box, objective_value=box_value, status=OPTIMAL,
                              budget_slack=slack)
    sizes = [grp.coeffs.shape[0] for grp in lp.groups]
    budgets = np.array([grp.budget for grp in lp.groups], dtype=np.float64)
    K = sum(sizes)

    scale = float(np.max(np.abs(c))) if c.size else 0.0
    c_full = np.zeros(n + 2 * K)
    c_full[:n] = c / scale if scale > 0 else c

    A_ub = b_ub = A_eq = b_eq = None
    if lp.groups:
        # g_k x + h_k = p_k - q_k   ->   g_k x - p_k + q_k = -h_k
        G = sp.vstack([grp.coeffs for grp in lp.groups])
        eye = sp.eye(K, format="csr")
        A_eq = sp.hstack([G, -eye, eye], format="csr")
        A_eq.eliminate_zeros()
        b_eq = -np.concatenate([grp.offsets for grp in lp.groups])
        # group budget: sum_k p_k + q_k <= B_t over the group's forms
        member = sp.csr_matrix((np.ones(K), np.arange(K), np.cumsum([0] + sizes)),
                               shape=(len(sizes), K))
        A_ub = sp.hstack([sp.csr_matrix((len(sizes), n)), member, member], format="csr")
        b_ub = budgets

    bounds = np.zeros((n + 2 * K, 2))
    bounds[:n] = (-1.0, 1.0)
    bounds[n:, 1] = np.tile(np.repeat(budgets, sizes), 2)

    res = linprog(c_full, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds,
                  method="highs", options={"presolve": False})
    if res.status == 2:
        return LpSolution(x=np.full(n, np.nan), objective_value=np.nan, status=INFEASIBLE)
    if res.status != 0:
        raise PredcutError(f"LP solver failed: {res.message}")
    x = np.asarray(res.x[:n], dtype=np.float64)
    return LpSolution(x=x, objective_value=float(c @ x), status=OPTIMAL,
                      budget_slack=_budget_slack(lp, x))
