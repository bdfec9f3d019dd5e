"""Binary CSP instances with predicate Fourier expansions.

A constraint (w, c, alpha) asks P(c_1 x_{alpha(1)}, c_2 x_{alpha(2)}) = 1
for a 0/1 predicate P on {-1,+1}^2; val(x) is the weight-normalized
satisfied mass. A Predicate holds its truth table only; P expands exactly
as the degree-2 multilinear polynomial
    P(z1, z2) = f0 + f1 z1 + f2 z2 + f12 z1 z2
with coefficients that are multiples of 1/4.

A CspInstance holds each constraint once, as arrays, and derives from
them the layout the solvers read: every raw constraint in both
orientations (anchored at each endpoint, full weight, coefficients
transposed for the swapped copy), so the instance weight W doubles the raw
total, per-literal constraint sets S_i cover every occurrence, and val is
unchanged, including for asymmetric predicates. MaxCut encodings then
satisfy csp_value * W = 2 * cut_value exactly.

The wide LP reads each literal's delta-prefix from the PrefixOrder rank
that classifies graph vertices, and lays out all its forms with one sort
of the oriented entries (see `build_csp_lp`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import DimensionError, DomainError, ParameterError, ParseError
from .graph import (CutAssignment, Graph, PrefixOrder, WideNarrowReport, check_delta,
                    wide_narrow_report, _file_lines, _ids, _malformed, _records, _refuse_rows,
                    _typed, _values_of)
from .lp import AbsSumLp, LpGroup, solve as lp_solve
from .predictions import NoisyPrediction, _check_length, scaled_prediction
from .wide import draw_roundings

# evaluation order of the four truth-table entries in compact forms
TABLE_ORDER = ((1, 1), (1, -1), (-1, 1), (-1, -1))
# chi_S(z) for S = {}, {1}, {2}, {1, 2} (columns) at each z in TABLE_ORDER (rows)
CHARACTERS = np.array([(1, z1, z2, z1 * z2) for z1, z2 in TABLE_ORDER])


@dataclass(frozen=True)
class Predicate:
    """0/1 predicate on {-1,+1}^2, stored as its truth table: P(z) for z in TABLE_ORDER."""

    table: tuple

    def __post_init__(self):
        table = tuple(int(v) for v in self.table)
        if len(table) != 4 or not set(table) <= {0, 1}:
            raise DomainError(f"a truth table is 4 values of 0 or 1, got {self.table!r}")
        object.__setattr__(self, "table", table)

    def value(self, z1: int, z2: int) -> int:
        return self.table[TABLE_ORDER.index((int(z1), int(z2)))]

    def value_fourier(self, z1: float, z2: float) -> float:
        f0, f1, f2, f12 = self.fourier
        return f0 + f1 * z1 + f2 * z2 + f12 * z1 * z2

    @property
    def fourier(self):
        """(f0, f1, f2, f12) with f(S) = (1/4) sum_z P(z) chi_S(z), exact multiples of 1/4."""
        return tuple((np.array(self.table) @ CHARACTERS / 4.0).tolist())


def fourier_expand(truth_table) -> Predicate:
    """Predicate with coefficients f(S) = (1/4) sum_z P(z) chi_S(z).

    truth_table is a dict over {-1,+1}^2 pairs or a 4-sequence in the order
    (+1,+1), (+1,-1), (-1,+1), (-1,-1).
    """
    if isinstance(truth_table, dict):
        table = {(int(a), int(b)): v for (a, b), v in truth_table.items()}
        if set(table) != set(TABLE_ORDER):
            raise DomainError("truth table must cover all four +-1 input pairs")
        truth_table = [table[z] for z in TABLE_ORDER]
    return Predicate(truth_table)


def predicate_from_bits(bits: str) -> Predicate:
    """Predicate from 4 bits ordered as TABLE_ORDER, e.g. "0110" is CUT."""
    if len(bits) != 4 or any(b not in "01" for b in bits):
        raise DomainError(f"predicate bits must be 4 chars of 0/1, got {bits!r}")
    return fourier_expand([int(b) for b in bits])


CUT_PREDICATE = fourier_expand([0, 1, 1, 0])


class CspInstance:
    """Weighted multiset of signed binary constraints over one predicate.

    Constraint t is held once, as `weight[t]`, `signs[t]` = (c1, c2) and
    `scope[t]` = (i, j). The anchored layout derives from them: entry 2t is
    constraint t anchored at i, entry 2t + 1 at j, each with the full weight
    and folded coefficients a = (f0, f1*c1, f2*c2, f12*c1*c2), linear slots
    swapped for the copy anchored at j.

    A row that is not (w, (c1, c2), (i, j)) is refused first; then a
    non-finite weight, a negative weight, a sign other than +-1 and a
    variable out of range (both truncated to integers) are tested in that
    order. The first failing row raises a DomainError whose `row` is its index.
    """

    def __init__(self, n, predicate: Predicate, constraints):
        if n < 1:
            raise ParameterError(f"need at least one variable, got n={n}")
        self.n = int(n)
        self.predicate = predicate
        rows = constraints if isinstance(constraints, (list, tuple)) else list(constraints)
        m = len(rows)
        try:
            cols = zip(*rows, strict=True) if m else ((), np.empty((0, 2)), np.empty((0, 2)))
            w, signs, scope = (np.array(col, dtype=np.float64) for col in cols)
        except (TypeError, ValueError):      # ragged or non-numeric rows
            w = signs = scope = np.empty(0)
        if (w.shape, signs.shape, scope.shape) != ((m,), (m, 2), (m, 2)):
            raise _malformed(rows, ((), (2,), (2,)), "constraint is not (w, (c1, c2), (i, j))")
        signs, scope = np.trunc(signs), np.trunc(scope)
        _refuse_rows([(~np.isfinite(w), "non-finite constraint weight {w}"),
                      (w < 0, "negative constraint weight {w}"),
                      (~(np.abs(signs) == 1).all(axis=1),
                       "negation pattern must be +-1 pairs, got {c}"),
                      (~((scope >= 0) & (scope < n)).all(axis=1), "scope out of range: {ids}")],
                     lambda k: dict(w=float(w[k]), c=rows[k][1], ids=_ids(rows[k][2])))
        self.weight, self.signs, self.scope = w, signs.astype(np.intp), scope.astype(np.intp)

        f0, f1, f2, f12 = predicate.fourier
        lin = self.signs * (f1, f2)     # (a1, a2) of the copy anchored at i
        self.anchor = self.scope.ravel()
        self.other = self.scope[:, ::-1].ravel()
        self.weights = np.repeat(w, 2)
        # columns a0, a_anchor, a_other, a_pair
        self.coeffs = np.column_stack([np.full(2 * m, f0), lin.ravel(), lin[:, ::-1].ravel(),
                                       np.repeat(f12 * self.signs[:, 0] * self.signs[:, 1], 2)])
        self.total_weight = float(self.weights.sum())

    @property
    def num_constraints(self):
        return len(self.weight)

    @cached_property
    def prefix_order(self):
        """Oriented entries in delta-prefix order, keyed and tied by storage position (cached)."""
        return PrefixOrder(self.n, self.anchor, np.arange(len(self.weights)), self.weights)

    def polynomial(self):
        """(const, lin, quad) with val(x) * W = const + <lin, x> + <x, quad x>."""
        lin = np.zeros(self.n)
        quad = np.zeros((self.n, self.n))
        w, a, o = self.weights, self.anchor, self.other
        a0, a1, a2, a12 = self.coeffs.T
        selfpair = a == o
        const = float(np.sum(w * a0) + np.sum(w[selfpair] * a12[selfpair]))
        np.add.at(lin, a, w * a1)
        np.add.at(lin, o, w * a2)
        np.add.at(quad, (a[~selfpair], o[~selfpair]), (w * a12)[~selfpair])
        return const, lin, quad


def csp_value(inst: CspInstance, x) -> float:
    """Normalized satisfied weight via the Fourier expansion."""
    vals = _values_of(x, inst.n)
    if inst.total_weight == 0:
        return 0.0
    xa, xo = vals[inst.anchor], vals[inst.other]
    a0, a1, a2, a12 = inst.coeffs.T
    per = a0 + a1 * xa + a2 * xo + a12 * xa * xo
    return float(np.sum(inst.weights * per) / inst.total_weight)


def csp_value_table(inst: CspInstance, x) -> float:
    """Normalized satisfied weight from the constraint arrays and the truth table alone."""
    vals = _values_of(x, inst.n)
    total = float(inst.weight.sum())
    if total == 0:
        return 0.0
    literals = inst.signs * vals[inst.scope]
    sat = [inst.predicate.value(z1, z2) for z1, z2 in literals.tolist()]
    return float(inst.weight @ np.array(sat, dtype=np.float64)) / total


def maxcut_as_csp(g: Graph) -> CspInstance:
    """CUT-predicate encoding: one constraint pair per edge, full weight.

    Satisfies csp_value(inst, x) * W_inst = 2 * cut_value(g, x).
    """
    edges = zip(g.edge_i.tolist(), g.edge_j.tolist(), g.edge_w.tolist())
    return CspInstance(g.n, CUT_PREDICATE, [(w, (1, 1), (i, j)) for i, j, w in edges])


def classify_literals(inst: CspInstance, delta: int, eta: float) -> WideNarrowReport:
    """Wide/narrow split of literals by their delta heaviest constraints.

    The kernel classify uses for graphs: a literal's prefix weight is added
    heaviest first and its total weight in storage order.
    """
    check_delta(delta)
    totals = np.bincount(inst.anchor, inst.weights, inst.n)
    return wide_narrow_report(delta, eta, inst.prefix_order.prefix_weights(delta), totals,
                              inst.total_weight)


def _summed_csr(rows, cols, vals, shape):
    """CSR matrix whose (r, c) entry is the sum of the vals at (r, c).

    Repeated positions are added one by one in input order, as np.add.at
    into a zero row would add them.
    """
    keys, at = np.unique(rows * shape[1] + cols, return_inverse=True)
    sums = np.zeros(len(keys))
    np.add.at(sums, at, vals)
    return sp.csr_matrix((sums, (keys // shape[1], keys % shape[1])), shape=shape)


def build_csp_lp(inst: CspInstance, z, delta: int, eta: float, eps_prime: float,
                 C: float = 4.0) -> AbsSumLp:
    """LP over the box whose objective freezes the partner variables at Z.

    The anchored occurrence keeps its own variable x_i while the partner is
    replaced by the rescaled prediction; the single constraint group bounds
    the total absolute deviation mass by C (eps' + 2 eta) W.

    A wide literal gives a tail form (its entries past the delta heaviest)
    and a head form; a narrow literal gives one head form. One sort by
    (literal, tail before head, rank) lays the forms out in that order,
    each heaviest first, and per-form sums run over its segments. A c_i at
    most 1e-12 times the summed magnitude of its terms is set to exactly
    0.0, so that rounding residue cannot pick the box minimizer's sign.
    """
    if C <= 0:
        raise ParameterError(f"C must be positive, got {C}")
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (inst.n,):
        raise DimensionError("scaled prediction length mismatch")
    report = classify_literals(inst, delta, eta)
    po = inst.prefix_order
    literal = po.owners()
    head = (po.rank < delta) | ~report.wide_mask[literal]
    order = np.lexsort((po.rank, head, literal))
    entry, literal, head = po.key[order], literal[order], head[order]
    # a new form starts wherever the literal or its head/tail side changes
    first = np.ones(len(entry), dtype=bool)
    first[1:] = (literal[1:] != literal[:-1]) | (head[1:] != head[:-1])
    starts = np.flatnonzero(first)
    tail_form = ~head[starts]

    w, other = inst.weights[entry], inst.other[entry]
    a0, a1, a2, a12 = inst.coeffs[entry].T
    zo = z[other]
    # objective: tail terms affine in x_i with the partner frozen at Z
    gain = w * (a1 + a12 * zo)
    c_sum = np.add.reduceat(gain, starts)[tail_form]
    c_mass = np.add.reduceat(np.abs(gain), starts)[tail_form]
    objective = np.zeros(inst.n)
    objective[literal[starts][tail_form]] = np.where(np.abs(c_sum) <= 1e-12 * c_mass, 0.0, c_sum)
    # tail form: sum w (a2 + a12)(x_partner - Z_partner); head form: the
    # exact sum w (a0 + a1 + (a2 + a12) x_partner)
    kappa = w * (a2 + a12)
    offsets = np.add.reduceat(np.where(head, w * (a0 + a1), -(kappa * zo)), starts)

    budget = C * (eps_prime + 2.0 * eta) * inst.total_weight
    coeffs = _summed_csr(np.cumsum(first) - 1, other, kappa, (len(starts), inst.n))
    groups = [LpGroup(coeffs=coeffs, offsets=offsets, budget=budget)] if len(starts) else []
    # AbsSumLp minimizes, the algorithm maximizes
    return AbsSumLp(objective=-objective, groups=groups)


def solve_csp_wide(inst: CspInstance, y: NoisyPrediction, delta: int, eta: float,
                   eps_prime: float, C: float = 4.0, seed=0) -> CutAssignment:
    """LP plus best-of randomized roundings; the prediction itself is the
    fallback assignment when the LP is infeasible."""
    _check_length(y, inst.n)
    z = scaled_prediction(y)
    lp = build_csp_lp(inst, z, delta, eta, eps_prime, C)
    sol = lp_solve(lp)
    if not sol.optimal:
        return CutAssignment(values=y.y.copy())
    X = draw_roundings(np.clip(sol.x, -1.0, 1.0), eta, seed)
    best = int(np.argmax([csp_value(inst, x) for x in X]))   # earliest on ties
    return CutAssignment(values=X[best])


def save_csp(inst: CspInstance) -> str:
    """Header "n k 0" (weights as stored), then raw lines "w c1 c2 i j"."""
    rows = zip(inst.weight.tolist(), inst.signs.tolist(), inst.scope.tolist())
    return "\n".join([f"{inst.n} {inst.num_constraints} 0"] +
                     [f"{w!r} {c1:+d} {c2:+d} {i} {j}" for w, (c1, c2), (i, j) in rows]) + "\n"


def load_csp(text: str, predicate: Predicate) -> CspInstance:
    """Parse the CSP file format; flag 1 rescales raw weights to sum to 1.

    Blank lines and lines starting with '#' (after indentation) are
    skipped; a ParseError names the line's number in the file, also for a
    constraint that CspInstance refuses.
    """
    (header, head), *rows = _records(text)
    n, k, flag = _typed(head, (int, int, int), "header 'n k W_norm_flag'", header)
    if flag not in (0, 1):
        raise ParseError(f"W_norm_flag must be 0 or 1, got {flag}", line=header)
    if len(rows) != k:
        raise ParseError(f"header promised {k} constraints, found {len(rows)}", line=header)
    parsed = [_typed(parts, (float, int, int, int, int), "'w c1 c2 i j'", ln) for ln, parts in rows]
    # flag 1 divides by the raw total added left to right; w / 1.0 is w, bit for bit
    total = sum(p[0] for p in parsed) if flag == 1 else 0.0
    scale = total if total > 0 else 1.0
    with _file_lines(header, rows):
        return CspInstance(n, predicate,
                           [(w / scale, (c1, c2), (i, j)) for w, c1, c2, i, j in parsed])
