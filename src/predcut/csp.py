"""Binary CSP instances with predicate Fourier expansions.

A constraint (w, c, alpha) asks P(c_1 x_{alpha(1)}, c_2 x_{alpha(2)}) = 1
for a 0/1 predicate P on {-1,+1}^2; val(x) is the weight-normalized
satisfied mass. P expands exactly as the degree-2 multilinear polynomial
    P(z1, z2) = f0 + f1 z1 + f2 z2 + f12 z1 z2
with coefficients that are multiples of 1/4.

Every raw constraint is stored in both orientations (anchored at each
endpoint, full weight, coefficients transposed for the swapped copy), so
the instance weight W doubles the raw total, per-literal constraint sets
S_i cover every occurrence, and val is unchanged, including for
asymmetric predicates. MaxCut encodings then satisfy
csp_value * W = 2 * cut_value exactly.

The wide LP reads each literal's delta-prefix from the PrefixOrder rank
that classifies graph vertices, and lays out all its forms with one sort
of the oriented entries (see `build_csp_lp`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import DimensionError, DomainError, ParameterError, ParseError
from .graph import (CutAssignment, Graph, PrefixOrder, WideNarrowReport, check_delta,
                    wide_narrow_report, _file_lines, _records, _typed, _values_of)
from .lp import AbsSumLp, LpGroup, solve as lp_solve
from .predictions import NoisyPrediction, _check_length, scaled_prediction
from .wide import draw_roundings

# evaluation order of the four truth-table entries in compact forms
TABLE_ORDER = ((1, 1), (1, -1), (-1, 1), (-1, -1))


@dataclass(frozen=True)
class Predicate:
    """0/1 predicate on {-1,+1}^2 plus its exact Fourier expansion."""

    table: dict
    f0: float
    f1: float
    f2: float
    f12: float

    def value(self, z1: int, z2: int) -> int:
        return self.table[(int(z1), int(z2))]

    def value_fourier(self, z1: float, z2: float) -> float:
        return self.f0 + self.f1 * z1 + self.f2 * z2 + self.f12 * z1 * z2

    @property
    def fourier(self):
        return (self.f0, self.f1, self.f2, self.f12)


def fourier_expand(truth_table) -> Predicate:
    """Predicate with coefficients f(S) = (1/4) sum_z P(z) chi_S(z).

    truth_table is a dict over {-1,+1}^2 pairs or a 4-sequence in the order
    (+1,+1), (+1,-1), (-1,+1), (-1,-1).
    """
    if isinstance(truth_table, dict):
        table = {(int(a), int(b)): int(v) for (a, b), v in truth_table.items()}
    else:
        vals = list(truth_table)
        if len(vals) != 4:
            raise DomainError("truth table needs exactly 4 entries")
        table = {z: int(v) for z, v in zip(TABLE_ORDER, vals)}
    if set(table) != set(TABLE_ORDER):
        raise DomainError("truth table must cover all four +-1 input pairs")
    if any(v not in (0, 1) for v in table.values()):
        raise DomainError("predicate values must be 0 or 1")
    f0 = sum(table[z] for z in TABLE_ORDER) / 4.0
    f1 = sum(table[z] * z[0] for z in TABLE_ORDER) / 4.0
    f2 = sum(table[z] * z[1] for z in TABLE_ORDER) / 4.0
    f12 = sum(table[z] * z[0] * z[1] for z in TABLE_ORDER) / 4.0
    return Predicate(table=table, f0=f0, f1=f1, f2=f2, f12=f12)


def predicate_from_bits(bits: str) -> Predicate:
    """Predicate from 4 bits ordered as TABLE_ORDER, e.g. "0110" is CUT."""
    if len(bits) != 4 or any(b not in "01" for b in bits):
        raise DomainError(f"predicate bits must be 4 chars of 0/1, got {bits!r}")
    return fourier_expand([int(b) for b in bits])


CUT_PREDICATE = fourier_expand([0, 1, 1, 0])


class CspInstance:
    """Weighted multiset of signed binary constraints over one predicate.

    `constraints` holds the raw (w, (c1, c2), (i, j)) triplets; internally
    each one is stored twice, anchored at either endpoint, with folded
    coefficients a = (f0, f1*c1, f2*c2, f12*c1*c2) and the linear slots
    swapped for the re-anchored copy. A refused constraint raises a
    DomainError whose `row` is its index.
    """

    def __init__(self, n, predicate: Predicate, constraints):
        if n < 1:
            raise ParameterError(f"need at least one variable, got n={n}")
        self.n = int(n)
        self.predicate = predicate
        raw = []
        for t, (w, c, alpha) in enumerate(constraints):
            w = float(w)
            c1, c2 = int(c[0]), int(c[1])
            i, j = int(alpha[0]), int(alpha[1])
            if not math.isfinite(w):
                raise DomainError.at(t, f"non-finite constraint weight {w}")
            if w < 0:
                raise DomainError.at(t, f"negative constraint weight {w}")
            if c1 not in (-1, 1) or c2 not in (-1, 1):
                raise DomainError.at(t, f"negation pattern must be +-1 pairs, got {c}")
            if not (0 <= i < n and 0 <= j < n):
                raise DomainError.at(t, f"scope out of range: ({i}, {j})")
            raw.append((w, (c1, c2), (i, j)))
        self.constraints = raw

        # entry 2t is constraint t anchored at i, entry 2t + 1 anchored at j
        m = len(raw)
        scope = np.array([alpha for _, _, alpha in raw], dtype=np.intp).reshape(m, 2)
        signs = np.array([c for _, c, _ in raw], dtype=np.float64).reshape(m, 2)
        f0, f1, f2, f12 = predicate.fourier
        lin = signs * (f1, f2)     # (a1, a2) of the copy anchored at i
        self.anchor = scope.ravel()
        self.other = scope[:, ::-1].ravel()
        self.weights = np.repeat(np.array([w for w, _, _ in raw], dtype=np.float64), 2)
        # columns a0, a_anchor, a_other, a_pair
        self.coeffs = np.column_stack([np.full(2 * m, f0), lin.ravel(), lin[:, ::-1].ravel(),
                                       np.repeat(f12 * signs[:, 0] * signs[:, 1], 2)])
        self.total_weight = float(self.weights.sum())

    @property
    def num_constraints(self):
        return len(self.constraints)

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
    """Normalized satisfied weight by direct truth-table evaluation."""
    vals = _values_of(x, inst.n)
    total = sum(w for (w, _, _) in inst.constraints)
    if total == 0:
        return 0.0
    sat = 0.0
    for (w, (c1, c2), (i, j)) in inst.constraints:
        sat += w * inst.predicate.value(int(c1 * vals[i]), int(c2 * vals[j]))
    return sat / total


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
    lines = [f"{inst.n} {inst.num_constraints} 0"]
    for (w, (c1, c2), (i, j)) in inst.constraints:
        lines.append(f"{w!r} {c1:+d} {c2:+d} {i} {j}")
    return "\n".join(lines) + "\n"


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
    constraints = []
    for ln, parts in rows:
        w, c1, c2, i, j = _typed(parts, (float, int, int, int, int), "'w c1 c2 i j'", ln)
        constraints.append((w, (c1, c2), (i, j)))
    if flag == 1:
        total = sum(c[0] for c in constraints)
        if total > 0:
            constraints = [(w / total, c, a) for (w, c, a) in constraints]
    with _file_lines(header, rows):
        return CspInstance(n, predicate, constraints)
