"""Weighted graphs, cut objectives, and heavy-edge prefix machinery.

A graph on n vertices is a symmetric nonnegative weighted adjacency matrix
with zero diagonal. A Graph stores its edges once, as three sorted arrays,
and builds one symmetric CSR matrix from them on first use; every kernel
reads those two forms. No dense n x n matrix is kept: the three callers
that need one, the exact oracle (n <= 24), the triangle SDP (n <= 200) and
sdp_upper_bound (n <= 2000), each build it from the CSR matrix inside their
own size limit. W_i is the weighted degree of vertex i and
W = sum_i W_i, so W counts each edge weight twice (once per endpoint).
The cut value of x in {-1,+1}^n is (1/4) <x, Lx> = (1/4) (W - <x, Ax>)
with L = D - A.

The "delta-prefix" of a vertex is its delta heaviest incident edges
(ties broken toward the lower neighbor index); a vertex is wide when the
prefix carries at most an eta fraction of its weighted degree, and a graph
is wide when wide vertices carry at least a 1-eta fraction of W. The same
split applies to the literals of a 2-CSP (csp.py); both go through one
PrefixOrder, whose per-entry rank answers every prefix question.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import DimensionError, DomainError, ParameterError, ParseError

# absolute tolerance for weight comparisons where exactness matters
WEIGHT_TOL = 1e-12
# slack allowed when validating box membership of fractional assignments
BOX_TOL = 1e-9
# about this many vertex pairs per row block of gen_erdos_renyi
BLOCK_PAIRS = 1 << 20

WIDE = "wide"
NARROW = "narrow"


class Graph:
    """Immutable undirected weighted graph.

    Edges are (i, j, w) with i < j and finite w >= 0; no loops, no duplicates.
    They are held as the arrays edge_i, edge_j, edge_w, sorted by (i, j), and
    the symmetric CSR matrix `csr` is built from them on first access and
    cached. `planted` optionally stores the ground-truth assignment a
    generator built the graph around.
    """

    def __init__(self, n, edges, planted=None):
        if n < 1:
            raise ParameterError(f"need at least one vertex, got n={n}")
        self.n = int(n)
        self.edge_i, self.edge_j, self.edge_w = _canonical_edges(self.n, edges)
        # each vertex's weights added one by one in neighbour order, which is
        # what csr @ ones computes
        self.weighted_degrees = np.bincount(
            np.concatenate([self.edge_j, self.edge_i]),
            weights=np.concatenate([self.edge_w, self.edge_w]), minlength=self.n)
        self.total_weight = float(self.weighted_degrees.sum())

        if planted is not None:
            planted = np.asarray(planted, dtype=np.float64)
            if planted.shape != (self.n,):
                raise DimensionError("planted assignment length mismatch")
        self.planted = planted

    @property
    def num_edges(self):
        return len(self.edge_w)

    @cached_property
    def csr(self):
        """Symmetric CSR weight matrix with sorted column indices.

        Zero-weight edges are stored entries.
        """
        return sp.csr_matrix((np.concatenate([self.edge_w, self.edge_w]),
                              (np.concatenate([self.edge_i, self.edge_j]),
                               np.concatenate([self.edge_j, self.edge_i]))),
                             shape=(self.n, self.n))

    @cached_property
    def prefix_order(self):
        """Both orientations of every edge, in delta-prefix order (cached)."""
        owner = np.concatenate([self.edge_i, self.edge_j])
        other = np.concatenate([self.edge_j, self.edge_i])
        return PrefixOrder(self.n, owner, other, np.concatenate([self.edge_w, self.edge_w]))


def _canonical_edges(n, edges):
    """(edge_i, edge_j, edge_w) with i < j, sorted by (i, j).

    Ids are truncated to integers and weights read as floats. A row that is
    not an (i, j, w) triple is refused first; then a self-loop, an id out of
    range, a non-finite weight, a negative weight and a repeat of an earlier
    pair are tested in that order, and the first failing edge raises a
    DomainError whose `row` is its index.
    """
    if not isinstance(edges, (list, tuple, np.ndarray)):
        edges = list(edges)
    try:
        E = np.array(edges, dtype=np.float64) if len(edges) else np.empty((0, 3))
    except (TypeError, ValueError):      # ragged or non-numeric rows
        E = None
    if E is None or E.shape[1:] != (3,):
        raise _malformed(edges, ((), (), ()), "edge is not (i, j, w)")
    a, b, w = np.trunc(E[:, 0]), np.trunc(E[:, 1]), E[:, 2]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    order = np.lexsort((hi, lo))      # stable: the first of equal pairs leads
    repeat = np.zeros(len(w), dtype=bool)
    repeat[order[1:]] = (np.diff(lo[order]) == 0) & (np.diff(hi[order]) == 0)
    _refuse_rows([(lo == hi, "self-loop at vertex {ids[0]}"),
                  (~((lo >= 0) & (hi < n)), "vertex id out of range: {ids}"),
                  (~np.isfinite(w), "non-finite weight {w} on edge {ids}"),
                  (w < 0, "negative weight {w} on edge {ids}"),
                  (repeat, "duplicate edge {pair}")],
                 lambda k: dict(ids=_ids(edges[k][:2]), w=float(w[k]), pair=_ids((lo[k], hi[k]))))
    return lo[order].astype(np.intp), hi[order].astype(np.intp), w[order]


def _refuse_rows(checks, fields):
    """Raise DomainError.at(k, message) for the first row k that fails a (mask, message) check.

    One boolean mask per test, in test order. The message is that of the
    row's first failing test, formatted with the row's fields(k).
    """
    bad = np.logical_or.reduce([mask for mask, _ in checks])
    if bad.any():
        k = int(np.argmax(bad))
        message = next(message for mask, message in checks if mask[k])
        raise DomainError.at(k, message.format(**fields(k)))


def _malformed(rows, shapes, form):
    """DomainError at the first row whose entries are not numbers of `shapes`, e.g. ((), (2,))."""
    def shapes_of(row):
        try:
            return tuple(np.shape(np.asarray(v, dtype=np.float64)) for v in row)
        except (TypeError, ValueError):
            return None

    k = next(k for k, row in enumerate(rows) if shapes_of(row) != shapes)
    return DomainError.at(k, f"{form}, got {rows[k]!r}")


def _ids(values):
    """Ids truncated to ints for messages; a NaN or infinite id is printed as it is."""
    return tuple(int(v) if np.isfinite(float(v)) else float(v) for v in values)


class PrefixOrder:
    """Weighted entries grouped by owner, heaviest first, equal weights in key order.

    The key is the neighbour index for graphs and the storage position for
    CSPs. Position p holds the entry `key[p]` of owner `owners()[p]`, with
    its `weight[p]`; `rank[p]` is its place in its owner's heaviest-first
    list, so the delta-prefix of an owner is its entries with rank < delta.
    Positions run owner by owner and rank by rank, so `owners` rebuilds
    them from the per-owner `counts`, which keeps a cached order at 24
    bytes per entry.
    """

    def __init__(self, n, owner, key, weight):
        order = np.lexsort((key, -weight, owner))
        self.key = key[order]
        self.weight = weight[order]
        counts = self.counts = np.bincount(owner, minlength=n)
        self.rank = np.arange(len(order)) - np.repeat(np.cumsum(counts) - counts, counts)

    def owners(self, lo=0, hi=None):
        """The owner of each position whose rank lies in [lo, hi), in position order."""
        top = self.counts if hi is None else np.minimum(self.counts, max(lo, hi))
        return np.repeat(np.arange(len(self.counts)), np.maximum(top - lo, 0))

    def prefix_weights(self, delta):
        """Per-owner sum of the delta heaviest weights, added heaviest first."""
        return np.bincount(self.owners(0, delta), self.weight[self.rank < delta],
                           minlength=len(self.counts))


@dataclass(frozen=True)
class CutAssignment:
    """A cut: one +-1 label per vertex."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", vals)
        if not np.all(np.abs(vals) == 1.0):
            raise DomainError("integral assignment entries must be exactly +-1")

    def __len__(self):
        return len(self.values)


@dataclass(frozen=True)
class WideNarrowReport:
    """Wide/narrow split of the vertices (or CSP literals) and the resulting class."""

    delta: int
    eta: float
    wide_mask: np.ndarray  # bool per vertex or literal, True = wide
    wide_weight: float     # summed weighted degree of the wide ones
    narrow_weight: float
    graph_class: str       # WIDE or NARROW

    @property
    def is_wide(self):
        return self.graph_class == WIDE


def _values_of(x, n=None):
    """Accept a CutAssignment or a raw array; return float64 values."""
    vals = x.values if isinstance(x, CutAssignment) else np.asarray(x, dtype=np.float64)
    if n is not None and vals.shape != (n,):
        raise DimensionError(f"assignment length {vals.shape} != vertex count {n}")
    return vals


def _records(text):
    """(1-based line number, fields) of each line that is neither blank nor a '#' comment.

    Every text format reads its lines here; none at all is ParseError("empty input", line=1).
    """
    empty = True
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if fields and not fields[0].startswith("#"):
            empty = False
            yield lineno, fields
    if empty:
        raise ParseError("empty input", line=1)


def _typed(fields, types, form, line):
    """The fields cast by `types`, one each; a ParseError citing `form` when they do not fit."""
    if len(fields) != len(types):
        raise ParseError(f"expected {form}", line=line)
    try:
        return [cast(f) for cast, f in zip(types, fields)]
    except ValueError:
        raise ParseError(f"bad field types, expected {form}", line=line)


@contextmanager
def _file_lines(header, rows):
    """Re-raise a constructor's error as a ParseError on the line of its row, else the header."""
    try:
        yield
    except (DomainError, ParameterError) as err:
        row = getattr(err, "row", None)
        raise ParseError(str(err), line=header if row is None else rows[row][0]) from err


def best_cut(g: Graph, cuts) -> CutAssignment:
    """The earliest of the cuts with the largest cut_value."""
    return _best_until(g, cuts, float("inf"))


def _best_until(g: Graph, cuts, goal) -> CutAssignment:
    """best_cut of the cuts drawn up to the first whose value reaches goal.

    With goal at least every cut's value, that first cut is a maximum, so
    it is also the earliest best of all the cuts, and no later one is drawn.
    """
    best, best_val = None, -float("inf")
    for cut in cuts:
        val = cut_value(g, cut)
        if val > best_val:
            best, best_val = cut, val
        if val >= goal:
            break
    if best is None:
        raise ValueError("best_cut needs at least one cut")
    return best


def cut_value(g: Graph, x) -> float:
    """Total weight of edges crossing the cut x in {-1,+1}^n.

    Equals (1/4) <x, Lx>.
    """
    vals = _values_of(x, g.n)
    if not np.all(np.abs(vals) == 1.0):
        raise DomainError("cut_value needs an integral +-1 assignment")
    crossing = vals[g.edge_i] != vals[g.edge_j]
    return float(g.edge_w[crossing].sum())


def frac_objective(g: Graph, x) -> float:
    """Continuous cut objective (1/4) (W - <x, Ax>) on the box [-1,1]^n.

    Agrees with cut_value on integral inputs.
    """
    vals = _values_of(x, g.n)
    if np.any(np.abs(vals) > 1.0 + BOX_TOL):
        raise DomainError("fractional assignment entries must lie in [-1, 1]")
    return 0.25 * (g.total_weight - float(vals @ (g.csr @ vals)))


def delta_prefix_weight(g: Graph, i: int, delta: int) -> float:
    """Sum of the delta largest incident edge weights of vertex i.

    Ties between equal weights prefer the lower neighbor index. Returns W_i
    when delta is at least the degree.
    """
    if not (0 <= i < g.n):
        raise DomainError(f"invalid vertex id {i}")
    check_delta(delta, 0)
    return float(g.prefix_order.prefix_weights(delta)[i])


def check_delta(delta, low=1):
    """ParameterError unless delta is an int or np.integer (2.0 is not) of at least low."""
    if not isinstance(delta, (int, np.integer)):
        raise ParameterError(f"delta must be an integer, got {delta!r}")
    if delta < low:
        raise ParameterError(f"delta must be >= {low}, got {delta}")


def wide_mask(prefix, totals, eta) -> np.ndarray:
    """Owners whose delta-prefix weight is at most eta times their total."""
    return prefix <= eta * totals + WEIGHT_TOL


def wide_narrow_report(delta, eta, prefix, totals, total_weight) -> WideNarrowReport:
    """Classify owners by wide_mask and the instance by the wide share; the caller checks delta."""
    if not (0.0 < eta < 0.5):
        raise ParameterError(f"eta must lie in (0, 1/2), got {eta}")
    wide = wide_mask(prefix, totals, eta)
    wide_weight = float(totals[wide].sum())
    narrow_weight = float(totals[~wide].sum())
    graph_class = WIDE if wide_weight >= (1.0 - eta) * total_weight - WEIGHT_TOL else NARROW
    return WideNarrowReport(delta=int(delta), eta=float(eta), wide_mask=wide,
                            wide_weight=wide_weight, narrow_weight=narrow_weight,
                            graph_class=graph_class)


def classify(g: Graph, delta: int, eta: float) -> WideNarrowReport:
    """Split vertices into delta-wide and delta-narrow and classify the graph.

    Vertex i is wide iff its delta-prefix weight is at most eta * W_i
    (zero-degree vertices are vacuously wide); the graph is wide iff wide
    vertices carry at least (1 - eta) of the total degree weight W.
    """
    check_delta(delta)
    return wide_narrow_report(delta, eta, g.prefix_order.prefix_weights(delta),
                              g.weighted_degrees, g.total_weight)


def truncated_adjacency(g: Graph, delta: int) -> sp.csr_matrix:
    """CSR adjacency with each row's delta-prefix entries removed.

    Row i keeps only the delta-suffix of vertex i, so the result is
    generally not symmetric; every surviving entry in row i is at most
    W_i / delta.
    """
    check_delta(delta, 0)
    po = g.prefix_order
    tail = po.rank >= delta
    return sp.csr_matrix((po.weight[tail], (po.owners(delta), po.key[tail])), shape=(g.n, g.n))


def gen_erdos_renyi(n, p, weight_law="unit", seed=0, q_cross=None, q_within=None,
                    ground_truth=None) -> Graph:
    """Random graph generator, deterministic given the seed.

    weight_law "unit" or "uniform": G(n, p) edges with weight 1 or weight
    drawn uniformly from (0, 1]. weight_law "planted": ignores p and places
    each cut pair with probability q_cross and each within-side pair with
    probability q_within (unit weights) around a balanced ground truth,
    which is stored on the returned graph for later comparison. Presence is
    drawn pair by pair in np.triu_indices order, in row blocks of about
    BLOCK_PAIRS pairs (memory O(BLOCK_PAIRS + edges)), and weights after it.
    """
    if n < 1:
        raise ParameterError(f"need at least one vertex, got n={n}")
    rng = np.random.default_rng(seed)
    truth = None
    if weight_law in ("unit", "uniform"):
        if not (0.0 <= p <= 1.0):
            raise ParameterError(f"edge probability must be in [0, 1], got {p}")
    elif weight_law == "planted":
        for name, q in (("q_cross", q_cross), ("q_within", q_within)):
            if q is None or not (0.0 <= q <= 1.0):
                raise ParameterError(f"{name} must be a probability, got {q}")
        if ground_truth is None:
            truth = np.ones(n)
            truth[rng.permutation(n)[: n // 2]] = -1.0
        else:
            truth = _values_of(ground_truth, n)
            if not np.all(np.abs(truth) == 1.0):
                raise DomainError("ground truth must be a +-1 assignment")
    else:
        raise ParameterError(f"unknown weight law {weight_law!r}")
    step = max(1, BLOCK_PAIRS // n)
    kept = []
    for r in range(0, n, step):
        i, j = np.nonzero(np.triu(np.ones((min(step, n - r), n), dtype=bool), k=r + 1))
        i += r
        prob = p if truth is None else np.where(truth[i] != truth[j], q_cross, q_within)
        present = rng.random(len(i)) < prob
        kept.append((i[present], j[present]))
    i, j = (np.concatenate(side) for side in zip(*kept))
    w = 1.0 - rng.random(len(i)) if weight_law == "uniform" else np.ones(len(i))
    return Graph(n, np.column_stack((i, j, w)), planted=truth)


def load_edge_list(text: str) -> Graph:
    """Parse the edge-list format: "n m" header, then m lines "i j w".

    Vertex ids are 0-indexed with i < j; blank lines and lines starting
    with '#' are ignored. Malformed input, and an edge that Graph refuses,
    raise ParseError with the line number.
    """
    (header, head), *rows = _records(text)
    n, m = _typed(head, (int, int), "header 'n m'", header)
    edges = []
    for lineno, parts in rows:
        i, j, w = _typed(parts, (int, int, float), "'i j w'", lineno)
        if i > j:
            raise ParseError(f"edges require i < j, got ({i}, {j})", line=lineno)
        edges.append((i, j, w))
    if len(edges) != m:
        raise ParseError(f"header promised {m} edges, found {len(edges)}", line=header)
    with _file_lines(header, rows):
        return Graph(n, edges)


def save_edge_list(g: Graph) -> str:
    """Serialize to the edge-list format; load(save(g)) reproduces g."""
    edges = zip(g.edge_i.tolist(), g.edge_j.tolist(), g.edge_w.tolist())
    return "\n".join([f"{g.n} {g.num_edges}"] + [f"{i} {j} {w!r}" for i, j, w in edges]) + "\n"
