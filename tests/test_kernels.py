"""Property tests of the shared kernels against plain reference code.

The exhaustive search is checked against itertools.product, the delta-prefix
order against a per-owner sort, the CSP wide LP against a per-literal
loop, best_cut against a first-wins scan, and Graph and CspInstance
construction against a per-row loop.
"""

import itertools
import math
import numbers

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from predcut.csp import (CspInstance, build_csp_lp, classify_literals, csp_value,
                         predicate_from_bits)
from predcut.errors import DomainError
from predcut.exact import exact_csp, exact_maxcut
from predcut.graph import (CutAssignment, Graph, WEIGHT_TOL, best_cut, classify, cut_value,
                           delta_prefix_weight, load_edge_list, save_edge_list,
                           truncated_adjacency)
from predcut.lp import AbsSumLp, LpGroup, solve as solve_lp

PROPS = settings(max_examples=60)
# few distinct weights, so ties are common; 0.0 gives zero-weight entries
WEIGHTS = st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0, 0.3])


@st.composite
def graphs(draw, max_n=9):
    n = draw(st.integers(1, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(n, [(i, j, draw(WEIGHTS)) for i, j in chosen])


@st.composite
def csps(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    bits = draw(st.sampled_from(["0110", "1110", "1000", "1011", "0000"]))
    cons = draw(st.lists(st.tuples(WEIGHTS, st.tuples(st.sampled_from([-1, 1]),
                                                      st.sampled_from([-1, 1])),
                                   st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))),
                         max_size=20))
    return CspInstance(n, predicate_from_bits(bits), cons)


def _all_assignments(n):
    return (np.array(x, dtype=float) for x in itertools.product((1.0, -1.0), repeat=n))


@PROPS
@given(g=graphs())
def test_exact_maxcut_matches_brute_force(g):
    opt, x = exact_maxcut(g)
    brute = max(cut_value(g, x) for x in _all_assignments(g.n))
    assert abs(opt - brute) <= 1e-9 * max(1.0, g.total_weight)
    assert x.values[0] == 1.0
    assert abs(cut_value(g, x) - opt) <= 1e-9 * max(1.0, g.total_weight)


@PROPS
@given(inst=csps())
def test_exact_csp_matches_brute_force(inst):
    opt, x = exact_csp(inst)
    brute = max(csp_value(inst, x) for x in _all_assignments(inst.n))
    assert abs(opt - brute) <= 1e-9
    assert abs(csp_value(inst, x) - opt) <= 1e-9


def test_exact_kernels_on_empty_and_weightless_instances():
    for g in (Graph(1, []), Graph(4, []), Graph(3, [(0, 1, 0.0), (1, 2, 0.0)])):
        opt, x = exact_maxcut(g)
        assert opt == 0.0 and np.all(x.values == 1.0)
    for cons in ([], [(0.0, (1, 1), (0, 1))]):
        opt, x = exact_csp(CspInstance(3, predicate_from_bits("0110"), cons))
        assert opt == 0.0 and len(x) == 3


def _graph_reference(g, i, delta):
    """Vertex i's incident (neighbour, weight) pairs, heaviest first, lower neighbour first."""
    inc = [(j, w) for a, b, w in zip(g.edge_i.tolist(), g.edge_j.tolist(), g.edge_w.tolist())
           for (own, j) in ((a, b), (b, a)) if own == i]
    inc.sort(key=lambda e: (-e[1], e[0]))
    return inc[:delta]


@PROPS
@given(g=graphs(), delta=st.integers(0, 10))
def test_graph_prefix_matches_sorted_reference(g, delta):
    At = truncated_adjacency(g, delta).toarray()
    for i in range(g.n):
        head = _graph_reference(g, i, delta)
        # added heaviest first, left to right, as the reference lists them
        assert delta_prefix_weight(g, i, delta) == sum(w for _, w in head)
        expected = g.csr[i].toarray()[0]
        expected[[j for j, _ in head]] = 0.0
        assert np.array_equal(At[i], expected)
    if delta >= 1:
        mask = [delta_prefix_weight(g, i, delta) <= 0.3 * g.weighted_degrees[i] + WEIGHT_TOL
                for i in range(g.n)]
        assert classify(g, delta, 0.3).wide_mask.tolist() == mask


def test_graph_prefix_tie_prefers_the_lower_neighbour():
    g = Graph(4, [(0, 3, 1.0), (0, 2, 1.0), (0, 1, 1.0)])
    At = truncated_adjacency(g, 2).toarray()
    assert At[0].tolist() == [0.0, 0.0, 0.0, 1.0]


@PROPS
@given(inst=csps(), delta=st.integers(1, 10))
def test_csp_prefix_matches_storage_order_reference(inst, delta):
    po = inst.prefix_order
    mask = []
    for i in range(inst.n):
        stored = [t for t in range(len(inst.weights)) if inst.anchor[t] == i]
        ranked = sorted(stored, key=lambda t: (-inst.weights[t], t))
        mine = po.owners() == i
        assert po.rank[mine].tolist() == list(range(len(stored)))
        prefix = po.key[mine & (po.rank < delta)].tolist()
        rest = po.key[mine & (po.rank >= delta)].tolist()
        assert prefix == ranked[:delta] and rest == ranked[delta:]
        total = inst.weights[stored].sum()
        mask.append(inst.weights[ranked[:delta]].sum() <= 0.3 * total + WEIGHT_TOL)
    assert classify_literals(inst, delta, 0.3).wide_mask.tolist() == mask


def test_csp_prefix_tie_prefers_storage_order():
    cons = [(1.0, (1, 1), (0, 3)), (1.0, (1, 1), (0, 1)), (2.0, (1, 1), (0, 2))]
    inst = CspInstance(4, predicate_from_bits("0110"), cons)
    po = inst.prefix_order
    mine = po.owners() == 0
    prefix = po.key[mine & (po.rank < 2)].tolist()
    rest = po.key[mine & (po.rank >= 2)].tolist()
    # entries anchored at 0 are stored at 0, 2, 4; the weight-2 one leads
    assert prefix == [4, 0] and rest == [2]


def _reference_csp_lp(inst, z, delta, eta):
    """build_csp_lp's forms and objective, one literal at a time.

    A wide literal gives its tail form (entries past its delta heaviest),
    then its head form; a narrow literal gives one head form in storage
    order. Returns the dense form matrix, the offsets and the objective
    before negation, snapped to 0.0 within 1e-12 of its terms' magnitude.
    """
    wide = classify_literals(inst, delta, eta).wide_mask
    w, other = inst.weights, inst.other
    a0, a1, a2, a12 = inst.coeffs.T
    objective, rows, offsets = np.zeros(inst.n), [], []
    for i in range(inst.n):
        stored = [t for t in range(len(w)) if inst.anchor[t] == i]
        ranked = sorted(stored, key=lambda t: (-w[t], t))
        head, tail = (ranked[:delta], ranked[delta:]) if wide[i] else (stored, [])
        if tail:
            terms = [w[t] * (a1[t] + a12[t] * z[other[t]]) for t in tail]
            if abs(sum(terms)) > 1e-12 * sum(abs(v) for v in terms):
                objective[i] = sum(terms)
        for part, offset in ((tail, lambda t: -w[t] * (a2[t] + a12[t]) * z[other[t]]),
                             (head, lambda t: w[t] * (a0[t] + a1[t]))):
            if part:
                row = np.zeros(inst.n)
                for t in part:
                    row[other[t]] += w[t] * (a2[t] + a12[t])
                rows.append(row)
                offsets.append(sum(offset(t) for t in part))
    return np.array(rows).reshape(-1, inst.n), np.array(offsets), objective


@PROPS
@given(inst=csps(), delta=st.integers(1, 6), eta=st.sampled_from([0.1, 0.3, 0.45]),
       eps_prime=st.sampled_from([0.0, 0.05, 0.2]), C=st.sampled_from([0.02, 0.2, 4.0]),
       data=st.data())
def test_csp_lp_matches_a_per_literal_loop(inst, delta, eta, eps_prime, C, data):
    z = np.array(data.draw(st.lists(st.sampled_from([-2.5, -1.25, -1.0, 1.0, 1.25, 2.5]),
                                    min_size=inst.n, max_size=inst.n)))
    rows, offsets, objective = _reference_csp_lp(inst, z, delta, eta)
    lp = build_csp_lp(inst, z, delta, eta, eps_prime, C)   # small C makes HiGHS run
    tol = 1e-12 * max(1.0, inst.total_weight)
    if len(rows):
        (group,) = lp.groups
        assert np.allclose(group.coeffs.toarray(), rows, rtol=1e-12, atol=tol)
        assert np.allclose(group.offsets, offsets, rtol=1e-12, atol=tol)
    else:
        assert lp.groups == []
    assert np.allclose(-lp.objective, objective, rtol=1e-12, atol=tol)
    assert np.array_equal(lp.objective == 0.0, objective == 0.0)
    ref = AbsSumLp(objective=-objective, groups=[LpGroup(rows, offsets, g.budget)
                                                 for g in lp.groups])
    # a narrow literal's head sums in another order, so an LP that reaches
    # HiGHS may return x an ulp or two apart; x is all NaN when infeasible
    got, want = solve_lp(lp), solve_lp(ref)
    assert got.status == want.status
    assert np.allclose(got.x, want.x, rtol=0.0, atol=1e-9, equal_nan=True)


@PROPS
@given(g=graphs(max_n=6), picks=st.lists(st.integers(0, 2 ** 6 - 1), min_size=1, max_size=8))
def test_best_cut_is_the_earliest_maximum(g, picks):
    cuts = [CutAssignment(values=np.array([1.0 if (p >> b) & 1 else -1.0 for b in range(g.n)]))
            for p in picks]
    best, best_val = None, -np.inf
    for c in cuts:
        if cut_value(g, c) > best_val:
            best, best_val = c, cut_value(g, c)
    assert best_cut(g, cuts) is best
    assert best_cut(g, iter(cuts)) is best


def _fits(row, widths):
    """Whether row holds one number per width 0 and a tuple of k numbers per width k."""
    def numbers_of(v, k):
        if k == 0:
            return isinstance(v, numbers.Real)
        return isinstance(v, tuple) and len(v) == k and all(numbers_of(u, 0) for u in v)
    return isinstance(row, tuple) and len(row) == len(widths) and all(
        numbers_of(v, k) for v, k in zip(row, widths))


def _reference_graph(n, edges):
    """The per-edge construction loop: (sorted canonical triples, degrees), or the first error.

    Every row's shape is checked before any row's values.
    """
    for k, row in enumerate(edges):
        if not _fits(row, (0, 0, 0)):
            raise DomainError.at(k, f"edge is not (i, j, w), got {row!r}")
    canon, seen = [], set()
    for k, (i, j, w) in enumerate(edges):
        i, j, w = int(i), int(j), float(w)
        if i == j:
            raise DomainError.at(k, f"self-loop at vertex {i}")
        if not (0 <= i < n and 0 <= j < n):
            raise DomainError.at(k, f"vertex id out of range: ({i}, {j})")
        if not math.isfinite(w):
            raise DomainError.at(k, f"non-finite weight {w} on edge ({i}, {j})")
        if w < 0:
            raise DomainError.at(k, f"negative weight {w} on edge ({i}, {j})")
        if i > j:
            i, j = j, i
        if (i, j) in seen:
            raise DomainError.at(k, f"duplicate edge ({i}, {j})")
        seen.add((i, j))
        canon.append((i, j, w))
    canon.sort()
    deg = np.zeros(n)
    for i, j, w in canon:
        deg[i] += w
        deg[j] += w
    return canon, deg


# weights whose sums round, so the degree test sees the order of additions
ROUNDING_WEIGHTS = st.sampled_from([0.0, 0.1, 0.2, 0.3, 1 / 3, 0.7, 1.0])


@st.composite
def edge_lists(draw):
    """(n, edges): distinct valid edges in random orientation, then injected faults."""
    n = draw(st.integers(1, 8))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = [(j, i, draw(ROUNDING_WEIGHTS)) if draw(st.booleans())
             else (i, j, draw(ROUNDING_WEIGHTS)) for i, j in chosen]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        kind = draw(st.sampled_from(["loop", "range", "nonfinite", "negative", "repeat",
                                     "flipped", "malformed"]))
        at = draw(st.integers(0, len(edges)))
        v = draw(st.integers(0, n - 1))
        if kind == "loop":
            bad = (v, v, 1.0)
        elif kind == "range":
            bad = draw(st.sampled_from([(v, n, 1.0), (-1, v, 1.0), (n + 2, -3, 0.5)]))
        elif kind == "nonfinite":
            bad = (v, (v + 1) % max(n, 2), draw(st.sampled_from([math.nan, math.inf, -math.inf])))
        elif kind == "malformed":
            bad = draw(st.sampled_from([(v, v + 1), (v, v + 1, 1.0, 2.0), (v, (v + 1, 0), 1.0)]))
        elif kind == "negative" or not edges:
            bad = (v, (v + 1) % max(n, 2), -0.3)
        else:
            i, j, _ = edges[draw(st.integers(0, len(edges) - 1))]
            bad = (i, j, 2.5) if kind == "repeat" else (j, i, 2.5)
        edges.insert(at, bad)
    return n, edges


@settings(max_examples=300)
@given(case=edge_lists(), as_iterator=st.booleans())
def test_graph_construction_matches_a_per_edge_loop(case, as_iterator):
    n, edges = case
    try:
        canon, deg = _reference_graph(n, edges)
    except DomainError as err:
        with pytest.raises(DomainError) as got:
            Graph(n, iter(edges) if as_iterator else edges)
        assert (got.value.row, str(got.value)) == (err.row, str(err))
        return
    g = Graph(n, iter(edges) if as_iterator else edges)
    assert g.edge_i.dtype == g.edge_j.dtype == np.intp and g.edge_w.dtype == np.float64
    assert g.edge_i.tolist() == [e[0] for e in canon]
    assert g.edge_j.tolist() == [e[1] for e in canon]
    assert g.edge_w.tolist() == [e[2] for e in canon]
    assert g.num_edges == len(canon)
    assert np.array_equal(g.weighted_degrees, deg)
    assert g.total_weight == float(deg.sum())
    h = load_edge_list(save_edge_list(g))
    assert h.n == g.n
    for a in ("edge_i", "edge_j", "edge_w"):
        assert np.array_equal(getattr(h, a), getattr(g, a))
    assert np.array_equal(h.weighted_degrees, g.weighted_degrees)


def test_edges_must_be_triples():
    for edges, row in (([(0, 1)], 0), ([(0, 1, 1.0, 2.0)], 0), ([(0, 1, 1.0), (1, 2)], 1),
                       ([(0, 0, 1.0), (1, 2)], 1), ([(0, (1, 2), 1.0)], 0), ([(0, 1, "x")], 0)):
        with pytest.raises(DomainError, match=r"^edge is not \(i, j, w\), got ") as e:
            Graph(3, edges)
        assert e.value.row == row


def _reference_csp(n, constraints):
    """The per-constraint construction loop: (weights, signs, scopes) as lists, or the first error.

    Every row's shape is checked before any row's values; a NaN or infinite
    sign or variable is refused and printed as it is.
    """
    for t, row in enumerate(constraints):
        if not _fits(row, (0, 2, 2)):
            raise DomainError.at(t, f"constraint is not (w, (c1, c2), (i, j)), got {row!r}")
    weights, signs, scopes = [], [], []
    for t, (w, c, alpha) in enumerate(constraints):
        w = float(w)
        c1, c2 = (int(v) if math.isfinite(v) else v for v in c)
        i, j = (int(v) if math.isfinite(v) else float(v) for v in alpha)
        if not math.isfinite(w):
            raise DomainError.at(t, f"non-finite constraint weight {w}")
        if w < 0:
            raise DomainError.at(t, f"negative constraint weight {w}")
        if c1 not in (-1, 1) or c2 not in (-1, 1):
            raise DomainError.at(t, f"negation pattern must be +-1 pairs, got {c}")
        if not (0 <= i < n and 0 <= j < n):
            raise DomainError.at(t, f"scope out of range: ({i}, {j})")
        weights.append(w)
        signs.append([c1, c2])
        scopes.append([i, j])
    return weights, signs, scopes


@st.composite
def constraint_lists(draw):
    """(n, constraints): valid constraints with one fault of a drawn kind at a drawn row, or none.

    A "truncated" row is no fault: its signs and variables truncate to valid ones.
    """
    n = draw(st.integers(1, 6))
    var, sign = st.integers(0, n - 1), st.sampled_from([-1, 1])
    cons = draw(st.lists(st.tuples(WEIGHTS, st.tuples(sign, sign), st.tuples(var, var)),
                         max_size=10))
    kind = draw(st.sampled_from([None, "truncated", "nonfinite", "negative", "sign", "range",
                                 "malformed"]))
    v = draw(var)
    faults = {
        "truncated": st.just((1.0, (1.5, -1.9), (v + 0.5, -0.5))),
        "nonfinite": st.sampled_from([(w, (1, 1), (v, v)) for w in (math.nan, math.inf, -math.inf)]),
        "negative": st.just((-0.25, (1, -1), (v, v))),
        "sign": st.sampled_from([(1.0, c, (v, v)) for c in ((0, 1), (1, 2), (-1, math.nan))]),
        "range": st.sampled_from([(1.0, (1, 1), a) for a in ((v, n), (-1, v), (math.nan, v),
                                                              (v, math.inf))]),
        "malformed": st.sampled_from([(1.0, (1, 1, 5), (v, v)), (1.0, (1, 1), (v, v, 2)),
                                      (1.0, (1, 1)), (1.0, (1, 1), (v, v), 3), (1.0, 1, (v, v)),
                                      ((1.0, 2.0), (1, 1), (v, v)), (1.0, (1, 1), (v, "x"))]),
    }
    if kind is not None:
        cons.insert(draw(st.integers(0, len(cons))), draw(faults[kind]))
    return n, cons


@settings(max_examples=300)
@given(case=constraint_lists(), as_iterator=st.booleans())
def test_csp_construction_matches_a_per_constraint_loop(case, as_iterator):
    n, cons = case
    pred = predicate_from_bits("1011")
    try:
        weights, signs, scopes = _reference_csp(n, cons)
    except DomainError as err:
        with pytest.raises(DomainError) as got:
            CspInstance(n, pred, iter(cons) if as_iterator else cons)
        assert (got.value.row, str(got.value)) == (err.row, str(err))
        return
    inst = CspInstance(n, pred, iter(cons) if as_iterator else cons)
    assert inst.weight.dtype == np.float64 and inst.signs.dtype == inst.scope.dtype == np.intp
    assert inst.weight.tolist() == weights and inst.num_constraints == len(cons)
    assert inst.signs.tolist() == signs and inst.scope.tolist() == scopes


def test_zero_edge_graph():
    g = Graph(3, [])
    assert g.num_edges == 0 and g.total_weight == 0.0
    assert g.edge_i.dtype == np.intp and g.edge_w.dtype == np.float64
    assert np.array_equal(g.weighted_degrees, np.zeros(3))
    assert g.csr.shape == (3, 3) and g.csr.nnz == 0
    assert np.array_equal(g.csr.toarray(), np.zeros((3, 3)))
    assert load_edge_list(save_edge_list(g)).num_edges == 0
