"""Property tests of the shared kernels against plain reference code.

The exhaustive search is checked against itertools.product, the delta-prefix
order against a per-owner sort, and best_cut against a first-wins scan.
"""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from predcut.csp import CspInstance, classify_literals, csp_value, predicate_from_bits
from predcut.exact import exact_csp, exact_maxcut
from predcut.graph import (CutAssignment, Graph, WEIGHT_TOL, best_cut, classify, cut_value,
                           delta_prefix_weight, truncated_adjacency)

PROPS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
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
    inc = [(j, w) for a, b, w in g.edges for (own, j) in ((a, b), (b, a)) if own == i]
    inc.sort(key=lambda e: (-e[1], e[0]))
    return inc[:delta]


@PROPS
@given(g=graphs(), delta=st.integers(0, 10))
def test_graph_prefix_matches_sorted_reference(g, delta):
    At = truncated_adjacency(g, delta)
    for i in range(g.n):
        head = _graph_reference(g, i, delta)
        # added heaviest first, left to right, as the reference lists them
        assert delta_prefix_weight(g, i, delta) == sum(w for _, w in head)
        expected = np.array(g.adjacency[i])
        expected[[j for j, _ in head]] = 0.0
        assert np.array_equal(At[i], expected)
    if delta >= 1:
        mask = [delta_prefix_weight(g, i, delta) <= 0.3 * g.weighted_degrees[i] + WEIGHT_TOL
                for i in range(g.n)]
        assert classify(g, delta, 0.3).wide_mask.tolist() == mask


def test_graph_prefix_tie_prefers_the_lower_neighbour():
    g = Graph(4, [(0, 3, 1.0), (0, 2, 1.0), (0, 1, 1.0)])
    At = truncated_adjacency(g, 2)
    assert At[0].tolist() == [0.0, 0.0, 0.0, 1.0]


@PROPS
@given(inst=csps(), delta=st.integers(1, 10))
def test_csp_prefix_matches_storage_order_reference(inst, delta):
    po = inst.prefix_order
    mask = []
    for i in range(inst.n):
        stored = [t for t in range(len(inst.weights)) if inst.anchor[t] == i]
        ranked = sorted(stored, key=lambda t: (-inst.weights[t], t))
        prefix, rest = (po.entries[s].tolist() for s in po.span(i, delta))
        assert prefix == ranked[:delta] and rest == ranked[delta:]
        total = inst.weights[stored].sum()
        mask.append(inst.weights[ranked[:delta]].sum() <= 0.3 * total + WEIGHT_TOL)
    assert classify_literals(inst, delta, 0.3).wide_mask.tolist() == mask


def test_csp_prefix_tie_prefers_storage_order():
    cons = [(1.0, (1, 1), (0, 3)), (1.0, (1, 1), (0, 1)), (2.0, (1, 1), (0, 2))]
    inst = CspInstance(4, predicate_from_bits("0110"), cons)
    po = inst.prefix_order
    prefix, rest = (po.entries[s].tolist() for s in po.span(0, 2))
    # entries anchored at 0 are stored at 0, 2, 4; the weight-2 one leads
    assert prefix == [4, 0] and rest == [2]


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
