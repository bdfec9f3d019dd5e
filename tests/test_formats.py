"""The five text formats: errors on the file line, and load(save(x)) == x.

Every reader takes its lines from one record reader, so blank lines and
'#' lines are skipped everywhere, and a value that a constructor refuses is
reported on the line of the row that holds it.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from predcut.csp import CUT_PREDICATE, CspInstance, load_csp, predicate_from_bits, save_csp
from predcut.errors import DomainError, ParameterError, ParseError
from predcut.graph import Graph, load_edge_list, save_edge_list
from predcut.lp import LpGroup
from predcut.predictions import (NoisyPrediction, PartialPrediction, load_prediction,
                                 save_prediction)
from predcut.sdp import SdpSolution, load_solution, save_solution

PROPS = settings(max_examples=60)


def _cut_csp(text):
    return load_csp(text, CUT_PREDICATE)


BAD_FILES = {
    "edge-negative-id": (load_edge_list, "3 1\n-1 2 1.0\n", 2, "vertex id out of range: (-1, 2)"),
    "edge-self-loop": (load_edge_list, "3 2\n0 1 1.0\n\n1 1 1.0\n", 4, "self-loop at vertex 1"),
    "edge-nan-weight": (load_edge_list, "3 2\n0 1 nan\n1 2 1.0\n", 2, "non-finite weight nan"),
    "edge-duplicate": (load_edge_list, "3 2\n0 1 1.0\n# again\n0 1 2.0\n", 4,
                       "duplicate edge (0, 1)"),
    "edge-zero-vertices": (load_edge_list, "0 0\n", 1, "need at least one vertex"),
    "csp-scope": (_cut_csp, "3 2 0\n1.0 +1 +1 0 1\n\n1.0 +1 +1 2 3\n", 4, "scope out of range"),
    "csp-negation": (_cut_csp, "# c\n3 2 0\n1.0 0 +1 0 1\n1.0 +1 +1 1 2\n", 3,
                     "negation pattern must be +-1 pairs"),
    "csp-negative-weight": (_cut_csp, "3 2 0\n1.0 +1 +1 0 1\n  # c\n-2.0 +1 -1 1 2\n", 4,
                            "negative constraint weight -2.0"),
    "csp-inf-weight": (_cut_csp, "3 1 1\ninf +1 +1 0 1\n", 2, "non-finite constraint weight"),
    "noisy-epsilon": (load_prediction, "\n2 noisy 0.7\n+1\n-1\n", 2, "noisy bias must lie"),
    "partial-epsilon": (load_prediction, "2 partial 0\n+1\n0\n", 1, "reveal rate must lie"),
    # the bad field on line 3 is found before Graph sees the self-loop on line 2
    "format-fault-first": (load_edge_list, "3 2\n0 0 1.0\n1 2 x\n", 3, "bad field types"),
}


@pytest.mark.parametrize("name", sorted(BAD_FILES))
def test_loader_errors_name_the_file_line(name):
    load, text, line, message = BAD_FILES[name]
    with pytest.raises(ParseError) as e:
        load(text)
    assert e.value.line == line
    assert str(e.value).startswith(f"line {line}: {message}")


def test_constructors_refuse_non_finite_numbers():
    for w in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="non-finite weight") as e:
            Graph(3, [(0, 1, 1.0), (1, 2, w)])
        assert e.value.row == 1
        with pytest.raises(DomainError, match="non-finite constraint weight") as e:
            CspInstance(3, CUT_PREDICATE, [(1.0, (1, 1), (0, 1)), (w, (1, 1), (1, 2))])
        assert e.value.row == 1
        with pytest.raises(ParameterError, match="group budget"):
            LpGroup(coeffs=np.ones((1, 2)), offsets=np.zeros(1), budget=w)
    with pytest.raises(DomainError, match="negative weight -1.0 on edge \\(0, 1\\)"):
        Graph(2, [(0, 1, -1.0)])


NOISE = st.lists(st.sampled_from(["", "   ", "# note", "  # indented", "\t#"]), max_size=2)


def _with_noise(data, text):
    """text with blank and '#' lines drawn in after the header line."""
    head, *body = text.splitlines()
    lines = [head]
    for line in body:
        lines += data.draw(NOISE) + [line]
    return "\n".join(lines + data.draw(NOISE)) + "\n"


FINITE = st.floats(min_value=0.0, max_value=1e300, allow_nan=False)


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 7))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(n, [(i, j, draw(FINITE)) for i, j in chosen])


@PROPS
@given(g=graphs(), data=st.data())
def test_edge_list_round_trip(g, data):
    for text in (save_edge_list(g), _with_noise(data, save_edge_list(g))):
        h = load_edge_list(text)
        assert h.n == g.n
        for a in ("edge_i", "edge_j", "edge_w"):
            assert np.array_equal(getattr(h, a), getattr(g, a))


@st.composite
def predictions(draw):
    labels = draw(st.lists(st.sampled_from([-1.0, 0.0, 1.0]), max_size=8))
    if draw(st.booleans()):
        eps = draw(st.floats(min_value=0.0, max_value=0.5, exclude_min=True, exclude_max=True))
        return NoisyPrediction(y=np.array([v or 1.0 for v in labels]), epsilon=eps)
    eps = draw(st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
    return PartialPrediction(y=np.array(labels), epsilon=eps)


@PROPS
@given(pred=predictions(), data=st.data())
def test_prediction_round_trip(pred, data):
    for text in (save_prediction(pred), _with_noise(data, save_prediction(pred))):
        loaded = load_prediction(text)
        assert type(loaded) is type(pred) and loaded.epsilon == pred.epsilon
        assert np.array_equal(loaded.y, pred.y)


@st.composite
def csps(draw):
    n = draw(st.integers(1, 6))
    var, sign = st.integers(0, n - 1), st.sampled_from([-1, 1])
    constraints = draw(st.lists(st.tuples(FINITE, st.tuples(sign, sign), st.tuples(var, var)),
                                max_size=8))
    bits = draw(st.sampled_from(["0110", "1000", "1110", "0001"]))
    return CspInstance(n, predicate_from_bits(bits), constraints)


@PROPS
@given(inst=csps(), data=st.data())
def test_csp_round_trip(inst, data):
    for text in (save_csp(inst), _with_noise(data, save_csp(inst))):
        loaded = load_csp(text, inst.predicate)
        assert loaded.n == inst.n
        for a in ("weight", "signs", "scope"):
            assert np.array_equal(getattr(loaded, a), getattr(inst, a))


@st.composite
def solutions(draw):
    k, rows = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    coords = st.floats(min_value=-1e6, max_value=1e6)
    V = np.array(draw(st.lists(st.lists(coords, min_size=k, max_size=k),
                               min_size=rows, max_size=rows)))
    return SdpSolution(vectors=V, objective_value=0.0, feasibility_report={})


@PROPS
@given(sol=solutions(), data=st.data())
def test_solution_round_trip(sol, data):
    for text in (save_solution(sol), _with_noise(data, save_solution(sol))):
        loaded = load_solution(text)
        assert loaded.dim == sol.dim and np.array_equal(loaded.vectors, sol.vectors)
