import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from predcut import graph
from predcut.errors import DimensionError, DomainError, ParameterError, ParseError
from predcut.graph import (CutAssignment, Graph, classify, cut_value,
                           delta_prefix_weight, frac_objective, gen_erdos_renyi,
                           load_edge_list, save_edge_list, truncated_adjacency)

from conftest import random_cut, random_graph


def k3():
    return Graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])


def test_cut_value_triangle():
    assert cut_value(k3(), np.array([1.0, 1.0, -1.0])) == 2.0


def test_cut_value_uncut_edge():
    g = Graph(2, [(0, 1, 3.0)])
    assert cut_value(g, np.array([1.0, 1.0])) == 0.0


def test_cut_value_matches_laplacian_quadratic_form():
    # independent oracle: dense Laplacian from the edge list, (1/4) <x, Lx>
    rng = np.random.default_rng(42)
    g = gen_erdos_renyi(8, 0.5, "uniform", seed=5)
    L = np.zeros((8, 8))
    for i, j, w in zip(g.edge_i, g.edge_j, g.edge_w):
        L[i, i] += w
        L[j, j] += w
        L[i, j] -= w
        L[j, i] -= w
    for _ in range(20):
        x = random_cut(rng, 8)
        assert cut_value(g, x) == pytest.approx(0.25 * x @ L @ x, abs=1e-9)


def test_cut_value_dimension_error():
    with pytest.raises(DimensionError):
        cut_value(k3(), np.ones(4))


def test_frac_objective_zero_vector_is_quarter_weight():
    g = k3()
    assert frac_objective(g, np.zeros(3)) == pytest.approx(g.total_weight / 4)


def test_frac_objective_agrees_with_cut_value_on_integral():
    assert frac_objective(k3(), np.array([1.0, 1.0, -1.0])) == pytest.approx(2.0)
    rng = np.random.default_rng(3)
    for _ in range(30):
        g = random_graph(rng)
        x = random_cut(rng, g.n)
        assert frac_objective(g, x) == pytest.approx(cut_value(g, x), abs=1e-9)


def test_frac_objective_k2_half_labels():
    g = Graph(2, [(0, 1, 1.0)])
    assert frac_objective(g, np.array([0.5, -0.5])) == pytest.approx(0.625)


def test_frac_objective_domain_error():
    with pytest.raises(DomainError):
        frac_objective(k3(), np.array([1.5, 0.0, 0.0]))


def test_complement_flip_invariance():
    rng = np.random.default_rng(11)
    for _ in range(20):
        g = random_graph(rng)
        x = random_cut(rng, g.n)
        assert cut_value(g, x) == cut_value(g, -x)


def test_quadratic_form_identity():
    rng = np.random.default_rng(12)
    for _ in range(20):
        g = random_graph(rng)
        x = random_cut(rng, g.n)
        L = np.diag(g.weighted_degrees) - g.csr.toarray()
        assert x @ L @ x == pytest.approx(4 * cut_value(g, x), abs=1e-9)


def star_vertex_graph():
    # one center with incident weights 5, 3, 1
    return Graph(4, [(0, 1, 5.0), (0, 2, 3.0), (0, 3, 1.0)])


def test_delta_prefix_weight_examples():
    g = star_vertex_graph()
    assert delta_prefix_weight(g, 0, 2) == 8.0
    assert delta_prefix_weight(g, 0, 0) == 0.0
    assert delta_prefix_weight(g, 0, 7) == g.weighted_degrees[0]


def test_delta_prefix_weight_monotone_in_delta():
    rng = np.random.default_rng(13)
    for _ in range(10):
        g = random_graph(rng)
        for i in range(g.n):
            prev = 0.0
            for d in range(g.n + 1):
                cur = delta_prefix_weight(g, i, d)
                assert cur >= prev - 1e-12
                prev = cur


def test_delta_prefix_invalid_vertex():
    with pytest.raises(DomainError):
        delta_prefix_weight(k3(), 5, 1)


def ten_unit_edges_vertex():
    edges = [(0, j, 1.0) for j in range(1, 11)]
    return Graph(11, edges)


def test_classify_vertex_wide_then_narrow():
    g = ten_unit_edges_vertex()
    assert classify(g, 2, 0.3).wide_mask[0]          # prefix 2 <= 3
    assert not classify(g, 4, 0.3).wide_mask[0]      # prefix 4 > 3


def test_classify_star_graph_example():
    g = ten_unit_edges_vertex()  # star K_{1,10}
    rep = classify(g, 2, 0.3)
    assert rep.wide_mask[0]
    assert not rep.wide_mask[1:].any()   # each leaf: prefix 1 > 0.3
    assert rep.wide_weight == 10.0
    assert rep.narrow_weight == 10.0
    assert rep.graph_class == "narrow"   # 10 < 0.7 * 20


def test_classify_weight_partition():
    rng = np.random.default_rng(14)
    for _ in range(20):
        g = random_graph(rng)
        rep = classify(g, int(rng.integers(1, 5)), float(rng.uniform(0.05, 0.45)))
        assert rep.wide_weight + rep.narrow_weight == pytest.approx(g.total_weight)


def test_classify_zero_degree_vertex_is_wide():
    g = Graph(3, [(0, 1, 2.0)])
    assert classify(g, 1, 0.3).wide_mask[2]


def test_classify_parameter_errors():
    with pytest.raises(ParameterError):
        classify(k3(), 1, 0.5)
    with pytest.raises(ParameterError):
        classify(k3(), 0, 0.3)


def test_truncated_adjacency_tie_break_lower_index():
    # path 1 - 0 - 2, unit weights; row 0 zeroes the edge to neighbor 1
    g = Graph(3, [(0, 1, 1.0), (0, 2, 1.0)])
    At = truncated_adjacency(g, 1).toarray()
    assert At[0, 1] == 0.0 and At[0, 2] == 1.0
    assert not At[1].any() and not At[2].any()


def test_truncated_adjacency_delta_zero_is_adjacency():
    g = random_graph(np.random.default_rng(15))
    assert np.array_equal(truncated_adjacency(g, 0).toarray(), g.csr.toarray())


def test_truncated_adjacency_entry_bound():
    # exhaustive row scan: every surviving entry of row i is <= W_i / delta
    rng = np.random.default_rng(16)
    for _ in range(20):
        g = random_graph(rng)
        delta = int(rng.integers(1, 5))
        At = truncated_adjacency(g, delta).toarray()
        for i in range(g.n):
            row = At[i]
            assert np.all(row <= g.weighted_degrees[i] / delta + 1e-12)
            assert np.all(row <= g.csr[i].toarray()[0] + 1e-15)


def test_truncated_adjacency_wide_row_sum():
    rng = np.random.default_rng(17)
    for _ in range(10):
        g = random_graph(rng)
        delta, eta = int(rng.integers(1, 4)), float(rng.uniform(0.1, 0.45))
        rep = classify(g, delta, eta)
        At = truncated_adjacency(g, delta)
        for i in np.nonzero(rep.wide_mask)[0]:
            assert At[i].sum() >= (1 - eta) * g.weighted_degrees[i] - 1e-9


def test_gen_complete_graph():
    g = gen_erdos_renyi(4, 1.0, "unit", seed=0)
    assert g.num_edges == 6
    assert g.total_weight == 12.0


def test_gen_determinism():
    a = gen_erdos_renyi(30, 0.4, "uniform", seed=9)
    b = gen_erdos_renyi(30, 0.4, "uniform", seed=9)
    for name in ("edge_i", "edge_j", "edge_w"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_gen_planted_crossing_fraction():
    g = gen_erdos_renyi(100, 0.0, "planted", seed=21, q_cross=0.9, q_within=0.1)
    assert g.planted is not None
    x = g.planted
    crossing = g.edge_w[x[g.edge_i] != x[g.edge_j]].sum()
    frac = crossing / g.edge_w.sum()
    # expected ~0.9*2500 / (0.9*2500 + 0.1*2450) ~ 0.902; binomial spread stays inside
    assert 0.80 <= frac <= 0.95


def test_gen_planted_stores_given_ground_truth():
    truth = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    g = gen_erdos_renyi(6, 0.0, "planted", seed=1, q_cross=1.0, q_within=0.0,
                        ground_truth=truth)
    assert np.array_equal(g.planted, truth)
    assert np.all(truth[g.edge_i] != truth[g.edge_j])


def _one_draw_erdos_renyi(n, p, weight_law, seed, q_cross, q_within):
    """The generator as one uniform draw over all n(n-1)/2 pairs: (i, j, w, planted truth)."""
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    if weight_law == "planted":
        truth = np.ones(n)
        truth[rng.permutation(n)[: n // 2]] = -1.0
        present = rng.random(len(iu)) < np.where(truth[iu] != truth[ju], q_cross, q_within)
        return iu[present], ju[present], np.ones(int(present.sum())), truth
    present = rng.random(len(iu)) < p
    k = int(present.sum())
    w = np.ones(k) if weight_law == "unit" else 1.0 - rng.random(k)
    return iu[present], ju[present], w, None


PROBABILITIES = st.floats(0.0, 1.0)


@settings(max_examples=60)
@given(n=st.integers(1, 300), law=st.sampled_from(["unit", "uniform", "planted"]),
       p=PROBABILITIES, q_cross=PROBABILITIES, q_within=PROBABILITIES,
       seed=st.integers(0, 2 ** 32 - 1), block=st.sampled_from([1, 7, 100, 5000]))
def test_gen_in_row_blocks_matches_one_draw(n, law, p, q_cross, q_within, seed, block):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "BLOCK_PAIRS", block)
        g = gen_erdos_renyi(n, p, law, seed=seed, q_cross=q_cross, q_within=q_within)
    i, j, w, truth = _one_draw_erdos_renyi(n, p, law, seed, q_cross, q_within)
    assert g.edge_i.tolist() == i.tolist() and g.edge_j.tolist() == j.tolist()
    assert g.edge_w.tolist() == w.tolist()
    assert (g.planted is None) if truth is None else g.planted.tolist() == truth.tolist()


def test_gen_invalid_probability():
    with pytest.raises(ParameterError):
        gen_erdos_renyi(5, 1.5, "unit", seed=0)
    with pytest.raises(ParameterError):
        gen_erdos_renyi(5, 0.5, "planted", seed=0, q_cross=2.0, q_within=0.1)


def test_load_edge_list_path_graph():
    g = load_edge_list("3 2\n0 1 1.0\n0 2 2.0")
    assert g.weighted_degrees[0] == 3.0
    assert g.num_edges == 2


def test_load_edge_list_errors_carry_line_numbers():
    with pytest.raises(ParseError) as e:
        load_edge_list("2 1\n0 0 1.0")
    assert e.value.line == 2
    with pytest.raises(ParseError):
        load_edge_list("2 1\n0 1 -2.0")
    with pytest.raises(ParseError):
        load_edge_list("2 1\n0 5 1.0")
    with pytest.raises(ParseError):
        load_edge_list("2 2\n0 1 1.0\n0 1 2.0")
    with pytest.raises(ParseError):
        load_edge_list("2 1\n1 0 1.0")


def test_edge_list_round_trip():
    rng = np.random.default_rng(18)
    for _ in range(10):
        g = random_graph(rng)
        h = load_edge_list(save_edge_list(g))
        assert h.n == g.n
        for a in ("edge_i", "edge_j", "edge_w"):
            assert np.array_equal(getattr(h, a), getattr(g, a))


def test_comments_ignored():
    g = load_edge_list("# a comment\n2 1\n# another\n0 1 2.5\n")
    assert (g.edge_i.tolist(), g.edge_j.tolist(), g.edge_w.tolist()) == ([0], [1], [2.5])


def test_cut_assignment_validation():
    with pytest.raises(DomainError):
        CutAssignment(values=np.array([1.0, 0.5]))


def test_graph_construction_validation():
    with pytest.raises(DomainError):
        Graph(3, [(0, 0, 1.0)])
    with pytest.raises(DomainError):
        Graph(3, [(0, 1, -1.0)])
    with pytest.raises(DomainError):
        Graph(3, [(0, 1, 1.0), (1, 0, 2.0)])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_vertex_id_is_out_of_range(bad):
    with pytest.raises(DomainError, match=r"vertex id out of range: \((nan|inf|-inf), 1\)") as e:
        Graph(3, [(0, 2, 1.0), (bad, 1, 1.0)])
    assert e.value.row == 1


def test_only_the_exact_oracle_and_the_triangle_sdp_build_the_dense_adjacency(monkeypatch):
    # a Graph keeps no dense matrix, so each dense weight matrix is one
    # toarray() of a CSR matrix; record the shape of every such call
    import scipy.sparse as sp
    from predcut.exact import exact_maxcut
    from predcut.pipeline import choose_delta, solve_noisy
    from predcut.predictions import sample_noisy
    from predcut.sdp import SdpConfig, solve_gw, solve_sdp
    from predcut.wide import solve_wide

    def fresh():
        return gen_erdos_renyi(40, 0.0, "planted", seed=3, q_cross=0.6, q_within=0.3)

    y = sample_noisy(fresh().planted, 0.3, seed=1)
    assert classify(fresh(), choose_delta(0.3, 0.2, 0.003), 0.3).is_wide
    calls = {
        "solve_wide repeat": lambda g: solve_wide(g, y, 2, 0.3, 0.2, rounding="repeat", seed=1),
        "solve_wide pipage": lambda g: solve_wide(g, y, 2, 0.3, 0.2, rounding="pipage", seed=1),
        "solve_noisy wide": lambda g: solve_noisy(g, y, eta=0.3, eps_prime=0.2, c_delta=0.003,
                                                  seed=2),
        "solve_sdp": lambda g: solve_sdp(g, SdpConfig(seed=1)),
        "solve_gw": lambda g: solve_gw(g, 1, 2, 5),
    }
    densified = []
    toarray = sp.csr_matrix.toarray

    def recording(self, *args, **kwargs):
        densified.append(self.shape)
        return toarray(self, *args, **kwargs)

    monkeypatch.setattr(sp.csr_matrix, "toarray", recording)
    for name, call in calls.items():
        call(fresh())
        assert densified == [], name
    solve_sdp(fresh(), SdpConfig(triangle=True, seed=1))
    assert densified == [(40, 40)]
    densified.clear()
    exact_maxcut(Graph(5, [(0, 1, 1.0), (1, 2, 2.0), (3, 4, 0.5)]))
    assert densified == [(5, 5)]
