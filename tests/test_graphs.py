import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congestlab.errors import OutOfRange, RoundOutOfRange, SameLayerPair
from congestlab.graphs import (LAYERS, Layer, TypedTripartiteGraph, VertexId,
                               brute_force_has_triangle, pair_key)
from congestlab.protocols import vertex_input


def make_triangle_graph():
    g = TypedTripartiteGraph(3, 2)
    a, b, c = VertexId(Layer.A, 1), VertexId(Layer.B, 2), VertexId(Layer.C, 3)
    g.set_type(a, b, 0)
    g.set_type(b, c, 0)
    g.set_type(c, a, 0)
    g.set_type(VertexId(Layer.A, 2), VertexId(Layer.B, 1), 2)
    return g


def test_default_type_is_r_plus_1():
    g = TypedTripartiteGraph(2, 1)
    assert g.pair_type(VertexId(Layer.A, 1), VertexId(Layer.B, 1)) == 2


def test_same_layer_pair_rejected():
    g = TypedTripartiteGraph(2, 1)
    with pytest.raises(SameLayerPair):
        g.set_type(VertexId(Layer.A, 1), VertexId(Layer.A, 2), 0)


def test_out_of_range_rejected():
    g = TypedTripartiteGraph(2, 1)
    with pytest.raises(OutOfRange):
        g.pair_type(VertexId(Layer.A, 3), VertexId(Layer.B, 1))


def test_channels_at_round_cutoff():
    g = make_triangle_graph()  # r = 2
    round1 = g.channels_at_round(1)  # type <= 2
    round2 = g.channels_at_round(2)  # type <= 1
    assert len(round1) == 4
    assert len(round2) == 3
    with pytest.raises(RoundOutOfRange):
        g.channels_at_round(3)


def test_has_triangle_matches_brute_force():
    g = make_triangle_graph()
    assert g.has_triangle()
    assert brute_force_has_triangle(g)
    g2 = TypedTripartiteGraph(3, 2)
    g2.set_type(VertexId(Layer.A, 1), VertexId(Layer.B, 1), 0)
    assert not g2.has_triangle()
    assert not brute_force_has_triangle(g2)


def test_neighborhood_vector_roundtrip():
    g = make_triangle_graph()
    vec = g.neighborhood_vector(VertexId(Layer.A, 1), Layer.B)
    assert vec == [3, 0, 3]


def test_channel_degree_counts_default_complement():
    g = make_triangle_graph()
    a = VertexId(Layer.A, 1)
    assert g.channel_degree(a, 0, Layer.B) == 1
    assert g.channel_degree(a, g.default_type, Layer.B) == 2


def test_json_roundtrip_and_validate():
    g = make_triangle_graph()
    g2 = TypedTripartiteGraph.from_json(g.to_json())
    assert g == g2
    assert g.validate() == []


def test_from_dict_rejects_bad_type():
    with pytest.raises(ValueError):
        TypedTripartiteGraph.from_dict(
            {"n": 2, "r": 1, "pairs": [["A", 1, "B", 1, 9]]})


def test_pair_key_is_layer_ordered():
    u, v = VertexId(Layer.C, 1), VertexId(Layer.A, 2)
    assert pair_key(u, v) == (v, u)


@pytest.mark.parametrize("la, lb", [(Layer.A, Layer.B), (Layer.A, Layer.C),
                                    (Layer.B, Layer.C)])
def test_vertex_order_is_layer_value_then_index(la, lb):
    # has_triangle relies on canonical keys putting the A endpoint first
    assert la < lb and sorted(LAYERS) == list(LAYERS)
    vs = [VertexId(layer, i) for layer in (lb, la) for i in (3, 1, 2)]
    want = sorted(vs, key=lambda v: (v.layer.value, v.index))
    assert sorted(vs) == want
    for u in vs:
        for v in vs:
            if u.layer is not v.layer:
                key = pair_key(u, v)
                assert key == tuple(sorted((u, v)))
                assert key[0].layer is la


def test_vertices_enumeration():
    g = TypedTripartiteGraph(2, 0)
    assert len(list(g.vertices())) == 6
    assert all(v.layer in LAYERS for v in g.vertices())


@st.composite
def typed_graphs(draw):
    """A random typed graph in which A1's row toward B stores every slot
    and C_n stores none."""
    n = draw(st.integers(1, 6))
    r = draw(st.integers(0, 3))
    g = TypedTripartiteGraph(n, r)
    for la, lb in ((Layer.A, Layer.B), (Layer.A, Layer.C), (Layer.B, Layer.C)):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                g.set_type(VertexId(la, i), VertexId(lb, j),
                           draw(st.integers(0, r + 1)))
    a1 = VertexId(Layer.A, 1)
    for j in range(1, n + 1):
        g.set_type(a1, VertexId(Layer.B, j), draw(st.integers(0, r)))
    c_n = VertexId(Layer.C, n)
    for w in c_n.layer.others:
        for j in range(1, n + 1):
            g.set_type(c_n, VertexId(w, j), g.default_type)
    return g


@settings(max_examples=150, deadline=None)
@given(typed_graphs())
def test_type_rows_match_dense_vectors_slot_by_slot(g):
    n, r = g.n, g.r
    for v in g.vertices():
        inp = vertex_input(g, v)
        for w in v.layer.others:
            row, vec = inp.vectors[w], g.neighborhood_vector(v, w)
            assert len(row) == len(vec) == n
            assert list(row) == vec
            for i in range(-n, n):
                assert row[i] == vec[i]
            for i in (n, -n - 1):
                with pytest.raises(IndexError):
                    row[i]
            for t in range(r + 2):
                assert row.count(t) == vec.count(t)
                assert (t in row) == (t in vec)
        for i in range(1, r + 1):
            dense = [VertexId(w, j) for w in v.layer.others
                     for j, t in enumerate(g.neighborhood_vector(v, w), 1)
                     if t <= r + 1 - i]
            assert list(inp.partners_at_round(i)) == dense
    a1_row = vertex_input(g, VertexId(Layer.A, 1)).vectors[Layer.B]
    assert len(a1_row.slots) == n
    c_rows = vertex_input(g, VertexId(Layer.C, n)).vectors
    assert all(not row.slots for row in c_rows.values())
