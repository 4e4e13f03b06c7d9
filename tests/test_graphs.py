import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congestlab.errors import OutOfRange, SameLayerPair
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
    a1, a2 = VertexId(Layer.A, 1), VertexId(Layer.A, 2)
    with pytest.raises(SameLayerPair, match=r"pair \(A1, A2\) lies inside"):
        g.set_type(a1, a2, 0)
    with pytest.raises(SameLayerPair, match=r"pair \(A2, A1\) lies inside"):
        g.pair_type(a2, a1)


def test_out_of_range_rejected():
    g = TypedTripartiteGraph(2, 1)
    with pytest.raises(OutOfRange):
        g.pair_type(VertexId(Layer.A, 3), VertexId(Layer.B, 1))


@pytest.mark.parametrize("n, r, text", [
    (0, 1, "layer size must be positive, got 0"),
    (-2, 1, "layer size must be positive, got -2"),
    (2, -1, "round regime must be non-negative, got -1"),
])
def test_constructor_refuses_an_empty_layer_and_a_negative_regime(n, r, text):
    with pytest.raises(OutOfRange, match=text):
        TypedTripartiteGraph(n, r)


@pytest.mark.parametrize("t", [-1, 4])
def test_set_type_refuses_a_type_outside_zero_to_r_plus_1(t):
    # r = 2: the types are 0 .. 3; a refused write stores nothing
    g = make_triangle_graph()
    before = g.canonical_items()
    a, b = VertexId(Layer.A, 3), VertexId(Layer.B, 3)
    with pytest.raises(OutOfRange, match=rf"type {t} outside \[0, 3\]"):
        g.set_type(a, b, t)
    assert g.canonical_items() == before
    assert g.pair_type(a, b) == g.default_type
    # both ends of the range are accepted; the default type is not stored
    g.set_type(a, b, 0)
    g.set_type(a, b, 3)
    assert g.canonical_items() == before


@pytest.mark.parametrize("u, target, slots, error, text", [
    (VertexId(Layer.B, 1), Layer.B, {0: 0}, SameLayerPair,
     r"pair \(B1, B1\) lies inside layer B"),
    (VertexId(Layer.B, 1), Layer.B, {}, SameLayerPair,
     "row of B1 lies inside layer B"),
    (VertexId(Layer.A, 4), Layer.B, {0: 0}, OutOfRange,
     r"vertex A4 outside \[1, 3\]"),
    (VertexId(Layer.A, 0), Layer.C, {}, OutOfRange,
     r"vertex A0 outside \[1, 3\]"),
    (VertexId(Layer.A, 3), Layer.B, {0: 0, 1: 1, 3: 0}, OutOfRange,
     r"vertex B4 outside \[1, 3\]"),
    (VertexId(Layer.C, 2), Layer.A, {2: 0, -1: 1}, OutOfRange,
     r"vertex A0 outside \[1, 3\]"),
    (VertexId(Layer.A, 3), Layer.C, {0: 0, 2: 4}, OutOfRange,
     r"pair \(A3, C3\) type 4 outside \[0, 3\]"),
    (VertexId(Layer.B, 3), Layer.C, {1: -1, 2: 0}, OutOfRange,
     r"pair \(B3, C2\) type -1 outside \[0, 3\]"),
], ids=["same-layer", "same-layer-empty", "u-above", "u-below",
        "slot-above", "slot-below", "type-above", "type-below"])
def test_set_row_refuses_what_set_type_refuses_and_writes_nothing(
        u, target, slots, error, text):
    # n = 3, r = 2: slots 0 .. 2, types 0 .. 3; the row is checked whole, so
    # the good slots of a refused row are not written either
    g = make_triangle_graph()
    before = g.canonical_items()
    with pytest.raises(error, match=text):
        g.set_row(u, target, slots)
    assert g.canonical_items() == before


def test_set_row_writes_both_ends_of_its_ranges():
    # slots 0 and n-1, types 0 and r; a default type removes the pair
    g = make_triangle_graph()
    a1 = VertexId(Layer.A, 1)
    g.set_row(a1, Layer.C, {0: 0, 2: 2})
    assert g.neighborhood_vector(a1, Layer.C) == [0, 3, 2]
    g.set_row(a1, Layer.C, {0: 3, 2: 3})
    assert g.neighborhood_vector(a1, Layer.C) == [3, 3, 3]
    assert g.pair_type(VertexId(Layer.C, 3), a1) == g.default_type


def test_neighborhood_vector_refuses_the_vertex_own_layer():
    g = make_triangle_graph()
    with pytest.raises(SameLayerPair):
        g.neighborhood_vector(VertexId(Layer.B, 1), Layer.B)


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


def test_type_row_count_counts_default_complement():
    g = make_triangle_graph()
    a = VertexId(Layer.A, 1)
    rows = g.type_rows(a)
    assert rows[Layer.B].count(0) == 1
    assert rows[Layer.B].count(g.default_type) == 2
    # every stored slot is a channel: the default type is never stored
    assert sum(len(row.slots) for row in rows.values()) == 2
    assert sum(len(row.slots)
               for row in g.type_rows(VertexId(Layer.B, 1)).values()) == 1


def test_json_roundtrip():
    g = make_triangle_graph()
    g2 = TypedTripartiteGraph.from_json(g.to_json())
    assert g == g2


def test_from_dict_rejects_bad_type():
    with pytest.raises(OutOfRange, match=r"type 9 outside \[0, 2\]"):
        TypedTripartiteGraph.from_dict(
            {"n": 2, "r": 1, "pairs": [["A", 1, "B", 1, 9]]})


@pytest.mark.parametrize("pair, error", [
    (["A", 1, "A", 2, 0], SameLayerPair),
    (["A", 3, "B", 1, 0], OutOfRange),
    (["A", 1, "C", 0, 0], OutOfRange),
    (["A", 1, "B", 1, -1], OutOfRange),
    (["A", 1, "B", 1, 3], OutOfRange),
])
def test_from_dict_refuses_pairs_set_type_refuses(pair, error):
    # the instance file goes through set_type, the graph's one write gate
    with pytest.raises(error):
        TypedTripartiteGraph.from_dict({"n": 2, "r": 1, "pairs": [pair]})


def test_pair_key_is_layer_ordered():
    u, v = VertexId(Layer.C, 1), VertexId(Layer.A, 2)
    assert pair_key(u, v) == (v, u)


@pytest.mark.parametrize("la, lb", [(Layer.A, Layer.B), (Layer.A, Layer.C),
                                    (Layer.B, Layer.C)])
def test_vertex_order_is_layer_value_then_index(la, lb):
    # stored_pairs and pair_key rely on this to put the A endpoint first
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


def test_vertex_id_contract():
    # the hash is that of the bare (layer, index) tuple, which is what keeps
    # every hash-ordered set, and so every seeded draw, in the same order
    for layer in LAYERS:
        for i in (1, 2, 29, 5000):
            assert hash(VertexId(layer, i)) == hash((layer, i))
    vs = [VertexId(Layer.C, 1), VertexId(Layer.A, 10), VertexId(Layer.B, 2),
          VertexId(Layer.A, 9)]
    assert sorted(vs) == sorted(vs, key=lambda v: (v.layer.value, v.index))
    assert [repr(v) for v in sorted(vs)] == ["A9", "A10", "B2", "C1"]
    assert f"{VertexId(Layer.B, 7)}" == "B7"
    v = VertexId(Layer.A, 1)
    for field, value in (("layer", Layer.B), ("index", 2)):
        with pytest.raises(AttributeError):
            setattr(v, field, value)
    assert v == VertexId(Layer.A, 1)


def test_channel_free_vertices_share_one_read_only_empty_row():
    g = make_triangle_graph()
    free = VertexId(Layer.C, 1)
    rows = g.type_rows(free)
    assert list(rows) == [Layer.A, Layer.B]
    for w, row in rows.items():
        assert list(row) == g.neighborhood_vector(free, w)
    assert rows[Layer.A] is g.type_rows(VertexId(Layer.B, 3))[Layer.A]
    with pytest.raises(TypeError):
        rows[Layer.A].slots[0] = 0


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


CROSS_PAIRS = [(VertexId(la, i), VertexId(lb, j))
               for la, lb in ((Layer.A, Layer.B), (Layer.A, Layer.C),
                              (Layer.B, Layer.C))
               for i in range(1, 4) for j in range(1, 4)]
ROWS = [(VertexId(layer, i), target) for layer in LAYERS
        for i in range(1, 4) for target in layer.others]


@st.composite
def pair_writes(draw):
    """A regime r and a sequence of writes on a 3-per-layer graph: set_type
    on one pair, in either endpoint order, or set_row on some slots of one
    vertex's row toward a layer; some of them back to the default type."""
    r = draw(st.integers(0, 2))
    types = st.integers(0, r + 1)
    one = st.tuples(st.sampled_from(CROSS_PAIRS), st.booleans(), types)
    row = st.tuples(st.sampled_from(ROWS),
                    st.dictionaries(st.integers(0, 2), types, max_size=3))
    return r, draw(st.lists(st.one_of(one, row), max_size=40))


def _written(r, writes):
    g = TypedTripartiteGraph(3, r)
    for write in writes:
        if len(write) == 2:
            (u, target), slots = write
            g.set_row(u, target, slots)
        else:
            (u, v), flip, t = write
            g.set_type(*((v, u) if flip else (u, v)), t)
    return g


def _model(writes) -> dict:
    """The last type written to each pair, keyed by its canonical pair."""
    final = {}
    for write in writes:
        if len(write) == 2:
            (u, target), slots = write
            for j, t in slots.items():
                final[pair_key(u, VertexId(target, j + 1))] = t
        else:
            (u, v), _, t = write
            final[(u, v)] = t
    return final


@settings(max_examples=200, deadline=None)
@given(pair_writes(), st.randoms(use_true_random=False))
def test_stored_pairs_are_each_non_default_pair_once(drawn, rnd):
    r, writes = drawn
    g = _written(r, writes)
    stored = list(g.stored_pairs())
    keys = [(u, v) for u, v, _ in stored]
    assert len(keys) == len(set(keys))
    assert all(u.layer < v.layer for u, v in keys)
    scan = {(u, v): g.pair_type(v, u) for u, v in CROSS_PAIRS
            if g.pair_type(u, v) != g.default_type}
    final = _model(writes)
    assert {(u, v): t for u, v, t in stored} == scan == {
        key: t for key, t in final.items() if t != g.default_type}
    # the same pairs written one at a time in another order give an equal
    # graph
    items = list(final.items())
    rnd.shuffle(items)
    other = _written(r, [(key, False, t) for key, t in items])
    assert other == g and hash(other) == hash(g)
    assert TypedTripartiteGraph.from_dict(g.to_dict()) == g


@settings(max_examples=200, deadline=None)
@given(pair_writes())
def test_type_rows_keep_their_slots_in_ascending_order(drawn):
    # ``TypeRow`` takes its slots as given, so ``type_rows`` must sort them
    # whatever order the pairs were written and removed in
    r, writes = drawn
    g = _written(r, writes)
    for v in g.vertices():
        for w, row in g.type_rows(v).items():
            keys = list(row.slots)
            assert all(a < b for a, b in zip(keys, keys[1:])), (v, w, keys)
            assert g.default_type not in row.slots.values()
            assert list(row) == g.neighborhood_vector(v, w)


@pytest.mark.parametrize("obj", [
    {"n": 2, "r": 1, "pairs": [["A", 1, "B", 1, 0.7]]},
    {"n": 2, "r": 1, "pairs": [["A", 1.0, "B", 1, 0]]},
    {"n": 2, "r": 1, "pairs": [["A", 1, "B", True, 0]]},
    {"n": 2.5, "r": 1, "pairs": []},
    {"n": 2, "r": False, "pairs": []},
], ids=["float-type", "whole-float-index", "bool-index", "float-n", "bool-r"])
def test_from_dict_accepts_only_json_integers(obj):
    with pytest.raises(ValueError, match="must be an integer"):
        TypedTripartiteGraph.from_dict(obj)


@pytest.mark.parametrize("second", [["A", 1, "B", 1, 2], ["B", 1, "A", 1, 0]],
                         ids=["same-orientation", "reversed"])
def test_from_dict_refuses_a_pair_listed_twice(second):
    # the last copy used to win, so a type-2 copy silently removed the edge
    obj = {"n": 1, "r": 1, "pairs": [["A", 1, "B", 1, 0], second]}
    with pytest.raises(ValueError, match=r"pair \(A1, B1\) listed twice"):
        TypedTripartiteGraph.from_dict(obj)
