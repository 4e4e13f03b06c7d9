import random
from fractions import Fraction

import pytest

from congestlab.errors import InfeasibleParams
from congestlab.graphs import LAYERS, Layer, VertexId
from congestlab.params import ParamSchedule
from congestlab.sampling import (build_gr_frame, enumerate_g0, inner_views,
                                 rebuild_from_inner_views, sample_aux,
                                 sample_d_in, sample_d_in_conditioned,
                                 sample_g0, sample_gr, sample_gr_tilde,
                                 sample_tilde_input, _sample_ids)

MICRO = ParamSchedule(n=[1, 29], d=[6], alpha=[1], beta=[1], gamma=[1])
SMALL2 = ParamSchedule(n=[2, 2000], d=[8], alpha=[1], beta=[1], gamma=[1])


def test_g0_starred_pairs_are_binary():
    g, starred = sample_g0(3, random.Random(0))
    a, b, c = starred
    for u, v in ((a, b), (b, c), (c, a)):
        assert g.pair_type(u, v) in (0, 1)


def test_g0_non_starred_pairs_default():
    g, (a, b, c) = sample_g0(3, random.Random(1))
    for j in range(1, 4):
        v = VertexId(Layer.B, j)
        if v != b:
            assert g.pair_type(a, v) == 1


def test_enumerate_g0_weights_sum_to_one():
    total = sum(w for _, _, w in enumerate_g0(2))
    assert total == Fraction(1)
    assert sum(1 for _ in enumerate_g0(2)) == 2 ** 3 * 8


def test_g0_edge_marginal_is_half():
    hits = 0
    trials = 4000
    for i in range(trials):
        g, (a, b, _) = sample_g0(2, random.Random(i))
        hits += g.pair_type(a, b) == 0
    assert abs(hits / trials - 0.5) < 0.03


def test_gr_per_type_degree_exact():
    g, emb = sample_gr(SMALL2, 1, random.Random(5))
    for v in emb.inner_vertices():
        u = emb.outer(v)
        for w in v.layer.others:
            for t in (0, 1):
                assert g.channel_degree(u, t, w) == 8


def test_gr_outer_degree_at_most_one():
    g, emb = sample_gr(SMALL2, 1, random.Random(6))
    starred = {layer: emb.starred(layer) for layer in LAYERS}
    for u in g.vertices():
        if u.index not in starred[u.layer]:
            assert g.total_channel_degree(u) <= 1


def test_gr_triangle_equivalence():
    for seed in range(40):
        g, emb = sample_gr(SMALL2, 1, random.Random(seed))
        assert g.has_triangle() == emb.inner.has_triangle()


def test_inner_views_fix_graph():
    g, emb = sample_gr(MICRO, 1, random.Random(7))
    views = inner_views(g, emb)
    g2 = rebuild_from_inner_views(g.n, 1, emb.ids, views)
    assert g2 == g


def test_frame_build_is_deterministic():
    inner, _ = sample_g0(1, random.Random(8))
    g1, _ = build_gr_frame(inner, MICRO, 1)
    g2, _ = build_gr_frame(inner, MICRO, 1)
    assert g1 == g2


def test_frame_rejects_size_mismatch():
    inner, _ = sample_g0(2, random.Random(9))
    with pytest.raises(InfeasibleParams):
        build_gr_frame(inner, MICRO, 1)


def test_d_in_has_exact_type_counts():
    v1, v2 = sample_d_in(MICRO, 1, random.Random(10))
    for vec in (v1, v2):
        assert len(vec) == 29
        assert vec.count(0) == 6
        assert vec.count(1) == 6


@pytest.mark.parametrize("n0", [1, 2, 3, 5])
def test_level0_d_in_equals_g0_projection(n0):
    # level 0 draws A1's vectors directly; they and the stream position must
    # equal projecting A1 out of a whole sample_g0 instance
    p = ParamSchedule(n=[n0])
    a1 = VertexId(Layer.A, 1)
    for seed in range(300):
        rng = random.Random(seed)
        g, _ = sample_g0(n0, rng)
        expect = (g.neighborhood_vector(a1, Layer.B),
                  g.neighborhood_vector(a1, Layer.C))
        ref = rng.random()
        rng = random.Random(seed)
        assert sample_d_in(p, 0, rng) == expect
        assert rng.random() == ref


def test_d_in_conditioned_respects_slot():
    for t in (0, 1):
        kept, other = sample_d_in_conditioned(
            ParamSchedule(n=[1]), 0, t, 0, 1, random.Random(11))
        # level 0 at n0=1: the conditioning slot is removed, leaving nothing
        assert kept == []
        assert len(other) == 1


def test_aux_sets_disjoint_and_sized():
    ids = _sample_ids(29, 1, random.Random(12))
    aux = sample_aux(ids, MICRO, 1, random.Random(12))
    for layer in LAYERS:
        elems = aux.elements_in_layer(layer)
        assert len(elems) == len(set(elems))
        assert not set(elems) & set(ids[layer])
    x = VertexId(Layer.A, 1)
    assert len(aux.J[x]) == 1
    for target in (Layer.B, Layer.C):
        for t in (0, 1):
            sets = aux.K[(x, target, t, 1)]
            assert len(sets) == 1
            assert len(sets[0].members[target]) == 0  # n_prev - 1
            assert len(aux.L[(x, target, t, 1)]) == 1


def test_tilde_input_per_type_degree_exact():
    ids = _sample_ids(29, 1, random.Random(13))
    aux = sample_aux(ids, MICRO, 1, random.Random(13))
    x = VertexId(Layer.B, 1)
    vecs = sample_tilde_input(x, ids, aux, MICRO, 1, random.Random(13))
    for w in (Layer.A, Layer.C):
        assert vecs[w].count(0) == 6
        assert vecs[w].count(1) == 6


def test_tilde_input_keeps_given_inner_slot():
    ids = _sample_ids(29, 1, random.Random(14))
    aux = sample_aux(ids, MICRO, 1, random.Random(14))
    x = VertexId(Layer.A, 1)
    n_in = {Layer.B: [0], Layer.C: [1]}
    vecs = sample_tilde_input(x, ids, aux, MICRO, 1, random.Random(14),
                              n_in=n_in)
    assert vecs[Layer.B][ids[Layer.B][0] - 1] == 0
    assert vecs[Layer.C][ids[Layer.C][0] - 1] == 1


def test_gr_tilde_flags_and_degrees():
    g, emb, aux, flag = sample_gr_tilde(MICRO, 1, random.Random(15))
    assert isinstance(flag, bool)
    for v in emb.inner_vertices():
        u = emb.outer(v)
        for w in v.layer.others:
            for t in (0, 1):
                assert g.channel_degree(u, t, w) == 6


def test_gr_tilde_inner_marginal_preserved():
    # the embedded inner pair types agree with the drawn inner instance
    g, emb, _, _ = sample_gr_tilde(MICRO, 1, random.Random(16))
    for la, lb in ((Layer.A, Layer.B), (Layer.A, Layer.C),
                   (Layer.B, Layer.C)):
        u, v = VertexId(la, 1), VertexId(lb, 1)
        assert (g.pair_type(emb.outer(u), emb.outer(v))
                == emb.inner.pair_type(u, v))
