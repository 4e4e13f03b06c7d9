import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from congestlab.elimination import EliminationConfig, hybrid_sampler
from congestlab.errors import InfeasibleParams
from congestlab.graphs import (LAYERS, Layer, TypedTripartiteGraph, TypeRow,
                               VertexId)
from congestlab.params import (ParamSchedule, aux_draws_per_vertex_layer,
                               feasibility_check,
                               restructured_feasibility_check)
from congestlab.protocols import registry
from congestlab.sampling import (build_gr_frame, enumerate_g0,
                                 inner_cross_pairs, inner_views,
                                 public_slots, rebuild_from_inner_views,
                                 sample_aux, sample_d_in,
                                 sample_d_in_conditioned, sample_frame,
                                 sample_g0, sample_gr, sample_gr_tilde,
                                 sample_inner, sample_tilde_input,
                                 _sample_ids, _sample_missing)
from schedules import LEVEL2, LOOSE, MICRO, SMALL2, WIDE2

SCHEDULES = {"MICRO": MICRO, "WIDE2": WIDE2, "LOOSE": LOOSE,
             # MICRO's parameters at the smallest sizes the room rule admits
             **{f"MICRO-n{n}": ParamSchedule(n=[1, n], d=[6], alpha=[1],
                                             beta=[1], gamma=[1])
                for n in (26, 27, 28)}}


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
    for v in emb.inner.vertices():
        u = emb.outer(v)
        for w in v.layer.others:
            for t in (0, 1):
                assert g.type_rows(u)[w].count(t) == 8


def test_gr_outer_degree_at_most_one():
    g, emb = sample_gr(SMALL2, 1, random.Random(6))
    starred = {layer: set(emb.ids[layer]) for layer in LAYERS}
    for u in g.vertices():
        if u.index not in starred[u.layer]:
            assert sum(len(row.slots) for row in g.type_rows(u).values()) <= 1


def test_gr_triangle_equivalence():
    for seed in range(40):
        g, emb = sample_gr(SMALL2, 1, random.Random(seed))
        assert g.has_triangle() == emb.inner.has_triangle()


def test_gr_level2_invariants():
    # a level-2 draw recurses through a level-1 inner instance; seed 12's
    # inner instance has a triangle and seed 0's has none
    assert feasibility_check(LEVEL2) == []
    triangles = set()
    for seed in (0, 12):
        g, emb = sample_gr(LEVEL2, 2, random.Random(seed))
        inner = emb.inner
        assert (inner.n, inner.r) == (29, 1)
        for v in inner.vertices():
            for w in v.layer.others:
                for t in (0, 1, 2):
                    assert g.type_rows(emb.outer(v))[w].count(t) == 30
        starred = {layer: set(emb.ids[layer]) for layer in LAYERS}
        touched = {w for u, v, _ in g.stored_pairs() for w in (u, v)}
        assert all(sum(len(row.slots) for row in g.type_rows(u).values()) <= 1
                   for u in touched if u.index not in starred[u.layer])
        for u, v, t in inner_cross_pairs(inner):
            assert g.pair_type(emb.outer(u), emb.outer(v)) == t
        assert g.has_triangle() == inner.has_triangle()
        triangles.add(inner.has_triangle())
    assert triangles == {False, True}


def test_inner_views_fix_graph():
    # every way an instance is built: the recursive family at both levels
    # and on the canonical frame, the restructured family, a staged hybrid
    rng = random.Random(7)
    draws = [sample_gr(p, level, rng)
             for p, level in ((MICRO, 1), (WIDE2, 1), (LEVEL2, 2))]
    draws.append(build_gr_frame(sample_g0(1, rng)[0], MICRO, 1))
    draws += [sample_gr_tilde(p, 1, rng)[:2] for p in (LOOSE, WIDE2)]
    draws.append(hybrid_sampler("dfake", registry(1, 1)["type-broadcast"],
                                EliminationConfig(params=MICRO), 7)[:2])
    for g, emb in draws:
        views = inner_views(g, emb)
        assert rebuild_from_inner_views(g.n, g.r, emb.ids, views) == g


def test_frame_build_is_deterministic():
    inner, _ = sample_g0(1, random.Random(8))
    g1, _ = build_gr_frame(inner, MICRO, 1)
    g2, _ = build_gr_frame(inner, MICRO, 1)
    assert g1 == g2


def test_frame_rejects_size_mismatch():
    inner, _ = sample_g0(2, random.Random(9))
    with pytest.raises(InfeasibleParams):
        build_gr_frame(inner, MICRO, 1)


def test_frame_rejects_an_inner_instance_of_the_wrong_regime():
    # a regime-1 inner pair defaults to type 2, the level-1 outer default:
    # no channel, where a regime-0 inner pair is a non-edge channel
    with pytest.raises(InfeasibleParams, match="r=1"):
        build_gr_frame(TypedTripartiteGraph(1, 1), MICRO, 1)
    g, _ = build_gr_frame(TypedTripartiteGraph(1, 0), MICRO, 1)
    assert g.pair_type(VertexId(Layer.A, 1), VertexId(Layer.B, 1)) == 1


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


@pytest.mark.parametrize("t, slot_position, slot_index", [
    (2, 0, 1), (-1, 0, 1), (0, 2, 1), (0, 0, 0), (1, 1, 4),
], ids=["type-2", "type-minus-1", "position-2", "slot-0", "slot-n0-plus-1"])
def test_d_in_conditioned_refuses_an_impossible_condition_before_any_draw(
        t, slot_position, slot_index):
    # a level-0 row has n0 = 3 slots per position and carries types 0 and 1
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(InfeasibleParams, match="no level-0 row carries"):
        sample_d_in_conditioned(ParamSchedule(n=[3]), 0, t, slot_position,
                                slot_index, rng)
    assert rng.getstate() == state


class _Scripted:
    """A stand-in rng that replays one outcome of the level-0 stream: the
    given indices for ``randrange`` and the given coins for ``random``."""

    def __init__(self, indices, coins):
        self.indices, self.coins = iter(indices), iter(coins)

    def randrange(self, lo, hi):
        i = next(self.indices)
        assert lo <= i < hi
        return i

    def random(self):
        return 0.25 if next(self.coins) else 0.75


@pytest.mark.parametrize("n0", [1, 2, 3])
def test_every_level0_slot_type_has_positive_probability(n0):
    # the exact law of each slot of a level-0 row, enumerated over every
    # outcome of the draw (three indices in [1, n0], three fair coins)
    p = ParamSchedule(n=[n0])
    law = {}
    for indices in itertools.product(range(1, n0 + 1), repeat=3):
        for coins in itertools.product((False, True), repeat=3):
            rng = _Scripted(indices, coins)
            rows = sample_d_in(p, 0, rng)
            assert next(rng.indices, None) is None
            assert next(rng.coins, None) is None
            for pos, row in enumerate(rows):
                for j, t in enumerate(row, start=1):
                    law[(pos, j, t)] = (law.get((pos, j, t), 0)
                                        + Fraction(1, n0 ** 3 * 8))
    for pos, j in itertools.product((0, 1), range(1, n0 + 1)):
        assert law[(pos, j, 0)] == Fraction(1, 2 * n0 ** 2)
        assert law[(pos, j, 1)] == 1 - Fraction(1, 2 * n0 ** 2)
    assert len(law) == 2 * n0 * 2


class _Unscripted(Exception):
    """Raised by ``_Branching`` at the first call past its prefix."""

    def __init__(self, size):
        self.size = size


class _Branching:
    """A stand-in rng that replays a prefix of ``randrange(n)`` outcomes and
    stops the draw at the first call past it, reporting that call's range.
    It has no ``random``: a float coin cannot be enumerated exactly."""

    def __init__(self, prefix):
        self.prefix = iter(prefix)

    def randrange(self, n):
        i = next(self.prefix, None)
        if i is None:
            raise _Unscripted(n)
        assert 0 <= i < n
        return i


def _branching_law(draw, max_calls):
    """The exact law of ``draw(rng)``, by branching over every outcome of
    each ``randrange`` call; a path of more than ``max_calls`` calls fails,
    so a redraw loop cannot branch forever."""
    law, todo = Counter(), [((), Fraction(1))]
    while todo:
        prefix, weight = todo.pop()
        try:
            out = draw(_Branching(prefix))
        except _Unscripted as call:
            assert len(prefix) < max_calls
            todo.extend((prefix + (i,), weight / call.size)
                        for i in range(call.size))
            continue
        law[out] += weight
    return law


def test_level0_d_in_conditioned_draws_the_exact_conditional_law():
    # the plain level-0 law (weight 1/(8 n0^3) per outcome of the stream),
    # conditioned on each slot's type, equals the law of the direct draw
    for n0 in (1, 2, 3):
        p = ParamSchedule(n=[n0])
        plain = Counter()
        for indices in itertools.product(range(1, n0 + 1), repeat=3):
            for coins in itertools.product((False, True), repeat=3):
                rows = sample_d_in(p, 0, _Scripted(indices, coins))
                plain[tuple(map(tuple, rows))] += Fraction(1, 8 * n0 ** 3)
        for t, pos in itertools.product((0, 1), (0, 1)):
            for j in range(1, n0 + 1):
                kept = {rows: w for rows, w in plain.items()
                        if rows[pos][j - 1] == t}
                mass = sum(kept.values())
                want = {rows: w / mass for rows, w in kept.items()}
                got = _branching_law(
                    lambda rng: tuple(map(tuple, sample_d_in_conditioned(
                        p, 0, t, pos, j, rng))), max_calls=8)
                assert got == want, (n0, t, pos, j)
                for rows in got:
                    assert [len(row) for row in rows] == [n0, n0]
                    assert rows[pos][j - 1] == t


class _CountingRng:
    """A seeded ``random.Random`` that counts every method call on it."""

    def __init__(self, seed):
        self.rng, self.calls = random.Random(seed), 0

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args):
            self.calls += 1
            return method(*args)
        return counted


def test_level0_d_in_conditioned_makes_at_most_four_rng_calls():
    # one direct draw, never a redraw loop: a single plain level-0 draw
    # alone makes six calls
    for n0 in (1, 2, 3):
        p = ParamSchedule(n=[n0])
        for t, pos, seed in itertools.product((0, 1), (0, 1), range(20)):
            for j in range(1, n0 + 1):
                rng = _CountingRng(seed)
                sample_d_in_conditioned(p, 0, t, pos, j, rng)
                assert rng.calls <= 4, (n0, t, pos, j, seed)


def test_every_level1_slot_type_appears_at_micro():
    # every (position, slot, type in 0..2) of a level-1 row, in 300 draws
    seen = {(pos, j, t)
            for s in range(300)
            for pos, row in enumerate(sample_d_in(MICRO, 1, random.Random(s)))
            for j, t in enumerate(row, start=1)}
    assert seen == set(itertools.product((0, 1), range(1, 30), (0, 1, 2)))


def test_level1_d_in_conditioned_is_the_first_matching_plain_draw():
    # at level 1 the conditioned marginal redraws sample_d_in until the slot
    # carries t: its rows and the stream after them are those of a plain
    # loop stopped at its first match
    for t, position, slot, seed in itertools.product(
            (0, 1, 2), (0, 1), (1, 2, 17, 29), range(5)):
        rng = random.Random(seed)
        rows = sample_d_in_conditioned(MICRO, 1, t, position, slot, rng)
        assert rows[position][slot - 1] == t
        plain_rng = random.Random(seed)
        plain = sample_d_in(MICRO, 1, plain_rng)
        while plain[position][slot - 1] != t:
            plain = sample_d_in(MICRO, 1, plain_rng)
        assert [list(row) for row in rows] == [list(row) for row in plain]
        assert rng.random() == plain_rng.random()


@pytest.mark.parametrize("p, level", [(MICRO, 1), (WIDE2, 1), (LEVEL2, 2)],
                         ids=["MICRO", "WIDE2", "LEVEL2"])
def test_d_in_is_a1s_rows_in_sample_gr_on_the_same_seed(p, level):
    for seed in range(3):
        rng, gr_rng = random.Random(seed), random.Random(seed)
        rows = sample_d_in(p, level, rng)
        g, emb = sample_gr(p, level, gr_rng)
        want = g.type_rows(emb.outer(VertexId(Layer.A, 1))).values()
        assert ([(row.n, row.default, row.slots) for row in rows]
                == [(row.n, row.default, row.slots) for row in want])
        assert rng.random() == gr_rng.random()


@pytest.mark.parametrize("p, level", [(MICRO, 1), (LEVEL2, 2)],
                         ids=["MICRO", "LEVEL2"])
def test_d_in_builds_no_instance_of_its_own_level(monkeypatch, p, level):
    built = []
    init = TypedTripartiteGraph.__init__

    def recording_init(self, n, r):
        built.append(r)
        init(self, n, r)

    monkeypatch.setattr(TypedTripartiteGraph, "__init__", recording_init)
    sample_d_in(p, level, random.Random(0))
    # the inner instance is drawn whole; the level-l instance is not built
    assert max(built) == level - 1


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
    rng = random.Random(13)
    phantom = dict(zip(x.layer.others, sample_d_in(MICRO, 0, rng)))
    vecs = sample_tilde_input(x, ids, aux, MICRO, 1, rng, phantom)
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
    for v in emb.inner.vertices():
        u = emb.outer(v)
        for w in v.layer.others:
            for t in (0, 1):
                assert g.type_rows(u)[w].count(t) == 6


def test_gr_tilde_inner_marginal_preserved():
    # the embedded inner pair types agree with the drawn inner instance
    g, emb, _, _ = sample_gr_tilde(MICRO, 1, random.Random(16))
    for la, lb in ((Layer.A, Layer.B), (Layer.A, Layer.C),
                   (Layer.B, Layer.C)):
        u, v = VertexId(la, 1), VertexId(lb, 1)
        assert (g.pair_type(emb.outer(u), emb.outer(v))
                == emb.inner.pair_type(u, v))


# -- sampling the complement of a taken set ---------------------------------


def _check_complement(n, taken, seed, k):
    gone = set(taken)
    explicit = [i for i in range(1, n + 1) if i not in gone]
    rng_drawn, rng_list = random.Random(seed), random.Random(seed)
    assert (_sample_missing(rng_drawn, n, taken, k)
            == rng_list.sample(explicit, k))
    assert rng_drawn.random() == rng_list.random()


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 21), data=st.data(), seed=st.integers(0, 2 ** 32))
def test_complement_matches_its_list_when_sample_copies_the_pool(n, data,
                                                                  seed):
    # n <= 21 always takes random.sample's pool-copy branch; taken is
    # drawn in any order, since the function sorts it
    taken = data.draw(st.lists(st.integers(1, n), unique=True))
    k = data.draw(st.integers(0, n - len(taken)))
    _check_complement(n, taken, seed, k)


@settings(max_examples=50, deadline=None)
@given(taken=st.lists(st.integers(1, 5000), unique=True, max_size=40),
       seed=st.integers(0, 2 ** 32), k=st.integers(0, 60))
def test_complement_matches_its_list_when_sample_indexes(taken, seed, k):
    # n = 5000 with k <= 60 always takes the set-based branch
    _check_complement(5000, taken, seed, k)


def test_complement_of_a_thousand_taken_indices():
    # a long taken list, ends of [1, n] included, unsorted
    rng = random.Random(9)
    taken = list({1, 2, 5000} | set(rng.sample(range(1, 5001), 1200)))
    rng.shuffle(taken)
    _check_complement(5000, taken, seed=11, k=60)


# -- reservation ------------------------------------------------------------


@pytest.mark.parametrize("name", list(SCHEDULES))
def test_aux_reservation_is_disjoint_and_sized_on_every_schedule(name):
    p = SCHEDULES[name]
    lv = p.level(1)
    n, n_prev, d = lv["n"], lv["n_prev"], lv["d"]
    alpha, beta, gamma = lv["alpha"], lv["beta"], lv["gamma"]
    demand = 2 * n_prev * aux_draws_per_vertex_layer(
        n_prev, alpha, beta, gamma, 1)
    for seed in range(5):
        g, emb, aux, _ = sample_gr_tilde(p, 1, random.Random(seed))
        ids = emb.ids
        for v in emb.inner.vertices():
            rows = g.type_rows(emb.outer(v))
            assert all(rows[w].count(t) == d
                       for w in v.layer.others for t in (0, 1))
        for layer in LAYERS:
            elems = aux.elements_in_layer(layer)
            assert len(elems) == demand
            assert len(set(elems)) == demand
            assert not set(elems) & set(ids[layer])
            assert all(1 <= i <= n for i in elems)
        for layer in LAYERS:
            for i in range(1, n_prev + 1):
                x = VertexId(layer, i)
                others = layer.others
                assert len(aux.J[x]) == alpha
                for s in aux.J[x]:
                    assert {w: len(m) for w, m in s.members.items()} == {
                        others[0]: n_prev, others[1]: n_prev}
                for target in others:
                    other = others[0] if target is others[1] else others[1]
                    for t in (0, 1):
                        for j in range(1, n_prev + 1):
                            sets = aux.K[(x, target, t, j)]
                            assert len(sets) == beta
                            for s in sets:
                                assert len(s.members[target]) == n_prev - 1
                                assert len(s.members[other]) == n_prev
                            assert len(aux.L[(x, target, t, j)]) == gamma


def test_aux_reservation_beyond_the_pool_is_infeasible():
    # 2 * (20 + 2 + 2) = 48 reserved indices per layer, 28 non-starred: the
    # recursive family serves this schedule, and the restructured gate
    # refuses it (24 > 6 fixed slots) before any draw
    greedy = ParamSchedule(n=[1, 29], d=[6], alpha=[20], beta=[1], gamma=[1])
    assert feasibility_check(greedy) == []
    assert restructured_feasibility_check(greedy, 1) == [
        "RestructuredSlotViolation level 1: n_prev*(1+alpha) + "
        "beta*(l+1)*n_prev*(2*n_prev-1) + gamma*n_prev = 24 > d = 6"]
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(InfeasibleParams, match="RestructuredSlotViolation"):
        sample_gr_tilde(greedy, 1, rng)
    assert rng.getstate() == state


@settings(max_examples=300, deadline=None)
@given(l=st.integers(1, 3), n_prev=st.integers(1, 4), d=st.integers(1, 80),
       alpha=st.integers(1, 3), beta=st.integers(1, 3),
       gamma=st.integers(1, 3), slack=st.integers(-50, 3000))
def test_feasible_schedules_leave_room_for_every_pool(l, n_prev, d, alpha,
                                                      beta, gamma, slack):
    # level l's sizes around its room threshold n_prev*(2d(l+1)+1), on both
    # sides; the levels below repeat n_prev, and their violations are not
    # level l's
    n = max(2, n_prev * (2 * d * (l + 1) + 1) + slack)
    p = ParamSchedule(n=[n_prev] * l + [n], d=[1] * (l - 1) + [d],
                      alpha=[1] * (l - 1) + [alpha],
                      beta=[1] * (l - 1) + [beta],
                      gamma=[1] * (l - 1) + [gamma])
    assume(not [v for v in feasibility_check(p) if f" level {l}:" in v])
    free = n - n_prev
    assert 2 * n_prev * (l + 1) * d <= free  # sample_gr's pool
    if restructured_feasibility_check(p, l):
        return
    assert 2 * n_prev * aux_draws_per_vertex_layer(
        n_prev, alpha, beta, gamma, l) <= free  # sample_aux's reservation
    # a row before completion: starred, J and K slots of any type, then per
    # type the n_prev buckets of gamma L slots
    drawn = n_prev + alpha * n_prev + beta * (l + 1) * n_prev * (
        (n_prev - 1) + n_prev)
    assert d - (drawn + gamma * n_prev) >= 0  # each completion need
    stored = drawn + (l + 1) * gamma * n_prev
    assert (l + 1) * d - stored <= n - stored  # the completion's free slots


def test_gr_tilde_refuses_small2_before_any_draw():
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(InfeasibleParams, match="RestructuredSlotViolation"):
        sample_gr_tilde(SMALL2, 1, rng)
    assert rng.getstate() == state


@settings(max_examples=40, deadline=None)
@given(n_prev=st.integers(1, 2), d=st.integers(2, 23),
       alpha=st.integers(1, 2), beta=st.integers(1, 2),
       gamma=st.integers(1, 2))
def test_restructured_check_accepts_only_completable_schedules(
        n_prev, d, alpha, beta, gamma):
    # the smallest layer size the shared check accepts, plus some room
    def schedule(n):
        return ParamSchedule(n=[n_prev, n], d=[d], alpha=[alpha],
                             beta=[beta], gamma=[gamma])
    n = next((n for n in range(2, 2000) if not feasibility_check(schedule(n))),
             None)
    assume(n is not None)
    p = schedule(n + 50)
    if restructured_feasibility_check(p, 1):
        with pytest.raises(InfeasibleParams,
                           match="RestructuredSlotViolation"):
            sample_gr_tilde(p, 1, random.Random(0))
        return
    for seed in range(8):
        sample_gr_tilde(p, 1, random.Random(seed))


# -- sparse tilde inputs against the dense construction --------------------


def _dense_tilde_input_reference(x, ids, aux, p, level, rng, n_in=None):
    """The dense construction: six length-n lists filled slot by slot and
    scanned in full for the completion."""
    lv = p.level(level)
    n, n_prev, d = lv["n"], lv["n_prev"], lv["d"]
    default = level + 1
    others = x.layer.others
    if n_in is None:
        v1, v2 = sample_d_in(p, level - 1, rng)
        n_in = {others[0]: v1, others[1]: v2}
    vecs = {w: [default] * n for w in others}
    for w in others:
        for i in range(1, n_prev + 1):
            vecs[w][ids[w][i - 1] - 1] = n_in[w][i - 1]
    for s in aux.J[x]:
        v1, v2 = sample_d_in(p, level - 1, rng)
        draws = {others[0]: v1, others[1]: v2}
        for w in others:
            for k, idx in enumerate(s.members[w]):
                vecs[w][idx - 1] = draws[w][k]
    for target in others:
        slot_position = 0 if target is others[0] else 1
        other = others[0] if target is others[1] else others[1]
        for t in range(level + 1):
            for i in range(1, n_prev + 1):
                for s in aux.K[(x, target, t, i)]:
                    full = sample_d_in_conditioned(
                        p, level - 1, t, slot_position, i, rng)
                    kept = list(full[slot_position])
                    kept.pop(i - 1)
                    rest = list(full[1 - slot_position])
                    for k, idx in enumerate(s.members[target]):
                        vecs[target][idx - 1] = kept[k]
                    for k, idx in enumerate(s.members[other]):
                        vecs[other][idx - 1] = rest[k]
    for target, t, _, idx in public_slots(x, aux, level, n_prev):
        vecs[target][idx - 1] = t
    for w in others:
        counts = [0] * (level + 1)
        free = []
        for idx in range(1, n + 1):
            t = vecs[w][idx - 1]
            if t == default:
                free.append(idx)
            else:
                counts[t] += 1
        needs = [d - counts[t] for t in range(level + 1)]
        assert all(need >= 0 for need in needs)
        chosen = rng.sample(free, sum(needs))
        pos = 0
        for t, need in enumerate(needs):
            for idx in chosen[pos:pos + need]:
                vecs[w][idx - 1] = t
            pos += need
    return vecs


@pytest.mark.parametrize("name", list(SCHEDULES))
def test_sparse_tilde_input_equals_dense_reference(name):
    p = SCHEDULES[name]
    lv = p.level(1)
    n, n_prev = lv["n"], lv["n_prev"]
    for seed in range(12 if n < 1000 else 4):
        rng = random.Random(seed)
        inner = sample_inner(p, 0, rng)
        ids, aux = sample_frame(p, 1, rng)
        for layer in LAYERS:
            for i in range(1, n_prev + 1):
                x = VertexId(layer, i)
                actual = {w: [inner.pair_type(x, VertexId(w, j))
                              for j in range(1, n_prev + 1)]
                          for w in layer.others}
                # with n_in None the dense reference draws the phantom inner
                # input itself, where the sparse call's phantom is drawn
                for n_in in (None, actual):
                    state = rng.getstate()
                    given = n_in or dict(zip(layer.others,
                                             sample_d_in(p, 0, rng)))
                    rows = sample_tilde_input(x, ids, aux, p, 1, rng, given)
                    after = rng.random()
                    rng.setstate(state)
                    dense = _dense_tilde_input_reference(x, ids, aux, p, 1,
                                                         rng, n_in=n_in)
                    assert rng.random() == after
                    assert list(rows) == list(layer.others)
                    for w, row in rows.items():
                        assert isinstance(row, TypeRow)
                        assert (len(row), row.default) == (n, 2)
                        assert list(row) == dense[w]
                        assert list(row.slots) == sorted(row.slots)
                        assert 2 not in row.slots.values()
