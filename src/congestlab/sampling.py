"""Samplers for the recursive hard-instance families.

Three families live here:

- the base family for 0-round protocols (a starred triple with three
  independent coin-flip edges),
- the recursive family for r-round protocols (an inner instance embedded
  into a much larger typed graph with exact per-type channel degrees),
- the restructured family that re-samples each inner vertex's input
  independently after publicly reserving disjoint auxiliary vertex sets,
  at the cost of possible channel collisions on outer vertices.

All samplers are pure functions of (params, rng state).
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, islice, product

from .errors import InfeasibleParams
from .graphs import (LAYERS, Layer, TypedTripartiteGraph, TypeRow, VertexId,
                     vertices)
from .params import (ParamSchedule, aux_draws_per_vertex_layer,
                     require_feasible, require_restructured_feasible)


def _offsets(taken, first: int) -> list:
    """The bisection offsets of the distinct positions ``taken`` of a range
    that starts at ``first``: the count of free positions under each, in
    ascending order."""
    return [t - first - i for i, t in enumerate(sorted(taken))]


def _sample_free(rng: random.Random, below: list, free: int, k: int,
                 first: int) -> list:
    """The ``k`` positions ``rng.sample`` draws from the ``free`` ascending
    positions, from ``first`` on, outside a taken set with offsets ``below``
    (``_offsets``), without listing them.

    ``random.sample`` picks its draws from the population's length alone,
    so a ``range`` of that length yields the same draws.  The position of
    draw ``j`` skips every taken position whose offset (the free positions
    under it) is at most ``j``.
    """
    return [j + first + bisect_right(below, j)
            for j in rng.sample(range(free), k)]


def _sample_missing(rng: random.Random, n: int, taken, k: int) -> list:
    """The ``k`` indices ``rng.sample`` draws from the ascending indices of
    ``[1, n]`` missing from the distinct ``taken``: ``_sample_free`` over
    the indices from 1."""
    below = _offsets(taken, 1)
    return _sample_free(rng, below, n - len(below), k, 1)


# -- base family ----------------------------------------------------------


def _g0_stream(n0: int, rng: random.Random) -> tuple:
    """The base family's one draw, in stream order: the starred indices of
    A, B and C, then the edge coins of (a,b), (b,c) and (c,a)."""
    index, coin = rng.randrange, rng.random
    return (index(1, n0 + 1), index(1, n0 + 1), index(1, n0 + 1),
            coin() < 0.5, coin() < 0.5, coin() < 0.5)


def _g0_instance(n0: int, starred: tuple, edges) -> TypedTripartiteGraph:
    """The base instance on ``starred = (a, b, c)``: (a,b), (b,c) and (c,a)
    are edges (type 0) where ``edges`` is true, all else the default 1."""
    a, b, c = starred
    g = TypedTripartiteGraph(n0, 0)
    for (u, v), edge in zip(((a, b), (b, c), (c, a)), edges):
        if edge:
            g.set_type(u, v, 0)
    return g


def sample_g0(n0: int, rng: random.Random):
    """One 0-round instance plus its starred triple.

    Each starred pair is an edge (type 0) with probability 1/2, else type 1.
    """
    draw = _g0_stream(n0, rng)
    starred = tuple(map(VertexId, LAYERS, draw[:3]))
    return _g0_instance(n0, starred, draw[3:]), starred


def enumerate_g0(n0: int):
    """Full weighted support of the 0-round family, with exact weights."""
    weight = Fraction(1, n0 ** 3 * 8)
    for indices in product(range(1, n0 + 1), repeat=3):
        starred = tuple(map(VertexId, LAYERS, indices))
        for mask in range(8):
            edges = [mask >> bit & 1 for bit in range(3)]
            yield _g0_instance(n0, starred, edges), starred, weight


# -- recursive family -----------------------------------------------------


@dataclass
class InnerEmbedding:
    """Identity injections of the inner instance into the outer layers."""

    ids: dict  # Layer -> list of outer indices, position i-1 for inner vertex i
    inner: TypedTripartiteGraph

    def outer(self, v: VertexId) -> VertexId:
        return VertexId(v.layer, self.ids[v.layer][v.index - 1])


def sample_inner(p: ParamSchedule, level: int, rng: random.Random):
    """An instance at the given level (the base family at level 0)."""
    if level == 0:
        return sample_g0(p.n[0], rng)[0]
    return sample_gr(p, level, rng)[0]


def _sample_ids(n: int, n_prev: int, rng: random.Random) -> dict:
    return {layer: rng.sample(range(1, n + 1), n_prev) for layer in LAYERS}


def _gr_rows(inner: TypedTripartiteGraph, ids: dict, pools: dict,
             p: ParamSchedule, level: int):
    """Yield each inner vertex, in vertex order, with its outer copy's rows:
    toward layer X, the inner row at the starred slots ``ids[X]``, then per
    type t the first slots of the next ``d``-index chunk of ``pools[X]`` (in
    index order; the pool yields chunks as carved) that bring t up to ``d``.
    """
    lv = p.level(level)
    n, d = lv["n"], lv["d"]
    pools = {layer: iter(pool) for layer, pool in pools.items()}
    for y in inner.vertices():
        out = {}
        for target, row in inner.type_rows(y).items():
            starred, pool = ids[target], pools[target]
            # each inner type, the inner default too, is below the outer one
            slots = {starred[i] - 1: t for i, t in enumerate(row)}
            for t in range(level + 1):
                for idx in sorted(islice(pool, d))[: d - row.count(t)]:
                    slots[idx - 1] = t
            out[target] = TypeRow(n, level + 1, dict(sorted(slots.items())))
        yield y, out


def _assemble_gr(inner: TypedTripartiteGraph, ids: dict, pools: dict,
                 p: ParamSchedule, level: int):
    """A level instance written from all of ``_gr_rows``, and its embedding."""
    views = dict(_gr_rows(inner, ids, pools, p, level))
    g = rebuild_from_inner_views(p.level(level)["n"], level, ids, views)
    return g, InnerEmbedding(ids=ids, inner=inner)


def inner_cross_pairs(inner: TypedTripartiteGraph):
    """Every inner cross-layer pair (u, v, type): layer pairs (A,B), (A,C),
    (B,C), then u's index, then v's.  The exact inner laws key their
    outcomes in this order."""
    for la, lb in ((Layer.A, Layer.B), (Layer.A, Layer.C), (Layer.B, Layer.C)):
        for i in range(1, inner.n + 1):
            for j in range(1, inner.n + 1):
                u, v = VertexId(la, i), VertexId(lb, j)
                yield u, v, inner.pair_type(u, v)


def _gr_draws(p: ParamSchedule, level: int, rng: random.Random):
    """``sample_gr``'s draws in stream order: inner instance, ids, pools."""
    require_feasible(p)
    lv = p.level(level)  # refuses a level outside [1, r]
    n, n_prev = lv["n"], lv["n_prev"]
    inner = sample_inner(p, level - 1, rng)
    ids = _sample_ids(n, n_prev, rng)
    # assembly carves d indices per (inner vertex of another layer, type);
    # require_feasible's room check, n_prev*(2*d*(level+1)+1) < n, leaves
    # more non-starred indices than that
    demand = 2 * n_prev * (level + 1) * lv["d"]
    pools = {layer: _sample_missing(rng, n, ids[layer], demand)
             for layer in LAYERS}
    return inner, ids, pools


def sample_gr(p: ParamSchedule, level: int, rng: random.Random):
    """One instance of the recursive family, with its embedding."""
    return _assemble_gr(*_gr_draws(p, level, rng), p, level)


def build_gr_frame(inner: TypedTripartiteGraph, p: ParamSchedule, level: int):
    """The unique instance for the canonical frame (identity ids, index-order
    reserved chunks).

    Given the frame, assembly has no remaining randomness, so this is the
    conditional law of the instance given the frame: a point mass per inner
    instance.  Useful for exact success computations of protocols whose
    outcome does not depend on the frame.
    """
    require_feasible(p)
    lv = p.level(level)
    n, n_prev = lv["n"], lv["n_prev"]
    if inner.n != n_prev or inner.r != level - 1:
        raise InfeasibleParams(f"inner instance (n={inner.n}, r={inner.r}) "
                               f"does not fit level {level}")
    ids = {layer: list(range(1, n_prev + 1)) for layer in LAYERS}
    pools = {layer: range(n_prev + 1, n + 1) for layer in LAYERS}
    return _assemble_gr(inner, ids, pools, p, level)


def inner_views(g: TypedTripartiteGraph, emb: InnerEmbedding) -> dict:
    """The type rows of every inner vertex, keyed by inner identity."""
    return {v: g.type_rows(emb.outer(v)) for v in emb.inner.vertices()}


def rebuild_from_inner_views(n: int, level: int, ids: dict, views: dict):
    """Reconstruct the full instance from inner identities and inner views
    (per inner vertex, one ``TypeRow`` per other layer).

    Every non-default pair touches at least one inner vertex, so the views
    fix the graph.
    """
    g = TypedTripartiteGraph(n, level)
    for v, rows in views.items():
        u = VertexId(v.layer, ids[v.layer][v.index - 1])
        for target, row in rows.items():
            g.set_row(u, target, row.slots)
    return g


def outer_channels(rows: dict, ids: dict):
    """The stored slots of an inner vertex's ``rows`` (one ``TypeRow`` per
    other layer) that reach a vertex outside the starred ``ids``, as (layer,
    outer index, type).  A stored slot is non-default, so each is a
    channel."""
    for layer, row in rows.items():
        starred = ids[layer]
        for j, t in row.slots.items():
            if j + 1 not in starred:
                yield layer, j + 1, t


def has_collision(views: dict, ids: dict) -> bool:
    """Whether some non-starred outer vertex carries two or more channels:
    the ``outer_channels`` of every inner vertex's rows in ``views``, counted
    per outer vertex (``ids`` holds the starred outer indices)."""
    incidence = Counter((w, i) for rows in views.values()
                        for w, i, _ in outer_channels(rows, ids))
    return any(c >= 2 for c in incidence.values())


# -- the inner-input marginal ---------------------------------------------


def sample_d_in(p: ParamSchedule, level: int, rng: random.Random):
    """The two rows of one vertex in a level instance.

    Projects the first inner vertex of layer A; by the relabeling symmetry
    of the construction this is the marginal of any inner vertex.  Rows are
    returned toward the two other layers in layer order.  Level 0 reads the
    rows of A1 off ``sample_g0``'s own draw, as two length-n0 lists; higher
    levels make ``sample_gr``'s draws and return A1's ``TypeRow``s from the
    first step of its assembly, building no instance of their own level.
    """
    if level == 0:
        n0 = p.n[0]
        ia, ib, ic, ab, _, ca = _g0_stream(n0, rng)
        to_b, to_c = [1] * n0, [1] * n0
        if ia == 1:
            if ab:
                to_b[ib - 1] = 0
            if ca:
                to_c[ic - 1] = 0
        return to_b, to_c
    _, rows = next(_gr_rows(*_gr_draws(p, level, rng), p, level))
    return tuple(rows.values())


def sample_d_in_conditioned(p: ParamSchedule, level: int, t: int,
                            slot_position: int, slot_index: int,
                            rng: random.Random):
    """The marginal's two rows, conditioned on one slot carrying type ``t``.

    ``slot_position`` is 0 for the first other layer and 1 for the second;
    ``slot_index`` is 1-based.  Every type from 0 to ``level + 1`` has
    positive probability at every slot of a level-``level`` row: at level 0
    type 0 at slot j has probability 1/(2 n0^2), and above it the starred ids
    and the pools are uniform.  So a condition naming no such slot or type is
    refused before any draw.  Returns the full row pair, conditioned slot
    included.

    Level 0 draws once from the exact conditional law.  A1's row toward a
    layer holds at most one type-0 slot; call the conditioned row "own" and
    the other row "other".

    - t = 0: own is all 1 except 0 at ``slot_index``; other has a 0 at a
      uniform slot with probability 1/2, else is all 1.
    - t = 1: with probability (2 n0 - 1)/(2 n0^2 - 1) A1 is the starred
      vertex; then own has a 0 at a uniform slot other than ``slot_index``
      with probability (n0 - 1)/(2 n0 - 1), and other is drawn as under
      t = 0.  Otherwise both rows are all 1.

    Each choice is one integer ``randrange``, so the probabilities are exact.
    Levels 1 and above redraw ``sample_d_in`` until the slot carries ``t``.
    """
    n = p.n[0] if level == 0 else p.level(level)["n"]
    if (slot_position not in (0, 1) or not 1 <= slot_index <= n
            or not 0 <= t <= level + 1):
        raise InfeasibleParams(
            f"no level-{level} row carries type {t} at slot {slot_index} of "
            f"position {slot_position}")
    if level == 0:
        rows = ([1] * n, [1] * n)
        own, other = rows[slot_position], rows[1 - slot_position]
        if t == 0:
            own[slot_index - 1] = 0
        elif rng.randrange(2 * n * n - 1) < 2 * n - 1:  # A1 is starred
            k = rng.randrange(2 * n - 1)
            if k < n - 1:  # k-th slot of own, skipping slot_index
                own[k + (k >= slot_index - 1)] = 0
        else:
            return rows
        k = rng.randrange(2 * n)
        if k < n:
            other[k] = 0
        return rows
    while True:
        vecs = sample_d_in(p, level, rng)
        if vecs[slot_position][slot_index - 1] == t:
            return vecs


# -- restructured family --------------------------------------------------


@dataclass
class AuxSet:
    members: dict  # Layer -> list of outer indices


@dataclass
class Auxiliaries:
    """Publicly reserved disjoint vertex sets, keyed per inner vertex.

    J[x] is a list of alpha sets; K[(x, target, t, i)] a list of beta sets;
    L[(x, target, t, i)] a list of gamma indices in the target layer.
    """

    J: dict = field(default_factory=dict)
    K: dict = field(default_factory=dict)
    L: dict = field(default_factory=dict)


@dataclass(slots=True)
class TildePlan:
    """What the public frame fixes of one inner vertex x's restructured
    input, built by ``sample_aux`` as it reserves x's sets: every slot that
    ``sample_tilde_input`` writes, except the completion's.

    A draw reads its values off one concatenation of vectors, each
    ``n_prev`` long: x's inner rows toward ``others`` (its two other
    layers, in layer order), then the two rows drawn for each of the
    ``j_draws`` J sets, then the two drawn for each K set under its
    condition in ``k_draws``, ``(t, slot position, i)``.  ``rows`` holds,
    per layer ``w`` of ``others``, ``(w, slots, picks, forced, below,
    free)``, with 0-based slots:

    - ``slots``: the starred slots and the J and K members;
    - ``picks``: the position of each slot's value in the concatenation,
      where a K set's target row skips the conditioned entry ``i - 1``;
    - ``forced``: the L slots, mapped to their types;
    - ``below`` and ``free``: the completion's bisection offsets over all
      the slots above, and the count of the slots left free.

    ``public`` lists the L slots as ``(target layer, forced type, starred
    position i, outer index)`` in reservation order: the slots the public
    messages are read at.
    """

    p: ParamSchedule
    level: int
    n: int
    n_prev: int
    d: int
    others: tuple
    j_draws: int
    k_draws: list
    rows: list
    public: list


def sample_aux(ids: dict, p: ParamSchedule, level: int,
               rng: random.Random):
    """Step-2 reservation: disjoint subsets of each layer's non-starred pool,
    and each inner vertex's ``TildePlan``, built in the same walk.

    Each layer's pool is one uniform ordered draw of exactly the indices the
    reservation uses, carved into sets in reservation order: per inner vertex
    x, its J sets, then per target layer, type t and starred position i, the
    K sets and the L set of key ``(x, target, t, i)``.  The schedule must
    pass ``require_restructured_feasible``, whose rules make it fit.
    Returns ``(Auxiliaries, {inner vertex: TildePlan})``.
    """
    lv = p.level(level)
    n, n_prev = lv["n"], lv["n_prev"]
    alpha, beta, gamma = lv["alpha"], lv["beta"], lv["gamma"]
    # every layer serves the 2 * n_prev inner vertices of the other layers
    demand = 2 * n_prev * aux_draws_per_vertex_layer(
        n_prev, alpha, beta, gamma, level)
    pools = {layer: iter(_sample_missing(rng, n, ids[layer], demand))
             for layer in LAYERS}

    def take(layer, count):
        return list(islice(pools[layer], count))

    def planned(members, position=None, i=0):
        # the members' set, with x's slots at them planned: a row's e-th
        # member copies entry e of the next vector drawn, except that the
        # row at ``position`` skips the conditioned entry i - 1 (a J set's
        # and the starred ids' rows skip none)
        nonlocal start
        for k, w in enumerate(others):
            skip = i - 1 if k == position else n_prev
            for e, idx in enumerate(members[w]):
                slots[k].append(idx - 1)
                picks[k].append(start + e + (e >= skip))
            start += n_prev
        return AuxSet(members)

    aux, plans = Auxiliaries(), {}
    for x in vertices(n_prev):
        others = x.layer.others
        slots, picks, forced = ([], []), ([], []), ({}, {})
        k_draws, public, start = [], [], 0
        planned(ids)  # x's own inner rows come first in the values
        aux.J[x] = [planned({w: take(w, n_prev) for w in others})
                    for _ in range(alpha)]
        for position, target in enumerate(others):
            other = others[1 - position]
            for t in range(level + 1):
                for i in range(1, n_prev + 1):
                    key = (x, target, t, i)
                    aux.K[key] = [
                        planned({target: take(target, n_prev - 1),
                                 other: take(other, n_prev)}, position, i)
                        for _ in range(beta)
                    ]
                    k_draws += [(t, position, i)] * beta
                    aux.L[key] = take(target, gamma)
                    for idx in aux.L[key]:
                        forced[position][idx - 1] = t
                        public.append((target, t, i, idx))
        rows = []
        for k, w in enumerate(others):
            below = _offsets([*slots[k], *forced[k]], 0)
            rows.append((w, slots[k], picks[k], forced[k], below,
                         n - len(below)))
        plans[x] = TildePlan(p, level, n, n_prev, lv["d"], others, alpha,
                             k_draws, rows, public)
    return aux, plans


def sample_frame(p: ParamSchedule, level: int, rng: random.Random):
    """The public frame of a restructured instance: the starred outer ids of
    each layer, the auxiliaries reserved around them, and the plan of each
    inner vertex's input in the frame (``sample_aux``), as ``(ids, aux,
    plans)``."""
    lv = p.level(level)
    ids = _sample_ids(lv["n"], lv["n_prev"], rng)
    return (ids, *sample_aux(ids, p, level, rng))


def sample_tilde_input(plan: TildePlan, rng: random.Random, n_in: dict):
    """Step-3 per-vertex input: auxiliary draws plus uniform completion, in
    the slots of x's ``plan`` (``sample_frame``).

    ``n_in`` maps each other layer to x's length-n_prev inner row (a list or
    a ``TypeRow``): the true inner input, or a phantom one the caller drew
    from the inner marginal; rows of another length are refused before any
    draw.  The rng is read in one order: each J set's draw of the full
    inner marginal, each K set's draw of the inner marginal conditioned on
    one starred slot type, then each layer's completion.  Returns {other
    layer: ``TypeRow`` of length n}; only the starred, reserved and
    completed slots are ever touched.  The schedule must pass
    ``require_restructured_feasible``, whose rules make the completion fit.
    """
    p, level, d = plan.p, plan.level, plan.d
    values = []
    for w in plan.others:
        values += n_in[w]
    if len(values) != 2 * plan.n_prev:
        raise InfeasibleParams(
            f"inner rows of lengths {[len(n_in[w]) for w in plan.others]} "
            f"do not fit n_prev = {plan.n_prev}")
    drawn = []
    for _ in range(plan.j_draws):
        drawn += sample_d_in(p, level - 1, rng)
    for t, position, i in plan.k_draws:
        drawn += sample_d_in_conditioned(p, level - 1, t, position, i, rng)
    values += chain.from_iterable(drawn)
    out = {}
    for w, slots, picks, forced, below, free in plan.rows:
        # {0-based slot: type}; every type stored is an inner, forced or
        # completed type, at most level, so never the default
        row = forced.copy()
        row.update(zip(slots, map(values.__getitem__, picks)))
        # uniform completion to exact per-type degree d
        types = list(row.values())
        kinds = []
        for t in range(level + 1):
            kinds += [t] * (d - types.count(t))
        row.update(zip(_sample_free(rng, below, free, len(kinds), 0), kinds))
        out[w] = TypeRow(plan.n, level + 1, dict(sorted(row.items())))
    return out


def sample_gr_tilde(p: ParamSchedule, level: int, rng: random.Random):
    """One instance of the restructured family.

    Returns (graph, embedding, auxiliaries, collision_flag) where the flag
    is ``has_collision`` of the sampled inner views.
    """
    require_restructured_feasible(p, level)
    inner = sample_inner(p, level - 1, rng)
    ids, aux, plans = sample_frame(p, level, rng)
    emb = InnerEmbedding(ids=ids, inner=inner)
    views = {v: sample_tilde_input(plans[v], rng, inner.type_rows(v))
             for v in inner.vertices()}
    g = rebuild_from_inner_views(p.level(level)["n"], level, ids, views)
    return g, emb, aux, has_collision(views, ids)
