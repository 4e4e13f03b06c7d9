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
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import EmptyOrRareSupport, InfeasibleParams, ZeroProbabilityCondition
from .graphs import LAYERS, Layer, TypedTripartiteGraph, TypeRow, VertexId
from .params import ParamSchedule, aux_draws_per_vertex_layer, require_feasible


class _Complement(Sequence):
    """The ascending indices of ``[1, n]`` missing from the sorted list
    ``taken``, as a read-only sequence that is never materialized.

    ``random.sample`` reads a population only through ``len``, indexing and,
    when it copies a small population, iteration, so ``rng.sample(view, k)``
    draws exactly what it draws from the equivalent list; from a large
    population it costs ``k`` indexed reads, not ``n``.
    """

    __slots__ = ("n", "taken")

    def __init__(self, n: int, taken: list):
        self.n = n
        self.taken = taken

    def __len__(self) -> int:
        return self.n - len(self.taken)

    def __getitem__(self, j: int) -> int:
        size = len(self)
        k = j + size if j < 0 else j
        if not 0 <= k < size:
            raise IndexError(f"index {j} outside a complement of length {size}")
        v = k + 1
        for t in self.taken:
            if t > v:
                break
            v += 1
        return v

    def __iter__(self):
        # walk the gaps: the inherited __iter__ would index every entry
        # through the walk above when random.sample copies the population
        prev = 0
        for t in self.taken:
            yield from range(prev + 1, t)
            prev = t
        yield from range(prev + 1, self.n + 1)


# -- base family ----------------------------------------------------------


def sample_g0(n0: int, rng: random.Random):
    """One 0-round instance plus its starred triple.

    Each starred pair is an edge (type 0) with probability 1/2, else type 1.
    All other pairs keep the default type 1 of regime 0.
    """
    g = TypedTripartiteGraph(n0, 0)
    starred = tuple(
        VertexId(layer, rng.randrange(1, n0 + 1)) for layer in LAYERS
    )
    a, b, c = starred
    for u, v in ((a, b), (b, c), (c, a)):
        if rng.random() < 0.5:
            g.set_type(u, v, 0)
    return g, starred


def enumerate_g0(n0: int):
    """Full weighted support of the 0-round family, with exact weights."""
    weight = Fraction(1, n0 ** 3 * 8)
    for ia in range(1, n0 + 1):
        for ib in range(1, n0 + 1):
            for ic in range(1, n0 + 1):
                a = VertexId(Layer.A, ia)
                b = VertexId(Layer.B, ib)
                c = VertexId(Layer.C, ic)
                for mask in range(8):
                    g = TypedTripartiteGraph(n0, 0)
                    for bit, (u, v) in enumerate(((a, b), (b, c), (c, a))):
                        if mask >> bit & 1:
                            g.set_type(u, v, 0)
                    yield g, (a, b, c), weight


# -- recursive family -----------------------------------------------------


@dataclass
class InnerEmbedding:
    """Identity injections of the inner instance into the outer layers."""

    ids: dict  # Layer -> list of outer indices, position i-1 for inner vertex i
    inner: TypedTripartiteGraph

    def outer(self, v: VertexId) -> VertexId:
        return VertexId(v.layer, self.ids[v.layer][v.index - 1])

    def starred(self, layer: Layer) -> set:
        return set(self.ids[layer])

    def inner_vertices(self):
        for layer in LAYERS:
            for i in range(1, self.inner.n + 1):
                yield VertexId(layer, i)


def sample_inner(p: ParamSchedule, level: int, rng: random.Random):
    """An instance at the given level (the base family at level 0)."""
    if level == 0:
        return sample_g0(p.n[0], rng)[0]
    return sample_gr(p, level, rng)[0]


def _sample_ids(n: int, n_prev: int, rng: random.Random) -> dict:
    return {layer: rng.sample(range(1, n + 1), n_prev) for layer in LAYERS}


def _assemble_gr(inner: TypedTripartiteGraph, ids: dict, pools: dict,
                 p: ParamSchedule, level: int):
    """Deterministic assembly of a level instance from inner + frame.

    ``pools[X]`` lists the non-starred indices of layer X in the order the
    disjoint reserved chunks are carved; chunk consumption is by index order
    within each chunk.
    """
    lv = p.level(level)
    n, n_prev, d = lv["n"], lv["n_prev"], lv["d"]
    g = TypedTripartiteGraph(n, level)
    emb = InnerEmbedding(ids=ids, inner=inner)

    # inner pair types are copied verbatim; the inner default (= level) is
    # below the outer default (= level + 1) so every inner pair is stored
    for u, v, t in _inner_cross_pairs(inner):
        g.set_type(emb.outer(u), emb.outer(v), t)

    for target in LAYERS:
        pool = pools[target]
        pos = 0
        for layer in LAYERS:
            if layer is target:
                continue
            for i in range(1, n_prev + 1):
                y = VertexId(layer, i)
                y_out = emb.outer(y)
                for t in range(level + 1):
                    chunk = sorted(pool[pos:pos + d])
                    pos += d
                    have = g.channel_degree(y_out, t, target)
                    for idx in chunk[: d - have]:
                        g.set_type(y_out, VertexId(target, idx), t)
    return g, emb


def _inner_cross_pairs(inner: TypedTripartiteGraph):
    for la, lb in ((Layer.A, Layer.B), (Layer.A, Layer.C), (Layer.B, Layer.C)):
        for i in range(1, inner.n + 1):
            for j in range(1, inner.n + 1):
                u, v = VertexId(la, i), VertexId(lb, j)
                yield u, v, inner.pair_type(u, v)


def sample_gr(p: ParamSchedule, level: int, rng: random.Random):
    """One instance of the recursive family, with its embedding."""
    require_feasible(p)
    if level < 1:
        raise InfeasibleParams("recursive sampling needs level >= 1")
    lv = p.level(level)
    n, n_prev = lv["n"], lv["n_prev"]
    inner = sample_inner(p, level - 1, rng)
    ids = _sample_ids(n, n_prev, rng)
    # assembly carves d indices per (inner vertex of another layer, type);
    # require_feasible's room check, n_prev*(2*d*(level+1)+1) < n, leaves
    # more non-starred indices than that
    demand = 2 * n_prev * (level + 1) * lv["d"]
    pools = {layer: rng.sample(_Complement(n, sorted(ids[layer])), demand)
             for layer in LAYERS}
    return _assemble_gr(inner, ids, pools, p, level)


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
    if inner.n != n_prev:
        raise InfeasibleParams("inner instance size does not match schedule")
    ids = {layer: list(range(1, n_prev + 1)) for layer in LAYERS}
    pools = {layer: list(range(n_prev + 1, n + 1)) for layer in LAYERS}
    return _assemble_gr(inner, ids, pools, p, level)


def inner_views(g: TypedTripartiteGraph, emb: InnerEmbedding) -> dict:
    """The type rows of every inner vertex, keyed by inner identity."""
    return {v: g.type_rows(emb.outer(v)) for v in emb.inner_vertices()}


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
            for j, t in row.slots.items():
                g.set_type(u, VertexId(target, j + 1), t)
    return g


# -- the inner-input marginal ---------------------------------------------


def sample_d_in(p: ParamSchedule, level: int, rng: random.Random):
    """The two rows of one vertex in a level instance.

    Projects the first inner vertex of layer A; by the relabeling symmetry
    of the construction this is the marginal of any inner vertex.  Rows are
    returned toward the two other layers in layer order.  Level 0 draws the
    rows of A1 in a ``sample_g0`` instance directly, as two length-n0 lists,
    consuming the same stream (three starred indices, then the coins of
    (a,b), (b,c) and (c,a)); higher levels materialize a full instance and
    return A1's ``TypeRow``s.
    """
    if level == 0:
        n0 = p.n[0]
        ia, ib, ic = [rng.randrange(1, n0 + 1) for _ in LAYERS]
        ab, _, ca = [rng.random() < 0.5 for _ in range(3)]
        to_b, to_c = [1] * n0, [1] * n0
        if ia == 1:
            if ab:
                to_b[ib - 1] = 0
            if ca:
                to_c[ic - 1] = 0
        return to_b, to_c
    g, emb = sample_gr(p, level, rng)
    return tuple(g.type_rows(emb.outer(VertexId(Layer.A, 1))).values())


def _sample_d_in_slot_conditioned(p: ParamSchedule, level: int, t: int,
                                  slot_position: int, slot_index: int,
                                  rng: random.Random, cap: int = 10 ** 6):
    """Rejection-sample the marginal until one slot carries a given type.

    ``slot_position`` is 0 for the first other layer and 1 for the second;
    ``slot_index`` is 1-based.  Returns the full vector pair.
    """
    for _ in range(cap):
        vecs = sample_d_in(p, level, rng)
        if vecs[slot_position][slot_index - 1] == t:
            return vecs
    raise ZeroProbabilityCondition(
        f"no acceptance for type {t} at slot {slot_index} within {cap} attempts"
    )


def sample_d_in_conditioned(p: ParamSchedule, level: int, t: int,
                            slot_position: int, slot_index: int,
                            rng: random.Random, cap: int = 10 ** 6):
    """Conditioned marginal with the conditioning slot removed."""
    vecs = _sample_d_in_slot_conditioned(p, level, t, slot_position,
                                         slot_index, rng, cap)
    kept = list(vecs[slot_position])
    kept.pop(slot_index - 1)
    if slot_position == 0:
        return kept, list(vecs[1])
    return list(vecs[0]), kept


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

    def elements_in_layer(self, layer: Layer):
        """All reserved indices of one layer, in reservation order."""
        out = []
        for sets in self.J.values():
            for s in sets:
                out.extend(s.members.get(layer, []))
        for sets in self.K.values():
            for s in sets:
                out.extend(s.members.get(layer, []))
        for (x, target, t, i), idxs in self.L.items():
            if target is layer:
                out.extend(idxs)
        return out


def sample_aux(ids: dict, p: ParamSchedule, level: int,
               rng: random.Random) -> Auxiliaries:
    """Step-2 reservation: disjoint subsets of each layer's non-starred pool.

    Each layer's pool is one uniform ordered draw of exactly the indices the
    reservation uses, carved into sets in reservation order.
    """
    lv = p.level(level)
    n, n_prev = lv["n"], lv["n_prev"]
    alpha, beta, gamma = lv["alpha"], lv["beta"], lv["gamma"]
    # every layer serves the 2 * n_prev inner vertices of the other layers
    demand = 2 * n_prev * aux_draws_per_vertex_layer(
        n_prev, lv["d"], alpha, beta, gamma, level)
    pools, pos = {}, {}
    for layer in LAYERS:
        free = _Complement(n, sorted(ids[layer]))
        if demand > len(free):
            raise InfeasibleParams(
                f"auxiliary reservation exhausted layer {layer.value}"
            )
        pools[layer], pos[layer] = rng.sample(free, demand), 0

    def take(layer, count):
        p0 = pos[layer]
        pos[layer] = p0 + count
        return pools[layer][p0:p0 + count]

    aux = Auxiliaries()
    for x_layer in LAYERS:
        others = x_layer.others
        for i in range(1, n_prev + 1):
            x = VertexId(x_layer, i)
            aux.J[x] = [
                AuxSet({w: take(w, n_prev) for w in others})
                for _ in range(alpha)
            ]
            for target in others:
                other = others[0] if target is others[1] else others[1]
                for t in range(level + 1):
                    for j in range(1, n_prev + 1):
                        aux.K[(x, target, t, j)] = [
                            AuxSet({target: take(target, n_prev - 1),
                                    other: take(other, n_prev)})
                            for _ in range(beta)
                        ]
                        aux.L[(x, target, t, j)] = take(target, gamma)
    return aux


def public_slot_types(x: VertexId, aux: Auxiliaries, level: int,
                      n_prev: int) -> dict:
    """The publicly forced input slots of one inner vertex (the L types)."""
    out = {w: {} for w in x.layer.others}
    for target in x.layer.others:
        for t in range(level + 1):
            for i in range(1, n_prev + 1):
                for idx in aux.L[(x, target, t, i)]:
                    out[target][idx] = t
    return out


def sample_tilde_input(x: VertexId, ids: dict, aux: Auxiliaries,
                       p: ParamSchedule, level: int, rng: random.Random,
                       n_in: dict | None = None):
    """Step-3 per-vertex input: auxiliary draws plus uniform completion.

    ``n_in`` maps each other layer to x's length-n_prev inner row (a list or
    a ``TypeRow``, read by index); when omitted a phantom inner input is
    drawn from the inner marginal (the conditional law given only identities
    and auxiliaries).
    Returns {other layer: ``TypeRow`` of length n}; only the starred,
    reserved and completed slots are ever touched.
    """
    lv = p.level(level)
    n, n_prev, d = lv["n"], lv["n_prev"], lv["d"]
    default = level + 1
    others = x.layer.others

    if n_in is None:
        v1, v2 = sample_d_in(p, level - 1, rng)
        n_in = {others[0]: v1, others[1]: v2}

    # {0-based slot: type} per other layer; every type stored below is an
    # inner, forced or completed type, at most level, so never the default
    slots = {w: {} for w in others}
    # starred slots copy the inner input
    for w in others:
        for i in range(1, n_prev + 1):
            slots[w][ids[w][i - 1] - 1] = n_in[w][i - 1]
    # J sets carry independent draws of the full inner marginal
    for s in aux.J[x]:
        v1, v2 = sample_d_in(p, level - 1, rng)
        draws = {others[0]: v1, others[1]: v2}
        for w in others:
            for k, idx in enumerate(s.members[w]):
                slots[w][idx - 1] = draws[w][k]
    # K sets carry inner-marginal draws conditioned on one starred slot
    # type, with that slot dropped
    for slot_position, target in enumerate(others):
        for t in range(level + 1):
            for i in range(1, n_prev + 1):
                for s in aux.K[(x, target, t, i)]:
                    draws = dict(zip(others, sample_d_in_conditioned(
                        p, level - 1, t, slot_position, i, rng)))
                    for w in others:
                        for k, idx in enumerate(s.members[w]):
                            slots[w][idx - 1] = draws[w][k]
    # L sets are forced to their bucket's type
    for target, forced in public_slot_types(x, aux, level, n_prev).items():
        for idx, t in forced.items():
            slots[target][idx - 1] = t
    # uniform completion to exact per-type degree d
    for w in others:
        row = slots[w]
        counts = [0] * (level + 1)
        for t in row.values():
            counts[t] += 1
        needs = [d - counts[t] for t in range(level + 1)]
        if any(need < 0 for need in needs):
            raise InfeasibleParams(
                f"publicly fixed slots exceed degree target d={d} "
                f"(counts {counts})"
            )
        total = sum(needs)
        free = _Complement(n, [j + 1 for j in sorted(row)])
        if total > len(free):
            raise InfeasibleParams("not enough free slots for completion")
        chosen = rng.sample(free, total)
        pos = 0
        for t, need in enumerate(needs):
            for idx in chosen[pos:pos + need]:
                row[idx - 1] = t
            pos += need
    return {w: TypeRow(n, default, dict(sorted(row.items())))
            for w, row in slots.items()}


def sample_gr_tilde(p: ParamSchedule, level: int, rng: random.Random):
    """One instance of the restructured family.

    Returns (graph, embedding, auxiliaries, collision_flag) where the flag
    marks any outer vertex that received two or more channels.
    """
    require_feasible(p)
    lv = p.level(level)
    n, n_prev = lv["n"], lv["n_prev"]
    inner = sample_inner(p, level - 1, rng)
    ids = _sample_ids(n, n_prev, rng)
    aux = sample_aux(ids, p, level, rng)
    emb = InnerEmbedding(ids=ids, inner=inner)

    g = TypedTripartiteGraph(n, level)
    incidence = {}
    starred = {layer: emb.starred(layer) for layer in LAYERS}
    for v in emb.inner_vertices():
        rows = sample_tilde_input(v, ids, aux, p, level, rng,
                                  n_in=inner.type_rows(v))
        u = emb.outer(v)
        # stored slots are non-default, so each is a channel (type <= level)
        for w, row in rows.items():
            for j, t in row.slots.items():
                g.set_type(u, VertexId(w, j + 1), t)
                if j + 1 not in starred[w]:
                    key = (w, j + 1)
                    incidence[key] = incidence.get(key, 0) + 1
    collision_flag = any(c >= 2 for c in incidence.values())
    return g, emb, aux, collision_flag
