"""Tripartite graphs with typed vertex pairs and per-round channel schedules.

A graph at round regime ``r`` assigns every cross-layer vertex pair a type in
``[0, r+1]``.  Type 0 pairs are edges; a pair of type ``t`` is a usable channel
in rounds ``1 .. r+1-t``; type ``r+1`` pairs never communicate.  Same-layer
pairs carry no type at all.

Only non-default pairs are stored, in one place: a per-vertex adjacency map
that holds each pair at both endpoints, which is the view a player has of
the pairs at its own vertex.  ``set_row`` is the one write gate: it writes
one vertex's row toward one layer, and checks the whole row before it writes
anything, refusing a same-layer row, an index outside ``[1, n]`` and a type
outside ``[0, r+1]``, so every stored pair is well-formed; ``set_type`` is
its one-slot call.  ``stored_pairs`` yields each pair once, oriented from
its lower-layer endpoint.  ``type_rows`` is the one per-vertex view: a
vertex's view of one other layer is a ``TypeRow``, a read-only length-n row
that holds its non-default slots explicitly and answers the default type
``r+1`` everywhere else, so building and scanning it costs the vertex's
stored pairs, not ``n``.  A per-type channel count is ``row.count(t)``.
Layers order ``A < B < C`` by their string values, and so do ``VertexId``s
by (layer, index), which puts the A endpoint first in every canonical pair
key.

``neighborhood_vector`` gives the same row as a dense list.  No library path
calls it: it stays only as the dense reference that the tests and
``perfbench/tracer.py`` bind by name.
"""

from __future__ import annotations

import json
from enum import Enum
from types import MappingProxyType
from typing import NamedTuple

from .errors import OutOfRange, SameLayerPair, json_int, json_list


class Layer(str, Enum):
    A = "A"
    B = "B"
    C = "C"

    @property
    def others(self) -> tuple["Layer", "Layer"]:
        """The two other layers, in layer order."""
        return _OTHERS[self]


LAYERS = (Layer.A, Layer.B, Layer.C)
_OTHERS = {l: tuple(w for w in LAYERS if w is not l) for l in LAYERS}


class VertexId(NamedTuple):
    """A vertex, named like ``A1``.

    A tuple, so hashing, equality and ordering by (layer, index) run in C;
    its hash is ``hash((layer, index))``.  It also equals the bare tuple
    ``(layer, index)``, so a dict or set must not hold both kinds of key.
    """

    layer: Layer
    index: int  # 1-based

    def __repr__(self):
        return f"{self.layer.value}{self.index}"


def vertices(n: int):
    """Every vertex of a graph with ``n`` vertices per layer, by layer and
    then index."""
    # the same VertexId, without the Python-level ``__new__`` that
    # NamedTuple adds: this runs once per player of every simulation
    new = tuple.__new__
    for layer in LAYERS:
        for i in range(1, n + 1):
            yield new(VertexId, (layer, i))


def pair_key(u: VertexId, v: VertexId) -> tuple[VertexId, VertexId]:
    """Canonical (layer-order, index) key for an unordered cross-layer pair."""
    return (u, v) if u < v else (v, u)


class TypeRow:
    """Read-only length-n row of pair types from one vertex to one layer.

    Indexing is 0-based like the dense list it stands for (slot ``i`` is the
    vertex of index ``i + 1``), negative indices count from the end, and an
    index past either end raises ``IndexError``.  ``slots`` maps each
    non-default 0-based index to its type, in ascending index order; every
    other slot has type ``default``.  The constructor takes ``slots`` as
    given, so callers pass them non-default and sorted.
    """

    __slots__ = ("n", "default", "slots")

    def __init__(self, n: int, default: int, slots: dict | None = None):
        self.n = n
        self.default = default
        self.slots = {} if slots is None else slots

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> int:
        j = i + self.n if i < 0 else i
        if not 0 <= j < self.n:
            raise IndexError(f"slot {i} outside a row of length {self.n}")
        return self.slots.get(j, self.default)

    def __iter__(self):
        get, default = self.slots.get, self.default
        return (get(i, default) for i in range(self.n))

    def count(self, t: int) -> int:
        if t == self.default:
            return self.n - len(self.slots)
        return sum(1 for s in self.slots.values() if s == t)

    def __contains__(self, t) -> bool:
        if t == self.default:
            return len(self.slots) < self.n
        return t in self.slots.values()


class TypedTripartiteGraph:
    """Sparse typed tripartite graph.

    Only pairs with a non-default type are stored, in the adjacency map
    ``_adj``; every unlisted cross-layer pair has the default type ``r + 1``.
    ``set_row`` writes and checks every pair, a row at a time, and
    ``type_rows`` reads a vertex's pairs.  Instances are treated as immutable
    once built.
    """

    def __init__(self, n: int, r: int):
        if n < 1:
            raise OutOfRange(f"layer size must be positive, got {n}")
        if r < 0:
            raise OutOfRange(f"round regime must be non-negative, got {r}")
        self.n = n
        self.r = r
        # the one pair store: vertex -> {other: type} over non-default pairs,
        # each pair held at both endpoints
        self._adj: dict[VertexId, dict[VertexId, int]] = {}
        # the row of a vertex with no stored pair toward a layer, shared by
        # every such vertex and read-only
        self._empty_row = TypeRow(n, r + 1, MappingProxyType({}))

    # -- construction -----------------------------------------------------

    def set_row(self, u: VertexId, target: Layer, slots: dict) -> None:
        """Write types on the pairs from ``u`` to layer ``target``: the one
        write gate.

        ``slots`` maps a 0-based index (slot ``j`` is the vertex of index
        ``j + 1``) to a type, the shape of ``TypeRow.slots``; unlisted slots
        keep their type, and a slot of the default type removes its pair.
        The whole row is checked before anything is written: ``target`` must
        not be ``u``'s layer, ``u`` must lie in ``[1, n]``, every slot in
        ``[0, n-1]`` and every type in ``[0, r+1]``.  Builtin passes give the
        verdict; a refused row is walked only to name its first bad slot.
        """
        if target is u.layer:
            first = next(iter(slots), None)
            what = (f"row of {u}" if first is None
                    else f"pair ({u}, {VertexId(target, first + 1)})")
            raise SameLayerPair(f"{what} lies inside layer {target.value}")
        self._check_vertex(u)
        if not slots:
            return
        n, default = self.n, self.r + 1
        types = slots.values()
        if not (0 <= min(slots) and max(slots) < n
                and 0 <= min(types) and max(types) <= default):
            for j, t in slots.items():
                v = VertexId(target, j + 1)
                self._check_vertex(v)
                if not 0 <= t <= default:
                    raise OutOfRange(
                        f"pair ({u}, {v}) type {t} outside [0, {default}]")
        adj, new = self._adj, tuple.__new__
        own = adj.setdefault(u, {})
        for j, t in slots.items():
            # the same VertexId, without the Python-level ``__new__`` that
            # NamedTuple adds: this runs once per pair written
            v = new(VertexId, (target, j + 1))
            if t == default:
                own.pop(v, None)
                adj.get(v, {}).pop(u, None)
            else:
                own[v] = t
                adj.setdefault(v, {})[u] = t

    def set_type(self, u: VertexId, v: VertexId, t: int) -> None:
        """Write one pair's type: a one-slot ``set_row``."""
        self.set_row(u, v.layer, {v.index - 1: t})

    # -- queries ----------------------------------------------------------

    @property
    def default_type(self) -> int:
        return self.r + 1

    def _check_vertex(self, u: VertexId) -> None:
        if not 1 <= u.index <= self.n:
            raise OutOfRange(f"vertex {u} outside [1, {self.n}]")

    def pair_type(self, u: VertexId, v: VertexId) -> int:
        if u.layer is v.layer:
            raise SameLayerPair(f"pair ({u}, {v}) lies inside layer {u.layer.value}")
        self._check_vertex(u)
        self._check_vertex(v)
        return self._adj.get(u, {}).get(v, self.default_type)

    def stored_pairs(self):
        """Iterate (u, v, type) over pairs with a non-default type, each pair
        once, from its lower-layer endpoint ``u`` (A before B before C)."""
        for u, row in self._adj.items():
            for v, t in row.items():
                if u.layer < v.layer:
                    yield u, v, t

    def has_triangle(self) -> bool:
        """True iff some a in A, b in B, c in C are pairwise type 0."""
        adj = self._adj
        for a, row in adj.items():
            if a.layer is not Layer.A:
                continue
            for b, t in row.items():
                if t != 0 or b.layer is not Layer.B:
                    continue
                b_row = adj[b]
                for c, tc in row.items():
                    if tc == 0 and c.layer is Layer.C and b_row.get(c) == 0:
                        return True
        return False

    def vertices(self):
        return vertices(self.n)

    def neighborhood_vector(self, u: VertexId, target: Layer) -> list[int]:
        """Length-n list of types from ``u`` to every vertex of ``target``."""
        if target is u.layer:
            raise SameLayerPair(f"target layer equals layer of {u}")
        self._check_vertex(u)
        vec = [self.default_type] * self.n
        for v, t in self._adj.get(u, {}).items():
            if v.layer is target:
                vec[v.index - 1] = t
        return vec

    def type_rows(self, u: VertexId) -> dict:
        """The sparse rows of ``u`` toward both other layers, in layer order.

        A row with no stored pair is the graph's shared read-only empty row.
        """
        self._check_vertex(u)
        adj = self._adj.get(u)
        rows = dict.fromkeys(_OTHERS[u.layer], self._empty_row)
        if not adj:
            return rows
        # one sorted pass fills both rows: ``VertexId``s sort by (layer,
        # index), so the pairs come split by layer and in ascending index
        # order, the order ``TypeRow.slots`` keeps
        n, default = self.n, self.r + 1
        layer = None
        for (w, index), t in sorted(adj.items()):
            if w is not layer:
                layer, slots = w, {}
                rows[w] = TypeRow(n, default, slots)
            slots[index - 1] = t
        return rows

    # -- equality / hashing ------------------------------------------------

    def canonical_items(self):
        # ``_value_`` is a plain attribute of the member, where ``value`` is
        # a Python-level property; this runs for every pair of every
        # instance written to a file
        return tuple(sorted((u.layer._value_, u.index, v.layer._value_,
                             v.index, t) for u, v, t in self.stored_pairs()))

    def __eq__(self, other):
        return (
            isinstance(other, TypedTripartiteGraph)
            and self.n == other.n
            and self.r == other.r
            and self.canonical_items() == other.canonical_items()
        )

    def __hash__(self):
        return hash((self.n, self.r, self.canonical_items()))

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "pairs": [list(item) for item in self.canonical_items()],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, obj: dict) -> "TypedTripartiteGraph":
        if not isinstance(obj, dict):
            raise ValueError("an instance must be a JSON object, got "
                             f"{type(obj).__name__}")
        g = cls(json_int(obj["n"], "n"), json_int(obj["r"], "r"))
        seen = set()
        for pair in json_list(obj["pairs"], "pairs"):
            lu, iu, lv, iv, t = json_list(pair, "each pair")
            iu, iv, t = (json_int(x, f"each index and type of pair {pair}")
                         for x in (iu, iv, t))
            u, v = VertexId(Layer(lu), iu), VertexId(Layer(lv), iv)
            g.set_type(u, v, t)
            key = pair_key(u, v)
            if key in seen:
                raise ValueError(f"pair ({key[0]}, {key[1]}) listed twice")
            seen.add(key)
        return g

    @classmethod
    def from_json(cls, text: str) -> "TypedTripartiteGraph":
        return cls.from_dict(json.loads(text))


def brute_force_has_triangle(g: TypedTripartiteGraph) -> bool:
    """Independent triple-scan oracle for has_triangle (use only for small n)."""
    for ia in range(1, g.n + 1):
        a = VertexId(Layer.A, ia)
        for ib in range(1, g.n + 1):
            b = VertexId(Layer.B, ib)
            if g.pair_type(a, b) != 0:
                continue
            for ic in range(1, g.n + 1):
                c = VertexId(Layer.C, ic)
                if g.pair_type(a, c) == 0 and g.pair_type(b, c) == 0:
                    return True
    return False
