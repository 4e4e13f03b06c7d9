"""Tripartite graphs with typed vertex pairs and per-round channel schedules.

A graph at round regime ``r`` assigns every cross-layer vertex pair a type in
``[0, r+1]``.  Type 0 pairs are edges; a pair of type ``t`` is a usable channel
in rounds ``1 .. r+1-t``; type ``r+1`` pairs never communicate.  Same-layer
pairs carry no type at all.

Only non-default pairs are stored.  A vertex's view of one other layer is a
``TypeRow``: a read-only length-n row that holds its non-default slots
explicitly and answers the default type ``r+1`` everywhere else, so building
and scanning it costs the vertex's stored pairs, not ``n``.  Layers order
``A < B < C`` by their string values, and so do ``VertexId``s by (layer,
index), which puts the A endpoint first in every canonical pair key.

``neighborhood_vector`` gives the same row as a dense list.  No library path
calls it: it stays only as the dense reference that the tests and
``perfbench/tracer.py`` bind by name.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

from .errors import OutOfRange, RoundOutOfRange, SameLayerPair


class Layer(str, Enum):
    A = "A"
    B = "B"
    C = "C"

    @property
    def others(self) -> tuple["Layer", "Layer"]:
        """The two other layers, in layer order."""
        return tuple(l for l in LAYERS if l is not self)  # type: ignore[return-value]


LAYERS = (Layer.A, Layer.B, Layer.C)


@dataclass(frozen=True, order=True)
class VertexId:
    layer: Layer
    index: int  # 1-based

    def __repr__(self):
        return f"{self.layer.value}{self.index}"


def pair_key(u: VertexId, v: VertexId) -> tuple[VertexId, VertexId]:
    """Canonical (layer-order, index) key for an unordered cross-layer pair."""
    return (u, v) if (u.layer, u.index) < (v.layer, v.index) else (v, u)


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

    Only pairs with a non-default type are stored; every unlisted cross-layer
    pair has the default type ``r + 1``.  Instances are treated as immutable
    once built.
    """

    def __init__(self, n: int, r: int, pair_types: dict | None = None):
        if n < 1:
            raise OutOfRange(f"layer size must be positive, got {n}")
        if r < 0:
            raise OutOfRange(f"round regime must be non-negative, got {r}")
        self.n = n
        self.r = r
        self._types: dict[tuple[VertexId, VertexId], int] = {}
        # adjacency: vertex -> {other: type} over stored (non-default) pairs
        self._adj: dict[VertexId, dict[VertexId, int]] = {}
        if pair_types:
            for (u, v), t in pair_types.items():
                self.set_type(u, v, t)

    # -- construction -----------------------------------------------------

    def set_type(self, u: VertexId, v: VertexId, t: int) -> None:
        self._check_pair(u, v)
        key = pair_key(u, v)
        if t == self.default_type:
            self._types.pop(key, None)
            if u in self._adj:
                self._adj[u].pop(v, None)
            if v in self._adj:
                self._adj[v].pop(u, None)
            return
        self._types[key] = t
        self._adj.setdefault(u, {})[v] = t
        self._adj.setdefault(v, {})[u] = t

    # -- queries ----------------------------------------------------------

    @property
    def default_type(self) -> int:
        return self.r + 1

    def _check_vertex(self, u: VertexId) -> None:
        if not 1 <= u.index <= self.n:
            raise OutOfRange(f"vertex {u} outside [1, {self.n}]")

    def _check_pair(self, u: VertexId, v: VertexId) -> None:
        if u.layer is v.layer:
            raise SameLayerPair(f"pair ({u}, {v}) lies inside layer {u.layer.value}")
        self._check_vertex(u)
        self._check_vertex(v)

    def pair_type(self, u: VertexId, v: VertexId) -> int:
        self._check_pair(u, v)
        return self._types.get(pair_key(u, v), self.default_type)

    def stored_pairs(self):
        """Iterate (u, v, type) over pairs with a non-default type."""
        for (u, v), t in self._types.items():
            yield u, v, t

    def channels_at_round(self, i: int) -> set[tuple[VertexId, VertexId]]:
        """Unordered pairs usable at round ``i``: exactly those of type <= r+1-i."""
        if not 1 <= i <= self.r:
            raise RoundOutOfRange(f"round {i} outside [1, {self.r}]")
        cutoff = self.r + 1 - i
        return {key for key, t in self._types.items() if t <= cutoff}

    def channel_degree(self, u: VertexId, t: int, target: Layer) -> int:
        """Number of vertices in ``target`` whose pair with ``u`` has type ``t``."""
        if target is u.layer:
            raise SameLayerPair(f"target layer equals layer of {u}")
        self._check_vertex(u)
        if t == self.default_type:
            stored = sum(1 for v in self._adj.get(u, {}) if v.layer is target)
            return self.n - stored
        return sum(
            1 for v, tt in self._adj.get(u, {}).items() if v.layer is target and tt == t
        )

    def total_channel_degree(self, u: VertexId) -> int:
        """Number of partners with type <= r (i.e. usable in some round)."""
        self._check_vertex(u)
        return sum(1 for t in self._adj.get(u, {}).values() if t <= self.r)

    def edges(self) -> set[tuple[VertexId, VertexId]]:
        return {key for key, t in self._types.items() if t == 0}

    def has_triangle(self) -> bool:
        """True iff some a in A, b in B, c in C are pairwise type 0."""
        for (u, v), t in self._types.items():
            # canonical keys put the A endpoint first, so AB edges are (a, b)
            if t != 0 or u.layer is not Layer.A or v.layer is not Layer.B:
                continue
            a, b = u, v
            for c, tc in self._adj.get(a, {}).items():
                if c.layer is Layer.C and tc == 0 and self._adj.get(b, {}).get(c) == 0:
                    return True
        return False

    def vertices(self):
        for layer in LAYERS:
            for i in range(1, self.n + 1):
                yield VertexId(layer, i)

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
        """The sparse rows of ``u`` toward both other layers, in layer order."""
        self._check_vertex(u)
        slots = {w: {} for w in u.layer.others}
        for v, t in self._adj.get(u, {}).items():
            slots[v.layer][v.index - 1] = t
        return {w: TypeRow(self.n, self.default_type, dict(sorted(s.items())))
                for w, s in slots.items()}

    def validate(self) -> list[str]:
        """Return a list of invariant violations (empty when well-formed)."""
        violations = []
        for (u, v), t in self._types.items():
            if u.layer is v.layer:
                violations.append(f"SameLayerPair: ({u}, {v})")
            if not (1 <= u.index <= self.n and 1 <= v.index <= self.n):
                violations.append(f"IndexOutOfRange: ({u}, {v})")
            if not 0 <= t <= self.r + 1:
                violations.append(f"TypeRangeViolation: ({u}, {v}) has type {t}")
            if (u, v) != pair_key(u, v):
                violations.append(f"NonCanonicalKey: ({u}, {v})")
            if self._adj.get(u, {}).get(v) != t or self._adj.get(v, {}).get(u) != t:
                violations.append(f"SymmetryViolation: ({u}, {v})")
        return violations

    # -- equality / hashing ------------------------------------------------

    def canonical_items(self):
        return tuple(
            sorted(
                ((u.layer.value, u.index, v.layer.value, v.index, t)
                 for (u, v), t in self._types.items())
            )
        )

    def __eq__(self, other):
        return (
            isinstance(other, TypedTripartiteGraph)
            and self.n == other.n
            and self.r == other.r
            and self._types == other._types
        )

    def __hash__(self):
        return hash((self.n, self.r, self.canonical_items()))

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "pairs": [
                [u.layer.value, u.index, v.layer.value, v.index, t]
                for (u, v), t in sorted(
                    self._types.items(), key=lambda kv: (kv[0][0], kv[0][1])
                )
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, obj: dict) -> "TypedTripartiteGraph":
        g = cls(int(obj["n"]), int(obj["r"]))
        for lu, iu, lv, iv, t in obj["pairs"]:
            u = VertexId(Layer(lu), int(iu))
            v = VertexId(Layer(lv), int(iv))
            g.set_type(u, v, int(t))
        bad = g.validate()
        if bad:
            raise ValueError(f"instance file violates invariants: {bad}")
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
