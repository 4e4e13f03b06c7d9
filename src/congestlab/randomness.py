"""The three randomness sources available to a protocol.

Every vertex sees a shared public tape, one pair tape per vertex pair that
contains it, and its own private tape.  Tapes are realized as labeled derived
generators: a (kind, key, label) triple deterministically seeds a fresh
``random.Random``, so replays are exact and independent draws never interfere
through shared stream state.
"""

from __future__ import annotations

import hashlib
import random

from .graphs import VertexId, pair_key


def _derive(seed: int, *parts) -> random.Random:
    h = hashlib.sha256(repr((seed,) + parts).encode()).digest()
    return random.Random(int.from_bytes(h[:16], "big"))


def derive_rng(seed: int, *parts) -> random.Random:
    """A fresh generator deterministically keyed by (seed, *parts)."""
    return _derive(seed, *parts)


class RandomnessView:
    """Full randomness state of one execution, keyed by a single seed.
    ``execution`` is an opaque token of it, shared by its restricted views
    and by no other view of an equal seed; it reads no tape."""

    def __init__(self, seed: int):
        self.seed = seed
        self.execution = object()

    def public_rng(self, label: str) -> random.Random:
        return _derive(self.seed, "public", label)

    def pair_rng(self, u: VertexId, v: VertexId, label: str) -> random.Random:
        a, b = pair_key(u, v)
        return _derive(self.seed, "pair", repr(a), repr(b), label)

    def private_rng(self, v: VertexId, label: str) -> random.Random:
        return _derive(self.seed, "private", repr(v), label)

    def restrict(self, v: VertexId) -> "RestrictedView":
        return RestrictedView(self, v)


class RestrictedView:
    """What a single vertex is allowed to see.

    Public tape, pair tapes of pairs containing the owner, and the owner's
    private tape only, and the full view's ``execution`` token.  It
    restricts only to its owner, so code that reads a vertex's tapes through
    ``view.restrict(v)`` takes a full view and a restricted one alike.
    """

    def __init__(self, full: RandomnessView, owner: VertexId):
        self._full = full
        self.owner = owner
        self.execution = full.execution

    def public_rng(self, label: str) -> random.Random:
        return self._full.public_rng(label)

    def pair_rng(self, other: VertexId, label: str) -> random.Random:
        return self._full.pair_rng(self.owner, other, label)

    def private_rng(self, label: str) -> random.Random:
        return self._full.private_rng(self.owner, label)

    def restrict(self, v: VertexId) -> "RestrictedView":
        if v != self.owner:
            raise ValueError(f"{self.owner} cannot read the tapes of {v}")
        return self
