"""Deterministic protocol abstraction, synchronous simulation, and judging.

Messages are bit strings of explicit length (zero-length allowed); a pair
without an available channel carries no entry at all, which receivers can
distinguish from an empty message through the channel metadata in their
inputs.

A vertex's input holds one sparse ``TypeRow`` per other layer, built from the
graph's stored pairs, and the transcript files every message under its
receiver too.  So one ``simulate`` call costs one ``message_fn`` call per
player per round, one ``output_fn`` call per player and the graph's stored
pairs: no ``n`` slots per vertex, no scan of all messages per vertex, and
no per-player work beyond a player's input, view and inbox.

``VertexInput.channels_at_round`` is the one cutoff rule: one walk of a
player's stored slots lists its round-``i`` channels, the pairs of type
``<= r+1-i``, each with its type, and the registry protocols send from it.
``round_messages`` is the one round-``i`` message rule.  It checks every
message against the sender's own rows and the bandwidth, refusing a target
that ``channels_at_round`` would not list, and ``simulate`` and the staged
sampler of ``elimination`` both send through it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (BandwidthViolation, ChannelViolation, OutOfRange,
                     RegimeMismatch, SameLayerPair, SupportTooLarge)
from .graphs import TypedTripartiteGraph, VertexId
from .randomness import RandomnessView

WILSON_Z = 1.96  # two-sided 95% normal quantile
PROBE_SEEDS = 20  # tapes a randomized protocol's outcome must agree over
EXACT_SUPPORT_CAP = 10 ** 6  # largest support ``exact_success`` walks


@dataclass
class VertexInput:
    """Everything one vertex knows up front: identity and its type rows.

    ``vectors`` maps each other layer, in layer order, to a read-only
    length-n ``TypeRow``: slot ``j`` (0-based) is the type of the pair with
    vertex ``j + 1`` of that layer, stored explicitly when it is not the
    default ``r+1``.  Rows support ``[]``, ``len``, iteration, ``count`` and
    ``in`` like the dense lists they replace.
    """

    identity: VertexId
    vectors: dict  # other Layer -> TypeRow
    r: int

    def pair_type(self, other: VertexId) -> int:
        """The type of the pair with ``other``, refused as the graph's
        ``pair_type`` refuses it: a vertex of this vertex's own layer raises
        ``SameLayerPair``, an index outside ``[1, n]`` ``OutOfRange``."""
        row = self.vectors.get(other.layer)
        if row is None:
            raise SameLayerPair(f"pair ({self.identity}, {other}) lies "
                                f"inside layer {other.layer.value}")
        if not 1 <= other.index <= len(row):
            raise OutOfRange(f"vertex {other} outside [1, {len(row)}]")
        return row[other.index - 1]

    def channels_at_round(self, i: int) -> list:
        """(partner, type) for each channel of round i >= 1, in layer and
        then index order: the one rule that lists a round's channels, the
        pairs of type <= r+1-i.  Default slots never qualify, so one walk of
        the stored slots gives them."""
        cutoff = self.r + 1 - i
        # the same VertexId, without the Python-level ``__new__`` that
        # NamedTuple adds: this runs once per channel of every player
        new = tuple.__new__
        return [(new(VertexId, (layer, j + 1)), t)
                for layer, row in self.vectors.items()
                for j, t in row.slots.items() if t <= cutoff]

    def partners_at_round(self, i: int):
        """The partners of ``channels_at_round(i)``, in its order."""
        for v, _ in self.channels_at_round(i):
            yield v


def vertex_input(g: TypedTripartiteGraph, v: VertexId) -> VertexInput:
    return VertexInput(v, g.type_rows(v), g.r)


@dataclass
class ProtocolSpec:
    """A protocol: per-round message map plus an output rule.

    message_fn(round, input, inbox, view) returns {partner VertexId: bits};
    output_fn(input, inbox, view) returns True for Yes.  ``inbox`` maps
    (round, sender) to the received bit string.  ``deterministic`` protocols
    must ignore the randomness view entirely.  ``message_given_type`` is set
    when every round-1 message is a fixed function of the pair type alone;
    it maps a type to the bits sent over a channel of that type.
    """

    name: str
    rounds: int
    bandwidth: int
    message_fn: object
    output_fn: object
    deterministic: bool = True
    message_given_type: object = None


class Transcript:
    """All messages of one execution, keyed by (round, sender, receiver)."""

    def __init__(self):
        self.entries: dict = {}
        # receiver -> {(round, sender): bits}, in recording order
        self._inboxes: dict = {}

    def record(self, rnd: int, sender: VertexId, receiver: VertexId, bits: str):
        self.entries[(rnd, sender, receiver)] = bits
        self._inboxes.setdefault(receiver, {})[(rnd, sender)] = bits

    def inbox_of(self, v: VertexId) -> dict:
        """A new dict of all ``v`` has received, keyed by (round, sender)."""
        inbox = self._inboxes.get(v)
        return dict(inbox) if inbox else {}

    def max_length(self) -> int:
        return max((len(b) for b in self.entries.values()), default=0)

    def to_jsonl(self) -> str:
        lines = []
        for (rnd, s, rcv), bits in sorted(
            self.entries.items(), key=lambda kv: (kv[0][0], repr(kv[0][1]), repr(kv[0][2]))
        ):
            lines.append(json.dumps({
                "round": rnd, "from": repr(s), "to": repr(rcv),
                "bits": bits, "len": len(bits),
            }))
        return "\n".join(lines)


def round_messages(p: ProtocolSpec, i: int, inp: VertexInput, inbox: dict,
                   view) -> dict:
    """The round-``i`` messages of the player ``inp``, checked.

    Every target must be a ``VertexId`` that ``inp.channels_at_round(i)``
    lists, a stored slot of a type <= r+1-i looked up target by target, or
    ``ChannelViolation`` is raised: a same-layer
    target, an index outside [1, n] and a default-type slot never qualify.
    Every message must be a bit string of at most ``p.bandwidth`` bits, or
    ``BandwidthViolation`` is raised.  Returns ``message_fn``'s dict.
    """
    msgs = p.message_fn(i, inp, inbox, view)
    v, rows, cutoff, s = inp.identity, inp.vectors, inp.r + 1 - i, p.bandwidth
    for target, bits in msgs.items():
        row = rows.get(target.layer) if type(target) is VertexId else None
        t = None if row is None else row.slots.get(target.index - 1)
        if t is None or t > cutoff:
            raise ChannelViolation(f"round {i}: no channel for {v}->{target}")
        if not isinstance(bits, str) or bits.strip("01"):
            raise BandwidthViolation(
                f"message {v}->{target} is not a bit string: {bits!r}")
        if len(bits) > s:
            raise BandwidthViolation(
                f"message {v}->{target} has {len(bits)} bits > s={s}")
    return msgs


def simulate(p: ProtocolSpec, g: TypedTripartiteGraph, rnd: RandomnessView):
    """Synchronous execution; returns (Transcript, {vertex: Yes boolean}).

    Every vertex is a player, with or without channels, and sends through
    ``round_messages``.  This is the one place that decides what a player
    has heard: a round is delivered only after every player computed it.
    """
    if p.rounds != g.r:
        raise RegimeMismatch(f"protocol rounds {p.rounds} != graph regime {g.r}")
    # one input and one randomness view per player, kept for every round
    # and the output step
    players = [(v, vertex_input(g, v), rnd.restrict(v)) for v in g.vertices()]
    transcript = Transcript()
    for i in range(1, p.rounds + 1):
        sent = []
        for v, inp, view in players:
            msgs = round_messages(p, i, inp, transcript.inbox_of(v), view)
            if msgs:
                sent.append((v, msgs))
        # deliver only after the whole round is computed
        for v, msgs in sent:
            for target, bits in msgs.items():
                transcript.record(i, v, target, bits)
    outputs = {
        v: bool(p.output_fn(inp, transcript.inbox_of(v), view))
        for v, inp, view in players
    }
    return transcript, outputs


def judge(g: TypedTripartiteGraph, outputs: dict) -> bool:
    """Success rule: any Yes suffices on triangle instances, otherwise all
    vertices must say No."""
    if g.has_triangle():
        return any(outputs.values())
    return not any(outputs.values())


def wilson_interval(successes: int, trials: int):
    """The 95% Wilson score interval of a success frequency."""
    if trials == 0:
        return (0.0, 1.0)
    z = WILSON_Z
    phat = successes / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def estimate_success(p: ProtocolSpec, sampler, trials: int, seed: int):
    """Monte Carlo success frequency with a 95% Wilson interval.

    ``sampler(seed)`` returns an instance.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    successes = 0
    for i in range(trials):
        g = sampler(seed + i)
        _, outputs = simulate(p, g, RandomnessView(seed + i))
        if judge(g, outputs):
            successes += 1
    return successes / trials, wilson_interval(successes, trials)


def exact_success(p: ProtocolSpec, support):
    """Exact success probability over an explicit weighted support.

    ``support`` yields (graph, ..., weight) tuples with exact rational
    weights.  A deterministic protocol runs on one seed.  For protocols that
    consume randomness, the judged outcome is required to be identical
    across ``PROBE_SEEDS`` seeds on every instance; a tape-dependent outcome
    raises, since no exact value exists then.
    """
    seeds = range(1 if p.deterministic else PROBE_SEEDS)
    total = Fraction(0)
    count = 0
    for entry in support:
        count += 1
        if count > EXACT_SUPPORT_CAP:
            raise SupportTooLarge(
                f"support exceeds cap {EXACT_SUPPORT_CAP}")
        g, weight = entry[0], entry[-1]
        verdicts = set()
        for s in seeds:
            _, outputs = simulate(p, g, RandomnessView(s))
            verdicts.add(judge(g, outputs))
        if len(verdicts) != 1:
            raise SupportTooLarge(
                "judged outcome depends on the randomness tapes; "
                "no exact success value exists"
            )
        if verdicts.pop():
            total += weight
    return total


# -- registry -------------------------------------------------------------


def _no_messages(i, inp, inbox, view):
    return {}


def _edge_bit(t):
    return "1" if t == 0 else "0"


def _broadcast(name, rounds, bandwidth, bits_of_type, output_fn):
    """A protocol that sends ``bits_of_type(t)`` over each channel of type t,
    which is then also its ``message_given_type``."""
    def fn(i, inp, inbox, view):
        return {v: bits_of_type(t) for v, t in inp.channels_at_round(i)}
    return ProtocolSpec(name, rounds, bandwidth, fn, output_fn,
                        message_given_type=bits_of_type)


def _all_no(inp, inbox, view):
    return False


def _all_yes(inp, inbox, view):
    return True


def _probe_first_slot(i, inp, inbox, view):
    # each row's first slot is read once, not once per partner
    bits = {layer: _edge_bit(row[0]) for layer, row in inp.vectors.items()}
    return {v: bits[v.layer] for v, _ in inp.channels_at_round(i)}


def _parity_messages(i, inp, inbox, view):
    count = sum(vec.count(0) for vec in inp.vectors.values())
    bit = "1" if count % 2 else "0"
    return {v: bit for v, _ in inp.channels_at_round(i)}


def _edge_witness_output(inp, inbox, view):
    # Yes iff some neighbor reported an edge of its own and this vertex
    # touches edges toward both other layers; the inbox is read first, as
    # most vertices heard nothing
    return ("1" in inbox.values()
            and all(0 in vec for vec in inp.vectors.values()))


def registry(rounds: int = 1, bandwidth: int = 1) -> dict:
    """Built-in protocols at a given (rounds, bandwidth).

    On level-1 instances of ``sample_gr`` and ``sample_gr_tilde``, ``parity``
    sends ``"0"`` from every starred vertex: a starred vertex has exactly
    ``d`` type-0 pairs toward each other layer, and ``2d`` is even.  At
    MICRO (``n = [1, 29]``, ``d = [6]``) no answer depends on any message:
    only ``type-broadcast`` reads its inbox, and each starred vertex, with
    type-0 partners in both other layers, hears their ``"1"`` and says Yes.
    """
    return {
        "all-no": ProtocolSpec(
            "all-no", rounds, bandwidth, _no_messages, _all_no,
            message_given_type=lambda t: None,
        ),
        "always-yes": ProtocolSpec(
            "always-yes", rounds, bandwidth, _no_messages, _all_yes,
            message_given_type=lambda t: None,
        ),
        "constant-message": _broadcast(
            "constant-message", rounds, bandwidth, lambda t: "0", _all_no),
        "type-broadcast": _broadcast(
            "type-broadcast", rounds, bandwidth, _edge_bit,
            _edge_witness_output),
        "parity": ProtocolSpec(
            "parity", rounds, bandwidth, _parity_messages, _all_no,
        ),
        "probe-first-slot": ProtocolSpec(
            "probe-first-slot", rounds, bandwidth, _probe_first_slot, _all_no,
        ),
    }
