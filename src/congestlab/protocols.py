"""Deterministic protocol abstraction, synchronous simulation, and judging.

Messages are bit strings of explicit length (zero-length allowed); a pair
without an available channel carries no entry at all, which receivers can
distinguish from an empty message through the channel metadata in their
inputs.

A vertex's input holds one sparse ``TypeRow`` per other layer, built from the
graph's stored pairs, and the transcript files every message under its
receiver too, so a round costs the stored pairs and the messages sent, not
``n`` slots per vertex or a scan of all messages per vertex.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (BandwidthViolation, ChannelViolation, RegimeMismatch,
                     SupportTooLarge)
from .graphs import TypedTripartiteGraph, VertexId, pair_key
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
        return self.vectors[other.layer][other.index - 1]

    def partners_at_round(self, i: int):
        """Vertices reachable in round i >= 1 (pairs of type <= r+1-i), in
        layer and then index order.  Default slots never qualify, so only
        the stored slots are walked."""
        cutoff = self.r + 1 - i
        for layer, row in self.vectors.items():
            for j, t in row.slots.items():
                if t <= cutoff:
                    yield VertexId(layer, j + 1)


def vertex_input(g: TypedTripartiteGraph, v: VertexId) -> VertexInput:
    return VertexInput(identity=v, vectors=g.type_rows(v), r=g.r)


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

    def inbox_of(self, v: VertexId, upto_round: int) -> dict:
        inbox = self._inboxes.get(v)
        if not inbox:
            return {}
        return {key: bits for key, bits in inbox.items()
                if key[0] <= upto_round}

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


def _check_bits(bits: str, s: int, sender, receiver):
    if not isinstance(bits, str) or any(ch not in "01" for ch in bits):
        raise BandwidthViolation(
            f"message {sender}->{receiver} is not a bit string: {bits!r}"
        )
    if len(bits) > s:
        raise BandwidthViolation(
            f"message {sender}->{receiver} has {len(bits)} bits > s={s}"
        )


def simulate(p: ProtocolSpec, g: TypedTripartiteGraph, rnd: RandomnessView):
    """Synchronous execution; returns (Transcript, {vertex: Yes boolean})."""
    if p.rounds != g.r:
        raise RegimeMismatch(f"protocol rounds {p.rounds} != graph regime {g.r}")
    # every vertex is a player, with or without channels: one input and one
    # randomness view each, kept for every round and the output step
    players = [(v, vertex_input(g, v), rnd.restrict(v)) for v in g.vertices()]
    transcript = Transcript()
    for i in range(1, p.rounds + 1):
        available = g.channels_at_round(i)
        round_msgs = []
        for v, inp, view in players:
            msgs = p.message_fn(i, inp, transcript.inbox_of(v, i - 1), view)
            for target, bits in msgs.items():
                if pair_key(v, target) not in available:
                    raise ChannelViolation(
                        f"round {i}: no channel for {v}->{target}"
                    )
                _check_bits(bits, p.bandwidth, v, target)
                round_msgs.append((v, target, bits))
        # deliver only after the whole round is computed
        for v, target, bits in round_msgs:
            transcript.record(i, v, target, bits)
    outputs = {
        v: bool(p.output_fn(inp, transcript.inbox_of(v, p.rounds), view))
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
        return {v: bits_of_type(inp.pair_type(v))
                for v in inp.partners_at_round(i)}
    return ProtocolSpec(name, rounds, bandwidth, fn, output_fn,
                        message_given_type=bits_of_type)


def _all_no(inp, inbox, view):
    return False


def _all_yes(inp, inbox, view):
    return True


def _probe_first_slot(i, inp, inbox, view):
    return {v: _edge_bit(inp.vectors[v.layer][0])
            for v in inp.partners_at_round(i)}


def _parity_messages(i, inp, inbox, view):
    count = sum(vec.count(0) for vec in inp.vectors.values())
    bit = "1" if count % 2 else "0"
    return {v: bit for v in inp.partners_at_round(i)}


def _edge_witness_output(inp, inbox, view):
    # Yes iff this vertex touches edges toward both other layers and some
    # neighbor reported an edge of its own
    has_both = all(0 in vec for vec in inp.vectors.values())
    heard = any(bits == "1" for bits in inbox.values())
    return has_both and heard


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
