import random
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from congestlab import protocols
from congestlab.elimination import EliminationConfig, build_pi_r_minus_1
from congestlab.errors import (BandwidthViolation, ChannelViolation,
                               OutOfRange, RegimeMismatch, SameLayerPair,
                               SupportTooLarge)
from congestlab.graphs import (LAYERS, Layer, TypedTripartiteGraph, VertexId,
                               pair_key)
from congestlab.params import ParamSchedule
from congestlab.protocols import (ProtocolSpec, Transcript, VertexInput,
                                  exact_success, estimate_success, judge,
                                  registry, round_messages, simulate,
                                  vertex_input, wilson_interval)
from congestlab.randomness import RandomnessView
from congestlab.sampling import (enumerate_g0, sample_g0, sample_gr,
                                 sample_gr_tilde)
from schedules import LOOSE, MICRO, WIDE2

SCHEDULES = Path(__file__).resolve().parents[1] / "perfbench" / "schedules"
N200 = ParamSchedule.from_json((SCHEDULES / "level1-n200.json").read_text())


def triangle_instance():
    g = TypedTripartiteGraph(1, 1)
    a, b, c = VertexId(Layer.A, 1), VertexId(Layer.B, 1), VertexId(Layer.C, 1)
    for u, v in ((a, b), (b, c), (c, a)):
        g.set_type(u, v, 0)
    return g


def test_vertex_input_partners_by_round():
    g = triangle_instance()
    inp = vertex_input(g, VertexId(Layer.A, 1))
    assert set(inp.partners_at_round(1)) == {VertexId(Layer.B, 1),
                                             VertexId(Layer.C, 1)}


def test_simulate_regime_mismatch():
    pi = registry(rounds=2)["all-no"]
    with pytest.raises(RegimeMismatch):
        simulate(pi, triangle_instance(), RandomnessView(0))


def test_type_broadcast_detects_triangle():
    pi = registry(rounds=1)["type-broadcast"]
    transcript, outputs = simulate(pi, triangle_instance(), RandomnessView(0))
    assert any(outputs.values())
    assert judge(triangle_instance(), outputs)
    assert transcript.max_length() == 1


def test_type_broadcast_silent_on_non_edge():
    g = TypedTripartiteGraph(1, 1)
    g.set_type(VertexId(Layer.A, 1), VertexId(Layer.B, 1), 1)
    pi = registry(rounds=1)["type-broadcast"]
    _, outputs = simulate(pi, g, RandomnessView(0))
    assert not any(outputs.values())
    assert judge(g, outputs)


def test_bandwidth_violation_detected():
    pi = ProtocolSpec(
        "fat", 1, 1,
        lambda i, inp, inbox, view: {v: "11" for v in inp.partners_at_round(i)},
        lambda inp, inbox, view: False)
    with pytest.raises(BandwidthViolation):
        simulate(pi, triangle_instance(), RandomnessView(0))


def test_non_bitstring_message_rejected():
    pi = ProtocolSpec(
        "bad", 1, 8,
        lambda i, inp, inbox, view: {v: "2" for v in inp.partners_at_round(i)},
        lambda inp, inbox, view: False)
    with pytest.raises(BandwidthViolation):
        simulate(pi, triangle_instance(), RandomnessView(0))


def test_channel_violation_detected():
    g = TypedTripartiteGraph(1, 1)  # no channels at all
    pi = ProtocolSpec(
        "ghost", 1, 1,
        lambda i, inp, inbox, view: {VertexId(Layer.B, 1): "0"}
        if inp.identity.layer is Layer.A else {},
        lambda inp, inbox, view: False)
    with pytest.raises(ChannelViolation):
        simulate(pi, g, RandomnessView(0))


A1, A2 = VertexId(Layer.A, 1), VertexId(Layer.A, 2)
B1, B2, C1 = VertexId(Layer.B, 1), VertexId(Layer.B, 2), VertexId(Layer.C, 1)


def from_a1(msgs, rounds=1, bandwidth=3):
    """A protocol in which only A1 sends, ``msgs`` in every round."""
    return ProtocolSpec(
        "from-a1", rounds, bandwidth,
        lambda i, inp, inbox, view: msgs if inp.identity == A1 else {},
        lambda inp, inbox, view: False)


def a1_with_two_channels():
    # n = 2: A1-B1 has type 0, A1-C1 type 1, every other pair the default
    g = TypedTripartiteGraph(2, 1)
    g.set_type(A1, B1, 0)
    g.set_type(A1, C1, 1)
    return g


def test_vertex_input_pair_type_refuses_what_the_graph_refuses():
    # B0 used to wrap to the type of B2, the row's last slot, and an
    # own-layer vertex raised a bare KeyError
    g = a1_with_two_channels()
    inp = vertex_input(g, A1)
    for v in (B1, B2, C1, VertexId(Layer.C, 2)):
        assert inp.pair_type(v) == g.pair_type(A1, v)
    for v, error in ((VertexId(Layer.B, 0), OutOfRange),
                     (VertexId(Layer.C, 3), OutOfRange),
                     (A1, SameLayerPair), (A2, SameLayerPair)):
        with pytest.raises(error) as want:
            g.pair_type(A1, v)
        with pytest.raises(error, match=f"^{re.escape(str(want.value))}$"):
            inp.pair_type(v)


@pytest.mark.parametrize("bits", ["0x1", "10 ", 1, None, b"0", "1010"],
                         ids=["letter", "space", "int", "None", "bytes",
                              "too-long"])
def test_round_messages_refuses_all_but_bit_strings_within_bandwidth(bits):
    g = a1_with_two_channels()
    pi = from_a1({B1: bits})
    with pytest.raises(BandwidthViolation, match="A1->B1"):
        round_messages(pi, 1, vertex_input(g, A1), {}, None)
    with pytest.raises(BandwidthViolation, match="A1->B1"):
        simulate(pi, g, RandomnessView(0))


def test_round_messages_passes_the_empty_message_and_full_bandwidth():
    g = a1_with_two_channels()
    msgs = {B1: "", C1: "011"}
    pi = from_a1(msgs)
    assert round_messages(pi, 1, vertex_input(g, A1), {}, None) == msgs
    transcript, _ = simulate(pi, g, RandomnessView(0))
    assert transcript.entries == {(1, A1, B1): "", (1, A1, C1): "011"}


@pytest.mark.parametrize("target", [
    A2, VertexId(Layer.B, 0), VertexId(Layer.B, 3), B2, (Layer.B, 1), "B1",
], ids=["same-layer", "index-0", "index-n+1", "default-type", "bare-tuple",
        "string"])
def test_round_messages_refuses_a_target_without_a_channel(target):
    g = a1_with_two_channels()
    pi = from_a1({target: "0"})
    with pytest.raises(ChannelViolation, match="no channel for A1->"):
        round_messages(pi, 1, vertex_input(g, A1), {}, None)
    with pytest.raises(ChannelViolation, match="no channel for A1->"):
        simulate(pi, g, RandomnessView(0))


def test_round_messages_reads_the_round_cutoff():
    # a type-2 pair at r = 2 is a channel in round 1 only
    g = TypedTripartiteGraph(1, 2)
    g.set_type(A1, B1, 2)
    pi = from_a1({B1: "1"}, rounds=2)
    inp = vertex_input(g, A1)
    assert round_messages(pi, 1, inp, {}, None) == {B1: "1"}
    with pytest.raises(ChannelViolation, match="round 2"):
        round_messages(pi, 2, inp, {}, None)
    with pytest.raises(ChannelViolation, match="round 2"):
        simulate(pi, g, RandomnessView(0))


def test_inbox_of_returns_a_copy_in_recording_order():
    t = Transcript()
    t.record(2, B1, A1, "11")
    t.record(1, B1, A1, "0")
    t.record(1, C1, A1, "1")
    both = {(2, B1): "11", (1, B1): "0", (1, C1): "1"}
    assert t.inbox_of(B1) == {}
    for _ in range(2):
        got = t.inbox_of(A1)
        assert got == both and list(got) == list(both)
        got.pop((1, B1))
        got[(3, C1)] = "0"
    assert t.inbox_of(A1) == both


def test_judge_rules():
    g = triangle_instance()
    vs = list(g.vertices())
    assert judge(g, {v: v.layer is Layer.A for v in vs})
    assert not judge(g, {v: False for v in vs})
    g2 = TypedTripartiteGraph(1, 1)
    assert judge(g2, {v: False for v in g2.vertices()})
    assert not judge(g2, {v: True for v in g2.vertices()})


def test_transcript_jsonl_contains_all_messages():
    pi = registry(rounds=1)["constant-message"]
    transcript, _ = simulate(pi, triangle_instance(), RandomnessView(0))
    lines = transcript.to_jsonl().splitlines()
    assert len(lines) == 6  # three channels, both directions


def test_exact_success_all_no_is_seven_eighths():
    pi = registry(rounds=0)["all-no"]
    assert exact_success(pi, enumerate_g0(1)) == Fraction(7, 8)


def test_exact_success_always_yes_is_one_eighth():
    pi = registry(rounds=0)["always-yes"]
    assert exact_success(pi, enumerate_g0(1)) == Fraction(1, 8)


def test_exact_success_rejects_tape_dependence():
    pi = ProtocolSpec(
        "coin", 0, 1,
        lambda i, inp, inbox, view: {},
        lambda inp, inbox, view: view.private_rng("c").random() < 0.5,
        deterministic=False)
    with pytest.raises(SupportTooLarge):
        exact_success(pi, enumerate_g0(1))


def test_estimate_success_matches_exact():
    pi = registry(rounds=0)["all-no"]
    freq, (lo, hi) = estimate_success(
        pi, lambda s: sample_g0(1, random.Random(s))[0], 2000, 0)
    assert lo <= 7 / 8 <= hi
    assert abs(freq - 7 / 8) < 0.03


@pytest.mark.parametrize("trials", [0, -1])
def test_estimate_success_refuses_trials_below_one(trials):
    def sampler(seed):
        raise AssertionError("an instance was drawn")

    with pytest.raises(ValueError, match="at least 1"):
        estimate_success(registry(rounds=0)["all-no"], sampler, trials, 0)


def test_simulate_runs_every_vertex_with_its_own_view():
    # every vertex is a player: the channel-free ones too run message_fn in
    # every round and output_fn once, each call with a view of its own
    p = ParamSchedule.from_json((SCHEDULES / "level1-n200.json").read_text())
    g, _ = sample_gr(p, 1, random.Random(0))
    inner = registry(rounds=1)["type-broadcast"]
    calls = Counter()
    rows = {}

    def message_fn(i, inp, inbox, view):
        calls["message", i, inp.identity] += 1
        assert view.owner == inp.identity
        rows[inp.identity] = inp.vectors
        return inner.message_fn(i, inp, inbox, view)

    def output_fn(inp, inbox, view):
        calls["output", inp.identity] += 1
        assert view.owner == inp.identity
        return inner.output_fn(inp, inbox, view)

    pi = ProtocolSpec("counting", 1, 1, message_fn, output_fn)
    transcript, outputs = simulate(pi, g, RandomnessView(0))
    vertices = list(g.vertices())
    assert list(outputs) == vertices
    assert calls == Counter([("message", 1, v) for v in vertices]
                            + [("output", v) for v in vertices])
    touched = {w for u, v, _ in g.stored_pairs() for w in (u, v)}
    free = [v for v in vertices if v not in touched]
    assert len(free) == 426
    for v in free:
        assert list(rows[v]) == list(v.layer.others)
        for w, row in rows[v].items():
            assert list(row) == g.neighborhood_vector(v, w)
    assert len(transcript.entries) == 360


def test_wilson_interval_bounds():
    lo, hi = wilson_interval(0, 10)
    assert lo == 0.0 and 0 < hi < 0.35
    lo, hi = wilson_interval(10, 10)
    assert hi == 1.0 and lo > 0.65


# -- reference simulator ----------------------------------------------------


class DenseInput(VertexInput):
    """A vertex input over dense length-n lists, scanned slot by slot, so
    that its channels do not come from the sparse walk."""

    def channels_at_round(self, i):
        cutoff = self.r + 1 - i
        return [(VertexId(w, j), t) for w, vec in self.vectors.items()
                for j, t in enumerate(vec, start=1) if t <= cutoff]


def assert_channels_match_the_dense_scan(g, vertices):
    """``channels_at_round`` of each vertex, in every round, against the
    dense scan of ``neighborhood_vector`` and against ``partners_at_round``
    with ``pair_type``."""
    for v in vertices:
        inp = vertex_input(g, v)
        dense = DenseInput(v, {w: g.neighborhood_vector(v, w)
                               for w in v.layer.others}, g.r)
        for i in range(1, g.r + 1):
            got = inp.channels_at_round(i)
            assert got == dense.channels_at_round(i), (v, i)
            assert got == [(w, inp.pair_type(w))
                           for w in inp.partners_at_round(i)]
            assert all(type(w) is VertexId for w, _ in got)


@pytest.mark.parametrize("p, family", [
    (MICRO, sample_gr), (MICRO, sample_gr_tilde), (WIDE2, sample_gr),
    (WIDE2, sample_gr_tilde), (LOOSE, sample_gr), (LOOSE, sample_gr_tilde),
    (N200, sample_gr),
], ids=["MICRO-gr", "MICRO-tilde", "WIDE2-gr", "WIDE2-tilde", "LOOSE-gr",
        "LOOSE-tilde", "level1-n200-gr"])
def test_channels_at_round_match_the_dense_scan(p, family):
    # every vertex with a stored pair, and the first channel-free vertex of
    # each layer; level1-n200 (d = 8) is too small for the restructured
    # completion, whose gate refuses it
    for seed in range(2):
        g = family(p, 1, random.Random(seed))[0]
        touched = sorted({w for u, v, _ in g.stored_pairs() for w in (u, v)})
        free = [next(v for v in g.vertices()
                     if v.layer is layer and v not in touched)
                for layer in LAYERS]
        assert_channels_match_the_dense_scan(g, touched + free)


def test_channels_at_round_match_the_dense_scan_in_both_rounds():
    # at r = 2, a type-2 pair is a channel in round 1 only, and pairs of
    # types 0 and 1 in both rounds
    for seed in range(5):
        g = random_two_round_instance(random.Random(seed))
        assert_channels_match_the_dense_scan(g, g.vertices())
        for i, want in ((1, {0, 1, 2}), (2, {0, 1})):
            assert {t for v in g.vertices()
                    for _, t in vertex_input(g, v).channels_at_round(i)} == want


def dense_inputs(g):
    """Every vertex's input as dense lists from ``neighborhood_vector``."""
    return {v: DenseInput(v, {w: g.neighborhood_vector(v, w)
                              for w in v.layer.others}, g.r)
            for v in g.vertices()}


def reference_simulate(p, g, rnd, inputs=None):
    """Dense inputs (``dense_inputs``, unless given), the channel set of
    each round, and every inbox grouped from one scan of all messages;
    returns (entries, outputs)."""
    inputs = dense_inputs(g) if inputs is None else inputs
    entries = {}

    def inboxes(upto):
        boxes = {v: {} for v in inputs}
        for (i, s, rcv), bits in entries.items():
            if i <= upto:
                boxes[rcv][(i, s)] = bits
        return boxes

    for i in range(1, p.rounds + 1):
        available = {(u, v) for u, v, t in g.stored_pairs()
                     if t <= g.r + 1 - i}
        sent, boxes = {}, inboxes(i - 1)
        for v, inp in inputs.items():
            msgs = p.message_fn(i, inp, boxes[v], rnd.restrict(v))
            for target, bits in msgs.items():
                assert pair_key(v, target) in available
                assert len(bits) <= p.bandwidth
                sent[(i, v, target)] = bits
        entries.update(sent)
    boxes = inboxes(p.rounds)
    outputs = {v: bool(p.output_fn(inp, boxes[v], rnd.restrict(v)))
               for v, inp in inputs.items()}
    return entries, outputs


def assert_matches_reference(pi, g, seed, inputs=None):
    transcript, outputs = simulate(pi, g, RandomnessView(seed))
    entries, ref_outputs = reference_simulate(pi, g, RandomnessView(seed),
                                              inputs)
    # the same entries, recorded in the same order
    assert list(transcript.entries.items()) == list(entries.items())
    assert outputs == ref_outputs


@pytest.mark.parametrize("name", sorted(registry(rounds=1)))
def test_simulate_matches_reference_on_recursive_instances(name):
    pi = registry(rounds=1)[name]
    for family in (sample_gr, sample_gr_tilde):
        for seed in range(3):
            g = family(MICRO, 1, random.Random(seed))[0]
            assert_matches_reference(pi, g, seed)


@pytest.mark.parametrize("family", [sample_gr, sample_gr_tilde])
def test_simulate_matches_reference_on_wide_instances(family):
    # n_prev = 2 and n = 600: every registry protocol on each draw, the
    # dense inputs built once per draw
    for seed in range(2):
        g = family(WIDE2, 1, random.Random(seed))[0]
        inputs = dense_inputs(g)
        for pi in registry(rounds=1).values():
            assert_matches_reference(pi, g, seed, inputs)


@pytest.mark.parametrize("name", sorted(registry(rounds=0)))
def test_simulate_matches_reference_on_base_instances(name):
    pi = registry(rounds=0)[name]
    for seed in range(6):
        g, _ = sample_g0(3, random.Random(seed))
        assert_matches_reference(pi, g, seed)


def test_compiled_protocol_matches_reference():
    cfg = EliminationConfig(params=MICRO, level=1)
    pi = build_pi_r_minus_1(registry(rounds=1)["type-broadcast"], cfg)
    for seed in range(2):
        g, _ = sample_g0(1, random.Random(seed))
        assert_matches_reference(pi, g, seed)


@pytest.mark.parametrize("family", [sample_gr, sample_gr_tilde])
@pytest.mark.parametrize("p", [MICRO, WIDE2], ids=["MICRO", "WIDE2"])
def test_declared_message_given_type_is_what_round_one_sends(p, family):
    # the exact inner transcript law trusts this declaration in place of
    # message_fn, on inner (starred) and outer vertices alike
    declared = {name: pi for name, pi in registry(rounds=1).items()
                if pi.message_given_type is not None}
    assert set(declared) == {"all-no", "always-yes", "constant-message",
                             "type-broadcast"}
    for seed in range(2):
        g, emb = family(p, 1, random.Random(seed))[:2]
        starred = [emb.outer(x) for x in emb.inner.vertices()]
        touched = {w for u, v, _ in g.stored_pairs() for w in (u, v)}
        isolated = next(v for v in g.vertices() if v not in touched)
        outer = sorted(touched - set(starred))
        assert starred and outer
        for v in starred + outer + [isolated]:
            inp = vertex_input(g, v)
            for pi in declared.values():
                want = {w: pi.message_given_type(inp.pair_type(w))
                        for w in inp.partners_at_round(1)}
                want = {w: bits for w, bits in want.items()
                        if bits is not None}
                assert pi.message_fn(1, inp, {}, None) == want, (pi.name, v)


@pytest.mark.parametrize("family", [sample_gr, sample_gr_tilde])
@pytest.mark.parametrize("p", [MICRO, WIDE2], ids=["MICRO", "WIDE2"])
def test_parity_sends_zero_from_every_starred_vertex(p, family):
    # a starred vertex has exactly d type-0 pairs toward each other layer,
    # so its type-0 count 2d is even on every draw of both families
    pi = registry(rounds=1)["parity"]
    d = p.level(1)["d"]
    for seed in range(5):
        g, emb = family(p, 1, random.Random(seed))[:2]
        for x in emb.inner.vertices():
            msgs = pi.message_fn(1, vertex_input(g, emb.outer(x)), {}, None)
            # one message per round-1 channel: types 0 and 1, both layers
            assert len(msgs) == 4 * d
            assert set(msgs.values()) == {"0"}


def _echo_messages(i, inp, inbox, view):
    # round 1 sends edge bits; round 2 reports the parity of the ones heard
    # and of the inbox size, so a message seen too early changes the bits
    if i == 1:
        return {v: "1" if inp.pair_type(v) == 0 else "0"
                for v in inp.partners_at_round(1)}
    ones = sum(bits.count("1") for bits in inbox.values())
    bits = f"{ones % 2}{len(inbox) % 2}"
    return {v: bits for v in inp.partners_at_round(i)}


def _echo_output(inp, inbox, view):
    return sum(bits.count("1") for bits in inbox.values()) % 2 == 1


def random_two_round_instance(rng):
    """An r = 2 instance on 5 vertices per layer, each cross-layer pair
    given a random type in [0, 2] with probability 1/2."""
    g = TypedTripartiteGraph(5, 2)
    for u in g.vertices():
        for v in g.vertices():
            if u.layer < v.layer and rng.random() < 0.5:
                g.set_type(u, v, rng.randrange(3))
    return g


def test_two_round_simulate_matches_reference():
    pi = ProtocolSpec("echo", 2, 2, _echo_messages, _echo_output)
    for seed in range(5):
        g = random_two_round_instance(random.Random(seed))
        transcript, _ = simulate(pi, g, RandomnessView(seed))
        assert {rnd for rnd, _, _ in transcript.entries} == {1, 2}
        assert_matches_reference(pi, g, seed)


def test_wilson_interval_of_no_trials_is_the_unit_interval():
    assert wilson_interval(0, 0) == (0.0, 1.0)


def test_exact_success_refuses_a_support_above_its_cap(monkeypatch):
    # enumerate_g0(1) has 8 entries: a cap of 8 takes them, 7 refuses
    pi = registry(rounds=0)["all-no"]
    monkeypatch.setattr(protocols, "EXACT_SUPPORT_CAP", 8)
    assert exact_success(pi, enumerate_g0(1)) == Fraction(7, 8)
    monkeypatch.setattr(protocols, "EXACT_SUPPORT_CAP", 7)
    with pytest.raises(SupportTooLarge, match="support exceeds cap 7"):
        exact_success(pi, enumerate_g0(1))
