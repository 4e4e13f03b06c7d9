import dataclasses
import random
from decimal import Decimal, getcontext

import pytest

from congestlab import elimination
from congestlab.elimination import (HYBRIDS, EliminationConfig, StageMemo,
                                    build_pi_r_minus_1, degradation_bound,
                                    dreal_sampler, hybrid_sampler,
                                    result1_chain, run_elimination_trials,
                                    run_stages, sample_pair_stage,
                                    sample_private_stage,
                                    sample_public_stage, theorem1_bound,
                                    theorem1_precondition)
from congestlab.errors import (BandwidthViolation, ChannelViolation,
                               EmptyOrRareSupport, InfeasibleParams)
from congestlab.graphs import Layer, VertexId, vertices
from congestlab.params import ParamSchedule
from congestlab.protocols import (ProtocolSpec, registry, simulate,
                                  vertex_input)
from congestlab.randomness import RandomnessView, derive_rng
from congestlab.sampling import (public_slots, sample_g0, sample_gr,
                                 sample_gr_tilde, sample_inner)
from schedules import LOOSE, MICRO, SMALL2, SPARSE3, WIDE2

CFG = EliminationConfig(params=MICRO, level=1, cap=3000)
REG = registry(rounds=1, bandwidth=1)


def test_public_stage_shapes_and_forced_slots():
    pi = REG["type-broadcast"]
    st1 = sample_public_stage(pi, CFG, random.Random(0))
    for x in vertices(1):
        for target, t, _, idx in public_slots(x, st1.aux, 1, 1):
            assert t in (0, 1)
            assert idx not in st1.ids[target]
        # public messages live on predecessor slots only
        for w in st1.m_pub[x]:
            i_star = st1.ids[w.layer][0]
            assert w.index < i_star


def test_m_pub_size_bound():
    pi = REG["probe-first-slot"]
    for seed in range(10):
        st1 = sample_public_stage(pi, CFG, random.Random(seed))
        for x in vertices(1):
            # at most 2 * gamma * (level+1) * n_prev public messages
            assert len(st1.m_pub[x]) <= 2 * 1 * 2 * 1


def test_constant_message_m_pub_is_constant():
    pi = REG["constant-message"]
    st1 = sample_public_stage(pi, CFG, random.Random(1))
    for x in vertices(1):
        assert all(bits == "0" for bits in st1.m_pub[x].values())


def test_pair_stage_type_broadcast_is_type_determined():
    pi = REG["type-broadcast"]
    st1 = sample_public_stage(pi, CFG, random.Random(2))
    x, y = VertexId(Layer.A, 1), VertexId(Layer.B, 1)
    for t, expect in ((0, "1"), (1, "0")):
        bits, attempts = sample_pair_stage(pi, CFG, st1, x, y, t,
                                           random.Random(3))
        assert bits == expect
        assert attempts >= 1


def test_pair_stage_empirical_law_probe_first_slot():
    # the sampled message law must track the conditional of the protocol's
    # actual message under phantom inputs
    pi = REG["probe-first-slot"]
    st1 = sample_public_stage(pi, CFG, random.Random(4))
    x, y = VertexId(Layer.A, 1), VertexId(Layer.C, 1)
    rng = random.Random(5)
    ones = sum(
        sample_pair_stage(pi, CFG, st1, x, y, 0, rng)[0] == "1"
        for _ in range(200)
    )
    # the message probes slot 1 of the target layer; it is "1" with the
    # marginal probability that slot 1 is an edge, which is bounded away
    # from 0 and 1
    assert 0 < ones < 200


def test_private_stage_consistency_and_degrees():
    pi = REG["type-broadcast"]
    st1 = sample_public_stage(pi, CFG, random.Random(6))
    inner, _ = sample_g0(1, random.Random(6))
    for x in vertices(1):
        n_in = {w: [inner.pair_type(x, VertexId(w, 1))]
                for w in x.layer.others}
        m_in_out = {}
        for y in vertices(1):
            if y.layer is x.layer:
                continue
            t = inner.pair_type(x, y)
            m_in_out[y], _ = sample_pair_stage(pi, CFG, st1, x, y, t,
                                               derive_rng(7, repr(x), repr(y)))
        s3 = sample_private_stage(pi, CFG, st1, x, n_in, m_in_out,
                                  random.Random(8))
        assert not s3.fallback_used
        for w in x.layer.others:
            assert s3.vecs[w].count(0) == 6
            assert s3.vecs[w].count(1) == 6


@pytest.mark.parametrize("cap", [0, -1])
def test_config_refuses_cap_below_one(cap):
    with pytest.raises(InfeasibleParams, match="cap"):
        EliminationConfig(params=MICRO, cap=cap)


def test_config_refuses_an_unknown_fallback_policy():
    with pytest.raises(InfeasibleParams, match="fallback policy keep"):
        EliminationConfig(MICRO, fallback="keep")


def test_config_refuses_a_schedule_restructured_inputs_cannot_complete():
    with pytest.raises(InfeasibleParams, match="RestructuredSlotViolation"):
        EliminationConfig(params=SMALL2)


def test_config_and_sampler_refuse_what_the_shared_check_refuses():
    # room for the level-1 frame needs n > 1 * (2*6*2 + 1) = 25; the
    # completion room alone (5 <= 6) would accept it
    tight = ParamSchedule(n=[1, 12], d=[6], alpha=[1], beta=[1], gamma=[1])
    with pytest.raises(InfeasibleParams, match="SamplingRoomViolation"):
        EliminationConfig(params=tight)
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(InfeasibleParams, match="SamplingRoomViolation"):
        sample_gr_tilde(tight, 1, rng)
    assert rng.getstate() == state


def test_run_stages_refuses_inputs_larger_than_the_inner_layers(monkeypatch):
    pi = REG["type-broadcast"]
    g, _ = sample_g0(2, random.Random(0))
    # the compiled protocol at n_prev = 1 on a 2-vertex-per-layer instance
    with pytest.raises(InfeasibleParams, match=r"\[2\].*n_prev = 1"):
        simulate(build_pi_r_minus_1(pi, CFG), g, RandomnessView(0))

    def no_draw(*args):
        raise AssertionError("the public stage drew")

    monkeypatch.setattr(elimination, "sample_public_stage", no_draw)
    monkeypatch.setattr(StageMemo, "public_stage", no_draw)
    a1, a2 = VertexId(Layer.A, 1), VertexId(Layer.A, 2)
    short = {w: [1] for w in Layer.A.others}
    every = {x: {w: [1] for w in x.layer.others} for x in vertices(1)}
    full = RandomnessView(0)
    # rows for other layers than A1's two, or with a type outside the inner
    # instance's [0, 1], are no inner input; a rung that keeps the true
    # inner input needs every inner vertex's input, a rung outside the
    # ladder names no stages at all, and a view restricted to B1 cannot
    # read A1's tapes
    for inputs, rung, view, error, match in (
            ({a1: g.type_rows(a1)}, "dfake", full, InfeasibleParams,
             "n_prev = 1"),
            ({a2: short}, "dfake", full, InfeasibleParams, "n_prev = 1"),
            ({a1: {Layer.B: [1]}}, "dfake", full, InfeasibleParams,
             "not for its two other layers"),
            ({a1: {w: [1] for w in Layer}}, "dfake", full, InfeasibleParams,
             "not for its two other layers"),
            ({a1: {Layer.B: [5], Layer.C: [1]}}, "dfake", full,
             InfeasibleParams, r"types \[5\], outside \[0, 1\]"),
            ({a1: short}, "h2", full, InfeasibleParams, "every inner vertex"),
            ({a1: short}, "h1", full, InfeasibleParams, "every inner vertex"),
            (every, "dtilde_real", full, InfeasibleParams, "unknown rung"),
            ({a1: short}, "dfake", full.restrict(VertexId(Layer.B, 1)),
             ValueError, "cannot read the tapes of A1")):
        with pytest.raises(error, match=match):
            run_stages(pi, CFG, inputs, rung, view, StageMemo())


def test_build_rounds_and_bandwidth():
    for name, pi in REG.items():
        built = build_pi_r_minus_1(pi, CFG)
        assert built.rounds == 0
        assert built.bandwidth <= pi.bandwidth


OUTSIDE_THE_REGIME = {
    "two-round": registry(rounds=2)["type-broadcast"],
    "randomized": dataclasses.replace(REG["type-broadcast"],
                                      deterministic=False),
}


@pytest.mark.parametrize("kind", list(OUTSIDE_THE_REGIME))
def test_every_entry_point_refuses_a_protocol_outside_the_regime(
        monkeypatch, kind):
    pi = OUTSIDE_THE_REGIME[kind]
    g, _ = sample_g0(1, random.Random(0))
    inputs = {x: g.type_rows(x) for x in g.vertices()}

    def no_draw(*args):
        raise AssertionError("drew before refusing")

    for name in ("derive_rng", "sample_inner", "sample_public_stage",
                 "sample_gr_tilde"):
        monkeypatch.setattr(elimination, name, no_draw)
    calls = {
        "build": lambda: build_pi_r_minus_1(pi, CFG),
        "trials": lambda: run_elimination_trials(pi, CFG, 3, 0),
        "stages": lambda: run_stages(pi, CFG, inputs, "dfake",
                                     RandomnessView(0)),
        **{which: lambda which=which: hybrid_sampler(which, pi, CFG, 0)
           for which in HYBRIDS},
    }
    messages = {}
    for name, call in calls.items():
        with pytest.raises(InfeasibleParams) as exc:
            call()
        messages[name] = str(exc.value)
    assert len(set(messages.values())) == 1, messages
    assert "deterministic 1-round protocols only" in messages["build"]


def test_trials_refuse_a_bandwidth_below_one_before_any_draw(monkeypatch):
    pi = registry(rounds=1, bandwidth=0)["all-no"]

    def no_draw(*args):
        raise AssertionError("drew before refusing")

    monkeypatch.setattr(elimination, "sample_inner", no_draw)
    with pytest.raises(InfeasibleParams, match="s must be >= 1"):
        run_elimination_trials(pi, CFG, 200, 0)


def test_config_refuses_a_level_other_than_one():
    # the level is checked, not stored: no stage can read another one
    cfg = EliminationConfig(MICRO, level=1)
    assert [f.name for f in dataclasses.fields(cfg)] == [
        "params", "cap", "fallback"]
    assert "level" not in vars(cfg)
    two_levels = ParamSchedule(n=[1, 29, 10 ** 6], d=[6, 5046],
                               alpha=[1, 1], beta=[1, 1], gamma=[1, 1])
    with pytest.raises(InfeasibleParams, match="level 1 only, got level 2"):
        EliminationConfig(two_levels, level=2)


def test_build_rejects_deeper_regimes():
    pi = registry(rounds=2)["all-no"]
    with pytest.raises(InfeasibleParams):
        build_pi_r_minus_1(pi, CFG)


def test_built_protocol_sends_nothing():
    built = build_pi_r_minus_1(REG["type-broadcast"], CFG)
    g, _ = sample_g0(1, random.Random(9))
    from congestlab.protocols import simulate
    transcript, outputs = simulate(built, g, RandomnessView(9))
    assert transcript.entries == {}
    assert set(outputs) == set(g.vertices())


def test_trials_report_counters():
    rep = run_elimination_trials(REG["constant-message"], CFG, trials=8,
                                 seed=11)
    assert rep.rounds_used == 0
    assert rep.trials == 8
    assert rep.fallback_count == 0
    assert rep.inconsistency_count == 0
    assert rep.failed_trials == 0
    assert 0 <= rep.success_frequency <= 1
    assert rep.predicted_degradation == degradation_bound(1, 1)


def test_trials_report_attempts_per_stage():
    rep = run_elimination_trials(REG["constant-message"], CFG, trials=8,
                                 seed=11)
    assert rep.rejection_attempts == rep.pair_attempts + rep.private_attempts
    assert (rep.pair_attempts, rep.private_attempts) == (48, 24)
    # rejection_attempts keeps its seeded value
    assert rep.rejection_attempts == 72


def test_inconsistency_count_counts_the_kept_fallbacks():
    # at cap 3 one private stage of these trials finds no consistent draw;
    # "drop" keeps it and counts it, "fail" ends its trial instead
    pi = REG["probe-first-slot"]
    drop = run_elimination_trials(
        pi, EliminationConfig(MICRO, cap=3, fallback="drop"), 5, 2)
    assert drop.inconsistency_count == drop.fallback_count >= 1
    fail = run_elimination_trials(
        pi, EliminationConfig(MICRO, cap=3, fallback="fail"), 5, 2)
    assert fail.inconsistency_count == 0
    assert fail.fallback_count >= 1


def test_bandwidth_is_read_off_judged_runs_only():
    # at cap 3 the trial stops on 36 of these 60 seeds; a stopped trial is
    # not judged, so its completed private stages carry no bandwidth
    cfg = EliminationConfig(MICRO, cap=3, fallback="fail")
    stopped = 0
    for seed in range(60):
        rep = run_elimination_trials(REG["probe-first-slot"], cfg, 1, seed)
        stopped += rep.failed_trials
        assert rep.bandwidth_used == (0 if rep.failed_trials else 1), seed
    assert 0 < stopped < 60


def _two_bit_broadcast(i, inp, inbox, view):
    return {v: "11" if inp.pair_type(v) == 0 else "00"
            for v in inp.partners_at_round(i)}


def _two_bits_where(one_channel: bool):
    """2 bits from the vertices with exactly one channel (as every outer
    partner of the private stage has) or from those with more (as every
    starred vertex has), 1 bit from the others."""
    def message_fn(i, inp, inbox, view):
        partners = list(inp.partners_at_round(i))
        bits = "11" if (len(partners) == 1) is one_channel else "0"
        return dict.fromkeys(partners, bits)
    return message_fn


def _to_everyone(i, inp, inbox, view):
    return {VertexId(w, j): "0" for w, row in inp.vectors.items()
            for j in range(1, len(row) + 1)}


# a 2-bit copy of type-broadcast at bandwidth 1, two protocols that send 2
# bits only from the outer partners or only from the starred vertices (so
# the staged routes meet each at one step alone), and a protocol that sends
# to every vertex of both other layers, with the error each must raise
BROKEN = {
    "two-bit": (dataclasses.replace(
        REG["type-broadcast"], name="two-bit", message_fn=_two_bit_broadcast,
        message_given_type=None), BandwidthViolation, "2 bits > s=1"),
    **{kind: (ProtocolSpec(kind, 1, 1, _two_bits_where(one_channel),
                           REG["all-no"].output_fn),
              BandwidthViolation, "2 bits > s=1")
       for kind, one_channel in (("two-bit-outer", True),
                                 ("two-bit-starred", False))},
    "to-everyone": (ProtocolSpec(
        "to-everyone", 1, 1, _to_everyone, REG["all-no"].output_fn),
        ChannelViolation, "round 1: no channel for"),
}


@pytest.mark.parametrize("kind", list(BROKEN))
def test_a_protocol_breaking_the_message_rule_raises_on_every_route(kind):
    # the staged routes draw messages on phantom and completed inputs; each
    # goes through the round-1 message rule that simulate applies
    pi, error, text = BROKEN[kind]
    g, _ = sample_gr(MICRO, 1, random.Random(0))
    calls = {
        "trials": lambda: run_elimination_trials(pi, CFG, 3, 0),
        "simulate": lambda: simulate(pi, g, RandomnessView(0)),
        **{which: lambda which=which: hybrid_sampler(which, pi, CFG, 0)
           for which in HYBRIDS},
    }
    for name, call in calls.items():
        with pytest.raises(error, match=text):
            call()
            pytest.fail(f"{name} returned")


def _replay_breaks(pi, cfg, which, seed):
    """Replay pi on the instance a staged draw assembles and compare with
    the staged transcript on every message touching a starred vertex.

    A collided outer vertex (non-starred, two or more channels) is given a
    one-channel view by the private stage, under the paper's degree-one
    assumption, so the messages it sends may differ.  Returns the other
    messages that differ, and whether the draw collided.
    """
    g, emb, _, staged = hybrid_sampler(which, pi, cfg, seed)
    replayed, _ = simulate(pi, g, RandomnessView(seed))
    starred = {emb.outer(x) for x in emb.inner.vertices()}
    collided = {w for u, v, _ in g.stored_pairs() for w in (u, v)
                if w not in starred
                and sum(len(row.slots) for row in g.type_rows(w).values()) >= 2}
    # a transcript key is (round, sender, receiver)
    breaks = sorted(
        k for k in staged.entries.keys() | replayed.entries.keys()
        if (k[1] in starred or k[2] in starred) and k[1] not in collided
        and staged.entries.get(k) != replayed.entries.get(k))
    return breaks, bool(collided)


@pytest.mark.parametrize("p, names, rungs, seeds, collides", [
    (MICRO, list(REG), ("h1", "h2", "dfake"), 6, True),
    (WIDE2, list(REG), ("dfake",), 2, True),
    (LOOSE, ["parity", "probe-first-slot"], ("dfake",), 2, False),
], ids=["MICRO", "WIDE2", "LOOSE"])
def test_staged_transcript_equals_a_replay_on_the_assembled_instance(
        p, names, rungs, seeds, collides):
    # a dfake draw is the trial's draw for the same seed; MICRO and WIDE2
    # draws collide and LOOSE draws do not, so both sides of the rule run
    cfg = EliminationConfig(params=p, level=1, cap=3000)
    collided = []
    for name in names:
        for which in rungs:
            for seed in range(seeds):
                breaks, hit = _replay_breaks(REG[name], cfg, which, seed)
                assert breaks == [], (name, which, seed, breaks[:3])
                collided.append(hit)
    assert any(collided) if collides else not any(collided)


def _row(row):
    return row.n, row.default, dict(row.slots)


def _drawn(run, x):
    s3 = run.s3[x]
    rows = {w: _row(row) for w, row in s3.vecs.items()}
    partners = {w: (inp.identity, inp.r,
                    {layer: _row(row) for layer, row in inp.vectors.items()})
                for w, inp in s3.partners.items()}
    return (run.st1, rows, s3.outgoing, partners, s3.incoming,
            s3.fallback_used, s3.attempts, run.received(x))


@pytest.mark.parametrize("p, names, seeds", [
    (MICRO, list(REG), 15),
    (WIDE2, list(REG), 3),
    (SPARSE3, ["type-broadcast", "parity", "probe-first-slot"], 1),
], ids=["MICRO", "WIDE2", "SPARSE3"])
def test_shared_run_equals_compiled_protocol(monkeypatch, p, names, seeds):
    # one shared run of the stages gives every inner vertex the draws and
    # the answer that vertex reaches alone in the compiled protocol; at
    # WIDE2 and SPARSE3 (n_prev = 2 and 3) the inner indices differ, so a
    # pair type read from the wrong slot of a row shows
    real = elimination._pi_r_output
    seen = {}

    def spy(pi, cfg, run, x, view):
        seen[x] = _drawn(run, x)
        return real(pi, cfg, run, x, view)

    monkeypatch.setattr(elimination, "_pi_r_output", spy)
    cfg = EliminationConfig(params=p, level=1, cap=3000)
    for pi in (REG[name] for name in names):
        built = build_pi_r_minus_1(pi, cfg)
        for seed in range(seeds):
            inner = sample_inner(p, 0, derive_rng(seed, "inner"))
            view = RandomnessView(seed)
            inputs = {x: inner.type_rows(x) for x in inner.vertices()}
            run = run_stages(pi, cfg, inputs, "dfake", view)
            assert run.failure is None
            shared = {x: real(pi, cfg, run, x, view.restrict(x))
                      for x in run.s3}
            seen.clear()
            _, outputs = simulate(built, inner, RandomnessView(seed))
            assert outputs == shared
            assert seen == {x: _drawn(run, x) for x in run.s3}


def _staged(run):
    """Everything a staged run drew, in a form that compares by value."""
    return (run.st1, run.m_in, run.pair_attempts, run.private_attempts,
            repr(run.failure), {x: _drawn(run, x) for x in run.s3})


def _compiled(monkeypatch, built, g, seed):
    """Each player's staged run in one compiled execution, and the
    answers."""
    real, runs = elimination.run_stages, {}

    def spy(pi, cfg, inputs, rung, view, memo=None):
        (x,) = inputs
        runs[x] = real(pi, cfg, inputs, rung, view, memo)
        return runs[x]

    with monkeypatch.context() as m:
        m.setattr(elimination, "run_stages", spy)
        _, outputs = simulate(built, g, RandomnessView(seed))
    return {x: _staged(run) for x, run in runs.items()}, outputs


@pytest.mark.parametrize("p, seeds", [(MICRO, 3), (WIDE2, 1)],
                         ids=["MICRO", "WIDE2"])
def test_compiled_players_run_as_they_would_alone(monkeypatch, p, seeds):
    # the players of a compiled execution share its public and pair stages;
    # each one's run and answer equal those of a run with no memo
    cfg = EliminationConfig(params=p, level=1, cap=3000)
    for name, pi in REG.items():
        built = build_pi_r_minus_1(pi, cfg)
        for seed in range(seeds):
            g, _ = sample_g0(p.n[0], random.Random(seed))
            runs, outputs = _compiled(monkeypatch, built, g, seed)
            assert runs.keys() == set(g.vertices())
            for x, shared in runs.items():
                view = RandomnessView(seed).restrict(x)
                alone = run_stages(pi, cfg, {x: vertex_input(g, x).vectors},
                                   "dfake", view)
                assert shared == _staged(alone), (name, seed, x)
                assert outputs[x] == (alone.failure is None and (
                    elimination._pi_r_output(pi, cfg, alone, x, view)))


@pytest.mark.parametrize("p", [MICRO, WIDE2], ids=["MICRO", "WIDE2"])
def test_a_compiled_execution_draws_each_tape_stage_once(monkeypatch, p):
    # one public stage per execution, one pair stage per ordered inner pair,
    # and a memo hit derives no tape: one stage1 tape, one tape per pair
    calls, derived = [], []
    for name in ("sample_public_stage", "sample_pair_stage"):
        def counted(*args, real=getattr(elimination, name), name=name):
            calls.append(name if name == "sample_public_stage"
                         else args[3:5])
            return real(*args)
        monkeypatch.setattr(elimination, name, counted)
    for name in ("public_rng", "pair_rng"):
        def derive(view, *args, real=getattr(RandomnessView, name)):
            derived.append(args[-1])
            return real(view, *args)
        monkeypatch.setattr(RandomnessView, name, derive)
    n_prev = p.n[0]
    pairs = sorted((x, y) for x in vertices(n_prev) for y in vertices(n_prev)
                   if x.layer is not y.layer)
    tapes = sorted(["stage1", *(f"m_in:{x!r}->{y!r}" for x, y in pairs)])
    cfg = EliminationConfig(params=p, level=1, cap=3000)
    for name in ("type-broadcast", "probe-first-slot"):
        built = build_pi_r_minus_1(REG[name], cfg)
        for seed in (0, 1):
            g, _ = sample_g0(n_prev, random.Random(seed))
            calls.clear()
            derived.clear()
            simulate(built, g, RandomnessView(seed))
            assert calls.count("sample_public_stage") == 1
            assert sorted(c for c in calls
                          if c != "sample_public_stage") == pairs
            assert sorted(derived) == tapes, (name, seed)


def test_a_memo_tells_apart_executions_of_an_equal_seed(monkeypatch):
    # an execution is its view's token, not its seed: a second view of seed
    # 0 draws its own public stage, and each run equals its unshared run
    pi = REG["probe-first-slot"]
    a1 = VertexId(Layer.A, 1)
    inputs = {a1: {w: [1] for w in Layer.A.others}}
    real, drawn = elimination.sample_public_stage, []

    def counted(*args):
        drawn.append(args)
        return real(*args)

    monkeypatch.setattr(elimination, "sample_public_stage", counted)
    memo, shared = StageMemo(), []
    for view in (RandomnessView(0).restrict(a1),
                 RandomnessView(0).restrict(a1)):
        shared.append(run_stages(pi, CFG, inputs, "dfake", view, memo))
        assert _staged(shared[-1]) == _staged(
            run_stages(pi, CFG, inputs, "dfake", view))
        assert memo.st1 is shared[-1].st1
    assert shared[0].st1 is not shared[1].st1
    # each run with the memo, then each without it
    assert len(drawn) == 4


def test_each_execution_equals_a_freshly_compiled_protocol(monkeypatch):
    # a new execution replaces the memo: seeds 0, 1 and 0 again through
    # one compiled protocol run as through a new one each
    pi = REG["probe-first-slot"]
    built = build_pi_r_minus_1(pi, CFG)
    for seed in (0, 1, 0):
        g, _ = sample_g0(1, random.Random(seed))
        assert _compiled(monkeypatch, built, g, seed) == _compiled(
            monkeypatch, build_pi_r_minus_1(pi, CFG), g, seed), seed


def test_runs_sharing_a_memo_draw_their_own_pair_of_another_type(
        monkeypatch):
    # two inputs of A1 that disagree on the type of A1B1, under one tape:
    # the second run reuses the public stage and the A1C1 pairs, and draws
    # both A1B1 messages anew (type-broadcast sends the pair's type)
    pi = REG["type-broadcast"]
    a1, b1 = VertexId(Layer.A, 1), VertexId(Layer.B, 1)
    rows = {Layer.B: [0], Layer.C: [1]}
    view, memo = RandomnessView(0).restrict(a1), StageMemo()
    real, drawn = elimination.sample_pair_stage, []

    def counted(*args):
        drawn.append(args[3:6])
        return real(*args)

    monkeypatch.setattr(elimination, "sample_pair_stage", counted)
    runs = []
    for t in (0, 1):
        inputs = {a1: {**rows, Layer.B: [t]}}
        runs.append(run_stages(pi, CFG, inputs, "dfake", view, memo))
        assert _staged(runs[-1]) == _staged(
            run_stages(pi, CFG, inputs, "dfake", view)), t
    assert runs[0].m_in[(a1, b1)] != runs[1].m_in[(a1, b1)]
    # each run with the memo, then each without it
    assert [args[:2] for args in drawn].count((a1, b1)) == 4
    assert len(drawn) == 4 + 4 + 2 + 4


@pytest.mark.parametrize("rung", ["h1", "h2"])
def test_a_rung_that_keeps_the_inner_input_reads_no_memo(rung):
    # the memo holds the dfake stages of the same tapes; a rung that keeps
    # the true inner input in a stage must not take that stage from it
    pi = REG["probe-first-slot"]
    view, memo = RandomnessView(0), StageMemo()
    for seed in (1, 2):
        inner = sample_inner(MICRO, 0, random.Random(seed))
        inputs = {x: inner.type_rows(x) for x in inner.vertices()}
        run_stages(pi, CFG, inputs, "dfake", view, memo)
        assert _staged(run_stages(pi, CFG, inputs, rung, view, memo)) == (
            _staged(run_stages(pi, CFG, inputs, rung, view))), seed


def test_a_pair_stage_without_a_draw_is_not_kept(monkeypatch):
    calls = []

    def rare(*args):
        calls.append(args[3:5])
        raise EmptyOrRareSupport("no phantom input", pair=args[3:5])

    monkeypatch.setattr(elimination, "sample_pair_stage", rare)
    a1 = VertexId(Layer.A, 1)
    inputs = {a1: {w: [1] for w in Layer.A.others}}
    view, memo = RandomnessView(0).restrict(a1), StageMemo()
    for _ in range(2):
        run = run_stages(REG["type-broadcast"], CFG, inputs, "dfake", view,
                         memo)
        assert isinstance(run.failure, EmptyOrRareSupport)
    assert len(calls) == 2 and calls[0] == calls[1]


@pytest.mark.parametrize("count", [1, 0], ids=["outer-partner",
                                               "channel-free"])
def test_compiled_answer_includes_each_vertex_it_simulates(monkeypatch,
                                                           count):
    # an outer partner's input stores its one channel and the channel-free
    # stand-in's stores none, while every inner vertex's input stores its
    # 2d channels per other layer: so a Yes can only come from the partner
    # (count 1) or from the stand-in (count 0); pi itself sends nothing
    pi = ProtocolSpec(
        f"yes-at-{count}-slots", 1, 1, lambda i, inp, inbox, view: {},
        lambda inp, inbox, view: sum(
            len(row.slots) for row in inp.vectors.values()) == count)
    inner = sample_inner(MICRO, 0, derive_rng(0, "inner"))
    _, outputs = simulate(build_pi_r_minus_1(pi, CFG), inner,
                          RandomnessView(0))
    assert outputs == dict.fromkeys(inner.vertices(), True)
    judged = []
    real = elimination.judge

    def spy(g, answers):
        judged.append(answers)
        return real(g, answers)

    monkeypatch.setattr(elimination, "judge", spy)
    rep = run_elimination_trials(pi, CFG, 3, 0)
    assert rep.failed_trials == 0
    assert judged == [dict.fromkeys(inner.vertices(), True)] * 3


def test_dreal_sampler_channel_legality():
    g, emb, transcript = dreal_sampler(REG["type-broadcast"], MICRO, 1, 12)
    # the channels of round 1: every pair of type <= r + 1 - 1
    available = {(u, v) for u, v, t in g.stored_pairs() if t <= g.r}
    for (rnd, s, rcv) in transcript.entries:
        assert rnd == 1
        key = (min(s, rcv), max(s, rcv))
        assert key in available


def test_hybrid_sampler_unknown_name():
    with pytest.raises(InfeasibleParams):
        hybrid_sampler("h3", REG["all-no"], CFG, 0)


def _fails_in_a1_private_stage(pi, cfg, seed):
    try:
        hybrid_sampler("dfake", pi, cfg, seed)
    except EmptyOrRareSupport as e:
        return "completed input of A1" in str(e)
    return False


def test_hybrid_sampler_honours_fallback():
    # at cap 2, the first seed in [0, 50) whose private stage of A1 finds
    # no consistent draw: `fail` raises there, and `drop` keeps the draw
    pi = REG["probe-first-slot"]
    fail = EliminationConfig(MICRO, cap=2, fallback="fail")
    seed = next((s for s in range(50)
                 if _fails_in_a1_private_stage(pi, fail, s)), None)
    assert seed is not None
    drop = EliminationConfig(MICRO, cap=2, fallback="drop")
    g, _, _, transcript = hybrid_sampler("dfake", pi, drop, seed)
    assert g.n == MICRO.level(1)["n"] and transcript.entries


def test_hybrids_share_inner_instance_marginal():
    # same seed -> same inner instance across the staged hybrids
    from congestlab.oracles import project_inner_input
    draws = {which: hybrid_sampler(which, REG["constant-message"], CFG, 13)
             for which in ("h1", "h2", "dfake")}
    projs = {which: project_inner_input(d[:2]) for which, d in draws.items()}
    assert len(set(projs.values())) == 1


def test_hybrid_transcripts_respect_bandwidth():
    for which in HYBRIDS:
        _, _, _, transcript = hybrid_sampler(which, REG["type-broadcast"],
                                             CFG, 14)
        assert transcript.max_length() <= 1


def test_degradation_values():
    assert degradation_bound(225, 1) == pytest.approx(1 / 225 + 1.0)
    assert degradation_bound(1, 1) == pytest.approx(16.0)
    assert degradation_bound(10 ** 6, 1) < degradation_bound(10 ** 4, 1)
    with pytest.raises(InfeasibleParams):
        degradation_bound(0, 1)


def test_theorem1_values_cross_checked():
    assert theorem1_bound(1, 0) == pytest.approx(1 / 230400)
    # independent high-precision arithmetic at r = 0
    getcontext().prec = 50
    want = Decimal(10 ** 10).sqrt() / Decimal(230400)
    assert theorem1_bound(10 ** 10, 0) == pytest.approx(float(want))
    assert theorem1_bound(10 ** 12, 1) > theorem1_bound(10 ** 11, 1)


def test_theorem1_precondition():
    assert theorem1_precondition(2, 0)
    assert theorem1_precondition(2, 1)
    assert not theorem1_precondition(1, 1)
    assert theorem1_precondition(10 ** 3000, 2)
    assert not theorem1_precondition(2 ** 500, 2)


def test_result1_chain_holds_for_valid_pairs():
    for r, n0 in ((1, 10 ** 11), (2, 10 ** 11), (3, 10 ** 12)):
        steps = result1_chain(n0, r, 1)
        assert all(step["holds"] for step in steps), steps


def test_result1_chain_detects_small_n0():
    steps = result1_chain(16, 1, 1)
    assert not all(step["holds"] for step in steps)


def test_theorem1_bound_refuses_a_layer_size_below_1():
    with pytest.raises(InfeasibleParams, match="n_r must be >= 1"):
        theorem1_bound(0, 1)


def test_compiled_message_fn_sends_nothing_when_called():
    # a 0-round protocol is never asked for a message by simulate
    built = build_pi_r_minus_1(REG["type-broadcast"], CFG)
    g, (a, _, _) = sample_g0(1, random.Random(9))
    assert built.rounds == 0
    assert built.message_fn(1, vertex_input(g, a), {}, RandomnessView(9)) == {}
