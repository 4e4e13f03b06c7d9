import math
import random
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest

from congestlab import elimination
from congestlab.elimination import (HYBRIDS, EliminationConfig,
                                    build_pi_r_minus_1, degradation_bound,
                                    dreal_sampler, hybrid_sampler,
                                    result1_chain, run_elimination_trials,
                                    run_stages, sample_pair_stage,
                                    sample_private_stage,
                                    sample_public_stage, theorem1_bound,
                                    theorem1_precondition,
                                    verify_consistency, _inner_partners,
                                    _inner_vertices, _m_pub_targets,
                                    _OwnTapes)
from congestlab.errors import EmptyOrRareSupport, InfeasibleParams
from congestlab.graphs import Layer, VertexId
from congestlab.params import ParamSchedule
from congestlab.protocols import exact_success, registry, simulate
from congestlab.randomness import RandomnessView, derive_rng
from congestlab.sampling import enumerate_g0, sample_g0, sample_inner

MICRO = ParamSchedule(n=[1, 29], d=[6], alpha=[1], beta=[1], gamma=[1])
WIDE2 = ParamSchedule(n=[2, 600], d=[20], alpha=[1], beta=[1], gamma=[1])
CFG = EliminationConfig(params=MICRO, level=1, cap=3000)
REG = registry(rounds=1, bandwidth=1)


def test_public_stage_shapes_and_forced_slots():
    pi = REG["type-broadcast"]
    st1 = sample_public_stage(pi, MICRO, 1, random.Random(0))
    for x in _inner_vertices(1):
        for target, forced in st1.n_pub[x].items():
            for idx, t in forced.items():
                assert t in (0, 1)
                assert idx not in st1.ids[target]
        # public messages live on predecessor slots only
        for w in st1.m_pub[x]:
            i_star = st1.ids[w.layer][0]
            assert w.index < i_star


def test_m_pub_size_bound():
    pi = REG["probe-first-slot"]
    for seed in range(10):
        st1 = sample_public_stage(pi, MICRO, 1, random.Random(seed))
        for x in _inner_vertices(1):
            # at most 2 * gamma * (level+1) * n_prev public messages
            assert len(st1.m_pub[x]) <= 2 * 1 * 2 * 1


def test_constant_message_m_pub_is_constant():
    pi = REG["constant-message"]
    st1 = sample_public_stage(pi, MICRO, 1, random.Random(1))
    for x in _inner_vertices(1):
        assert all(bits == "0" for bits in st1.m_pub[x].values())


def test_pair_stage_type_broadcast_is_type_determined():
    pi = REG["type-broadcast"]
    st1 = sample_public_stage(pi, MICRO, 1, random.Random(2))
    x, y = VertexId(Layer.A, 1), VertexId(Layer.B, 1)
    for t, expect in ((0, "1"), (1, "0")):
        bits, attempts = sample_pair_stage(pi, st1, x, y, t, MICRO, 1,
                                           random.Random(3))
        assert bits == expect
        assert attempts >= 1


def test_pair_stage_empirical_law_probe_first_slot():
    # the sampled message law must track the conditional of the protocol's
    # actual message under phantom inputs
    pi = REG["probe-first-slot"]
    st1 = sample_public_stage(pi, MICRO, 1, random.Random(4))
    x, y = VertexId(Layer.A, 1), VertexId(Layer.C, 1)
    rng = random.Random(5)
    ones = sum(
        sample_pair_stage(pi, st1, x, y, 0, MICRO, 1, rng)[0] == "1"
        for _ in range(200)
    )
    # the message probes slot 1 of the target layer; it is "1" with the
    # marginal probability that slot 1 is an edge, which is bounded away
    # from 0 and 1
    assert 0 < ones < 200


def test_private_stage_consistency_and_degrees():
    pi = REG["type-broadcast"]
    st1 = sample_public_stage(pi, MICRO, 1, random.Random(6))
    inner, _ = sample_g0(1, random.Random(6))
    for x in _inner_vertices(1):
        n_in = {w: [inner.pair_type(x, VertexId(w, 1))]
                for w in x.layer.others}
        m_in_out = {}
        for y in _inner_partners(x, 1):
            t = inner.pair_type(x, y)
            m_in_out[y], _ = sample_pair_stage(pi, st1, x, y, t, MICRO, 1,
                                               derive_rng(7, repr(x), repr(y)))
        s3 = sample_private_stage(pi, st1, x, n_in, m_in_out, MICRO, 1,
                                  random.Random(8), CFG)
        assert not s3.failed
        assert verify_consistency(pi, st1, x, s3, m_in_out, 1)
        for w in x.layer.others:
            assert s3.vecs[w].count(0) == 6
            assert s3.vecs[w].count(1) == 6


@pytest.mark.parametrize("cap", [0, -1])
def test_config_refuses_cap_below_one(cap):
    with pytest.raises(InfeasibleParams, match="cap"):
        EliminationConfig(params=MICRO, cap=cap)


def test_build_rounds_and_bandwidth():
    for name, pi in REG.items():
        built = build_pi_r_minus_1(pi, CFG)
        assert built.rounds == 0
        assert built.bandwidth <= pi.bandwidth


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


def _drawn(st1, s3, m_in_in):
    rows = {w: dict(row.slots) for w, row in s3.vecs.items()}
    return (st1, rows, s3.outgoing, s3.incoming, s3.fallback_used,
            s3.failed, s3.attempts, m_in_in)


@pytest.mark.parametrize("p, seeds", [(MICRO, 15), (WIDE2, 3)],
                         ids=["MICRO", "WIDE2"])
def test_shared_run_equals_compiled_protocol(monkeypatch, p, seeds):
    # one shared run of the stages gives every inner vertex the draws and
    # the answer that vertex reaches alone in the compiled protocol; at
    # WIDE2 (n_prev = 2) the inner indices differ, so a pair type read from
    # the wrong slot of a row shows
    real = elimination._pi_r_output
    seen = {}

    def spy(pi, st1, x, s3, m_in_in, *rest):
        seen[x] = _drawn(st1, s3, m_in_in)
        return real(pi, st1, x, s3, m_in_in, *rest)

    monkeypatch.setattr(elimination, "_pi_r_output", spy)
    cfg = EliminationConfig(params=p, level=1, cap=3000)
    n = p.level(1)["n"]
    for pi in REG.values():
        built = build_pi_r_minus_1(pi, cfg)
        for seed in range(seeds):
            inner = sample_inner(p, 0, derive_rng(seed, "inner"))
            view = RandomnessView(seed)
            inputs = {x: inner.type_rows(x) for x in _inner_vertices(inner.n)}
            run = run_stages(pi, cfg, inputs, "dfake", view)
            assert run.failure is None
            shared = {x: real(pi, run.st1, x, s3, run.received(x), 1, n,
                              view.restrict(x))
                      for x, s3 in run.s3.items()}
            seen.clear()
            _, outputs = simulate(built, inner, RandomnessView(seed))
            assert outputs == shared
            assert seen == {x: _drawn(run.st1, s3, run.received(x))
                            for x, s3 in run.s3.items()}


def test_own_tapes_refuse_other_vertices():
    a, b, c = (VertexId(layer, 1) for layer in (Layer.A, Layer.B, Layer.C))
    view = RandomnessView(3)
    tapes = _OwnTapes(view.restrict(a))
    # a pair tape is the same from either endpoint
    assert (tapes.pair_rng(b, a, "t").random()
            == view.pair_rng(a, b, "t").random())
    with pytest.raises(ValueError):
        tapes.pair_rng(b, c, "t")
    with pytest.raises(ValueError):
        tapes.private_rng(b, "t")


def test_dreal_sampler_channel_legality():
    g, emb, transcript = dreal_sampler(REG["type-broadcast"], MICRO, 1, 12)
    available = g.channels_at_round(1)
    for (rnd, s, rcv) in transcript.entries:
        assert rnd == 1
        key = (min(s, rcv), max(s, rcv))
        assert key in available


def test_hybrid_sampler_unknown_name():
    with pytest.raises(InfeasibleParams):
        hybrid_sampler("h3", REG["all-no"], CFG, 0)


def test_hybrid_sampler_honours_fallback():
    # at this seed and cap the private stage of A1 finds no consistent draw
    pi = REG["probe-first-slot"]
    fail = EliminationConfig(MICRO, cap=2, fallback="fail")
    with pytest.raises(EmptyOrRareSupport, match="completed input of A1"):
        hybrid_sampler("dfake", pi, fail, 0)
    drop = EliminationConfig(MICRO, cap=2, fallback="drop")
    g, _, _, transcript = hybrid_sampler("dfake", pi, drop, 0)
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
