"""Seeded streams pinned by SHA-256 digest, one digest per stream.

Every seeded sampler, trial report and hybrid draw is a pure function of
its seed, so a change that claims to keep them bit-identical must leave
these digests alone; a failure names the stream that moved.  Each case
hashes the ``repr`` of what it draws: graphs through ``to_json`` (sorted
pairs), embeddings through their starred ids, auxiliaries through their
``repr`` (reservation order), transcripts through ``to_jsonl``, and each
raw sampler draw together with the generator's next ``random()``, so a
draw that consumed the stream differently shows even when its output
agrees.

The digests were computed at commit e43298e, before ``sampling`` drew the
indices outside a taken set by sampling positions in place of a lazy
complement sequence.  The two ``infotheory`` digests, which hash the
measures of one ``verify-info`` suite op on seeded tables and one
``monotonicity_checks`` report, were computed at commit 05e83f8, before
``infotheory`` validated rows in builtin passes and kept each law's entropy.
The ``sample_d_in`` digests and the level-2 ``sample_gr`` digest, which
hash a marginal draw's rows through their stored slots, were computed at
commit 98c748e, before the recursive family built its inner vertices' rows
and ``sample_d_in`` stopped building an instance of its own level.  The
two ``simulate`` digests, which hash every registry protocol's transcript
entries in recording order and its outputs on ``level1-n200`` draws, and the
same of two compiled protocols on base instances, were computed at commit
9cc049b, before ``VertexInput.channels_at_round`` became the one walk that
lists a round's channels.  The ``simulate/compiled-stages`` digest, which
hashes each player's staged run in compiled executions at MICRO and WIDE2
(its public stage, its pair-stage messages and its private stage, read off
the run ``_pi_r_output`` is handed), and the ``probe-first-slot`` hybrid
digest on every rung were computed at commit 3def091, before the players of
one compiled execution shared the stages that read only tapes.
"""

import hashlib
import random
from pathlib import Path

import pytest

from congestlab import elimination
from congestlab.elimination import (HYBRIDS, EliminationConfig,
                                    build_pi_r_minus_1, hybrid_sampler,
                                    run_elimination_trials)
from congestlab.infotheory import (JointTable, cond_entropy, cond_mutual_info,
                                   entropy, mi_kl_identity_check,
                                   monotonicity_checks, overconditioning_check,
                                   pinsker_check, random_joint,
                                   tvd_chain_bound_check)
from congestlab.params import ParamSchedule
from congestlab.protocols import registry, simulate
from congestlab.randomness import RandomnessView
from congestlab.sampling import (build_gr_frame, enumerate_g0, sample_d_in,
                                 sample_g0, sample_gr, sample_gr_tilde)
from schedules import LEVEL2, LOOSE, MICRO, SPARSE2, WIDE2

SEEDS = range(3)
CFG = EliminationConfig(params=MICRO)
REG = registry(rounds=1, bandwidth=1)
N200 = ParamSchedule.from_json(
    (Path(__file__).resolve().parents[1] / "perfbench" / "schedules"
     / "level1-n200.json").read_text())


def _ids(ids):
    return {layer.value: list(idx) for layer, idx in ids.items()}


def _gr(p, level):
    out = []
    for seed in SEEDS:
        rng = random.Random(seed)
        g, emb = sample_gr(p, level, rng)
        out.append((g.to_json(), _ids(emb.ids), emb.inner.to_json(),
                    rng.random()))
    return out


def _d_in(p, level):
    out = []
    for seed in SEEDS:
        rng = random.Random(seed)
        rows = sample_d_in(p, level, rng)
        out.append(([(row.n, row.default, list(row.slots.items()))
                     for row in rows], rng.random()))
    return out


def _gr_tilde(p):
    out = []
    for seed in SEEDS:
        rng = random.Random(seed)
        g, emb, aux, flag = sample_gr_tilde(p, 1, rng)
        out.append((g.to_json(), _ids(emb.ids), emb.inner.to_json(),
                    repr(aux.J), repr(aux.K), repr(aux.L), flag,
                    rng.random()))
    return out


def _trials():
    return [(name, seed, run_elimination_trials(pi, CFG, 2, seed).to_dict())
            for name, pi in REG.items() for seed in (0, 1)]


def _hybrids(name):
    out = []
    for which in HYBRIDS:
        for seed in (0, 1):
            g, emb, aux, transcript = hybrid_sampler(which, REG[name], CFG,
                                                     seed)
            out.append((which, seed, g.to_json(), _ids(emb.ids),
                        repr(aux), transcript.to_jsonl()))
    return out


def _simulated(pi, g, seed):
    transcript, outputs = simulate(pi, g, RandomnessView(seed))
    return list(transcript.entries.items()), list(outputs.items())


def _simulate_n200():
    out = []
    for seed in SEEDS:
        g, _ = sample_gr(N200, 1, random.Random(seed))
        out += [(name, seed, _simulated(pi, g, seed))
                for name, pi in REG.items()]
    return out


def _simulate_compiled():
    out = []
    for name in ("constant-message", "probe-first-slot"):
        pi = build_pi_r_minus_1(REG[name], CFG)
        for seed in SEEDS:
            g, _ = sample_g0(1, random.Random(seed))
            out.append((name, seed, _simulated(pi, g, seed)))
    return out


def _row(row):
    return row.n, row.default, list(row.slots.items())


def _compiled_stages():
    """Each player's staged run in compiled executions, read off the run
    ``_pi_r_output`` is handed: the public stage, the pair-stage messages,
    and the private stage's rows, traffic, attempts and fallback."""
    real, runs, out = elimination._pi_r_output, [], []

    def spy(pi, cfg, run, x, view):
        st1, s3 = run.st1, run.s3[x]
        runs.append((x, _ids(st1.ids), repr(st1.aux), list(st1.m_pub.items()),
                     list(run.m_in.items()),
                     [(layer.value, _row(row))
                      for layer, row in s3.vecs.items()],
                     list(s3.outgoing.items()), list(s3.incoming.items()),
                     s3.attempts, s3.fallback_used))
        return real(pi, cfg, run, x, view)

    elimination._pi_r_output = spy
    try:
        for p in (MICRO, WIDE2):
            cfg = EliminationConfig(params=p)
            for name in ("probe-first-slot", "type-broadcast"):
                pi = build_pi_r_minus_1(REG[name], cfg)
                for seed in SEEDS:
                    g, _ = sample_g0(p.n[0], random.Random(seed))
                    runs.clear()
                    _, outputs = simulate(pi, g, RandomnessView(seed))
                    out.append((name, seed, list(runs),
                                list(outputs.items())))
    finally:
        elimination._pi_r_output = real
    return out


def _frames():
    return [build_gr_frame(g, MICRO, 1)[0].to_json()
            for g, _, _ in enumerate_g0(1)]


def _suites():
    """The measures of one verify-info suite op at three table sizes, with
    the full-table laws and the conditional laws they read; the X and Z
    tables are drawn independently, and a third shares the first's Z
    marginal so that the averaged overconditioning form is taken too."""
    out = []
    for seed, sizes in enumerate([(2, 3, 2), (6, 6, 6), (8, 8, 8)]):
        rng = random.Random(seed)
        j, k = (random_joint(["A", "B", "C"], sizes, rng) for _ in range(2))
        xz, yz = (random_joint(["X", "Z"], sizes[::2], rng) for _ in range(2))
        pz, qz = xz.marginal(["Z"]).probs, yz.marginal(["Z"]).probs
        shared = JointTable(["X", "Z"], {(x, z): pz[(z,)] * p / qz[(z,)]
                                         for (x, z), p in yz.table.items()})
        out.append((
            entropy(j.marginal(["A", "B", "C"])), entropy(j.marginal(["A"])),
            cond_entropy(j, ["B"], ["A"]), cond_entropy(j, ["C"], ["A", "B"]),
            cond_mutual_info(j, ["A"], ["B"], ["C"]),
            cond_entropy(j, ["A"], ["C"]),
            mi_kl_identity_check(j, ["A"], ["B"], ["C"]),
            pinsker_check(j.marginal(["A", "B"]), k.marginal(["A", "B"])),
            tvd_chain_bound_check(j, k), overconditioning_check(xz, yz),
            overconditioning_check(xz, shared),
            list(j.marginal(["A", "B", "C"]).probs.items()),
            list(xz.marginal(["X", "Z"]).probs.items()),
            [(g, p, list(law.probs.items()))
             for g, (p, law) in j.conditionals(["A"], ["B", "C"]).items()]))
    return out


def _monotonicity():
    rng = random.Random(5)
    return monotonicity_checks(rng, tables=20), rng.random()


STREAMS = {
    "sample_gr/MICRO": (
        lambda: _gr(MICRO, 1),
        "0330297bd67226cf402f64f5e606ece90e42551360e29f21b3dda4f896495067"),
    "sample_gr/WIDE2": (
        lambda: _gr(WIDE2, 1),
        "a5574857c4ec324d5f6be0cbcff6bae187786c778d367f0c05163174afbf564c"),
    "sample_gr/SPARSE2": (
        lambda: _gr(SPARSE2, 1),
        "355a5e58577222d6aabfda515c95be4c3405f7129f2d7b1c05e830b222e3f94e"),
    "sample_gr/LEVEL2": (
        lambda: _gr(LEVEL2, 2),
        "643e681442439a2f7dde74ebd91456b04533e6bd8fbf39862f632fbdc7232677"),
    "sample_d_in/MICRO": (
        lambda: _d_in(MICRO, 1),
        "f495db1b1a23c8dbe2fecc78fd234c2328f6d0222d9b6c6bb91034ef2324f4a8"),
    "sample_d_in/LEVEL2": (
        lambda: _d_in(LEVEL2, 2),
        "c457d519c1f5a7c2e937398c0605d0649bfab75c526959ea23ebadbbb379e812"),
    "sample_gr_tilde/MICRO": (
        lambda: _gr_tilde(MICRO),
        "8e416f1f44b5517282c6da2c0ff40e4bf5cd960177a1cfbe69f8787e18282966"),
    "sample_gr_tilde/LOOSE": (
        lambda: _gr_tilde(LOOSE),
        "ff10b10b33178e0c17b2cc561830585e0d0642cacff9beba451bc8e840cce728"),
    "sample_gr_tilde/WIDE2": (
        lambda: _gr_tilde(WIDE2),
        "301c38e2c75b3bbfc454a155f13801a1681edfb7d65d5d6644fa1050056c51b8"),
    "sample_gr_tilde/SPARSE2": (
        lambda: _gr_tilde(SPARSE2),
        "8b0d583f212902da3f2f97d8c2c2f770fc666dc8d020709376c112901c5c7e3f"),
    "run_elimination_trials/MICRO": (
        _trials,
        "0c11a541ad806c8b3bd64e3a76040b8b92b11562f31e2fd1f26d9e4cfd66cbc1"),
    "hybrid_sampler/type-broadcast/MICRO": (
        lambda: _hybrids("type-broadcast"),
        "8db575db4ff33b60d9d1543652a5b41c5cc7d1b5077d3faddead7d68fca98ba8"),
    "simulate/level1-n200": (
        _simulate_n200,
        "d2493a21d6a8f362e64eb75fdae143e19b87ebd888373c8cb039d4da75ae5169"),
    "simulate/compiled-MICRO": (
        _simulate_compiled,
        "8b33529328d8ff989db590e5040ee9719f6236c3522596e56e7cdc0fb07777e2"),
    "simulate/compiled-stages": (
        _compiled_stages,
        "c404bf17781ec55e12dbd1ff9b48cb15392d3b4b68a2275101f257c7ad2516b9"),
    "hybrid_sampler/probe-first-slot/MICRO": (
        lambda: _hybrids("probe-first-slot"),
        "7c2eaf9956339b75ca780177518dee799f63082985b4d9c4b9e800d2518449de"),
    "build_gr_frame/MICRO": (
        _frames,
        "929e598e6afc153e5f13e3298101b63a0e26fa901c83b8d2859dd1300502e974"),
    "infotheory/suite": (
        _suites,
        "99f962fe53c93db2fc2ecd428a302ab84679441913ba3f6bc31616ffe8d49714"),
    "infotheory/monotonicity_checks": (
        _monotonicity,
        "3899a8dd1289d0a8613de4fa66e5d2920dab2ce8d9fca17ea06e2e611229b4c3"),
}


def digest(stream: str) -> str:
    draw, _ = STREAMS[stream]
    return hashlib.sha256(repr(draw()).encode()).hexdigest()


@pytest.mark.parametrize("stream", STREAMS)
def test_seeded_stream_is_unchanged(stream):
    assert digest(stream) == STREAMS[stream][1], f"stream {stream} moved"
