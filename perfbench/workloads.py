"""The benchmark's four workloads: seeded inputs, ops, and output checks.

An op is one call the CLI would make.  Every workload yields its ops in
cycles; a run always ends on a whole cycle so that the op mix, and with it
every percentile, is the same from run to run.  Inputs come from the
workload seed only, through ``random.Random`` streams owned by the
benchmark; the library receives the generated inputs.

Library functions are always called through their module
(``sampling.sample_gr``), never through a name imported here, so that a
traced run sees every call.

Output checks test laws and invariants, never seeded golden values, so a
change that legitimately alters the seeded stream still passes.  Each
``check`` returns a list of problems (empty when the output is right), and
``corruptions`` feeds every check one damaged output that it must reject.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import random
import shutil
from fractions import Fraction
from pathlib import Path

from congestlab import (elimination, graphs, infotheory, oracles, params,
                        protocols, randomness, sampling)

HERE = Path(__file__).resolve().parent
A, B, C = graphs.Layer.A, graphs.Layer.B, graphs.Layer.C
INNER_PAIR_LAYERS = ((A, B), (A, C), (B, C))


@dataclasses.dataclass
class Op:
    kind: str
    run: object  # () -> output
    check: object  # output -> list of problems


def load_schedule(name: str):
    """Read and check a schedule file the way ``congestlab gen`` does."""
    with open(HERE / "schedules" / name) as fh:
        p = params.ParamSchedule.from_json(fh.read())
    bad = params.feasibility_check(p)
    if bad:
        raise ValueError("; ".join(bad))
    return p


def wilson(hits: int, trials: int, z: float):
    phat = hits / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials
                         + z * z / (4 * trials * trials)) / denom
    return center - half, center + half


# -- instance invariants, computed from stored pairs --------------------------


def channel_lists(g) -> dict:
    """vertex -> [(partner, type)] over pairs usable in some round."""
    adj = {}
    for u, v, t in g.stored_pairs():
        if t <= g.r:
            adj.setdefault(u, []).append((v, t))
            adj.setdefault(v, []).append((u, t))
    return adj


def own_triangle(g) -> bool:
    edges = set()
    for u, v, t in g.stored_pairs():
        if t == 0:
            edges.add((u, v))
            edges.add((v, u))
    return any(
        a.layer is A and b.layer is B and (b, c) in edges
        for a, b in edges for a2, c in edges
        if a2 == a and c.layer is C
    )


def degree_problems(adj: dict, emb, level: int, d: int) -> list:
    """Every starred vertex has exactly d channels of each type t <= level
    toward each other layer."""
    out = []
    starred = {layer: set(emb.ids[layer]) for layer in graphs.LAYERS}
    for layer in graphs.LAYERS:
        for idx in starred[layer]:
            x = graphs.VertexId(layer, idx)
            for w in layer.others:
                for t in range(level + 1):
                    k = sum(1 for v, tt in adj.get(x, ())
                            if v.layer is w and tt == t)
                    if k != d:
                        out.append(f"{x!r} has {k} type-{t} channels to "
                                   f"{w.value}, want {d}")
    return out


def outer_channel_counts(adj: dict, emb) -> list:
    return [len(partners) for u, partners in adj.items()
            if u.index not in emb.ids[u.layer]]


def copy_with_extra_channel(g, emb):
    """A copy of ``g`` where starred A-vertex 1 gets one more type-0
    channel to a vertex of B that had none."""
    bad = graphs.TypedTripartiteGraph.from_dict(g.to_dict())
    x = emb.outer(graphs.VertexId(A, 1))
    taken = {v.index for v, _ in channel_lists(g).get(x, ())}
    idx = next(i for i in range(1, g.n + 1)
               if i not in taken and i not in emb.ids[B])
    bad.set_type(x, graphs.VertexId(B, idx), 0)
    return bad


# -- workloads ------------------------------------------------------------


class Workload:
    name = ""
    # ops at the start of a run whose per-layer counts must repeat exactly
    count_window = 0

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")

    def setup(self) -> None:
        """Parse and check inputs, build registries; timed as set-up."""

    def prepare_checks(self) -> None:
        """Reference values for the output checks; not part of set-up."""

    def cycles(self):
        raise NotImplementedError

    def run_problems(self) -> list:
        """Checks on laws pooled over the whole run."""
        return []

    def trace_problems(self, layers: dict, window: int) -> list:
        """Checks on a traced run's per-layer counts."""
        return []

    def corruptions(self, kept: dict) -> list:
        """(label, problems) for damaged copies of outputs in ``kept``."""
        return []

    def close(self) -> None:
        pass

    def op_seed(self) -> int:
        return self.rng.getrandbits(32)


class RoundElim(Workload):
    name = "round-elim"
    count_window = 24
    COMPILED = ("constant-message", "probe-first-slot")

    def setup(self):
        self.p = load_schedule("micro.json")
        self.reg = protocols.registry(rounds=1, bandwidth=1)
        self.cfg = elimination.EliminationConfig(
            params=self.p, level=1, cap=100_000, fallback="fail")
        self.compiled = {name: elimination.build_pi_r_minus_1(
            self.reg[name], self.cfg) for name in self.COMPILED}
        self.broadcast = self.reg["type-broadcast"]

    def prepare_checks(self):
        self.law = oracles.exact_inner_transcript_law(
            self.p, self.broadcast.message_given_type)

    def cycles(self):
        while True:
            ops = []
            for pi in self.reg.values():
                s = self.op_seed()
                ops.append(Op("trial", lambda pi=pi, s=s:
                              elimination.run_elimination_trials(
                                  pi, self.cfg, 1, s),
                              self.check_trial))
            for which in elimination.HYBRIDS:
                s = self.op_seed()
                ops.append(Op("hybrid_draw", lambda w=which, s=s:
                              elimination.hybrid_sampler(
                                  w, self.broadcast, self.cfg, s),
                              self.check_hybrid))
            for name in self.COMPILED:
                s = self.op_seed()
                ops.append(Op("compiled_run", lambda n=name, s=s:
                              self.compiled_run(n, s), self.check_compiled))
            yield ops

    def compiled_run(self, name, s):
        g0, _ = sampling.sample_g0(1, random.Random(s))
        return protocols.simulate(self.compiled[name], g0,
                                  randomness.RandomnessView(s))

    @staticmethod
    def check_trial(report) -> list:
        out = []
        for field, want in (("rounds_used", 0), ("inconsistency_count", 0),
                            ("failed_trials", 0), ("fallback_count", 0),
                            ("trials", 1)):
            if getattr(report, field) != want:
                out.append(f"{field} = {getattr(report, field)}, want {want}")
        if not 0 <= report.successes <= 1 or report.bandwidth_used > 1:
            out.append(f"successes {report.successes}, bandwidth "
                       f"{report.bandwidth_used} out of range")
        return out

    def check_hybrid(self, drawn) -> list:
        """The projected inner transcript, read off the draw's transcript in
        both directions, matches the pair types and lies in the support of
        the exact inner transcript law."""
        g, emb, _, transcript = drawn
        mgt = self.broadcast.message_given_type
        out, key = [], []
        n_prev = emb.inner.n
        for la, lb in INNER_PAIR_LAYERS:
            for i in range(1, n_prev + 1):
                for j in range(1, n_prev + 1):
                    u = emb.outer(graphs.VertexId(la, i))
                    v = emb.outer(graphs.VertexId(lb, j))
                    want = mgt(g.pair_type(u, v))
                    got = (transcript.entries.get((1, u, v)),
                           transcript.entries.get((1, v, u)))
                    if got != (want, want):
                        out.append(f"inner pair {u!r}-{v!r} carries {got}, "
                                   f"its type says {want!r}")
                    key.append(got[0])
        if not self.law.get(tuple(key), 0) > 0:
            out.append(f"inner transcript {key} outside the exact law's "
                       f"support")
        return out

    @staticmethod
    def check_compiled(result) -> list:
        """Both compiled protocols come from protocols whose every vertex
        answers No, so the compiled 0-round run sends nothing and answers No
        at every vertex."""
        transcript, outputs = result
        out = []
        if transcript.entries:
            out.append(f"0-round run sent {len(transcript.entries)} messages")
        if len(outputs) != 3 or any(outputs.values()):
            out.append(f"outputs {outputs} are not three No answers")
        return out

    def corruptions(self, kept):
        g, emb, aux, transcript = kept["hybrid_draw"]
        u = emb.outer(graphs.VertexId(A, 1))
        v = emb.outer(graphs.VertexId(B, 1))
        flipped = protocols.Transcript()
        flipped.entries = dict(transcript.entries)
        bits = flipped.entries[(1, u, v)]
        flipped.entries[(1, u, v)] = "1" if bits == "0" else "0"
        ct, outputs = kept["compiled_run"]
        yes = dict(outputs)
        yes[next(iter(yes))] = True
        return [
            ("trial report with inconsistency_count=1", self.check_trial(
                dataclasses.replace(kept["trial"], inconsistency_count=1))),
            ("trial report with a fallback", self.check_trial(
                dataclasses.replace(kept["trial"], fallback_count=1))),
            ("hybrid draw with one flipped inner message",
             self.check_hybrid((g, emb, aux, flipped))),
            ("compiled run with a Yes answer",
             self.check_compiled((ct, yes))),
        ]


class EstimateSuccess(Workload):
    name = "estimate-success"
    count_window = 10
    LEVEL = 1
    # type-broadcast sends over every round-1 channel: each of the 6 inner
    # vertices has 2 layers x 2 types x d=8 channels, the 12 inner pairs
    # are counted from both ends, so 2 * (192 - 12) messages
    MESSAGES = 360

    def setup(self):
        self.p = load_schedule("level1-n200.json")
        self.reg = protocols.registry(rounds=self.LEVEL, bandwidth=1)
        self.pi = self.reg["type-broadcast"]

    def cycles(self):
        while True:
            s = self.op_seed()
            yield [Op("estimate", lambda s=s: self.estimate(s), self.check)]

    def estimate(self, s):
        drawn = []

        def sampler(seed):
            drawn.append(sampling.sample_gr(self.p, self.LEVEL,
                                            random.Random(seed)))
            return drawn[-1][0]

        freq, interval = protocols.estimate_success(self.pi, sampler, 1, s)
        g, emb = drawn[0]
        return freq, interval, g, emb

    def check(self, result) -> list:
        freq, (lo, hi), g, emb = result
        out = []
        if freq not in (0.0, 1.0) or not lo <= freq <= hi:
            out.append(f"one-trial frequency {freq} with interval "
                       f"[{lo}, {hi}]")
        adj = channel_lists(g)
        out += degree_problems(adj, emb, self.LEVEL,
                               self.p.level(self.LEVEL)["d"])
        if any(k > 1 for k in outer_channel_counts(adj, emb)):
            out.append("an outer vertex has more than one channel")
        if g.has_triangle() != own_triangle(emb.inner):
            out.append("has_triangle differs from the inner instance")
        messages = sum(len(v) for v in adj.values())
        if messages != self.MESSAGES:
            out.append(f"{messages} round-1 messages, want {self.MESSAGES}")
        return out

    def trace_problems(self, layers, window):
        got, want = layers["protocols.messages"], self.MESSAGES * window
        return [] if got == want else [
            f"transcripts of {window} ops hold {got} messages, want {want}"]

    def corruptions(self, kept):
        freq, interval, g, emb = kept["estimate"]
        bad = copy_with_extra_channel(g, emb)
        return [("instance with one extra channel",
                 self.check((freq, interval, bad, emb)))]


class GenRestructured(Workload):
    name = "gen-restructured"
    count_window = 60
    LEVEL = 1
    Z = 4.0  # Wilson z for the pooled collision law: ~6e-5 false alarms

    def setup(self):
        self.p = load_schedule("loose.json")
        self.dir = HERE / "out" / f"gen-{os.getpid()}"
        os.makedirs(self.dir, exist_ok=True)
        self.config = {"level": self.LEVEL, "family": "restructured",
                       "seed": self.seed, "params": "schedules/loose.json"}
        self.index = 0
        self.hits = self.trials = 0

    def prepare_checks(self):
        self.exact = float(oracles.exact_collision_probability(self.p,
                                                               self.LEVEL))

    def cycles(self):
        while True:
            i = self.index
            self.index += 1
            yield [Op("gen", lambda i=i: self.gen(i), self.check)]

    def gen(self, i):
        rng = randomness.derive_rng(self.seed, i)
        g, emb, aux, flag = sampling.sample_gr_tilde(self.p, self.LEVEL, rng)
        sidecar = {"config": self.config, "index": i,
                   "ids": {ly.value: emb.ids[ly] for ly in emb.ids},
                   "collision_flag": flag,
                   "aux_sizes": {"J": len(aux.J), "K": len(aux.K),
                                 "L": len(aux.L)}}
        base = self.dir / f"instance-{i:04d}"
        with open(f"{base}.json", "w") as fh:
            fh.write(g.to_json() + "\n")
        with open(f"{base}.meta.json", "w") as fh:
            fh.write(json.dumps(sidecar, default=str) + "\n")
        return g, emb, aux, flag, base

    def check(self, result, pool: bool = True) -> list:
        g, emb, aux, flag, base = result
        out = []
        starred = {layer: set(emb.ids[layer]) for layer in graphs.LAYERS}
        seen = {layer: set() for layer in graphs.LAYERS}
        reserved = [(layer, idx) for sets in (*aux.J.values(),
                                              *aux.K.values())
                    for s in sets for layer, idxs in s.members.items()
                    for idx in idxs]
        reserved += [(key[1], idx) for key, idxs in aux.L.items()
                     for idx in idxs]
        for layer, idx in reserved:
            if idx in seen[layer] or idx in starred[layer]:
                out.append(f"auxiliary index {layer.value}{idx} reserved "
                           f"twice")
            seen[layer].add(idx)
        adj = channel_lists(g)
        out += degree_problems(adj, emb, self.LEVEL,
                               self.p.level(self.LEVEL)["d"])
        collided = any(k > 1 for k in outer_channel_counts(adj, emb))
        if collided != flag:
            out.append(f"collision flag {flag}, instance says {collided}")
        if base is not None:
            with open(f"{base}.json") as fh:
                written = json.load(fh)
            with open(f"{base}.meta.json") as fh:
                meta = json.load(fh)
            if len(written["pairs"]) != len(list(g.stored_pairs())):
                out.append("written instance lost pairs")
            if meta["ids"] != {ly.value: emb.ids[ly] for ly in emb.ids}:
                out.append("sidecar ids differ from the embedding")
            os.remove(f"{base}.json")
            os.remove(f"{base}.meta.json")
        if pool:
            self.hits += collided
            self.trials += 1
        return out

    def pooled_problems(self, hits, trials) -> list:
        lo, hi = wilson(hits, trials, self.Z)
        if not lo <= self.exact <= hi:
            return [f"collision frequency {hits}/{trials}: Wilson interval "
                    f"[{lo:.4f}, {hi:.4f}] misses exact {self.exact:.4f}"]
        return []

    def run_problems(self):
        return self.pooled_problems(self.hits, self.trials)

    def corruptions(self, kept):
        g, emb, aux, flag, _ = kept["gen"]
        key = next(iter(aux.L))
        twice = sampling.Auxiliaries(J=aux.J, K=aux.K, L=dict(aux.L))
        twice.L[key] = list(aux.L[key]) + [aux.L[key][0]]
        extra = copy_with_extra_channel(g, emb)
        return [
            ("auxiliaries with an index reserved twice",
             self.check((g, emb, twice, flag, None), pool=False)),
            ("instance with one extra channel",
             self.check((extra, emb, aux, flag, None), pool=False)),
            ("pooled collisions on every draw",
             self.pooled_problems(max(self.trials, 1),
                                  max(self.trials, 1))),
        ]

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


class VerifyInfo(Workload):
    name = "verify-info"
    # 6x6x6 twice, so that the median op lies inside one table size and the
    # p90 inside another; with one table of each size both sat in the gap
    # between two sizes and jumped from run to run
    SIZES = ((2, 3, 2), (4, 4, 4), (6, 6, 6), (6, 6, 6), (8, 8, 8))
    count_window = 4 + 2 * len(SIZES)
    TOL = 1e-9

    def cycles(self):
        first = [
            Op("oracle", lambda: oracles.exact_g0_triangle_prob(1),
               lambda v: [] if v == Fraction(1, 8) else
               [f"triangle probability {v}, want 1/8"]),
            Op("oracle", lambda: oracles.zero_round_optimum(1),
               self.check_optimum),
            Op("oracle", lambda s=self.op_seed():
               infotheory.monotonicity_checks(random.Random(s), tables=50),
               lambda rep: [f"{k} fails" for k, ok in rep.items() if not ok]),
            Op("oracle", lambda p=self.weights(4), q=self.weights(4):
               infotheory.pinsker_check(infotheory.FiniteDistribution(p),
                                        infotheory.FiniteDistribution(q)),
               self.check_pinsker),
        ]
        while True:
            ops = [Op("suite", lambda t=self.tables(size): self.suite(*t),
                      self.check_suite) for size in self.SIZES]
            yield first + ops
            first = []

    @staticmethod
    def check_optimum(v):
        return [] if v == Fraction(7, 8) else [f"0-round optimum {v}, "
                                               f"want 7/8"]

    def weights(self, size) -> dict:
        w = [self.rng.random() + 1e-3 for _ in range(size)]
        total = sum(w)
        return {i: x / total for i, x in enumerate(w)}

    def tables(self, sizes):
        """Two random joint tables over (A, B, C), plus two (X, Z) tables
        sharing the Z marginal of the first, for overconditioning."""
        keys = [(a, b, c) for a in range(sizes[0]) for b in range(sizes[1])
                for c in range(sizes[2])]
        j = dict(zip(keys, self.weights(len(keys)).values()))
        k = dict(zip(keys, self.weights(len(keys)).values()))

        def xz_of(t):
            out = {}
            for (a, _, c), p in t.items():
                out[(a, c)] = out.get((a, c), 0.0) + p
            return out

        xz, kz = xz_of(j), xz_of(k)
        pz, qz = {}, {}
        for (_, c), p in xz.items():
            pz[c] = pz.get(c, 0.0) + p
        for (_, c), p in kz.items():
            qz[c] = qz.get(c, 0.0) + p
        yz = {(a, c): pz[c] * p / qz[c] for (a, c), p in kz.items()}
        return j, k, xz, yz

    @staticmethod
    def suite(tj, tk, txz, tyz):
        I = infotheory
        j = I.JointTable(["A", "B", "C"], tj)
        k = I.JointTable(["A", "B", "C"], tk)
        chain_gap = abs(I.entropy(j.marginal(["A", "B", "C"]))
                        - I.entropy(j.marginal(["A"]))
                        - I.cond_entropy(j, ["B"], ["A"])
                        - I.cond_entropy(j, ["C"], ["A", "B"]))
        return {
            "chain_gap": chain_gap,
            "cmi": I.cond_mutual_info(j, ["A"], ["B"], ["C"]),
            "h_a_given_c": I.cond_entropy(j, ["A"], ["C"]),
            "mi_kl_gap": I.mi_kl_identity_check(j, ["A"], ["B"], ["C"]),
            "pinsker": I.pinsker_check(j.marginal(["A", "B"]),
                                       k.marginal(["A", "B"])),
            "tvd_chain": I.tvd_chain_bound_check(j, k),
            "overconditioning": I.overconditioning_check(
                I.JointTable(["X", "Z"], txz), I.JointTable(["X", "Z"], tyz)),
        }

    @classmethod
    def check_pinsker(cls, result):
        d, bound, holds = result
        return [] if holds and d <= bound + 1e-12 else [
            f"Pinsker: tvd {d} > sqrt(kl/2) {bound}"]

    @classmethod
    def check_suite(cls, r) -> list:
        out = []
        for gap in ("chain_gap", "mi_kl_gap"):
            if not r[gap] <= cls.TOL:
                out.append(f"{gap} = {r[gap]}")
        if not -cls.TOL <= r["cmi"] <= r["h_a_given_c"] + cls.TOL:
            out.append(f"I(A;B|C) = {r['cmi']} outside [0, H(A|C)]")
        out += cls.check_pinsker(r["pinsker"])
        lhs, rhs, holds = r["tvd_chain"]
        if not (holds and lhs <= rhs + cls.TOL):
            out.append(f"tvd chain bound: {lhs} > {rhs}")
        lhs, joint, averaged, holds = r["overconditioning"]
        if not (holds and lhs <= joint + cls.TOL and averaged is not None
                and abs(joint - averaged) <= cls.TOL):
            out.append(f"overconditioning: {lhs}, {joint}, {averaged}")
        return out

    def corruptions(self, kept):
        r = kept["suite"]
        d, bound, _ = r["pinsker"]
        return [
            ("0-round optimum flipped to 3/4",
             self.check_optimum(Fraction(3, 4))),
            ("identity gap of 1e-6", self.check_suite({**r,
                                                       "mi_kl_gap": 1e-6})),
            ("Pinsker inequality violated", self.check_suite(
                {**r, "pinsker": (bound + 0.1, bound, False)})),
        ]


WORKLOADS = {w.name: w for w in (RoundElim, EstimateSuccess, GenRestructured,
                                 VerifyInfo)}
