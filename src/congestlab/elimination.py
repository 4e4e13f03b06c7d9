"""Round elimination: compiling an r-round protocol into an (r-1)-round one.

The compiled protocol receives a level-(r-1) instance, publicly re-labels it
as the inner part of a level-r instance, and samples the first-round messages
of the original protocol from the three randomness sources:

- stage 1 (public tape): identities, auxiliaries, the publicly forced input
  slots, and the messages to lexicographic-predecessor slots of the public
  auxiliary singletons;
- stage 2 (pair tapes): the message over each inner pair, conditioned on
  that pair's type and everything public;
- stage 3 (private tapes): each vertex's remaining input, its remaining
  outgoing messages, and its incoming messages from (degree-one) outer
  vertices.

The same stages, with progressively stronger conditioning on the true inner
input, realize the ladder of laws used in the distance experiments:
``dfake`` (the compiled protocol's own law), ``h2`` (pair stage keeps the
true inner input), ``h1`` (public stage keeps it too), and ``dtilde_real``
(the fully joint law over the restructured family).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .errors import EmptyOrRareSupport, InfeasibleParams
from .graphs import LAYERS, TypedTripartiteGraph, TypeRow, VertexId
from .params import ParamSchedule
from .protocols import ProtocolSpec, Transcript, VertexInput, judge, simulate
from .randomness import RandomnessView, RestrictedView, derive_rng
from .sampling import (InnerEmbedding, _sample_d_in_slot_conditioned,
                       _sample_ids, public_slot_types,
                       rebuild_from_inner_views, sample_aux, sample_gr,
                       sample_gr_tilde, sample_inner, sample_tilde_input)

HYBRIDS = ("dtilde_real", "h1", "h2", "dfake")


@dataclass
class EliminationConfig:
    """Knobs of one elimination experiment."""

    params: ParamSchedule
    level: int = 1
    cap: int = 100_000
    fallback: str = "fail"  # "fail" marks the trial failed; "drop" keeps the
    # last unconditioned-on-messages draw

    def __post_init__(self):
        if self.fallback not in ("fail", "drop"):
            raise InfeasibleParams(f"unknown fallback policy {self.fallback}")
        if self.cap < 1:
            raise InfeasibleParams(f"cap must be at least 1, got {self.cap}")


@dataclass
class EliminationReport:
    rounds_used: int
    bandwidth_used: int
    trials: int
    successes: int
    success_frequency: float
    inconsistency_count: int
    fallback_count: int
    failed_trials: int
    rejection_attempts: int  # pair_attempts + private_attempts
    pair_attempts: int
    private_attempts: int
    predicted_degradation: float

    def to_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class StageOneState:
    """Everything fixed by the public tape."""

    ids: dict
    aux: object
    n_pub: dict  # inner vertex -> {layer: {index: forced type}}
    m_pub: dict  # inner vertex -> {outer VertexId: bits or None}


@dataclass
class StageThreeResult:
    vecs: dict  # other layer -> TypeRow of x's completed input
    outgoing: dict  # outer VertexId -> bits
    incoming: dict  # outer VertexId -> bits (from outer partners only)
    fallback_used: bool
    failed: bool
    attempts: int


def _outer_id(x: VertexId, ids: dict) -> VertexId:
    return VertexId(x.layer, ids[x.layer][x.index - 1])


def _inner_vertices(n_prev: int):
    for layer in LAYERS:
        for i in range(1, n_prev + 1):
            yield VertexId(layer, i)


def _inner_partners(x: VertexId, n_prev: int):
    for layer in x.layer.others:
        for j in range(1, n_prev + 1):
            yield VertexId(layer, j)


def _inner_inputs(inner: TypedTripartiteGraph) -> dict:
    """Every inner vertex's rows, the ``inputs`` of ``run_stages``."""
    return {x: inner.type_rows(x) for x in _inner_vertices(inner.n)}


def _round1_messages(pi: ProtocolSpec, x: VertexId, ids: dict, rows: dict,
                     level: int) -> dict:
    inp = VertexInput(identity=_outer_id(x, ids), vectors=rows, r=level)
    return pi.message_fn(1, inp, {}, None)


def _m_pub_targets(x: VertexId, st_ids: dict, aux, level: int,
                   n_prev: int) -> list:
    """The predecessor slots of the public singleton sets: members of
    L_{t,i}^{x->Y} whose index precedes the i-th starred identity of Y."""
    out = []
    for target in x.layer.others:
        for t in range(level + 1):
            for i in range(1, n_prev + 1):
                for idx in aux.L[(x, target, t, i)]:
                    if idx < st_ids[target][i - 1]:
                        out.append(VertexId(target, idx))
    return out


def _matches(msgs: dict, record: dict) -> bool:
    return all(msgs.get(w) == bits for w, bits in record.items())


def sample_public_stage(pi: ProtocolSpec, p: ParamSchedule, level: int,
                        rng: random.Random, inputs=None) -> StageOneState:
    """Stage 1: identities, auxiliaries, forced slots, public messages.

    With ``inputs`` given (inner vertex -> its rows), the phantom inputs
    behind the public messages keep the true inner input (the stronger
    conditioning of the ``h1`` law); otherwise they draw a fresh inner input
    from its marginal.
    """
    lv = p.level(level)
    n_prev = lv["n_prev"]
    ids = _sample_ids(lv["n"], n_prev, rng)
    aux = sample_aux(ids, p, level, rng)
    n_pub, m_pub = {}, {}
    for x in _inner_vertices(n_prev):
        n_pub[x] = public_slot_types(x, aux, level, n_prev)
        vecs = sample_tilde_input(x, ids, aux, p, level, rng,
                                  n_in=None if inputs is None else inputs[x])
        msgs = _round1_messages(pi, x, ids, vecs, level)
        m_pub[x] = {w: msgs.get(w) for w in _m_pub_targets(x, ids, aux,
                                                           level, n_prev)}
    return StageOneState(ids=ids, aux=aux, n_pub=n_pub, m_pub=m_pub)


def sample_pair_stage(pi: ProtocolSpec, st1: StageOneState, x: VertexId,
                      y: VertexId, pair_type: int, p: ParamSchedule,
                      level: int, rng: random.Random, cap: int = 100_000,
                      n_in=None):
    """Stage 2: the message of x to y, conditioned on the pair's type and the
    public stage.

    Rejection over phantom full inputs of x whose slot for y carries
    ``pair_type`` and which reproduce the public messages.  With ``n_in``
    given, the phantom keeps the entire true inner input instead (the
    ``h1``/``h2`` conditioning).  Returns (bits-or-None, attempts).
    """
    others = x.layer.others
    slot_position = 0 if y.layer is others[0] else 1
    y_out = _outer_id(y, st1.ids)
    for attempt in range(1, cap + 1):
        if n_in is None:
            phantom = dict(zip(others, _sample_d_in_slot_conditioned(
                p, level - 1, pair_type, slot_position, y.index, rng)))
        else:
            phantom = n_in
        vecs = sample_tilde_input(x, st1.ids, st1.aux, p, level, rng,
                                  n_in=phantom)
        msgs = _round1_messages(pi, x, st1.ids, vecs, level)
        if _matches(msgs, st1.m_pub[x]):
            return msgs.get(y_out), attempt
    raise EmptyOrRareSupport(
        f"no phantom input of {x} reproduces the public messages within "
        f"{cap} attempts", pair=(x, y),
    )


def _outer_partners(st1: StageOneState, x: VertexId, vecs: dict, n: int,
                    level: int):
    """Each outer channel partner w of x, with the full input of w, whose
    single channel goes to x.  Stored slots are non-default, so each
    non-starred one is such a partner."""
    x_out = _outer_id(x, st1.ids)
    starred = {layer: set(st1.ids[layer]) for layer in LAYERS}
    for w_layer, row in vecs.items():
        for j, t in row.slots.items():
            if j + 1 in starred[w_layer]:
                continue
            w = VertexId(w_layer, j + 1)
            vectors = {layer: TypeRow(n, level + 1, {x_out.index - 1: t}
                                      if layer is x.layer else None)
                       for layer in w_layer.others}
            yield w, VertexInput(identity=w, vectors=vectors, r=level)


def sample_private_stage(pi: ProtocolSpec, st1: StageOneState, x: VertexId,
                         n_in: dict, m_in_out: dict, p: ParamSchedule,
                         level: int, rng: random.Random,
                         cfg: EliminationConfig) -> StageThreeResult:
    """Stage 3: complete x's input consistently with every sampled message,
    then derive all remaining round-1 traffic of x.

    ``m_in_out`` maps each inner partner of x to the stage-2 message (or
    None for a deliberate silence).  On an empty joint support the fallback
    policy either fails the trial or keeps a draw conditioned on the input
    alone.
    """
    target_msgs = dict(st1.m_pub[x])
    for y, bits in m_in_out.items():
        target_msgs[_outer_id(y, st1.ids)] = bits
    for attempts in range(1, cfg.cap + 1):
        vecs = sample_tilde_input(x, st1.ids, st1.aux, p, level, rng,
                                  n_in=n_in)
        msgs = _round1_messages(pi, x, st1.ids, vecs, level)
        if _matches(msgs, target_msgs):
            fallback_used = False
            break
    else:
        fallback_used = True  # "drop" keeps the final, unmatched draw
    x_out = _outer_id(x, st1.ids)
    incoming = {}
    for w, w_inp in _outer_partners(st1, x, vecs, p.level(level)["n"], level):
        bits = pi.message_fn(1, w_inp, {}, None).get(x_out)
        if bits is not None:
            incoming[w] = bits
    return StageThreeResult(
        vecs=vecs, outgoing=dict(msgs), incoming=incoming,
        fallback_used=fallback_used,
        failed=fallback_used and cfg.fallback == "fail", attempts=attempts)


def verify_consistency(pi: ProtocolSpec, st1: StageOneState, x: VertexId,
                       s3: StageThreeResult, m_in_out: dict,
                       level: int) -> bool:
    """Re-evaluate the round-1 messages on the completed input and compare
    them against every separately sampled message."""
    msgs = _round1_messages(pi, x, st1.ids, s3.vecs, level)
    if not _matches(msgs, st1.m_pub[x]):
        return False
    return all(msgs.get(_outer_id(y, st1.ids)) == bits
               for y, bits in m_in_out.items())


# -- the staged pipeline --------------------------------------------------


# the stages that keep the true inner input, per rung of the hybrid ladder
LADDER = {"dfake": (), "h2": ("pair",), "h1": ("public", "pair")}


@dataclass
class StagedRun:
    """What one run of the three stages drew: ``m_in[(x, y)]`` is the
    stage-2 message of x to y, ``s3`` the private stages in run order.  The
    run stops at the first stage without a consistent draw (a private stage
    has none only under ``fallback="fail"``) and keeps its error."""

    st1: StageOneState
    m_in: dict = field(default_factory=dict)
    s3: dict = field(default_factory=dict)
    pair_attempts: int = 0
    private_attempts: int = 0
    failure: EmptyOrRareSupport | None = None

    def sent(self, x: VertexId) -> dict:
        return {v: bits for (u, v), bits in self.m_in.items() if u == x}

    def received(self, x: VertexId) -> dict:
        return {u: bits for (u, v), bits in self.m_in.items() if v == x}


def run_stages(pi: ProtocolSpec, cfg: EliminationConfig, inputs: dict,
               rung: str, view) -> StagedRun:
    """Stage 1, then the pair stages, then the private stages.

    ``inputs`` maps inner vertices to their true inner input, one
    index-based row per other layer (slot ``j - 1`` is the type of the pair
    with inner vertex ``j``).  The private stage runs for each of them in
    order, the pair stage for every ordered inner pair with an endpoint
    among them, reading the pair's type from that endpoint's row.  ``rung``
    picks the stages that keep the true inner input (``LADDER``; the private
    stage always does).  ``view`` hands out the tapes as a
    ``RandomnessView`` does.
    """
    p, level = cfg.params, cfg.level
    n_prev = p.level(level)["n_prev"]
    keep = LADDER[rung]
    run = StagedRun(sample_public_stage(
        pi, p, level, view.public_rng("stage1"),
        inputs=inputs if "public" in keep else None))
    try:
        for x in _inner_vertices(n_prev):
            for y in _inner_partners(x, n_prev):
                if x in inputs:
                    t = inputs[x][y.layer][y.index - 1]
                elif y in inputs:
                    t = inputs[y][x.layer][x.index - 1]
                else:
                    continue
                run.m_in[(x, y)], attempts = sample_pair_stage(
                    pi, run.st1, x, y, t, p, level,
                    view.pair_rng(x, y, f"m_in:{x!r}->{y!r}"), cap=cfg.cap,
                    n_in=inputs[x] if "pair" in keep else None)
                run.pair_attempts += attempts
    except EmptyOrRareSupport as exc:
        run.failure = exc
        return run
    for x, rows in inputs.items():
        s3 = run.s3[x] = sample_private_stage(
            pi, run.st1, x, rows, run.sent(x), p, level,
            view.private_rng(x, "stage3"), cfg)
        run.private_attempts += s3.attempts
        if s3.failed:
            run.failure = EmptyOrRareSupport(
                f"no completed input of {x} reproduces its sampled messages "
                f"within {cfg.cap} attempts")
            break
    return run


class _OwnTapes:
    """One vertex's ``RestrictedView`` as a ``RandomnessView``: it refuses
    every tape the vertex cannot see."""

    def __init__(self, view: RestrictedView):
        self.view, self.owner = view, view.owner
        self.public_rng = view.public_rng

    def pair_rng(self, u: VertexId, v: VertexId, label: str):
        if self.owner not in (u, v):
            raise ValueError(f"{self.owner} cannot read the tape of {u}-{v}")
        return self.view.pair_rng(v if u == self.owner else u, label)

    def private_rng(self, v: VertexId, label: str):
        if v != self.owner:
            raise ValueError(f"{self.owner} cannot read {v}'s tape")
        return self.view.private_rng(label)


# -- the compiled protocol and the elimination trials ---------------------


def _pi_r_output(pi: ProtocolSpec, st1: StageOneState, x: VertexId,
                 s3: StageThreeResult, m_in_in: dict, level: int, n: int,
                 view) -> bool:
    """The original protocol's answer at x plus the answers of every vertex
    x can simulate (its outer partners and one isolated outer vertex)."""
    x_out = _outer_id(x, st1.ids)
    inbox = {}
    for y, bits in m_in_in.items():
        if bits is not None:
            inbox[(1, _outer_id(y, st1.ids))] = bits
    for w, bits in s3.incoming.items():
        inbox[(1, w)] = bits
    inp = VertexInput(identity=x_out, vectors=s3.vecs, r=level)
    if pi.output_fn(inp, inbox, view):
        return True
    for w, w_inp in _outer_partners(st1, x, s3.vecs, n, level):
        bits = s3.outgoing.get(w)
        if pi.output_fn(w_inp, {} if bits is None else {(1, x_out): bits},
                        view):
            return True
    # one isolated outer vertex stands in for all channel-free vertices
    iso = VertexInput(
        identity=VertexId(x.layer, n),
        vectors={w: TypeRow(n, level + 1) for w in x.layer.others}, r=level)
    return bool(pi.output_fn(iso, {}, view))


def build_pi_r_minus_1(pi: ProtocolSpec, cfg: EliminationConfig) -> ProtocolSpec:
    """Compile an r-round protocol into an (r-1)-round one.

    Only the r = 1 case is supported: the result is a 0-round protocol that
    runs all three stages communication-free and answers directly.  Deeper
    regimes would additionally relay the original protocol's rounds 2..r
    over the input instance's own channels.
    """
    if not pi.deterministic:
        raise InfeasibleParams("only deterministic protocols can be compiled")
    if pi.rounds != 1 or cfg.level != 1:
        raise InfeasibleParams(
            "compilation is implemented for the 1-round regime only")
    n = cfg.params.level(1)["n"]

    def message_fn(i, inp, inbox, view):
        return {}

    def output_fn(inp, inbox, view):
        x = inp.identity
        run = run_stages(pi, cfg, {x: inp.vectors}, "dfake", _OwnTapes(view))
        if run.failure is not None:
            return False
        return _pi_r_output(pi, run.st1, x, run.s3[x], run.received(x),
                            cfg.level, n, view)

    return ProtocolSpec(
        name=f"{pi.name}-eliminated",
        rounds=pi.rounds - 1,
        bandwidth=pi.bandwidth,
        message_fn=message_fn,
        output_fn=output_fn,
        deterministic=False,
    )


def run_elimination_trials(pi: ProtocolSpec, cfg: EliminationConfig,
                           trials: int, seed: int) -> EliminationReport:
    """Full elimination trials with shared stage state per trial.

    Each trial samples an inner instance, runs the three stages once for
    every inner vertex with the trial's randomness (the tapes agree across
    vertices, so each vertex's share equals the compiled protocol's run at
    that vertex), checks transcript consistency, and judges the compiled
    protocol's answers against the inner instance.
    """
    p, level = cfg.params, cfg.level
    lv = p.level(level)
    n, n_prev = lv["n"], lv["n_prev"]
    successes = inconsistencies = fallbacks = failures = 0
    pair_attempts = private_attempts = 0
    max_bits = 0
    for trial in range(trials):
        view = RandomnessView(seed + trial)
        inner = sample_inner(p, level - 1, derive_rng(seed + trial, "inner"))
        run = run_stages(pi, cfg, _inner_inputs(inner), "dfake", view)
        pair_attempts += run.pair_attempts
        private_attempts += run.private_attempts
        outputs = {}
        for x, s3 in run.s3.items():
            fallbacks += s3.fallback_used
            if s3.failed:
                break
            if not verify_consistency(pi, run.st1, x, s3, run.sent(x), level):
                inconsistencies += 1
            max_bits = max([max_bits] + [len(b) for b in s3.outgoing.values()])
            outputs[x] = _pi_r_output(pi, run.st1, x, s3, run.received(x),
                                      level, n, view.restrict(x))
        if run.failure is not None:
            failures += 1
        elif judge(inner, outputs):
            successes += 1
    return EliminationReport(
        rounds_used=pi.rounds - 1,
        bandwidth_used=max_bits,
        trials=trials,
        successes=successes,
        success_frequency=successes / trials if trials else 0.0,
        inconsistency_count=inconsistencies,
        fallback_count=fallbacks,
        failed_trials=failures,
        rejection_attempts=pair_attempts + private_attempts,
        pair_attempts=pair_attempts,
        private_attempts=private_attempts,
        predicted_degradation=degradation_bound(n_prev, pi.bandwidth),
    )


# -- hybrid laws ----------------------------------------------------------


def dreal_sampler(pi: ProtocolSpec, p: ParamSchedule, level: int, seed: int):
    """The exact joint law: a recursive-family instance plus its round-1
    transcript."""
    g, emb = sample_gr(p, level, derive_rng(seed, "dreal"))
    transcript, _ = simulate(pi, g, RandomnessView(seed))
    return g, emb, transcript


def hybrid_sampler(which: str, pi: ProtocolSpec, cfg: EliminationConfig,
                   seed: int):
    """One draw of the designated hybrid law.

    Returns (graph, embedding, auxiliaries-or-None, Transcript).  The
    ``dtilde_real`` route samples the restructured family jointly and reads
    the transcript off the actual inputs; the staged routes run the stages
    on the ``which`` rung and assemble the instance from each vertex's
    completed input, raising the error of a run that stops.
    """
    if which not in HYBRIDS:
        raise InfeasibleParams(f"unknown hybrid {which!r}")
    p, level = cfg.params, cfg.level
    view = RandomnessView(seed)
    if which == "dtilde_real":
        g, emb, aux, _ = sample_gr_tilde(p, level,
                                         derive_rng(seed, "gtilde"))
        transcript, _ = simulate(pi, g, view)
        return g, emb, aux, transcript

    inner = sample_inner(p, level - 1, derive_rng(seed, "inner"))
    run = run_stages(pi, cfg, _inner_inputs(inner), which, view)
    if run.failure is not None:
        raise run.failure
    g = rebuild_from_inner_views(
        p.level(level)["n"], level, run.st1.ids,
        {x: s3.vecs for x, s3 in run.s3.items()})
    transcript = Transcript()
    for x, s3 in run.s3.items():
        x_out = _outer_id(x, run.st1.ids)
        for w, bits in s3.outgoing.items():
            transcript.record(1, x_out, w, bits)
        for w, bits in s3.incoming.items():
            transcript.record(1, w, x_out, bits)
    emb = InnerEmbedding(ids=run.st1.ids, inner=inner)
    return g, emb, run.st1.aux, transcript


# -- bound calculators ----------------------------------------------------


def degradation_bound(n_prev: int, s: int) -> float:
    """Per-elimination success loss: 1/n_prev + 15*sqrt(s/n_prev)."""
    if n_prev < 1 or s < 1:
        raise InfeasibleParams("n_prev and s must be >= 1")
    return 1 / n_prev + 15 * math.sqrt(s / n_prev)


def theorem1_bound(n_r: int, r: int) -> float:
    """The bandwidth lower bound n_r^{(1/2)/34^r} / 480^2, via logarithms so
    that arbitrary-precision layer sizes are accepted."""
    if n_r < 1:
        raise InfeasibleParams("n_r must be >= 1")
    return math.exp(math.log(n_r) * 0.5 / 34 ** r) / 480 ** 2


def theorem1_precondition(n_r: int, r: int) -> bool:
    """The size precondition n_r > r^(4 * 34^r), compared in log space."""
    if r == 0:
        return n_r > 0
    if r == 1:
        return n_r > 1
    return math.log(n_r) > 4 * 34 ** r * math.log(r)


def result1_chain(n0: int, r: int, s: int) -> list:
    """Every inequality in the success-chain argument, as checkable steps.

    Starting from success 15/16 at level r, eliminating r times leaves at
    least 15/16 - sum 1/n_l - 15*sqrt(s)*sum 1/sqrt(n_l) over levels
    l < r, and the chain lower-bounds that by 7/8 provided the layer sizes
    dwarf r and s sits below the bandwidth bound.  Returns a list of
    {name, lhs, rhs, holds} dicts; the chain is valid when every step holds.
    """
    inv = [math.exp(-(34 ** l) * math.log(n0)) for l in range(r)]
    sqrt_inv = [math.exp(-0.5 * (34 ** l) * math.log(n0)) for l in range(r)]
    exact = 15 / 16 - sum(inv) - 15 * math.sqrt(s) * sum(sqrt_inv)
    relaxed = 15 / 16 - r / n0 - 15 * math.sqrt(s) * r / math.sqrt(n0)
    s_cap = theorem1_bound(n0, 0)  # n0^(1/2) / 480^2
    steps = [
        {"name": "monotone-layer-sizes", "lhs": relaxed, "rhs": exact,
         "holds": exact >= relaxed - 1e-12},
        {"name": "r-over-n0-small", "lhs": r / n0, "rhs": 1 / 32,
         "holds": r / n0 <= 1 / 32},
        {"name": "bandwidth-below-bound", "lhs": float(s), "rhs": s_cap,
         "holds": s < s_cap},
        {"name": "r-below-n0-quarter", "lhs": float(r),
         "rhs": math.exp(0.25 * math.log(n0)),
         "holds": r < math.exp(0.25 * math.log(n0))},
        {"name": "final-strictly-above-7-8", "lhs": exact, "rhs": 7 / 8,
         "holds": exact > 7 / 8},
    ]
    return steps
