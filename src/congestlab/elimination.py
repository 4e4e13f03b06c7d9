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
from dataclasses import InitVar, dataclass, field
from types import MappingProxyType

from .errors import EmptyOrRareSupport, InfeasibleParams
from .graphs import TypeRow, VertexId, vertices
from .params import ParamSchedule, require_restructured_feasible
from .protocols import (ProtocolSpec, Transcript, VertexInput, judge,
                        round_messages, simulate)
from .randomness import RandomnessView, derive_rng
from .sampling import (InnerEmbedding, outer_channels,
                       rebuild_from_inner_views, sample_d_in,
                       sample_d_in_conditioned, sample_frame, sample_gr,
                       sample_gr_tilde, sample_inner, sample_tilde_input)

# the stages that keep the true inner input, per rung of the hybrid ladder;
# written in HYBRIDS' order, the order seeded runs draw the hybrids in
LADDER = {"h1": ("public", "pair"), "h2": ("pair",), "dfake": ()}
HYBRIDS = ("dtilde_real", *LADDER)

# the one level eliminated here: level 1 around a level-0 inner instance
LEVEL = 1


@dataclass
class EliminationConfig:
    """Knobs of one elimination experiment; ``level`` is checked, not kept."""

    params: ParamSchedule
    level: InitVar[int] = LEVEL
    cap: int = 100_000
    fallback: str = "fail"  # "fail" marks the trial failed; "drop" keeps the
    # last unconditioned-on-messages draw

    def __post_init__(self, level: int):
        if level != LEVEL:
            raise InfeasibleParams(f"level {LEVEL} only, got level {level}")
        if self.fallback not in ("fail", "drop"):
            raise InfeasibleParams(f"unknown fallback policy {self.fallback}")
        if self.cap < 1:
            raise InfeasibleParams(f"cap must be at least 1, got {self.cap}")
        require_restructured_feasible(self.params, LEVEL)


@dataclass
class EliminationReport:
    """What ``run_elimination_trials`` counted.

    Every round-1 message a stage draws, on a phantom input, the completed
    one or an outer partner's, goes through ``protocols.round_messages``, so
    a protocol that breaks its channels or its bandwidth raises before any
    report exists, and ``bandwidth_used`` is at most ``pi.bandwidth``.
    ``fallback_count`` counts every private stage without a consistent
    draw.  ``inconsistency_count`` counts those whose unmatched draw was
    kept: it equals ``fallback_count`` under ``fallback="drop"`` and is 0
    under ``"fail"``, where such a stage ends its trial instead.
    """

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
    """Everything fixed by the public tape: the frame (``sample_frame``),
    with the plan of each inner vertex's restructured draw in it, and the
    public messages."""

    ids: dict
    aux: object
    plans: dict  # inner vertex -> its TildePlan
    m_pub: dict  # inner vertex -> {outer VertexId: bits or None}

    def outer(self, x: VertexId) -> VertexId:
        """The outer identity of inner vertex ``x``."""
        return VertexId(x.layer, self.ids[x.layer][x.index - 1])


@dataclass
class StageThreeResult:
    """x's completed input and its round-1 traffic.  ``fallback_used``: no
    draw within ``cfg.cap`` reproduced the sampled messages, so these are
    the last, unmatched draw's; ``run_stages`` applies ``cfg.fallback``."""

    vecs: dict  # other layer -> TypeRow of x's completed input
    outgoing: dict  # outer VertexId -> bits
    partners: dict  # outer partner VertexId -> its one-channel VertexInput
    incoming: dict  # outer VertexId -> bits (from outer partners only)
    fallback_used: bool
    attempts: int


def _require_one_round_regime(pi: ProtocolSpec):
    """The one regime eliminated here; every entry point checks it first."""
    if pi.rounds != 1 or not pi.deterministic:
        raise InfeasibleParams(
            f"deterministic 1-round protocols only; {pi.name} has "
            f"rounds={pi.rounds}, deterministic={pi.deterministic}")


def _draw(pi: ProtocolSpec, st1: StageOneState, x: VertexId, n_in,
          rng: random.Random):
    """One restructured input of x around the inner rows ``n_in`` (true or
    phantom), with the round-1 messages x sends on it, checked by
    ``round_messages``: a message that breaks the channel or bandwidth rule
    raises, on a phantom input as on the true one.  The draw fills x's plan
    in the frame, ``st1.plans[x]``."""
    vecs = sample_tilde_input(st1.plans[x], rng, n_in)
    inp = VertexInput(identity=st1.outer(x), vectors=vecs, r=LEVEL)
    return vecs, round_messages(pi, 1, inp, {}, None)


def _reproduce(pi: ProtocolSpec, cfg: EliminationConfig, st1: StageOneState,
               x: VertexId, record: dict, inner, rng: random.Random):
    """Draw x's restructured input around the inner rows ``inner()`` until
    its round-1 messages reproduce ``record``, at most ``cfg.cap`` times.
    Returns the last draw's rows and messages, the attempts made and
    whether the messages match."""
    for attempts in range(1, cfg.cap + 1):
        vecs, msgs = _draw(pi, st1, x, inner(), rng)
        if all(msgs.get(w) == bits for w, bits in record.items()):
            return vecs, msgs, attempts, True
    return vecs, msgs, attempts, False


def _m_pub_targets(st1: StageOneState, x: VertexId) -> list:
    """The predecessor slots of the public singleton sets: members of
    L_{t,i}^{x->Y} (x's plan's ``public`` slots) whose index precedes the
    i-th starred identity of Y."""
    return [VertexId(target, idx)
            for target, _, i, idx in st1.plans[x].public
            if idx < st1.ids[target][i - 1]]


def sample_public_stage(pi: ProtocolSpec, cfg: EliminationConfig,
                        rng: random.Random, inputs=None) -> StageOneState:
    """Stage 1: identities, auxiliaries and the public messages.

    With ``inputs`` given (inner vertex -> its rows), the phantom inputs
    behind the public messages keep the true inner input (the stronger
    conditioning of the ``h1`` law); otherwise they draw a fresh inner input
    from its marginal.
    """
    p = cfg.params
    n_prev = p.level(LEVEL)["n_prev"]
    st1 = StageOneState(*sample_frame(p, LEVEL, rng), m_pub={})
    for x in vertices(n_prev):
        if inputs is None:
            n_in = dict(zip(x.layer.others, sample_d_in(p, LEVEL - 1, rng)))
        else:
            n_in = inputs[x]
        _, msgs = _draw(pi, st1, x, n_in, rng)
        st1.m_pub[x] = {w: msgs.get(w) for w in _m_pub_targets(st1, x)}
    return st1


def sample_pair_stage(pi: ProtocolSpec, cfg: EliminationConfig,
                      st1: StageOneState, x: VertexId, y: VertexId,
                      pair_type: int, rng: random.Random, n_in=None):
    """Stage 2: the message of x to y, conditioned on the pair's type and the
    public stage.

    Rejection over phantom full inputs of x whose slot for y carries
    ``pair_type`` and which reproduce the public messages.  With ``n_in``
    given, the phantom keeps the entire true inner input instead (the
    ``h1``/``h2`` conditioning).  Returns (bits-or-None, attempts).
    """
    others = x.layer.others
    slot_position = 0 if y.layer is others[0] else 1

    def phantom():
        return n_in if n_in is not None else dict(zip(
            others, sample_d_in_conditioned(cfg.params, LEVEL - 1, pair_type,
                                            slot_position, y.index, rng)))

    _, msgs, attempts, matched = _reproduce(pi, cfg, st1, x, st1.m_pub[x],
                                            phantom, rng)
    if not matched:
        raise EmptyOrRareSupport(
            f"no phantom input of {x} reproduces the public messages within "
            f"{cfg.cap} attempts", pair=(x, y))
    return msgs.get(st1.outer(y)), attempts


def _outer_partners(cfg: EliminationConfig, st1: StageOneState, x: VertexId,
                    vecs: dict):
    """Each outer channel partner w of x (``outer_channels``), with the full
    input of w, whose single channel goes to x.  Every partner's row toward
    its third layer is one shared read-only empty row."""
    n = cfg.params.level(LEVEL)["n"]
    x_out = st1.outer(x)
    empty = TypeRow(n, LEVEL + 1, MappingProxyType({}))
    # the same VertexId, without the Python-level ``__new__`` that
    # NamedTuple adds: this runs once per outer partner of every private
    # stage
    new = tuple.__new__
    for w_layer, index, t in outer_channels(vecs, st1.ids):
        w = new(VertexId, (w_layer, index))
        vectors = dict.fromkeys(w_layer.others, empty)
        vectors[x.layer] = TypeRow(n, LEVEL + 1, {x_out.index - 1: t})
        yield w, VertexInput(identity=w, vectors=vectors, r=LEVEL)


def sample_private_stage(pi: ProtocolSpec, cfg: EliminationConfig,
                         st1: StageOneState, x: VertexId, n_in: dict,
                         m_in_out: dict,
                         rng: random.Random) -> StageThreeResult:
    """Stage 3: complete x's input consistently with every sampled message,
    then derive all remaining round-1 traffic of x.

    ``m_in_out`` maps each inner partner of x to the stage-2 message (or
    None for a deliberate silence).  Without a consistent draw, the last
    draw is kept and reported as ``fallback_used``.
    """
    # the public messages, and each stage-2 message keyed by the partner's
    # outer identity
    target_msgs = {**st1.m_pub[x],
                   **{st1.outer(y): bits for y, bits in m_in_out.items()}}
    vecs, msgs, attempts, matched = _reproduce(pi, cfg, st1, x, target_msgs,
                                               lambda: n_in, rng)
    x_out = st1.outer(x)
    partners = dict(_outer_partners(cfg, st1, x, vecs))
    incoming = {}
    for w, w_inp in partners.items():
        bits = round_messages(pi, 1, w_inp, {}, None).get(x_out)
        if bits is not None:
            incoming[w] = bits
    return StageThreeResult(
        vecs=vecs, outgoing=dict(msgs), partners=partners, incoming=incoming,
        fallback_used=not matched, attempts=attempts)


# -- the staged pipeline --------------------------------------------------


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


class StageMemo:
    """The public stage and the pair stages of one execution.

    Within one execution (``view.execution``, compared by identity), the
    public stage is fixed by the public tape, and x's message to y by the
    pair's tape and type and the public stage (and, on a rung that keeps
    the true inner input, by it).  ``pairs`` maps ``(x, y, pair type)`` to
    that message and its attempts, drawn from ``tapes.pair_rng(v, ...)``
    and only on a miss.  The players that share ``st1`` share the plans
    its frame holds, one per inner vertex, so each inner vertex's
    restructured draw is planned once per execution; the memo builds no
    plan.  A view of another execution replaces ``st1`` and ``pairs``:
    the memo holds one execution of one protocol, config and rung.  A pair
    stage that raises is not kept.
    """

    def __init__(self):
        self.execution = self.st1 = None
        self.pairs = {}

    def public_stage(self, pi: ProtocolSpec, cfg: EliminationConfig, view,
                     inputs) -> StageOneState:
        if view.execution is not self.execution:
            self.st1 = sample_public_stage(pi, cfg, view.public_rng("stage1"),
                                           inputs)
            self.execution, self.pairs = view.execution, {}
        return self.st1

    def pair_stage(self, pi: ProtocolSpec, cfg: EliminationConfig, tapes, v,
                   x: VertexId, y: VertexId, pair_type: int, n_in):
        drawn = self.pairs.get((x, y, pair_type))
        if drawn is None:
            drawn = self.pairs[(x, y, pair_type)] = sample_pair_stage(
                pi, cfg, self.st1, x, y, pair_type,
                tapes.pair_rng(v, f"m_in:{x!r}->{y!r}"), n_in)
        return drawn


def run_stages(pi: ProtocolSpec, cfg: EliminationConfig, inputs: dict,
               rung: str, view, memo: StageMemo | None = None) -> StagedRun:
    """Stage 1, then the pair stages, then the private stages.

    ``inputs`` maps inner vertices to their true inner input, one
    index-based row per other layer (slot ``j - 1`` is the type of the pair
    with inner vertex ``j``).  The private stage runs for each of them in
    order, the pair stage for every ordered inner pair with an endpoint
    among them, reading the pair's type from that endpoint's row.  ``rung``
    picks the stages that keep the true inner input (``LADDER``; the private
    stage always does).  Each pair and private tape is read through
    ``view.restrict(v)``, where ``v`` is the vertex of ``inputs`` drawn for
    (of a pair, its endpoint in ``inputs``), so ``view`` is a
    ``RandomnessView`` (trials, hybrids) or that one vertex's
    ``RestrictedView`` (the compiled protocol).  The public and pair stages
    are drawn through a ``StageMemo``: ``memo`` on the ``dfake`` rung, which
    draws only the stages it lacks, and a fresh one without ``memo`` or on a
    rung that keeps the true inner input in a stage.  A protocol outside the
    regime, a vertex past ``n_prev``, a row set that is not the vertex's two
    other layers, a row whose length is not ``n_prev`` or which holds a type
    outside ``[0, 1]``, a vertex whose tapes ``view`` cannot restrict to
    (``ValueError``), a rung outside ``LADDER``, and a rung that keeps the
    true inner input (``h1``, ``h2``) without the input of every inner
    vertex are refused before any draw and before ``memo`` is read.
    """
    _require_one_round_regime(pi)
    n_prev = cfg.params.level(LEVEL)["n_prev"]
    inner_types = set(range(LEVEL + 1))
    for x, rows in inputs.items():
        if rows.keys() != set(x.layer.others):
            raise InfeasibleParams(
                f"input of {x!r} has rows for layers "
                f"{sorted(map(str, rows))}, not for its two other layers")
        lengths = sorted({len(row) for row in rows.values()})
        if x.index > n_prev or lengths != [n_prev]:
            raise InfeasibleParams(
                f"input of {x!r} (rows of length {lengths}) does not fit "
                f"inner layers of size n_prev = {n_prev}")
        types = {t for row in rows.values() for t in row}
        if not types <= inner_types:
            raise InfeasibleParams(
                f"input of {x!r} holds types {sorted(types - inner_types)}, "
                f"outside [0, {LEVEL}]")
        view.restrict(x)  # refuses a view that cannot see x's tapes
    if rung not in LADDER:
        raise InfeasibleParams(f"unknown rung {rung!r}, not one of "
                               f"{sorted(LADDER)}")
    keep = LADDER[rung]
    if keep and inputs.keys() != set(vertices(n_prev)):
        raise InfeasibleParams(
            f"rung {rung!r} keeps the true inner input, so it needs the "
            f"input of every inner vertex, got {sorted(inputs)}")
    # a run draws each stage once, so a fresh memo is exact within it
    memo = StageMemo() if memo is None or keep else memo
    run = StagedRun(memo.public_stage(
        pi, cfg, view, inputs if "public" in keep else None))
    try:
        for x in vertices(n_prev):
            for y in vertices(n_prev):
                # the pair's type and tape, read at its endpoint in inputs
                u, v = (x, y) if x in inputs else (y, x)
                if y.layer is x.layer or u not in inputs:
                    continue
                run.m_in[(x, y)], attempts = memo.pair_stage(
                    pi, cfg, view.restrict(u), v, x, y,
                    inputs[u][v.layer][v.index - 1],
                    inputs[x] if "pair" in keep else None)
                run.pair_attempts += attempts
    except EmptyOrRareSupport as exc:
        run.failure = exc
        return run
    for x, rows in inputs.items():
        s3 = run.s3[x] = sample_private_stage(
            pi, cfg, run.st1, x, rows, run.sent(x),
            view.restrict(x).private_rng("stage3"))
        run.private_attempts += s3.attempts
        if s3.fallback_used and cfg.fallback == "fail":
            run.failure = EmptyOrRareSupport(
                f"no completed input of {x} reproduces its sampled messages "
                f"within {cfg.cap} attempts")
            break
    return run


def _staged_draw(pi: ProtocolSpec, cfg: EliminationConfig,
                 view: RandomnessView, rung: str):
    """The inner instance of ``view``'s seed, and the stages run on it."""
    inner = sample_inner(cfg.params, LEVEL - 1,
                         derive_rng(view.seed, "inner"))
    inputs = {x: inner.type_rows(x) for x in inner.vertices()}
    return inner, run_stages(pi, cfg, inputs, rung, view)


# -- the compiled protocol and the elimination trials ---------------------


def _pi_r_output(pi: ProtocolSpec, cfg: EliminationConfig, run: StagedRun,
                 x: VertexId, view) -> bool:
    """The original protocol's answer at x plus the answers of every vertex
    x can simulate (its outer partners and one isolated outer vertex)."""
    n = cfg.params.level(LEVEL)["n"]
    s3, x_out = run.s3[x], run.st1.outer(x)
    inbox = {}
    for y, bits in run.received(x).items():
        if bits is not None:
            inbox[(1, run.st1.outer(y))] = bits
    for w, bits in s3.incoming.items():
        inbox[(1, w)] = bits
    inp = VertexInput(identity=x_out, vectors=s3.vecs, r=LEVEL)
    if pi.output_fn(inp, inbox, view):
        return True
    for w, w_inp in s3.partners.items():
        bits = s3.outgoing.get(w)
        if pi.output_fn(w_inp, {} if bits is None else {(1, x_out): bits},
                        view):
            return True
    # one isolated outer vertex stands in for all channel-free vertices
    iso = VertexInput(
        identity=VertexId(x.layer, n),
        vectors={w: TypeRow(n, LEVEL + 1) for w in x.layer.others}, r=LEVEL)
    return bool(pi.output_fn(iso, {}, view))


def build_pi_r_minus_1(pi: ProtocolSpec, cfg: EliminationConfig) -> ProtocolSpec:
    """Compile an r-round protocol into an (r-1)-round one.

    Only the r = 1 case is supported: the result is a 0-round protocol that
    runs all three stages communication-free and answers directly.  Deeper
    regimes would additionally relay the original protocol's rounds 2..r
    over the input instance's own channels.

    Each player runs the stages on its own input and its restricted view.
    The compiled protocol owns one ``StageMemo``, keyed by the execution
    token its players' views share, so the players of one execution draw
    the public stage once and each pair stage once, each from its tape
    derived once, and fill the frame's one plan of each inner vertex's
    draw; a player's run equals the one it would make alone.
    """
    _require_one_round_regime(pi)
    memo = StageMemo()

    def message_fn(i, inp, inbox, view):
        return {}

    def output_fn(inp, inbox, view):
        x = inp.identity
        run = run_stages(pi, cfg, {x: inp.vectors}, "dfake", view, memo)
        return run.failure is None and _pi_r_output(pi, cfg, run, x, view)

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
    that vertex), and judges the compiled protocol's answers against the
    inner instance.  One run draws each public and pair stage once, through
    the fresh ``StageMemo`` of ``run_stages``.  A run that stops is a
    failed trial and is not judged, and ``bandwidth_used`` reads only the
    judged runs.
    """
    _require_one_round_regime(pi)
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    # refuses a bandwidth below 1 before the first draw
    predicted = degradation_bound(cfg.params.level(LEVEL)["n_prev"],
                                  pi.bandwidth)
    successes = fallbacks = failures = 0
    pair_attempts = private_attempts = max_bits = 0
    for trial in range(trials):
        view = RandomnessView(seed + trial)
        inner, run = _staged_draw(pi, cfg, view, "dfake")
        pair_attempts += run.pair_attempts
        private_attempts += run.private_attempts
        fallbacks += sum(s3.fallback_used for s3 in run.s3.values())
        if run.failure is not None:
            failures += 1
            continue
        max_bits = max([max_bits, *(len(bits) for s3 in run.s3.values()
                                    for bits in s3.outgoing.values())])
        if judge(inner, {x: _pi_r_output(pi, cfg, run, x, view.restrict(x))
                         for x in run.s3}):
            successes += 1
    return EliminationReport(
        rounds_used=pi.rounds - 1,
        bandwidth_used=max_bits,
        trials=trials,
        successes=successes,
        success_frequency=successes / trials,
        inconsistency_count=fallbacks if cfg.fallback == "drop" else 0,
        fallback_count=fallbacks,
        failed_trials=failures,
        rejection_attempts=pair_attempts + private_attempts,
        pair_attempts=pair_attempts,
        private_attempts=private_attempts,
        predicted_degradation=predicted,
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
    on the ``which`` rung, through a fresh ``StageMemo``, and assemble the
    instance from each vertex's completed input, raising the error of a run
    that stops.
    """
    _require_one_round_regime(pi)
    if which not in HYBRIDS:
        raise InfeasibleParams(f"unknown hybrid {which!r}")
    p = cfg.params
    view = RandomnessView(seed)
    if which == "dtilde_real":
        g, emb, aux, _ = sample_gr_tilde(p, LEVEL,
                                         derive_rng(seed, "gtilde"))
        transcript, _ = simulate(pi, g, view)
        return g, emb, aux, transcript

    inner, run = _staged_draw(pi, cfg, view, which)
    if run.failure is not None:
        raise run.failure
    g = rebuild_from_inner_views(
        p.level(LEVEL)["n"], LEVEL, run.st1.ids,
        {x: s3.vecs for x, s3 in run.s3.items()})
    transcript = Transcript()
    for x, s3 in run.s3.items():
        x_out = run.st1.outer(x)
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
    inv = sqrt_inv = 0.0
    for l in range(r):
        inv += math.exp(-(34 ** l) * math.log(n0))
        sqrt_inv += math.exp(-0.5 * (34 ** l) * math.log(n0))
    exact = 15 / 16 - inv - 15 * math.sqrt(s) * sqrt_inv
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
