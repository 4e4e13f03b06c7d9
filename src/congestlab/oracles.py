"""Independent oracles for exact reference values.

Everything here is computed from first principles — explicit enumeration,
closed-form combinatorics, or direct Monte Carlo — so that the samplers and
the protocol engine can be checked against values they did not produce
themselves.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import product

from .errors import CapExceeded, InvalidDistribution
from .params import ParamSchedule
from .protocols import wilson_interval
from .sampling import (enumerate_g0, has_collision, inner_cross_pairs,
                       inner_views, sample_gr_tilde)

# largest inner support ``exact_inner_transcript_law`` enumerates
ENUMERATION_CAP = 10 ** 6


# -- exact values for the 0-round family ----------------------------------


def exact_g0_triangle_prob(n0: int) -> Fraction:
    """Triangle probability of the 0-round family, by full enumeration."""
    total = Fraction(0)
    for g, _, w in enumerate_g0(n0):
        if g.has_triangle():
            total += w
    return total


def zero_round_optimum(n0: int) -> Fraction:
    """Best success probability of any deterministic 0-round protocol.

    A 0-round protocol is a per-vertex map from the vertex's own input to a
    Yes/No output.  Inputs are the pair-type vectors toward the two other
    layers; the search is exhaustive over all joint strategies, which is
    only tractable for n0 = 1 (16 strategies per vertex).  Randomized
    protocols are mixtures of deterministic ones, so this is the overall
    optimum.
    """
    if n0 != 1:
        raise CapExceeded(
            f"exhaustive strategy search covers n0 = 1 only, got n0={n0}"
        )
    inputs = list(product((0, 1), repeat=2))  # (type toward X, type toward Y)
    strategies = list(product((False, True), repeat=len(inputs)))

    instances = []
    for mask in range(8):
        ab = 0 if mask >> 0 & 1 else 1
        bc = 0 if mask >> 1 & 1 else 1
        ca = 0 if mask >> 2 & 1 else 1
        triangle = ab == 0 and bc == 0 and ca == 0
        # per-vertex inputs in layer order, vectors toward the other two
        # layers in layer order: A sees (ab, ca), B sees (ab, bc), C (ca, bc)
        instances.append((((ab, ca), (ab, bc), (ca, bc)), triangle))

    idx = {inp: k for k, inp in enumerate(inputs)}
    best = 0  # most instances won by one strategy triple, out of 8
    for sa in strategies:
        for sb in strategies:
            for sc in strategies:
                wins = 0
                for (ia, ib, ic), triangle in instances:
                    some_yes = sa[idx[ia]] or sb[idx[ib]] or sc[idx[ic]]
                    if some_yes == triangle:
                        wins += 1
                if wins > best:
                    best = wins
    return Fraction(best, len(instances))


# -- distances between instance laws --------------------------------------


def tvd_exact(law1: dict, law2: dict) -> Fraction:
    """Half-L1 distance between two exact outcome laws."""
    for law in (law1, law2):
        if sum(law.values()) != 1:
            raise InvalidDistribution("law does not sum to 1")
    keys = set(law1) | set(law2)
    return sum(
        abs(law1.get(k, Fraction(0)) - law2.get(k, Fraction(0))) for k in keys
    ) / 2


def empirical_tvd(sampler1, sampler2, projection, trials: int, seed: int):
    """Plug-in TVD estimate between projected sample laws.

    ``sampler(seed)`` returns one draw; ``projection`` maps a draw to a
    hashable outcome.
    """
    counts1, counts2 = {}, {}
    for i in range(trials):
        o1 = projection(sampler1(seed + i))
        o2 = projection(sampler2(seed + trials + i))
        counts1[o1] = counts1.get(o1, 0) + 1
        counts2[o2] = counts2.get(o2, 0) + 1
    keys = set(counts1) | set(counts2)
    return 0.5 * sum(
        abs(counts1.get(k, 0) - counts2.get(k, 0)) for k in keys
    ) / trials


# -- named projections ----------------------------------------------------


def project_degree_excess(drawn) -> bool:
    """True when some non-starred vertex carries two or more channels.

    Accepts any tuple starting with (graph, embedding) and recounts from the
    graph, by the rule ``sampling.has_collision`` states.
    """
    g, emb = drawn[0], drawn[1]
    return has_collision(inner_views(g, emb), emb.ids)


def project_inner_input(drawn) -> tuple:
    """The inner instance as seen through the embedding (all inner pair types)."""
    g, emb = drawn[0], drawn[1]
    return tuple(g.pair_type(emb.outer(u), emb.outer(v))
                 for u, v, _ in inner_cross_pairs(emb.inner))


def project_inner_transcript(message_given_type):
    """Projection sending a draw to the round-1 messages between starred
    vertices of a protocol whose messages depend on the pair type alone."""

    def proj(drawn) -> tuple:
        return tuple(message_given_type(t) for t in project_inner_input(drawn))

    return proj


def exact_inner_transcript_law(p: ParamSchedule, message_given_type) -> dict:
    """Exact law of the starred-pair round-1 transcript at level 1.

    Valid for protocols whose round-1 messages are fixed functions of the
    pair type: the transcript is then the pushforward of the inner instance
    law, which is enumerated exactly.
    """
    n0 = p.n[0]
    if n0 ** 3 * 8 > ENUMERATION_CAP:
        raise CapExceeded("inner support exceeds enumeration cap")
    law: dict = {}
    for inner, _, w in enumerate_g0(n0):
        key = tuple(message_given_type(t)
                    for _, _, t in inner_cross_pairs(inner))
        law[key] = law.get(key, Fraction(0)) + w
    return law


# -- collision rate of the restructured family ----------------------------


def collision_rate(p: ParamSchedule, level: int, trials: int, seed: int):
    """Observed collision frequency with its 95% Wilson interval."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    hits = 0
    for i in range(trials):
        _, _, _, flag = sample_gr_tilde(p, level, random.Random(seed + i))
        hits += bool(flag)
    return hits / trials, wilson_interval(hits, trials)


def collision_bound(p: ParamSchedule, level: int) -> float:
    """Analytic birthday-style upper bound on the collision probability.

    With theta = 2*n_prev*(level+1)*d + n_prev identities consumed per
    layer, the no-collision probability is at least exp(-3*(theta-1)*theta/n).
    """
    lv = p.level(level)
    theta = 2 * lv["n_prev"] * (level + 1) * lv["d"] + lv["n_prev"]
    exponent = 3 * (theta - 1) * theta / lv["n"]
    return 1.0 - math.exp(-exponent)


def exact_collision_probability(p: ParamSchedule, level: int) -> Fraction:
    """Closed-form collision probability when the inner instance has one
    vertex per layer.

    With n_prev = 1, each of the two vertices assigning into a target layer
    fixes a = alpha + 2*beta + 2*gamma reserved slots plus the shared
    starred slot, then completes k = 2d - (1 + a) uniform slots among its
    n - 1 - a free ones.  The no-collision probability of one layer is

        [C(bulk, k) / C(bulk + a, k)]^2 * C(bulk - k, k) / C(bulk, k)

    with bulk = n - 1 - 2a, and the three layers are independent.
    """
    lv = p.level(level)
    if lv["n_prev"] != 1:
        raise CapExceeded("closed form requires one inner vertex per layer")
    n, d = lv["n"], lv["d"]
    a = lv["alpha"] + 2 * lv["beta"] + 2 * lv["gamma"]
    k = (level + 1) * d - (1 + a)
    bulk = n - 1 - 2 * a
    if k < 0 or bulk < 0:
        raise CapExceeded("schedule outside the closed form's range")
    if bulk - k < k:
        return Fraction(1)  # the two completions cannot avoid each other

    def choose(m, j):
        return Fraction(math.comb(m, j))

    p_avoid = choose(bulk, k) / choose(bulk + a, k)
    p_disjoint = choose(bulk - k, k) / choose(bulk, k)
    p_layer = p_avoid * p_avoid * p_disjoint
    return 1 - p_layer ** 3
