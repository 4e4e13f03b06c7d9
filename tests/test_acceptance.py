"""Acceptance criteria, one test per criterion.

Each test prints a single CRITERION line so the suite's verdicts can be
read off the pytest -s output directly.  Exact values asserted here were
frozen from the independent oracles (enumeration / closed-form
combinatorics), never from the samplers under test.
"""

import math
import random
from decimal import Decimal, getcontext
from fractions import Fraction

from congestlab import infotheory, oracles
from congestlab.elimination import (HYBRIDS, EliminationConfig,
                                    build_pi_r_minus_1, degradation_bound,
                                    hybrid_sampler, result1_chain,
                                    run_elimination_trials, theorem1_bound,
                                    theorem1_precondition)
from congestlab.graphs import LAYERS
from congestlab.params import feasibility_check
from congestlab.protocols import exact_success, registry, simulate
from congestlab.randomness import RandomnessView, derive_rng
from congestlab.sampling import (build_gr_frame, enumerate_g0,
                                 inner_cross_pairs, sample_g0, sample_gr,
                                 sample_gr_tilde)
from schedules import LOOSE, MICRO, MIXED4, SMALL2, SPARSE2, SPARSE3


def report(num, ok, detail):
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


def test_criterion_1_triangle_probability():
    exact = oracles.exact_g0_triangle_prob(1)
    trials = 100_000
    hits = sum(
        sample_g0(1, random.Random(i))[0].has_triangle()
        for i in range(trials)
    )
    freq = hits / trials
    ok = exact == Fraction(1, 8) and abs(freq - 0.125) <= 0.01
    report(1, ok, f"exact={exact}, monte-carlo={freq:.4f} over {trials}")


def test_criterion_2_zero_round_optimum():
    best = oracles.zero_round_optimum(1)
    all_no = exact_success(registry(rounds=0)["all-no"], enumerate_g0(1))
    ok = best == Fraction(7, 8) and all_no == Fraction(7, 8)
    report(2, ok, f"optimum={best} over 4096 strategies, all-No achieves {all_no}")


def test_criterion_3_recursive_family_invariants():
    assert feasibility_check(SMALL2) == []
    draws = 1000
    bad = 0
    for i in range(draws):
        g, emb = sample_gr(SMALL2, 1, derive_rng(3, i))
        starred = {layer: set(emb.ids[layer]) for layer in LAYERS}
        degree_ok = all(
            g.type_rows(emb.outer(v))[w].count(t) == 8
            for v in emb.inner.vertices()
            for w in v.layer.others
            for t in (0, 1)
        )
        # every stored slot is a channel (the default type is never stored),
        # so only the endpoints of stored pairs can break the bound
        touched = {w for u, v, _ in g.stored_pairs() for w in (u, v)}
        outer_ok = all(
            sum(len(row.slots) for row in g.type_rows(u).values()) <= 1
            for u in touched if u.index not in starred[u.layer]
        )
        triangle_ok = g.has_triangle() == emb.inner.has_triangle()
        if not (degree_ok and outer_ok and triangle_ok):
            bad += 1
    report(3, bad == 0,
           f"{draws - bad}/{draws} draws at n=[2,2000], d=8 satisfy exact "
           f"per-type degree, outer degree <= 1, and triangle equivalence")


def _aux_well_formed(aux, ids, level, n_prev, alpha, beta, gamma):
    for layer in LAYERS:
        elems = aux.elements_in_layer(layer)
        if len(elems) != len(set(elems)) or set(elems) & set(ids[layer]):
            return False
    for x, sets in aux.J.items():
        if len(sets) != alpha:
            return False
        if any(len(s.members[w]) != n_prev for s in sets
               for w in x.layer.others):
            return False
    for (x, target, t, i), sets in aux.K.items():
        if len(sets) != beta:
            return False
        other = [w for w in x.layer.others if w is not target][0]
        if any(len(s.members[target]) != n_prev - 1
               or len(s.members[other]) != n_prev for s in sets):
            return False
    return all(len(idxs) == gamma for idxs in aux.L.values())


def test_criterion_4_restructured_family_fidelity():
    parts = []
    ok = True
    # (a) auxiliary disjointness and cardinalities
    aux_bad = 0
    for i in range(100):
        g, emb, aux, _ = sample_gr_tilde(MICRO, 1, derive_rng(4, i))
        if not _aux_well_formed(aux, emb.ids, 1, 1, 1, 1, 1):
            aux_bad += 1
    ok &= aux_bad == 0
    parts.append(f"aux well-formed on {100 - aux_bad}/100 draws")
    # (b) collision frequency <= analytic bound + 3 sigma, at n_prev = 1
    # (MICRO, LOOSE) and at n_prev = 2, 3 and 4
    intervals = {}
    for name, p, trials in (("tight", MICRO, 200), ("loose", LOOSE, 300),
                            ("sparse2", SPARSE2, 40),
                            ("sparse3", SPARSE3, 40),
                            ("mixed4", MIXED4, 40)):
        rate, intervals[name] = oracles.collision_rate(p, 1, trials=trials,
                                                       seed=4)
        bound = oracles.collision_bound(p, 1)
        sigma = math.sqrt(max(bound * (1 - bound), 0.25 / trials) / trials)
        ok &= rate <= bound + 3 * sigma + 1e-12
        parts.append(f"{name}: rate={rate:.3f} <= bound={bound:.3f}+3s")
    # (c) the closed-form collision probability at the micro schedule lies
    # in the 95% Wilson interval of (b)'s 200 observed draws
    exact_micro = float(oracles.exact_collision_probability(MICRO, 1))
    lo, hi = intervals["tight"]
    ok &= lo <= exact_micro <= hi
    parts.append(f"closed-form {exact_micro:.10f} in micro CI "
                 f"[{lo:.3f},{hi:.3f}]")
    # the closed form itself is validated against observation at the loose
    # schedule, where collisions are genuinely rare
    exact_loose = float(oracles.exact_collision_probability(LOOSE, 1))
    rate, (lo, hi) = oracles.collision_rate(LOOSE, 1, trials=300, seed=44)
    ok &= lo - 0.02 <= exact_loose <= hi + 0.02
    parts.append(f"closed-form {exact_loose:.4f} in empirical CI [{lo:.3f},{hi:.3f}]")
    report(4, ok, "; ".join(parts))


def test_criterion_5_information_measure_suite():
    rng = random.Random(5)
    worst_identity = 0.0
    inequality_ok = True
    for _ in range(250):
        j = infotheory.random_joint(["A", "B", "C"], [2, 3, 2], rng)
        # chain rule
        gap = abs(infotheory.entropy(j.marginal(["A", "B"]))
                  - infotheory.entropy(j.marginal(["A"]))
                  - infotheory.cond_entropy(j, ["B"], ["A"]))
        worst_identity = max(worst_identity, gap)
        # MI-KL identity
        worst_identity = max(
            worst_identity,
            infotheory.mi_kl_identity_check(j, ["A"], ["B"], ["C"]))
        # Pinsker
        p = infotheory.random_distribution(5, rng)
        q = infotheory.random_distribution(5, rng)
        inequality_ok &= infotheory.pinsker_check(p, q)[2]
        # TVD chain bound and over-conditioning
        mu = infotheory.random_joint(["X", "Y"], [2, 2], rng)
        nu = infotheory.random_joint(["X", "Y"], [2, 2], rng)
        inequality_ok &= infotheory.tvd_chain_bound_check(mu, nu)[2]
        inequality_ok &= infotheory.overconditioning_check(mu, nu)[3]
    mono = infotheory.monotonicity_checks(rng, tables=250)
    inequality_ok &= all(mono.values())
    ok = worst_identity <= 1e-9 and inequality_ok
    report(5, ok,
           f"1000+ randomized tables: worst identity gap "
           f"{worst_identity:.2e} <= 1e-9, all inequalities hold "
           f"(monotonicity: {mono})")


def test_criterion_6_elimination_structural_contract():
    cfg = EliminationConfig(params=MICRO, level=1, cap=3000)
    # the bandwidth the trials report is the longest message of an
    # independent run: pi simulated on a framed level-1 instance
    inner, _ = sample_g0(MICRO.n[0], derive_rng(6, "inner"))
    framed, _ = build_gr_frame(inner, MICRO, 1)
    parts = []
    ok = True
    for name, pi in registry(rounds=1, bandwidth=1).items():
        built = build_pi_r_minus_1(pi, cfg)
        ok &= built.rounds == 0 and built.bandwidth <= pi.bandwidth
        rep = run_elimination_trials(pi, cfg, trials=25, seed=6)
        ok &= rep.inconsistency_count == 0
        ok &= rep.rounds_used == 0
        longest = simulate(pi, framed, RandomnessView(6))[0].max_length()
        ok &= rep.bandwidth_used == longest
        parts.append(f"{name}: succ={rep.success_frequency:.2f} "
                     f"bandwidth={rep.bandwidth_used} (simulated {longest}) "
                     f"fallback={rep.fallback_count} "
                     f"inconsistent={rep.inconsistency_count} "
                     f"failed={rep.failed_trials}")
    report(6, ok, "; ".join(parts))


def _framed_inner_transcript_law(pi):
    """The real law of the starred-pair round-1 transcript at MICRO: pi
    simulated on the framed level-1 instance of every base instance, each
    inner pair's messages read in both directions."""
    law = {}
    for inner, _, w in enumerate_g0(1):
        g, emb = build_gr_frame(inner, MICRO, 1)
        sent = simulate(pi, g, RandomnessView(0))[0].entries
        key = tuple((sent.get((1, emb.outer(u), emb.outer(v))),
                     sent.get((1, emb.outer(v), emb.outer(u))))
                    for u, v, _ in inner_cross_pairs(inner))
        law[key] = law.get(key, Fraction(0)) + w
    return law


def test_criterion_7_oblivious_losslessness():
    reg = registry(rounds=1, bandwidth=1)
    pi1 = reg["constant-message"]
    cfg = EliminationConfig(params=MICRO, level=1, cap=3000)

    def g1_support():
        for inner, _, w in enumerate_g0(1):
            g, emb = build_gr_frame(inner, MICRO, 1)
            yield g, emb, w

    rhs = exact_success(pi1, g1_support())
    pi0 = build_pi_r_minus_1(pi1, cfg)
    lhs = exact_success(pi0, enumerate_g0(1))
    # the exact law computed from the declared message map, against the
    # real law simulated on every framed instance, for every declaring
    # protocol; a message read both ways must be the declared one
    tvds = {}
    for name, pi in reg.items():
        if pi.message_given_type is None:
            continue
        declared = oracles.exact_inner_transcript_law(
            MICRO, pi.message_given_type)
        declared = {tuple((bits, bits) for bits in key): w
                    for key, w in declared.items()}
        tvds[name] = oracles.tvd_exact(_framed_inner_transcript_law(pi),
                                       declared)
    ok = (lhs == rhs == Fraction(7, 8) and len(tvds) == 4
          and all(d == 0 for d in tvds.values()))
    report(7, ok,
           f"exact_success(built pi0, base micro)={lhs} == "
           f"exact_success(pi1, level-1 micro)={rhs}; projected "
           f"transcript TVD, simulated vs declared: "
           + ", ".join(f"{name}={d}" for name, d in tvds.items()))


def test_criterion_8_hybrid_decomposition():
    pi = registry(rounds=1, bandwidth=1)["type-broadcast"]
    cfg = EliminationConfig(params=MICRO, level=1, cap=3000)
    f = pi.message_given_type
    # for a type-determined protocol every hybrid's starred-pair transcript
    # is the same pushforward of the inner instance law; each sampler is
    # checked against that exact law, each hybrid from its own seed range,
    # so no two share an inner instance
    law = oracles.exact_inner_transcript_law(MICRO, f)
    proj = oracles.project_inner_transcript(f)
    trials = 120
    worst = 0.0
    for k, which in enumerate(HYBRIDS):
        counts = {}
        for i in range(trials):
            g, emb, _, _ = hybrid_sampler(which, pi, cfg, 1000 * (k + 1) + i)
            key = proj((g, emb))
            counts[key] = counts.get(key, 0) + 1
        d = sum(abs(counts.get(k, 0) / trials - float(p))
                for k, p in law.items()) / 2
        worst = max(worst, d)
    # the recursive family never collides, so the degree-excess TVD between
    # it and the restructured family is the collision probability: data
    d_excess = oracles.exact_collision_probability(MICRO, 1)
    report(8, worst <= 0.25,
           f"sampler-vs-law empirical TVD worst={worst:.3f} <= 0.25 over "
           f"{trials} draws per hybrid; degree-excess TVD="
           f"{float(d_excess):.10f}")


def test_criterion_9_bound_calculators():
    getcontext().prec = 60
    ok = True
    parts = []
    # degradation spot values against independent arithmetic
    ok &= degradation_bound(225, 1) == 1 / 225 + 15 * math.sqrt(1 / 225)
    want = float(Decimal(1) / Decimal(225) + 15 * (Decimal(1) / Decimal(225)).sqrt())
    ok &= abs(degradation_bound(225, 1) - want) < 1e-12
    ok &= abs(degradation_bound(1, 1) - 16.0) < 1e-12
    parts.append(f"degradation(225,1)={degradation_bound(225, 1):.6f}")
    # theorem bound spot values
    want0 = float(Decimal(10 ** 10).sqrt() / Decimal(230400))
    ok &= abs(theorem1_bound(10 ** 10, 0) - want0) < 1e-12
    ok &= abs(theorem1_bound(1, 5) - 1 / 230400) < 1e-12
    ok &= theorem1_bound(10 ** 12, 1) > theorem1_bound(10 ** 11, 1)
    parts.append(f"bw bound(1e10, r=0)={theorem1_bound(10 ** 10, 0):.4f}")
    # precondition
    ok &= theorem1_precondition(10 ** 374, 1)
    ok &= not theorem1_precondition(2 ** 500, 2)
    # success chain at sample (r, n_r) pairs satisfying the precondition
    for r, n0 in ((1, 10 ** 11), (2, 10 ** 11)):
        steps = result1_chain(n0, r, 1)
        ok &= all(step["holds"] for step in steps)
        parts.append(f"chain r={r} all {len(steps)} steps hold")
    report(9, ok, "; ".join(parts))
