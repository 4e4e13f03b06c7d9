import random
from fractions import Fraction

import pytest

from congestlab import oracles
from congestlab.elimination import (HYBRIDS, EliminationConfig,
                                    hybrid_sampler)
from congestlab.errors import CapExceeded, InvalidDistribution
from congestlab.graphs import LAYERS
from congestlab.params import ParamSchedule
from congestlab.oracles import (collision_bound, collision_rate,
                                empirical_tvd, exact_collision_probability,
                                exact_g0_triangle_prob,
                                exact_inner_transcript_law,
                                project_degree_excess, project_inner_input,
                                project_inner_transcript, tvd_exact,
                                zero_round_optimum)
from congestlab.protocols import registry
from congestlab.sampling import sample_g0, sample_gr, sample_gr_tilde
from schedules import LOOSE, MICRO, MIXED3, SMALL2


def test_triangle_prob_is_one_eighth_any_n0():
    assert exact_g0_triangle_prob(1) == Fraction(1, 8)
    assert exact_g0_triangle_prob(2) == Fraction(1, 8)


def test_zero_round_optimum():
    assert zero_round_optimum(1) == Fraction(7, 8)
    with pytest.raises(CapExceeded):
        zero_round_optimum(2)


def test_tvd_exact_basic():
    one = {0: Fraction(1)}
    half = {0: Fraction(1, 2), 1: Fraction(1, 2)}
    assert tvd_exact(one, one) == 0
    assert tvd_exact(one, half) == Fraction(1, 2)
    with pytest.raises(InvalidDistribution):
        tvd_exact({0: Fraction(1, 2)}, one)


def test_empirical_tvd_identical_samplers_small():
    def sampler(seed):
        return sample_g0(1, random.Random(seed))[0]

    def proj(g):
        return g.canonical_items()

    d = empirical_tvd(sampler, sampler, proj, trials=800, seed=0)
    assert d < 0.1


def test_degree_excess_projection():
    drawn = sample_gr(MICRO, 1, random.Random(0))
    assert project_degree_excess(drawn) is False
    g, emb, aux, flag = sample_gr_tilde(MICRO, 1, random.Random(0))
    assert project_degree_excess((g, emb, aux, flag)) == flag
    # recompute from the graph itself, dropping the recorded flag
    assert project_degree_excess((g, emb)) == flag


def _recount_degree_excess(g, emb) -> bool:
    """The collision rule from the graph's stored pairs: channels from a
    starred vertex to each non-starred one, flagged at two or more."""
    starred = {layer: set(emb.ids[layer]) for layer in LAYERS}
    counts = {}
    for u, v, _ in g.stored_pairs():
        for a, b in ((u, v), (v, u)):
            if a.index in starred[a.layer] and b.index not in starred[b.layer]:
                counts[b] = counts.get(b, 0) + 1
    return any(c >= 2 for c in counts.values())


def test_degree_excess_projection_recounts_hybrid_draws():
    # a hybrid draw is (graph, embedding, auxiliaries, transcript): its
    # fourth item is no collision flag.  MICRO draws collide, LOOSE ones
    # do not, so both answers are checked
    pi = registry(rounds=1, bandwidth=1)["constant-message"]
    seen = set()
    for p in (MICRO, LOOSE):
        cfg = EliminationConfig(params=p, level=1, cap=3000)
        for which in HYBRIDS:
            for seed in range(5):
                drawn = hybrid_sampler(which, pi, cfg, seed)
                expect = _recount_degree_excess(drawn[0], drawn[1])
                assert project_degree_excess(drawn) == expect, (which, seed)
                seen.add(expect)
    assert seen == {False, True}


def test_degree_excess_recounts_restructured_draws():
    # at n_prev = 3 the starred ids are a list of three per layer; MIXED3
    # draws collide about 2 times in 5, so both answers are checked
    seen = set()
    for seed in range(40):
        drawn = sample_gr_tilde(MIXED3, 1, random.Random(seed))
        expect = _recount_degree_excess(drawn[0], drawn[1])
        assert drawn[3] == project_degree_excess(drawn) == expect, seed
        seen.add(expect)
    assert seen == {False, True}


def test_inner_input_projection_matches_inner_types():
    g, emb = sample_gr(MICRO, 1, random.Random(1))
    proj = project_inner_input((g, emb))
    assert len(proj) == 3
    assert all(t in (0, 1) for t in proj)


def test_inner_transcript_law_sums_to_one():
    f = lambda t: "1" if t == 0 else "0"
    law = exact_inner_transcript_law(MICRO, f)
    assert sum(law.values()) == Fraction(1)
    assert len(law) == 8
    # a constant map collapses the law to a point mass
    const = exact_inner_transcript_law(MICRO, lambda t: "0")
    assert const == {("0", "0", "0"): Fraction(1)}


def test_transcript_projection_consistent_with_law():
    f = lambda t: "1" if t == 0 else "0"
    proj = project_inner_transcript(f)
    law = exact_inner_transcript_law(MICRO, f)
    counts = {}
    for seed in range(400):
        key = proj(sample_gr(MICRO, 1, random.Random(seed)))
        counts[key] = counts.get(key, 0) + 1
    d = sum(abs(counts.get(k, 0) / 400 - float(p)) for k, p in law.items()) / 2
    assert d < 0.1


def test_exact_collision_matches_empirical():
    exact = float(exact_collision_probability(LOOSE, 1))
    rate, (lo, hi) = collision_rate(LOOSE, 1, trials=300, seed=3)
    assert lo - 0.01 <= exact <= hi + 0.01


def test_collision_bound_dominates_exact():
    for p in (MICRO, LOOSE):
        assert float(exact_collision_probability(p, 1)) <= collision_bound(p, 1) + 1e-9


def test_exact_collision_needs_single_inner_vertex():
    with pytest.raises(CapExceeded):
        exact_collision_probability(SMALL2, 1)


def test_collision_rate_refuses_zero_trials():
    with pytest.raises(ValueError, match="trials must be at least 1, got 0"):
        collision_rate(LOOSE, 1, 0, seed=3)


def test_inner_transcript_law_refuses_a_support_above_the_cap(monkeypatch):
    # n0 = 51 has 51**3 * 8 = 1,061,208 outcomes, above the 10**6 cap
    with pytest.raises(CapExceeded, match="enumeration cap"):
        exact_inner_transcript_law(ParamSchedule(n=[51]), str)
    # n0 = 2 has 64 outcomes: a cap of 64 enumerates them, 63 refuses
    monkeypatch.setattr(oracles, "ENUMERATION_CAP", 64)
    assert sum(exact_inner_transcript_law(ParamSchedule(n=[2]),
                                          str).values()) == 1
    monkeypatch.setattr(oracles, "ENUMERATION_CAP", 63)
    with pytest.raises(CapExceeded, match="enumeration cap"):
        exact_inner_transcript_law(ParamSchedule(n=[2]), str)


def test_exact_collision_outside_its_range_and_when_certain():
    # a = alpha + 2 beta + 2 gamma = 5 and k = 2d - (1 + a)
    with pytest.raises(CapExceeded, match="outside the closed form's range"):
        exact_collision_probability(
            ParamSchedule(n=[1, 29], d=[2], alpha=[1], beta=[1], gamma=[1]), 1)
    # d = 6: k = 6 completions each into bulk = 16 - 1 - 10 = 5 free slots
    certain = ParamSchedule(n=[1, 16], d=[6], alpha=[1], beta=[1], gamma=[1])
    assert exact_collision_probability(certain, 1) == 1
