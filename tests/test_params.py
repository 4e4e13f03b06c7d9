import random

import pytest

from congestlab.errors import InfeasibleParams
from congestlab.params import (ParamSchedule, canonical_params,
                               feasibility_check, require_feasible,
                               require_restructured_feasible,
                               restructured_feasibility_check)
from congestlab.sampling import sample_gr_tilde
from schedules import MICRO, SMALL2


def test_canonical_exact_integers():
    p = canonical_params(2, 1)
    assert p.n == [2, 2 ** 34]
    assert p.d == [2 ** 13]
    assert p.alpha == [2 ** 11]
    assert p.beta == [2 ** 5]
    assert p.gamma == [2 ** 6]


def test_canonical_is_feasible_even_when_huge():
    assert feasibility_check(canonical_params(2, 2)) == []


def test_spec_example_schedule_is_feasible():
    p = ParamSchedule(n=[1, 2000], d=[3], alpha=[2], beta=[2], gamma=[2])
    assert feasibility_check(p) == []


def test_micro_schedule_is_feasible():
    assert feasibility_check(MICRO) == []
    require_feasible(MICRO)


def test_sampling_room_violation():
    p = ParamSchedule(n=[2, 50], d=[6], alpha=[1], beta=[1], gamma=[1])
    bad = feasibility_check(p)
    assert any("SamplingRoomViolation" in v for v in bad)


def test_degree_violation():
    p = ParamSchedule(n=[4, 4000], d=[3], alpha=[1], beta=[1], gamma=[1])
    bad = feasibility_check(p)
    assert any("DegreeViolation" in v for v in bad)


def test_public_slot_violation():
    # gamma*n_prev = 3 L slots of one type leave no completion room at d = 3:
    # the recursive family serves this schedule, and the restructured gate
    # refuses it before any draw (gamma*n_prev is a term of its 7 > 3)
    p = ParamSchedule(n=[1, 2000], d=[3], alpha=[1], beta=[1], gamma=[3])
    assert feasibility_check(p) == []
    assert restructured_feasibility_check(p, 1) == [
        "RestructuredSlotViolation level 1: n_prev*(1+alpha) + "
        "beta*(l+1)*n_prev*(2*n_prev-1) + gamma*n_prev = 7 > d = 3"]
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(InfeasibleParams, match="RestructuredSlotViolation"):
        sample_gr_tilde(p, 1, rng)
    assert rng.getstate() == state


@pytest.mark.parametrize("n, d, want", [
    ([1, 29], 6, None),  # MICRO: 1*2 + 1*2*1*1 + 1 = 5 <= 6
    ([1, 29], 5, None),  # 5 <= 5: all fixed slots may carry one type
    ([1, 5000], 6, None),  # LOOSE: 5 <= 6
    ([2, 600], 20, None),  # WIDE2: 2*2 + 1*2*2*3 + 2 = 18 <= 20
    ([2, 2000], 8, "= 18 > d = 8"),  # SMALL2
])
def test_restructured_feasibility(n, d, want):
    p = ParamSchedule(n=n, d=[d], alpha=[1], beta=[1], gamma=[1])
    bad = restructured_feasibility_check(p, 1)
    if want is None:
        assert bad == []
    else:
        assert len(bad) == 1
        assert bad[0].startswith("RestructuredSlotViolation level 1")
        assert want in bad[0]
        # the shared check keeps accepting it: the recursive family fits
        assert feasibility_check(p) == []


def test_length_mismatch():
    p = ParamSchedule(n=[1, 29], d=[6, 6], alpha=[1], beta=[1], gamma=[1])
    bad = feasibility_check(p)
    assert any("LengthMismatch" in v for v in bad)


def test_level_accessor_bounds():
    with pytest.raises(InfeasibleParams):
        MICRO.level(0)
    with pytest.raises(InfeasibleParams):
        MICRO.level(2)
    assert MICRO.level(1)["n_prev"] == 1


def test_json_roundtrip_and_canonical_shortcut():
    p2 = ParamSchedule.from_json(MICRO.to_json())
    assert p2.to_dict() == MICRO.to_dict()
    p3 = ParamSchedule.from_json('{"canonical": {"n0": 2, "r": 1}}')
    assert p3.n == [2, 2 ** 34]
    assert p3 == canonical_params(2, 1)
    # a boolean "canonical", as older schedule files carry, is ignored
    for flag in (True, False):
        assert ParamSchedule.from_dict({**MICRO.to_dict(),
                                        "canonical": flag}) == MICRO
    assert "canonical" not in p3.to_dict()


def test_restructured_gate_runs_the_shared_check_first():
    require_restructured_feasible(MICRO, 1)
    with pytest.raises(InfeasibleParams, match="RestructuredSlotViolation"):
        require_restructured_feasible(SMALL2, 1)
    # both checks fail here (18 > 6 fixed slots); the shared one answers,
    # and the restructured one is not reached
    both = ParamSchedule(n=[2, 50], d=[6], alpha=[1], beta=[1], gamma=[1])
    with pytest.raises(InfeasibleParams) as exc:
        require_restructured_feasible(both, 1)
    assert "SamplingRoomViolation" in str(exc.value)
    assert "RestructuredSlotViolation" not in str(exc.value)


@pytest.mark.parametrize("n0, r, message", [
    (0, 1, "n0 must be >= 1"), (-2, 0, "n0 must be >= 1"),
    (2, -1, "r must be >= 0"),
])
def test_canonical_refuses_n0_below_1_and_r_below_0(n0, r, message):
    with pytest.raises(InfeasibleParams, match=message):
        canonical_params(n0, r)


def test_feasibility_reports_a_layer_size_and_a_count_below_1():
    sizes = ParamSchedule(n=[0, 29], d=[6], alpha=[1], beta=[1], gamma=[1])
    assert feasibility_check(sizes) == [
        "LayerSizeViolation: all n_l must be >= 1"]
    counts = ParamSchedule(n=[1, 29], d=[0], alpha=[1], beta=[1], gamma=[1])
    assert ("PositivityViolation: all d_l must be >= 1"
            in feasibility_check(counts))


@pytest.mark.parametrize("obj", [
    {"n": [1.9, 29.7], "d": [6.5], "alpha": [True], "beta": [1],
     "gamma": [1]},
    {"n": [1, 29.0], "d": [6], "alpha": [1], "beta": [1], "gamma": [1]},
    {"n": [1, 29], "d": [6], "alpha": [True], "beta": [1], "gamma": [1]},
    {"n": ["1", 29], "d": [6], "alpha": [1], "beta": [1], "gamma": [1]},
    {"canonical": {"n0": 2.0, "r": 1}},
    {"canonical": {"n0": 2, "r": True}},
], ids=["floats", "whole-float", "bool", "string", "canonical-n0",
        "canonical-r"])
def test_from_dict_accepts_only_json_integers(obj):
    with pytest.raises(ValueError, match="must be an integer"):
        ParamSchedule.from_dict(obj)
