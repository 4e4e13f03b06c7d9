import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congestlab import infotheory
from congestlab.errors import (InvalidCoordinate, InvalidDistribution,
                               PremiseViolated)
from congestlab.infotheory import (FiniteDistribution, JointTable,
                                   cond_entropy, cond_mutual_info, entropy,
                                   kl, mi_kl_identity_check,
                                   monotonicity_checks, mutual_info,
                                   overconditioning_check, pinsker_check,
                                   random_distribution, random_joint,
                                   table_with_a_indep_d_given_bc,
                                   table_with_a_indep_d_given_c, tvd,
                                   tvd_chain_bound_check, _verify_ci)

RNG = random.Random(42)


def test_distribution_must_sum_to_one():
    with pytest.raises(InvalidDistribution):
        FiniteDistribution({0: 0.5, 1: 0.4})
    with pytest.raises(InvalidDistribution):
        FiniteDistribution({0: 1.5, 1: -0.5})


def test_entropy_of_fair_coin_is_one_bit():
    assert entropy(FiniteDistribution({0: 0.5, 1: 0.5})) == pytest.approx(1.0)
    assert entropy(FiniteDistribution({0: 1.0})) == 0.0


def test_chain_rule_exact():
    for _ in range(50):
        j = random_joint(["A", "B"], [3, 4], RNG)
        lhs = entropy(j.marginal(["A", "B"]))
        rhs = entropy(j.marginal(["A"])) + cond_entropy(j, ["B"], ["A"])
        assert abs(lhs - rhs) <= 1e-9


def test_mutual_info_symmetric_and_nonnegative():
    for _ in range(30):
        j = random_joint(["A", "B"], [2, 3], RNG)
        iab = mutual_info(j, ["A"], ["B"])
        iba = mutual_info(j, ["B"], ["A"])
        assert abs(iab - iba) <= 1e-9
        assert iab >= -1e-12


def test_independent_coordinates_have_zero_mi():
    table = {(a, b): 0.25 for a in range(2) for b in range(2)}
    j = JointTable(["A", "B"], table)
    assert mutual_info(j, ["A"], ["B"]) == pytest.approx(0.0, abs=1e-12)


def test_kl_support_violation_is_infinite():
    p = FiniteDistribution({0: 1.0})
    q = FiniteDistribution({1: 1.0})
    assert kl(p, q) == math.inf
    assert tvd(p, q) == pytest.approx(1.0)
    # an outcome that p holds at probability 0 is skipped, so q may lack it
    p = FiniteDistribution({0: 0.0, 1: 0.25, 2: 0.75})
    q = FiniteDistribution({1: 0.5, 2: 0.5})
    assert kl(p, q) == 0.25 * math.log2(0.5) + 0.75 * math.log2(1.5)


def test_invalid_coordinate_raises():
    j = random_joint(["A", "B"], [2, 2], RNG)
    with pytest.raises(InvalidCoordinate):
        j.marginal(["Z"])


def test_conditional_on_zero_event_raises():
    j = JointTable(["A", "B"], {(0, 0): 1.0})
    with pytest.raises(InvalidDistribution):
        j.conditional(["A"], ["B"], (1,))


def test_conditional_is_the_grouped_law_of_its_value():
    # its own rng, so the tests drawing from RNG see the same tables
    j = random_joint(["A", "B", "C"], [2, 3, 2], random.Random(0))
    groups = j.conditionals(["A"], ["B", "C"])
    assert len(groups) == 6
    for gval, (_, law) in groups.items():
        assert j.conditional(["A"], ["B", "C"], list(gval)) is law
        ref = ref_conditional(j, ["A"], ["B", "C"], gval)
        assert law.probs == pytest.approx(ref.probs)


def test_mi_kl_identity():
    for _ in range(30):
        j = random_joint(["A", "B", "C"], [2, 2, 2], RNG)
        assert mi_kl_identity_check(j, ["A"], ["B"], ["C"]) <= 1e-9


def test_pinsker():
    for _ in range(100):
        p = random_distribution(5, RNG)
        q = random_distribution(5, RNG)
        d, bound, ok = pinsker_check(p, q)
        assert ok
        assert d <= bound + 1e-12


def test_tvd_chain_bound():
    for _ in range(30):
        mu = random_joint(["X", "Y"], [2, 3], RNG)
        nu = random_joint(["X", "Y"], [2, 3], RNG)
        lhs, rhs, ok = tvd_chain_bound_check(mu, nu)
        assert ok and lhs <= rhs + 1e-9


def test_overconditioning():
    for _ in range(30):
        xz = random_joint(["X", "Z"], [3, 2], RNG)
        yz = random_joint(["Y", "Z"], [3, 2], RNG)
        lhs, joint, _, ok = overconditioning_check(xz, yz)
        assert ok and lhs <= joint + 1e-9


def test_overconditioning_equality_with_shared_z():
    # build two tables with identical Z marginal to exercise the averaged form
    z = [0.3, 0.7]
    xz = JointTable(["X", "Z"], {(x, c): z[c] * p
                                 for c, ps in enumerate(([0.2, 0.8],
                                                         [0.6, 0.4]))
                                 for x, p in enumerate(ps)})
    yz = JointTable(["Y", "Z"], {(y, c): z[c] * p
                                 for c, ps in enumerate(([0.5, 0.5],
                                                         [0.1, 0.9]))
                                 for y, p in enumerate(ps)})
    lhs, joint, averaged, ok = overconditioning_check(xz, yz)
    assert ok
    assert averaged == pytest.approx(joint, abs=1e-9)


def test_factored_tables_satisfy_their_premises():
    for _ in range(10):
        j2 = table_with_a_indep_d_given_c([2, 2, 2, 2], RNG)
        _verify_ci(j2, ["A"], ["D"], ["C"])
        j3 = table_with_a_indep_d_given_bc([2, 2, 2, 2], RNG)
        _verify_ci(j3, ["A"], ["D"], ["B", "C"])


def test_verify_ci_rejects_dependence():
    table = {(0, 0): 0.5, (1, 1): 0.5}
    j = JointTable(["A", "D"], table)
    with pytest.raises(PremiseViolated):
        _verify_ci(j, ["A"], ["D"], [])


def test_monotonicity_suite_passes():
    report = monotonicity_checks(random.Random(0), tables=30)
    assert all(report.values())


def test_cmi_chain_rule():
    # I(A; B,C) = I(A; B) + I(A; C | B)
    for _ in range(30):
        j = random_joint(["A", "B", "C"], [2, 2, 2], RNG)
        lhs = mutual_info(j, ["A"], ["B", "C"])
        rhs = (mutual_info(j, ["A"], ["B"])
               + cond_mutual_info(j, ["A"], ["C"], ["B"]))
        assert abs(lhs - rhs) <= 1e-9


def test_tvd_chain_bound_counts_full_mass_where_nu_misses_a_prefix():
    # nu never shows X = 1, which mu does with mass 1/2, so that slice adds
    # 1/2 whole; the X = 0 slice adds 1/2 * tvd((3/4, 1/4), (1/2, 1/2)) and
    # the X marginals differ by 1/2: rhs = 1/2 + 1/8 + 1/2
    mu = JointTable(["X", "Y"], {(0, 0): 0.375, (0, 1): 0.125, (1, 0): 0.5})
    nu = JointTable(["X", "Y"], {(0, 0): 0.5, (0, 1): 0.5})
    assert tvd_chain_bound_check(mu, nu) == (0.5, 1.125, True)


# -- reference measures that condition slice by slice: one table scan per
# conditioning value, summing each slice in table order


def ref_conditional(j, target, given, given_value):
    t_axes = j._axes(target)
    g_axes = j._axes(given)
    num, den = {}, 0.0
    for key, p in j.table.items():
        if tuple(key[a] for a in g_axes) != tuple(given_value):
            continue
        den += p
        sub = tuple(key[a] for a in t_axes)
        num[sub] = num.get(sub, 0.0) + p
    if den <= 0:
        raise InvalidDistribution("conditioning event has probability 0")
    return FiniteDistribution({k: v / den for k, v in num.items()})


def ref_cond_entropy(j, target, given):
    out = 0.0
    for gval, gp in j.marginal(given).probs.items():
        if gp > 0:
            out += gp * entropy(ref_conditional(j, target, given, gval))
    return out


def ref_cond_mutual_info(j, a, b, c):
    return ref_cond_entropy(j, a, c) - ref_cond_entropy(j, a, b + c)


def ref_mi_kl_identity_check(j, a, b, c):
    lhs = ref_cond_mutual_info(j, a, b, c)
    rhs = 0.0
    for val, p in j.marginal(b + c).probs.items():
        if p <= 0:
            continue
        rhs += p * kl(ref_conditional(j, a, b + c, val),
                      ref_conditional(j, a, c, val[len(b):]))
    return abs(lhs - rhs)


def ref_tvd_chain_bound_check(mu, nu):
    lhs = tvd(mu.marginal(mu.coords), nu.marginal(nu.coords))
    rhs = 0.0
    for i, name in enumerate(mu.coords):
        prefix = mu.coords[:i]
        if not prefix:
            rhs += tvd(mu.marginal([name]), nu.marginal([name]))
            continue
        for pval, pp in mu.marginal(prefix).probs.items():
            if pp <= 0:
                continue
            try:
                nu_cond = ref_conditional(nu, [name], prefix, pval)
            except InvalidDistribution:
                rhs += pp
                continue
            rhs += pp * tvd(ref_conditional(mu, [name], prefix, pval),
                            nu_cond)
    return lhs, rhs, lhs <= rhs + 1e-9


def ref_overconditioning_check(xz, yz):
    lhs = tvd(xz.marginal([xz.coords[0]]), yz.marginal([yz.coords[0]]))
    joint = tvd(xz.marginal(xz.coords), yz.marginal(yz.coords))
    zname = [xz.coords[1]]
    zx, zy = xz.marginal(zname), yz.marginal(zname)
    averaged = None
    if tvd(zx, zy) <= 1e-12:
        averaged = 0.0
        for zval, zp in zx.probs.items():
            if zp <= 0:
                continue
            averaged += zp * tvd(
                ref_conditional(xz, [xz.coords[0]], zname, zval),
                ref_conditional(yz, [yz.coords[0]], zname, zval))
    holds = lhs <= joint + 1e-9
    if averaged is not None:
        holds = holds and abs(joint - averaged) <= 1e-9
    return lhs, joint, averaged, holds


def ref_verify_ci(j, a, d, given):
    for gval, gp in j.marginal(given).probs.items():
        if gp <= 0:
            continue
        pa = ref_conditional(j, a, given, gval)
        pd = ref_conditional(j, d, given, gval)
        pad = ref_conditional(j, a + d, given, gval)
        for av in pa.probs:
            for dv in pd.probs:
                if abs(pad[av + dv] - pa[av] * pd[dv]) > 1e-9:
                    raise PremiseViolated(
                        f"conditional independence fails at {gval}")


def ci_outcome(check, *args):
    try:
        check(*args)
    except PremiseViolated as exc:
        return str(exc)
    return None


@st.composite
def table_cases(draw):
    """Two tables over the same 1-4 coordinates, a split of the coordinates
    into roles A, B, C and unused, and for two or more coordinates an (X, Z)
    pair of tables that share their Z marginal when they can.

    Coordinate values are spaced integers, rows come in a drawn order, and
    some rows carry probability zero (the table drops them)."""
    k = draw(st.integers(1, 4))
    coords = ["P", "Q", "R", "S"][:k]
    values = [sorted(draw(st.sets(st.integers(-5, 5).map(lambda x: 7 * x + 3),
                                  min_size=1, max_size=3)))
              for _ in coords]
    keys = list(itertools.product(*values))

    def table():
        weights = draw(st.lists(st.sampled_from([0.0, 0.0, 0.1, 0.3, 0.55,
                                                 0.7, 1.0]),
                                min_size=len(keys), max_size=len(keys)))
        if not any(weights):
            weights[0] = 1.0
        total = sum(weights)
        order = draw(st.permutations(range(len(keys))))
        return JointTable(coords, {keys[i]: weights[i] / total
                                   for i in order})

    mu, nu = table(), table()
    roles = draw(st.lists(st.sampled_from("ABCx"), min_size=k, max_size=k))
    a, b, c = ([n for n, r in zip(coords, roles) if r == role]
               for role in "ABC")
    pair = None
    if k >= 2:
        xz = mu.marginal(coords[:2]).probs
        yz = nu.marginal(coords[:2]).probs
        pz, qz = mu.marginal(coords[1:2]).probs, nu.marginal(coords[1:2]).probs
        if set(pz) <= set(qz):
            yz = {(y, z): pz[(z,)] * p / qz[(z,)]
                  for (y, z), p in yz.items() if (z,) in pz}
        pair = JointTable(["X", "Z"], xz), JointTable(["Y", "Z"], yz)
    return mu, nu, a, b, c, pair


@settings(max_examples=300, deadline=None)
@given(table_cases())
def test_one_pass_measures_equal_the_per_slice_reference(case):
    mu, nu, a, b, c, pair = case
    assert cond_entropy(mu, a, b + c) == ref_cond_entropy(mu, a, b + c)
    assert cond_entropy(nu, b, a) == ref_cond_entropy(nu, b, a)
    assert cond_mutual_info(mu, a, b, c) == ref_cond_mutual_info(mu, a, b, c)
    assert (mi_kl_identity_check(mu, a, b, c)
            == ref_mi_kl_identity_check(mu, a, b, c))
    assert tvd_chain_bound_check(mu, nu) == ref_tvd_chain_bound_check(mu, nu)
    assert (ci_outcome(_verify_ci, mu, a, b, c)
            == ci_outcome(ref_verify_ci, mu, a, b, c))
    if pair is not None:
        assert (overconditioning_check(*pair)
                == ref_overconditioning_check(*pair))


# -- per-table memo: each table groups its rows once per distinct question


def fresh(j):
    """A never-queried copy of ``j``, so a reference reads no memo."""
    return JointTable(j.coords, dict(j.table))


def ordered(groups):
    return [(g, p, list(law.probs.items())) for g, (p, law) in groups.items()]


@settings(max_examples=200, deadline=None)
@given(table_cases())
def test_memoized_measures_equal_those_of_a_fresh_table(case):
    mu, nu, a, b, c, pair = case
    tables = (mu, nu) + (pair or ())
    measures = [
        lambda m, n, *_: list(m.marginal(a + c).probs.items()),
        lambda m, n, *_: ordered(m.conditionals(a, b + c)),
        lambda m, n, *_: ordered(m.conditionals(a, [])),
        lambda m, n, *_: entropy(m.marginal(b)),
        lambda m, n, *_: cond_entropy(m, a, b + c),
        lambda m, n, *_: cond_entropy(n, b, a),
        lambda m, n, *_: mutual_info(m, a, b),
        lambda m, n, *_: cond_mutual_info(m, a, b, c),
        lambda m, n, *_: mi_kl_identity_check(m, a, b, c),
        lambda m, n, *_: pinsker_check(m.marginal(m.coords),
                                       n.marginal(n.coords)),
        lambda m, n, *_: tvd_chain_bound_check(m, n),
        lambda m, n, *_: ci_outcome(_verify_ci, m, a, b, c),
    ]
    if pair is not None:
        measures.append(lambda m, n, xz, yz: overconditioning_check(xz, yz))
    # each order starts from an empty memo and is run twice, so the first
    # pass mixes misses with hits on questions asked earlier in it and the
    # second pass hits on every question
    for order in (measures, measures[::-1]):
        memoized = [fresh(t) for t in tables]
        for _ in range(2):
            for measure in order:
                assert (measure(*memoized)
                        == measure(*(fresh(t) for t in tables)))


def suite_op(rng):
    """The calls of one measure-suite op of perfbench's verify-info
    workload, in its order, on 6x6x6 tables."""
    j, k = (random_joint(["A", "B", "C"], [6, 6, 6], rng) for _ in range(2))
    xz, yz = (random_joint(["X", "Z"], [6, 6], rng) for _ in range(2))
    entropy(j.marginal(["A", "B", "C"]))
    entropy(j.marginal(["A"]))
    cond_entropy(j, ["B"], ["A"])
    cond_entropy(j, ["C"], ["A", "B"])
    cond_mutual_info(j, ["A"], ["B"], ["C"])
    cond_entropy(j, ["A"], ["C"])
    mi_kl_identity_check(j, ["A"], ["B"], ["C"])
    pinsker_check(j.marginal(["A", "B"]), k.marginal(["A", "B"]))
    tvd_chain_bound_check(j, k)
    overconditioning_check(xz, yz)


def test_a_suite_op_groups_each_question_once(monkeypatch):
    passes = {"_marginal": 0, "_conditionals": 0}
    for name in passes:
        def counted(self, *axes, _name=name, _run=getattr(JointTable, name)):
            passes[_name] += 1
            return _run(self, *axes)
        monkeypatch.setattr(JointTable, name, counted)
    # 15 conditionals calls ask 8 questions, 12 marginal calls ask 10
    suite_op(random.Random(3))
    assert passes == {"_marginal": 10, "_conditionals": 8}


def test_a_suite_op_computes_each_laws_entropy_once(monkeypatch):
    laws = []
    run = infotheory._entropy
    monkeypatch.setattr(infotheory, "_entropy",
                        lambda probs: laws.append(probs) or run(probs))
    # H(ABC) and H(A), then the laws of B|A (6), C|AB (36), A|C (6) and
    # A|BC (36); H(A|C) asked again and I(A;B|C) asked again in the KL
    # identity would add 48 more without the memo
    suite_op(random.Random(3))
    assert len(laws) == 86
    assert len({id(probs) for probs in laws}) == 86


def test_projections_onto_no_axis_and_one_axis():
    j = JointTable(["A", "B"], {(0, 0): 0.25, (1, 0): 0.25, (1, 1): 0.5})
    assert j.marginal([]).probs == {(): 1.0}
    assert list(j.marginal(["B"]).probs) == [(0,), (1,)]
    den, law = j.conditionals(["A"], [])[()]
    assert den == 1.0 and law.probs == {(0,): 0.25, (1,): 0.75}
    assert list(j.conditionals(["A"], ["B"])) == [(0,), (1,)]
    assert cond_entropy(j, ["A"], []) == entropy(j.marginal(["A"]))


def test_table_is_read_only():
    j = JointTable(["A"], {(0,): 0.5, (1,): 0.5})
    with pytest.raises(TypeError):
        j.table[(0,)] = 1.0
    with pytest.raises(TypeError):
        del j.table[(1,)]


def test_marginal_over_all_axes_in_order_is_the_stored_rows():
    rng = random.Random(11)
    for coords, sizes in ((["A"], [4]), (["A", "B", "C"], [2, 3, 2])):
        j = random_joint(coords, sizes, rng)
        law = j.marginal(coords)
        assert type(law.probs) is dict
        assert list(law.probs.items()) == list(j.table.items())
    swapped = j.marginal(["C", "B", "A"]).probs
    assert swapped == {key[::-1]: p for key, p in j.table.items()}


# the values that make one flag of one table's checks read False, in call
# order: I(A;B|C) of j against H(B); H(A|BC) against H(A|B); then I(A;B|C)
# against I(A;B|CD) for j2, which must not drop, and for j3, which must
# not rise
FAILING_CALLS = {  # flag: (cond_mutual_info values, cond_entropy values)
    "cmi_le_entropy": ([10.0, 0.0, 0.0, 0.0, 0.0], [0.0, 0.0]),
    "conditioning_reduces_entropy": ([0.0] * 5, [1.0, 0.0]),
    "extra_conditioning_raises_mi": ([0.0, 1.0, 0.0, 0.0, 0.0], [0.0, 0.0]),
    "extra_conditioning_lowers_mi": ([0.0, 0.0, 0.0, 0.0, 1.0], [0.0, 0.0]),
}


@pytest.mark.parametrize("flag", FAILING_CALLS)
def test_monotonicity_checks_can_report_each_failure(monkeypatch, flag):
    cmi, ce = map(iter, FAILING_CALLS[flag])
    monkeypatch.setattr(infotheory, "cond_mutual_info", lambda *a: next(cmi))
    monkeypatch.setattr(infotheory, "cond_entropy", lambda *a: next(ce))
    report = monotonicity_checks(random.Random(0), tables=1)
    assert [name for name, ok in report.items() if not ok] == [flag]


def test_joint_table_validates_and_stores_rows_as_finite_distribution_does():
    with pytest.raises(InvalidCoordinate, match=r"entry \(0,\) arity mismatch"):
        JointTable(["A", "B"], {(0, 0): 0.5, (0,): 0.5})
    with pytest.raises(InvalidDistribution,
                       match=r"negative probability at \(1, 0\)"):
        JointTable(["A", "B"], {(0, 0): 1.5, (1, 0): -0.5})
    with pytest.raises(InvalidDistribution, match="probabilities sum to 0.9"):
        JointTable(["A", "B"], {(0, 0): 0.5, (1, 0): 0.4})
    # a table with two faults names the first in row order
    with pytest.raises(InvalidCoordinate, match=r"entry \(0,\) arity"):
        JointTable(["A", "B"], {(0,): 1.5, (1, 0): -0.5})
    with pytest.raises(InvalidDistribution,
                       match=r"negative probability at \(1, 0\)"):
        JointTable(["A", "B"], {(1, 0): -0.5, (0,): 1.5})
    with pytest.raises(InvalidDistribution, match=r"negative probability at 1"):
        FiniteDistribution({0: 0.5, 1: -0.5, 2: 2.0})
    with pytest.raises(InvalidDistribution, match=r"sum to 0\.0$"):
        FiniteDistribution({})
    j = JointTable(["A", "B"], {(0, 0): 0.0, (1, 1): 1, (0, 1): -1e-13})
    assert dict(j.table) == {(1, 1): 1.0}
    assert type(j.table[(1, 1)]) is float
    law = FiniteDistribution({0: -1e-13, 1: 1.0})
    assert law.probs == {0: 0.0, 1: 1.0} and type(law.probs[0]) is float
    law = FiniteDistribution({"x": 1})
    assert law.probs == {"x": 1.0} and type(law.probs["x"]) is float


@pytest.mark.parametrize("probs, at", [
    ({0: 1.0, 1: math.nan}, "1"),
    ({0: math.nan}, "0"),
    ({0: math.nan, 1: 1.0, 2: -0.5}, "0"),
], ids=["after-a-full-row", "alone", "before-a-negative-row"])
def test_a_nan_probability_is_refused(probs, at):
    # a NaN fails the builtin sum; the walk names it, and never lets it pass
    with pytest.raises(InvalidDistribution,
                       match=rf"probability at {at} is not a number"):
        FiniteDistribution(probs)
    with pytest.raises(InvalidDistribution,
                       match=rf"probability at \({at},\) is not a number"):
        JointTable(["A"], {(x,): p for x, p in probs.items()})


def test_tvd_chain_bound_refuses_tables_whose_coordinates_differ():
    mu = JointTable(["A", "B"], {(0, 0): 0.5, (1, 1): 0.5})
    nu = JointTable(["B", "A"], {(0, 0): 0.5, (1, 1): 0.5})
    with pytest.raises(InvalidCoordinate, match="coordinate structures differ"):
        tvd_chain_bound_check(mu, nu)


def test_overconditioning_refuses_a_z_value_the_other_table_lacks():
    # the Z marginals differ by 1e-13, inside IDENTITY_TOL, so the averaged
    # form runs, and z = 1 has no group in yz
    xz = JointTable(["X", "Z"], {(0, 0): 1 - 1e-13, (0, 1): 1e-13})
    yz = JointTable(["Y", "Z"], {(0, 0): 1.0})
    with pytest.raises(InvalidDistribution,
                       match="conditioning event has probability 0"):
        overconditioning_check(xz, yz)
