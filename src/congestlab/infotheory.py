"""Exact Shannon measures over explicit finite distributions.

All logarithms are base 2, so every quantity is in bits and compares
directly against per-message bandwidth.  Zero-probability outcomes follow
the 0 * log(1/0) = 0 convention; a KL divergence with a support violation
is reported as math.inf rather than raised.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from types import MappingProxyType

from .errors import InvalidCoordinate, InvalidDistribution, PremiseViolated

IDENTITY_TOL = 1e-12
PROPERTY_TOL = 1e-9


def _checked(probs, arity=None) -> bool:
    """Raise unless every p is at least -IDENTITY_TOL, the ps sum to 1 and,
    given ``arity``, every key has that many coordinates: the one rule of
    every table here.  Builtin passes (``min``, ``sum``, key lengths) give
    the one verdict, and a NaN fails the sum; a failed table is walked only
    to name its first arity mismatch, NaN or negative value, else the sum.
    Returns whether every p is positive."""
    ps = probs.values()
    low, total = min(ps, default=0.0), sum(ps, 0.0)
    if (low >= -IDENTITY_TOL and abs(total - 1.0) <= 1e-9
            and (arity is None or set(map(len, probs)) <= {arity})):
        return low > 0
    for x, p in probs.items():
        if arity is not None and len(x) != arity:
            raise InvalidCoordinate(f"entry {x!r} arity mismatch")
        if p != p:
            raise InvalidDistribution(f"probability at {x!r} is not a number")
        if p < -IDENTITY_TOL:
            raise InvalidDistribution(f"negative probability at {x!r}")
    raise InvalidDistribution(f"probabilities sum to {total}")


class FiniteDistribution:
    """Explicit probability table over a finite outcome set."""

    _entropy = None  # set by entropy(): a law is read-only once built

    def __init__(self, probs: dict):
        if _checked(probs):
            self.probs = dict(zip(probs, map(float, probs.values())))
        else:
            self.probs = {x: max(0.0, float(p)) for x, p in probs.items()}

    def __getitem__(self, x):
        return self.probs.get(x, 0.0)


class JointTable:
    """Joint probability table over named finite coordinates.

    ``table`` is read-only, so a table groups its rows at most once per
    distinct question: ``marginal`` and ``conditionals`` keep each result
    for the life of the table and hand the same object to every later
    caller, whichever measure asks.  Returned laws and groupings are
    therefore shared and must be treated as read-only.
    """

    def __init__(self, coords: list, table: dict):
        self.coords = list(coords)
        if _checked(table, len(self.coords)):
            rows = dict(zip(table, map(float, table.values())))
        else:
            rows = {key: float(p) for key, p in table.items() if p > 0}
        self.table = MappingProxyType(rows)
        # resolved axes -> result; keyed after _axes has checked the names
        self._memo = {}

    def _axes(self, names) -> tuple:
        try:
            return tuple(self.coords.index(n) for n in names)
        except ValueError as exc:
            raise InvalidCoordinate(str(exc)) from None

    def _project(self, axes: tuple):
        """Every row key projected onto ``axes``, in table order, as tuples."""
        if not axes:
            return itertools.repeat((), len(self.table))
        if len(axes) == 1:
            # itemgetter of one index yields the bare value; zip wraps it
            return zip(map(operator.itemgetter(axes[0]), self.table))
        return map(operator.itemgetter(*axes), self.table)

    def marginal(self, names) -> FiniteDistribution:
        """The law of the named coordinates, summed in table order."""
        axes = self._axes(names)
        memo_key = ("marginal", axes)
        law = self._memo.get(memo_key)
        if law is None:
            law = self._memo[memo_key] = self._marginal(axes)
        return law

    def _marginal(self, axes: tuple) -> FiniteDistribution:
        if axes == tuple(range(len(self.coords))):
            # every key is its own projection, and 0.0 + p == p
            return FiniteDistribution(self.table)
        out = {}
        for sub, p in zip(self._project(axes), self.table.values()):
            out[sub] = out.get(sub, 0.0) + p
        return FiniteDistribution(out)

    def conditionals(self, target, given) -> dict:
        """Every conditional law of ``target`` given ``given``, in one pass.

        Returns ``{given value: (probability, law)}`` with the given values
        in first-occurrence order, which is the order of
        ``marginal(given)``.  The probability is the group total, equal bit
        for bit to the ``marginal(given)`` entry; it and the law's
        numerators are summed in table order.
        """
        t_axes, g_axes = self._axes(target), self._axes(given)
        memo_key = ("conditionals", t_axes, g_axes)
        groups = self._memo.get(memo_key)
        if groups is None:
            groups = self._memo[memo_key] = self._conditionals(t_axes, g_axes)
        return groups

    def _conditionals(self, t_axes: tuple, g_axes: tuple) -> dict:
        groups = {}
        for gval, sub, p in zip(self._project(g_axes), self._project(t_axes),
                                self.table.values()):
            group = groups.get(gval)
            if group is None:
                group = groups[gval] = [0.0, {}]
            group[0] += p
            num = group[1]
            num[sub] = num.get(sub, 0.0) + p
        # every stored row has p > 0, so every group's denominator is positive
        return {g: (den, FiniteDistribution({k: v / den
                                             for k, v in num.items()}))
                for g, (den, num) in groups.items()}

    def conditional(self, target, given, given_value) -> FiniteDistribution:
        """The law of ``target`` given ``given`` == ``given_value``."""
        group = self.conditionals(target, given).get(tuple(given_value))
        if group is None:
            raise InvalidDistribution("conditioning event has probability 0")
        return group[1]


def entropy(d: FiniteDistribution) -> float:
    """H(d) in bits, computed once per law."""
    if d._entropy is None:
        d._entropy = _entropy(d.probs)
    return d._entropy


def _entropy(probs: dict) -> float:
    return sum(p * math.log2(1 / p) for p in probs.values() if p > 0)


def cond_entropy(j: JointTable, target, given) -> float:
    out = 0.0
    for gp, law in j.conditionals(target, given).values():
        out += gp * entropy(law)
    return out


def mutual_info(j: JointTable, a, b) -> float:
    return entropy(j.marginal(a)) - cond_entropy(j, a, b)


def cond_mutual_info(j: JointTable, a, b, c) -> float:
    return cond_entropy(j, a, c) - cond_entropy(j, a, list(b) + list(c))


def kl(p: FiniteDistribution, q: FiniteDistribution) -> float:
    out, q_get = 0.0, q.probs.get
    for x, px in p.probs.items():
        if px <= 0:
            continue
        qx = q_get(x, 0.0)
        if qx <= 0:
            return math.inf
        out += px * math.log2(px / qx)
    return out


def tvd(p: FiniteDistribution, q: FiniteDistribution) -> float:
    keys = set(p.probs) | set(q.probs)
    p_get, q_get = p.probs.get, q.probs.get
    return 0.5 * sum(abs(p_get(x, 0.0) - q_get(x, 0.0)) for x in keys)


def pinsker_check(p: FiniteDistribution, q: FiniteDistribution):
    d = tvd(p, q)
    bound = math.sqrt(kl(p, q) / 2)  # inf when q misses p's support
    return d, bound, d <= bound + IDENTITY_TOL


def mi_kl_identity_check(j: JointTable, a, b, c) -> float:
    """Gap of I(A;B|C) = E_{B,C} KL(A|B,C || A|C)."""
    lhs = cond_mutual_info(j, a, b, c)
    rhs = 0.0
    bc = list(b) + list(c)
    a_c = j.conditionals(a, c)
    for val, (p, law) in j.conditionals(a, bc).items():
        rhs += p * kl(law, a_c[val[len(b):]][1])
    return abs(lhs - rhs)


def tvd_chain_bound_check(mu: JointTable, nu: JointTable):
    """Chain bound: ||mu - nu|| <= sum_i E_{prefix~mu} ||mu_i|pre - nu_i|pre||."""
    if mu.coords != nu.coords:
        raise InvalidCoordinate("coordinate structures differ")
    lhs = tvd(mu.marginal(mu.coords), nu.marginal(nu.coords))
    rhs = 0.0
    for i, name in enumerate(mu.coords):
        prefix = mu.coords[:i]
        if not prefix:
            rhs += tvd(mu.marginal([name]), nu.marginal([name]))
            continue
        nu_laws = nu.conditionals([name], prefix)
        for pval, (pp, law) in mu.conditionals([name], prefix).items():
            if pval not in nu_laws:
                # nu gives the observed prefix probability 0: the slice
                # contributes its full mass
                rhs += pp
                continue
            rhs += pp * tvd(law, nu_laws[pval][1])
    return lhs, rhs, lhs <= rhs + PROPERTY_TOL


def overconditioning_check(xz: JointTable, yz: JointTable):
    """||X - Y|| <= ||XZ - YZ|| with the conditional-average equality."""
    lhs = tvd(xz.marginal([xz.coords[0]]), yz.marginal([yz.coords[0]]))
    joint = tvd(xz.marginal(xz.coords), yz.marginal(yz.coords))
    # the averaged form requires both tables to share the Z marginal
    zname = [xz.coords[1]]
    x_groups = xz.conditionals([xz.coords[0]], zname)
    y_groups = yz.conditionals([yz.coords[0]], zname)
    zx, zy = (FiniteDistribution({z: p for z, (p, _) in groups.items()})
              for groups in (x_groups, y_groups))
    averaged = None
    if tvd(zx, zy) <= IDENTITY_TOL:
        averaged = 0.0
        for zval, (zp, law) in x_groups.items():
            if zval not in y_groups:
                raise InvalidDistribution(
                    "conditioning event has probability 0")
            averaged += zp * tvd(law, y_groups[zval][1])
    holds = lhs <= joint + PROPERTY_TOL
    if averaged is not None:
        holds = holds and abs(joint - averaged) <= PROPERTY_TOL
    return lhs, joint, averaged, holds


# -- randomized property tables -------------------------------------------


def random_joint(coords, sizes, rng: random.Random) -> JointTable:
    keys = list(itertools.product(*[range(s) for s in sizes]))
    weights = [rng.random() for _ in keys]
    total = sum(weights)
    return JointTable(coords, {k: w / total for k, w in zip(keys, weights)})


def random_distribution(size, rng: random.Random) -> FiniteDistribution:
    weights = [rng.random() for _ in range(size)]
    total = sum(weights)
    return FiniteDistribution({i: w / total for i, w in enumerate(weights)})


def _normalized(weights):
    total = sum(weights)
    return [w / total for w in weights]


def table_with_a_indep_d_given_c(sizes, rng: random.Random) -> JointTable:
    """A four-coordinate table factored as p(c) p(a|c) p(d|c) p(b|a,c,d)."""
    sa, sb, sc, sd = sizes
    pc = _normalized([rng.random() for _ in range(sc)])
    pa_c = {c: _normalized([rng.random() for _ in range(sa)]) for c in range(sc)}
    pd_c = {c: _normalized([rng.random() for _ in range(sd)]) for c in range(sc)}
    pb = {
        (a, c, d): _normalized([rng.random() for _ in range(sb)])
        for a in range(sa) for c in range(sc) for d in range(sd)
    }
    table = {}
    for a in range(sa):
        for b in range(sb):
            for c in range(sc):
                for d in range(sd):
                    table[(a, b, c, d)] = (
                        pc[c] * pa_c[c][a] * pd_c[c][d] * pb[(a, c, d)][b]
                    )
    return JointTable(["A", "B", "C", "D"], table)


def table_with_a_indep_d_given_bc(sizes, rng: random.Random) -> JointTable:
    """A four-coordinate table factored as p(b,c) p(a|b,c) p(d|b,c)."""
    sa, sb, sc, sd = sizes
    pbc = {}
    for b in range(sb):
        for c in range(sc):
            pbc[(b, c)] = rng.random()
    total = sum(pbc.values())
    pbc = {k: v / total for k, v in pbc.items()}
    pa = {k: _normalized([rng.random() for _ in range(sa)]) for k in pbc}
    pd = {k: _normalized([rng.random() for _ in range(sd)]) for k in pbc}
    table = {}
    for (b, c), p in pbc.items():
        for a in range(sa):
            for d in range(sd):
                table[(a, b, c, d)] = p * pa[(b, c)][a] * pd[(b, c)][d]
    return JointTable(["A", "B", "C", "D"], table)


def _verify_ci(j: JointTable, a, d, given):
    """Check A independent of D given the listed coordinates."""
    pd_laws = j.conditionals(d, given)
    pad_laws = j.conditionals(list(a) + list(d), given)
    for gval, (_, pa) in j.conditionals(a, given).items():
        pd, pad = pd_laws[gval][1], pad_laws[gval][1]
        for av in pa.probs:
            for dv in pd.probs:
                expect = pa[av] * pd[dv]
                if abs(pad[av + dv] - expect) > 1e-9:
                    raise PremiseViolated(
                        f"conditional independence fails at {gval}"
                    )


def monotonicity_checks(rng: random.Random, tables: int = 50) -> dict:
    """Inequality suite on randomized tables, premises enforced by
    construction and re-verified numerically."""
    report = {"cmi_le_entropy": True, "conditioning_reduces_entropy": True,
              "extra_conditioning_raises_mi": True,
              "extra_conditioning_lowers_mi": True}
    for _ in range(tables):
        j = random_joint(["A", "B", "C"], [2, 3, 2], rng)
        if cond_mutual_info(j, ["A"], ["B"], ["C"]) > entropy(j.marginal(["B"])) + PROPERTY_TOL:
            report["cmi_le_entropy"] = False
        if cond_entropy(j, ["A"], ["B", "C"]) > cond_entropy(j, ["A"], ["B"]) + PROPERTY_TOL:
            report["conditioning_reduces_entropy"] = False
        j2 = table_with_a_indep_d_given_c([2, 2, 2, 2], rng)
        _verify_ci(j2, ["A"], ["D"], ["C"])
        if (cond_mutual_info(j2, ["A"], ["B"], ["C"])
                > cond_mutual_info(j2, ["A"], ["B"], ["C", "D"]) + PROPERTY_TOL):
            report["extra_conditioning_raises_mi"] = False
        j3 = table_with_a_indep_d_given_bc([2, 2, 2, 2], rng)
        _verify_ci(j3, ["A"], ["D"], ["B", "C"])
        if (cond_mutual_info(j3, ["A"], ["B"], ["C"])
                < cond_mutual_info(j3, ["A"], ["B"], ["C", "D"]) - PROPERTY_TOL):
            report["extra_conditioning_lowers_mi"] = False
    return report
