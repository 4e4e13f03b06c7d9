"""Per-level sampling parameters and their feasibility checks.

A schedule fixes, for every level ``l`` in ``[0, r]``, the layer size ``n_l``
and, for ``l >= 1``, the channel count ``d_l`` and the auxiliary-collection
sizes ``alpha_l``, ``beta_l``, ``gamma_l``.  The canonical schedule uses
``n_l = n_0 ** (34 ** l)``, ``d_l = n_{l-1}**13``, ``alpha_l = n_{l-1}**11``,
``beta_l = n_{l-1}**5`` and ``gamma_l = n_{l-1}**6``; it is astronomically
large for ``r >= 1`` and serves as a bound calculator, not a sampling target.

Each family's gate states the room its sampler takes, once: the recursive
family's rules are ``feasibility_check``'s, and the restructured family adds
the one completion rule of ``restructured_feasibility_check``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import InfeasibleParams, json_int, json_list


@dataclass
class ParamSchedule:
    """Layer sizes and auxiliary parameters for levels 0..r.

    ``n`` has length r+1 (n[0] .. n[r]); ``d``, ``alpha``, ``beta``, ``gamma``
    have length r and are indexed so that e.g. ``d[0]`` is the level-1 value.
    """

    n: list[int]
    d: list[int] = field(default_factory=list)
    alpha: list[int] = field(default_factory=list)
    beta: list[int] = field(default_factory=list)
    gamma: list[int] = field(default_factory=list)

    @property
    def r(self) -> int:
        return len(self.n) - 1

    def level(self, l: int) -> dict:
        """Parameters governing the sampling of level ``l >= 1``."""
        if not 1 <= l <= self.r:
            raise InfeasibleParams(f"level {l} outside [1, {self.r}]")
        return {
            "n": self.n[l],
            "n_prev": self.n[l - 1],
            "d": self.d[l - 1],
            "alpha": self.alpha[l - 1],
            "beta": self.beta[l - 1],
            "gamma": self.gamma[l - 1],
        }

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "alpha": self.alpha,
            "beta": self.beta,
            "gamma": self.gamma,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, obj: dict) -> "ParamSchedule":
        if not isinstance(obj, dict):
            raise ValueError("a schedule must be a JSON object, got "
                             f"{type(obj).__name__}")
        spec = canonical_spec(obj)
        if spec is not None:
            return canonical_params(*spec)
        lists = {"n": obj["n"], **{key: obj.get(key, []) for key in
                                   ("d", "alpha", "beta", "gamma")}}
        return cls(**{key: [json_int(x, f"each {key} entry")
                            for x in json_list(xs, key)]
                      for key, xs in lists.items()})

    @classmethod
    def from_json(cls, text: str) -> "ParamSchedule":
        return cls.from_dict(json.loads(text))


def canonical_spec(obj) -> tuple | None:
    """``(n0, r)`` of ``{"canonical": {"n0": ..., "r": ...}}``, else None (a
    ``"canonical"`` that is not an object, as in older files, is ignored)."""
    spec = obj.get("canonical") if isinstance(obj, dict) else None
    if not isinstance(spec, dict):
        return None
    return (json_int(spec["n0"], "canonical n0"),
            json_int(spec["r"], "canonical r"))


def canonical_params(n0: int, r: int) -> ParamSchedule:
    """Canonical schedule with exact integer arithmetic.

    n_l = n_0 ** (34 ** l); d_l = n_{l-1}**13; alpha_l = n_{l-1}**11;
    beta_l = n_{l-1}**5; gamma_l = n_{l-1}**6.
    """
    if n0 < 1:
        raise InfeasibleParams("n0 must be >= 1")
    if r < 0:
        raise InfeasibleParams("r must be >= 0")
    n = [n0 ** (34 ** l) for l in range(r + 1)]
    d = [n[l - 1] ** 13 for l in range(1, r + 1)]
    alpha = [n[l - 1] ** 11 for l in range(1, r + 1)]
    beta = [n[l - 1] ** 5 for l in range(1, r + 1)]
    gamma = [n[l - 1] ** 6 for l in range(1, r + 1)]
    return ParamSchedule(n=n, d=d, alpha=alpha, beta=beta, gamma=gamma)


def aux_draws_per_vertex_layer(n_prev: int, alpha: int, beta: int,
                               gamma: int, l: int) -> int:
    """Identities one inner vertex reserves from one other layer for auxiliaries.

    J contributes alpha*n_prev, the two K collections contribute
    beta*(l+1)*n_prev*(2*n_prev - 1), L contributes gamma*(l+1)*n_prev.
    """
    return (
        alpha * n_prev
        + beta * (l + 1) * n_prev * (2 * n_prev - 1)
        + gamma * (l + 1) * n_prev
    )


def feasibility_check(p: ParamSchedule) -> list[str]:
    """Check every level against the recursive family's rules; an empty list
    means the schedule is usable.

    Besides sizes, lengths and positivity, each level needs room for the
    starred set and the per-type channel chunks, and a ``d`` that covers the
    starred slots.  Only the restructured family reserves auxiliaries, so
    their room is ``restructured_feasibility_check``'s.  Violations are
    returned as data so that callers can report all of them at once.
    """
    out = []
    if any(x < 1 for x in p.n):
        out.append("LayerSizeViolation: all n_l must be >= 1")
        return out
    for seq, name in ((p.d, "d"), (p.alpha, "alpha"), (p.beta, "beta"),
                      (p.gamma, "gamma")):
        if len(seq) != p.r:
            out.append(f"LengthMismatch: {name} must have {p.r} entries")
            return out
        if any(x < 1 for x in seq):
            out.append(f"PositivityViolation: all {name}_l must be >= 1")
    for l in range(1, p.r + 1):
        lv = p.level(l)
        n, n_prev, d = lv["n"], lv["n_prev"], lv["d"]
        # Room for the starred set plus the disjoint per-type channel sets.
        need = n_prev * (2 * d * (l + 1) + 1)
        if need >= n:
            out.append(
                f"SamplingRoomViolation level {l}: "
                f"n_prev*(2*d*(l+1)+1) = {need} >= n = {n}"
            )
        # Inner vertices may carry up to n_prev starred channels of one type;
        # the degree target must cover them.
        if d < n_prev:
            out.append(f"DegreeViolation level {l}: d = {d} < n_prev = {n_prev}")
    return out


def restructured_feasibility_check(p: ParamSchedule, level: int) -> list[str]:
    """Check that every restructured input at ``level`` can be completed.

    In an inner vertex's row toward another layer, the slots fixed before
    completion (n_prev starred, alpha*n_prev J, beta*(l+1)*n_prev*(2n_prev-1)
    K and gamma*n_prev L slots of one type) can all carry one type, so their
    count F must not exceed d.  The recursive family needs less, which is why
    this check is not part of ``feasibility_check``.

    With the room rule, n - n_prev > 2*(l+1)*n_prev*d, this one rule covers
    everything the restructured sampler needs:

    - term by term (l+1)*F >= ``aux_draws_per_vertex_layer``, so the
      reservation, 2*n_prev times that count, fits the non-starred indices;
    - a type's fixed count is at most F <= d (the L slots alone are fewer),
      so no completion need is negative;
    - a completed row stores (l+1)*d < n slots, so the free slots suffice.
    """
    lv = p.level(level)
    n_prev, d = lv["n_prev"], lv["d"]
    fixed = (n_prev * (1 + lv["alpha"])
             + lv["beta"] * (level + 1) * n_prev * (2 * n_prev - 1)
             + lv["gamma"] * n_prev)
    if fixed > d:
        return [f"RestructuredSlotViolation level {level}: "
                f"n_prev*(1+alpha) + beta*(l+1)*n_prev*(2*n_prev-1) "
                f"+ gamma*n_prev = {fixed} > d = {d}"]
    return []


def require_feasible(p: ParamSchedule) -> None:
    bad = feasibility_check(p)
    if bad:
        raise InfeasibleParams("; ".join(bad))


def require_restructured_feasible(p: ParamSchedule, level: int) -> None:
    """The shared check, then, if it passes, the restructured one."""
    bad = feasibility_check(p) or restructured_feasibility_check(p, level)
    if bad:
        raise InfeasibleParams("; ".join(bad))
