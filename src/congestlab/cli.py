"""Experiment runner.

Every subcommand is fully determined by its flags plus --seed, and every
JSON artifact embeds the resolved configuration so results are replayable.

Exit codes: 0 success, 1 validation failure, 2 infeasible parameters.
"""

from __future__ import annotations

import json
import os
import random
import sys
from fractions import Fraction

import click

from . import elimination, infotheory, oracles, protocols
from .errors import (CongestLabError, InfeasibleParams, json_list,
                     json_number)
from .graphs import TypedTripartiteGraph
from .params import (ParamSchedule, canonical_spec, require_feasible,
                     require_restructured_feasible)
from .randomness import RandomnessView, derive_rng
from .sampling import sample_g0, sample_gr, sample_gr_tilde

# Instances above this many vertices per layer are refused up front: the
# canonical schedules grow as n0^(34^r) and would exhaust memory.
MEMORY_CAP = 5_000_000
# the types json.load gives a value that is neither an array nor an object
JSON_SCALARS = (str, int, float, bool, type(None))


def _load_params(path: str) -> ParamSchedule:
    with open(path) as fh:
        obj = json.load(fh)
    spec = canonical_spec(obj)
    if spec is not None and spec[0] >= 1 and spec[1] >= 1:
        # decided from (n0, r) before any size is built: n_l = n0**(34**l)
        # is 1 at n0 = 1 and at least 2**34, above the cap, at n0 >= 2
        n0, r = spec
        if n0 == 1:
            raise InfeasibleParams(f"canonical schedule (n0=1, r={r}): every "
                                   f"layer size is 1, too small for level 1")
        raise InfeasibleParams(
            f"canonical schedule (n0={n0}, r={r}): largest layer size "
            f"n0**(34**r) exceeds memory cap {MEMORY_CAP}")
    p = ParamSchedule.from_dict(obj)
    require_feasible(p)
    if max(p.n) > MEMORY_CAP:
        raise InfeasibleParams(f"largest layer size {max(p.n)} exceeds "
                               f"memory cap {MEMORY_CAP}")
    return p


def _coords(arg: str | None) -> list:
    return [x for x in (arg or "").split(",") if x]


def _load_table(path: str) -> infotheory.JointTable:
    with open(path) as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError(f"table {path} must be a JSON object, got "
                         f"{type(obj).__name__}")
    coords = json_list(obj["coords"], "coords")
    if not all(type(c) is str for c in coords):
        raise ValueError(f"each coordinate must be a string, got {coords!r}")
    table = {}
    for row in json_list(obj["entries"], "entries"):
        x = tuple(json_list(row, "each entry")[:-1])
        if not row or not all(type(v) in JSON_SCALARS for v in x):
            raise ValueError(f"entry {row!r} must be an outcome of JSON "
                             f"scalars followed by its probability")
        if x in table:
            raise ValueError(f"outcome {x!r} listed twice")
        table[x] = json_number(row[-1], f"probability of outcome {x!r}")
    return infotheory.JointTable(coords, table)


def _laws(j: infotheory.JointTable, other: str) -> tuple:
    """The full laws of ``j`` and of the table at ``other``."""
    k = _load_table(other)
    return j.marginal(j.coords), k.marginal(k.coords)


# each `info` measure: the options it reads, in order, and its value on the
# table and those options.  Any other option is refused, so a wrong pairing
# fails instead of answering a different question.
INFO_MEASURES = {
    "entropy": (("of",), lambda j, of: infotheory.entropy(
        j.marginal(_coords(of) or j.coords))),
    "cond-entropy": (("of", "given"), lambda j, of, given:
                     infotheory.cond_entropy(j, _coords(of), _coords(given))),
    "mi": (("a", "b"), lambda j, a, b: infotheory.mutual_info(
        j, _coords(a), _coords(b))),
    "cmi": (("a", "b", "given"), lambda j, a, b, given:
            infotheory.cond_mutual_info(j, _coords(a), _coords(b),
                                        _coords(given))),
    "kl": (("other",), lambda j, other: infotheory.kl(*_laws(j, other))),
    "tvd": (("other",), lambda j, other: infotheory.tvd(*_laws(j, other))),
}


def _emit(payload: dict, out: str | None):
    text = json.dumps(payload, indent=2, default=str)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        click.echo(text)


def _protocol(name: str, rounds: int, bandwidth: int):
    reg = protocols.registry(rounds=rounds, bandwidth=bandwidth)
    if name not in reg:
        raise ValueError(f"unknown protocol {name!r}; have {sorted(reg)}")
    return reg[name]


def _family_sampler(family: str | None, level: int, params_path: str | None,
                    n0: int | None):
    """Check the family options and the schedule; return the resolved family
    and a sampler ``rng -> (graph, sidecar fields)``.

    Every refusal happens here, before anything is drawn or written.
    """
    family = family or ("base" if level == 0 else "recursive")
    if (family == "base") != (level == 0):
        raise ValueError(f"--family {family} does not sample --level {level}; "
                         "base is level 0, the others levels >= 1")
    if level == 0:
        if (n0 is None) == (params_path is None):
            raise ValueError(
                "--level 0 takes exactly one of --n0 and --params")
        size = n0 if n0 is not None else _load_params(params_path).n[0]
        if not 1 <= size <= MEMORY_CAP:
            raise InfeasibleParams(
                f"layer size {size} outside [1, memory cap {MEMORY_CAP}]")

        def draw(rng):
            g, starred = sample_g0(size, rng)
            return g, {"starred": [repr(v) for v in starred]}

        return family, draw
    if params_path is None or n0 is not None:
        raise ValueError("--level >= 1 takes --params and not --n0")
    p = _load_params(params_path)
    p.level(level)  # refuses a level outside the schedule
    if family == "restructured":
        require_restructured_feasible(p, level)

    def draw(rng):
        if family == "recursive":
            (g, emb), fields = sample_gr(p, level, rng), {}
        else:
            g, emb, aux, flag = sample_gr_tilde(p, level, rng)
            fields = {"collision_flag": flag, "aux_sizes": {
                "J": len(aux.J), "K": len(aux.K), "L": len(aux.L)}}
        return g, {"ids": {ly.value: emb.ids[ly] for ly in emb.ids}, **fields}

    return family, draw


class _OneErrorBoundary(click.Group):
    """Every command fails one way: one ``error:`` line on stderr, exit 2 for
    infeasible parameters and 1 for any other refused input."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (CongestLabError, ValueError, KeyError, OSError) as exc:
            msg = f"missing key {exc}" if isinstance(exc, KeyError) else exc
            click.echo(f"error: {msg}", err=True)
            ctx.exit(2 if isinstance(exc, InfeasibleParams) else 1)


@click.group(cls=_OneErrorBoundary)
def main():
    """Simulation laboratory for channel-typed synchronous protocols."""


@main.command()
@click.option("--level", type=int, required=True)
@click.option("--params", "params_path", type=click.Path(exists=True))
@click.option("--family", type=click.Choice(["base", "recursive",
                                             "restructured"]),
              help="Defaults to base at --level 0 and to recursive above.")
@click.option("--n0", type=int, default=None,
              help="Layer size for --level 0 when no schedule file is given.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--count", type=int, default=1, show_default=True)
@click.option("--out", "out_dir", type=click.Path(), required=True)
def gen(level, params_path, family, n0, seed, count, out_dir):
    """Sample instances to JSON files, with a sidecar per instance."""
    if count < 1:
        raise ValueError(f"--count must be at least 1, got {count}")
    family, draw = _family_sampler(family, level, params_path, n0)
    config = {"level": level, "family": family, "seed": seed,
              "count": count, "params": params_path, "n0": n0}
    os.makedirs(out_dir, exist_ok=True)
    for i in range(count):
        g, fields = draw(derive_rng(seed, i))
        sidecar = {"config": config, "index": i, **fields}
        base = os.path.join(out_dir, f"instance-{i:04d}")
        with open(base + ".json", "w") as fh:
            fh.write(g.to_json() + "\n")
        with open(base + ".meta.json", "w") as fh:
            fh.write(json.dumps(sidecar, default=str) + "\n")
    click.echo(json.dumps({"written": count, "dir": out_dir,
                           "config": config}))


@main.command()
@click.option("--instance", type=click.Path(exists=True), required=True)
@click.option("--protocol", "proto_name", required=True)
@click.option("--bandwidth", type=int, default=1, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--dump-transcript", type=click.Path(), default=None)
def simulate(instance, proto_name, bandwidth, seed, dump_transcript):
    """Run one registered protocol on one instance file."""
    with open(instance) as fh:
        g = TypedTripartiteGraph.from_json(fh.read())
    if g.n > MEMORY_CAP:
        raise InfeasibleParams(f"instance layer size {g.n} exceeds memory "
                               f"cap {MEMORY_CAP}")
    pi = _protocol(proto_name, g.r, bandwidth)
    transcript, outputs = protocols.simulate(pi, g, RandomnessView(seed))
    if dump_transcript:
        with open(dump_transcript, "w") as fh:
            fh.write(transcript.to_jsonl() + "\n")
    _emit({
        "config": {"instance": instance, "protocol": proto_name,
                   "bandwidth": bandwidth, "seed": seed},
        "yes_vertices": sorted(repr(v) for v, o in outputs.items() if o),
        "has_triangle": g.has_triangle(),
        "judged_success": protocols.judge(g, outputs),
        "max_message_bits": transcript.max_length(),
        "messages": len(transcript.entries),
    }, None)


@main.command("estimate-success")
@click.option("--protocol", "proto_name", required=True)
@click.option("--level", type=int, required=True)
@click.option("--params", "params_path", type=click.Path(exists=True))
@click.option("--n0", type=int, default=None)
@click.option("--bandwidth", type=int, default=1, show_default=True)
@click.option("--trials", type=int, default=1000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), default=None)
def estimate_success(proto_name, level, params_path, n0, bandwidth, trials,
                     seed, out):
    """Monte Carlo success estimate with a 95% Wilson interval."""
    _, draw = _family_sampler(None, level, params_path, n0)
    pi = _protocol(proto_name, level, bandwidth)
    freq, (lo, hi) = protocols.estimate_success(
        pi, lambda s: draw(random.Random(s))[0], trials, seed)
    _emit({
        "config": {"protocol": proto_name, "level": level,
                   "params": params_path, "n0": n0, "trials": trials,
                   "bandwidth": bandwidth, "seed": seed},
        "success_frequency": freq,
        "wilson_95": [lo, hi],
    }, out)


@main.command("round-elim")
@click.option("--protocol", "proto_name", required=True)
@click.option("--params", "params_path", type=click.Path(exists=True),
              required=True)
@click.option("--bandwidth", type=int, default=1, show_default=True)
@click.option("--trials", type=int, default=30, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--cap", type=int, default=100_000, show_default=True)
@click.option("--fallback", type=click.Choice(["drop", "fail"]),
              default="fail", show_default=True)
@click.option("--hybrids", is_flag=True,
              help="Also write one sample transcript per hybrid law.")
@click.option("--out", type=click.Path(), default=None,
              help="Report JSON path (directory when --hybrids is set).")
def round_elim(proto_name, params_path, bandwidth, trials, seed, cap,
               fallback, hybrids, out):
    """Compile away the first round and report the trial statistics."""
    p = _load_params(params_path)
    pi = _protocol(proto_name, 1, bandwidth)
    cfg = elimination.EliminationConfig(params=p, cap=cap, fallback=fallback)
    report = elimination.run_elimination_trials(pi, cfg, trials, seed)
    payload = {
        "config": {"protocol": proto_name, "params": params_path,
                   "bandwidth": bandwidth, "trials": trials,
                   "seed": seed, "cap": cap, "fallback": fallback},
        "report": report.to_dict(),
    }
    if hybrids:
        target = out or "."
        os.makedirs(target, exist_ok=True)
        for which in elimination.HYBRIDS:
            _, _, _, transcript = elimination.hybrid_sampler(
                which, pi, cfg, seed)
            path = os.path.join(target, f"{which}.jsonl")
            with open(path, "w") as fh:
                fh.write(transcript.to_jsonl() + "\n")
        _emit(payload, os.path.join(target, "report.json"))
        click.echo(json.dumps({"written": target}))
    else:
        _emit(payload, out)


@main.command()
@click.option("--suite", type=click.Choice(["g0", "measures", "all"]),
              default="all", show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), default=None)
def verify(suite, seed, out):
    """Run the oracle suite and exit 0 only if every check passes."""
    checks = {}
    if suite in ("g0", "all"):
        checks["triangle_prob_exact"] = (
            oracles.exact_g0_triangle_prob(1) == Fraction(1, 8))
        checks["zero_round_optimum"] = (
            oracles.zero_round_optimum(1) == Fraction(7, 8))
    if suite in ("measures", "all"):
        rng = random.Random(seed)
        report = infotheory.monotonicity_checks(rng, tables=50)
        checks.update(report)
        p1 = infotheory.random_distribution(4, rng)
        p2 = infotheory.random_distribution(4, rng)
        checks["pinsker"] = infotheory.pinsker_check(p1, p2)[2]
    payload = {"config": {"suite": suite, "seed": seed},
               "checks": checks, "passed": all(checks.values())}
    _emit(payload, out)
    sys.exit(0 if payload["passed"] else 1)


@main.command()
@click.option("--table", "table_path", type=click.Path(exists=True),
              required=True)
@click.option("--measure", type=click.Choice(list(INFO_MEASURES)),
              required=True)
@click.option("--of", default=None, help="Comma-separated coordinates.")
@click.option("--given", default=None, help="Comma-separated coordinates.")
@click.option("--a", "a_coords", default=None)
@click.option("--b", "b_coords", default=None)
@click.option("--other", type=click.Path(exists=True), default=None,
              help="Second table for kl/tvd.")
def info(table_path, measure, of, given, a_coords, b_coords, other):
    """Compute a Shannon measure from a joint-table JSON file."""
    options = {"of": of, "given": given, "a": a_coords, "b": b_coords,
               "other": other}
    takes, fn = INFO_MEASURES[measure]
    unused = [f"--{name}" for name, value in options.items()
              if value is not None and name not in takes]
    if unused:
        raise ValueError(f"--measure {measure} does not take "
                         f"{', '.join(unused)}")
    # --given may be empty, and entropy's --of defaults to every coordinate
    empty = [f"--{name}" for name in takes if name != "given"
             and measure != "entropy" and not _coords(options[name])]
    if empty:
        raise ValueError(f"--measure {measure} needs a non-empty "
                         f"{' and '.join(empty)}")
    j = _load_table(table_path)
    value = fn(j, *(options[name] for name in takes))
    _emit({"config": {"table": table_path, "measure": measure, **options},
           "value": value}, None)


if __name__ == "__main__":
    main()
