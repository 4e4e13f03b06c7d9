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

import click

from . import elimination, infotheory, oracles, protocols
from .errors import CongestLabError, InfeasibleParams
from .graphs import TypedTripartiteGraph
from .params import ParamSchedule, feasibility_check
from .randomness import RandomnessView, derive_rng
from .sampling import sample_g0, sample_gr, sample_gr_tilde

# Instances above this many vertices per layer are refused up front: the
# canonical schedules grow as n0^(34^r) and would exhaust memory.
MEMORY_CAP = 5_000_000


# the options each `info` measure reads; any other option is refused, so a
# wrong pairing fails instead of answering a different question
INFO_OPTIONS = {
    "entropy": {"of"},
    "cond-entropy": {"of", "given"},
    "mi": {"a", "b"},
    "cmi": {"a", "b", "given"},
    "kl": {"other"},
    "tvd": {"other"},
}


def _load_params(path: str) -> ParamSchedule:
    with open(path) as fh:
        p = ParamSchedule.from_json(fh.read())
    bad = feasibility_check(p)
    if bad:
        raise InfeasibleParams("; ".join(bad))
    if max(p.n) > MEMORY_CAP:
        raise InfeasibleParams(
            f"largest layer size {max(p.n)} exceeds memory cap {MEMORY_CAP}")
    return p


def _emit(payload: dict, out: str | None):
    text = json.dumps(payload, indent=2, default=str)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        click.echo(text)


def _fail(exc: Exception):
    click.echo(f"error: {exc}", err=True)
    code = 2 if isinstance(exc, InfeasibleParams) else 1
    sys.exit(code)


@click.group()
def main():
    """Simulation laboratory for channel-typed synchronous protocols."""


@main.command()
@click.option("--level", type=int, required=True)
@click.option("--params", "params_path", type=click.Path(exists=True))
@click.option("--family", type=click.Choice(["base", "recursive",
                                             "restructured"]),
              default="recursive", show_default=True)
@click.option("--n0", type=int, default=None,
              help="Layer size for --level 0 when no schedule file is given.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--count", type=int, default=1, show_default=True)
@click.option("--out", "out_dir", type=click.Path(), required=True)
def gen(level, params_path, family, n0, seed, count, out_dir):
    """Sample instances to JSON files, with a sidecar per instance."""
    try:
        config = {"level": level, "family": family, "seed": seed,
                  "count": count, "params": params_path, "n0": n0}
        if level == 0:
            if n0 is None and params_path is None:
                raise ValueError("--level 0 needs --n0 or --params")
            size = n0 if n0 is not None else _load_params(params_path).n[0]
            if size > MEMORY_CAP:
                raise InfeasibleParams("layer size exceeds memory cap")
        else:
            if params_path is None:
                raise ValueError("--params is required for --level >= 1")
            p = _load_params(params_path)
        os.makedirs(out_dir, exist_ok=True)
        for i in range(count):
            rng = derive_rng(seed, i)
            sidecar = {"config": config, "index": i}
            if level == 0:
                g, starred = sample_g0(size, rng)
                sidecar["starred"] = [repr(v) for v in starred]
            elif family == "restructured":
                g, emb, aux, flag = sample_gr_tilde(p, level, rng)
                sidecar["ids"] = {ly.value: emb.ids[ly] for ly in emb.ids}
                sidecar["collision_flag"] = flag
                sidecar["aux_sizes"] = {
                    "J": len(aux.J), "K": len(aux.K), "L": len(aux.L)}
            else:
                g, emb = sample_gr(p, level, rng)
                sidecar["ids"] = {ly.value: emb.ids[ly] for ly in emb.ids}
            base = os.path.join(out_dir, f"instance-{i:04d}")
            with open(base + ".json", "w") as fh:
                fh.write(g.to_json() + "\n")
            with open(base + ".meta.json", "w") as fh:
                fh.write(json.dumps(sidecar, default=str) + "\n")
        click.echo(json.dumps({"written": count, "dir": out_dir,
                               "config": config}))
    except (CongestLabError, ValueError, OSError) as exc:
        _fail(exc)


@main.command()
@click.option("--instance", type=click.Path(exists=True), required=True)
@click.option("--protocol", "proto_name", required=True)
@click.option("--bandwidth", type=int, default=1, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--dump-transcript", type=click.Path(), default=None)
def simulate(instance, proto_name, bandwidth, seed, dump_transcript):
    """Run one registered protocol on one instance file."""
    try:
        with open(instance) as fh:
            g = TypedTripartiteGraph.from_json(fh.read())
        reg = protocols.registry(rounds=g.r, bandwidth=bandwidth)
        if proto_name not in reg:
            raise ValueError(
                f"unknown protocol {proto_name!r}; have {sorted(reg)}")
        pi = reg[proto_name]
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
    except (CongestLabError, ValueError, OSError) as exc:
        _fail(exc)


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
    try:
        if level == 0:
            if n0 is None:
                raise ValueError("--level 0 needs --n0")
            sampler = lambda s: sample_g0(n0, random.Random(s))[0]
        else:
            if params_path is None:
                raise ValueError("--params is required for --level >= 1")
            p = _load_params(params_path)
            sampler = lambda s: sample_gr(p, level, random.Random(s))[0]
        reg = protocols.registry(rounds=level, bandwidth=bandwidth)
        if proto_name not in reg:
            raise ValueError(
                f"unknown protocol {proto_name!r}; have {sorted(reg)}")
        freq, (lo, hi) = protocols.estimate_success(reg[proto_name], sampler,
                                                    trials, seed)
        _emit({
            "config": {"protocol": proto_name, "level": level,
                       "params": params_path, "n0": n0, "trials": trials,
                       "bandwidth": bandwidth, "seed": seed},
            "success_frequency": freq,
            "wilson_95": [lo, hi],
        }, out)
    except (CongestLabError, ValueError, OSError) as exc:
        _fail(exc)


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
    try:
        p = _load_params(params_path)
        reg = protocols.registry(rounds=1, bandwidth=bandwidth)
        if proto_name not in reg:
            raise ValueError(
                f"unknown protocol {proto_name!r}; have {sorted(reg)}")
        pi = reg[proto_name]
        cfg = elimination.EliminationConfig(params=p, level=1, cap=cap,
                                            fallback=fallback)
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
    except (CongestLabError, ValueError, OSError) as exc:
        _fail(exc)


@main.command()
@click.option("--suite", type=click.Choice(["g0", "measures", "all"]),
              default="all", show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), default=None)
def verify(suite, seed, out):
    """Run the oracle suite and exit 0 only if every check passes."""
    try:
        checks = {}
        if suite in ("g0", "all"):
            from fractions import Fraction
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
    except CongestLabError as exc:
        _fail(exc)


@main.command()
@click.option("--table", "table_path", type=click.Path(exists=True),
              required=True)
@click.option("--measure", type=click.Choice(
    ["entropy", "cond-entropy", "mi", "cmi", "kl", "tvd"]), required=True)
@click.option("--of", default=None, help="Comma-separated coordinates.")
@click.option("--given", default=None, help="Comma-separated coordinates.")
@click.option("--a", "a_coords", default=None)
@click.option("--b", "b_coords", default=None)
@click.option("--other", type=click.Path(exists=True), default=None,
              help="Second table for kl/tvd.")
def info(table_path, measure, of, given, a_coords, b_coords, other):
    """Compute a Shannon measure from a joint-table JSON file."""

    def split(arg):
        return [x for x in (arg or "").split(",") if x]

    def load(path):
        with open(path) as fh:
            obj = json.load(fh)
        table = {tuple(row[:-1]): float(row[-1]) for row in obj["entries"]}
        return infotheory.JointTable(obj["coords"], table)

    try:
        options = {"of": of, "given": given, "a": a_coords, "b": b_coords,
                   "other": other}
        unused = [f"--{name}" for name, value in options.items()
                  if value is not None and name not in INFO_OPTIONS[measure]]
        if unused:
            raise ValueError(f"--measure {measure} does not take "
                             f"{', '.join(unused)}")
        j = load(table_path)
        if measure == "entropy":
            value = infotheory.entropy(j.marginal(split(of) or j.coords))
        elif measure == "cond-entropy":
            value = infotheory.cond_entropy(j, split(of), split(given))
        elif measure == "mi":
            value = infotheory.mutual_info(j, split(a_coords), split(b_coords))
        elif measure == "cmi":
            value = infotheory.cond_mutual_info(j, split(a_coords),
                                                split(b_coords), split(given))
        else:
            if other is None:
                raise ValueError(f"--other is required for {measure}")
            k = load(other)
            fn = infotheory.kl if measure == "kl" else infotheory.tvd
            value = fn(j.marginal(j.coords), k.marginal(k.coords))
        _emit({"config": {"table": table_path, "measure": measure, "of": of,
                          "given": given, "a": a_coords, "b": b_coords,
                          "other": other},
               "value": value}, None)
    except (CongestLabError, ValueError, KeyError, OSError,
            json.JSONDecodeError) as exc:
        _fail(exc)


if __name__ == "__main__":
    main()
