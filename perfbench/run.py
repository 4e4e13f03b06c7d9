"""congestlab benchmark: end-to-end and per-layer metrics for four workloads.

Run from the root of a checkout, standard library only:

    python3 perfbench/run.py --workload round-elim --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Each workload runs closed-loop, one op after another, in a fresh
single-threaded worker process (``worker.py``) that imports ``congestlab``
from the checkout's ``src``.  With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it runs the workload again with span
wrappers installed, reports the per-layer metrics and the tracing overhead,
and replays the run's count window in a third process to prove that every
count repeats exactly.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the full result,
with provenance, is also written under ``perfbench/out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import hostprobe  # noqa: E402
import tracer  # noqa: E402  (standard library only; imports no congestlab)

WORKLOADS = {
    "round-elim": "all three stage orchestrations at MICRO, including the "
                  "rejection-heavy probe-first-slot that sets the tail",
    "estimate-success": "protocol simulation at n=200, where per-vertex "
                        "inbox scans and length-n vertex views dominate",
    "gen-restructured": "restructured-family generation at LOOSE, n=5000: "
                        "whole-pool shuffles and dense input completion",
    "verify-info": "the only workload using infotheory and oracles; table "
                   "size is the working-set axis of conditional rescans",
}
END_TO_END = [("ops_per_s", "ops/s"), ("op_ms_p50", "ms"), ("op_ms_p90", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB")]
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919  # reserved for confirming claims; never used to tune
DEFAULT_SECONDS = 20
SETUP_PROBES = 9
BUDGET_S = 170  # every run must end within 180 s


class BenchError(Exception):
    pass


# -- host-speed scaling ----------------------------------------------------


def scaled_ms(op_ns, probes) -> list:
    """Each op's wall time in ms, scaled to nominal host speed by the mean
    of the probes taken just before and just after it."""
    out, k = [], 0
    for i, ns in enumerate(op_ns):
        while k + 1 < len(probes) and probes[k + 1][0] <= i:
            k += 1
        after = probes[min(k + 1, len(probes) - 1)][1]
        local = (probes[k][1] + after) / 2
        out.append(ns / 1e6 * hostprobe.NOMINAL_MS / local)
    return out


# -- worker processes -------------------------------------------------------


def spawn(args: list, deadline: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("time budget exhausted")
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *map(str, args)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=left)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args} ran past the time budget") from None
    if done.returncode != 0:
        raise BenchError(f"worker {args} exited {done.returncode}:\n"
                         f"{done.stderr[-3000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def setup_seconds(base: list, deadline: float) -> tuple:
    """Fresh-process set-up times, process start to the first op's start:
    raw, and scaled to nominal host speed by the probes around each."""
    spawn(base + ["--setup-only"], deadline)  # compile bytecode once, untimed
    raw, scaled = [], []
    before = hostprobe.probe_ms()
    for _ in range(SETUP_PROBES):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        stamp = spawn(base + ["--setup-only"], deadline)["setup_stamp"]
        after = hostprobe.probe_ms()
        raw.append(stamp - t0)
        scaled.append(raw[-1] * hostprobe.NOMINAL_MS / ((before + after) / 2))
        before = after
    return raw, scaled


# -- provenance -------------------------------------------------------------


def provenance(name: str, seed: int, seconds: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        commit = got.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "commit": commit, "src_sha256": digest.hexdigest(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workload": name, "why": WORKLOADS[name], "seed": seed,
        "default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED,
        "seconds": seconds, "loop": "closed, one op at a time, 1 process",
    }


# -- one workload -----------------------------------------------------------


def timing(ms: list, setup: list) -> dict:
    deciles = statistics.quantiles(ms, n=10, method="inclusive")
    return {"ops_per_s": len(ms) / (sum(ms) / 1e3),
            "op_ms_p50": deciles[4], "op_ms_p90": deciles[8],
            "setup_s": statistics.median(setup)}


def end_to_end(res: dict, setup_raw: list, setup_scaled: list) -> tuple:
    """Metrics at nominal host speed, the same unscaled, and sample counts."""
    scaled = scaled_ms(res["op_ns"], res["probes"])
    metrics = timing(scaled, setup_scaled)
    metrics["peak_rss_mb"] = res["peak_rss_kb"] / 1024
    raw = timing([ns / 1e6 for ns in res["op_ns"]], setup_raw)
    p90 = metrics["op_ms_p90"]
    samples = {"ops": len(scaled), "beyond_p90": sum(x > p90 for x in scaled),
               "setup_processes": len(setup_scaled),
               "host_probes": len(res["probes"]),
               "host_slowdown": statistics.median(
                   p for _, p in res["probes"]) / hostprobe.NOMINAL_MS}
    return metrics, raw, samples


def problems_of(res: dict, label: str) -> list:
    out = [f"{label}: {p}" for p in res["run_problems"]]
    out += [f"{label}: corrupted output accepted: {s['corruption']}"
            for s in res["selftest"] if not s["rejected"]]
    out += [f"{label}: wrapper left installed on {w}"
            for w in res["wrapper_problems"]]
    return out


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + BUDGET_S
    base = ["--workload", name, "--seed", seed]
    setup_raw, setup_scaled = setup_seconds(base, deadline)
    plain = spawn(base + ["--seconds", seconds], deadline)
    metrics, raw, samples = end_to_end(plain, setup_raw, setup_scaled)
    runs, problems = [("untraced", plain)], []
    result = {"provenance": provenance(name, seed, seconds),
              "samples": samples,
              "op_counts": {k: plain["op_kind"].count(i)
                            for i, k in enumerate(plain["kinds"])}}
    result["unscaled"] = raw
    result["end_to_end"] = {**metrics, "fail_share": (
        len(plain["failures"]) + len(plain["run_problems"]))
        / len(plain["op_ns"])}
    if trace:
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{name}-seed{seed}.jsonl.gz"
        traced = spawn(base + ["--seconds", seconds, "--trace",
                               "--spans", spans], deadline)
        replay = spawn(base + ["--trace", "--max-ops",
                               traced["count_window"]], deadline)
        runs += [("traced", traced), ("replay", replay)]
        # layer times at nominal host speed, like the end-to-end times
        factor = hostprobe.NOMINAL_MS / statistics.median(
            p for _, p in traced["probes"])
        units = {m: unit for m, unit, _ in tracer.LAYER_METRICS}
        layers = {m: v * factor if units[m] in ("ms", "ms/op") else v
                  for m, v in traced["layers"].items()}
        plain_ms = statistics.fmean(scaled_ms(plain["op_ns"], plain["probes"]))
        traced_ms = statistics.fmean(scaled_ms(traced["op_ns"],
                                               traced["probes"]))
        layers["trace.overhead_ms"] = traced_ms - plain_ms
        layers["trace.overhead_share"] = (traced_ms - plain_ms) / plain_ms
        result["per_layer"] = layers
        result["spans_file"] = str(spans.relative_to(ROOT))
        result["count_window_ops"] = traced["count_window"]
        problems += [f"count {c} differs across two runs of seed {seed}: "
                     f"{traced['layers'][c]} vs {replay['layers'][c]}"
                     for c in tracer.COUNTS
                     if traced["layers"][c] != replay["layers"][c]]
    problems += [p for label, res in runs for p in problems_of(res, label)]
    failures = [dict(f, run=label) for label, res in runs
                for f in res["failures"]]
    result.update(
        attempted=sum(len(res["op_ns"]) for _, res in runs),
        failed=len(failures) + sum(len(res["run_problems"]) for _, res in runs),
        failures=failures[:20], problems=problems)
    result["correct"] = not failures and not problems
    return result


def report(name: str, r: dict, trace: bool) -> list:
    pv, smp, e2e = r["provenance"], r["samples"], r["end_to_end"]
    units = dict(END_TO_END, fail_share="ratio")
    notes = {
        "ops_per_s": f"unscaled {r['unscaled']['ops_per_s']:.4f}",
        "op_ms_p50": f"n={smp['ops']}; unscaled {r['unscaled']['op_ms_p50']:.4f}",
        "op_ms_p90": f"n={smp['ops']}, {smp['beyond_p90']} beyond; "
                     f"unscaled {r['unscaled']['op_ms_p90']:.4f}",
        "fail_share": f"{r['failed']}/{r['attempted']}",
        "setup_s": f"median of {smp['setup_processes']} fresh processes; "
                   f"unscaled {r['unscaled']['setup_s']:.4f}",
        "peak_rss_mb": "ru_maxrss of the untraced worker",
    }
    lines = [f"== {name} (seed {pv['seed']}, {pv['seconds']} s): {pv['why']}",
             f"   ops per kind: {r['op_counts']}"]
    for key in ("ops_per_s", "op_ms_p50", "op_ms_p90", "fail_share",
                "setup_s", "peak_rss_mb"):
        lines.append(f"   {key:<12} {e2e[key]:>12.4f} {units[key]:<6} "
                     f"({notes[key]})")
    if trace:
        lines.append(f"   per layer (counts over the first "
                     f"{r['count_window_ops']} ops; spans in "
                     f"{r['spans_file']}):")
        for metric, unit, _ in tracer.LAYER_METRICS:
            lines.append(f"     {metric:<34} {r['per_layer'][metric]:>14.4f} "
                         f"{unit}")
    lines.append(f"   correct: {r['correct']}; commit {pv['commit']}, "
                 f"src {pv['src_sha256'][:12]}, python {pv['python']}, "
                 f"nproc {pv['nproc']}, held-out seed {pv['held_out_seed']}")
    lines += [f"   problem: {p}" for p in r["problems"]]
    lines += [f"   failed op: {f}" for f in r["failures"]]
    return lines


def check_declared() -> None:
    """BENCHMARK.json must declare exactly the metrics this file reports."""
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return
    spec = json.loads(path.read_text())
    if [m["name"] for m in spec["end_to_end"]] != [n for n, _ in END_TO_END] \
            or [m["name"] for m in spec["per_layer"]] != \
            [n for n, _, _ in tracer.LAYER_METRICS] \
            or [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        raise BenchError("BENCHMARK.json and perfbench disagree on metrics")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "congestlab" / "__init__.py").is_file():
        print(f"error: no congestlab sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        check_declared()
        results = {n: run_workload(n, args.seed, args.seconds,
                                   bool(args.trace)) for n in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    for n, r in results.items():
        for line in report(n, r, bool(args.trace)):
            print(line)
        (OUT / f"result-{n}-seed{args.seed}-trace{args.trace}.json") \
            .write_text(json.dumps(r, indent=1) + "\n")
    if args.trace:
        units = {m: u for m, u, _ in tracer.LAYER_METRICS}
        metrics = {n: {m: {"value": v, "unit": units[m]}
                       for m, v in r["per_layer"].items()}
                   for n, r in results.items()}
    else:
        units = dict(END_TO_END)
        metrics = {n: {m: {"value": r["end_to_end"][m], "unit": units[m]}
                       for m in units} for n, r in results.items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics[names[0]] if len(names) == 1 else metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
