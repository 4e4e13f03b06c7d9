"""One benchmark process: set up a workload, run its ops, check the outputs.

``run.py`` starts this file in a fresh single-threaded interpreter with the
checkout's ``src`` on ``PYTHONPATH``; it prints one JSON object on stdout.

    worker.py --workload NAME --seed N --seconds S [--trace] [--setup-only]
              [--max-ops K] [--spans FILE]

``--setup-only`` stops after set-up and reports the moment set-up ended on
the system-wide monotonic clock, so the parent can time set-up from before
it started the process.  ``--trace`` installs the span wrappers first and
reports per-layer metrics; ``--max-ops`` stops after exactly K ops, which
the parent uses to replay a run's count window.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time

import hostprobe
import tracer
import workloads

MIN_OPS = 100  # a p90 needs at least ten ops beyond it
PROBE_EVERY_S = 0.05  # host-speed probe cadence; probes take ~7% of the run


def run(args) -> dict:
    sites = None if args.setup_only else tracer.binding_sites()
    wl = workloads.WORKLOADS[args.workload](args.seed)
    tr = None
    if args.trace:
        tr = tracer.Tracer()
        tr.install()
        root = tr.open_root("setup", -1)
    wl.setup()
    if tr:
        tr.close_root(root, False)
    stamp = time.clock_gettime(time.CLOCK_MONOTONIC)
    if args.setup_only:
        return {"setup_stamp": stamp}

    wl.prepare_checks()
    kinds, op_kind, op_ns, op_cycle = [], [], [], []
    failures, kept = [], {}
    deadline = time.perf_counter() + args.seconds
    index = 0
    # (index of the next op, probe ms), bracketing every op
    probes = [(0, hostprobe.probe_ms())]
    next_probe = time.perf_counter() + PROBE_EVERY_S
    try:
        for cycle, ops in enumerate(wl.cycles()):
            for op in ops:
                if tr:
                    root = tr.open_root("op:" + op.kind, index)
                t0 = time.perf_counter_ns()
                try:
                    out, err = op.run(), None
                except Exception as exc:  # a raising op is a failed op
                    out, err = None, f"raised {type(exc).__name__}: {exc}"
                t1 = time.perf_counter_ns()
                if tr:
                    tr.close_root(root, err is not None)
                problems = [err] if err else op.check(out)
                if problems:
                    failures.append({"op": index, "kind": op.kind,
                                     "problems": problems[:5]})
                else:
                    kept.setdefault(op.kind, out)
                if op.kind not in kinds:
                    kinds.append(op.kind)
                op_kind.append(kinds.index(op.kind))
                op_ns.append(t1 - t0)
                op_cycle.append(cycle)
                index += 1
                if time.perf_counter() >= next_probe:
                    probes.append((index, hostprobe.probe_ms()))
                    next_probe = time.perf_counter() + PROBE_EVERY_S
                if args.max_ops and index >= args.max_ops:
                    break
            if args.max_ops:
                if index >= args.max_ops:
                    break
            elif time.perf_counter() >= deadline and index >= MIN_OPS:
                break

        if probes[-1][0] != index:
            probes.append((index, hostprobe.probe_ms()))
        run_problems = wl.run_problems()
        selftest = [{"corruption": label, "rejected": bool(problems)}
                    for label, problems in wl.corruptions(kept)]
    finally:
        wl.close()
    if tr:
        tr.uninstall()
    result = {
        "kinds": kinds, "op_kind": op_kind, "op_ns": op_ns,
        "op_cycle": op_cycle, "probes": probes, "failures": failures,
        "run_problems": run_problems, "selftest": selftest,
        "wrapper_problems": tracer.unchanged(sites),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tr:
        window = min(wl.count_window, index)
        kind_ms = {k: statistics.median(
            ns / 1e6 for ns, ki in zip(op_ns, op_kind) if kinds[ki] == k)
            for k in kinds}
        result["count_window"] = window
        result["layers"] = tracer.layer_metrics(
            tracer.SpanTotals(tr), index, window, kind_ms)
        result["run_problems"] += wl.trace_problems(result["layers"], window)
        if args.spans:
            tr.write(args.spans)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--max-ops", type=int, default=0)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
