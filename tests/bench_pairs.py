"""Paired benchmark runs of two checkouts, summarised as ``BENCH_<pr>.json``.

Usage, from the repository root::

    python tests/bench_pairs.py --parent DIR --change DIR --pr N \
        [--workload W ...]

For each workload (every one in the change's ``BENCHMARK.json`` unless
``--workload`` names some) it runs, 10 times on each checkout::

    python3 perfbench/run.py --workload W --trace 0

inside that checkout, at perfbench's default seed and run length, one run of
each side back to back, alternating which side runs first.  It reads each
run's last stdout line (the JSON object with ``correct``, ``failed`` and
``metrics``) and the ``provenance`` of the result file the run writes under
``perfbench/out/``, and writes ``BENCH_<pr>.json`` in the current directory:
both commits, both ``src`` hashes, the seed, each metric's median and
quartiles per side, the pairs in which the change did better, whether it
is worse than its bound or unresolved (see ``workload_entry``), and every
run's values.  Bounds and directions come from the change's
``BENCHMARK.json``.  Standard library only; pytest does not collect this
file, and it writes nothing inside either checkout except what
``perfbench/run.py`` itself writes there.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
PAIRS = 10


def run_once(root: Path, workload: str) -> tuple:
    """The run's stdout summary and the provenance perfbench recorded."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--trace", "0"], cwd=root, capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"error: {root}: perfbench exited "
                         f"{done.returncode}: {done.stderr[-2000:]}")
    written = max((root / "perfbench" / "out").glob(
        f"result-{workload}-seed*-trace0.json"),
        key=lambda path: path.stat().st_mtime)
    provenance = json.loads(written.read_text())["provenance"]
    return json.loads(done.stdout.strip().splitlines()[-1]), provenance


def uncommitted(root: Path) -> bool:
    """Whether ``src`` differs from the checkout's HEAD."""
    return bool(subprocess.run(
        ["git", "status", "--porcelain", "--", "src"], cwd=root,
        capture_output=True, text=True).stdout.strip())


def one_or_all(values):
    """The value all runs recorded, or every distinct one when they differ."""
    got = sorted(set(values), key=str)
    return got[0] if len(got) == 1 else got


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def workload_entry(name: str, runs: dict, spec: dict) -> dict:
    """One workload's pairs: ``runs[side]`` lists run results in pair order.

    Per metric, ``worse_than_bound`` says whether the change's median is
    worse than the parent's by more than the bound, as a share of the
    parent's median.  ``unresolved`` says whether the parent's own spread,
    (q3 - q1) / median, exceeds the bound while some change run does not
    beat every parent run, so that the medians cannot show "no worse".
    """
    metrics = {}
    for m in spec["end_to_end"]:
        values = {side: [r["metrics"][m["name"]]["value"] for r in runs[side]]
                  for side in SIDES}
        sign = 1 if m["better"] == "higher" else -1
        stats = {side: summary(values[side]) for side in SIDES}
        parent = stats["parent"]
        beats_every_run = (min(sign * c for c in values["change"])
                           > max(sign * p for p in values["parent"]))
        metrics[m["name"]] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            **stats,
            "change_better_in_pairs": sum(
                sign * (c - p) > 0
                for p, c in zip(values["parent"], values["change"])),
            "worse_than_bound": sign * (parent["median"]
                                        - stats["change"]["median"])
            > m["bound"] * parent["median"],
            "unresolved": (parent["q3"] - parent["q1"])
            > m["bound"] * parent["median"] and not beats_every_run,
            "values": values,
        }
    return {"workload": name, "pairs": len(runs["parent"]),
            "all_correct": all(r["correct"] for side in SIDES
                               for r in runs[side]),
            "failed_ops": {side: sum(r["failed"] for r in runs[side])
                           for side in SIDES},
            "metrics": metrics}


def main(argv: list) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--pr", type=int, required=True)
    ap.add_argument("--workload", action="append", dest="workloads")
    args = ap.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    entries, provenances = [], {side: [] for side in SIDES}
    for name in args.workloads or [w["name"] for w in spec["workloads"]]:
        runs = {side: [] for side in SIDES}
        for i in range(PAIRS):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                result, provenance = run_once(roots[side], name)
                runs[side].append(result)
                provenances[side].append(provenance)
                print(f"{name} pair {i + 1}/{PAIRS} {side}: "
                      f"{result['metrics']['ops_per_s']['value']:.1f} ops/s",
                      file=sys.stderr)
        entries.append(workload_entry(name, runs, spec))
    recorded = {key: {side: one_or_all(pv[key] for pv in provenances[side])
                      for side in SIDES}
                for key in ("commit", "src_sha256", "seed", "seconds",
                            "python", "nproc")}
    commit = {side: f"{recorded['commit'][side]}+uncommitted"
              if uncommitted(roots[side]) else recorded["commit"][side]
              for side in SIDES}
    out = {
        "pr": args.pr,
        "assembled": "by tests/bench_pairs.py from the last JSON line and "
                     "the result file's provenance of each perfbench run",
        "parent_commit": commit["parent"],
        "commit": commit["change"],
        "src_sha256": recorded["src_sha256"],
        "host": {"python": recorded["python"], "nproc": recorded["nproc"],
                 "note": "times scaled by perfbench/hostprobe.py"},
        "command": "python3 perfbench/run.py --workload <workload> --trace 0",
        "seed": recorded["seed"],
        "run_seconds": recorded["seconds"],
        "pairing": "parent and change run back to back, alternating which "
                   "runs first; pair i starts with the parent when i is odd",
        "quartiles": "statistics.quantiles(n=4, method='inclusive') over the "
                     "runs of one side",
        "runs": entries,
    }
    path = Path(f"BENCH_{args.pr}.json")
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
