"""``bench_pairs.workload_entry`` computes each metric's no-regression
verdict from the runs, so no BENCH file is read by hand."""

from bench_pairs import workload_entry

SPEC = {"end_to_end": [
    {"name": "ops_per_s", "unit": "ops/s", "better": "higher", "bound": 0.2},
    {"name": "op_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]}


def runs(**values):
    """Run results with one value per metric and run, ``values[name]`` a
    list in pair order."""
    count = len(next(iter(values.values())))
    return [{"correct": True, "failed": 0,
             "metrics": {name: {"value": vs[i]} for name, vs in values.items()}}
            for i in range(count)]


def test_workload_entry_computes_each_verdict():
    parent = runs(ops_per_s=[100, 101, 99, 100, 102],
                  op_ms_p50=[10, 10, 11, 10, 10],
                  setup_s=[1.0, 2.0, 1.0, 2.0, 1.5],
                  peak_rss_mb=[40, 60, 40, 60, 50])
    change = runs(ops_per_s=[98, 99, 100, 97, 101],  # 1% worse: clean
                  op_ms_p50=[13, 14, 13, 13, 14],  # 30% worse, bound 25%
                  # the parent's spread is 67%, the change's own is narrow
                  setup_s=[1.5, 1.5, 1.4, 1.6, 1.5],
                  # spread 40%, but every change run beats every parent run
                  peak_rss_mb=[35, 36, 37, 38, 39])
    entry = workload_entry("w", {"parent": parent, "change": change}, SPEC)
    verdicts = {name: (m["worse_than_bound"], m["unresolved"])
                for name, m in entry["metrics"].items()}
    assert verdicts == {"ops_per_s": (False, False),
                        "op_ms_p50": (True, False),
                        "setup_s": (False, True),
                        "peak_rss_mb": (False, False)}
    # the existing keys stay
    assert set(entry["metrics"]["ops_per_s"]) >= {
        "unit", "better", "bound", "parent", "change",
        "change_better_in_pairs", "values"}

