"""The benchmark in ``perfbench/`` wraps library attributes by name and
calls the library the way its workloads do; every binding must still
resolve and every workload's calls must still run, or every benchmark run
crashes."""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(PERFBENCH))


def load_tracer():
    return load_perfbench("tracer")


def test_binding_sites_resolve_every_target():
    tracer = load_tracer()
    sites = tracer.binding_sites()
    for mod_name, path, span, _ in tracer.TARGETS:
        mod = importlib.import_module(f"congestlab.{mod_name}")
        if "." in path:
            cls_name, attr = path.split(".")
            found = [s for s in sites if s[0] is getattr(mod, cls_name)
                     and s[1] == attr]
        else:
            found = [s for s in sites if s[0] is mod and s[1] == path]
        assert found, f"{mod_name}.{path} ({span}) has no binding site"
    assert tracer.unchanged(sites) == []


WORKLOADS = ["round-elim", "estimate-success", "gen-restructured",
             "verify-info"]


@pytest.mark.parametrize("name", WORKLOADS)
def test_first_cycle_of_each_workload_passes_its_checks(name):
    # the library calls a benchmark run makes: set-up, the check
    # references, one whole cycle of ops with their output checks
    workloads = load_perfbench("workloads")
    assert sorted(workloads.WORKLOADS) == sorted(WORKLOADS)
    wl = workloads.WORKLOADS[name](1)
    before = set((PERFBENCH / "out").glob("gen-*"))
    try:
        wl.setup()
        wl.prepare_checks()
        ops = next(wl.cycles())
        assert ops
        for op in ops:
            assert op.check(op.run()) == [], op.kind
    finally:
        wl.close()
    # no directory left behind (one from an earlier run may share our pid)
    assert set((PERFBENCH / "out").glob("gen-*")) <= before
