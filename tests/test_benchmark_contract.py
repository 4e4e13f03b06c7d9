"""The benchmark in ``perfbench/`` wraps library attributes by name; every
one of them must still resolve, or every benchmark workload crashes."""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_tracer():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("tracer")
    finally:
        sys.path.remove(str(PERFBENCH))


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
