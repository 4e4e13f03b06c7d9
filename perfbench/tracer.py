"""Span tracing installed from outside the library.

``Tracer.install`` replaces selected public functions and methods of
``congestlab`` with wrappers that record one span per call: name, start,
end, parent span, the op the call belongs to, and an optional integer value
read off the call's arguments or result (an attempt count, a length).  A
module-level function is replaced at every module attribute that holds it,
so calls through ``from .x import f`` bindings are seen too.  Nothing under
``src/`` changes; ``uninstall`` puts every original object back.

Spans are kept in memory in flat integer arrays and written out once, at
the end of the traced run.  Wrappers record only while ``recording`` is set,
so the benchmark's own output checks, which also call the library, leave no
spans.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import time
from array import array

OK, ERROR, FALLBACK = 0, 1, 2

# (module, attribute path, span name, value of a call from (args, result))
TARGETS = [
    ("graphs", "TypedTripartiteGraph.neighborhood_vector",
     "graphs.neighborhood_vector", lambda a, r: len(r)),
    ("graphs", "TypedTripartiteGraph.set_type", "graphs.set_type", None),
    ("graphs", "TypedTripartiteGraph.to_json", "graphs.to_json",
     lambda a, r: len(r.encode())),
    ("graphs", "TypedTripartiteGraph.has_triangle", "graphs.has_triangle",
     None),
    ("params", "ParamSchedule.from_json", "params.from_json", None),
    ("params", "feasibility_check", "params.feasibility_check", None),
    ("randomness", "RandomnessView.public_rng", "randomness.tape", None),
    ("randomness", "RandomnessView.pair_rng", "randomness.tape", None),
    ("randomness", "RandomnessView.private_rng", "randomness.tape", None),
    ("randomness", "derive_rng", "randomness.tape", None),
    ("sampling", "sample_gr", "sampling.sample_gr", None),
    ("sampling", "sample_gr_tilde", "sampling.sample_gr_tilde", None),
    ("sampling", "sample_aux", "sampling.sample_aux", None),
    ("sampling", "sample_tilde_input", "sampling.sample_tilde_input", None),
    ("sampling", "sample_d_in", "sampling.sample_d_in", None),
    ("protocols", "vertex_input", "protocols.vertex_input", None),
    ("protocols", "simulate", "protocols.simulate",
     lambda a, r: len(r[0].entries)),
    ("protocols", "Transcript.inbox_of", "protocols.inbox_of", None),
    ("protocols", "VertexInput.partners_at_round",
     "protocols.partners_at_round", None),
    ("elimination", "sample_public_stage", "elimination.public_stage", None),
    ("elimination", "sample_pair_stage", "elimination.pair_stage",
     lambda a, r: r[1]),
    ("elimination", "sample_private_stage", "elimination.private_stage",
     lambda a, r: r.attempts),
    ("elimination", "run_elimination_trials", "elimination.trials", None),
    ("elimination", "hybrid_sampler", "elimination.hybrid_sampler", None),
    ("infotheory", "JointTable.conditional", "infotheory.conditional",
     lambda a, r: len(a[0].table)),
    ("infotheory", "JointTable.marginal", "infotheory.marginal", None),
    ("oracles", "exact_g0_triangle_prob", "oracles.exact", None),
    ("oracles", "zero_round_optimum", "oracles.exact", None),
    ("oracles", "exact_inner_transcript_law", "oracles.exact", None),
    ("oracles", "exact_collision_probability", "oracles.exact", None),
]

MARKER = "_perfbench_span"


def _modules():
    pkg = importlib.import_module("congestlab")
    names = sorted({t[0] for t in TARGETS})
    mods = [pkg] + [importlib.import_module(f"congestlab.{n}") for n in names]
    return mods


def binding_sites() -> list:
    """Every (owner, attribute, object, span, measure) a traced run replaces.

    For methods the owner is the class; for module functions it is each
    ``congestlab`` module whose attribute holds the function.
    """
    mods = _modules()
    sites = []
    for mod_name, path, span, measure in TARGETS:
        mod = importlib.import_module(f"congestlab.{mod_name}")
        if "." in path:
            cls_name, attr = path.split(".")
            owner = getattr(mod, cls_name)
            sites.append((owner, attr, owner.__dict__[attr], span, measure))
            continue
        fn = getattr(mod, path)
        for m in mods:
            for attr, value in list(vars(m).items()):
                if value is fn:
                    sites.append((m, attr, fn, span, measure))
    return sites


def unchanged(sites: list) -> list:
    """Problems: sites whose attribute is no longer its import-time object,
    or holds a tracing wrapper."""
    bad = []
    for owner, attr, obj, _, _ in sites:
        now = vars(owner).get(attr)
        inner = getattr(now, "__func__", now)
        if now is not obj or hasattr(inner, MARKER):
            bad.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    return bad


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.parent = array("q")
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.op = array("q")
        self.value = array("q")
        self.status = array("b")
        self._stack: list[int] = []
        self._patched: list = []
        self.recording = False
        self.current_op = -1

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, nid: int) -> int:
        sid = len(self.name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(nid)
        self.op.append(self.current_op)
        self.value.append(0)
        self.status.append(OK)
        self.end.append(0)
        self._stack.append(sid)
        self.start.append(time.perf_counter_ns())
        return sid

    def finish(self, sid: int, value: int = 0, status: int = OK) -> None:
        self.end[sid] = time.perf_counter_ns()
        self.value[sid] = value
        self.status[sid] = status
        self._stack.pop()

    # -- ops and setup as root spans ----------------------------------------

    def open_root(self, name: str, op_index: int) -> int:
        self.current_op = op_index
        self.recording = True
        return self.begin(self.name_id(name))

    def close_root(self, sid: int, failed: bool) -> None:
        self.finish(sid, 0, ERROR if failed else OK)
        self.recording = False
        self.current_op = -1

    # -- installation ------------------------------------------------------

    def _wrap(self, fn, span: str, measure):
        nid = self.name_id(span)
        tracer = self
        generator = inspect.isgeneratorfunction(fn)

        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            sid = tracer.begin(nid)
            try:
                result = fn(*args, **kwargs)
                if generator:
                    # the span covers the generator's own work only, not the
                    # caller's loop body between items
                    result = iter(list(result))
            except BaseException:
                tracer.finish(sid, 0, ERROR)
                raise
            status = FALLBACK if getattr(result, "fallback_used", False) else OK
            tracer.finish(sid, measure(args, result) if measure else 0, status)
            return result

        traced.__name__ = getattr(fn, "__name__", span)
        traced.__qualname__ = getattr(fn, "__qualname__", span)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        setattr(traced, MARKER, span)
        return traced

    def install(self) -> None:
        for owner, attr, obj, span, measure in binding_sites():
            if isinstance(obj, classmethod):
                new = classmethod(self._wrap(obj.__func__, span, measure))
            else:
                new = self._wrap(obj, span, measure)
            self._patched.append((owner, attr, obj))
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._patched):
            setattr(owner, attr, obj)
        self._patched.clear()

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        """All spans as gzipped JSON lines, after a header naming the
        columns and the span names."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({
                "columns": ["id", "parent", "name", "start_ns", "end_ns",
                            "op", "value", "status"],
                "names": self.names,
                "status": {"0": "ok", "1": "error", "2": "fallback"},
            }) + "\n")
            for i in range(len(self.name)):
                fh.write(f"[{i},{self.parent[i]},{self.name[i]},"
                         f"{self.start[i]},{self.end[i]},{self.op[i]},"
                         f"{self.value[i]},{self.status[i]}]\n")


class SpanTotals:
    """Aggregates over a tracer's spans.

    ``inclusive_ns`` sums spans of the given names that are not nested in
    another span of those names, so a recursive or layered call is counted
    once; ``self_ns`` subtracts the time covered by child spans.
    """

    def __init__(self, tr: Tracer):
        n = len(tr.name)
        self.tr = tr
        self.dur = [tr.end[i] - tr.start[i] for i in range(n)]
        child = [0] * n
        mask = [0] * n
        for i in range(n):
            p = tr.parent[i]
            if p >= 0:
                child[p] += self.dur[i]
                mask[i] = mask[p] | (1 << tr.name[p])
        self.child = child
        self.mask = mask

    def _ids(self, names) -> set:
        return {self.tr._ids[n] for n in names if n in self.tr._ids}

    def inclusive_ns(self, names, setup: bool = False) -> int:
        ids = self._ids(names)
        bits = sum(1 << i for i in ids)
        tr = self.tr
        return sum(
            self.dur[i] for i in range(len(tr.name))
            if tr.name[i] in ids and not self.mask[i] & bits
            and (tr.op[i] < 0) == setup
        )

    def self_ns(self, name) -> int:
        ids = self._ids([name])
        tr = self.tr
        return sum(self.dur[i] - self.child[i] for i in range(len(tr.name))
                   if tr.name[i] in ids and tr.op[i] >= 0)

    def count(self, name, window: int, status=None) -> int:
        ids = self._ids([name])
        tr = self.tr
        return sum(1 for i in range(len(tr.name))
                   if tr.name[i] in ids and 0 <= tr.op[i] < window
                   and (status is None or tr.status[i] == status))

    def value_sum(self, name, window: int) -> int:
        ids = self._ids([name])
        tr = self.tr
        return sum(tr.value[i] for i in range(len(tr.name))
                   if tr.name[i] in ids and 0 <= tr.op[i] < window)

    def spans_in(self, window: int) -> int:
        return sum(1 for o in self.tr.op if 0 <= o < window)


# name, unit, better.  Times in ms/op are summed over the traced run and
# divided by its op count; counts are totals over the run's count window
# (its first ops, the same for every run of a seed) so they repeat exactly.
LAYER_METRICS = [
    ("graphs.vertex_view_ms", "ms/op", "lower"),
    ("graphs.set_type_calls", "count", "lower"),
    ("graphs.set_type_ms", "ms/op", "lower"),
    ("graphs.to_json_ms", "ms/op", "lower"),
    ("graphs.json_bytes", "bytes", "lower"),
    ("graphs.has_triangle_ms", "ms/op", "lower"),
    ("params.load_ms", "ms", "lower"),
    ("randomness.tapes_derived", "count", "lower"),
    ("randomness.derive_ms", "ms/op", "lower"),
    ("sampling.sample_gr_ms", "ms/op", "lower"),
    ("sampling.sample_gr_tilde_ms", "ms/op", "lower"),
    ("sampling.sample_aux_ms", "ms/op", "lower"),
    ("sampling.sample_tilde_input_ms", "ms/op", "lower"),
    ("sampling.tilde_inputs", "count", "lower"),
    ("sampling.sample_d_in_ms", "ms/op", "lower"),
    ("sampling.d_in_draws", "count", "lower"),
    ("protocols.simulate_ms", "ms/op", "lower"),
    ("protocols.inbox_ms", "ms/op", "lower"),
    ("protocols.partners_ms", "ms/op", "lower"),
    ("protocols.messages", "count", "lower"),
    ("protocols.vector_slots", "count", "lower"),
    ("elimination.public_stage_ms", "ms/op", "lower"),
    ("elimination.pair_stage_ms", "ms/op", "lower"),
    ("elimination.private_stage_ms", "ms/op", "lower"),
    ("elimination.pair_attempts", "count", "lower"),
    ("elimination.pair_accepts", "count", "higher"),
    ("elimination.pair_accept_rate", "ratio", "higher"),
    ("elimination.private_attempts", "count", "lower"),
    ("elimination.private_accepts", "count", "higher"),
    ("elimination.private_accept_rate", "ratio", "higher"),
    ("elimination.fallbacks", "count", "lower"),
    ("elimination.trial_ms", "ms", "lower"),
    ("elimination.compiled_run_ms", "ms", "lower"),
    ("elimination.hybrid_draw_ms", "ms", "lower"),
    ("infotheory.conditional_calls", "count", "lower"),
    ("infotheory.conditional_ms", "ms/op", "lower"),
    ("infotheory.marginal_ms", "ms/op", "lower"),
    ("infotheory.rows_scanned", "count", "lower"),
    ("oracles.exact_ms", "ms/op", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_ms", "ms/op", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
]

# the count metrics, which must repeat exactly across runs of one seed
COUNTS = [name for name, unit, _ in LAYER_METRICS
          if unit in ("count", "bytes")]


def layer_metrics(t: SpanTotals, n_ops: int, window: int,
                  kind_ms: dict) -> dict:
    """Every layer metric except the tracing overhead, which needs the
    untraced run too.  ``kind_ms`` is the median traced op time per kind."""

    def per_op(ns):
        return ns / 1e6 / n_ops

    def incl(*names):
        return per_op(t.inclusive_ns(names))

    def rate(accepts, attempts):
        return accepts / attempts if attempts else 0.0

    pair_att = t.value_sum("elimination.pair_stage", window)
    pair_acc = t.count("elimination.pair_stage", window, OK)
    priv_att = t.value_sum("elimination.private_stage", window)
    priv_acc = t.count("elimination.private_stage", window, OK)
    return {
        "graphs.vertex_view_ms": incl("graphs.neighborhood_vector",
                                      "protocols.vertex_input"),
        "graphs.set_type_calls": t.count("graphs.set_type", window),
        "graphs.set_type_ms": incl("graphs.set_type"),
        "graphs.to_json_ms": incl("graphs.to_json"),
        "graphs.json_bytes": t.value_sum("graphs.to_json", window),
        "graphs.has_triangle_ms": incl("graphs.has_triangle"),
        "params.load_ms": t.inclusive_ns(
            ["params.from_json", "params.feasibility_check"], setup=True) / 1e6,
        "randomness.tapes_derived": t.count("randomness.tape", window),
        "randomness.derive_ms": incl("randomness.tape"),
        "sampling.sample_gr_ms": incl("sampling.sample_gr"),
        "sampling.sample_gr_tilde_ms": incl("sampling.sample_gr_tilde"),
        "sampling.sample_aux_ms": incl("sampling.sample_aux"),
        "sampling.sample_tilde_input_ms": incl("sampling.sample_tilde_input"),
        "sampling.tilde_inputs": t.count("sampling.sample_tilde_input", window),
        "sampling.sample_d_in_ms": incl("sampling.sample_d_in"),
        "sampling.d_in_draws": t.count("sampling.sample_d_in", window),
        "protocols.simulate_ms": per_op(t.self_ns("protocols.simulate")),
        "protocols.inbox_ms": incl("protocols.inbox_of"),
        "protocols.partners_ms": incl("protocols.partners_at_round"),
        "protocols.messages": t.value_sum("protocols.simulate", window),
        "protocols.vector_slots": t.value_sum("graphs.neighborhood_vector",
                                              window),
        "elimination.public_stage_ms": per_op(
            t.self_ns("elimination.public_stage")),
        "elimination.pair_stage_ms": per_op(t.self_ns("elimination.pair_stage")),
        "elimination.private_stage_ms": per_op(
            t.self_ns("elimination.private_stage")),
        "elimination.pair_attempts": pair_att,
        "elimination.pair_accepts": pair_acc,
        "elimination.pair_accept_rate": rate(pair_acc, pair_att),
        "elimination.private_attempts": priv_att,
        "elimination.private_accepts": priv_acc,
        "elimination.private_accept_rate": rate(priv_acc, priv_att),
        "elimination.fallbacks": t.count("elimination.private_stage", window,
                                         FALLBACK),
        "elimination.trial_ms": kind_ms.get("trial", 0.0),
        "elimination.compiled_run_ms": kind_ms.get("compiled_run", 0.0),
        "elimination.hybrid_draw_ms": kind_ms.get("hybrid_draw", 0.0),
        "infotheory.conditional_calls": t.count("infotheory.conditional",
                                                window),
        "infotheory.conditional_ms": incl("infotheory.conditional"),
        "infotheory.marginal_ms": incl("infotheory.marginal"),
        "infotheory.rows_scanned": t.value_sum("infotheory.conditional",
                                               window),
        "oracles.exact_ms": incl("oracles.exact"),
        "trace.spans": t.spans_in(window),
    }
