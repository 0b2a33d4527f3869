"""Spans around the compiler's public calls, for the traced run.

`Tracer.install` replaces each traced function or method, in every dqcmap
module that binds it, with a wrapper that records a span: name, start, end,
parent span and job id. Spans live in flat arrays, so a wrapper keeps no
reference to any argument or result once the call returns; `uninstall` puts
the originals back. Per-layer metrics are computed from the spans afterwards,
and a few counters are read from return values inside the wrappers.
"""
from __future__ import annotations

import inspect
import json
import os
import sys
from array import array
from time import perf_counter

# (module, attribute path) of every traced call. Nested calls through a
# module global or through `self` reach the wrapper too.
TRACED = (
    ("circuit", "parse_qasm"),
    ("circuit", "layerize"),
    ("segmentation", "segment"),
    ("segmentation", "random_segment"),
    ("placement", "cluster_graph"),
    ("placement", "repair_capacity"),
    ("placement", "random_placement"),
    ("cost", "SegmentCostEvaluator.__init__"),
    ("cost", "SegmentCostEvaluator.breakdown"),
    ("cost", "SegmentCostEvaluator.delta"),
    ("cost", "SegmentCostEvaluator.layout_and_local"),
    ("cost", "_greedy_layout"),
    ("anneal", "compile"),
    ("anneal", "anneal_segment"),
    ("anneal", "calibrate_t0"),
    ("anneal", "replay_epr"),
    ("hardware", "load_cluster"),
    ("harness", "run_map"),
    ("harness", "run_ablate"),
    ("harness", "render_json"),
)

# Per-layer metric -> unit, in report order.
LAYER_METRICS = {
    "cost.delta_calls": "count", "cost.delta_s": "s",
    "cost.breakdown_calls": "count", "cost.breakdown_s": "s",
    "cost.layout_lookups": "count", "cost.layout_keys": "count",
    "cost.layout_hit_ratio": "ratio", "cost.layout_s": "s",
    "cost.evaluators": "count",
    "anneal.compile_calls": "count", "anneal.compile_s": "s",
    "anneal.segment_s": "s", "anneal.self_s": "s", "anneal.calibrate_t0_s": "s",
    "anneal.iterations": "count", "anneal.accept_ratio": "ratio",
    "anneal.uphill_accepts": "count",
    "segmentation.segments": "count", "placement.initial_cut": "weight",
    "placement.random_placement_calls": "count", "placement.random_placement_s": "s",
    "circuit.layerize_calls": "count", "circuit.layerize_s": "s",
    "segmentation.segment_calls": "count", "segmentation.segment_s": "s",
    "segmentation.random_segment_s": "s",
    "placement.cluster_graph_s": "s", "placement.repair_capacity_s": "s",
    "anneal.replay_epr_s": "s", "harness.baseline_s": "s", "harness.render_json_s": "s",
    "hardware.remote_ops": "count", "hardware.teleports": "count",
    "circuit.parse_qasm_s": "s", "hardware.load_cluster_s": "s",
    "trace.overhead_s": "s",
}

# Roles of a compile call, which become part of its span name.
FULL, BASELINE, ARM = "anneal.compile:full", "anneal.compile:baseline", "anneal.compile:arm"


def _compile_role(bound: inspect.BoundArguments) -> str:
    args = bound.arguments
    if args["initial"] == "random" and not args["do_anneal"]:
        return BASELINE
    if args["initial"] == "cluster" and args["do_anneal"] and args["segmentation_mode"] == "pattern":
        return FULL
    return ARM


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.job = array("H")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.job_id = 0
        self.counters: dict[str, float] = {}
        self._saved: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _wrap(self, span_name: str, fn):
        """A wrapper recording one span per call. Records are appended before
        the clock starts and the clock stops before the span is closed, so
        the bookkeeping falls outside the span."""
        ids, stack = self._ids, self.stack
        n_app, p_app, j_app = self.name.append, self.parent.append, self.job.append
        s_app, e_app = self.start.append, self.end.append
        starts, ends = self.start, self.end
        role = self._role if span_name == "anneal.compile" else None
        fixed = None if role else self._id(span_name)

        def traced(*args, **kwargs):
            nid = ids[role(fn, args, kwargs)] if role else fixed
            i = len(starts)
            n_app(nid)
            p_app(stack[-1])
            j_app(self.job_id)
            e_app(0.0)
            stack.append(i)
            s_app(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _role(self, fn, args, kwargs) -> str:
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        return _compile_role(bound)

    def _replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, modules: dict) -> None:
        """Wrap every TRACED call of the freshly imported dqcmap `modules`."""
        for role in (FULL, BASELINE, ARM):
            self._id(role)
        dqc = [m for name, m in sys.modules.items() if name.split(".")[0] == "dqcmap"]
        for mod_name, path in TRACED:
            mod = modules[mod_name]
            span_name = f"{mod_name}.{path}"
            if "." in path:  # a method: patch the class once
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name)
                self._replace(cls, meth, self._wrap(span_name, cls.__dict__[meth]))
                continue
            fn = getattr(mod, path)
            wrapper = self._wrap(span_name, fn)
            wrapper = self._hooks(path, fn, wrapper, modules)
            for m in dqc:
                for attr, val in list(vars(m).items()):
                    if val is fn:
                        self._replace(m, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def _hooks(self, path: str, fn, wrapper, modules):
        """Counters read from a call's arguments or result, taken inside the
        wrapper so that nothing is kept once the call returns."""
        if path == "replay_epr":
            def replay(*args, **kwargs):
                switch = wrapper(*args, **kwargs)
                self.count("hardware.remote_ops", switch.remote_ops)
                self.count("hardware.teleports", switch.teleports)
                return switch
            return replay
        if path == "cluster_graph":
            edge_cut = modules["placement"].edge_cut

            def cluster(*args, **kwargs):
                result = wrapper(*args, **kwargs)
                if self.stack[-1] >= 0 and self.names[self.name[self.stack[-1]]] == FULL:
                    graph = inspect.signature(fn).bind(*args, **kwargs).arguments["g"]
                    self.count("placement.initial_cut", edge_cut(graph, result))
                return result
            return cluster
        if path == "anneal_segment" and "trace" in inspect.signature(fn).parameters:
            def anneal(*args, **kwargs):
                if "trace" in kwargs or len(args) > 6:
                    return wrapper(*args, **kwargs)
                steps: list = []
                result = wrapper(*args, trace=steps, **kwargs)
                self.count("anneal.iterations", len(steps))
                self.count("anneal.accepts", sum(1 for s in steps if s.accepted))
                self.count("anneal.uphill_accepts",
                           sum(1 for s in steps if s.accepted and s.delta_e > 0))
                return result
            return anneal
        return wrapper

    # -- after the run ---------------------------------------------------------

    def span_totals(self, first: int = 0, last: int | None = None) -> dict[str, list[float]]:
        """name -> [calls, inclusive seconds, self seconds] over spans
        first..last-1; self time is the span minus its direct children."""
        last = len(self.start) if last is None else last
        child = [0.0] * (last - first)
        dur = [self.end[i] - self.start[i] for i in range(first, last)]
        for k, i in enumerate(range(first, last)):
            p = self.parent[i]
            if p >= first:
                child[p - first] += dur[k]
        out: dict[str, list[float]] = {}
        for k, i in enumerate(range(first, last)):
            row = out.setdefault(self.names[self.name[i]], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur[k]
            row[2] += dur[k] - child[k]
        return out

    def baseline_seconds(self, first: int = 0, last: int | None = None) -> float:
        """Baseline compiles called by run_map itself."""
        last = len(self.start) if last is None else last
        base, run_map = self._ids[BASELINE], self._ids.get("harness.run_map", -1)
        return sum(self.end[i] - self.start[i] for i in range(first, last)
                   if self.name[i] == base and self.parent[i] >= 0
                   and self.name[self.parent[i]] == run_map)

    def write(self, path: str, meta: dict) -> None:
        """Spans as raw arrays, one per field, after one JSON header line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        arrays = (("name", self.name), ("parent", self.parent), ("job", self.job),
                  ("start", self.start), ("end", self.end))
        header = dict(meta, names=self.names, spans=len(self.start), byteorder=sys.byteorder,
                      fields=[[k, a.typecode, a.itemsize] for k, a in arrays])
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for _, a in arrays:
                a.tofile(f)


def layer_metrics(totals: dict[str, list[float]], counters: dict[str, float],
                  baseline_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass (setup spans and trace.overhead_s
    are added by the caller)."""
    def calls(name):
        return totals.get(name, [0, 0.0, 0.0])[0]

    def incl(name):
        return totals.get(name, [0, 0.0, 0.0])[1]

    compiles = [r for n, r in totals.items() if n.startswith("anneal.compile:")]
    lookups = calls("cost.SegmentCostEvaluator.layout_and_local")
    keys = calls("cost._greedy_layout")
    iters = counters.get("anneal.iterations", 0)
    return {
        "cost.delta_calls": calls("cost.SegmentCostEvaluator.delta"),
        "cost.delta_s": incl("cost.SegmentCostEvaluator.delta"),
        "cost.breakdown_calls": calls("cost.SegmentCostEvaluator.breakdown"),
        "cost.breakdown_s": incl("cost.SegmentCostEvaluator.breakdown"),
        "cost.layout_lookups": lookups,
        "cost.layout_keys": keys,
        "cost.layout_hit_ratio": 1.0 - keys / lookups if lookups else 0.0,
        "cost.layout_s": incl("cost.SegmentCostEvaluator.layout_and_local"),
        "cost.evaluators": calls("cost.SegmentCostEvaluator.__init__"),
        "anneal.compile_calls": sum(r[0] for r in compiles),
        "anneal.compile_s": sum(r[1] for r in compiles),
        "anneal.segment_s": incl("anneal.anneal_segment"),
        "anneal.self_s": totals.get("anneal.anneal_segment", [0, 0.0, 0.0])[2],
        "anneal.calibrate_t0_s": incl("anneal.calibrate_t0"),
        "anneal.iterations": iters,
        "anneal.accept_ratio": counters.get("anneal.accepts", 0) / iters if iters else 0.0,
        "anneal.uphill_accepts": counters.get("anneal.uphill_accepts", 0),
        "placement.initial_cut": counters.get("placement.initial_cut", 0.0),
        "placement.random_placement_calls": calls("placement.random_placement"),
        "placement.random_placement_s": incl("placement.random_placement"),
        "circuit.layerize_calls": calls("circuit.layerize"),
        "circuit.layerize_s": incl("circuit.layerize"),
        "segmentation.segment_calls": calls("segmentation.segment"),
        "segmentation.segment_s": incl("segmentation.segment"),
        "segmentation.random_segment_s": incl("segmentation.random_segment"),
        "placement.cluster_graph_s": incl("placement.cluster_graph"),
        "placement.repair_capacity_s": incl("placement.repair_capacity"),
        "anneal.replay_epr_s": incl("anneal.replay_epr"),
        "harness.baseline_s": baseline_s,
        "harness.render_json_s": incl("harness.render_json"),
        "hardware.remote_ops": counters.get("hardware.remote_ops", 0),
        "hardware.teleports": counters.get("hardware.teleports", 0),
    }
