"""Span tracing from outside the program: wrappers around public calls.

The traced run (``--trace 1``) installs :func:`install` once per process.
Every wrapped call becomes a span ``(id, parent, layer, start, end)``; the
parent is the innermost open span *of the same asyncio task* (a
``ContextVar``), so request handlers interleaving across ``await`` points
never adopt each other's spans.  A replay holds millions of spans, so the
tracer aggregates per layer as spans close and keeps only the first
:data:`KEEP_SPANS` in full for the trace file:

* self time = duration - time covered by child spans, summed per layer
  (and separately over the kept spans, for :func:`accounting`);
* per-layer counts of *outermost* calls (a call nested in a span of the
  same layer, such as ``super().decide``, is not counted twice);
* per-method call counts, and per-call durations for the few methods whose
  p50/p99 are reported.

Nothing here changes arguments or results: wrappers only read the clock.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import itertools
from collections import Counter, defaultdict
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional

from perfbench.stats import percentile, self_times

#: Spans kept in full (the rest are only aggregated).
KEEP_SPANS = 20_000

#: Methods whose per-call durations are kept for p50/p99.
SAMPLED = frozenset({
    "VerificationHarness.checkpoint",
    "ServeEngine.submit",
})


class _Span:
    __slots__ = ("sid", "layer", "child_ns")

    def __init__(self, sid: int, layer: str) -> None:
        self.sid = sid
        self.layer = layer
        self.child_ns = 0


class Tracer:
    """Per-layer span aggregation (see module docstring)."""

    def __init__(self) -> None:
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None)
        #: Shared id of the invocation, cell or request being traced.
        self.group: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_group", default=None)
        self._ids = itertools.count(1)
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.kept_self_ns: Dict[str, int] = defaultdict(int)
        self.calls: Counter = Counter()
        self.method_calls: Counter = Counter()
        self.method_incl_ns: Dict[str, int] = defaultdict(int)
        self.hits: Counter = Counter()
        self.samples: Dict[str, List[int]] = defaultdict(list)
        self.root_ns = 0
        self.spans: List[tuple] = []

    # -- span bookkeeping --------------------------------------------------
    def _open(self, layer: str):
        parent = self._current.get()
        span = _Span(next(self._ids), layer)
        return parent, span, self._current.set(span)

    def _close(self, parent: Optional[_Span], span: _Span, token,
               name: str, start: int, end: int) -> None:
        self._current.reset(token)
        dur = end - start
        layer = span.layer
        self.self_ns[layer] += dur - span.child_ns
        if parent is None:
            self.root_ns += dur
            self.calls[layer] += 1
        else:
            parent.child_ns += dur
            if parent.layer != layer:
                self.calls[layer] += 1
        self.method_calls[name] += 1
        self.method_incl_ns[name] += dur
        if name in SAMPLED:
            self.samples[name].append(dur)
        if len(self.spans) < KEEP_SPANS:
            self.kept_self_ns[layer] += dur - span.child_ns
            self.spans.append((
                span.sid, parent.sid if parent is not None else None,
                layer, start, end, name, self.group.get(),
            ))

    def wrap(self, layer: str, name: str, fn: Callable,
             on_result: Optional[Callable[[object], None]] = None
             ) -> Callable:
        """Return ``fn`` wrapped in a span of ``layer`` (sync or async)."""
        tracer = self
        if asyncio.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                parent, span, token = tracer._open(layer)
                start = perf_counter_ns()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    tracer._close(parent, span, token, name, start,
                                  perf_counter_ns())
            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent, span, token = tracer._open(layer)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(parent, span, token, name, start,
                              perf_counter_ns())
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    # -- output --------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Aggregates as plain JSON-able data (what the server writes out)."""
        return {
            "self_ns": dict(self.self_ns),
            "kept_self_ns": dict(self.kept_self_ns),
            "calls": dict(self.calls),
            "method_calls": dict(self.method_calls),
            "method_incl_ns": dict(self.method_incl_ns),
            "hits": dict(self.hits),
            "samples": {k: list(v) for k, v in self.samples.items()},
            "root_ns": self.root_ns,
            "n_spans_kept": len(self.spans),
        }


#: ``(module, "Class.method" or "function", layer)`` wrapped by
#: :func:`install`.  Functions imported by name elsewhere are patched in
#: every listed module namespace.
POINTS = [
    ("repro.cluster.eventloop", "EventLoop.schedule", "cluster.eventloop"),
    ("repro.cluster.eventloop", "EventLoop.pop_next", "cluster.eventloop"),
    ("repro.cluster.simulator", "ClusterSimulator.run_stream",
     "cluster.simulator"),
    ("repro.cluster.simulator", "ClusterSimulator.run", "cluster.simulator"),
    ("repro.cluster.simulator", "ClusterSimulator.offer",
     "cluster.simulator"),
    ("repro.cluster.simulator", "ClusterSimulator.next_decision_point",
     "cluster.simulator"),
    ("repro.cluster.simulator", "ClusterSimulator.apply_decision",
     "cluster.simulator"),
    ("repro.cluster.simulator", "ClusterSimulator.pump_until",
     "cluster.simulator"),
    ("repro.cluster.simulator", "ClusterSimulator.finish",
     "cluster.simulator"),
    ("repro.cluster.pool", "PoolSet.best_match", "cluster.pool"),
    ("repro.cluster.pool", "PoolSet.lru_order", "cluster.pool"),
    ("repro.cluster.pool", "PoolSet.match_depth_counts", "cluster.pool"),
    ("repro.cluster.pool", "PoolSet.exact_matches", "cluster.pool"),
    ("repro.cluster.pool", "PoolSet.add", "cluster.pool"),
    ("repro.cluster.pool", "PoolSet.remove", "cluster.pool"),
    ("repro.cluster.pool", "PoolSet.expire_older_than", "cluster.pool"),
    ("repro.cluster.pool", "WarmPool.best_match", "cluster.pool"),
    ("repro.cluster.pool", "WarmPool.best_exact", "cluster.pool"),
    ("repro.cluster.pool", "WarmPool.exact_matches", "cluster.pool"),
    ("repro.cluster.pool", "WarmPool.best_at_level", "cluster.pool"),
    ("repro.cluster.pool", "WarmPool.add", "cluster.pool"),
    ("repro.cluster.pool", "WarmPool.remove", "cluster.pool"),
    ("repro.cluster.pool", "WarmPool.touch", "cluster.pool"),
    ("repro.cluster.pool", "WarmPool.lru_order", "cluster.pool"),
    ("repro.cluster.pool", "WarmPool.expire_older_than", "cluster.pool"),
    ("repro.cluster.lifecycle", "ContainerLifecycle.create",
     "cluster.lifecycle"),
    ("repro.cluster.lifecycle", "ContainerLifecycle.claim",
     "cluster.lifecycle"),
    ("repro.cluster.lifecycle", "ContainerLifecycle.repack",
     "cluster.lifecycle"),
    ("repro.cluster.lifecycle", "ContainerLifecycle.prewarm",
     "cluster.lifecycle"),
    ("repro.cluster.lifecycle", "ContainerLifecycle.lend",
     "cluster.lifecycle"),
    ("repro.cluster.lifecycle", "ContainerLifecycle.keep_alive",
     "cluster.lifecycle"),
    ("repro.cluster.lifecycle", "ContainerLifecycle.expire_ttl",
     "cluster.lifecycle"),
    ("repro.cluster.lifecycle", "ContainerLifecycle.destroy",
     "cluster.lifecycle"),
    ("repro.containers.costmodel", "StartupCostModel.breakdown",
     "containers.costmodel"),
    ("repro.containers.costmodel", "StartupCostModel.delta_breakdown",
     "containers.costmodel"),
    ("repro.cluster.placement", "PlacementEngine.admit", "cluster.placement"),
    ("repro.cluster.placement", "PlacementEngine.queue_depths",
     "cluster.placement"),
    ("repro.cluster.placement", "PlacementEngine.place", "cluster.placement"),
    ("repro.cluster.placement", "PlacementEngine.release",
     "cluster.placement"),
    ("repro.cluster.telemetry", "Telemetry.record_invocation_values",
     "cluster.telemetry"),
    ("repro.cluster.telemetry", "BoundedTelemetry.record_invocation_values",
     "cluster.telemetry"),
    ("repro.cluster.telemetry", "Telemetry.sample_live_memory",
     "cluster.telemetry"),
    ("repro.cluster.telemetry", "Telemetry.summary", "cluster.telemetry"),
    ("repro.cluster.telemetry", "BoundedTelemetry.summary",
     "cluster.telemetry"),
    ("repro.cluster.telemetry", "Telemetry.record_prewarm_issue",
     "cluster.telemetry"),
    ("repro.cluster.telemetry", "Telemetry.record_prewarm_reuse",
     "cluster.telemetry"),
    ("repro.workloads.fstartbench", "build_workload", "workloads"),
    ("repro.experiments.parallel", "build_workload", "workloads"),
    ("repro.cluster.lanes", "LaneKernel.run", "cluster.lanes"),
    ("repro.cluster.lanes", "ArrivalTable.__init__", "cluster.lanes"),
    ("repro.cluster.lanes", "run_stream_lanes", "cluster.lanes"),
    ("repro.experiments.parallel", "run_grid", "experiments.parallel"),
    ("repro.experiments.parallel", "default_grid",
     "experiments.parallel.sizing"),
    ("repro.verify.invariants", "VerificationHarness.checkpoint",
     "verify.invariants"),
    ("repro.serve.engine", "ServeEngine.submit", "serve.engine"),
    ("repro.serve.engine", "ServeEngine.pump", "serve.engine.pump"),
    ("repro.serve.janitor", "Janitor.tick", "serve.janitor"),
    ("repro.serve.recorder", "DecisionRecorder.on_decision",
     "serve.recorder"),
    ("repro.serve.recorder", "DecisionRecorder.on_swap", "serve.recorder"),
    ("repro.serve.stats", "ServeStats.on_decision", "serve.stats"),
    ("repro.serve.stats", "ServeStats.on_wall_latency", "serve.stats"),
    ("repro.serve.stats", "ServeStats.on_tick", "serve.stats"),
    ("repro.serve.router", "read_request", "serve.router.parse"),
    ("repro.serve.server", "read_request", "serve.router.parse"),
    ("repro.serve.router", "Router.dispatch", "serve.router.dispatch"),
    ("repro.serve.admission", "AdmissionController.acquire",
     "serve.admission"),
]


def _count_hit(tracer: Tracer, name: str) -> Callable[[object], None]:
    def on_result(result: object) -> None:
        if result is not None:
            tracer.hits[name] += 1
    return on_result


def install(tracer: Tracer) -> int:
    """Wrap every point of :data:`POINTS` and every scheduler ``decide``.

    Returns the number of wrapped callables.  Call once per process,
    before the program builds its objects.
    """
    import importlib

    import repro.schedulers as schedulers
    from repro.experiments.parallel import SCHEDULER_FACTORIES

    n = 0
    for module_name, path, layer in POINTS:
        module = importlib.import_module(module_name)
        if "." in path:
            cls_name, attr = path.split(".")
            owner = getattr(module, cls_name)
            fn = owner.__dict__[attr]
        else:
            owner, attr = module, path
            fn = getattr(module, attr)
        hook = (_count_hit(tracer, path)
                if path == "PoolSet.best_match" else None)
        setattr(owner, attr, tracer.wrap(layer, path, fn, hook))
        n += 1
    seen = set()
    for class_name in SCHEDULER_FACTORIES.values():
        for cls in getattr(schedulers, class_name).__mro__:
            if "decide" in cls.__dict__ and cls not in seen:
                seen.add(cls)
                fn = cls.__dict__["decide"]
                if getattr(fn, "__isabstractmethod__", False):
                    continue
                cls.decide = tracer.wrap(
                    "schedulers", f"{cls.__name__}.decide", fn)
                n += 1
    return n


class TracedIter:
    """Iterator proxy timing each ``next()`` of an arrival stream as a
    ``workloads`` span; keeps the stream's ``name`` for the simulator."""

    def __init__(self, tracer: Tracer, stream) -> None:
        self.name = getattr(stream, "name", "<stream>")
        self._next = tracer.wrap("workloads", "stream.__next__",
                                 iter(stream).__next__)

    def __iter__(self):
        return self

    def __next__(self):
        return self._next()


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def _s(ns: float) -> float:
    return ns / 1e9


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


def _pct_us(samples: List[int], p: float) -> float:
    return percentile(samples, p) / 1e3 if samples else 0.0


def layer_metrics(snap: Dict[str, object], scripted_cells: int = 0,
                  lane_cells: int = 0) -> Dict[str, float]:
    """Per-layer metric values from a :meth:`Tracer.snapshot`.

    ``*_s`` layer times are self times (children excluded) unless the
    README says otherwise; counts are calls into the layer.
    """
    self_ns = snap["self_ns"]
    calls = snap["calls"]
    mcalls = snap["method_calls"]
    incl = snap["method_incl_ns"]
    hits = snap["hits"]
    samples = snap["samples"]
    ck = samples.get("VerificationHarness.checkpoint", [])
    sub = samples.get("ServeEngine.submit", [])
    prewarm_issued = mcalls.get("Telemetry.record_prewarm_issue", 0)
    return {
        "cluster.eventloop.busy_s": _s(self_ns.get("cluster.eventloop", 0)),
        "cluster.eventloop.events": mcalls.get("EventLoop.schedule", 0),
        "cluster.simulator.self_s": _s(self_ns.get("cluster.simulator", 0)),
        "schedulers.decide_s": _s(self_ns.get("schedulers", 0)),
        "schedulers.decisions": calls.get("schedulers", 0),
        "cluster.pool.busy_s": _s(self_ns.get("cluster.pool", 0)),
        "cluster.pool.match_hit_share": _share(
            hits.get("PoolSet.best_match", 0),
            mcalls.get("PoolSet.best_match", 0)),
        "cluster.lifecycle.busy_s": _s(self_ns.get("cluster.lifecycle", 0)),
        "cluster.lifecycle.creates": mcalls.get(
            "ContainerLifecycle.create", 0),
        "cluster.lifecycle.claims": mcalls.get("ContainerLifecycle.claim", 0),
        "cluster.lifecycle.prewarm_reuse_share": _share(
            mcalls.get("Telemetry.record_prewarm_reuse", 0), prewarm_issued),
        "containers.costmodel.busy_s": _s(
            self_ns.get("containers.costmodel", 0)),
        "containers.costmodel.calls": calls.get("containers.costmodel", 0),
        "cluster.placement.busy_s": _s(self_ns.get("cluster.placement", 0)),
        "cluster.telemetry.busy_s": _s(self_ns.get("cluster.telemetry", 0)),
        "workloads.busy_s": _s(self_ns.get("workloads", 0)),
        "cluster.lanes.busy_s": _s(self_ns.get("cluster.lanes", 0)),
        "cluster.lanes.table_build_s": _s(
            incl.get("ArrivalTable.__init__", 0)),
        "cluster.lanes.scripted_cell_share": _share(scripted_cells,
                                                    lane_cells),
        "experiments.parallel.sizing_s": _s(incl.get("default_grid", 0)),
        "verify.invariants.checkpoint_s": _s(
            incl.get("VerificationHarness.checkpoint", 0)),
        "verify.invariants.checkpoints": mcalls.get(
            "VerificationHarness.checkpoint", 0),
        "verify.invariants.checkpoint_p50_us": _pct_us(ck, 50),
        "verify.invariants.checkpoint_p99_us": _pct_us(ck, 99),
        "serve.router.parse_s": _s(self_ns.get("serve.router.parse", 0)),
        "serve.router.dispatch_s": _s(
            self_ns.get("serve.router.dispatch", 0)),
        "serve.engine.submit_s": _s(self_ns.get("serve.engine", 0)),
        "serve.engine.submit_p50_us": _pct_us(sub, 50),
        "serve.engine.submit_p99_us": _pct_us(sub, 99),
        "serve.engine.pump_s": _s(incl.get("ServeEngine.pump", 0)),
        "serve.janitor.ticks": mcalls.get("Janitor.tick", 0),
        "serve.admission.wait_s": _s(
            incl.get("AdmissionController.acquire", 0)),
        "serve.recorder.busy_s": _s(self_ns.get("serve.recorder", 0)),
        "serve.stats.busy_s": _s(self_ns.get("serve.stats", 0)),
    }


def accounting(snap: Dict[str, object], spans: List[tuple]
               ) -> Dict[str, float]:
    """Root time, and how far the online self times miss the reference.

    The kept spans are re-aggregated with the interval arithmetic of
    :func:`perfbench.stats.self_times` (children clipped to the parent and
    merged; a child closes before its parent, so every child of a kept span
    is kept too).  ``trace.unaccounted_share`` is the per-layer absolute
    difference between that reference and the tracer's online
    ``duration - child time`` sums over the same spans, as a share of the
    reference total: nonzero when overlapping children (concurrent tasks
    under one parent) or a lost span break the online bookkeeping.
    """
    ref = self_times([tuple(span[:5]) for span in spans])
    online = snap["kept_self_ns"]
    diff = sum(abs(online.get(layer, 0) - ref.get(layer, 0))
               for layer in set(ref) | set(online))
    return {
        "trace.root_s": _s(snap["root_ns"]),
        "trace.unaccounted_share": _share(diff, sum(ref.values())),
    }
