"""Multi-lane simulation kernel: many grid cells per process, lean and fast.

A grid sweep replays thousands of *independent* simulations -- one per
``(scheduler, workload, seed, capacity)`` cell.  The sequential path runs
each cell through the full :class:`~repro.cluster.simulator.ClusterSimulator`
stack: per-event :class:`~repro.cluster.events.Event` objects, the layered
lifecycle (cleaner, volumes, placement) and a 16-column telemetry append
per invocation.  None of that machinery is needed to produce the *summary*
a grid cell actually carries.

This module replays many **lanes** (one lane = one cell) per process:

* **Shared arrival lowering** -- each workload draw is lowered once into
  an :class:`ArrivalTable`: the arrival rows, each row's function index
  and a per-``(function, match level)`` startup-latency table computed
  through the exact same :meth:`~repro.containers.costmodel.\
StartupCostModel.breakdown` call the sequential driver makes per arrival.
  Tables are shared by every lane replaying the same draw;
  :meth:`ArrivalTable.from_stream` lowers a lazy arrival stream into
  bounded chunks for O(1)-memory lane replay (:func:`run_stream_lanes`).
* **One decision rule per scheduler** -- every lane builds its registry
  scheduler (:data:`SCHEDULER_CLASS_NAMES`), takes its ``name`` and
  ``make_eviction_policy()`` (LRU when it has none, like the simulator),
  and calls its own ``decide()`` once per arrival against one reused
  :class:`~repro.schedulers.base.SchedulingContext` backed by the lane's
  pool.  The returned decision -- including any attached
  :class:`~repro.schedulers.base.PrewarmRequest` /
  :class:`~repro.schedulers.base.LendRequest` proactive actions -- is
  replayed through the lane lifecycle.  A new scheduler needs no lane code.
* **Shared pool semantics** -- each lane reuses the *real*
  :class:`~repro.cluster.pool.WarmPool` and
  :class:`~repro.cluster.eviction.EvictionPolicy` objects, so eviction
  ordering, TTL expiry, capacity accounting and peak tracking are identical
  to the sequential simulator by construction, not by reimplementation.

**Byte-identical contract.**  For every registry scheduler and the default
grid configuration (no worker concurrency limit, single pool shard, faults
off), a lane's :meth:`_Lane.summary` is bit-equal to
``ClusterSimulator.run(...).telemetry.summary()`` for the same cell: same
event order (``(time, priority, seq)`` with arrivals before same-time
completions), same decisions, same floating-point accumulation order for
latency totals and memory peaks, same pre-warm / lending counter blocks.
Bounded lanes (``LaneSpec(bounded=True)``, used by the streaming replay)
fold latencies the way :class:`~repro.cluster.telemetry.BoundedTelemetry`
does -- running total plus quantile sketch -- so ``repro experiment stream
--lanes`` is byte-identical to ``ClusterSimulator.run_stream`` with bounded
telemetry.  The ``lanes_vs_sequential`` and ``streaming_vs_materialized``
differential oracles and the hypothesis suites in ``tests/test_lanes.py``
enforce all of this.

Wired into :func:`repro.experiments.parallel.run_grid` via its ``lanes``
argument and the CLI's ``repro simulate --lanes`` /
``repro experiment stream --lanes`` / ``runall --lanes`` flags.
"""

from __future__ import annotations

import heapq
import itertools
from array import array
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.eviction import EvictionPolicy, LRUEviction
from repro.cluster.pool import WarmPool
from repro.cluster.sketches import QuantileSketch
from repro.containers.container import Container, ContainerState
from repro.containers.costmodel import StartupCostModel
from repro.containers.matching import MatchLevel, match_level
from repro.schedulers.base import (
    Decision,
    PrewarmRequest,
    Scheduler,
    SchedulingContext,
)
from repro.workloads.workload import Invocation, Workload

__all__ = [
    "ArrivalTable",
    "LaneKernel",
    "LaneResult",
    "LaneSpec",
    "SCHEDULER_CLASS_NAMES",
    "STREAM_CHUNK_SIZE",
    "lane_mode",
    "run_stream_lanes",
]

#: The scheduler registry: CLI/grid key -> class name in
#: :mod:`repro.schedulers`.  This is the single source of truth shared by
#: :data:`repro.experiments.parallel.SCHEDULER_FACTORIES` (which builds the
#: sequential drivers from it) and the lane kernel (which builds the same
#: classes per lane).
SCHEDULER_CLASS_NAMES: Dict[str, str] = {
    "lru": "LRUScheduler",
    "faascache": "FaasCacheScheduler",
    "keepalive": "KeepAliveScheduler",
    "greedy": "GreedyMatchScheduler",
    "coldonly": "ColdOnlyScheduler",
    "lookahead": "LookaheadScheduler",
    "zygote": "ZygoteScheduler",
    "walways": "AlwaysAdoptScheduler",
    "mpc": "MPCScheduler",
    "lending": "PagurusLendingScheduler",
    "offline": "OfflineQScheduler",
}

#: Default arrival-chunk size for streaming lane replay.  Large enough to
#: amortize the per-chunk lowering, small enough that chunk buffers
#: stay O(1) in the stream length.
STREAM_CHUNK_SIZE = 4096

#: Completion-event kind codes inside a lane's heap.
_STARTUP_DONE = 0
_EXECUTION_DONE = 1


def _build_scheduler(key: str) -> Scheduler:
    """A fresh registry scheduler; ``KeyError`` for unknown keys."""
    import repro.schedulers as schedulers

    class_name = SCHEDULER_CLASS_NAMES.get(key)
    if class_name is None:
        raise KeyError(
            f"scheduler {key!r} has no lane path; "
            f"supported: {sorted(SCHEDULER_CLASS_NAMES)}"
        )
    return getattr(schedulers, class_name)()


def lane_mode(key: str) -> str:
    """How registry scheduler ``key`` runs in a lane: ``"scripted"`` (its
    own ``decide()``) for every key; ``KeyError`` for unknown keys."""
    if key not in SCHEDULER_CLASS_NAMES:
        raise KeyError(key)
    return "scripted"


class ArrivalTable:
    """Lowering of one workload draw, shared by every lane replaying it.

    Built once per ``(workload, cost model)`` and read-only afterwards.
    Fields are parallel over the workload's arrival order (which the
    workload constructor already sorts by ``(arrival_time,
    invocation_id)`` -- the same order the event queue pops same-time
    arrivals in):

    ``invocations``
        The :class:`~repro.workloads.workload.Invocation` rows themselves;
        a lane hands each to its scheduler as the pending invocation.
    ``fn_ix``
        Index into :attr:`specs` for each arrival (``array('i')``).
    ``latency``
        ``latency[fn][int(match)]`` -- the startup latency of starting
        ``specs[fn]`` at a given Table-I match level, precomputed through
        the same cost-model :meth:`~repro.containers.costmodel.\
StartupCostModel.breakdown` the sequential driver evaluates per arrival
        (breakdowns are pure and order-independent, so the floats are
        bit-identical).

    :attr:`workload` keeps the source workload for schedulers that need
    ``observe_workload`` (Lookahead's clairvoyance, Offline-Q's bootstrap
    rollout); stream chunks built by :meth:`from_stream` carry ``None``
    there, matching the streaming driver, which never calls it.
    """

    def __init__(
        self, workload: Workload, cost_model: Optional[StartupCostModel] = None
    ) -> None:
        cost_model = cost_model or StartupCostModel()
        self._init_from(workload.name, list(workload), cost_model, [], {}, [])
        self.workload: Optional[Workload] = workload

    def _init_from(
        self,
        name: str,
        invocations: List[Invocation],
        cost_model: StartupCostModel,
        specs: List,
        index_of: Dict[int, int],
        latency: List[List[float]],
    ) -> None:
        """Populate the table from ``invocations``.

        ``specs`` / ``index_of`` / ``latency`` are the (shared, append-only)
        function registries -- chunk tables from one stream pass the same
        lists so function indices stay stable across chunks and per-spec
        latency rows are computed exactly once, at first encounter.
        """
        self.name = name
        self.cost_model = cost_model
        self.workload = None
        self.invocations = invocations
        self.n = len(invocations)
        fn_ix = array("i")
        for inv in invocations:
            spec = inv.spec
            key = id(spec)
            ix = index_of.get(key)
            if ix is None:
                ix = index_of[key] = len(specs)
                specs.append(spec)
                latency.append([
                    cost_model.breakdown(
                        spec.image, level, spec.function_init_s
                    ).total_s
                    for level in MatchLevel
                ])
            fn_ix.append(ix)
        self.fn_ix = fn_ix
        self.specs = specs
        self.latency = latency

    @classmethod
    def from_stream(
        cls,
        stream: Iterable[Invocation],
        chunk_size: int = STREAM_CHUNK_SIZE,
        cost_model: Optional[StartupCostModel] = None,
    ) -> Iterator["ArrivalTable"]:
        """Lower a lazy arrival stream into bounded chunks.

        Yields one table per ``chunk_size`` arrivals (the final chunk may
        be shorter; an empty stream yields nothing).  All chunks share one
        function registry -- ``specs`` / ``fn_ix`` indices are stable
        across chunks and each function's latency row is computed once --
        so memory stays O(chunk + #functions) regardless of stream length.
        Chunk tables carry ``workload=None``: the streaming driver never
        calls ``observe_workload`` either.
        """
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        cost_model = cost_model or StartupCostModel()
        name = getattr(stream, "name", "<stream>")
        specs: List = []
        index_of: Dict[int, int] = {}
        latency: List[List[float]] = []
        source = iter(stream)
        while True:
            block = list(itertools.islice(source, chunk_size))
            if not block:
                return
            table = cls.__new__(cls)
            table._init_from(name, block, cost_model, specs, index_of, latency)
            yield table


@dataclass(frozen=True)
class LaneSpec:
    """One lane of a kernel run: a scheduler replaying a workload draw.

    ``scheduler`` must be a :data:`SCHEDULER_CLASS_NAMES` key; ``table`` is the
    (shareable) lowering of the lane's workload and
    ``capacity_mb`` the warm-pool capacity of the cell.  ``bounded``
    selects :class:`~repro.cluster.telemetry.BoundedTelemetry`-equivalent
    folding (running totals plus quantile sketches instead of a latency
    column) -- the streaming replay's O(1)-memory mode.
    :func:`run_stream_lanes` passes ``table=None`` and replays stream
    chunks as they arrive.
    """

    scheduler: str
    table: Optional[ArrivalTable]
    capacity_mb: float
    bounded: bool = False


@dataclass(frozen=True)
class LaneResult:
    """Outcome of one lane: the cell's method name and telemetry summary."""

    method: str
    summary: Dict[str, float]


class _Lane:
    """Mutable per-lane simulation state (scheduler, pool, heap, counters).

    Only the fields the summary depends on are simulated; containers are
    real :class:`~repro.containers.container.Container` objects (the pool
    and eviction policies read their id, image, recency and idle state) but
    the checked state-machine transitions, cleaner, volumes and placement
    bookkeeping of the sequential lifecycle -- none of which influence a
    summary under the supported configuration -- are skipped.
    """

    __slots__ = (
        "scheduler", "method", "eviction", "on_start", "ttl_s", "pool",
        "next_cid", "live_mb", "peak_live_mb", "cold", "evictions",
        "rejections", "ttl_expirations", "latencies", "heap", "seq",
        "bounded", "lat_n", "lat_total", "lat_sketch", "prewarmed", "lent",
        "prewarms_issued", "prewarm_reuses", "prewarm_wasted",
        "lends_issued", "lend_reuses",
    )

    def __init__(self, spec: LaneSpec) -> None:
        scheduler = _build_scheduler(spec.scheduler)
        scheduler.reset()
        # Stream lanes (no table yet) never observe the workload, like the
        # streaming driver.
        table = spec.table
        if table is not None and table.workload is not None and hasattr(
            scheduler, "observe_workload"
        ):
            scheduler.observe_workload(table.workload)
        self.scheduler = scheduler
        self.method = scheduler.name
        self.eviction = (
            scheduler.make_eviction_policy()
            if hasattr(scheduler, "make_eviction_policy")
            else LRUEviction()
        )
        # Bind the start hook only when the policy actually overrides the
        # base no-op (FaasCache's greedy-dual statistics).
        self.on_start = (
            self.eviction.on_function_start
            if type(self.eviction).on_function_start
            is not EvictionPolicy.on_function_start
            else None
        )
        self.ttl_s = self.eviction.ttl_s
        self.pool = WarmPool(spec.capacity_mb)
        self.next_cid = 1           # mirrors lifecycle's itertools.count(1)
        self.live_mb = 0.0
        self.peak_live_mb = 0.0
        self.cold = 0
        self.evictions = 0
        self.rejections = 0
        self.ttl_expirations = 0
        self.bounded = spec.bounded
        self.latencies = None if spec.bounded else array("d")
        self.lat_n = 0
        self.lat_total = 0.0
        self.lat_sketch = QuantileSketch(0.01) if spec.bounded else None
        # Proactive-action bookkeeping, mirroring ContainerLifecycle's:
        # pre-warmed ids awaiting first claim, lent ids -> target function.
        self.prewarmed: set = set()
        self.lent: Dict[int, str] = {}
        self.prewarms_issued = 0
        self.prewarm_reuses = 0
        self.prewarm_wasted = 0
        self.lends_issued = 0
        self.lend_reuses = 0
        # Completion heap: (time, seq, kind, container, exec_s).  All
        # completions share event priority 1, so (time, seq) alone orders
        # them exactly as the sequential queue does; seq persists across
        # stream chunks.
        self.heap: List[Tuple[float, int, int, Container, float]] = []
        self.seq = 0

    # -- event handling ------------------------------------------------------
    def _forget(self, container: Container) -> None:
        """Destroy-side bookkeeping (live memory, pre-warm/lend counters)."""
        self.live_mb = max(0.0, self.live_mb - container.image.memory_mb)
        cid = container.container_id
        if self.prewarmed and cid in self.prewarmed:
            self.prewarmed.discard(cid)
            self.prewarm_wasted += 1
        if self.lent:
            self.lent.pop(cid, None)

    def _sweep(self, now: float) -> None:
        """Expire pooled containers idle past the TTL (per-pop sweep)."""
        expired = self.pool.expire_older_than(now - self.ttl_s)
        if expired:
            self.ttl_expirations += len(expired)
            for container in expired:
                self._forget(container)

    def _keep_alive(self, container: Container, now: float) -> None:
        """Pool a finished container through the eviction policy."""
        victims = self.eviction.select_victims(self.pool, container, now)
        if victims is None:
            self.rejections += 1
            self._forget(container)
            return
        if victims:
            self.evictions += len(victims)
            pool_remove = self.pool.remove
            for victim in victims:
                pool_remove(victim.container_id)
                self._forget(victim)
        self.pool.add(container)

    def drain_until(self, t: float) -> None:
        """Handle every completion strictly before ``t`` (the next arrival).

        Same-time completions yield to the arrival (arrivals carry event
        priority 0); each pop runs the TTL sweep at its own time before
        handling, mirroring ``EventLoop.pop_next``.
        """
        heap = self.heap
        ttl_active = self.ttl_s is not None
        while heap and heap[0][0] < t:
            time, _seq, kind, container, exec_s = heapq.heappop(heap)
            if ttl_active and len(self.pool):
                self._sweep(time)
            if kind == _STARTUP_DONE:
                heapq.heappush(
                    heap,
                    (time + exec_s, self.seq, _EXECUTION_DONE, container, 0.0),
                )
                self.seq += 1
            else:
                container.state = ContainerState.IDLE
                container.last_used_at = time
                self._keep_alive(container, time)

    # -- decisions -----------------------------------------------------------
    def replay(self, table: ArrivalTable) -> None:
        """Decide and start every arrival of ``table``, in order.

        Per arrival: drain the completions before it, run the TTL sweep at
        its time (the sequential loop sweeps on the arrival pop before the
        scheduler sees the context), then ask the scheduler's ``decide``
        with the lane's one context re-pointed at the arrival.
        ``worker_loads`` / ``queue_depths`` stay empty: they are only
        populated under admission control, which lanes do not support.
        """
        pool = self.pool
        decide = self.scheduler.decide
        ctx = SchedulingContext(
            now=0.0, invocation=None, idle_containers=None,
            cost_model=table.cost_model, pool_capacity_mb=pool.capacity_mb,
            pool_used_mb=pool.used_mb, pool=pool,
        )
        rebind = ctx._rebind
        latency = table.latency
        fn_ix = table.fn_ix
        ttl_active = self.ttl_s is not None
        for i, invocation in enumerate(table.invocations):
            t = invocation.arrival_time
            self.drain_until(t)
            if ttl_active and len(pool):
                self._sweep(t)
            rebind(t, invocation, pool.used_mb)
            self._start(t, invocation, decide(ctx), latency[fn_ix[i]])

    def _start(
        self,
        t: float,
        invocation: Invocation,
        decision: Decision,
        latency_row: List[float],
    ) -> None:
        """Execute ``decision`` for ``invocation`` (arriving at ``t``)."""
        spec = invocation.spec
        cid = decision.container_id
        if cid is None:
            container = Container(
                container_id=self.next_cid, image=spec.image,
                created_at=t, last_used_at=0.0,
            )
            self.next_cid += 1
            self.live_mb += spec.image.memory_mb
            self.cold += 1
            match = 0
        else:
            container = self.pool.remove(cid)
            match = match_level(spec.image, container.image)
            container.state = ContainerState.STARTING
            if self.prewarmed and cid in self.prewarmed:
                self.prewarmed.discard(cid)
                self.prewarm_reuses += 1
            if self.lent:
                target = self.lent.pop(cid, None)
                if target is not None and target == spec.name:
                    self.lend_reuses += 1
            if not decision.preserve_image:
                # Repack: the image swap adjusts live memory exactly as
                # ``ContainerLifecycle.repack`` does (new minus old);
                # zygote-style preserve keeps the superset image in place.
                old_mb = container.image.memory_mb
                container.image = spec.image
                self.live_mb += spec.image.memory_mb - old_mb
        if self.live_mb > self.peak_live_mb:
            self.peak_live_mb = self.live_mb
        latency = latency_row[match]
        if self.bounded:
            self.lat_n += 1
            self.lat_total += latency
            self.lat_sketch.insert(latency)
        else:
            self.latencies.append(latency)
        # begin_startup stamps the claim time and the serving function (the
        # latter feeds FaasCache's greedy-dual priorities).
        container.current_function = spec.name
        container.last_used_at = t
        heapq.heappush(
            self.heap,
            (t + latency, self.seq, _STARTUP_DONE, container,
             invocation.execution_time_s),
        )
        self.seq += 1
        if self.on_start is not None:
            self.on_start(spec.name, latency, container.memory_mb, t)
        for action in decision.actions:
            if isinstance(action, PrewarmRequest):
                self._prewarm(action.image, action.function_name, t)
            else:
                self._lend(
                    action.container_id, action.image,
                    action.function_name, t,
                )

    # -- proactive actions (pre-warm / lending) ------------------------------
    def _prewarm(self, image, function_name: str, now: float) -> None:
        """Replay a ``PrewarmRequest``: mirrors ``ContainerLifecycle.\
prewarm`` (idle creation, issue counter, pool entry via keep-alive)."""
        container = Container(
            container_id=self.next_cid, image=image,
            created_at=now, last_used_at=now,
        )
        self.next_cid += 1
        container.state = ContainerState.IDLE
        container.current_function = function_name
        self.live_mb += image.memory_mb
        self.prewarms_issued += 1
        self.prewarmed.add(container.container_id)
        if self.live_mb > self.peak_live_mb:
            self.peak_live_mb = self.live_mb
        self._keep_alive(container, now)

    def _lend(
        self, container_id: int, target_image, function_name: str, now: float
    ) -> None:
        """Replay a ``LendRequest``: mirrors ``ContainerLifecycle.lend``
        (validation, in-place repack toward the target, idle-clock reset)."""
        pool = self.pool
        container = pool.get(container_id)
        if container is None:
            return
        if match_level(target_image, container.image) is MatchLevel.NO_MATCH:
            return
        headroom = pool.capacity_mb - pool.used_mb + container.memory_mb
        if target_image.memory_mb > headroom:
            return
        pool.remove(container_id)
        old_mb = container.image.memory_mb
        container.image = target_image
        self.live_mb += target_image.memory_mb - old_mb
        container.current_function = function_name
        container.last_used_at = now
        pool.add(container)
        self.lends_issued += 1
        self.lent[container_id] = function_name
        if self.live_mb > self.peak_live_mb:
            self.peak_live_mb = self.live_mb

    # -- results -------------------------------------------------------------
    def finish(self) -> LaneResult:
        """Run out every in-flight completion (the simulator's ``finish()``
        drain) and return the cell's result."""
        self.drain_until(float("inf"))
        return LaneResult(method=self.method, summary=self.summary())

    def summary(self) -> Dict[str, float]:
        """The cell summary, key-for-key and bit-for-bit equal to
        :meth:`repro.cluster.telemetry.Telemetry.summary` (or
        :class:`~repro.cluster.telemetry.BoundedTelemetry`'s in bounded
        mode) of the equivalent sequential run: same accumulation order,
        same numpy percentile calls / sketch estimates, warm-pool peak read
        off the pool's own tracking, pre-warm / lending blocks appended
        under the same non-zero gates."""
        if self.bounded:
            n = self.lat_n
            base = {
                "invocations": float(n),
                "total_startup_s": self.lat_total,
                "mean_startup_s": self.lat_total / n if n else 0.0,
                "p50_startup_s": self.lat_sketch.percentile(50),
                "p95_startup_s": self.lat_sketch.percentile(95),
                "cold_starts": float(self.cold),
                "warm_starts": float(n - self.cold),
                "evictions": float(self.evictions),
                "keep_alive_rejections": float(self.rejections),
                "ttl_expirations": float(self.ttl_expirations),
                "peak_warm_memory_mb": self.pool.peak_used_mb,
                "peak_live_memory_mb": self.peak_live_mb,
                "container_crashes": 0.0,
                "stragglers": 0.0,
            }
        else:
            latencies = self.latencies
            n = len(latencies)
            total = float(sum(latencies))
            lat = np.array(latencies, dtype=np.float64)
            base = {
                "invocations": float(n),
                "total_startup_s": total,
                "mean_startup_s": total / n if n else 0.0,
                "p50_startup_s": float(np.median(lat)) if n else 0.0,
                "p95_startup_s": float(np.percentile(lat, 95)) if n else 0.0,
                "cold_starts": float(self.cold),
                "warm_starts": float(n - self.cold),
                "evictions": float(self.evictions),
                "keep_alive_rejections": float(self.rejections),
                "ttl_expirations": float(self.ttl_expirations),
                "peak_warm_memory_mb": self.pool.peak_used_mb,
                "peak_live_memory_mb": self.peak_live_mb,
                "container_crashes": 0.0,
                "stragglers": 0.0,
            }
        if self.prewarms_issued:
            base["prewarms_issued"] = float(self.prewarms_issued)
            base["prewarm_reuses"] = float(self.prewarm_reuses)
            base["prewarm_wasted"] = float(self.prewarm_wasted)
        if self.lends_issued:
            base["lends_issued"] = float(self.lends_issued)
            base["lend_reuses"] = float(self.lend_reuses)
        return base


class LaneKernel:
    """Run many independent simulation lanes in one process.

    Parameters
    ----------
    specs:
        One :class:`LaneSpec` per lane.  Lanes replaying the same workload
        draw should share one :class:`ArrivalTable` instance (the grid
        runner's per-process table cache arranges this).
    """

    def __init__(self, specs: Sequence[LaneSpec]) -> None:
        for spec in specs:
            if spec.table is None:
                raise ValueError(
                    "LaneKernel lanes need a bound ArrivalTable; "
                    "use run_stream_lanes for chunked streaming replay"
                )
        self.specs = list(specs)
        self.lanes = [_Lane(spec) for spec in self.specs]

    def run(self) -> List[LaneResult]:
        """Run every lane to completion; results in lane order."""
        for lane, spec in zip(self.lanes, self.specs):
            lane.replay(spec.table)
        return [lane.finish() for lane in self.lanes]


def run_stream_lanes(
    cells: Sequence[Tuple[str, float]],
    stream: Iterable[Invocation],
    chunk_size: int = STREAM_CHUNK_SIZE,
    cost_model: Optional[StartupCostModel] = None,
) -> List[LaneResult]:
    """Replay one arrival stream through many bounded lanes at once.

    ``cells`` is one ``(scheduler key, capacity_mb)`` pair per lane; all
    lanes consume the same stream, lowered once into
    :meth:`ArrivalTable.from_stream` chunks and replayed by every lane as
    each chunk arrives, so memory stays O(chunk + #functions + in-flight
    containers) regardless of stream length.  Lanes run in
    ``BoundedTelemetry``-equivalent folding; the result summaries are
    byte-identical to ``ClusterSimulator.run_stream`` with
    ``SimulationConfig(bounded_telemetry=True)`` per cell (the
    ``streaming_vs_materialized`` oracle pins this).
    """
    lanes = [
        _Lane(LaneSpec(
            scheduler=key, table=None, capacity_mb=capacity, bounded=True,
        ))
        for key, capacity in cells
    ]
    for chunk in ArrivalTable.from_stream(
        stream, chunk_size=chunk_size, cost_model=cost_model
    ):
        for lane in lanes:
            lane.replay(chunk)
    return [lane.finish() for lane in lanes]
