"""Micro-benchmark for the multi-lane simulator kernel (not a paper figure).

Grid sweeps spend their time running many independent ``(scheduler,
workload, seed, capacity)`` cells; the lane kernel replays a batch of
them through one shared arrival table instead of paying the full
event-loop machinery per cell.  Every lane drives its scheduler's own
``decide()``.  Four entries, each over a fixed scheduler set so its
``bench_baseline.json`` entry keeps measuring the same work:

* ``test_lane_kernel_8_lanes`` -- the original 8-cell batch (coldonly /
  greedy / keepalive / lru x two capacities); pins the >= 3x speedup.
* ``test_lane_kernel_closed_form_registry`` -- the seven schedulers
  whose lanes once ran closed-form copies of their rules (adds zygote /
  walways / offline) x two capacities; pins >= 3x over the sequential
  per-cell path.
* ``test_lane_kernel_scripted`` -- faascache / lookahead / mpc /
  lending, whose lanes always drove ``decide()``; Lookahead's
  clairvoyant scan dominates, so parity is asserted and the timing is
  recorded ``no_guard`` (no speedup floor, excluded from the baseline
  guard).
* ``test_stream_lane_replay`` -- the chunked streaming lane path
  (``run_stream_lanes``) vs per-cell sequential ``run_stream`` on the
  stream family's default schedulers; pins the >= 3x speedup the
  acceptance criteria require.

Every entry asserts byte-identical summaries before timing means
anything (the ``lanes_vs_sequential`` / ``streaming_vs_materialized``
oracles guard the same property over wider grids).
"""

import time

from repro.cluster.lanes import LaneKernel, LaneSpec, run_stream_lanes
from repro.experiments.parallel import (
    GridTask,
    cached_arrival_table,
    cached_workload,
    run_task,
)

#: The original 8-cell batch: four schedulers x two pool capacities.
CELLS = [
    GridTask(scheduler=s, workload="LO-Sim", seed=0,
             pool_label="Bench", capacity_mb=c)
    for s in ("coldonly", "greedy", "keepalive", "lru")
    for c in (800.0, 4000.0)
]

#: Seven schedulers x two capacities (the set whose lanes once ran
#: closed-form rule copies).
CLOSED_FORM_CELLS = [
    GridTask(scheduler=s, workload="LO-Sim", seed=0,
             pool_label="Bench", capacity_mb=c)
    for s in ("coldonly", "greedy", "keepalive", "lru", "offline",
              "walways", "zygote")
    for c in (800.0, 4000.0)
]

#: The other four registry schedulers x two capacities.
SCRIPTED_CELLS = [
    GridTask(scheduler=s, workload="LO-Sim", seed=0,
             pool_label="Bench", capacity_mb=c)
    for s in ("faascache", "lending", "lookahead", "mpc")
    for c in (800.0, 4000.0)
]

#: Stream-lane entry: the stream family's default schedulers over a
#: mid-size Azure-like trace.
STREAM_SCHEDULERS = ("lru", "keepalive", "greedy")
STREAM_FUNCTIONS = 100
STREAM_INVOCATIONS = 8000


def _kernel_batch(cells):
    specs = [
        LaneSpec(
            scheduler=task.scheduler,
            table=cached_arrival_table(task.workload, task.seed),
            capacity_mb=task.capacity_mb,
        )
        for task in cells
    ]
    return LaneKernel(specs).run()


def _sequential_floor(cells, repeats=2):
    """Best-of-N sequential wall time over the same cells."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        results = [run_task(task) for task in cells]
        best = min(best, time.perf_counter() - t0)
    return best, results


def _assert_parity(sequential, results):
    """The speed means nothing if the cells drift."""
    for cell, result in zip(sequential, results):
        assert result.method == cell.method
        assert list(result.summary.items()) == list(cell.summary.items())


def _warm_memos(cells):
    for task in cells:
        cached_workload(task.workload, task.seed)
        cached_arrival_table(task.workload, task.seed)


def test_lane_kernel_8_lanes(benchmark, emit):
    """8-lane kernel batch vs the sequential per-cell path (>= 3x)."""
    _warm_memos(CELLS)
    sequential_s, sequential = _sequential_floor(CELLS)
    results = benchmark(_kernel_batch, CELLS)
    _assert_parity(sequential, results)
    speedup = sequential_s / benchmark.stats["min"]
    emit(
        f"lane kernel: {len(CELLS)} cells, sequential "
        f"{sequential_s * 1e3:.1f} ms vs 8-lane batch "
        f"{benchmark.stats['min'] * 1e3:.1f} ms ({speedup:.2f}x)"
    )
    assert speedup >= 3.0


def test_lane_kernel_closed_form_registry(benchmark, emit):
    """Seven registry schedulers in one lane batch (>= 3x).

    The sequential side pays the full per-cell driver, while the lane
    side shares one arrival table across lanes; both reuse Offline-Q's
    per-draw bootstrap policy.
    """
    _warm_memos(CLOSED_FORM_CELLS)
    sequential_s, sequential = _sequential_floor(CLOSED_FORM_CELLS)
    results = benchmark(_kernel_batch, CLOSED_FORM_CELLS)
    _assert_parity(sequential, results)
    speedup = sequential_s / benchmark.stats["min"]
    emit(
        f"lane kernel (seven schedulers): {len(CLOSED_FORM_CELLS)} "
        f"cells, sequential {sequential_s * 1e3:.1f} ms vs lane batch "
        f"{benchmark.stats['min'] * 1e3:.1f} ms ({speedup:.2f}x)"
    )
    assert speedup >= 3.0


def test_lane_kernel_scripted(benchmark, emit):
    """faascache / lending / lookahead / mpc lanes.  Parity is the
    contract; timing is informational (``no_guard``: Lookahead's
    clairvoyant scan dominates, so the margin is too thin to gate on
    under load jitter)."""
    benchmark.extra_info["no_guard"] = True
    _warm_memos(SCRIPTED_CELLS)
    sequential_s, sequential = _sequential_floor(SCRIPTED_CELLS)
    results = benchmark(_kernel_batch, SCRIPTED_CELLS)
    _assert_parity(sequential, results)
    speedup = sequential_s / benchmark.stats["min"]
    emit(
        f"lane kernel (four schedulers): {len(SCRIPTED_CELLS)} cells, "
        f"sequential "
        f"{sequential_s * 1e3:.1f} ms vs lane batch "
        f"{benchmark.stats['min'] * 1e3:.1f} ms ({speedup:.2f}x)"
    )
    # Lanes must never be slower than sequential by more than
    # jitter: the kernel machinery is strictly cheaper than the event loop.
    assert speedup >= 1.0


def _stream_lane_batch(cells, make_stream):
    return run_stream_lanes(cells, make_stream())


def test_stream_lane_replay(benchmark, emit):
    """Chunked streaming lane replay vs per-cell ``run_stream`` (>= 3x).

    One shared stream pass (lowered once into columnar chunks) against
    the stream family's sequential driver rebuilding and replaying the
    stream per cell -- the ``repro experiment stream --lanes`` speedup.
    """
    from repro.experiments.ext_stream_replay import (
        StreamReplayTask,
        derive_capacity_mb,
        run_cell,
        trace_config,
    )
    from repro.workloads.azure import AzureTraceGenerator

    tasks = [
        StreamReplayTask(
            scheduler=key, seed=0,
            n_functions=STREAM_FUNCTIONS,
            n_invocations=STREAM_INVOCATIONS,
        )
        for key in STREAM_SCHEDULERS
    ]
    generator = AzureTraceGenerator(
        trace_config(STREAM_FUNCTIONS, STREAM_INVOCATIONS)
    )

    def make_stream():
        return generator.stream(seed=0)

    capacity = derive_capacity_mb(make_stream())
    cells = [(key, capacity) for key in STREAM_SCHEDULERS]

    sequential = [run_cell(t) for t in tasks]  # warm + reference
    sequential_s = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        sequential = [run_cell(t) for t in tasks]
        sequential_s = min(sequential_s, time.perf_counter() - t0)

    results = benchmark(_stream_lane_batch, cells, make_stream)
    for cell, result in zip(sequential, results):
        assert result.method == cell.method
        assert list(result.summary.items()) == list(cell.summary.items())

    speedup = sequential_s / benchmark.stats["min"]
    emit(
        f"stream lanes: {len(cells)} cells x {STREAM_INVOCATIONS} "
        f"arrivals, sequential {sequential_s * 1e3:.1f} ms vs lane pass "
        f"{benchmark.stats['min'] * 1e3:.1f} ms ({speedup:.2f}x)"
    )
    assert speedup >= 3.0
