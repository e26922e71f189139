"""Lane-kernel parity: batched lanes must be byte-identical to sequential.

Pinned properties:

* Every lane drives its registry scheduler's own ``decide()``, exactly
  once per arrival -- there is no second copy of any decision rule.
* Every lane summary equals the sequential ``run_task`` summary for the
  same ``(scheduler, workload, seed, capacity)`` cell -- exact ``==`` on
  every float, not approx (property-based over the full scheduler
  registry, arbitrary seeds, capacities including the 0/inf edges, and
  arbitrary lane counts).
* Proactive Decision actions (MPC's ``PrewarmRequest``, Pagurus's
  ``LendRequest``) replay inside the lane lifecycle: the pre-warm /
  lending telemetry blocks match the sequential driver exactly.
* ``run_grid(lanes=L)`` reproduces ``run_grid()`` cell-for-cell for any
  ``L`` over any registry schedulers, under process fan-out too; unknown
  scheduler keys raise instead of silently running sequentially.
* ``ArrivalTable`` is a faithful lowering of the workload it was
  built from; ``ArrivalTable.from_stream`` chunks reassemble to the same
  rows for any chunk size (1, ragged, larger than the stream).
* ``run_stream_lanes`` is byte-identical to ``ClusterSimulator.run_stream``
  with bounded telemetry, per cell, for every registry scheduler and any
  chunk size.
* The per-process arrival-table memo is a bounded LRU: it cannot grow
  past its cap however many draws a grid touches.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.schedulers as schedulers
from repro.cluster.lanes import (
    SCHEDULER_CLASS_NAMES,
    ArrivalTable,
    LaneKernel,
    LaneSpec,
    lane_mode,
    run_stream_lanes,
)
from repro.experiments.parallel import (
    _ARRIVAL_TABLE_CACHE,
    SCHEDULER_FACTORIES,
    GridTask,
    cached_arrival_table,
    cached_workload,
    run_grid,
    run_task,
)

LANE_KEYS = sorted(SCHEDULER_CLASS_NAMES)
#: Schedulers whose decide() keeps running statistics or emits proactive
#: actions (greedy-dual frequencies, look-ahead windows, PrewarmRequest,
#: LendRequest) -- the rest decide in closed form from the arrival and
#: the pool. Both halves run through decide(); the split only spreads
#: the property examples evenly over the two kinds of decision rule.
SCRIPTED_KEYS = sorted(("faascache", "lookahead", "mpc", "lending"))
CLOSED_FORM_KEYS = sorted(set(LANE_KEYS) - set(SCRIPTED_KEYS))
WORKLOADS = ("LO-Sim", "HI-Var")
CAPACITIES = (0.0, 300.0, 800.0, 4000.0, float("inf"))


def make_task(scheduler="lru", workload="LO-Sim", seed=0, capacity=800.0):
    return GridTask(scheduler=scheduler, workload=workload, seed=seed,
                    pool_label="Lane", capacity_mb=float(capacity))


def lane_summary(task):
    """Run one cell on a single-lane kernel and return its summary."""
    table = cached_arrival_table(task.workload, task.seed)
    spec = LaneSpec(scheduler=task.scheduler, table=table,
                    capacity_mb=task.capacity_mb)
    [result] = LaneKernel([spec]).run()
    return result


class TestRegistry:
    def test_every_registry_key_lane_supported(self):
        """The whole scheduler registry runs in lanes, all through the
        scheduler's own ``decide()`` -- no silent sequential fallback is
        possible for a registry key."""
        assert set(SCHEDULER_FACTORIES) == set(SCHEDULER_CLASS_NAMES)
        for key in SCHEDULER_FACTORIES:
            assert lane_mode(key) == "scripted"
        with pytest.raises(KeyError):
            lane_mode("nope")

    @pytest.mark.parametrize("key", LANE_KEYS)
    def test_lane_calls_decide_once_per_arrival(self, key, monkeypatch):
        """Each key's lane asks its scheduler class's ``decide`` once per
        arrival: the lane holds no copy of the decision rule."""
        cls = getattr(schedulers, SCHEDULER_CLASS_NAMES[key])
        real_decide = cls.decide
        calls = []

        def spy(self, ctx):
            calls.append(ctx.invocation.invocation_id)
            return real_decide(self, ctx)

        monkeypatch.setattr(cls, "decide", spy)
        table = cached_arrival_table("LO-Sim", 0)
        [result] = LaneKernel([
            LaneSpec(scheduler=key, table=table, capacity_mb=800.0)
        ]).run()
        assert calls == [inv.invocation_id for inv in table.workload]
        assert result.summary["invocations"] == table.n


class TestArrivalTable:
    def test_columnar_lowering_matches_workload(self):
        workload = cached_workload("LO-Sim", 0)
        table = ArrivalTable(workload)
        arrivals = sorted(workload.invocations, key=lambda i: i.arrival_time)
        assert table.n == len(arrivals)
        assert table.invocations == arrivals
        for i, inv in enumerate(arrivals):
            assert table.specs[table.fn_ix[i]] is inv.spec
        assert table.workload is workload

    def test_cache_returns_same_object(self):
        assert cached_arrival_table("LO-Sim", 0) is cached_arrival_table(
            "LO-Sim", 0)

    @pytest.mark.parametrize("chunk_size", (1, 3, 64, 10_000_000))
    def test_from_stream_chunks_reassemble(self, chunk_size):
        """Chunked lowering concatenates to the batch lowering for any
        chunk size -- one arrival per chunk, ragged tails, or a single
        chunk larger than the whole stream."""
        workload = cached_workload("LO-Sim", 0)
        whole = ArrivalTable(workload)
        chunks = list(ArrivalTable.from_stream(
            sorted(workload.invocations, key=lambda i: i.arrival_time),
            chunk_size=chunk_size,
        ))
        assert sum(c.n for c in chunks) == whole.n
        for c in chunks[:-1]:
            assert c.n == chunk_size
        assert [inv for c in chunks for inv in c.invocations] == (
            whole.invocations)
        # Chunks share one function registry: identical spec objects,
        # identical latency rows, stable indices across chunk boundaries.
        assert all(c.specs is chunks[0].specs for c in chunks)
        assert chunks[0].specs == whole.specs
        assert chunks[0].latency == whole.latency
        np.testing.assert_array_equal(
            np.concatenate([c.fn_ix for c in chunks]), whole.fn_ix)
        # Stream chunks have no materialized workload to observe.
        assert all(c.workload is None for c in chunks)

    def test_from_stream_rejects_bad_chunk_size(self):
        with pytest.raises(ValueError):
            list(ArrivalTable.from_stream([], chunk_size=0))

    def test_from_stream_empty(self):
        assert list(ArrivalTable.from_stream([], chunk_size=4)) == []


class TestArrivalTableCacheBound:
    def test_memo_is_bounded_lru(self, monkeypatch):
        """The per-process table memo cannot grow unboundedly across a
        large grid: inserts beyond the cap evict the LRU entry, hits
        refresh recency."""
        monkeypatch.setenv("REPRO_ARRIVAL_TABLE_CACHE", "2")
        _ARRIVAL_TABLE_CACHE.clear()
        a = cached_arrival_table("LO-Sim", 0)
        cached_arrival_table("LO-Sim", 1)
        assert len(_ARRIVAL_TABLE_CACHE) == 2
        # Touch the LRU entry, then insert: the *other* entry is evicted.
        assert cached_arrival_table("LO-Sim", 0) is a
        cached_arrival_table("HI-Var", 0)
        assert len(_ARRIVAL_TABLE_CACHE) == 2
        assert ("LO-Sim", 0) in _ARRIVAL_TABLE_CACHE
        assert ("LO-Sim", 1) not in _ARRIVAL_TABLE_CACHE
        # A stream of fresh draws never pushes the memo past its cap.
        for seed in range(6):
            cached_arrival_table("HI-Var", seed)
            assert len(_ARRIVAL_TABLE_CACHE) <= 2

    def test_default_cap(self, monkeypatch):
        monkeypatch.delenv("REPRO_ARRIVAL_TABLE_CACHE", raising=False)
        _ARRIVAL_TABLE_CACHE.clear()
        for seed in range(10):
            cached_arrival_table("LO-Sim", seed)
        assert len(_ARRIVAL_TABLE_CACHE) == 8


class TestLaneParity:
    @pytest.mark.parametrize("scheduler", LANE_KEYS)
    def test_single_lane_matches_sequential(self, scheduler):
        task = make_task(scheduler)
        sequential = run_task(task)
        result = lane_summary(task)
        assert result.method == sequential.method
        assert list(result.summary.items()) == list(
            sequential.summary.items())

    @pytest.mark.parametrize("capacity", CAPACITIES)
    def test_capacity_edges(self, capacity):
        task = make_task("lru", capacity=capacity)
        assert lane_summary(task).summary == run_task(task).summary

    def test_prewarm_actions_replayed(self):
        """MPC's PrewarmRequest actions run inside the lane lifecycle:
        the pre-warm telemetry block must match exactly, not just the
        14 base keys."""
        task = make_task("mpc", workload="HI-Var")
        sequential = run_task(task)
        result = lane_summary(task)
        assert sequential.summary.get("prewarms_issued", 0.0) > 0
        assert list(result.summary.items()) == list(
            sequential.summary.items())

    def test_lend_actions_replayed(self):
        """Pagurus's LendRequest actions run inside the lane lifecycle:
        the lending telemetry block must match exactly."""
        task = make_task("lending", workload="HI-Var", capacity=4000.0)
        sequential = run_task(task)
        result = lane_summary(task)
        assert sequential.summary.get("lends_issued", 0.0) > 0
        assert list(result.summary.items()) == list(
            sequential.summary.items())

    def check_parity(self, scheduler, workload, seed, capacity):
        task = make_task(scheduler, workload, seed, capacity)
        sequential = run_task(task)
        result = lane_summary(task)
        assert result.method == sequential.method
        assert list(result.summary.items()) == list(
            sequential.summary.items())

    def test_parity_keys_cover_registry(self):
        assert set(SCRIPTED_KEYS) <= set(LANE_KEYS)
        assert sorted(CLOSED_FORM_KEYS + SCRIPTED_KEYS) == LANE_KEYS

    @settings(max_examples=10, deadline=None)
    @given(
        scheduler=st.sampled_from(CLOSED_FORM_KEYS),
        workload=st.sampled_from(WORKLOADS),
        seed=st.integers(min_value=0, max_value=3),
        capacity=st.sampled_from(CAPACITIES),
    )
    def test_closed_form_parity_property(
        self, scheduler, workload, seed, capacity
    ):
        self.check_parity(scheduler, workload, seed, capacity)

    @settings(max_examples=8, deadline=None)
    @given(
        scheduler=st.sampled_from(SCRIPTED_KEYS),
        workload=st.sampled_from(WORKLOADS),
        seed=st.integers(min_value=0, max_value=3),
        capacity=st.sampled_from(CAPACITIES),
    )
    def test_scripted_parity_property(
        self, scheduler, workload, seed, capacity
    ):
        self.check_parity(scheduler, workload, seed, capacity)

    @settings(max_examples=10, deadline=None)
    @given(
        cells=st.lists(
            st.tuples(
                st.sampled_from(LANE_KEYS),
                st.sampled_from(WORKLOADS),
                st.integers(min_value=0, max_value=3),
                st.sampled_from(CAPACITIES),
            ),
            min_size=1, max_size=6,
        ),
        lanes=st.integers(min_value=1, max_value=8),
    )
    def test_grid_parity_property(self, cells, lanes):
        tasks = [make_task(*cell) for cell in cells]
        sequential = run_grid(tasks, jobs=1)
        laned = run_grid(tasks, jobs=1, lanes=lanes)
        assert [c.task for c in laned] == [c.task for c in sequential]
        for a, b in zip(laned, sequential):
            assert a.method == b.method
            assert list(a.summary.items()) == list(b.summary.items())


class TestStreamLanes:
    STREAM_SHAPE = (30, 400)  # (n_functions, n_invocations)

    def _sequential(self, scheduler, seed):
        from repro.experiments.ext_stream_replay import (
            StreamReplayTask, run_cell,
        )

        n_fn, n_inv = self.STREAM_SHAPE
        return run_cell(StreamReplayTask(
            scheduler=scheduler, seed=seed,
            n_functions=n_fn, n_invocations=n_inv,
        ))

    def _stream(self, seed):
        from repro.experiments.ext_stream_replay import (
            derive_capacity_mb, trace_config,
        )
        from repro.workloads.azure import AzureTraceGenerator

        n_fn, n_inv = self.STREAM_SHAPE
        generator = AzureTraceGenerator(trace_config(n_fn, n_inv))
        stream = generator.stream(seed=seed)
        return stream, derive_capacity_mb(stream)

    @pytest.mark.parametrize("scheduler", LANE_KEYS)
    def test_stream_lane_matches_run_stream(self, scheduler):
        """One bounded lane per scheduler, byte-identical to the
        sequential ``run_stream`` cell (BoundedTelemetry folding)."""
        cell = self._sequential(scheduler, seed=0)
        stream, capacity = self._stream(seed=0)
        [result] = run_stream_lanes([(scheduler, capacity)], stream)
        assert result.method == cell.method
        assert list(result.summary.items()) == list(cell.summary.items())

    @settings(max_examples=6, deadline=None)
    @given(
        schedulers=st.lists(
            st.sampled_from(LANE_KEYS), min_size=1, max_size=4),
        seed=st.integers(min_value=0, max_value=2),
        chunk_size=st.sampled_from((1, 7, 64, 4096, 10_000_000)),
    )
    def test_stream_lane_parity_property(self, schedulers, seed, chunk_size):
        """Many lanes sharing one stream, arbitrary chunk sizes (one
        arrival per chunk through larger-than-stream), exact parity."""
        cells = [self._sequential(s, seed) for s in schedulers]
        stream, capacity = self._stream(seed)
        results = run_stream_lanes(
            [(s, capacity) for s in schedulers], stream,
            chunk_size=chunk_size,
        )
        for cell, result in zip(cells, results):
            assert result.method == cell.method
            assert list(result.summary.items()) == list(
                cell.summary.items())

    def test_stream_lanes_rejects_unknown_scheduler(self):
        stream, capacity = self._stream(seed=0)
        with pytest.raises(KeyError):
            run_stream_lanes([("nope", capacity)], stream)


class TestRunGridIntegration:
    def test_mixed_closed_form_and_scripted(self):
        tasks = [make_task("lru"), make_task("faascache"),
                 make_task("greedy", seed=1), make_task("coldonly"),
                 make_task("zygote"), make_task("lookahead")]
        sequential = run_grid(tasks, jobs=1)
        laned = run_grid(tasks, jobs=1, lanes=3)
        assert [c.summary for c in laned] == [c.summary for c in sequential]

    def test_proactive_policies_run_in_lanes(self):
        """mpc/lending/offline cells are lane-lowered like every other
        registry key -- no sequential fallback -- and stay byte-identical
        to the sequential grid, proactive telemetry blocks included."""
        tasks = [make_task("lru"), make_task("mpc"), make_task("lending"),
                 make_task("offline"), make_task("greedy", seed=1)]
        sequential = run_grid(tasks, jobs=1)
        laned = run_grid(tasks, jobs=1, lanes=4)
        assert [c.method for c in laned] == [c.method for c in sequential]
        assert [list(c.summary.items()) for c in laned] == [
            list(c.summary.items()) for c in sequential]

    def test_unknown_scheduler_raises_instead_of_fallback(self):
        tasks = [make_task("lru"), make_task("definitely-not-a-scheduler")]
        with pytest.raises(KeyError):
            run_grid(tasks, jobs=1, lanes=2)

    def test_parallel_jobs_with_lanes(self):
        tasks = [make_task(s, seed=seed)
                 for seed in (0, 1) for s in ("lru", "keepalive", "greedy")]
        sequential = run_grid(tasks, jobs=1)
        fanned = run_grid(tasks, jobs=2, lanes=4)
        assert [c.summary for c in fanned] == [c.summary for c in sequential]

    def test_lane_batch_larger_than_grid(self):
        tasks = [make_task("lru"), make_task("greedy")]
        laned = run_grid(tasks, jobs=1, lanes=64)
        assert [c.summary for c in laned] == [
            c.summary for c in run_grid(tasks, jobs=1)]

    def test_stream_experiment_lanes_match(self):
        """``repro experiment stream --lanes`` end to end: the grouped
        lane path produces the same cells (and therefore the same
        report) as the per-cell sequential path."""
        from repro.experiments.ext_stream_replay import report, run

        class _Scale:
            stream_functions = 30
            stream_invocations = 400

        sequential = run(_Scale(), schedulers=("lru", "mpc"), seeds=(0, 1))
        laned = run(_Scale(), schedulers=("lru", "mpc"), seeds=(0, 1),
                    lanes=4)
        assert [c.task for c in laned.cells] == [
            c.task for c in sequential.cells]
        assert [list(c.summary.items()) for c in laned.cells] == [
            list(c.summary.items()) for c in sequential.cells]
        assert report(laned) == report(sequential)


class TestKernelValidation:
    def test_unknown_scheduler_rejected(self):
        table = cached_arrival_table("LO-Sim", 0)
        spec = LaneSpec(scheduler="nope", table=table, capacity_mb=800.0)
        with pytest.raises(KeyError):
            LaneKernel([spec])

    def test_missing_table_rejected(self):
        spec = LaneSpec(scheduler="lru", table=None, capacity_mb=800.0)
        with pytest.raises(ValueError):
            LaneKernel([spec])
