"""Tests for the layered simulator: event loop, placement and queueing."""

import pytest

from repro.cluster.eventloop import EventLoop, VirtualClock
from repro.cluster.events import EventKind
from repro.cluster.eviction import LRUEviction
from repro.cluster.placement import PlacementEngine
from repro.cluster.simulator import ClusterSimulator, SimulationConfig
from repro.cluster.worker import WorkerSet
from repro.schedulers.greedy import GreedyMatchScheduler
from repro.schedulers.lru import LRUScheduler
from repro.workloads.fstartbench import hi_sim_workload
from repro.workloads.workload import Workload

from conftest import make_image, make_invocation, make_spec


def workload_of(invocations, name="test"):
    return Workload.from_invocations(name, invocations)


def spec_a(name="fa"):
    return make_spec(name=name, image=make_image("a"))


class TestSimulationClock:
    def test_advances_forward(self):
        clock = VirtualClock()
        assert clock.advance_to(5.0) == 5.0
        assert clock.now == 5.0

    def test_never_rewinds(self):
        clock = VirtualClock(start=10.0)
        assert clock.advance_to(3.0) == 10.0
        assert clock.now == 10.0


class TestEventLoop:
    def test_pop_advances_clock_in_time_order(self):
        loop = EventLoop()
        loop.schedule(2.0, EventKind.ARRIVAL, "b")
        loop.schedule(1.0, EventKind.ARRIVAL, "a")
        assert loop.pop_next().payload == "a"
        assert loop.now == 1.0
        assert loop.pop_next().payload == "b"
        assert loop.now == 2.0
        assert loop.pop_next() is None

    def test_sweep_runs_once_per_pop_after_advance(self):
        seen = []
        loop = EventLoop(sweep=seen.append)
        loop.schedule(1.0, EventKind.ARRIVAL)
        loop.schedule(4.0, EventKind.ARRIVAL)
        loop.pop_next()
        loop.pop_next()
        assert seen == [1.0, 4.0]
        loop.pop_next()  # empty queue: no sweep
        assert seen == [1.0, 4.0]

    def test_len_and_peek(self):
        loop = EventLoop()
        assert not loop and len(loop) == 0 and loop.peek() is None
        loop.schedule(1.0, EventKind.ARRIVAL, "x")
        assert loop and len(loop) == 1
        assert loop.peek().payload == "x"
        assert len(loop) == 1  # peek does not pop


class TestPlacementEngine:
    def engine(self, n=2, limit=None, capacity=None):
        return PlacementEngine(WorkerSet(n), concurrency_limit=limit,
                               worker_capacity_mb=capacity)

    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            self.engine(limit=0)
        with pytest.raises(ValueError):
            self.engine(capacity=0.0)

    def test_no_limit_uses_least_memory_rule(self):
        eng = self.engine(n=2)
        eng.workers.place_on(0, 1, 100.0)
        assert eng.select_worker(50.0, now=0.0) == 1

    def test_no_limit_admits_immediately(self):
        eng = self.engine(n=1)
        assert eng.admit(0, now=5.0, hold_s=100.0) == (5.0, 0.0)
        assert eng.admit(0, now=5.0, hold_s=100.0) == (5.0, 0.0)
        assert eng.queue_depths(5.0) == (0,)
        assert not eng.queueing_enabled

    def test_limit_queues_fifo_with_exact_start_times(self):
        eng = self.engine(n=1, limit=1)
        assert eng.admit(0, now=0.0, hold_s=10.0) == (0.0, 0.0)
        # Second startup waits for the first slot to free at t=10.
        assert eng.admit(0, now=1.0, hold_s=10.0) == (10.0, 9.0)
        # Third queues behind both: starts at t=20.
        assert eng.admit(0, now=2.0, hold_s=10.0) == (20.0, 18.0)
        assert eng.queue_depths(2.0) == (2,)
        # After everything drains the queue view empties.
        assert eng.queue_depths(100.0) == (0,)

    def test_limit_two_runs_pairs_concurrently(self):
        eng = self.engine(n=1, limit=2)
        assert eng.admit(0, now=0.0, hold_s=10.0)[1] == 0.0
        assert eng.admit(0, now=0.0, hold_s=10.0)[1] == 0.0
        start, delay = eng.admit(0, now=0.0, hold_s=10.0)
        assert (start, delay) == (10.0, 10.0)

    def test_freed_slots_admit_immediately(self):
        eng = self.engine(n=1, limit=1)
        eng.admit(0, now=0.0, hold_s=10.0)
        assert eng.admit(0, now=11.0, hold_s=5.0) == (11.0, 0.0)

    def test_limit_balances_on_inflight(self):
        eng = self.engine(n=2, limit=4)
        # Worker 0 hosts more memory but fewer in-flight startups.
        eng.workers.place_on(0, 1, 500.0)
        eng.admit(1, now=0.0, hold_s=100.0)
        assert eng.select_worker(50.0, now=0.0) == 0

    def test_capacity_filter_prefers_fitting_worker(self):
        eng = self.engine(n=2, capacity=200.0)
        eng.workers.place_on(0, 1, 150.0)
        # 100MB no longer fits on worker 0; worker 1 must take it.
        assert eng.select_worker(100.0, now=0.0) == 1

    def test_capacity_filter_falls_back_when_nothing_fits(self):
        eng = self.engine(n=2, capacity=100.0)
        eng.workers.place_on(0, 1, 90.0)
        eng.workers.place_on(1, 2, 95.0)
        # Neither fits 50MB: least-memory fallback, not an error.
        assert eng.select_worker(50.0, now=0.0) == 0


def queueing_sim(n_workers, limit, capacity=2048.0):
    sched = GreedyMatchScheduler()
    sim = ClusterSimulator(
        SimulationConfig(pool_capacity_mb=capacity, n_workers=n_workers,
                         worker_concurrency=limit),
        sched.make_eviction_policy(),
    )
    return sim, sched


class TestQueueingIntegration:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(pool_capacity_mb=1024.0, worker_concurrency=0)
        with pytest.raises(ValueError):
            SimulationConfig(pool_capacity_mb=1024.0, worker_capacity_mb=-1.0)

    def test_hi_sim_queues_under_finite_limit(self):
        sim, sched = queueing_sim(n_workers=2, limit=1)
        result = sim.run(hi_sim_workload(seed=0), sched)
        summary = result.summary()
        assert summary["total_queueing_s"] > 0
        assert summary["queued_starts"] > 0
        assert summary["max_queue_depth"] >= 1
        assert 0 < summary["mean_worker_utilization"] <= 1.0

    def test_n_workers_changes_mean_startup_latency(self):
        means = []
        for n in (1, 4):
            sim, sched = queueing_sim(n_workers=n, limit=2)
            means.append(
                sim.run(hi_sim_workload(seed=0), sched).summary()["mean_startup_s"]
            )
        assert means[1] < means[0]

    def test_latency_decomposes_into_queue_plus_service(self):
        sim, sched = queueing_sim(n_workers=1, limit=1)
        t = sim.run(hi_sim_workload(seed=0), sched).telemetry
        for r in t.records:
            assert r.startup_latency_s == pytest.approx(
                r.queue_delay_s + r.service_latency_s
            )
            assert r.queue_delay_s >= 0
            assert 0 <= r.worker_id < 1

    def test_queued_startup_completes_after_slot_frees(self):
        # One worker, one slot: the second concurrent startup's record must
        # carry the wait for the first invocation's startup + execution.
        wl = workload_of([
            make_invocation(spec_a(), 0, arrival_time=0.0,
                            execution_time_s=10.0),
            make_invocation(spec_a("fa2"), 1, arrival_time=1.0,
                            execution_time_s=1.0),
        ])
        sim = ClusterSimulator(
            SimulationConfig(pool_capacity_mb=10_000.0, n_workers=1,
                             worker_concurrency=1),
            LRUEviction(),
        )
        t = sim.run(wl, LRUScheduler()).telemetry
        first, second = t.records
        slot_frees = first.arrival_time + first.startup_latency_s + 10.0
        assert second.queue_delay_s == pytest.approx(
            slot_frees - second.arrival_time
        )

    def test_summary_keys_absent_without_limit(self):
        sim = ClusterSimulator(
            SimulationConfig(pool_capacity_mb=10_000.0), LRUEviction()
        )
        summary = sim.run(
            workload_of([make_invocation(spec_a(), 0)]), LRUScheduler()
        ).summary()
        assert "total_queueing_s" not in summary
        assert "mean_worker_utilization" not in summary

    def test_disabled_limit_matches_unconstrained_run(self):
        # A limit high enough to never bind must reproduce the
        # no-admission-control latencies exactly.
        wl = hi_sim_workload(seed=1, n=120)
        base_sim = ClusterSimulator(
            SimulationConfig(pool_capacity_mb=2048.0), LRUEviction()
        )
        base = base_sim.run(wl, LRUScheduler()).telemetry
        big_sim = ClusterSimulator(
            SimulationConfig(pool_capacity_mb=2048.0, n_workers=4,
                             worker_concurrency=10_000),
            LRUEviction(),
        )
        big = big_sim.run(wl, LRUScheduler()).telemetry
        assert [r.startup_latency_s for r in base.records] == [
            r.startup_latency_s for r in big.records
        ]
        assert big.total_queueing_s == 0.0

    def test_context_exposes_load_views(self):
        sim = ClusterSimulator(
            SimulationConfig(pool_capacity_mb=10_000.0, n_workers=3,
                             worker_concurrency=2),
            LRUEviction(),
        )
        sim.load(workload_of([make_invocation(spec_a(), 0)]))
        ctx = sim.next_decision_point()
        assert ctx.worker_loads == (0, 0, 0)
        assert ctx.queue_depths == (0, 0, 0)
        record = sim.apply_decision(LRUScheduler().decide(ctx))
        assert record.worker_id in (0, 1, 2)
        sim.finish()
