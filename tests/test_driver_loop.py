"""The batch/stream driver loop: one reused context, lazy load views,
memoized volume sets.

``run`` and ``run_stream`` re-point one :class:`SchedulingContext` at every
arrival and build its ``worker_loads`` / ``queue_depths`` only when a
policy reads them; the incremental API still hands out a fresh context per
decision point.  These tests hold the lazy views to the eager values and
the driver loop to the incremental path, and pin the volume memo to the
unmemoized volume sets.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.cluster.eviction import LRUEviction
from repro.cluster.simulator import ClusterSimulator, SimulationConfig
from repro.containers.cleaner import ContainerCleaner, SecurityViolation
from repro.containers.volumes import VolumeKind, VolumeStore, volumes_for_image
from repro.core.state import StateEncoder
from repro.schedulers.base import Decision, Scheduler
from repro.schedulers.greedy import GreedyMatchScheduler
from repro.workloads.workload import Workload

from conftest import (
    make_container,
    make_ctx,
    make_image,
    make_invocation,
    make_spec,
)

SPECS = [
    make_spec(name="fa", image=make_image("a")),
    make_spec(name="fb", image=make_image("b", runtime_names=("numpy",))),
    make_spec(name="fc", image=make_image("c", lang_name="nodejs")),
]


def contended_workload(n=40):
    """Arrivals faster than two single-slot workers can start them."""
    return Workload.from_invocations("contended", [
        make_invocation(SPECS[i % 3], i, arrival_time=0.7 * i,
                        execution_time_s=1.5 + (i % 4))
        for i in range(n)
    ])


def contended_sim():
    return ClusterSimulator(
        SimulationConfig(pool_capacity_mb=600.0, n_workers=2,
                         worker_concurrency=1),
        LRUEviction(),
    )


class LoadProbe(Scheduler):
    """Greedy-Match that records the lazy load views next to the eager
    values read from the simulator at the same moment."""

    name = "load-probe"

    def __init__(self, sim):
        self.sim = sim
        self.inner = GreedyMatchScheduler()
        self.seen = []

    def decide(self, ctx):
        eager = (self.sim.workers.container_counts(),
                 self.sim.placement.queue_depths(ctx.now))
        self.seen.append(((ctx.worker_loads, ctx.queue_depths), eager))
        return self.inner.decide(ctx)


class LoadAwareScheduler(Scheduler):
    """Cold-starts whenever the encoded cluster load is high, otherwise
    reuses the deepest match: decisions that follow the load features."""

    name = "load-aware"

    def __init__(self):
        self.encoder = StateEncoder(n_slots=4, load_features=True)
        self.states = []

    def decide(self, ctx):
        state = self.encoder.encode(ctx).state
        self.states.append(np.array(state))
        load = state[self.encoder.global_dim - 6:self.encoder.global_dim]
        best, _ = ctx.best_candidate()
        if best is None or load.sum() > 12.0:
            return Decision.cold()
        return Decision.warm(best.container_id)


class TestLazyLoadViews:
    @pytest.mark.parametrize("mode", ["run", "run_stream"])
    def test_lazy_views_equal_eager_at_every_decision(self, mode):
        sim = contended_sim()
        probe = LoadProbe(sim)
        workload = contended_workload()
        if mode == "run":
            sim.run(workload, probe)
        else:
            sim.run_stream(iter(workload), probe)
        assert len(probe.seen) == len(workload)
        for lazy, eager in probe.seen:
            assert lazy == eager
        # Not vacuous: the workers fill up and startups queue.
        assert any(max(depths) > 0 for (_, depths), _ in probe.seen)
        assert any(sum(loads) > 1 for (loads, _), _ in probe.seen)

    def test_incremental_context_views(self):
        sim = contended_sim()
        sim.load(contended_workload(6))
        while (ctx := sim.next_decision_point()) is not None:
            assert ctx.worker_loads == sim.workers.container_counts()
            assert ctx.queue_depths == sim.placement.queue_depths(ctx.now)
            sim.apply_decision(Decision.cold())
        sim.finish()

    def test_hand_built_contexts_keep_their_tuples(self):
        ctx = make_ctx()
        assert ctx.worker_loads == () and ctx.queue_depths == ()
        loaded = replace(ctx, worker_loads=[3, 1], queue_depths=(2, 0))
        assert loaded.worker_loads == (3, 1)
        assert loaded.queue_depths == (2, 0)

    def test_load_features_run_equals_incremental(self):
        batch_sched = LoadAwareScheduler()
        batch = contended_sim().run(contended_workload(), batch_sched)

        inc_sched = LoadAwareScheduler()
        sim = contended_sim()
        sim.load(contended_workload())
        while (ctx := sim.next_decision_point()) is not None:
            sim.apply_decision(inc_sched.decide(ctx))
        inc = sim.finish(scheduler_name=inc_sched.name)

        assert batch.telemetry.records == inc.telemetry.records
        assert batch.summary() == inc.summary()
        assert len(batch_sched.states) == len(inc_sched.states)
        for a, b in zip(batch_sched.states, inc_sched.states):
            assert np.array_equal(a, b)
        # Not vacuous: the load rule sent some arrivals each way.
        colds = sum(r.cold_start for r in batch.telemetry.records)
        assert 0 < colds < len(batch.telemetry.records)


class TestIncrementalContexts:
    def test_next_decision_point_returns_a_fresh_context(self):
        sim = contended_sim()
        sim.load(contended_workload(3))
        first = sim.next_decision_point()
        sim.apply_decision(Decision.cold())
        second = sim.next_decision_point()
        assert second is not first
        assert first.invocation.invocation_id == 0
        assert second.invocation.invocation_id == 1
        assert first.now < second.now
        sim.apply_decision(Decision.cold())
        third = sim.next_decision_point()
        assert third is not first and third is not second
        sim.apply_decision(Decision.cold())
        assert sim.next_decision_point() is None


class TestVolumeMemo:
    def test_memo_holds_the_unmemoized_volume_objects(self):
        store = VolumeStore()
        image = make_image("a")
        memo = store.volume_set(image, "f")
        fresh = volumes_for_image(
            store, image.language_packages, image.runtime_packages, "f"
        )
        assert len(memo) == len(fresh) == 3
        assert all(m is f for m, f in zip(memo, fresh))
        assert store.volume_set(image, "f") is memo
        # Same stack, other function: shared package volumes, own data.
        other = store.volume_set(make_image("a2"), "g")
        assert other[:2] == memo[:2] and other[2] is not memo[2]

    def test_initial_mount_lists_are_owned(self):
        cleaner = ContainerCleaner(VolumeStore())
        a, b = make_container(1), make_container(2)
        vols_a = cleaner.initial_mount(a, "f")
        vols_b = cleaner.initial_mount(b, "f")
        assert isinstance(vols_a, list) and vols_a == vols_b
        assert vols_a is not vols_b
        assert a.mounted_volumes is not vols_a
        assert a.mounted_volumes is not b.mounted_volumes
        a.mounted_volumes.pop()
        assert len(b.mounted_volumes) == 3

    def test_repack_sequence_counts_match_reference(self):
        """Mount/unmount counts and mounted ids follow the unmemoized
        volume sets step by step."""
        chain = [
            ("alice", make_image("i0")),
            ("bob", make_image("i1", runtime_names=("numpy",))),
            ("alice", make_image("i2")),
            ("alice", make_image("i3", runtime_names=("numpy",))),
            ("carol", make_image("i4", lang_name="nodejs")),
            ("bob", make_image("i5", runtime_names=("numpy",))),
            ("bob", make_image("i6", runtime_names=())),
        ]
        store = VolumeStore()
        cleaner = ContainerCleaner(store)
        container = make_container(1, image=chain[0][1])
        cleaner.initial_mount(container, chain[0][0])
        ref_store = VolumeStore()
        first = chain[0][1]
        mounted = [v.volume_id for v in volumes_for_image(
            ref_store, first.language_packages, first.runtime_packages,
            chain[0][0],
        )]
        mounts, unmounts = len(mounted), 0
        for fn, image in chain[1:]:
            result = cleaner.repack(container, image, fn)
            needed = [v.volume_id for v in volumes_for_image(
                ref_store, image.language_packages, image.runtime_packages,
                fn,
            )]
            gone = [v for v in mounted if v not in needed]
            kept = [v for v in mounted if v in needed]
            new = [v for v in needed if v not in kept]
            mounted = kept + new
            mounts += len(new)
            unmounts += len(gone)
            assert [v.volume_id for v in result.unmounted] == gone
            assert [v.volume_id for v in result.mounted] == new
            assert [v.volume_id for v in container.mounted_volumes] == mounted
            assert (store.mount_count, store.unmount_count) == (
                mounts, unmounts
            )

    def test_foreign_user_data_still_raises(self, monkeypatch):
        store = VolumeStore()
        cleaner = ContainerCleaner(store)
        container = make_container(1)
        cleaner.initial_mount(container, "alice")
        image = make_image("x", runtime_names=("numpy",))
        cleaner.repack(container, image, "bob")  # warms the memo
        alice_data = store.user_data_volume("alice")
        memoized = store.volume_set

        def leaky(image, function_name):
            return memoized(image, function_name) + (alice_data,)

        monkeypatch.setattr(store, "volume_set", leaky)
        with pytest.raises(SecurityViolation, match="alice"):
            cleaner.repack(container, image, "bob")

    def test_foreign_user_data_check_on_mounted_set(self):
        container = make_container(1)
        container.mounted_volumes = [
            VolumeStore().user_data_volume("alice")
        ]
        assert container.mounted_volumes[0].kind is VolumeKind.USER_DATA
        with pytest.raises(SecurityViolation):
            ContainerCleaner._verify_isolation(container, "bob")
