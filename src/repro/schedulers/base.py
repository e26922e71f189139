"""Scheduler interface shared by all policies (including MLCR).

The simulator calls :meth:`Scheduler.decide` once per arriving invocation
with a :class:`SchedulingContext` -- a read-only view of the warm pool plus
the cost model -- and receives a :class:`~repro.cluster.simulator.Decision`:
either reuse a specific idle container or cold-start a new one.

Proactive policies (MPC pre-warming, Pagurus lending) additionally attach
:class:`PrewarmRequest` / :class:`LendRequest` actions to their decisions;
the driver executes them through
:class:`~repro.cluster.lifecycle.ContainerLifecycle` immediately after
applying the decision itself, so batch, streaming, incremental and online
serving drives stay decision-identical.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

from repro.containers.container import Container
from repro.containers.costmodel import StartupCostModel
from repro.containers.image import FunctionImage
from repro.containers.matching import MatchLevel, match_level
from repro.workloads.workload import Invocation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (cluster -> base)
    from repro.cluster.pool import PoolSet


@dataclass(frozen=True)
class PrewarmRequest:
    """Proactive action: create an idle container for ``function_name``.

    Executed by :meth:`ContainerLifecycle.prewarm` right after the decision
    carrying it is applied; the new container joins the warm pool through
    the eviction policy like any finishing container.
    """

    image: FunctionImage
    function_name: str


@dataclass(frozen=True)
class LendRequest:
    """Proactive action: re-specialize idle ``container_id`` toward
    ``function_name``'s image (Pagurus-style helping).

    Executed by :meth:`ContainerLifecycle.lend`; a no-op when the donor is
    gone, incompatible, or the repack would overflow its pool shard.
    """

    container_id: int
    image: FunctionImage
    function_name: str


ProactiveAction = Union[PrewarmRequest, LendRequest]


@dataclass(frozen=True)
class Decision:
    """A scheduling decision: reuse ``container_id`` or cold-start (None).

    ``preserve_image`` requests zygote-style reuse: the container serves the
    function but keeps its own (superset) image instead of being repacked to
    the function's image, so it can keep serving the whole function family.
    Only meaningful for warm decisions.

    ``actions`` carries any proactive requests (pre-warms, lends) the
    policy wants executed alongside this decision; empty for the reactive
    baselines.
    """

    container_id: Optional[int] = None
    preserve_image: bool = False
    actions: Tuple[ProactiveAction, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.preserve_image and self.container_id is None:
            raise ValueError("preserve_image requires a warm decision")

    @property
    def is_cold(self) -> bool:
        return self.container_id is None

    @classmethod
    def cold(cls) -> "Decision":
        """The cold-start decision (one shared immutable instance)."""
        return _COLD

    @classmethod
    def warm(cls, container_id: int, preserve_image: bool = False) -> "Decision":
        return cls(container_id=container_id, preserve_image=preserve_image)

    def with_actions(
        self, actions: Tuple[ProactiveAction, ...]
    ) -> "Decision":
        """Copy of this decision carrying ``actions`` (frozen dataclass)."""
        return Decision(
            container_id=self.container_id,
            preserve_image=self.preserve_image,
            actions=tuple(actions),
        )


_COLD = Decision()


class _IdleContainers:
    """``SchedulingContext.idle_containers``, ordered on first read.

    A context built with ``idle_containers=None`` (the simulator's and the
    lane kernel's) reads its pool's idle containers lazily, sorted
    least-recently-used first by ``(last_used_at, container_id)``, so
    policies that only query the match index never pay for the sort.
    Hand-built contexts keep the tuple they were given.
    """

    def __get__(self, ctx, owner=None):
        if ctx is None:
            raise AttributeError("idle_containers")  # required field
        idle = ctx.__dict__["_idle"]
        if idle is None:
            from repro.cluster.pool import _mru_key

            pool = ctx.__dict__["_pool"]
            idle = () if pool is None else tuple(
                sorted(pool.lru_order(), key=_mru_key)
            )
            ctx.__dict__["_idle"] = idle
        return idle

    def __set__(self, ctx, value) -> None:
        ctx.__dict__["_idle"] = None if value is None else tuple(value)


class _MatchIndex:
    """``SchedulingContext.pool``: the live pool, or an index built on
    first read over the containers a hand-built context was given."""

    def __get__(self, ctx, owner=None):
        if ctx is None:
            return None  # the field's default
        pool = ctx.__dict__["_pool"]
        if pool is None:
            from repro.cluster.pool import WarmPool

            pool = WarmPool(float("inf"))
            for container in ctx.idle_containers:
                pool.add(container)
            ctx.__dict__["_pool"] = pool
        return pool

    def __set__(self, ctx, value) -> None:
        ctx.__dict__["_pool"] = value


class _LoadView:
    """``SchedulingContext.worker_loads`` / ``queue_depths``, read on
    first access.

    A driver builds its context with ``None`` for both views and binds
    its :class:`~repro.cluster.placement.PlacementEngine` as the load
    source (:meth:`SchedulingContext._bind_loads`); the first read then
    takes the view from the placement engine at the context's own
    ``now`` and keeps it, so only policies that read cluster load pay
    for the tuples.  Without a source the view is ``()``; hand-built
    contexts keep the tuple they were given.
    """

    def __init__(self, read) -> None:
        self._read = read

    def __set_name__(self, owner, name: str) -> None:
        self._slot = "_" + name

    def __get__(self, ctx, owner=None):
        if ctx is None:
            return ()  # the field's default
        state = ctx.__dict__
        view = state[self._slot]
        if view is None:
            placement = state.get("_placement")
            view = () if placement is None else self._read(placement, ctx.now)
            state[self._slot] = view
        return view

    def __set__(self, ctx, value) -> None:
        ctx.__dict__[self._slot] = None if value is None else tuple(value)


@dataclass(frozen=True)
class SchedulingContext:
    """Read-only view handed to schedulers at each decision point.

    Attributes
    ----------
    now:
        Current simulation time.
    invocation:
        The arriving invocation to place.
    idle_containers:
        Idle warm containers, least-recently-used first.  Drivers pass
        ``None`` and the tuple is built from :attr:`pool` on first read.
    cost_model:
        The cluster's startup cost model (for latency estimation).
    pool_capacity_mb, pool_used_mb:
        Warm-pool capacity state.
    pool:
        The live warm pool (a :class:`~repro.cluster.pool.PoolSet`, or a
        lane's :class:`~repro.cluster.pool.WarmPool`); its match index
        turns :meth:`best_candidate`, :meth:`best_exact` and
        :meth:`match_counts` into dictionary lookups.  A hand-built
        context without one indexes its ``idle_containers`` on first
        read, so every helper has one implementation.
    worker_loads:
        Hosted container count per worker (busy and idle alike), indexed
        by worker id.  Empty in hand-built contexts.
    queue_depths:
        Startups waiting for a worker concurrency slot, per worker.  All
        zeros unless the simulator enforces a ``worker_concurrency``
        limit; empty in hand-built contexts.  The simulator's contexts
        build both load views on first read, at the context's ``now``;
        read them while deciding, before the decision is applied.
    """

    now: float
    invocation: Invocation
    idle_containers: Tuple[Container, ...] = _IdleContainers()
    cost_model: StartupCostModel
    pool_capacity_mb: float
    pool_used_mb: float
    pool: Optional["PoolSet"] = _MatchIndex()
    worker_loads: Tuple[int, ...] = _LoadView(
        lambda placement, now: placement.workers.container_counts()
    )
    queue_depths: Tuple[int, ...] = _LoadView(
        lambda placement, now: placement.queue_depths(now)
    )

    def _bind_loads(self, placement) -> None:
        """Make ``placement`` the source of the lazy load views."""
        self.__dict__["_placement"] = placement

    def _rebind(
        self, now: float, invocation: Invocation, pool_used_mb: float
    ) -> None:
        """Point a driver-owned context at its pool's next decision.

        The simulator's driver loop and the lane kernel reuse one context
        each; this resets the per-arrival fields and the lazily built
        idle tuple and load views in place.
        """
        state = self.__dict__
        state["now"] = now
        state["invocation"] = invocation
        state["pool_used_mb"] = pool_used_mb
        state["_idle"] = None
        state["_worker_loads"] = None
        state["_queue_depths"] = None

    # -- helpers every scheduler needs -------------------------------------
    def match_of(self, container: Container) -> MatchLevel:
        """Table-I match level between the invocation and ``container``."""
        return match_level(self.invocation.spec.image, container.image)

    def estimated_latency(self, container: Optional[Container]) -> float:
        """Estimated startup latency reusing ``container`` (None = cold)."""
        match = MatchLevel.NO_MATCH if container is None else self.match_of(container)
        return self.cost_model.latency_s(
            self.invocation.spec.image, match, self.invocation.spec.function_init_s
        )

    def reusable_containers(self) -> List[Tuple[Container, MatchLevel]]:
        """Idle containers with a non-trivial match, deepest-match first.

        Ties on match level keep most-recently-used first so schedulers that
        take the head get LRU-friendly behaviour.
        """
        scored = [
            (c, self.match_of(c))
            for c in self.idle_containers
        ]
        reusable = [(c, m) for c, m in scored if m.is_reusable]
        # idle_containers is LRU-first; reverse for MRU-first tie-breaking.
        reusable.reverse()
        reusable.sort(key=lambda cm: -int(cm[1]))
        return reusable

    def best_candidate(self) -> Tuple[Optional[Container], MatchLevel]:
        """Deepest-matching idle container, MRU tie-break; ``(None,
        NO_MATCH)`` when nothing is reusable."""
        return self.pool.best_match(self.invocation.spec.image)

    def best_exact(self) -> Optional[Container]:
        """Most-recently-used fully (L3) matching idle container, or None."""
        return self.pool.best_exact(self.invocation.spec.image)

    def match_counts(self) -> Dict[MatchLevel, int]:
        """Idle-container counts per Table-I match level."""
        depth = self.pool.match_depth_counts(self.invocation.spec.image)
        return {lvl: depth[int(lvl)] for lvl in MatchLevel}


class Scheduler(abc.ABC):
    """Base class for container-reuse scheduling policies."""

    #: Human-readable policy name used in reports and figures.
    name: str = "scheduler"

    @abc.abstractmethod
    def decide(self, ctx: SchedulingContext) -> Decision:
        """Choose a warm container (or cold start) for ``ctx.invocation``."""

    def reset(self) -> None:
        """Clear per-run state; called by experiment harnesses between runs."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"
