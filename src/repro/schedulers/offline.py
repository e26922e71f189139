"""Scheduler serving an offline-fitted tabular Q-policy.

:class:`OfflineQScheduler` looks up the arriving function's Q-row in an
:class:`~repro.drl.offline.OfflineQPolicy` (fitted by
:func:`~repro.drl.offline.fit_from_traces` from golden-trace /
serve-recording JSONL), masks out actions with no idle candidate at that
match level, and picks the first maximal action, as
:func:`~repro.drl.dqn.masked_argmax` does for the DQN stack.  For
functions the data never covered -- or before any policy is attached --
it falls back to the greedy deepest-match rule, so the registry's no-arg
construction is always valid.

When built without an explicit policy, :meth:`observe_workload`
bootstraps one from the workload itself: a greedy reference rollout on an
unbounded pool is recorded in memory and fitted, so experiment-grid cells
genuinely train from traces (deterministically -- same workload, same
rollout, same policy) without any filesystem coupling.  Fitted policies
are memoized per workload draw, so a grid rolls each draw out once per
process however many cells replay it.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Dict, Optional, Tuple

from repro.cluster.eviction import LRUEviction
from repro.containers.matching import MatchLevel
from repro.drl.offline import OfflineQPolicy
from repro.schedulers.base import Decision, Scheduler, SchedulingContext
from repro.workloads.workload import Workload

#: Bootstrapped policies by workload identity, least recently used first.
#: Each entry keeps its workload alive, so the ``id`` key cannot be reused
#: while cached; the rollout is deterministic, so an evicted draw refits to
#: the same policy.  Bounded like the grid runner's arrival-table memo.
_BOOTSTRAP_CACHE: "OrderedDict[int, Tuple[Workload, OfflineQPolicy]]" = (
    OrderedDict()
)
_BOOTSTRAP_CACHE_SIZE = 8

_LEVELS = tuple(MatchLevel)


def _bootstrap_policy(workload: Workload) -> OfflineQPolicy:
    """The policy fitted from a greedy reference rollout of ``workload``
    on an unbounded pool (rolled out once per draw per process)."""
    entry = _BOOTSTRAP_CACHE.get(id(workload))
    if entry is not None:
        _BOOTSTRAP_CACHE.move_to_end(id(workload))
        return entry[1]
    # Deferred imports: schedulers must stay importable without dragging
    # the full cluster stack in at package-import time.
    from repro.cluster.simulator import ClusterSimulator, SimulationConfig
    from repro.drl.offline import fit_from_traces, trace_lines_from_result
    from repro.schedulers.greedy import GreedyMatchScheduler

    reference = GreedyMatchScheduler()
    sim = ClusterSimulator(
        SimulationConfig(pool_capacity_mb=float("inf")),
        reference.make_eviction_policy(),
    )
    result = sim.run(workload, reference)
    policy = fit_from_traces([trace_lines_from_result(result)])
    _BOOTSTRAP_CACHE[id(workload)] = (workload, policy)
    while len(_BOOTSTRAP_CACHE) > _BOOTSTRAP_CACHE_SIZE:
        _BOOTSTRAP_CACHE.popitem(last=False)
    return policy


class OfflineQScheduler(Scheduler):
    """Serve decisions from a trace-fitted tabular Q-function.

    Parameters
    ----------
    policy:
        A fitted :class:`~repro.drl.offline.OfflineQPolicy`.  ``None``
        (the registry default) starts untrained: decisions fall back to
        greedy deepest-match until :meth:`observe_workload` bootstraps a
        policy from a reference rollout.
    """

    name = "Offline-Q"

    def __init__(self, policy: Optional[OfflineQPolicy] = None) -> None:
        self.policy = policy
        # An explicitly-supplied policy is pinned: observe_workload will
        # not overwrite it (serving a trained checkpoint must not retrain).
        self._policy_pinned = policy is not None
        # Q-rows of ``_rows_policy`` by function, NaN cells as None.
        self._rows_policy: Optional[OfflineQPolicy] = None
        self._rows: Dict[str, Optional[Tuple[Optional[float], ...]]] = {}

    def reset(self) -> None:
        """Drop any bootstrapped policy (pinned checkpoints survive)."""
        if not self._policy_pinned:
            self.policy = None

    @staticmethod
    def make_eviction_policy() -> LRUEviction:
        """LRU, like the other multi-level-reuse policies."""
        return LRUEviction()

    def observe_workload(self, workload: Workload) -> None:
        """Bootstrap a policy from a greedy reference rollout (offline).

        No-op when a policy was supplied at construction.  The rollout
        runs the greedy baseline over ``workload`` on an unbounded pool;
        its decision lines become the offline dataset.
        """
        if not self._policy_pinned:
            self.policy = _bootstrap_policy(workload)

    def decide(self, ctx: SchedulingContext) -> Decision:
        """Arg-max over the function's Q-row, masked to the actions with an
        idle candidate at exactly that match level (first maximum wins,
        as in :func:`~repro.drl.dqn.masked_argmax`); greedy fallback when
        untrained, unseen or fully masked."""
        row = self._q_row(ctx.invocation.spec.name)
        if row is not None:
            image = ctx.invocation.spec.image
            counts = ctx.pool.match_depth_counts(image)
            best_a = -1
            best_v = -math.inf
            for a, v in enumerate(row):
                if v is None or (a and not counts[a]):
                    continue
                if v > best_v:
                    best_a, best_v = a, v
            if best_a == 0:
                return Decision.cold()
            if best_a > 0:
                container = ctx.pool.best_at_level(image, _LEVELS[best_a])
                return Decision.warm(container.container_id)
        container, level = ctx.best_candidate()
        if level.is_reusable:
            return Decision.warm(container.container_id)
        return Decision.cold()

    def _q_row(self, function_name: str) -> Optional[Tuple]:
        """The policy's Q-row for ``function_name`` (None when untrained
        or unseen), memoized per policy."""
        policy = self.policy
        if policy is None:
            return None
        if policy is not self._rows_policy:
            self._rows_policy = policy
            self._rows = {}
        rows = self._rows
        if function_name not in rows:
            qvals = policy.action_values(function_name)
            rows[function_name] = None if qvals is None else tuple(
                None if math.isnan(v) else float(v) for v in qvals
            )
        return rows[function_name]
