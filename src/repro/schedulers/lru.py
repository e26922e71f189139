"""LRU baseline: exact-configuration reuse with LRU eviction."""

from __future__ import annotations

from repro.cluster.eviction import LRUEviction
from repro.schedulers.base import Decision, Scheduler, SchedulingContext


class LRUScheduler(Scheduler):
    """Reuse a warm container only on a full configuration match.

    Finished containers are kept in the pool; when the pool is full the
    least-recently-used idle container is evicted to make space (the paper's
    *LRU* comparison).
    """

    name = "LRU"

    @staticmethod
    def make_eviction_policy() -> LRUEviction:
        return LRUEviction()

    def decide(self, ctx: SchedulingContext) -> Decision:
        """Choose a warm container (or cold start) for ``ctx.invocation``."""
        exact = ctx.best_exact()  # most recently used full match
        if exact is None:
            return Decision.cold()
        return Decision.warm(exact.container_id)
