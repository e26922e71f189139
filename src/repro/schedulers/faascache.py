"""FaasCache baseline: exact-configuration reuse + greedy-dual eviction.

FaasCache (Fuerst & Sharma, ASPLOS'21) treats keep-alive as caching: the
scheduling side is identical to LRU (reuse only full matches) but eviction
uses a greedy-dual priority combining invocation frequency, observed startup
cost and memory footprint.
"""

from __future__ import annotations

from repro.cluster.eviction import FaasCacheEviction
from repro.schedulers.base import Decision, Scheduler, SchedulingContext


class FaasCacheScheduler(Scheduler):
    """Exact-match reuse paired with :class:`FaasCacheEviction`."""

    name = "FaasCache"

    @staticmethod
    def make_eviction_policy() -> FaasCacheEviction:
        return FaasCacheEviction()

    def decide(self, ctx: SchedulingContext) -> Decision:
        """Choose a warm container (or cold start) for ``ctx.invocation``."""
        exact = ctx.best_exact()  # most recently used full match
        if exact is None:
            return Decision.cold()
        return Decision.warm(exact.container_id)
