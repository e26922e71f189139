"""W-style always-adopt scheduler (the Fig. 1 "W" reuse mode).

Adopts any same-OS warm container and pulls only missing packages (delta
costing), always choosing the candidate whose delta cost is lowest.  It is
the level-free counterpart of Greedy-Match: no Table-I pruning, maximal
adoption.  Not part of the paper's comparison set (the paper uses "W" only
in the motivating microbenchmark), provided as an extension baseline.

Note the cluster simulator prices warm reuse by Table-I match level; this
scheduler therefore *selects* by delta cost but still pays level-based cost
in the simulator -- its value is in the Fig. 1 analysis and in stress-testing
the matcher with adversarial adoption behaviour.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.cluster.eviction import LRUEviction
from repro.cluster.pool import _mru_key
from repro.containers.costmodel import StartupCostModel
from repro.containers.matching import MatchLevel
from repro.schedulers.base import Decision, Scheduler, SchedulingContext


class AlwaysAdoptScheduler(Scheduler):
    """Adopt the same-OS container with the smallest delta startup cost."""

    name = "W-AlwaysAdopt"

    def __init__(self) -> None:
        # Delta-cost and cold-latency memo for one cost model, keyed by
        # interned fingerprints (which determine the package sets, hence
        # the costs exactly) and the function's init time.
        self._cost_model: Optional[StartupCostModel] = None
        self._costs: Dict[Tuple, float] = {}

    @staticmethod
    def make_eviction_policy() -> LRUEviction:
        return LRUEviction()

    def decide(self, ctx: SchedulingContext) -> Decision:
        """Cheapest same-OS delta cost, adopted only when it beats the
        cold-start latency.

        Candidates are scanned least-recently-used first with a strict
        ``<``, so the first minimizer in LRU order wins.
        """
        spec = ctx.invocation.spec
        image = spec.image
        candidates = ctx.pool.match_candidates(image, MatchLevel.L1)
        if not candidates:
            return Decision.cold()
        candidates.sort(key=_mru_key)
        cost_model = ctx.cost_model
        if cost_model is not self._cost_model:
            self._cost_model = cost_model
            self._costs = {}
        costs = self._costs
        fps = image.fingerprints
        finit = spec.function_init_s
        best = None
        best_cost = float("inf")
        for container in candidates:
            key = (fps, finit, container.image.fingerprints)
            cost = costs.get(key)
            if cost is None:
                cost = costs[key] = cost_model.delta_breakdown(
                    image, container.image, finit
                ).total_s
            if cost < best_cost:
                best_cost = cost
                best = container
        cold = costs.get((fps, finit))
        if cold is None:
            cold = costs[fps, finit] = ctx.estimated_latency(None)
        if best_cost < cold:
            return Decision.warm(best.container_id)
        return Decision.cold()
