"""Model-predictive pre-warm scheduler (Taming Cold Starts, arXiv:2508.07640).

Reactive half: exact-match keep-alive reuse, byte-identical to
:class:`~repro.schedulers.keepalive.KeepAliveScheduler` (the
``mpc_forecast_off_vs_keepalive`` differential oracle pins this).

Proactive half: a sliding per-function EWMA over inter-arrival gaps
forecasts each function's next arrival; every decision re-solves a
receding-horizon plan -- functions predicted to arrive within
``horizon_s`` that have no idle exact-match container get a
:class:`~repro.schedulers.base.PrewarmRequest` attached to the decision,
at most ``prewarm_budget`` per decision and at most one outstanding
pre-warm per predicted arrival.  The driver executes the requests through
:meth:`ContainerLifecycle.prewarm`; telemetry's pre-warm block (issued /
reused / wasted) measures the forecaster's hit rate.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.cluster.eviction import EvictionPolicy, RejectNewcomerEviction
from repro.containers.image import FunctionImage
from repro.containers.matching import MatchLevel
from repro.schedulers.base import (
    Decision,
    PrewarmRequest,
    Scheduler,
    SchedulingContext,
)


class ArrivalForecaster:
    """Per-function EWMA over inter-arrival gaps.

    ``observe(fn, t)`` folds one arrival in; ``predict_next(fn)`` returns
    the forecast next-arrival time (last arrival plus the smoothed gap),
    or ``None`` before two arrivals have been seen.  The prediction is
    shift-equivariant: shifting every observed arrival time by a constant
    shifts every prediction by the same constant (gaps are differences).
    """

    def __init__(self, alpha: float = 0.3) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha
        self._last: Dict[str, float] = {}
        self._ewma_gap: Dict[str, float] = {}

    def observe(self, function_name: str, arrival_time: float) -> None:
        """Fold one arrival of ``function_name`` at ``arrival_time``."""
        last = self._last.get(function_name)
        if last is not None:
            gap = arrival_time - last
            prev = self._ewma_gap.get(function_name)
            if prev is None:
                self._ewma_gap[function_name] = gap
            else:
                self._ewma_gap[function_name] = (
                    self.alpha * gap + (1.0 - self.alpha) * prev
                )
        self._last[function_name] = arrival_time

    def predict_next(self, function_name: str) -> Optional[float]:
        """Forecast next-arrival time; None before two observations."""
        gap = self._ewma_gap.get(function_name)
        if gap is None:
            return None
        return self._last[function_name] + gap

    def reset(self) -> None:
        """Forget every observation."""
        self._last.clear()
        self._ewma_gap.clear()


class MPCScheduler(Scheduler):
    """Receding-horizon pre-warming on top of keep-alive reuse.

    Parameters
    ----------
    horizon_s:
        Look-ahead window: only arrivals forecast within the next
        ``horizon_s`` seconds trigger a pre-warm.
    prewarm_budget:
        Maximum pre-warm requests attached to one decision (the planning
        step's action budget).
    alpha:
        EWMA smoothing factor for the inter-arrival forecaster.
    ttl_s:
        Keep-alive TTL handed to the eviction policy (same default as the
        keep-alive baseline).
    forecast:
        ``False`` disables the proactive half entirely; the scheduler is
        then byte-identical to the keep-alive baseline.
    """

    name = "MPC-Prewarm"

    def __init__(
        self,
        horizon_s: float = 30.0,
        prewarm_budget: int = 2,
        alpha: float = 0.3,
        ttl_s: float = 600.0,
        forecast: bool = True,
    ) -> None:
        if horizon_s <= 0:
            raise ValueError("horizon_s must be positive")
        if prewarm_budget < 0:
            raise ValueError("prewarm_budget must be >= 0")
        self.horizon_s = horizon_s
        self.prewarm_budget = prewarm_budget
        self.ttl_s = ttl_s
        self.forecast = forecast
        self.forecaster = ArrivalForecaster(alpha=alpha)
        # Registered function images, in first-seen (insertion) order --
        # the deterministic iteration order of the planning loop.
        self._images: Dict[str, FunctionImage] = {}
        # Predicted arrival each function was last pre-warmed for: at most
        # one outstanding pre-warm per forecast point.
        self._prewarmed_for: Dict[str, float] = {}

    def reset(self) -> None:
        """Forget forecasts, registered images and outstanding pre-warms."""
        self.forecaster.reset()
        self._images.clear()
        self._prewarmed_for.clear()

    def make_eviction_policy(self) -> EvictionPolicy:
        """Keep-alive semantics for the reactive half."""
        return RejectNewcomerEviction(ttl_s=self.ttl_s)

    def decide(self, ctx: SchedulingContext) -> Decision:
        """Keep-alive exact-match reuse plus the receding-horizon plan."""
        spec = ctx.invocation.spec
        self._images[spec.name] = spec.image
        self.forecaster.observe(spec.name, ctx.invocation.arrival_time)
        exact = ctx.best_exact()
        decision = (
            Decision.cold() if exact is None
            else Decision.warm(exact.container_id)
        )
        if not self.forecast or self.prewarm_budget == 0:
            return decision
        plan = self._plan(ctx, decision)
        if plan:
            return decision.with_actions(plan)
        return decision

    # -- planning ------------------------------------------------------------
    def _plan(self, ctx: SchedulingContext, decision: Decision) -> list:
        """Pre-warm requests for functions forecast inside the horizon."""
        now = ctx.now
        deadline = now + self.horizon_s
        claimed = decision.container_id
        plan = []
        for fn, image in self._images.items():
            if len(plan) >= self.prewarm_budget:
                break
            if fn == ctx.invocation.spec.name:
                # The container this very decision starts (or claims) will
                # serve the function's next arrival if keep-alive holds it.
                continue
            predicted = self.forecaster.predict_next(fn)
            if predicted is None or not (now < predicted <= deadline):
                continue
            if self._prewarmed_for.get(fn) == predicted:
                continue
            if any(
                c.container_id != claimed
                for c in ctx.pool.match_candidates(image, MatchLevel.L3)
            ):
                # An idle exact match stays pooled after this decision.
                continue
            plan.append(PrewarmRequest(image=image, function_name=fn))
            self._prewarmed_for[fn] = predicted
        return plan
