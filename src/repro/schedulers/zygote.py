"""Zygote-container baseline (Li et al., USENIX ATC'22 -- related work).

"Help Rather Than Recycle" proposes *zygote* containers that hold the
package union of several functions; a function can warm-start on a zygote
that contains **all** of its packages, and the zygote is preserved (not
repacked) so it keeps serving the whole family.

This module provides:

* :func:`build_zygote_images` -- derive one zygote image per
  (OS, language) family from a set of function specs, with the union of
  that family's runtime packages;
* :class:`ZygoteScheduler` -- reuse a covering container
  (``preserve_image=True``), fall back to exact-match reuse, else cold
  start.

Run it with ``SimulationConfig(delta_pricing=True)`` and a pre-warmed
zygote pool (``ClusterSimulator.prewarm``); the extension benchmark
``benchmarks/bench_ext_zygote.py`` does exactly that.

Compared to MLCR (the paper's Section VII discussion): zygotes need every
package present to help, pay memory for the union permanently, and require
choosing the families up front, whereas MLCR reuses *partial* matches and
adapts online.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.cluster.eviction import LRUEviction
from repro.containers.image import FunctionImage
from repro.containers.matching import MatchLevel
from repro.schedulers.base import Decision, Scheduler, SchedulingContext
from repro.workloads.functions import FunctionSpec

#: Covering-test memo: ``(function fingerprints, container fingerprints)``
#: -> whether the container's packages include all of the function's.
#: Interned fingerprints are equal iff the package sets are, so the key
#: determines the answer; the table is process-wide like the intern tables.
_COVERING: Dict[Tuple[tuple, tuple], bool] = {}


def build_zygote_images(
    specs: Iterable[FunctionSpec], memory_overhead_mb: float = 48.0
) -> List[FunctionImage]:
    """One zygote per (OS-level, language-level) family: runtime union."""
    families: Dict[Tuple, List[FunctionSpec]] = {}
    for spec in specs:
        key = (spec.image.os_packages, spec.image.language_packages)
        families.setdefault(key, []).append(spec)
    zygotes: List[FunctionImage] = []
    for i, ((os_pkgs, lang_pkgs), members) in enumerate(
        sorted(families.items(), key=lambda kv: kv[1][0].name)
    ):
        runtime_union = frozenset().union(
            *(m.image.runtime_packages for m in members)
        )
        packages = list(os_pkgs | lang_pkgs | runtime_union)
        zygotes.append(
            FunctionImage.from_packages(
                f"zygote/family-{i:02d}", packages,
                memory_overhead_mb=memory_overhead_mb,
            )
        )
    return zygotes


class ZygoteScheduler(Scheduler):
    """Warm-start on covering (superset) containers, preserved in place."""

    name = "Zygote"

    @staticmethod
    def make_eviction_policy() -> LRUEviction:
        return LRUEviction()

    def decide(self, ctx: SchedulingContext) -> Decision:
        """Smallest covering same-OS container, preserved in place; else
        the most recently used exact match; else cold.

        Same-OS candidates are exactly the pool's L1 index bucket and
        ``same_configuration`` is full-fingerprint equality; the smallest
        ``(memory_mb, container_id)`` pick is order-free.
        """
        image = ctx.invocation.spec.image
        fps = image.fingerprints
        best = None
        best_key = None
        for c in ctx.pool.match_candidates(image, MatchLevel.L1):
            c_fps = c.image.fingerprints
            if c_fps == fps:
                continue  # exact match: the fallback below
            covers = _COVERING.get((fps, c_fps))
            if covers is None:
                covers = _COVERING[fps, c_fps] = (
                    frozenset(image.packages) <= frozenset(c.image.packages)
                )
            if covers:
                key = (c.memory_mb, c.container_id)
                if best_key is None or key < best_key:
                    best, best_key = c, key
        if best is not None:
            return Decision.warm(best.container_id, preserve_image=True)
        exact = ctx.best_exact()
        if exact is None:
            return Decision.cold()
        return Decision.warm(exact.container_id)
