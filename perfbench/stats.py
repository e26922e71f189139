"""Pure helpers shared by the workloads: percentiles, the ladder stop rule,
span self-time arithmetic and the host fingerprint.

Nothing here imports the program under test, so the unit tests in
``perfbench/tests`` run without sockets or simulations.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10


def tail_percentile(n: int) -> Optional[float]:
    """Highest percentile (0.1 steps, at most p99) with >= 10 samples beyond.

    With ``n`` sorted samples the p-th percentile is the sample at rank
    ``ceil(p/100 * n)``; ``n - rank`` samples lie beyond it.  Returns
    ``None`` when not even the median leaves ten samples beyond it.
    """
    p = 990
    while p >= 500:
        rank = math.ceil(p / 1000.0 * n - 1e-9)
        if n - rank >= TAIL_BEYOND:
            return p / 10.0
        p -= 1
    return None


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile ``p`` (0 < p <= 100) of ``samples``."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered) - 1e-9))
    return ordered[rank - 1]


def median_and_tail(samples: Sequence[float]
                    ) -> Tuple[float, float, Optional[float]]:
    """``(median, tail value, tail percentile)`` under :func:`tail_percentile`.

    Without enough samples for any tail the tail value is the maximum and
    its percentile ``None``.
    """
    p = tail_percentile(len(samples))
    tail = percentile(samples, p) if p is not None else max(samples)
    return statistics.median(samples), tail, p


def latencies_from_due(due: Sequence[float], done: Sequence[float]
                       ) -> List[float]:
    """Open-loop request latencies: completion minus the time it was due.

    Timing from the due time (not from when the generator got round to
    sending) charges a generator or server stall to every request it
    delayed.
    """
    if len(due) != len(done):
        raise ValueError("due and done must pair up")
    return [end - start for start, end in zip(due, done)]


#: Ladder acceptance: tail latency limit, achieved/offered floor.
LADDER_LIMIT_MS = 100.0
LADDER_MIN_ACHIEVED = 0.95


def ladder_rates(start: float, step: float, top: float) -> List[float]:
    """Ascending offered rates ``start * (1 + step)**k`` up to ``top``."""
    if not 0 < step <= 0.10:
        raise ValueError("ladder steps must be in (0, 10%]")
    rates = []
    rate = start
    while rate <= top + 1e-9:
        rates.append(round(rate, 3))
        rate *= 1.0 + step
    return rates


def step_passes(tail_ms: float, offered: float, achieved: float,
                errors: int) -> bool:
    """Whether one ladder step meets the limit (tail, rate and errors)."""
    return (errors == 0 and tail_ms <= LADDER_LIMIT_MS
            and achieved >= LADDER_MIN_ACHIEVED * offered)


def ladder_max_rate(steps: Iterable[Tuple[float, bool]]) -> Optional[float]:
    """Highest passing offered rate before the first failing step.

    ``steps`` are ``(offered rate, passed)`` in ascending order; the ladder
    stops at its first failure, so later steps are never consulted.
    Returns ``None`` when the first step already fails.
    """
    best = None
    for rate, passed in steps:
        if not passed:
            break
        best = rate
    return best


def self_times(spans: Sequence[Tuple[int, Optional[int], str, int, int]]
               ) -> Dict[str, int]:
    """Per-layer self time of a span list.

    Each span is ``(id, parent id or None, layer, start, end)``.  A span's
    self time is its duration minus the part of its interval that its
    children cover; children are clipped to the parent interval and
    overlapping children are merged, so concurrent children are not
    subtracted twice.
    """
    children: Dict[int, List[Tuple[int, int]]] = {}
    for _sid, parent, _layer, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out: Dict[str, int] = {}
    for sid, _parent, layer, start, end in spans:
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[layer] = out.get(layer, 0) + (end - start) - covered
    return out


def canonical_digest(obj) -> str:
    """SHA-256 of the canonical JSON form of ``obj`` (floats via repr)."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def host_fingerprint(root: str) -> Dict[str, object]:
    """Host and provenance facts recorded with every result."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dependency
        numpy_version = None
    commit = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": commit,
        "executable": os.path.basename(sys.executable),
    }


def program_env(root: str) -> Dict[str, str]:
    """Environment of a child process running the program from ``root``:
    ``src`` and the benchmark importable, experiment cache off."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "src"), root])
    env["PYTHONUNBUFFERED"] = "1"
    env["REPRO_CACHE"] = "off"
    return env


def peak_rss_mb_self() -> float:
    """Peak resident set size of this process so far, in MB."""
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
