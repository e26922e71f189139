#!/usr/bin/env python
"""Capture micro-benchmark baselines into ``benchmarks/bench_baseline.json``.

Runs the micro-benchmark files under pytest-benchmark, extracts each test's
*minimum* round time, and writes them as a ``{test_name: min_seconds}``
baseline.  The autouse guard in ``benchmarks/conftest.py`` fails any
benchmark whose min regresses more than 30% past its baseline entry.  The
min -- not the mean -- is tracked because shared/virtualized hosts add
steal time that inflates the mean unboundedly under load, while the
fastest of hundreds of rounds only moves when the code itself slows down.

Usage::

    python tools/bench_capture.py                 # refresh the baseline
    python tools/bench_capture.py --repeat 3      # jitter-robust refresh
    python tools/bench_capture.py --output o.json # write elsewhere
    python tools/bench_capture.py benchmarks/bench_state_encoder.py
    python tools/bench_capture.py --compare benchmarks/bench_baseline.json

``--compare`` is the gate mode: instead of rewriting the baseline it runs
the same benchmarks and exits non-zero if any min regressed more than 30%
(the ``REGRESSION_FACTOR`` in ``benchmarks/conftest.py``) past the given
baseline file.  ``tools/verify_capture.py --with-bench`` invokes it as a
fourth verification stage.

``--repeat N`` captures N times and keeps each benchmark's slowest min --
extra insurance against a capture run where even the best round was
degraded (faster-than-baseline never fails, so erring slow is safe).

Min times are *probe-scaled*: right after each benchmark the conftest
fixture times a fixed pure-Python probe loop (``perfbench.hostspeed``)
and stamps it as ``extra_info["host_probe_s"]``.  The baseline records
the median probe of the capture as ``host_probe_s`` and every min
rescaled to it; ``--compare`` (like the in-run guard) rescales each
observed min by that probe over its own, so a host that runs slower than
at capture does not read as a regression of the code.

Alongside each timing, the per-file *peak RSS* stamped by the conftest
fixture (``extra_info["peak_rss_mb"]``) is captured as a
``{test_name}[rss_mb]`` entry, so ``--compare`` also gates memory
regressions under the same cold-process conditions the baseline was
captured in.  (The in-run guard deliberately skips RSS: ``ru_maxrss`` is
process-wide and monotone, so warm multi-file runs would false-fail.)

Re-run after intentional performance changes and commit the updated
baseline alongside them.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Sequence, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Benchmarks excluded from the default capture because they train DRL
#: policies or replay full experiment grids -- far too slow to re-run on
#: every baseline refresh.  Every file here must still exist (the
#: ``tests/test_bench_manifest.py`` drift test checks both directions).
HEAVY_BENCHMARKS = frozenset({
    "bench_ablations.py",
    "bench_ext_azure.py",
    "bench_ext_sharding.py",
    "bench_ext_zygote.py",
    "bench_fig10_memory.py",
    "bench_fig11a_similarity.py",
    "bench_fig11b_variance.py",
    "bench_fig11c_arrivals.py",
    "bench_fig1_breakdown.py",
    "bench_fig2_motivation.py",
    "bench_fig3_dockerhub.py",
    "bench_fig8_overall.py",
    "bench_fig9_trajectory.py",
    "bench_overhead_inference.py",
    "bench_tab2_functions.py",
})


def discover_benchmarks() -> List[str]:
    """Every ``benchmarks/bench_*.py`` file, repo-relative and sorted."""
    return sorted(
        f"benchmarks/{path.name}"
        for path in (REPO_ROOT / "benchmarks").glob("bench_*.py")
    )


def default_benchmarks() -> List[str]:
    """Discovered benchmarks minus the heavy exclusion set."""
    return [
        path for path in discover_benchmarks()
        if Path(path).name not in HEAVY_BENCHMARKS
    ]


#: Benchmarks fast enough to re-run on every capture: everything under
#: ``benchmarks/`` that is not explicitly listed as heavy, so a new
#: ``bench_*.py`` file joins the baseline automatically (or must be added
#: to :data:`HEAVY_BENCHMARKS`, which the manifest drift test enforces).
DEFAULT_BENCHMARKS = tuple(default_benchmarks())

DEFAULT_OUTPUT = REPO_ROOT / "benchmarks" / "bench_baseline.json"

#: Allowed slowdown in ``--compare`` mode; mirrors the autouse guard's
#: ``REGRESSION_FACTOR`` in ``benchmarks/conftest.py`` (kept as a literal
#: here because conftest modules are not importable outside pytest).
REGRESSION_FACTOR = 1.30

#: Suffix marking a baseline entry as a peak-RSS (MB) capture rather than
#: a min round time (seconds).
RSS_SUFFIX = "[rss_mb]"

#: Baseline key of the capture's host probe time in seconds; mirrors
#: ``PROBE_KEY`` in ``benchmarks/conftest.py``.
PROBE_KEY = "host_probe_s"


def capture(
    bench_paths: Sequence[str],
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Run the benchmarks; returns ``({test_name: min_seconds},
    {test_name: host_probe_s})``.

    Each file runs in its own pytest process: timings are
    context-sensitive (a process warmed up by earlier benchmark files
    measures ~1.5x faster mins than a cold one), so the baseline pins the
    cold-process worst case.  Any warmer multi-file run can then only come
    in faster, which the guard never fails.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    # The guard compares against the file being regenerated; disable it.
    env["REPRO_BENCH_GUARD"] = "off"
    mins: Dict[str, float] = {}
    probes: Dict[str, float] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for i, path in enumerate(bench_paths):
            json_path = Path(tmp) / f"bench{i}.json"
            result = subprocess.run(
                [sys.executable, "-m", "pytest", path,
                 "--benchmark-only", f"--benchmark-json={json_path}", "-q"],
                cwd=REPO_ROOT, env=env,
            )
            if result.returncode != 0:
                raise SystemExit(
                    f"benchmark run failed ({path}, exit {result.returncode})"
                )
            data = json.loads(json_path.read_text())
            for bench in data["benchmarks"]:
                # Tests that set ``benchmark.extra_info["no_guard"]`` opted
                # out of regression tracking (timings below load-jitter
                # resolution).
                if (bench.get("extra_info") or {}).get("no_guard"):
                    continue
                # "name" is the bare test name, e.g. "test_match_level_rate".
                mins[bench["name"]] = bench["stats"]["min"]
                extra = bench.get("extra_info") or {}
                if extra.get("host_probe_s"):
                    probes[bench["name"]] = extra["host_probe_s"]
                rss = extra.get("peak_rss_mb")
                if rss:
                    mins[f"{bench['name']}{RSS_SUFFIX}"] = rss
    return dict(sorted(mins.items())), probes


def baseline_of(
    runs: Sequence[Tuple[Dict[str, float], Dict[str, float]]],
) -> Dict[str, float]:
    """One baseline from capture runs.

    The median of every probe reading becomes ``host_probe_s``; each min
    time is rescaled to it by its own probe, and across runs the slowest
    rescaled value is kept.  RSS entries are kept as captured (slowest,
    i.e. largest, across runs).
    """
    readings = [p for _, probes in runs for p in probes.values()]
    ref = median(readings) if readings else None
    baseline: Dict[str, float] = {}
    for mins, probes in runs:
        for name, value in mins.items():
            if ref is not None and name in probes:
                value *= ref / probes[name]
            baseline[name] = max(value, baseline.get(name, 0.0))
    if ref is not None:
        baseline[PROBE_KEY] = ref
    return dict(sorted(baseline.items()))


def compare(mins: Dict[str, float], baseline: Dict[str, float],
            factor: float = REGRESSION_FACTOR) -> List[str]:
    """Regression lines for every min past ``factor`` x its baseline.

    When both carry a ``host_probe_s``, min times are first rescaled by
    the baseline's probe over ``mins``'s.  Benchmarks absent from the
    baseline are reported informationally (a fresh ``bench_*.py`` file is
    not a regression) but do not fail the gate; the returned list
    contains only genuine regressions.
    """
    regressions: List[str] = []
    scale = 1.0
    if PROBE_KEY in baseline and PROBE_KEY in mins:
        scale = baseline[PROBE_KEY] / mins[PROBE_KEY]
    for name, observed in mins.items():
        if name == PROBE_KEY:
            continue
        fmt = _fmt_rss if name.endswith(RSS_SUFFIX) else _fmt_ms
        base = baseline.get(name)
        if base is None:
            print(f"  new (no baseline): {name} {fmt(observed)}")
            continue
        if not name.endswith(RSS_SUFFIX):
            observed *= scale
        allowed = base * factor
        if observed > allowed:
            regressions.append(
                f"{name}: {fmt(observed)} > {factor:.2f}x baseline "
                f"({fmt(base)} -> allowed {fmt(allowed)})"
            )
        else:
            print(f"  ok: {name} {fmt(observed)} (baseline {fmt(base)})")
    return regressions


def _fmt_ms(seconds: float) -> str:
    return f"{seconds * 1e3:.3f} ms"


def _fmt_rss(mb: float) -> str:
    return f"{mb:.1f} MB"


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("benchmarks", nargs="*",
                        default=list(DEFAULT_BENCHMARKS),
                        help="benchmark files to capture")
    parser.add_argument("--output", default=str(DEFAULT_OUTPUT),
                        help="baseline JSON path")
    parser.add_argument("--compare", metavar="BASELINE", default=None,
                        help="gate mode: compare against this baseline "
                             "instead of rewriting it; exits non-zero on "
                             f"any >{REGRESSION_FACTOR:.2f}x regression")
    parser.add_argument("--repeat", type=int, default=1, metavar="N",
                        help="capture N times and keep each benchmark's "
                             "slowest min (jitter-robust baseline)")
    args = parser.parse_args(argv)
    runs = [capture(args.benchmarks) for _ in range(max(1, args.repeat))]
    captured = baseline_of(runs)
    if args.compare is not None:
        baseline = json.loads(Path(args.compare).read_text())
        regressions = compare(captured, baseline)
        for line in regressions:
            print(f"REGRESSION {line}")
        status = "FAILED" if regressions else "ok"
        print(f"bench gate: {status} ({len(captured)} entries, "
              f"{len(regressions)} regressions)")
        return 1 if regressions else 0
    output = Path(args.output)
    output.write_text(json.dumps(captured, indent=2, sort_keys=True) + "\n")
    for name, observed in captured.items():
        fmt = _fmt_rss if name.endswith(RSS_SUFFIX) else _fmt_ms
        print(f"{name}: {fmt(observed)}")
    print(f"wrote {len(captured)} baselines to {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
