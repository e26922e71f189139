"""Drift test between ``benchmarks/``, the capture tool and the baseline.

Three artifacts must stay in sync:

* every ``benchmarks/bench_*.py`` file is either in the capture tool's
  default set or explicitly listed as heavy (and vice versa -- no ghost
  registrations);
* every benchmark test in the default set has a baseline entry in
  ``benchmarks/bench_baseline.json`` -- unless it opts out of the
  regression guard with ``benchmark.extra_info["no_guard"] = True``
  (detected here via the AST, mirroring the capture tool's JSON filter);
* every baseline entry corresponds to a benchmark test that still exists.

A new benchmark file that is neither captured nor declared heavy, or a
renamed benchmark leaving a stale baseline behind, fails here instead of
silently weakening the regression guard.
"""

from __future__ import annotations

import ast
import importlib.util
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).parent.parent
BENCH_DIR = REPO_ROOT / "benchmarks"


def _load_bench_capture():
    spec = importlib.util.spec_from_file_location(
        "bench_capture", REPO_ROOT / "tools" / "bench_capture.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("bench_capture", module)
    spec.loader.exec_module(module)
    return module


bench_capture = _load_bench_capture()


def _opts_out_of_guard(func: ast.AST) -> bool:
    """True if the test body sets ``benchmark.extra_info["no_guard"]``."""
    for node in ast.walk(func):
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
            continue
        target = node.targets[0]
        if (isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Attribute)
                and target.value.attr == "extra_info"
                and isinstance(target.slice, ast.Constant)
                and target.slice.value == "no_guard"):
            return True
    return False


def _benchmark_tests(path: Path) -> set:
    """Names of the guarded benchmark tests a bench file defines (AST).

    Tests that opt out of the regression guard are excluded: the capture
    tool never writes baseline entries for them.
    """
    tree = ast.parse(path.read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = {a.arg for a in node.args.args}
            if (node.name.startswith("test_") and "benchmark" in args
                    and not _opts_out_of_guard(node)):
                names.add(node.name)
    return names


def test_every_bench_file_is_registered():
    on_disk = {p.name for p in BENCH_DIR.glob("bench_*.py")}
    captured = {Path(p).name for p in bench_capture.DEFAULT_BENCHMARKS}
    heavy = set(bench_capture.HEAVY_BENCHMARKS)
    unregistered = on_disk - captured - heavy
    assert not unregistered, (
        f"benchmark files neither captured nor declared heavy: "
        f"{sorted(unregistered)}"
    )


def test_no_ghost_registrations():
    on_disk = {p.name for p in BENCH_DIR.glob("bench_*.py")}
    captured = {Path(p).name for p in bench_capture.DEFAULT_BENCHMARKS}
    heavy = set(bench_capture.HEAVY_BENCHMARKS)
    assert captured <= on_disk, sorted(captured - on_disk)
    assert heavy <= on_disk, sorted(heavy - on_disk)
    assert not captured & heavy, sorted(captured & heavy)


def test_captured_benchmarks_have_baseline_entries():
    baseline = json.loads((BENCH_DIR / "bench_baseline.json").read_text())
    expected = set()
    for rel in bench_capture.DEFAULT_BENCHMARKS:
        expected |= _benchmark_tests(REPO_ROOT / rel)
    assert expected, "default benchmark set defines no benchmark tests"
    missing = expected - set(baseline)
    assert not missing, (
        f"benchmark tests without a baseline entry: {sorted(missing)} "
        "(run tools/bench_capture.py)"
    )


def test_every_baseline_entry_maps_to_a_live_benchmark():
    baseline = json.loads((BENCH_DIR / "bench_baseline.json").read_text())
    live = set()
    for rel in bench_capture.DEFAULT_BENCHMARKS:
        live |= _benchmark_tests(REPO_ROOT / rel)
    # ``{name}[rss_mb]`` entries are the peak-RSS companions of a timing
    # entry; they map to the same live test.  ``host_probe_s`` is the
    # capture's host-speed probe, not a test.
    stale = {
        name for name in baseline
        if name.removesuffix(bench_capture.RSS_SUFFIX) not in live
        and name != bench_capture.PROBE_KEY
    }
    assert not stale, (
        f"baseline entries with no matching benchmark test: {sorted(stale)}"
    )
    assert all(
        isinstance(v, float) and v > 0 for v in baseline.values()
    ), "baseline means must be positive floats"


def test_discovery_matches_disk():
    discovered = set(bench_capture.discover_benchmarks())
    on_disk = {f"benchmarks/{p.name}" for p in BENCH_DIR.glob("bench_*.py")}
    assert discovered == on_disk
    assert set(bench_capture.DEFAULT_BENCHMARKS) == set(
        bench_capture.default_benchmarks()
    )
