"""Benchmark entry point.

    python3 perfbench/run.py --workload stream-azure --seed 0 --seconds 20 --trace 0

Run from the repository root.  Prints the host fingerprint, every metric
by name with its unit, and as the last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end metrics
with ``--trace 0``, per-layer metrics with ``--trace 1``).  Exits 1 when a
correctness check fails and 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("stream-azure", "grid-fstartbench", "serve-http")

#: End-to-end metric units (the names in BENCHMARK.json).
E2E_UNITS = {
    "throughput_inv_per_s": "inv/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_cold_start_share": "ratio",
    "sim_mean_startup_s": "s",
    "op_p50_ms": "ms",
}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name's suffix."""
    for suffix, unit in (("_us", "us"), ("_ms", "ms"), ("_share", "ratio"),
                         ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "count"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


#: Stated tolerances of the traced run's accounting checks.
UNACCOUNTED_TOLERANCE = 0.01
HOST_GAP_TOLERANCE = 0.02


def _per_layer(workload: str, res):
    """Per-layer metrics of a traced run (zeros for layers not exercised)."""
    from perfbench.tracing import accounting, layer_metrics

    snap = res["snapshot"]
    metrics = layer_metrics(snap, res.get("scripted_cells", 0),
                            res.get("lane_cells", 0))
    acc = accounting(snap, res["spans"])
    checks = res["checks"]
    # Online self times agree with the interval-merged reference.
    checks["trace_self_times_match_reference"] = (
        acc["trace.unaccounted_share"] <= UNACCOUNTED_TOLERANCE)
    late_p50, late_tail = res.get("lateness", (0.0, 0.0))
    host_gap = res.get("host_gap_share", 0.0)
    if workload != "serve-http":
        # Offline the replay is one synchronous call chain, so the layer
        # self times inside it must add up to its host time.
        checks["trace_accounts_for_host_time"] = (
            abs(host_gap) <= HOST_GAP_TOLERANCE)
    metrics.update({
        "trace.root_s": acc["trace.root_s"],
        "trace.unaccounted_share": acc["trace.unaccounted_share"],
        "trace.host_gap_share": host_gap,
        "trace.overhead_share": res["overhead_share"],
        "loadgen.lateness_p50_ms": late_p50,
        "loadgen.lateness_tail_ms": late_tail,
    })
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: program sources not found under {ROOT}/src",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    os.environ["REPRO_CACHE"] = "off"
    os.makedirs(OUT_DIR, exist_ok=True)

    from perfbench import offline, serve_http
    from perfbench.stats import host_fingerprint

    with open(os.path.join(BENCH_DIR, "references.json")) as fh:
        refs = json.load(fh).get(args.workload, {})

    if args.workload == "serve-http":
        res = serve_http.run_serve_http(ROOT, OUT_DIR, args.seed,
                                        args.seconds, trace=bool(args.trace))
    else:
        res = offline.run_offline(ROOT, OUT_DIR, args.workload, args.seed,
                                  args.seconds, refs, trace=bool(args.trace))

    checks = res["checks"]
    if args.trace:
        metrics = (_per_layer(args.workload, res)
                   if "snapshot" in res else {})
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = res["metrics"]
        units = E2E_UNITS
        checks["metrics_finite_and_nonzero"] = all(
            isinstance(v, (int, float)) and math.isfinite(v) and v > 0
            for v in metrics.values())
    checks["metrics_complete"] = bool(metrics)

    n_failed_checks = sum(not ok for ok in checks.values())
    correct = n_failed_checks == 0 and res["failed"] == 0
    attempted = res["attempted"] + len(checks)
    failed = res["failed"] + n_failed_checks

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_fingerprint(ROOT),
        "samples": res.get("samples", {}),
        "tail_percentile": res.get("tail_percentile"),
        "op_p90_ms": res.get("op_p90_ms"),
        "op_tail_ms": res.get("op_tail_ms"),
        "unscaled": res.get("unscaled"),
        "checks": checks,
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for name, value in metrics.items():
        print(f"metric {name} = {value!r} {units[name]}")
    for name, (value, unit) in res.get("issue_metrics", {}).items():
        print(f"serve {name} = {value!r} {unit}")
    if res.get("ladder"):
        print("ladder " + json.dumps(res["ladder"]))
    with open(os.path.join(
            OUT_DIR, f"result-{args.workload}-seed{args.seed}"
                     f"-trace{args.trace}.json"), "w") as fh:
        json.dump({"provenance": provenance, "metrics": metrics,
                   "issue_metrics": res.get("issue_metrics"),
                   "ladder": res.get("ladder"),
                   "spans": res.get("spans")}, fh)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
