"""The two offline workloads: ``stream-azure`` and ``grid-fstartbench``.

Both replay fixed inputs drawn from ``--seed`` in whole passes.  Every pass
runs in a fresh worker process::

    python3 -m perfbench.offline --workload stream-azure --seed 0

so the program's in-process memos (the workload memo, arrival tables,
interned fingerprints, ...) start empty in every pass, as in a user's
first run.  The number of passes depends on ``--seconds`` only -- never on
host speed -- so sample counts and the ``sim_*`` metrics are fixed per
seed.  The worker prints one JSON line: its timings, summaries and peak
RSS; the parent (:func:`run_offline`) checks and aggregates them.
"""

from __future__ import annotations

from time import perf_counter

#: Worker start: a pass's set-up time runs from here (imports included).
_T_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

from perfbench.hostspeed import UnitClock, speed_factor  # noqa: E402
from perfbench.stats import (  # noqa: E402
    canonical_digest,
    median_and_tail,
    peak_rss_mb_self,
    percentile,
    program_env,
)
from perfbench.tracing import Tracer, TracedIter, install  # noqa: E402

WORKLOADS = ("stream-azure", "grid-fstartbench")

#: ``stream-azure``: the ROADMAP's Azure-like stream cell, one per policy.
STREAM_SCHEDULERS = ("lru", "greedy", "mpc")
STREAM_FUNCTIONS = 300
STREAM_INVOCATIONS = 30_000
#: Arrivals per latency sample (host time to replay one chunk).
CHUNK = 500
#: Share of ``--seconds`` one pass stands for; sizes the pass count.  A
#: stream pass replays for 10-13 s on a 2-vCPU Xeon VM, a grid pass for
#: 5 s; three and five passes at ``--seconds 20``.  Host drift is scaled
#: out per pass (``hostspeed.py``); what is left varies 2-3% between
#: passes of one input.
STREAM_PASS_S = 6.5
#: Distinct pass seeds per run.  Each cell of a pass replays its own
#: trace: which functions a trace makes popular moves its mean startup a
#: lot (2.5-5.8 s over trace seeds 0-29), so the ``sim_*`` metrics pool
#: the nine traces of a run, as the grid pools four seeds.
STREAM_PASS_SEEDS = 3

#: ``grid-fstartbench``: the seven FStartBench sets (``Overall`` mixes them).
GRID_WORKLOADS = ("LO-Sim", "HI-Sim", "LO-Var", "HI-Var", "Uniform", "Peak",
                  "Random")
GRID_SEEDS_PER_RUN = 4
GRID_LANES = 8
GRID_PASS_S = 4.0

#: A worker that has not finished by then is killed and its pass failed.
WORKER_DEADLINE_S = 120.0


def pass_inputs(workload: str, seed: int, seconds: float) -> List[int]:
    """Input seed of every pass: whole passes that fill ``seconds``.

    The grid replays the grid of ``seed`` in every pass (at least two).
    The stream cycles over the pass seeds of ``seed``, each at least once.
    An input replayed again checks determinism across processes.
    """
    if workload == "stream-azure":
        seeds = stream_pass_seeds(seed)
        count = max(len(seeds), round(seconds / STREAM_PASS_S))
        return [seeds[k % len(seeds)] for k in range(count)]
    return [seed] * max(2, round(seconds / GRID_PASS_S))


class ChunkClock:
    """Arrival-stream proxy ending a unit of ``clock`` every :data:`CHUNK`
    arrivals and counting arrivals."""

    def __init__(self, stream, clock: UnitClock) -> None:
        self.name = getattr(stream, "name", "<stream>")
        self._it = iter(stream)
        self._clock = clock
        self.count = 0

    def __iter__(self):
        return self

    def __next__(self):
        inv = next(self._it)
        self.count += 1
        if self.count % CHUNK == 0:
            self._clock.mark()
        return inv


def _conserved(summary: Dict[str, float], arrivals: int) -> bool:
    return (summary["cold_starts"] + summary["warm_starts"]
            == summary["invocations"] == arrivals)


# ---------------------------------------------------------------------------
# stream-azure
# ---------------------------------------------------------------------------

def stream_pass_seeds(seed: int) -> List[int]:
    """The pass seeds of benchmark seed ``seed`` (disjoint across seeds)."""
    return [seed * STREAM_PASS_SEEDS + k for k in range(STREAM_PASS_SEEDS)]


def _stream_cells(pass_seed: int):
    """Fresh ``(key, stream, simulator, scheduler, capacity)`` per policy.

    Policy *i* replays the trace of seed ``3 * pass_seed + i``, so the
    traces of all passes and seeds are disjoint.
    """
    from repro.cluster.simulator import ClusterSimulator, SimulationConfig
    from repro.experiments.ext_stream_replay import (
        CAPACITY_FRACTION,
        derive_capacity_mb,
        trace_config,
    )
    from repro.experiments.parallel import build_scheduler
    from repro.workloads.azure import AzureTraceGenerator

    cells = []
    for i, key in enumerate(STREAM_SCHEDULERS):
        stream = AzureTraceGenerator(
            trace_config(STREAM_FUNCTIONS, STREAM_INVOCATIONS)
        ).stream(seed=pass_seed * len(STREAM_SCHEDULERS) + i)
        scheduler = build_scheduler(key)
        eviction = (scheduler.make_eviction_policy()
                    if hasattr(scheduler, "make_eviction_policy") else None)
        capacity = derive_capacity_mb(stream, CAPACITY_FRACTION)
        sim = ClusterSimulator(
            SimulationConfig(pool_capacity_mb=capacity,
                             bounded_telemetry=True),
            eviction,
        )
        cells.append((key, stream, sim, scheduler, capacity))
    return cells


def _stream_pass(seed: int, tracer: Optional[Tracer] = None,
                 t0: Optional[float] = None) -> Dict[str, object]:
    """One pass: set up, then replay the three cells.

    Set-up time runs from ``t0`` (default: the call).  Untraced, the host
    is probed after every chunk; probe time is not replay time.
    """
    t0 = perf_counter() if t0 is None else t0
    cells = _stream_cells(seed)
    setup_s = perf_counter() - t0
    summaries, arrivals, chunk_ms, probes = [], [], [], []
    replay_s = 0.0
    for key, stream, sim, scheduler, _cap in cells:
        clock = UnitClock(probing=tracer is None)
        source = ChunkClock(stream, clock)
        fed = source if tracer is None else TracedIter(tracer, source)
        if tracer is not None:
            tracer.group.set(f"{key}/seed{seed}")
        clock.restart()
        start = perf_counter()
        summary = sim.run_stream(fed, scheduler).summary()
        end = perf_counter()
        replay_s += end - start - clock.paused_s
        chunk_ms += [u * 1e3 for u in clock.unit_s]
        probes += clock.probe_s
        summaries.append(summary)
        arrivals.append(source.count)
    return {"setup_s": setup_s, "replay_s": replay_s,
            "inv": sum(s["invocations"] for s in summaries),
            "summaries": summaries, "arrivals": arrivals,
            "lat_ms": chunk_ms, "probe_s": probes}


def _stream_lane_check(seed: int, summaries: List[Dict[str, float]]) -> bool:
    """Sequential-vs-lane: the stream-lane kernel must give equal summaries."""
    from repro.cluster.lanes import run_stream_lanes

    lanes = [run_stream_lanes([(key, cap)], stream)[0].summary
             for key, stream, _sim, _sched, cap in _stream_cells(seed)]
    return lanes == summaries


# ---------------------------------------------------------------------------
# grid-fstartbench
# ---------------------------------------------------------------------------

def grid_seeds(seed: int) -> List[int]:
    """The grid's workload seeds for benchmark seed ``seed`` (disjoint)."""
    return [seed * GRID_SEEDS_PER_RUN + j for j in range(GRID_SEEDS_PER_RUN)]


class _BatchClock:
    """Ends a unit of :attr:`units` after every lane batch
    (``LaneKernel.run``)."""

    def __init__(self) -> None:
        from repro.cluster.lanes import LaneKernel

        self.units = UnitClock(probing=False)
        inner = LaneKernel.__dict__["run"]
        clock = self

        def run(kernel):
            results = inner(kernel)
            clock.units.mark()
            return results
        LaneKernel.run = run


def _grid_pass(seed: int, clock: _BatchClock, tracer: Optional[Tracer] = None,
               t0: Optional[float] = None) -> Dict[str, object]:
    """One pass: ``default_grid`` (sizing) as set-up, then ``run_grid``.

    Untraced, the host is probed after every lane batch; probe time is not
    replay time.
    """
    from repro.cluster.lanes import lane_mode
    from repro.experiments.parallel import (
        GRID_KEYS,
        cached_workload,
        default_grid,
        run_grid,
    )

    t0 = perf_counter() if t0 is None else t0
    tasks = default_grid(workloads=GRID_WORKLOADS, schedulers=GRID_KEYS,
                         seeds=grid_seeds(seed))
    setup_s = perf_counter() - t0
    clock.units = units = UnitClock(probing=tracer is None)
    if tracer is not None:
        tracer.group.set(f"grid/seed{seed}")
    units.restart()
    start = perf_counter()
    cells = run_grid(tasks, jobs=1, lanes=GRID_LANES)
    end = perf_counter()
    summaries = [c.summary for c in cells]
    return {"setup_s": setup_s, "replay_s": end - start - units.paused_s,
            "inv": sum(s["invocations"] for s in summaries),
            "summaries": summaries,
            "arrivals": [len(cached_workload(t.workload, t.seed).invocations)
                         for t in tasks],
            "tasks": tasks, "lat_ms": [u * 1e3 for u in units.unit_s],
            "probe_s": units.probe_s,
            "scripted_cells": sum(lane_mode(t.scheduler) == "scripted"
                                  for t in tasks)}


def _grid_lane_check(tasks, summaries) -> bool:
    """One sequential (reference event loop) cell per scheduler must equal
    its lane-kernel cell."""
    from repro.experiments.parallel import run_task

    checked = set()
    ok = True
    for task, summary in zip(tasks, summaries):
        if task.scheduler in checked:
            continue
        checked.add(task.scheduler)
        ok = ok and run_task(task).summary == summary
    return ok


# ---------------------------------------------------------------------------
# Worker process: one pass
# ---------------------------------------------------------------------------

def worker_main(argv=None) -> int:
    """Run one pass of a workload and print its result as one JSON line."""
    p = argparse.ArgumentParser(description="one pass of an offline workload")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True,
                   help="pass seed (stream) or benchmark seed (grid)")
    p.add_argument("--check", action="store_true",
                   help="also run the sequential-vs-lane check")
    p.add_argument("--trace-out", help="trace the pass; write spans here")
    args = p.parse_args(argv)

    tracer = Tracer() if args.trace_out else None
    stream = args.workload == "stream-azure"
    clock = None if stream else _BatchClock()
    if tracer is not None:
        install(tracer)
    window_start = perf_counter()
    if stream:
        res = _stream_pass(args.seed, tracer, t0=_T_START)
    else:
        res = _grid_pass(args.seed, clock, tracer, t0=_T_START)
    res["window_s"] = perf_counter() - window_start
    res["peak_rss_mb"] = peak_rss_mb_self()
    if tracer is not None:
        # Layer self time gathered over the whole pass (set-up and replay).
        res["traced_s"] = sum(tracer.self_ns.values()) / 1e9
    if args.check:
        res["lane_check"] = (
            _stream_lane_check(args.seed, res["summaries"]) if stream
            else _grid_lane_check(res["tasks"], res["summaries"]))
    if not stream:
        res["lane_cells"] = len(res.pop("tasks"))
    if tracer is not None:
        with open(args.trace_out, "w") as fh:
            json.dump({"snapshot": tracer.snapshot(),
                       "spans": tracer.spans}, fh)
    print(json.dumps(res))
    return 0


def _run_worker(root: str, workload: str, seed: int, check: bool = False,
                trace_out: Optional[str] = None) -> Optional[Dict[str, object]]:
    """One pass in a fresh process; ``None`` when it failed."""
    cmd = [sys.executable, "-m", "perfbench.offline", "--workload", workload,
           "--seed", str(seed)]
    if check:
        cmd.append("--check")
    if trace_out is not None:
        cmd += ["--trace-out", trace_out]
    try:
        proc = subprocess.run(cmd, cwd=root, env=program_env(root),
                              capture_output=True, text=True,
                              timeout=WORKER_DEADLINE_S)
    except subprocess.TimeoutExpired:
        print(f"{workload} pass missed its {WORKER_DEADLINE_S:g} s deadline")
        return None
    if proc.returncode != 0:
        print(f"{workload} pass failed:\n{proc.stderr[-2000:]}")
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Parent: passes, checks and metrics
# ---------------------------------------------------------------------------

def run_offline(root: str, out_dir: str, workload: str, seed: int,
                seconds: float, refs: Dict[str, object],
                trace: bool = False) -> Dict[str, object]:
    """Run an offline workload; see the README for its metrics.

    Untraced: the passes of :func:`pass_inputs`, each in a fresh worker.
    Traced: one untraced pass gives the headline, then one traced pass of
    the same input.  ``refs`` maps input seeds (trace seeds for the
    stream) to reference digests.
    """
    stream = workload == "stream-azure"
    n_cells = (len(STREAM_SCHEDULERS) if stream else
               len(GRID_WORKLOADS) * 3 * GRID_SEEDS_PER_RUN * _n_grid_keys())
    inputs = pass_inputs(workload, seed, seconds)
    if trace:
        inputs = inputs[:1]
    results = []
    failed = 0
    # Without a reference, the first pass also replays its cells (one per
    # scheduler) the other way: sequential vs lane kernel.
    lane_check = str(inputs[0]) not in refs
    for i, inp in enumerate(inputs):
        res = _run_worker(root, workload, inp, check=lane_check and i == 0)
        if res is None:
            failed += n_cells
        else:
            results.append((inp, res))
    out: Dict[str, object] = {"attempted": n_cells * len(inputs),
                              "failed": failed, "checks": {}, "metrics": {}}
    if not results:
        return out
    firsts: Dict[int, Dict[str, object]] = {}
    for inp, res in results:
        firsts.setdefault(inp, res)
    checks = out["checks"]
    if len(firsts) < len(results):
        checks["deterministic_passes"] = all(
            res["summaries"] == firsts[inp]["summaries"]
            for inp, res in results)
    checks["conservation"] = all(
        _conserved(s, n) and (not stream or n == STREAM_INVOCATIONS)
        for res in firsts.values()
        for s, n in zip(res["summaries"], res["arrivals"]))
    digests_ok = []
    for inp, res in firsts.items():
        expected = refs.get(str(inp))
        if expected is not None:
            digest = ([canonical_digest(s) for s in res["summaries"]]
                      if stream else canonical_digest(res["summaries"]))
            digests_ok.append(digest == expected)
    if digests_ok:
        checks["reference_digest"] = all(digests_ok)
    if lane_check:
        checks["sequential_vs_lane"] = (
            firsts.get(inputs[0], {}).get("lane_check") is True)
    first = results[0][1]
    if trace:
        trace_out = os.path.join(out_dir, f"{workload}-trace-seed{seed}.json")
        traced = _run_worker(root, workload, inputs[0], trace_out=trace_out)
        out["attempted"] += n_cells
        if traced is None:
            out["failed"] += n_cells
            return out
        checks["traced_equals_untraced"] = (
            traced["summaries"] == first["summaries"])
        with open(trace_out) as fh:
            dump = json.load(fh)
        out.update(dump)
        out["scripted_cells"] = first.get("scripted_cells", 0)
        out["lane_cells"] = first.get("lane_cells", 0)
        out["overhead_share"] = ((first["inv"] / first["replay_s"])
                                 / (traced["inv"] / traced["replay_s"]) - 1.0)
        # Host time of the traced pass that no wrapped layer accounts for
        # (unwrapped set-up and glue), from the host clock around the pass.
        out["host_gap_share"] = 1.0 - traced["traced_s"] / traced["window_s"]
        return out

    # sim_* pool every distinct input once.
    cells = [s for res in firsts.values() for s in res["summaries"]]
    cold = sum(s["cold_starts"] for s in cells)
    total = sum(s["total_startup_s"] for s in cells)
    inv = sum(s["invocations"] for s in cells)
    passes = [res for _, res in results]
    # Host times of each pass rescaled by its probes to the reference host.
    factors = [speed_factor(p["probe_s"]) for p in passes]
    lat = [x * f for p, f in zip(passes, factors) for x in p["lat_ms"]]
    p50, tail, tail_p = median_and_tail(lat)
    setups = [p["setup_s"] for p in passes]
    out.update({
        "metrics": {
            # Pooled over passes, so every trace of a stream run counts.
            "throughput_inv_per_s": sum(p["inv"] for p in passes) / sum(
                p["replay_s"] * f for p, f in zip(passes, factors)),
            "setup_s": statistics.median(
                s * f for s, f in zip(setups, factors)),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"]
                                             for p in passes),
            "sim_cold_start_share": cold / inv,
            "sim_mean_startup_s": total / inv,
            "op_p50_ms": p50,
        },
        "samples": {
            "throughput_inv_per_s": len(passes),
            "setup_s": len(passes),
            "peak_rss_mb": len(passes),
            "op_p50_ms": len(lat),
            "host_probes": sum(len(p["probe_s"]) for p in passes),
        },
        "tail_percentile": tail_p,
        "op_p90_ms": percentile(lat, 90),
        "op_tail_ms": tail,
        "unscaled": {
            "speed_factor": factors,
            "throughput_inv_per_s": sum(p["inv"] for p in passes) / sum(
                p["replay_s"] for p in passes),
            "setup_s": statistics.median(setups),
            "op_p50_ms": statistics.median(
                x for p in passes for x in p["lat_ms"]),
        },
    })
    return out


def _n_grid_keys() -> int:
    from repro.experiments.parallel import GRID_KEYS

    return len(GRID_KEYS)


if __name__ == "__main__":
    sys.exit(worker_main())
