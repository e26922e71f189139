"""The ``serve-http`` workload: ``repro serve`` driven over real sockets.

Load is open loop: a phase of ``rate * duration`` requests has due times
drawn as a Poisson process from the seed (sorted uniform times over the
phase), so arrivals never alias with the server's periodic janitor.  Each
request is sent by whichever of the :data:`CONNECTIONS` senders is free
first, so
a slow server (or a stalled generator) makes later requests late, and
every latency is timed from the request's due time.  Each request opens
one connection, writes to it at once and reads the ``Connection: close``
response, so the generator never holds an idle connection open.

* Session A: fresh server; 50 req/s then 100 req/s; SIGINT; the server
  must exit within :data:`STOP_DEADLINE_S`; its recording is replayed
  with ``replay_recording``, which must report zero divergence.
* Session B: fresh server; rates ascend from 100 req/s in 3% steps until
  the first step that misses the limit (tail <= 100 ms, achieved >= 95%
  of offered, no errors); the server is then killed.  A step lasts
  0.05 * ``--seconds``, too few requests for a p99 with ten samples
  beyond it, so the gate is the step's *tail*: the highest percentile
  that has them (p90 at 100 req/s for one-second steps, rising with the
  rate; each ladder step reports the percentile it used).
* Session C: session A's 50 req/s phase again (same requests and due
  times) on a fresh server, after the ladder.  The 50 req/s latencies
  pool A and C: the host's speed drifts over tens of seconds, and two
  windows half a minute apart sample more of it than one.

A sidecar (:class:`perfbench.hostspeed.Sidecar`) probes the host's speed
during each session's measured phase; the gated host times of a session
are rescaled by its factor.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import re
import select
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from perfbench.hostspeed import Sidecar, speed_factor
from perfbench.stats import (
    ladder_max_rate,
    ladder_rates,
    latencies_from_due,
    median_and_tail,
    percentile,
    program_env,
    step_passes,
)

CONNECTIONS = 2
#: Client-side deadline per request, counted from its due time.
REQUEST_DEADLINE_S = 1.0
START_DEADLINE_S = 60.0
STOP_DEADLINE_S = 60.0
N_FUNCTIONS = 13
#: Seed of the one shuffle that deals popularity ranks to the functions.
MIX_SEED = 0
LADDER_START = 100.0
LADDER_STEP = 0.03
LADDER_MAX_STEPS = 50

SERVE_ARGS = ["serve", "--port", "0", "--scheduler", "greedy",
              "--keepalive", "10"]


def request_mix(seed: int, n: int) -> List[int]:
    """Zipf-skewed Table-II function ids (1..13) for ``n`` requests.

    The popularity model is the repo's Azure-like trace model
    (``AzureTraceGenerator``): rank *r* has weight ``r ** -s`` with the
    calibrated ``AzureTraceConfig.zipf_exponent``, and the ranks are dealt
    to the functions in a shuffled order.  The shuffle is drawn once, from
    :data:`MIX_SEED`, so every benchmark seed offers the same mix; the seed
    draws the request sequence from it.  (With a per-seed shuffle the
    function holding rank 1 -- half the traffic -- changes with the seed,
    and the recorded mean startup varied 2.8-7.0 s over seeds 0-9.)
    """
    from repro.workloads.azure import AzureTraceConfig

    s = AzureTraceConfig().zipf_exponent
    ranks = list(range(1, N_FUNCTIONS + 1))
    random.Random(MIX_SEED).shuffle(ranks)
    weights = [rank ** -s for rank in ranks]
    return random.Random(seed).choices(range(1, N_FUNCTIONS + 1),
                                       weights=weights, k=n)


@dataclass
class PhaseResult:
    """Outcome of one fixed-rate phase."""

    rate: float
    duration_s: float
    latencies_ms: List[float] = field(default_factory=list)
    lateness_ms: List[float] = field(default_factory=list)
    errors: int = 0
    achieved: float = 0.0
    aborted: bool = False

    @property
    def attempted(self) -> int:
        return int(round(self.rate * self.duration_s))


async def _exchange(port: int, body: bytes) -> int:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(
            b"POST /invoke HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            b"Content-Type: application/json\r\nContent-Length: "
            + str(len(body)).encode() + b"\r\nConnection: close\r\n\r\n"
            + body)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    status = raw.split(b" ", 2)[1] if raw.startswith(b"HTTP/") else b"0"
    return int(status)


def due_offsets(seed: int, rate: float, duration_s: float) -> List[float]:
    """Poisson arrival offsets: ``rate * duration_s`` sorted uniform times."""
    rng = random.Random(seed)
    n = int(round(rate * duration_s))
    return sorted(rng.uniform(0.0, duration_s) for _ in range(n))


async def run_phase(port: int, rate: float, duration_s: float,
                    functions: List[int], seed: int,
                    abort_when_late: bool = False) -> PhaseResult:
    """Offer ``rate`` req/s for ``duration_s`` seconds, open loop.

    With ``abort_when_late`` the phase stops as soon as a request could
    no longer meet its deadline (the ladder's failing step need not run
    to its end).
    """
    res = PhaseResult(rate=rate, duration_s=duration_s)
    n = res.attempted
    t0 = perf_counter() + 0.02
    due = [t0 + x for x in due_offsets(seed, rate, duration_s)]
    done: List[Optional[float]] = [None] * n
    next_i = 0
    bodies = [json.dumps({"function": f}).encode() for f in functions[:n]]

    async def sender() -> None:
        nonlocal next_i
        while next_i < n and not res.aborted:
            i = next_i
            next_i += 1
            wait = due[i] - perf_counter()
            if wait > 0:
                await asyncio.sleep(wait)
            sent = perf_counter()
            res.lateness_ms.append((sent - due[i]) * 1e3)
            remaining = due[i] + REQUEST_DEADLINE_S - sent
            if remaining <= 0:
                res.errors += 1
                if abort_when_late:
                    res.aborted = True
                continue
            try:
                status = await asyncio.wait_for(_exchange(port, bodies[i]),
                                                timeout=remaining)
            except (asyncio.TimeoutError, OSError, ValueError, IndexError):
                status = 0
            if status == 200:
                done[i] = perf_counter()
            else:
                res.errors += 1
                if abort_when_late:
                    res.aborted = True

    await asyncio.gather(*(sender() for _ in range(CONNECTIONS)))
    ok = [(d, e) for d, e in zip(due, done) if e is not None]
    res.latencies_ms = [x * 1e3 for x in latencies_from_due(
        [d for d, _ in ok], [e for _, e in ok])]
    if ok:
        span = max(duration_s, max(e for _, e in ok) - t0)
        res.achieved = len(ok) / span
    return res


# ---------------------------------------------------------------------------
# Server process management
# ---------------------------------------------------------------------------

class Server:
    """One ``repro serve`` subprocess (optionally under the trace launcher)."""

    def __init__(self, root: str, out_dir: str, record: Optional[str] = None,
                 trace_out: Optional[str] = None) -> None:
        args = list(SERVE_ARGS)
        if record is not None:
            args += ["--record", record]
        if trace_out is None:
            cmd = [sys.executable, "-m", "repro"] + args
        else:
            cmd = [sys.executable, os.path.join("perfbench",
                                                "serve_launcher.py"),
                   "--trace-out", trace_out, "--"] + args
        env = program_env(root)
        self.log = os.path.join(out_dir, "serve-stderr.log")
        self.rusage = None
        self.started = perf_counter()
        with open(self.log, "ab") as err:
            self.proc = subprocess.Popen(cmd, cwd=root, env=env,
                                         stdout=subprocess.PIPE, stderr=err)
        self.port = self._read_port()
        self.setup_s = perf_counter() - self.started

    def _read_port(self) -> int:
        deadline = self.started + START_DEADLINE_S
        buf = b""
        fd = self.proc.stdout.fileno()
        while b"\n" not in buf:
            left = deadline - perf_counter()
            ready, _, _ = select.select([fd], [], [], max(0.0, left))
            if not ready:
                self.kill()
                raise RuntimeError("server did not print its port in time")
            chunk = os.read(fd, 4096)
            if not chunk:
                self.kill()
                raise RuntimeError(
                    f"server exited before serving; see {self.log}")
            buf += chunk
        match = re.search(rb"http://[^:\s]+:(\d+)", buf)
        if match is None:
            self.kill()
            raise RuntimeError(f"unexpected server banner: {buf!r}")
        return int(match.group(1))

    def _wait(self, timeout: float) -> bool:
        """Reap the process within ``timeout``; keeps its rusage."""
        deadline = perf_counter() + timeout
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self.rusage = usage
                self.proc.returncode = (os.waitstatus_to_exitcode(status))
                return True
            if perf_counter() >= deadline:
                return False
            select.select([], [], [], 0.01)

    def stop(self) -> Tuple[Optional[float], str]:
        """SIGINT and wait for the graceful drain.

        Returns ``(seconds to exit, stdout)``; seconds is ``None`` when the
        server missed :data:`STOP_DEADLINE_S` and had to be killed.
        """
        t0 = perf_counter()
        self.proc.send_signal(signal.SIGINT)
        exited = self._wait(STOP_DEADLINE_S)
        took = perf_counter() - t0
        if not exited:
            self.kill()
        out = self.proc.stdout.read().decode(errors="replace")
        self._close_pipes()
        return (took if exited else None), out

    def kill(self) -> None:
        """SIGKILL and reap (no drain)."""
        if self.proc.returncode is None:
            try:
                self.proc.kill()
            except ProcessLookupError:
                pass
            self._wait(STOP_DEADLINE_S)
        self._close_pipes()

    def _close_pipes(self) -> None:
        if not self.proc.stdout.closed:
            self.proc.stdout.close()

    @property
    def peak_rss_mb(self) -> Optional[float]:
        return self.rusage.ru_maxrss / 1024.0 if self.rusage else None


# ---------------------------------------------------------------------------
# The workload
# ---------------------------------------------------------------------------

def _phase_seconds(seconds: float) -> Dict[str, float]:
    """Phase lengths as shares of ``--seconds``."""
    return {"r50": 0.4 * seconds, "r100": 0.25 * seconds,
            "step": 0.05 * seconds}


def _replay(record: str) -> Dict[str, object]:
    from repro.serve.recorder import read_recording, replay_recording

    header, entries = read_recording(record)
    start = perf_counter()
    report = replay_recording(record)
    took = perf_counter() - start
    decisions = [e for e in entries if "swap" not in e]
    n = len(decisions)
    return {
        "ok": report.ok and report.n_decisions == n,
        "divergence": str(report.divergence) if report.divergence else None,
        "dec_per_s": report.n_decisions / took,
        "n": n,
        "cold_share": sum(bool(e["cold"]) for e in decisions) / n if n else 0,
        # Startup latency without admission queueing (``lat`` includes
        # ``q``), comparable to the offline cells, which never queue.
        "mean_startup_s": (sum(e["lat"] - e["q"] for e in decisions) / n
                           if n else 0),
    }


def _session_a(root: str, out_dir: str, seed: int, seconds: float,
               trace_out: Optional[str] = None, with_r100: bool = True,
               name: str = "a", probing: bool = False) -> Dict[str, object]:
    """Session A (or C).  With ``probing`` a sidecar probes the host from
    before the server starts to the end of the 50 req/s phase."""
    lens = _phase_seconds(seconds)
    record = os.path.join(out_dir, f"serve-{name}-seed{seed}.jsonl")
    sidecar = Sidecar(program_env(root), root) if probing else None
    server = None
    try:
        server = Server(root, out_dir, record=record, trace_out=trace_out)
        n50 = int(50 * lens["r50"])
        funcs = request_mix(seed, n50 + int(100 * lens["r100"]) + 1)
        phases = {"r50": asyncio.run(run_phase(
            server.port, 50.0, lens["r50"], funcs[:n50], seed))}
        probes = sidecar.stop() if sidecar else []
        if with_r100:
            phases["r100"] = asyncio.run(run_phase(
                server.port, 100.0, lens["r100"], funcs[n50:], seed + 1))
    except BaseException:
        if server is not None:
            server.kill()
        raise
    finally:
        if sidecar is not None:
            sidecar.kill()
    stop_s, stdout = server.stop()
    return {"server": server, "phases": phases, "stop_s": stop_s,
            "stdout": stdout, "record": record, "probes": probes}


def _session_b(root: str, out_dir: str, seed: int, seconds: float
               ) -> Dict[str, object]:
    """Session B; a sidecar probes the host while the server starts."""
    lens = _phase_seconds(seconds)
    sidecar = Sidecar(program_env(root), root)
    server = None
    steps = []
    try:
        server = Server(root, out_dir)
        probes = sidecar.stop()
        rates = ladder_rates(LADDER_START, LADDER_STEP, LADDER_START * (
            1 + LADDER_STEP) ** (LADDER_MAX_STEPS - 1))
        funcs = request_mix(seed + 1, int(rates[-1] * lens["step"]) + 10)
        for rate in rates:
            res = asyncio.run(run_phase(server.port, rate, lens["step"], funcs,
                                        seed + 2, abort_when_late=True))
            tail_ms, tail_p = None, None
            if res.latencies_ms:
                _, tail_ms, tail_p = median_and_tail(res.latencies_ms)
            passed = (not res.aborted and tail_ms is not None
                      and step_passes(tail_ms, rate, res.achieved,
                                      res.errors))
            steps.append((rate, passed, res, tail_p))
            if not passed:
                break
    finally:
        sidecar.kill()
        if server is not None:
            server.kill()
    return {"server": server, "steps": steps, "probes": probes}


def run_serve_http(root: str, out_dir: str, seed: int, seconds: float,
                   trace: bool = False) -> Dict[str, object]:
    """Run the ``serve-http`` workload; see the README for its metrics."""
    checks: Dict[str, bool] = {}
    result: Dict[str, object] = {"checks": checks}
    if trace:
        return _run_traced(root, out_dir, seed, seconds, result)

    a = _session_a(root, out_dir, seed, seconds, probing=True)
    b = _session_b(root, out_dir, seed, seconds)
    c = _session_a(root, out_dir, seed, seconds, with_r100=False, name="c",
                   probing=True)
    # Host times of each session rescaled by its sidecar's probes to the
    # reference host (hostspeed.py).  The ladder rate is not rescaled: it
    # did not follow the probes (README).
    fa, fb, fc = (speed_factor(s["probes"]) for s in (a, b, c))
    setups = [s["server"].setup_s for s in (a, b, c)]
    r50, r100 = a["phases"]["r50"], a["phases"]["r100"]
    r50c = c["phases"]["r50"]
    errors = r50.errors + r100.errors + r50c.errors
    attempted = r50.attempted + r100.attempted + r50c.attempted
    checks["sessions_a_c_no_errors"] = errors == 0
    checks["stopped_within_deadline"] = (a["stop_s"] is not None
                                         and c["stop_s"] is not None)
    replay = _replay(a["record"])
    replay_c = _replay(c["record"])
    checks["replay_zero_divergence"] = replay["ok"] and replay_c["ok"]
    checks["drained_all_served"] = (
        _drained(a["stdout"]) == replay["n"]
        == r50.attempted + r100.attempted - r50.errors - r100.errors
        and _drained(c["stdout"]) == replay_c["n"]
        == r50c.attempted - r50c.errors)

    max_rps = ladder_max_rate((rate, ok) for rate, ok, _, _ in b["steps"])
    checks["ladder_first_step_passes"] = max_rps is not None
    passing = [res for _, ok, res, _ in b["steps"] if ok]
    attempted += sum(res.attempted for res in passing)

    p50_100, tail_100, tail_p100 = median_and_tail(r100.latencies_ms)
    p50_50, tail_50, tail_p50 = median_and_tail(r50.latencies_ms)
    lat50 = ([x * fa for x in r50.latencies_ms]
             + [x * fc for x in r50c.latencies_ms])
    p50_scaled, tail_scaled, tail_p_scaled = median_and_tail(lat50)
    lateness = r50.lateness_ms + r100.lateness_ms + r50c.lateness_ms
    late_p50, late_tail, late_p = median_and_tail(lateness)
    result.update({
        "attempted": attempted,
        "failed": errors,
        "setup_samples": setups,
        "metrics": {
            "throughput_inv_per_s": float(max_rps or 0.0),
            "setup_s": statistics.median(
                x * f for x, f in zip(setups, (fa, fb, fc))),
            "peak_rss_mb": a["server"].peak_rss_mb,
            "sim_cold_start_share": replay["cold_share"],
            "sim_mean_startup_s": replay["mean_startup_s"],
            "op_p50_ms": p50_scaled,
        },
        "samples": {
            "op_p50_ms": len(lat50),
            "setup_s": len(setups),
            "throughput_inv_per_s": len(b["steps"]),
            "host_probes": sum(len(s["probes"]) for s in (a, b, c)),
        },
        "tail_percentile": tail_p_scaled,
        "op_p90_ms": percentile(lat50, 90),
        "op_tail_ms": tail_scaled,
        "unscaled": {
            "speed_factor": [fa, fb, fc],
            "setup_s": statistics.median(setups),
            "op_p50_ms": statistics.median(r50.latencies_ms
                                           + r50c.latencies_ms),
            "op_p50_sessions_ms": [statistics.median(r50.latencies_ms),
                                   statistics.median(r50c.latencies_ms)],
        },
        "issue_metrics": {
            "http_p50_ms.r50": (p50_50, "ms"),
            f"http_p{tail_p50:g}_ms.r50": (tail_50, "ms"),
            "http_p50_ms.r100": (p50_100, "ms"),
            f"http_p{tail_p100:g}_ms.r100": (tail_100, "ms"),
            "http_max_rps": (max_rps, "req/s"),
            "serve_stop_s": (a["stop_s"], "s"),
            "serve_replay_dec_per_s": (replay["dec_per_s"], "dec/s"),
            "loadgen.lateness_p50_ms": (late_p50, "ms"),
            f"loadgen.lateness_p{late_p:g}_ms": (late_tail, "ms"),
        },
        "ladder": [
            {"rate": rate, "passed": ok, "achieved": round(res.achieved, 2),
             "n_ok": len(res.latencies_ms), "tail_percentile": tail_p,
             "errors": res.errors, "aborted": res.aborted}
            for rate, ok, res, tail_p in b["steps"]
        ],
        "replay_divergence": replay["divergence"],
    })
    return result


def _drained(stdout: str) -> Optional[int]:
    """Invocations the server reported drained on exit."""
    match = re.search(r"drained: (\d+) invocations", stdout)
    return int(match.group(1)) if match else None


def _run_traced(root: str, out_dir: str, seed: int, seconds: float,
                result: Dict[str, object]) -> Dict[str, object]:
    """Traced mode: an untraced 50 req/s session for the headline, then a
    traced session A whose server writes its layer aggregates on exit."""
    checks = result["checks"]
    plain = _session_a(root, out_dir, seed, seconds, with_r100=False)
    trace_out = os.path.join(out_dir, f"serve-trace-seed{seed}.json")
    traced = _session_a(root, out_dir, seed, seconds, trace_out=trace_out)
    replay = _replay(traced["record"])
    checks["replay_zero_divergence"] = replay["ok"]
    checks["stopped_within_deadline"] = (plain["stop_s"] is not None
                                         and traced["stop_s"] is not None)
    phases = list(traced["phases"].values()) + [plain["phases"]["r50"]]
    errors = sum(p.errors for p in phases)
    checks["no_errors"] = errors == 0
    with open(trace_out) as fh:
        dump = json.load(fh)
    lateness = [x for p in phases for x in p.lateness_ms]
    late_p50, late_tail, _ = median_and_tail(lateness)
    untraced = statistics.median(plain["phases"]["r50"].latencies_ms)
    traced_p50 = statistics.median(traced["phases"]["r50"].latencies_ms)
    result.update({
        "attempted": sum(p.attempted for p in phases),
        "failed": errors,
        "snapshot": dump["snapshot"],
        "spans": dump["spans"],
        "lateness": (late_p50, late_tail),
        "overhead_share": traced_p50 / untraced - 1.0,
    })
    return result
