"""Serving-session recording and deterministic replay.

Every served decision is appended to a JSONL log: one header line carrying
everything needed to rebuild the cluster (scheduler key, capacities,
worker topology, keep-alive TTL), then one line per decision (function,
stamped arrival time, execution time and the full decision outcome) and
one line per scheduler hot-swap.  Lines are flushed as written, so a
session interrupted at any point still replays up to its last decision:
a final line torn by a crash mid-write is dropped and reported (a
``RuntimeWarning`` from :func:`read_recording`,
``ReplayReport.truncated`` from :func:`replay_recording`), while a
malformed line anywhere else still raises.

Replay (:func:`replay_recording`) rebuilds a fresh
:class:`~repro.serve.engine.ServeEngine` from the header and re-submits
the recorded arrivals with their recorded stamps.  Because the engine's
state transitions all happen in the simulator's virtual time, the replayed
decisions must match the served ones byte for byte; the first field that
differs is reported as a :class:`ServeDivergence`.  The ``serve_replay``
differential oracle runs exactly this check.

Limitations: recordings assume the default
:class:`~repro.containers.costmodel.StartupCostModel` and fault-free
dynamics (fault sampling draws RNG state the log does not carry);
:meth:`DecisionRecorder.write_header` rejects fault-enabled configs.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Dict, Iterable, List, Optional, Tuple, Union

__all__ = [
    "DecisionRecorder",
    "ReplayReport",
    "ServeDivergence",
    "read_recording",
    "replay_recording",
]

#: Recording format version (bumped on any incompatible line change).
RECORDING_VERSION = 1

#: Decision fields compared by replay, in reporting order.
_COMPARED_FIELDS = ("inv", "cold", "cid", "m", "lat", "q", "w")


class DecisionRecorder:
    """Append-only JSONL log of one serving session.

    With ``path=None`` the recording is kept in memory (tests, the replay
    oracle); with a path, lines are written and flushed immediately.  The
    header is written by the owning engine at construction time via
    :meth:`write_header`.
    """

    def __init__(self, path: Optional[Union[str, Path]] = None) -> None:
        self.path = Path(path) if path is not None else None
        self._fh: Optional[IO[str]] = (
            self.path.open("w", encoding="utf-8")
            if self.path is not None
            else None
        )
        self._memory: List[str] = []
        self.n_decisions = 0
        self.n_swaps = 0

    # -- writing -------------------------------------------------------------
    def write_header(self, engine) -> None:
        """Write the session header derived from ``engine``'s cluster config."""
        config = engine.sim.config
        if config.faults.enabled:
            raise ValueError(
                "serving recordings do not carry fault-model RNG state; "
                "disable faults for recorded sessions"
            )
        self._write({
            "version": RECORDING_VERSION,
            "kind": "serve",
            "scheduler": engine.scheduler_key,
            "pool_capacity_mb": config.pool_capacity_mb,
            "n_workers": config.n_workers,
            "worker_concurrency": config.worker_concurrency,
            "worker_capacity_mb": config.worker_capacity_mb,
            "per_worker_pools": config.per_worker_pools,
            "delta_pricing": config.delta_pricing,
            "keepalive_ttl_s": engine.keepalive_ttl_s,
        })

    def on_decision(self, record, exec_time_s: float) -> None:
        """Append one served decision (an ``InvocationRecord``) to the log."""
        self._write({
            "inv": record.invocation_id,
            "fn": record.function_name,
            "t": record.arrival_time,
            "exec": exec_time_s,
            "cold": record.cold_start,
            "cid": record.container_id,
            "m": int(record.match),
            "lat": record.startup_latency_s,
            "q": record.queue_delay_s,
            "w": record.worker_id,
        })
        self.n_decisions += 1

    def on_swap(self, key: str, t: float) -> None:
        """Append one scheduler hot-swap marker."""
        self._write({"swap": key, "t": t})
        self.n_swaps += 1

    def close(self) -> None:
        """Close the backing file, if any (idempotent)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    # -- reading -------------------------------------------------------------
    def lines(self) -> List[str]:
        """The recorded JSONL lines (from memory or the backing file)."""
        if self.path is not None:
            return self.path.read_text(encoding="utf-8").splitlines()
        return list(self._memory)

    def _write(self, obj: Dict[str, object]) -> None:
        """Serialize and append one line, flushing write-through."""
        line = json.dumps(obj, separators=(",", ":"))
        if self._fh is not None:
            self._fh.write(line + "\n")
            self._fh.flush()
        else:
            self._memory.append(line)


@dataclass(frozen=True)
class ServeDivergence:
    """First field where a replayed decision differed from the recording."""

    index: int
    field: str
    recorded: object
    replayed: object

    def __str__(self) -> str:
        return (
            f"decision {self.index}: field {self.field!r} recorded "
            f"{self.recorded!r} but replayed {self.replayed!r}"
        )


@dataclass(frozen=True)
class ReplayReport:
    """Outcome of replaying one recorded serving session."""

    n_decisions: int
    n_swaps: int
    divergence: Optional[ServeDivergence]
    #: Whether the recording's final line was torn mid-write (and dropped).
    truncated: bool = False

    @property
    def ok(self) -> bool:
        """Whether every replayed decision matched the recording."""
        return self.divergence is None


def read_recording(
    source: Union[str, Path, Iterable[str]],
) -> Tuple[Dict[str, object], List[Dict[str, object]]]:
    """Parse a recording into ``(header, entries)``.

    ``source`` is a path or an iterable of JSONL lines (e.g.
    :meth:`DecisionRecorder.lines`).  Raises ``ValueError`` on an empty
    log, an unsupported header or a malformed line before the last; a
    torn final line (a session that crashed mid-write) is dropped with a
    ``RuntimeWarning`` and the complete prefix is returned.
    """
    header, entries, truncated = _parse_recording(source)
    if truncated:
        warnings.warn(
            f"serving recording ends in a torn line; read the "
            f"{len(entries)} complete entries before it",
            RuntimeWarning,
            stacklevel=2,
        )
    return header, entries


def _parse_recording(
    source: Union[str, Path, Iterable[str]],
) -> Tuple[Dict[str, object], List[Dict[str, object]], bool]:
    """``(header, entries, truncated)``; see :func:`read_recording`."""
    if isinstance(source, (str, Path)):
        source = Path(source).read_text(encoding="utf-8").splitlines()
    lines = [line for line in source if line.strip()]
    if not lines:
        raise ValueError("empty serving recording")
    try:
        header = json.loads(lines[0])
    except ValueError:
        raise ValueError("malformed serving recording header") from None
    if header.get("kind") != "serve":
        raise ValueError(f"not a serving recording: {header!r}")
    if header.get("version") != RECORDING_VERSION:
        raise ValueError(
            f"unsupported recording version {header.get('version')!r}"
        )
    entries = []
    for number, line in enumerate(lines[1:], start=2):
        try:
            entries.append(json.loads(line))
        except ValueError:
            if number < len(lines):
                raise ValueError(
                    f"malformed serving recording line {number}"
                ) from None
            return header, entries, True
    return header, entries, False


def replay_recording(
    source: Union[str, Path, Iterable[str]], verify: bool = False
) -> ReplayReport:
    """Re-drive a recorded session through a fresh engine and compare.

    Rebuilds the cluster and scheduler from the header, submits every
    recorded arrival with its recorded stamp and execution time, applies
    scheduler swaps at their recorded positions, and compares each decision
    field-by-field.  ``verify=True`` additionally runs the invariant
    monitors throughout the replay.  Stops at the first divergence.  A torn
    final line is dropped and reported as ``ReplayReport.truncated``.
    """
    from repro.cluster.simulator import SimulationConfig
    from repro.serve.engine import ServeEngine

    header, entries, truncated = _parse_recording(source)
    config = SimulationConfig(
        pool_capacity_mb=header["pool_capacity_mb"],
        n_workers=header["n_workers"],
        worker_concurrency=header["worker_concurrency"],
        worker_capacity_mb=header["worker_capacity_mb"],
        per_worker_pools=header["per_worker_pools"],
        delta_pricing=header["delta_pricing"],
        verify=verify,
    )
    engine = ServeEngine(
        config,
        scheduler=header["scheduler"],
        keepalive_ttl_s=header["keepalive_ttl_s"],
    )
    n_decisions = 0
    n_swaps = 0
    divergence: Optional[ServeDivergence] = None
    for entry in entries:
        if "swap" in entry:
            engine.swap_scheduler(entry["swap"])
            n_swaps += 1
            continue
        outcome = engine.submit(
            entry["fn"], exec_time_s=entry["exec"], now=entry["t"]
        )
        record = outcome.record
        replayed = {
            "inv": record.invocation_id,
            "cold": record.cold_start,
            "cid": record.container_id,
            "m": int(record.match),
            "lat": record.startup_latency_s,
            "q": record.queue_delay_s,
            "w": record.worker_id,
        }
        for field in _COMPARED_FIELDS:
            if replayed[field] != entry[field]:
                divergence = ServeDivergence(
                    index=n_decisions,
                    field=field,
                    recorded=entry[field],
                    replayed=replayed[field],
                )
                break
        n_decisions += 1
        if divergence is not None:
            break
    engine.drain()
    return ReplayReport(
        n_decisions=n_decisions, n_swaps=n_swaps, divergence=divergence,
        truncated=truncated,
    )
