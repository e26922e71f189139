"""The asyncio HTTP serving plane (``repro serve``).

Wires the pieces together: a stdlib ``asyncio.start_server`` accept loop,
the :mod:`~repro.serve.router` HTTP plumbing, the
:class:`~repro.serve.admission.AdmissionController` bounding in-flight
requests, the :class:`~repro.serve.janitor.Janitor` driving keep-alive
sweeps, and the :class:`~repro.serve.engine.ServeEngine` making every
scheduling decision through the deterministic simulator core.

Endpoints (all JSON, ``Connection: close``):

* ``POST /invoke`` -- body ``{"function": <name|id>, "exec_s": <float?>}``;
  schedules the invocation, holds the connection for the simulated service
  time scaled by ``time_scale`` (0 = respond immediately), and returns the
  decision outcome.  429 when admission is full, 503 while draining.
* ``GET /stats`` -- the session's :class:`~repro.serve.stats.ServeStats`
  snapshot (counters, merged latency sketches, live cluster view).
* ``GET /healthz`` -- runs the live invariant monitors
  (:meth:`~repro.serve.engine.ServeEngine.health`); 500 with the first
  violation if any invariant is broken.
* ``POST /scheduler`` -- body ``{"scheduler": <key>}``; hot-swaps the
  decision policy.

Graceful shutdown (:meth:`ServePlane.stop`): stop accepting, answer 408 at
once to every connection whose request head has not arrived, let every
in-flight request finish, run a final janitor sweep, then drain the engine
so the simulator runs out its event queue and the recording closes.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, Optional, Set, Tuple

from repro.cluster.simulator import SimulationResult
from repro.serve.admission import AdmissionController, AdmissionRejected
from repro.serve.engine import ServeClosed, ServeEngine
from repro.serve.janitor import Janitor
from repro.serve.router import (
    HttpError,
    Request,
    Router,
    json_response,
    read_request,
)
from repro.serve.stats import ServeStats

__all__ = ["ServePlane"]


class ServePlane:
    """One HTTP serving session over a :class:`ServeEngine`.

    Parameters
    ----------
    engine:
        The scheduling engine (owns the simulator, scheduler and recorder).
    host / port:
        Bind address; port 0 (the default) picks a free port, exposed via
        :attr:`port` after :meth:`start`.
    time_scale:
        Wall seconds each request holds its connection per simulated
        service second.  0 responds immediately (pure decision latency);
        1 would hold requests in real time.
    janitor_interval_s:
        Wall interval between keep-alive sweeps.
    max_inflight:
        Admission bound on concurrently held request slots; defaults to
        ``n_workers * worker_concurrency`` when the cluster enforces a
        concurrency limit, otherwise unbounded.
    max_queue:
        Requests allowed to wait for an admission slot before new arrivals
        are rejected with 429.
    """

    def __init__(
        self,
        engine: ServeEngine,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        time_scale: float = 0.0,
        janitor_interval_s: float = 0.05,
        max_inflight: Optional[int] = None,
        max_queue: int = 1024,
    ) -> None:
        if time_scale < 0:
            raise ValueError("time_scale must be >= 0")
        self.engine = engine
        self.host = host
        self._requested_port = port
        self.time_scale = time_scale
        config = engine.sim.config
        if max_inflight is None and config.worker_concurrency is not None:
            max_inflight = config.n_workers * config.worker_concurrency
        self.admission = AdmissionController(
            max_inflight=max_inflight, max_queue=max_queue
        )
        self.stats = ServeStats(n_workers=config.n_workers)
        self.janitor = Janitor(
            engine, stats=self.stats, interval_s=janitor_interval_s
        )
        self.router = Router()
        self.router.add("POST", "/invoke", self._invoke)
        self.router.add("GET", "/stats", self._get_stats)
        self.router.add("GET", "/healthz", self._healthz)
        self.router.add("POST", "/scheduler", self._swap_scheduler)
        self._server: Optional[asyncio.base_events.Server] = None
        self._draining = False
        # Connection tasks still waiting for their request head; stop()
        # cuts them off (``_cut``) instead of waiting out the read deadline,
        # and ``_stopping`` cuts off connections accepted just before it.
        self._awaiting_head: Set[asyncio.Task] = set()
        self._cut: Set[asyncio.Task] = set()
        self._stopping = False
        self._active_conns = 0
        self._conns_idle = asyncio.Event()
        self._conns_idle.set()
        self.result: Optional[SimulationResult] = None

    # -- lifecycle -----------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound TCP port (valid after :meth:`start`)."""
        if self._server is None:
            raise RuntimeError("server not started")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        """Bind the listening socket and start the janitor."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self._requested_port
        )
        self.janitor.start()

    async def stop(self) -> SimulationResult:
        """Gracefully shut down; returns the session's simulation result.

        Ordering: refuse new work (503), stop accepting connections, answer
        408 to every connection that has not yet sent a whole request head,
        wait for every in-flight request and open connection to finish,
        stop the janitor (final sweep), then drain the engine.
        """
        if self._server is None:
            raise RuntimeError("server not started")
        self._draining = True
        self._stopping = True
        self._server.close()
        for task in self._awaiting_head:
            self._cut.add(task)
            task.cancel()
        # Python 3.12's wait_closed also waits for handler completion;
        # the explicit waits below make the ordering version-independent.
        await self._server.wait_closed()
        await self.admission.drained()
        await self._conns_idle.wait()
        await self.janitor.stop()
        self.result = self.engine.drain()
        return self.result

    # -- endpoint handlers ---------------------------------------------------
    async def _invoke(self, request: Request) -> Tuple[int, Dict[str, object]]:
        """``POST /invoke``: schedule one invocation and hold for service."""
        if self._draining:
            raise HttpError(503, "server is draining")
        payload = request.json()
        function = payload.get("function")
        if not isinstance(function, (str, int)):
            raise HttpError(400, "body must carry 'function' (name or id)")
        exec_s = payload.get("exec_s")
        if exec_s is not None and not isinstance(exec_s, (int, float)):
            raise HttpError(400, "'exec_s' must be a number")
        started = time.monotonic()
        try:
            async with self.admission.slot():
                try:
                    outcome = self.engine.submit(function, exec_time_s=exec_s)
                except KeyError as exc:
                    raise HttpError(404, str(exc)) from None
                except ValueError as exc:
                    raise HttpError(400, str(exc)) from None
                except ServeClosed as exc:
                    raise HttpError(503, str(exc)) from None
                self.stats.on_decision(outcome.record)
                hold_s = outcome.service_time_s * self.time_scale
                if hold_s > 0:
                    await asyncio.sleep(hold_s)
        except AdmissionRejected as exc:
            self.stats.on_reject()
            raise HttpError(429, str(exc)) from None
        self.stats.on_wall_latency(time.monotonic() - started)
        return 200, outcome.to_json()

    async def _get_stats(self, request: Request) -> Tuple[int, Dict[str, object]]:
        """``GET /stats``: the bounded session statistics snapshot."""
        payload = self.stats.snapshot(self.engine)
        payload["admission"] = {
            "inflight": self.admission.inflight,
            "peak_inflight": self.admission.peak_inflight,
            "max_inflight": self.admission.max_inflight,
            "accepted": self.admission.accepted,
            "rejected": self.admission.rejected,
        }
        return 200, payload

    async def _healthz(self, request: Request) -> Tuple[int, Dict[str, object]]:
        """``GET /healthz``: live invariant-monitor checkpoint."""
        report = self.engine.health()
        return (200 if report["healthy"] else 500), report

    async def _swap_scheduler(
        self, request: Request
    ) -> Tuple[int, Dict[str, object]]:
        """``POST /scheduler``: hot-swap the decision policy."""
        payload = request.json()
        key = payload.get("scheduler")
        if not isinstance(key, str):
            raise HttpError(400, "body must carry 'scheduler' (registry key)")
        try:
            previous = self.engine.swap_scheduler(key)
        except KeyError as exc:
            raise HttpError(400, str(exc)) from None
        return 200, {"scheduler": key, "previous": previous}

    # -- connection plumbing -------------------------------------------------
    async def _read(self, reader: asyncio.StreamReader) -> Optional[Request]:
        """:func:`read_request`, cut off with 408 by a drain that starts
        before the request head has arrived."""
        task = asyncio.current_task()
        if self._stopping:
            raise HttpError(408, "server is draining")
        self._awaiting_head.add(task)
        try:
            return await read_request(
                reader, on_head=lambda: self._awaiting_head.discard(task)
            )
        except asyncio.CancelledError:
            # Only the cut-off stop() requested becomes a 408; any other
            # cancellation of this task propagates.
            if task not in self._cut:
                raise
            uncancel = getattr(task, "uncancel", None)  # Python >= 3.11
            if uncancel is not None and uncancel() > 0:
                raise
            raise HttpError(408, "server is draining") from None
        finally:
            self._awaiting_head.discard(task)
            self._cut.discard(task)

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one request on one connection (``Connection: close``)."""
        self._active_conns += 1
        self._conns_idle.clear()
        try:
            try:
                request = await self._read(reader)
                if request is None:
                    return
                status, payload = await self.router.dispatch(request)
            except HttpError as exc:
                if exc.status >= 500 or exc.status == 404:
                    self.stats.on_error()
                status, payload = exc.status, {"error": exc.message}
            except Exception as exc:  # unexpected: surface as 500
                self.stats.on_error()
                status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
            writer.write(json_response(status, payload))
            await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._active_conns -= 1
            if self._active_conns == 0:
                self._conns_idle.set()
