"""End-to-end HTTP tests for the serving plane: every endpoint and status
code, admission-control rejection, and the headline acceptance check --
64 concurrent in-flight requests with live invariant monitors clean.

pytest-asyncio is not a dependency, so each test is a synchronous function
running its async body through ``asyncio.run``.  Engines take a scripted
:class:`VirtualClock` as their wall source so arrival stamps are
deterministic; only connection holds (``time_scale``) consume real time.
"""

import asyncio
import json

import pytest

from repro.cluster.eventloop import VirtualClock
from repro.cluster.simulator import SimulationConfig
from repro.serve import DecisionRecorder, ServeEngine, ServePlane, http_json
from repro.serve import router
from repro.serve.client import http_json as client_http_json


def _plane(config=None, *, engine_kwargs=None, **plane_kwargs):
    """Build an (engine, plane, clock) triple on a free port (unstarted)."""
    clock = VirtualClock()
    config = config or SimulationConfig(pool_capacity_mb=8192.0, n_workers=2)
    engine = ServeEngine(config, wall=clock, **(engine_kwargs or {}))
    plane = ServePlane(engine, **plane_kwargs)
    return engine, plane, clock


async def _serving(plane, body):
    """Start ``plane``, run ``body()``, always shut down cleanly."""
    await plane.start()
    try:
        return await body()
    finally:
        if not plane.engine.closed:
            await plane.stop()


class TestEndpoints:
    def test_invoke_returns_decision(self):
        engine, plane, clock = _plane()

        async def body():
            clock.advance_to(1.0)
            status, payload = await http_json(
                plane.host, plane.port, "POST", "/invoke",
                {"function": "hello-python", "exec_s": 0.25},
            )
            assert status == 200
            assert payload["function"] == "hello-python"
            assert payload["cold_start"] is True
            assert payload["arrival_t"] == 1.0
            assert payload["exec_time_s"] == 0.25
            return payload

        asyncio.run(_serving(plane, body))

    def test_invoke_by_numeric_id(self):
        engine, plane, _ = _plane()

        async def body():
            status, payload = await http_json(
                plane.host, plane.port, "POST", "/invoke", {"function": 4}
            )
            assert status == 200 and payload["function"] == "hello-python"

        asyncio.run(_serving(plane, body))

    def test_error_statuses(self):
        engine, plane, _ = _plane()

        async def body():
            host, port = plane.host, plane.port
            # 404: unknown function name.
            status, payload = await http_json(
                host, port, "POST", "/invoke", {"function": "no-such-fn"}
            )
            assert status == 404 and "error" in payload
            # 400: missing / mistyped fields.
            status, _ = await http_json(host, port, "POST", "/invoke", {})
            assert status == 400
            status, _ = await http_json(
                host, port, "POST", "/invoke",
                {"function": "hello-python", "exec_s": "fast"},
            )
            assert status == 400
            # 404: unknown path; 405: wrong method on a known path.
            status, _ = await http_json(host, port, "GET", "/nope")
            assert status == 404
            status, _ = await http_json(host, port, "GET", "/invoke")
            assert status == 405
            # 400: malformed JSON body.
            reader, writer = await asyncio.open_connection(host, port)
            raw = b"not json"
            writer.write(
                b"POST /invoke HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: %d\r\nConnection: close\r\n\r\n%s"
                % (len(raw), raw)
            )
            await writer.drain()
            response = await reader.read()
            writer.close()
            assert b"400" in response.split(b"\r\n", 1)[0]

        asyncio.run(_serving(plane, body))

    def test_slow_body_gets_408(self, monkeypatch):
        monkeypatch.setattr(router, "REQUEST_READ_TIMEOUT_S", 0.2)
        engine, plane, _ = _plane()

        async def body():
            reader, writer = await asyncio.open_connection(
                plane.host, plane.port
            )
            # The head promises a body that never arrives in full.
            writer.write(
                b"POST /invoke HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: 64\r\n\r\n{\"function\""
            )
            await writer.drain()
            response = await asyncio.wait_for(reader.read(), timeout=5.0)
            writer.close()
            assert response.startswith(b"HTTP/1.1 408 Request Timeout\r\n")
            assert "error" in json.loads(response.split(b"\r\n\r\n", 1)[1])
            assert plane.admission.accepted == 0

        asyncio.run(_serving(plane, body))

    def test_stats_and_scheduler_swap(self):
        engine, plane, clock = _plane()

        async def body():
            host, port = plane.host, plane.port
            clock.advance_to(1.0)
            await http_json(host, port, "POST", "/invoke",
                            {"function": "hello-python", "exec_s": 0.1})
            status, payload = await http_json(
                host, port, "POST", "/scheduler", {"scheduler": "greedy"}
            )
            assert status == 200
            assert payload == {"scheduler": "greedy", "previous": "lru"}
            status, _ = await http_json(
                host, port, "POST", "/scheduler", {"scheduler": "bogus"}
            )
            assert status == 400

            status, stats = await http_json(host, port, "GET", "/stats")
            assert status == 200
            assert stats["scheduler"] == "greedy"
            assert stats["scheduler_swaps"] == 1
            assert stats["requests"] == 1
            assert stats["cold_starts"] == 1
            assert stats["startup_latency"]["count"] == 1
            assert stats["wall_latency"]["count"] == 1
            assert stats["admission"]["accepted"] == 1
            assert json.dumps(stats)  # entire snapshot is JSON-clean

        asyncio.run(_serving(plane, body))

    def test_healthz_reports_monitor_state(self):
        config = SimulationConfig(
            pool_capacity_mb=8192.0, n_workers=2, verify=True
        )
        engine, plane, clock = _plane(config)

        async def body():
            host, port = plane.host, plane.port
            clock.advance_to(1.0)
            await http_json(host, port, "POST", "/invoke",
                            {"function": "hello-python"})
            status, report = await http_json(host, port, "GET", "/healthz")
            assert status == 200
            assert report["healthy"] and report["verified"]
            # Corrupt the books: the live monitors must turn the page red.
            engine.sim.lifecycle.created_count += 1
            status, report = await http_json(host, port, "GET", "/healthz")
            assert status == 500
            assert not report["healthy"]
            assert "conservation" in report["violation"]
            # Restore so shutdown-time verification stays clean.
            engine.sim.lifecycle.created_count -= 1

        asyncio.run(_serving(plane, body))

    def test_rejects_with_429_when_admission_full(self):
        engine, plane, clock = _plane(
            time_scale=0.2, max_inflight=2, max_queue=0
        )

        async def body():
            host, port = plane.host, plane.port
            clock.advance_to(1.0)

            async def invoke():
                return await http_json(
                    host, port, "POST", "/invoke",
                    {"function": "hello-python", "exec_s": 1.0},
                )

            # Two requests occupy both slots (held ~0.5s wall each)...
            first_two = [asyncio.create_task(invoke()) for _ in range(2)]
            await asyncio.sleep(0.15)
            # ...so the third finds no slot and no queue.
            status, payload = await invoke()
            assert status == 429 and "error" in payload
            assert all(s == 200 for s, _ in await asyncio.gather(*first_two))

            status, stats = await http_json(host, port, "GET", "/stats")
            assert stats["rejected"] == 1
            assert stats["admission"]["rejected"] == 1
            assert stats["admission"]["max_inflight"] == 2

        asyncio.run(_serving(plane, body))

    def test_503_while_draining(self):
        engine, plane, _ = _plane()

        async def body():
            plane._draining = True
            status, payload = await http_json(
                plane.host, plane.port, "POST", "/invoke",
                {"function": "hello-python"},
            )
            assert status == 503 and "drain" in payload["error"]
            plane._draining = False

        asyncio.run(_serving(plane, body))

    def test_client_alias_is_the_package_export(self):
        assert http_json is client_http_json


class TestConcurrency:
    def test_sustains_64_concurrent_inflight_with_clean_monitors(self):
        """Acceptance: >= 64 requests simultaneously in flight, invariant
        monitors live the whole time, every request served."""
        config = SimulationConfig(
            pool_capacity_mb=300_000.0,
            n_workers=4,
            worker_concurrency=16,
            verify=True,
            bounded_telemetry=True,
        )
        engine, plane, clock = _plane(
            config,
            engine_kwargs={"recorder": DecisionRecorder()},
            time_scale=0.08,  # ~0.3-0.6s wall holds; plenty of overlap
        )
        assert plane.admission.max_inflight == 64

        async def body():
            host, port = plane.host, plane.port
            clock.advance_to(1.0)

            async def invoke(i):
                return await http_json(
                    host, port, "POST", "/invoke",
                    {"function": ("hello-python", "hello-node",
                                  "hello-go", "hello-java")[i % 4],
                     "exec_s": 2.0},
                    timeout_s=60.0,
                )

            results = await asyncio.gather(*(invoke(i) for i in range(64)))
            assert all(status == 200 for status, _ in results)

            status, report = await http_json(host, port, "GET", "/healthz")
            assert status == 200 and report["healthy"]
            status, stats = await http_json(host, port, "GET", "/stats")
            assert stats["requests"] == 64
            assert stats["admission"]["peak_inflight"] >= 64
            assert stats["errors"] == 0

        asyncio.run(_serving(plane, body))
        # The session recorded every decision; replay must agree.
        from repro.serve import replay_recording

        report = replay_recording(engine.recorder.lines(), verify=True)
        assert report.ok, str(report.divergence)
        assert report.n_decisions == 64


class TestCliServeWiring:
    def test_cmd_serve_builds_and_drains(self, tmp_path, monkeypatch, capsys):
        """`repro serve` wires config flags through to a live plane and
        prints the drained summary when interrupted."""
        from repro import cli

        record = tmp_path / "session.jsonl"

        # cmd_serve parks on the *first* Event.wait (its forever-wait);
        # interrupt only that one so the shutdown path's own Event waits
        # (connection drain, admission drain) still work.
        real_wait = asyncio.Event.wait
        calls = {"n": 0}

        async def fake_wait(self):
            calls["n"] += 1
            if calls["n"] == 1:
                raise KeyboardInterrupt
            return await real_wait(self)

        monkeypatch.setattr(asyncio.Event, "wait", fake_wait, raising=True)
        rc = cli.main([
            "serve", "--port", "0", "--scheduler", "keepalive",
            "--workers", "2", "--concurrency", "4",
            "--keepalive", "30", "--record", str(record),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "serving" in out.lower()
        assert record.exists()
        header = json.loads(record.read_text().splitlines()[0])
        assert header["scheduler"] == "keepalive"
        assert header["worker_concurrency"] == 4
