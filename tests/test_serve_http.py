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
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_truncated_body_gets_400_not_500(self):
        engine, plane, _ = _plane()

        async def body():
            reader, writer = await asyncio.open_connection(
                plane.host, plane.port
            )
            # 12 of the 100 declared body bytes, then the client hangs up.
            writer.write(
                b"POST /invoke HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: 100\r\n\r\n{\"function\":"
            )
            writer.write_eof()
            response = await asyncio.wait_for(reader.read(), timeout=5.0)
            writer.close()
            assert response.startswith(b"HTTP/1.1 400 Bad Request\r\n")
            payload = json.loads(response.split(b"\r\n\r\n", 1)[1])
            assert payload["error"] == "truncated request body"
            status, stats = await http_json(
                plane.host, plane.port, "GET", "/stats"
            )
            assert stats["errors"] == 0
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


# -- read_request on in-memory streams ---------------------------------------

def _parse(data, eof=True):
    """Feed ``data`` to a fresh stream and parse it; returns the request,
    ``None`` or the :class:`router.HttpError` raised."""

    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        if eof:
            reader.feed_eof()
        try:
            return await router.read_request(reader)
        except router.HttpError as exc:
            return exc

    return asyncio.run(go())


class TestReadRequest:
    def test_truncated_body_is_a_400(self):
        outcome = _parse(
            b"POST /invoke HTTP/1.1\r\nContent-Length: 100\r\n\r\n"
            + b"x" * 12
        )
        assert isinstance(outcome, router.HttpError)
        assert outcome.status == 400
        assert outcome.message == "truncated request body"

    @pytest.mark.parametrize("value", ["+5", "1_0", "-0", "5.0", "0x5", "",
                                       "\u00b2"])
    def test_content_length_must_be_ascii_digits(self, value):
        head = f"POST /invoke HTTP/1.1\r\nContent-Length: {value}\r\n\r\n"
        outcome = _parse(head.encode("latin-1") + b"hello")
        assert isinstance(outcome, router.HttpError)
        assert outcome.status == 400
        assert "Content-Length" in outcome.message

    def test_content_length_with_surrounding_spaces(self):
        outcome = _parse(
            b"POST /invoke HTTP/1.1\r\nContent-Length:  5 \r\n\r\nhello"
        )
        assert isinstance(outcome, router.Request)
        assert outcome.body == b"hello"

    def test_huge_content_length_is_a_400(self):
        outcome = _parse(
            b"POST /x HTTP/1.1\r\nContent-Length: " + b"9" * 5000
            + b"\r\n\r\n"
        )
        assert isinstance(outcome, router.HttpError)
        assert outcome.status == 400

    def test_conflicting_content_lengths_are_a_400(self):
        outcome = _parse(
            b"POST /x HTTP/1.1\r\nContent-Length: 2\r\n"
            b"Content-Length: 5\r\n\r\nhello"
        )
        assert isinstance(outcome, router.HttpError)
        assert outcome.status == 400
        repeated = _parse(
            b"POST /x HTTP/1.1\r\nContent-Length: 5\r\n"
            b"content-length: 5\r\n\r\nhello"
        )
        assert isinstance(repeated, router.Request)
        assert repeated.body == b"hello"


# -- fuzzing read_request ----------------------------------------------------
#
# Every input must end in a Request, None (clean EOF before any byte) or an
# HttpError with a 4xx status -- never another exception, never a hang.
# The read deadline is cut to FUZZ_TIMEOUT_S so unterminated inputs end in
# 408 quickly; a generous outer wait_for turns a hang into a failure.

FUZZ_TIMEOUT_S = 0.02
HANG_S = 5.0

_tokens = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126),
    min_size=0, max_size=8,
)
_methods = st.sampled_from(["GET", "POST", "PUT", "", "get", "P OST"])
_targets = st.one_of(
    st.sampled_from(["/invoke", "/stats?x=1", "/", "*", "", "/a b"]), _tokens
)
_versions = st.sampled_from(["HTTP/1.1", "HTTP/1.0", "", "HTTP/9", "x y"])
_lengths = st.one_of(
    st.integers(min_value=0, max_value=200).map(str),
    st.integers(min_value=-10**6, max_value=-1).map(str),
    st.integers(min_value=65_536, max_value=10**30).map(str),
    st.sampled_from(["+5", " 7", "1_0", "abc", "", "0x10", "5,5",
                     "\u00b9", "9" * 5000]),
)


@st.composite
def _requests(draw):
    """Request-like byte strings, mostly well-formed at the edges."""
    line = draw(st.one_of(
        st.builds(lambda m, t, v: f"{m} {t} {v}", _methods, _targets,
                  _versions),
        _tokens,
    ))
    headers = [f"{n}: {v}" for n, v in draw(st.lists(
        st.tuples(st.sampled_from(["Host", "X-A", "Content-Type"]), _tokens),
        max_size=3,
    ))]
    declared = draw(st.lists(_lengths, max_size=3))
    headers += [
        f"{draw(st.sampled_from(['Content-Length', 'content-length']))}: {v}"
        for v in declared
    ]
    if draw(st.booleans()):
        headers.append(draw(_tokens))  # a line without a colon, maybe
    headers = draw(st.permutations(headers))
    body = draw(st.binary(max_size=256))
    head = "\r\n".join([line] + headers) + "\r\n\r\n"
    if draw(st.booleans()):
        head = head[:draw(st.integers(0, len(head)))]  # cut anywhere
    return head.encode("latin-1") + body


def _check_outcome(outcome):
    if isinstance(outcome, router.HttpError):
        assert 400 <= outcome.status < 500, outcome.message
    else:
        assert outcome is None or isinstance(outcome, router.Request)


def _fuzz(chunks, eof, gap_s=0.0, deadline_s=FUZZ_TIMEOUT_S):
    """Parse ``chunks`` fed ``gap_s`` apart under a short read deadline."""

    async def go():
        reader = asyncio.StreamReader()

        async def feed():
            for chunk in chunks:
                reader.feed_data(chunk)
                if gap_s:
                    await asyncio.sleep(gap_s)
            if eof:
                reader.feed_eof()

        feeder = asyncio.ensure_future(feed())
        try:
            return await asyncio.wait_for(router.read_request(reader), HANG_S)
        except router.HttpError as exc:
            return exc
        finally:
            feeder.cancel()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(router, "REQUEST_READ_TIMEOUT_S", deadline_s)
        return asyncio.run(go())


class TestReadRequestFuzz:
    @settings(max_examples=100, deadline=None)
    @given(data=st.binary(max_size=512), eof=st.booleans())
    def test_arbitrary_bytes(self, data, eof):
        _check_outcome(_fuzz([data], eof))

    @settings(max_examples=200, deadline=None)
    @given(data=_requests(), eof=st.booleans())
    def test_request_like_bytes(self, data, eof):
        outcome = _fuzz([data], eof)
        _check_outcome(outcome)
        if isinstance(outcome, router.Request):
            declared = outcome.headers.get("content-length", "0")
            assert len(outcome.body) == int(declared)

    @settings(max_examples=40, deadline=None)
    @given(
        method=st.sampled_from(["GET", "POST"]),
        body=st.binary(max_size=64),
        delta=st.integers(min_value=-64, max_value=64).filter(bool),
    )
    def test_length_body_mismatch(self, method, body, delta):
        # The client hangs up after its bytes, so no case waits for the
        # deadline; a long one keeps host stalls from turning into 408s.
        declared = max(0, len(body) + delta)
        data = (f"{method} /invoke HTTP/1.1\r\nContent-Length: {declared}"
                "\r\n\r\n").encode() + body
        outcome = _fuzz([data], eof=True, deadline_s=HANG_S / 2)
        _check_outcome(outcome)
        if declared > len(body):
            assert isinstance(outcome, router.HttpError)
            assert outcome.message == "truncated request body"
        else:
            assert isinstance(outcome, router.Request)
            assert outcome.body == body[:declared]

    @settings(max_examples=10, deadline=None)
    @given(extra=st.integers(min_value=1, max_value=4096), eof=st.booleans())
    def test_oversize_head(self, extra, eof):
        value = "v" * (64 * 1024 + extra)
        data = f"GET /stats HTTP/1.1\r\nX-Big: {value}\r\n\r\n".encode()
        outcome = _fuzz([data], eof)
        assert isinstance(outcome, router.HttpError)
        assert outcome.status == 400

    @settings(max_examples=15, deadline=None)
    @given(
        data=_requests(),
        n_chunks=st.integers(min_value=2, max_value=6),
        gap_s=st.sampled_from([0.0, 0.005, 0.03]),
        eof=st.booleans(),
    )
    def test_slow_trickle(self, data, n_chunks, gap_s, eof):
        size = max(1, len(data) // n_chunks)
        chunks = [data[i:i + size] for i in range(0, len(data), size)]
        _check_outcome(_fuzz(chunks, eof, gap_s))

    def test_trickle_past_the_deadline_is_a_408(self):
        data = b"GET /stats HTTP/1.1\r\nHost: x\r\n\r\n"
        chunks = [data[i:i + 4] for i in range(0, len(data), 4)]
        outcome = _fuzz(chunks, eof=True, gap_s=0.02)
        assert isinstance(outcome, router.HttpError)
        assert outcome.status == 408
