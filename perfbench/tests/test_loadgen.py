"""Open-loop generator timing against a fake in-process clock and server."""

import asyncio

from perfbench import serve_http


def test_request_mix_is_seeded_and_skewed():
    from repro.workloads.azure import AzureTraceConfig

    a = serve_http.request_mix(3, 4000)
    assert a == serve_http.request_mix(3, 4000)
    assert a != serve_http.request_mix(4, 4000)
    assert set(a) <= set(range(1, 14))
    # Rank r takes r ** -s / sum(k ** -s) of the traffic under the
    # calibrated Azure exponent, and every seed offers the same mix.
    s = AzureTraceConfig().zipf_exponent
    total = sum(r ** -s for r in range(1, 14))
    counts = sorted((a.count(f) for f in range(1, 14)), reverse=True)
    for rank in (1, 2, 3):
        assert abs(counts[rank - 1] / len(a) - rank ** -s / total) < 0.03
    heads = {max(range(1, 14), key=serve_http.request_mix(seed, 2000).count)
             for seed in range(8)}
    assert len(heads) == 1


def test_phase_times_requests_from_due_time(monkeypatch):
    # A server that answers instantly except for one 300 ms stall: with two
    # connections, later requests queue behind it and their latency (from
    # due time) includes the wait, although each exchange itself is fast.
    calls = []

    async def fake_exchange(port, body):
        calls.append(body)
        if len(calls) == 3:
            await asyncio.sleep(0.3)
        return 200

    monkeypatch.setattr(serve_http, "_exchange", fake_exchange)
    res = asyncio.run(serve_http.run_phase(0, 100.0, 0.2, [1] * 20, seed=1))
    assert res.errors == 0 and len(res.latencies_ms) == 20
    assert max(res.latencies_ms) >= 290
    assert sorted(res.latencies_ms)[10] < 50
    assert max(res.lateness_ms) > 0


def test_missed_deadline_is_a_failure(monkeypatch):
    async def slow_exchange(port, body):
        await asyncio.sleep(5)
        return 200

    monkeypatch.setattr(serve_http, "_exchange", slow_exchange)
    monkeypatch.setattr(serve_http, "REQUEST_DEADLINE_S", 0.05)
    res = asyncio.run(serve_http.run_phase(0, 100.0, 0.02, [1, 1], seed=1,
                                           abort_when_late=True))
    assert res.errors >= 1 and res.aborted
    assert res.latencies_ms == []


def test_due_times_are_seeded_poisson_within_the_phase():
    a = serve_http.due_offsets(5, 50.0, 4.0)
    assert a == serve_http.due_offsets(5, 50.0, 4.0)
    assert a != serve_http.due_offsets(6, 50.0, 4.0)
    assert len(a) == 200 and a == sorted(a)
    assert 0.0 <= a[0] and a[-1] <= 4.0
