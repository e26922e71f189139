"""The span tracer's online aggregation against the reference arithmetic."""

import asyncio
import time

from perfbench.stats import self_times
from perfbench.tracing import Tracer, TracedIter, accounting, layer_metrics


def _busy(ms: float) -> None:
    end = time.perf_counter() + ms / 1e3
    while time.perf_counter() < end:
        pass


def _tree(tracer: Tracer):
    inner = tracer.wrap("b", "B.inner", lambda: _busy(1))
    same = tracer.wrap("a", "A.again", lambda: inner())

    def outer_body():
        _busy(1)
        same()
        inner()
        return 7

    return tracer.wrap("a", "A.outer", outer_body)


def _by_layer_from_spans(tracer: Tracer):
    spans = [(sid, parent, layer, start, end)
             for sid, parent, layer, start, end, _n, _g in tracer.spans]
    return self_times(spans)


def test_online_self_times_match_reference_arithmetic():
    tracer = Tracer()
    outer = _tree(tracer)
    assert outer() == 7
    assert outer() == 7
    assert dict(tracer.self_ns) == _by_layer_from_spans(tracer)
    snap = tracer.snapshot()
    assert accounting(snap, tracer.spans)["trace.unaccounted_share"] == 0.0
    # Outermost calls per layer: A.again nested in A.outer is not counted.
    assert snap["calls"] == {"a": 2, "b": 4}
    assert snap["method_calls"]["A.again"] == 2


def test_async_spans_do_not_adopt_each_other():
    tracer = Tracer()

    async def handler(delay):
        await asyncio.sleep(delay)
        sync_part()

    sync_part = tracer.wrap("sync", "S.part", lambda: _busy(1))
    wrapped = tracer.wrap("req", "R.handle", handler)

    async def main():
        await asyncio.gather(wrapped(0.01), wrapped(0.005))

    asyncio.run(main())
    parents = {sid: parent for sid, parent, *_ in tracer.spans}
    layers = {sid: layer for sid, _p, layer, *_ in tracer.spans}
    for sid, parent in parents.items():
        if layers[sid] == "sync":
            assert layers[parent] == "req"
    # Each handler's sync child hangs under its own handler span.
    assert len({parents[s] for s in parents if layers[s] == "sync"}) == 2
    assert all(v >= 0 for v in tracer.self_ns.values())
    assert dict(tracer.self_ns) == _by_layer_from_spans(tracer)


def test_accounting_flags_overlapping_children():
    # Two concurrent tasks under one parent span: their child spans overlap
    # in time, so summing child durations double-counts what the interval
    # reference merges, and the accounting check must see the difference.
    tracer = Tracer()
    child = tracer.wrap("c", "C.wait", asyncio.sleep)

    async def body():
        await asyncio.gather(child(0.02), child(0.02))

    parent = tracer.wrap("p", "P.run", body)
    asyncio.run(parent())
    acc = accounting(tracer.snapshot(), tracer.spans)
    assert acc["trace.unaccounted_share"] > 0.2


def test_accounting_covers_only_kept_spans(monkeypatch):
    import perfbench.tracing as tracing

    monkeypatch.setattr(tracing, "KEEP_SPANS", 3)
    tracer = Tracer()
    outer = _tree(tracer)
    outer()
    outer()
    assert len(tracer.spans) == 3
    snap = tracer.snapshot()
    assert sum(snap["kept_self_ns"].values()) < sum(snap["self_ns"].values())
    assert accounting(snap, tracer.spans)["trace.unaccounted_share"] == 0.0


def test_traced_iter_times_each_next_and_keeps_name():
    class Stream:
        name = "demo"

        def __iter__(self):
            return iter([1, 2, 3])

    tracer = Tracer()
    it = TracedIter(tracer, Stream())
    assert it.name == "demo"
    assert list(it) == [1, 2, 3]
    assert tracer.method_calls["stream.__next__"] == 4  # 3 items + stop


def test_layer_metrics_zero_for_unexercised_layers():
    metrics = layer_metrics(Tracer().snapshot())
    assert all(v == 0 for v in metrics.values())
