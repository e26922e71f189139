"""Percentile, ladder and self-time rules of the benchmark (no sockets)."""

import math

import pytest

from perfbench.stats import (
    ladder_max_rate,
    ladder_rates,
    latencies_from_due,
    median_and_tail,
    percentile,
    self_times,
    step_passes,
    tail_percentile,
)


@pytest.mark.parametrize("n, expected", [
    (1000, 99.0), (2000, 99.0), (999, 98.9), (400, 97.5), (360, 97.2),
    (100, 90.0), (20, 50.0), (19, None), (0, None),
])
def test_tail_percentile_leaves_ten_beyond(n, expected):
    assert tail_percentile(n) == expected


@pytest.mark.parametrize("n", [21, 37, 150, 296, 700, 1001, 5000])
def test_tail_percentile_is_highest_with_ten_beyond(n):
    p = tail_percentile(n)
    beyond = n - math.ceil(p / 100 * n - 1e-9)
    assert beyond >= 10
    higher = round(p + 0.1, 1)
    if higher <= 99.0:
        assert n - math.ceil(higher / 100 * n - 1e-9) < 10


def test_median_and_tail_uses_rule():
    samples = list(range(1, 401))  # 400 samples -> p97.5 = 390
    med, tail, p = median_and_tail(samples)
    assert (med, tail, p) == (200.5, 390, 97.5)
    assert 400 - samples.index(tail) - 1 == 10
    med, tail, p = median_and_tail([3.0, 1.0, 2.0])
    assert (med, tail, p) == (2.0, 3.0, None)


def test_percentile_nearest_rank():
    assert percentile([5, 1, 4, 2, 3], 50) == 3
    assert percentile(list(range(100)), 99) == 98
    with pytest.raises(ValueError):
        percentile([], 50)


def test_latency_counts_from_due_time():
    # Request 1 was due at 1.0 but only sent at 1.5 (generator stall): its
    # latency includes the stall, not just the 0.1 s the exchange took.
    due = [0.0, 1.0]
    done = [0.2, 1.6]
    assert latencies_from_due(due, done) == pytest.approx([0.2, 0.6])
    with pytest.raises(ValueError):
        latencies_from_due([0.0], [])


def test_ladder_rates_ascend_in_small_steps():
    rates = ladder_rates(100.0, 0.05, 200.0)
    assert rates[0] == 100.0 and rates[-1] <= 200.0
    assert all(b / a <= 1.10 + 1e-9 for a, b in zip(rates, rates[1:]))
    with pytest.raises(ValueError):
        ladder_rates(100.0, 0.2, 200.0)


def test_step_pass_rule():
    assert step_passes(tail_ms=50.0, offered=100, achieved=99.0, errors=0)
    assert not step_passes(tail_ms=101.0, offered=100, achieved=100, errors=0)
    assert not step_passes(tail_ms=5.0, offered=100, achieved=94.0, errors=0)
    assert not step_passes(tail_ms=5.0, offered=100, achieved=100, errors=1)


def test_ladder_stops_at_first_failure():
    steps = [(100, True), (110, True), (121, False), (133, True)]
    assert ladder_max_rate(steps) == 110
    assert ladder_max_rate([(100, False), (110, True)]) is None
    assert ladder_max_rate(iter([(100, True)])) == 100


def test_self_times_simple_tree():
    # root [0,100] > a [10,40] > b [20,30]; root > c [50,60]
    spans = [
        (1, None, "root", 0, 100),
        (2, 1, "a", 10, 40),
        (3, 2, "b", 20, 30),
        (4, 1, "c", 50, 60),
    ]
    out = self_times(spans)
    assert out == {"root": 60, "a": 20, "b": 10, "c": 10}
    assert sum(out.values()) == 100


def test_self_times_same_layer_nesting_and_overlap():
    # Two overlapping children (concurrent async work) are not subtracted
    # twice; a same-layer child (super().decide) folds into one layer.
    spans = [
        (1, None, "srv", 0, 100),
        (2, 1, "io", 10, 50),
        (3, 1, "io", 30, 70),
        (4, None, "sched", 200, 260),
        (5, 4, "sched", 210, 250),
    ]
    out = self_times(spans)
    assert out["srv"] == 100 - 60
    assert out["sched"] == 60
    assert out["io"] == 80
