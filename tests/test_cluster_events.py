"""Tests for the event queue."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster.events import EventKind, EventQueue


class TestEventQueue:
    def test_orders_by_time(self):
        q = EventQueue()
        q.push(5.0, EventKind.ARRIVAL, "late")
        q.push(1.0, EventKind.ARRIVAL, "early")
        assert q.pop().payload == "early"
        assert q.pop().payload == "late"

    def test_fifo_for_simultaneous_events(self):
        q = EventQueue()
        for i in range(5):
            q.push(1.0, EventKind.ARRIVAL, i)
        assert [q.pop().payload for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().push(-1.0, EventKind.ARRIVAL)

    def test_nan_time_rejected(self):
        # NaN compares false both ways: accepted, it would break heap order.
        q = EventQueue()
        with pytest.raises(ValueError):
            q.push(float("nan"), EventKind.ARRIVAL)
        assert not q

    def test_events_are_tuples_ordered_by_time_priority_seq(self):
        q = EventQueue()
        done = q.push(1.0, EventKind.EXECUTION_COMPLETE, {"unorderable": 1})
        arrival = q.push(1.0, EventKind.ARRIVAL, {"unorderable": 2})
        assert isinstance(done, tuple)
        assert (done.time, done.priority, done.seq) == (1.0, 1, 0)
        assert (arrival.priority, arrival.seq) == (0, 1)
        assert arrival < done
        assert q.pop() is arrival and q.pop() is done

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()

    def test_peek(self):
        q = EventQueue()
        assert q.peek() is None
        q.push(2.0, EventKind.ARRIVAL, "x")
        assert q.peek().payload == "x"
        assert len(q) == 1  # peek does not remove

    def test_len_and_bool(self):
        q = EventQueue()
        assert not q
        q.push(1.0, EventKind.ARRIVAL)
        assert q and len(q) == 1

    def test_event_kinds(self):
        assert {k.value for k in EventKind} == {
            "arrival", "startup", "execution"
        }


@given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False),
                min_size=0, max_size=50))
def test_pops_in_nondecreasing_time_order(times):
    q = EventQueue()
    for t in times:
        q.push(t, EventKind.ARRIVAL)
    popped = [q.pop().time for _ in range(len(times))]
    assert popped == sorted(popped)
