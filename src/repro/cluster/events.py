"""Discrete-event machinery for the cluster simulator.

A tiny, dependency-free event queue built on ``heapq``.  Events are ordered
by ``(time, priority, sequence)``: arrivals carry priority 0 and all other
kinds priority 1, so a simultaneous arrival is always processed before a
completion regardless of *when* it was scheduled; within a priority class,
simultaneous events run in insertion order.  This keeps the simulator fully
deterministic -- and makes the incremental arrival feed
(``ClusterSimulator.run_stream``, which schedules each arrival just in
time) pop events in exactly the order of the batch path, which schedules
every arrival up front with the earliest sequence numbers.

An :class:`Event` is a plain tuple ``(time, priority, seq, kind, payload)``
with named fields, so ``heapq`` orders events with the C tuple comparison
instead of a Python-level ``__lt__``.  ``seq`` is unique per queue, so two
events never tie on the first three fields and ``kind`` and ``payload``
are never compared.  Event times must be non-negative numbers; NaN is
rejected because it compares false both ways and would silently break the
heap order.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from typing import Any, NamedTuple, Optional


class EventKind(enum.Enum):
    """Kinds of simulator events."""

    ARRIVAL = "arrival"              # a function invocation arrives
    STARTUP_COMPLETE = "startup"     # container finished its startup phases
    EXECUTION_COMPLETE = "execution" # function finished executing


class Event(NamedTuple):
    """A scheduled simulator event.

    Ordering is tuple ordering on ``(time, priority, seq)``; ``seq`` is
    unique, so ``kind`` and ``payload`` (the invocation or container
    involved) never take part in a comparison.  ``priority`` is derived
    from the kind (0 for arrivals, 1 otherwise) by :meth:`EventQueue.push`.
    """

    time: float
    priority: int
    seq: int
    kind: EventKind
    payload: Any = None


_new_event = tuple.__new__
_ARRIVAL = EventKind.ARRIVAL


class EventQueue:
    """A deterministic priority queue of :class:`Event` objects."""

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._counter = itertools.count()

    def push(self, time: float, kind: EventKind, payload: Any = None) -> Event:
        """Schedule an event at ``time``; returns the created event."""
        if not time >= 0:
            raise ValueError("event time must be >= 0 (and not NaN)")
        event = _new_event(Event, (
            time, 0 if kind is _ARRIVAL else 1, next(self._counter),
            kind, payload,
        ))
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        if not self._heap:
            raise IndexError("pop from empty EventQueue")
        return heapq.heappop(self._heap)

    def peek(self) -> Optional[Event]:
        """The earliest event without removing it, or ``None`` if empty."""
        return self._heap[0] if self._heap else None

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
