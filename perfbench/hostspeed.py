"""Host-speed probe: a fixed pure-Python loop timed between units of work.

On a shared VM the host's speed drifts by 30-50% over tens of seconds (a
neighbour on the same physical core), and process CPU time drifts with
wall time, so a raw rate measures the neighbours as much as the program.
:class:`UnitClock` times the units of a replay (a chunk of arrivals, a
lane batch) and runs :func:`probe` after each one.  The probe's code is
the benchmark's own and never changes with the program, so the ratio of
the replay's host time to the probe's host time, sampled at the same
moments, follows the program and not the host.  :func:`speed_factor`
turns the probes of one pass into the factor that rescales its host
times to a host on which one probe takes :data:`PROBE_REF_S`.

A live server works in its own process, on either vCPU, and the host's
speed differs between the two vCPUs from one second to the next, so
probes taken between its phases do not follow it.  :class:`Sidecar`
probes from a process of its own throughout a phase instead::

    python3 -m perfbench.hostspeed

probes every :data:`SIDECAR_EVERY_S` until its standard input closes, then
prints the probe times as one JSON list.

Nothing here imports the program under test.
"""

from __future__ import annotations

import json
import select
import subprocess
import sys
from time import perf_counter
from typing import List, Optional, Sequence

#: Loop iterations of one probe (about 2 ms on a 2-vCPU Xeon VM).
PROBE_ITERATIONS = 12_000
#: Reference host: one probe takes this long.  Rescaled host times read as
#: if measured there; only ratios between runs matter.
PROBE_REF_S = 2.0e-3
#: Sidecar period: a 2 ms probe every 50 ms keeps 4% of one vCPU busy.
SIDECAR_EVERY_S = 0.05


def probe() -> float:
    """Run the fixed probe loop once; its host time in seconds."""
    start = perf_counter()
    table = {}
    acc = 0.0
    for i in range(PROBE_ITERATIONS):
        key = i & 511
        table[key] = table.get(key, 0) + i
        acc += i * 0.5
    return perf_counter() - start


def speed_factor(probes: Sequence[float]) -> float:
    """Factor rescaling host times of a pass to the reference host.

    The mean probe time stands for the host's speed over the pass, as the
    pass's host time is a sum over its units.  A slow host makes both
    slower, so the factor (< 1) shrinks the pass's times back.
    """
    if not probes:
        raise ValueError("speed factor of no probes")
    return PROBE_REF_S / (sum(probes) / len(probes))


class UnitClock:
    """Times consecutive units of work, probing the host after each.

    :meth:`mark` ends the current unit; its host time goes to
    :attr:`unit_s`, the probe's to :attr:`probe_s`, and the next unit
    starts after the probe, so no unit includes probe time;
    :attr:`paused_s` sums the host time between units.  With
    ``probing=False`` (traced runs) units are timed back to back.
    """

    def __init__(self, probing: bool = True) -> None:
        self.probing = probing
        self.unit_s: List[float] = []
        self.probe_s: List[float] = []
        self.paused_s = 0.0
        self._start = perf_counter()

    def restart(self) -> None:
        """Start the next unit now (after untimed work between units)."""
        self._start = perf_counter()

    def mark(self) -> None:
        end = perf_counter()
        self.unit_s.append(end - self._start)
        self._start = end
        if self.probing:
            self.probe_s.append(probe())
            self._start = perf_counter()
            self.paused_s += self._start - end


class Sidecar:
    """A process probing the host every :data:`SIDECAR_EVERY_S` until
    :meth:`stop`; :meth:`kill` ends it on every other path out."""

    def __init__(self, env: Optional[dict] = None,
                 cwd: Optional[str] = None) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.hostspeed"], env=env, cwd=cwd,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def stop(self) -> List[float]:
        """Close its input and collect its probe times."""
        out, _ = self.proc.communicate(timeout=10.0)
        return json.loads(out)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()


def sidecar_main() -> int:
    samples = [probe()]
    while not select.select([sys.stdin], [], [], SIDECAR_EVERY_S)[0]:
        samples.append(probe())
    print(json.dumps(samples))
    return 0


if __name__ == "__main__":
    sys.exit(sidecar_main())
