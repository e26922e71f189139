"""Host-speed probes and the unit clock (fake clock, no real timing)."""

import pytest

from perfbench import hostspeed
from perfbench.hostspeed import PROBE_REF_S, UnitClock, speed_factor


def test_speed_factor_rescales_to_the_reference_host():
    assert speed_factor([PROBE_REF_S] * 3) == pytest.approx(1.0)
    # A host twice as slow: its times shrink by half.
    assert speed_factor([2 * PROBE_REF_S, 2 * PROBE_REF_S]) == pytest.approx(
        0.5)
    # The mean probe, not the median, stands for the pass.
    assert speed_factor([PROBE_REF_S, 3 * PROBE_REF_S]) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        speed_factor([])


def test_same_work_on_a_slower_host_scales_to_the_same_rate():
    work_s, probe_s = 4.0, PROBE_REF_S * 1.1
    rates = []
    for slowdown in (1.0, 1.4):
        replay_s = work_s * slowdown
        factor = speed_factor([probe_s * slowdown] * 10)
        rates.append(1000 / replay_s / factor)
    assert rates[0] == pytest.approx(rates[1])


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _fake(monkeypatch, probe_cost=0.5):
    clock = FakeClock()

    def probe():
        clock.now += probe_cost
        return probe_cost

    monkeypatch.setattr(hostspeed, "perf_counter", clock)
    monkeypatch.setattr(hostspeed, "probe", probe)
    return clock


def test_units_exclude_probe_time(monkeypatch):
    clock = _fake(monkeypatch)
    units = UnitClock()
    for work in (1.0, 2.0, 3.0):
        clock.now += work
        units.mark()
    assert units.unit_s == [1.0, 2.0, 3.0]
    assert units.probe_s == [0.5, 0.5, 0.5]
    assert units.paused_s == pytest.approx(1.5)
    # Host time of the whole replay minus the pauses is the work.
    assert clock.now - units.paused_s == pytest.approx(6.0)


def test_restart_drops_untimed_work(monkeypatch):
    clock = _fake(monkeypatch)
    units = UnitClock()
    clock.now += 7.0
    units.restart()
    clock.now += 1.0
    units.mark()
    assert units.unit_s == [1.0]


def test_without_probing_units_are_back_to_back(monkeypatch):
    clock = _fake(monkeypatch)
    units = UnitClock(probing=False)
    for work in (1.0, 2.0):
        clock.now += work
        units.mark()
    assert units.unit_s == [1.0, 2.0]
    assert units.probe_s == [] and units.paused_s == 0.0


def test_sidecar_probes_until_stopped_and_is_reaped():
    from perfbench.stats import program_env
    from perfbench.tests.conftest import ROOT

    sidecar = hostspeed.Sidecar(program_env(ROOT), ROOT)
    probes = sidecar.stop()
    sidecar.kill()
    assert probes and all(p > 0 for p in probes)
    assert sidecar.proc.returncode == 0

    running = hostspeed.Sidecar(program_env(ROOT), ROOT)
    running.kill()
    assert running.proc.returncode is not None
