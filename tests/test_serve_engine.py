"""Headless ServeEngine tests: stamping, warm reuse, hot-swap, recording
and deterministic replay (no sockets involved)."""

import json

import pytest

from repro.cluster.eventloop import VirtualClock
from repro.cluster.simulator import SimulationConfig
from repro.serve import (
    DecisionRecorder,
    ServeClosed,
    ServeEngine,
    read_recording,
    replay_recording,
)


def _config(**overrides):
    defaults = dict(pool_capacity_mb=8192.0, n_workers=2)
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def _engine(**kwargs):
    clock = VirtualClock()
    engine = ServeEngine(_config(), wall=clock, **kwargs)
    return engine, clock


class TestSubmit:
    def test_outcome_carries_decision(self):
        engine, clock = _engine()
        clock.advance_to(1.0)
        outcome = engine.submit("hello-python")
        assert outcome.record.cold_start
        assert outcome.record.arrival_time == 1.0
        assert outcome.scheduler == "lru"
        assert outcome.exec_time_s > 0
        payload = outcome.to_json()
        assert payload["function"] == "hello-python"
        assert payload["cold_start"] is True
        assert json.dumps(payload)  # JSON-serializable throughout

    def test_warm_reuse_after_completion(self):
        engine, clock = _engine()
        clock.advance_to(1.0)
        first = engine.submit("hello-python", exec_time_s=0.1)
        done = 1.0 + first.service_time_s
        clock.advance_to(done + 1.0)
        engine.pump()  # container finishes and pools
        assert engine.pooled_containers == 1
        second = engine.submit("hello-python", exec_time_s=0.1)
        assert not second.record.cold_start
        assert second.record.container_id == first.record.container_id

    def test_function_by_id_and_unknown(self):
        engine, clock = _engine()
        assert engine.submit(4).record.function_name == "hello-python"
        with pytest.raises(KeyError):
            engine.submit("no-such-function")

    def test_stamps_are_monotone(self):
        engine, _ = _engine()
        a = engine.submit("hello-python", now=5.0)
        # A wall reading that went backwards is clamped, not rejected.
        b = engine.submit("hello-python", now=3.0)
        assert a.record.arrival_time == 5.0
        assert b.record.arrival_time == 5.0

    def test_inflight_tracks_outstanding_requests(self):
        engine, clock = _engine()
        assert engine.sim_inflight == 0
        clock.advance_to(1.0)
        engine.submit("hello-python", exec_time_s=0.2)
        engine.submit("hello-node", exec_time_s=0.2)
        assert engine.sim_inflight == 2
        clock.advance_to(60.0)
        engine.pump()
        assert engine.sim_inflight == 0


class TestSwapAndDrain:
    def test_swap_scheduler(self):
        engine, _ = _engine()
        previous = engine.swap_scheduler("greedy")
        assert previous == "lru"
        assert engine.scheduler_key == "greedy"
        assert engine.swaps == 1
        with pytest.raises(KeyError):
            engine.swap_scheduler("nope")

    def test_drain_closes_engine(self):
        engine, clock = _engine()
        clock.advance_to(1.0)
        engine.submit("hello-python")
        result = engine.drain()
        assert result.summary()["invocations"] == 1.0
        assert engine.closed
        assert engine.pump() == 0
        with pytest.raises(ServeClosed):
            engine.submit("hello-python")
        with pytest.raises(ServeClosed):
            engine.drain()

    def test_health_without_verification(self):
        engine, _ = _engine()
        report = engine.health()
        assert report["healthy"] is True
        assert report["verified"] is False

    def test_health_with_verification(self):
        clock = VirtualClock()
        engine = ServeEngine(_config(verify=True), wall=clock)
        clock.advance_to(1.0)
        engine.submit("hello-python")
        report = engine.health()
        assert report["healthy"] is True
        assert report["verified"] is True
        assert report["violation"] is None
        assert report["checks_run"] > 0
        # Corrupt the lifecycle's books: the monitors must catch it.
        engine.sim.lifecycle.created_count += 1
        assert engine.health()["healthy"] is False
        assert "conservation" in engine.health()["violation"]


class TestRecordingReplay:
    def _record_session(self):
        recorder = DecisionRecorder()
        clock = VirtualClock()
        engine = ServeEngine(
            _config(worker_concurrency=2), scheduler="keepalive",
            wall=clock, keepalive_ttl_s=5.0, recorder=recorder,
        )
        t = 0.0
        for i in range(12):
            t += 0.4 if i % 5 else 7.0
            clock.advance_to(t)
            if i % 3 == 0:
                engine.pump()
            engine.submit(("hello-python", "hello-java")[i % 2])
            if i == 6:
                engine.swap_scheduler("greedy")
        engine.drain()
        return recorder

    def test_replay_is_byte_identical(self):
        recorder = self._record_session()
        report = replay_recording(recorder.lines(), verify=True)
        assert report.ok, str(report.divergence)
        assert report.n_decisions == 12
        assert report.n_swaps == 1

    def test_replay_detects_tampering(self):
        recorder = self._record_session()
        lines = recorder.lines()
        # Flip the recorded worker of the last decision.
        entry = json.loads(lines[-1])
        entry["w"] = (entry["w"] + 1) % 2
        lines[-1] = json.dumps(entry)
        report = replay_recording(lines)
        assert not report.ok
        assert report.divergence.field == "w"

    def test_recording_round_trips_through_a_file(self, tmp_path):
        recorder = self._record_session()
        path = tmp_path / "session.jsonl"
        path.write_text("\n".join(recorder.lines()) + "\n")
        report = replay_recording(path)
        assert report.ok and report.n_decisions == 12
        assert not report.truncated

    def test_torn_final_line_replays_complete_prefix(self, tmp_path):
        """A session that crashed mid-write: the last line is cut off
        mid-JSON.  The complete prefix replays and the tear is reported."""
        lines = self._record_session().lines()
        torn = lines[-1][: len(lines[-1]) // 2]
        path = tmp_path / "torn.jsonl"
        path.write_text("\n".join(lines[:-1] + [torn]))
        with pytest.warns(RuntimeWarning, match="torn"):
            header, entries = read_recording(path)
        assert header["kind"] == "serve"
        assert entries == [json.loads(line) for line in lines[1:-1]]
        report = replay_recording(path, verify=True)
        assert report.ok, str(report.divergence)
        assert report.truncated
        assert report.n_decisions == 11 and report.n_swaps == 1

    def test_malformed_interior_line_still_raises(self):
        lines = self._record_session().lines()
        lines[3] = lines[3][:-2]
        with pytest.raises(ValueError, match="line 4"):
            read_recording(lines)
        with pytest.raises(ValueError, match="line 4"):
            replay_recording(lines)

    def test_fault_configs_are_rejected(self):
        from repro.cluster.faults import FaultConfig

        with pytest.raises(ValueError, match="fault"):
            ServeEngine(
                _config(faults=FaultConfig(crash_prob=0.5)),
                recorder=DecisionRecorder(),
            )


class TestCli:
    def test_serve_replay_command(self, tmp_path, capsys):
        from repro.cli import main

        recorder = DecisionRecorder(tmp_path / "session.jsonl")
        clock = VirtualClock()
        engine = ServeEngine(_config(), wall=clock, recorder=recorder)
        for t in (0.5, 1.0, 9.0):
            clock.advance_to(t)
            engine.submit("hello-python")
        engine.drain()

        assert main(["serve-replay", str(tmp_path / "session.jsonl")]) == 0
        assert "3 decisions" in capsys.readouterr().out

        # Tampered recording: nonzero exit and a divergence report.
        lines = (tmp_path / "session.jsonl").read_text().splitlines()
        entry = json.loads(lines[1])
        entry["cold"] = False
        entry["cid"] = 999
        lines[1] = json.dumps(entry)
        bad = tmp_path / "tampered.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["serve-replay", str(bad)]) == 1
        assert "recorded" in capsys.readouterr().out
