"""Pass planning of the offline workloads (no simulation)."""

from perfbench import offline


def test_stream_passes_cover_every_pass_seed():
    seeds = offline.stream_pass_seeds(2)
    assert offline.pass_inputs("stream-azure", 2, 20.0) == seeds
    # A short run still replays every pass seed; a long one cycles, so
    # repeated inputs check determinism.
    assert offline.pass_inputs("stream-azure", 2, 1.0) == seeds
    assert offline.pass_inputs("stream-azure", 2, 40.0) == seeds * 2


def test_inputs_of_different_seeds_are_disjoint():
    seen = set()
    for seed in range(10):
        traces = set(offline.stream_pass_seeds(seed))
        assert not traces & seen
        seen |= traces
        assert not set(offline.grid_seeds(seed)) & set(
            offline.grid_seeds(seed + 1))


def test_grid_replays_its_seed_every_pass():
    assert offline.pass_inputs("grid-fstartbench", 4, 20.0) == [4] * 5
    assert offline.pass_inputs("grid-fstartbench", 4, 1.0) == [4, 4]
