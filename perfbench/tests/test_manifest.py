"""Every emitted metric name is well formed and declared in BENCHMARK.json."""

import json
import os
import re

from perfbench.run import E2E_UNITS, layer_unit
from perfbench.tracing import Tracer, layer_metrics

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: Per-layer names added by run.py on top of the tracer's layer metrics.
RUN_LAYER_EXTRAS = ("trace.root_s", "trace.unaccounted_share",
                    "trace.host_gap_share", "trace.overhead_share", "loadgen.lateness_p50_ms",
                    "loadgen.lateness_tail_ms")


def _manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_end_to_end_names_match_manifest():
    declared = {m["name"]: m for m in _manifest()["end_to_end"]}
    assert set(declared) == set(E2E_UNITS)
    for name, unit in E2E_UNITS.items():
        assert NAME.fullmatch(name)
        assert declared[name]["unit"] == unit
        assert declared[name]["bound"] <= 0.25
    assert declared["setup_s"]["bound"] == max(
        m["bound"] for m in declared.values())


def test_per_layer_names_match_manifest():
    declared = {m["name"]: m for m in _manifest()["per_layer"]}
    emitted = list(layer_metrics(Tracer().snapshot())) + list(
        RUN_LAYER_EXTRAS)
    assert set(emitted) == set(declared)
    for name in emitted:
        assert NAME.fullmatch(name)
        assert declared[name]["unit"] == layer_unit(name)


def test_workloads_match_manifest():
    from perfbench.run import WORKLOADS

    assert [w["name"] for w in _manifest()["workloads"]] == list(WORKLOADS)
