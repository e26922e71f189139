"""Tests for the startup cost model and its paper calibration bands."""

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.containers.costmodel import (
    CostModelParams,
    StartupCostModel,
    StartupPhase,
)
from repro.containers.matching import MatchLevel
from repro.workloads.functions import fstartbench_functions

from conftest import make_image


@pytest.fixture
def model():
    return StartupCostModel()


class TestParams:
    def test_defaults_valid(self):
        CostModelParams()

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            CostModelParams(bandwidth_mb_per_s=0.0)

    def test_negative_create_rejected(self):
        with pytest.raises(ValueError):
            CostModelParams(create_s=-1.0)

    def test_warm_factor_bounds(self):
        with pytest.raises(ValueError):
            CostModelParams(warm_function_factor=1.5)
        with pytest.raises(ValueError):
            CostModelParams(warm_runtime_factor=-0.1)


class TestBreakdown:
    def test_latency_strictly_decreases_with_match_depth(self, model):
        image = make_image("f", runtime_names=("flask", "numpy"))
        latencies = [
            model.latency_s(image, lvl, 0.5) for lvl in MatchLevel
        ]
        assert latencies == sorted(latencies, reverse=True)
        assert len(set(latencies)) == 4

    def test_cold_pays_create_not_clean(self, model):
        bd = model.breakdown(make_image("f"), MatchLevel.NO_MATCH, 0.1)
        assert bd.create_s > 0
        assert bd.clean_s == 0.0

    def test_warm_pays_clean_not_create(self, model):
        for lvl in (MatchLevel.L1, MatchLevel.L2, MatchLevel.L3):
            bd = model.breakdown(make_image("f"), lvl, 0.1)
            assert bd.create_s == 0.0
            assert bd.clean_s > 0

    def test_l3_pulls_nothing(self, model):
        bd = model.breakdown(make_image("f"), MatchLevel.L3, 0.5)
        assert bd.pull_s == 0.0
        assert bd.install_s == 0.0

    def test_l2_pulls_only_runtime(self, model):
        image = make_image("f", runtime_names=("tensorflow",))
        bd = model.breakdown(image, MatchLevel.L2, 0.0)
        expected = model.pull_time_s(image.runtime_packages)
        assert bd.pull_s == pytest.approx(expected)

    def test_l1_pulls_language_and_runtime(self, model):
        image = make_image("f")
        bd = model.breakdown(image, MatchLevel.L1, 0.0)
        expected = model.pull_time_s(
            image.language_packages | image.runtime_packages
        )
        assert bd.pull_s == pytest.approx(expected)

    def test_cold_pulls_everything(self, model):
        image = make_image("f")
        bd = model.breakdown(image, MatchLevel.NO_MATCH, 0.0)
        assert bd.pull_s == pytest.approx(
            model.pull_time_s(frozenset(image.packages))
        )

    def test_function_init_warm_discount_at_l3(self, model):
        init = 2.0
        cold = model.breakdown(make_image("f"), MatchLevel.NO_MATCH, init)
        warm = model.breakdown(make_image("f"), MatchLevel.L3, init)
        assert cold.function_init_s == pytest.approx(init)
        assert warm.function_init_s == pytest.approx(
            init * model.params.warm_function_factor
        )

    def test_negative_function_init_rejected(self, model):
        with pytest.raises(ValueError):
            model.breakdown(make_image("f"), MatchLevel.L3, -0.1)

    def test_total_is_sum_of_phases(self, model):
        bd = model.breakdown(make_image("f"), MatchLevel.L1, 0.3)
        assert bd.total_s == pytest.approx(sum(bd.as_dict().values()))

    def test_as_dict_covers_all_phases(self, model):
        bd = model.breakdown(make_image("f"), MatchLevel.NO_MATCH, 0.3)
        assert set(bd.as_dict()) == set(StartupPhase)

    def test_jvm_runtime_init_dominates_python(self, model):
        java = make_image("j", lang_name="java")
        python = make_image("p", lang_name="python")
        assert model.runtime_init_time_s(java) > 5 * model.runtime_init_time_s(
            python
        )


class TestBreakdownMemo:
    def test_repeated_calls_return_equal_breakdowns(self, model):
        for spec in fstartbench_functions():
            for lvl in MatchLevel:
                first = model.breakdown(spec.image, lvl, spec.function_init_s)
                again = model.breakdown(spec.image, lvl, spec.function_init_s)
                fresh = StartupCostModel().breakdown(
                    spec.image, lvl, spec.function_init_s
                )
                assert first == again == fresh

    def test_negative_function_init_raises_on_every_call(self, model):
        image = make_image("f")
        model.breakdown(image, MatchLevel.L3, 0.5)
        for _ in range(3):
            with pytest.raises(ValueError):
                model.breakdown(image, MatchLevel.L3, -0.5)

    def test_pickled_model_carries_no_memo(self, model):
        image = make_image("f")
        before = model.breakdown(image, MatchLevel.NO_MATCH, 0.2)
        assert model._memo
        clone = pickle.loads(pickle.dumps(model))
        assert clone._memo == {}
        assert clone.params == model.params
        assert clone.breakdown(image, MatchLevel.NO_MATCH, 0.2) == before

    def test_rebinding_params_changes_the_result(self, model):
        image = make_image("f")
        assert model.breakdown(image, MatchLevel.NO_MATCH, 0.2).create_s == 0.30
        model.params = CostModelParams(create_s=1.25)
        assert model.breakdown(image, MatchLevel.NO_MATCH, 0.2).create_s == 1.25


class TestPaperCalibration:
    """Section II bands measured on the FStartBench functions."""

    def test_pull_share_of_cold_start(self, model):
        """Code pulling (fetch+install) is 47-89 % of cold start."""
        for spec in fstartbench_functions():
            bd = model.breakdown(spec.image, MatchLevel.NO_MATCH,
                                 spec.function_init_s)
            share = (bd.pull_s + bd.install_s) / bd.total_s
            assert 0.40 <= share <= 0.92, (spec.name, share)

    def test_cold_to_exec_ratio_band(self, model):
        """Cold start is 1.3x-166x the mean execution time."""
        for spec in fstartbench_functions():
            cold = model.latency_s(spec.image, MatchLevel.NO_MATCH,
                                   spec.function_init_s)
            ratio = cold / spec.exec_time_mean_s
            assert 1.2 <= ratio <= 170, (spec.name, ratio)

    def test_full_warm_start_much_faster(self, model):
        """A full (L3) warm start is many times faster than cold."""
        speedups = []
        for spec in fstartbench_functions():
            cold = model.latency_s(spec.image, MatchLevel.NO_MATCH,
                                   spec.function_init_s)
            warm = model.latency_s(spec.image, MatchLevel.L3,
                                   spec.function_init_s)
            speedups.append(cold / warm)
        assert max(speedups) > 10  # paper: up to 14x for W-style reuse


@given(init=st.floats(min_value=0.0, max_value=10.0, allow_nan=False))
def test_monotone_savings_hold_for_any_function_init(init):
    model = StartupCostModel()
    image = make_image("f", runtime_names=("flask", "numpy"))
    latencies = [model.latency_s(image, lvl, init) for lvl in MatchLevel]
    assert all(a >= b for a, b in zip(latencies, latencies[1:]))
