"""Single-point flow request API and batch failure-isolation tests."""

import pytest

from repro.core.flow import (FlowBatchError, clear_cache, run_design,
                             run_designs, run_flow_task)
from repro.core.request import EvalRequest

SCALE = 0.01
SEED = 7


@pytest.fixture(autouse=True)
def isolated_caches(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_FLOW_CACHE", str(tmp_path / "fcache"))
    clear_cache()
    yield
    clear_cache()


def cheap_task(**kw):
    defaults = dict(kind="flow", design="silicon_3d", scale=SCALE,
                    seed=SEED, with_eyes=False, with_thermal=False)
    defaults.update(kw)
    return EvalRequest(**defaults)


class TestRunFlowTask:
    def test_success(self):
        out = run_flow_task(cheap_task())
        assert out.ok
        assert out.result.logic.kind == "logic"
        assert out.error_type is None
        assert out.wall_s > 0
        assert not out.cached

    def test_second_call_hits_cache(self):
        run_flow_task(cheap_task())
        again = run_flow_task(cheap_task())
        assert again.ok and again.cached

    def test_disk_cache_hit_after_memory_clear(self):
        run_flow_task(cheap_task())
        clear_cache()
        again = run_flow_task(cheap_task())
        assert again.ok and again.cached

    def test_unknown_design_captured(self):
        out = run_flow_task(cheap_task(design="fr4"))
        assert not out.ok
        assert out.result is None
        assert out.error_type == "KeyError"
        assert "fr4" in out.error_message
        assert "Traceback" in out.error_traceback

    def test_invalid_override_captured(self):
        out = run_flow_task(cheap_task(
            spec_overrides=(("microbump_pitch_um", -1.0),)))
        assert not out.ok
        assert out.error_type == "ValueError"

    def test_overrides_canonicalized(self):
        a = EvalRequest(design="glass_3d",
                        spec_overrides=(("b", 1.0), ("a", 2.0)))
        b = EvalRequest(design="glass_3d",
                        spec_overrides=(("a", 2.0), ("b", 1.0)))
        assert a == b
        assert hash(a) == hash(b)
        assert a.cache_token() == b.cache_token()


class TestFrequencyKeysCaches:
    """target_frequency_mhz changes results, so it must key every
    cache layer — a frequency sweep must never be served stale hits."""

    def test_cache_key_includes_frequency(self):
        assert cheap_task() != cheap_task(target_frequency_mhz=900.0)
        assert cheap_task().cache_token() \
            != cheap_task(target_frequency_mhz=900.0).cache_token()

    def test_frequency_misses_memory_cache(self):
        base = run_flow_task(cheap_task())
        fast = run_flow_task(cheap_task(target_frequency_mhz=900.0))
        assert fast.ok and not fast.cached
        assert fast.result.fullchip.total_power_mw \
            != base.result.fullchip.total_power_mw

    def test_frequency_misses_disk_cache(self):
        run_flow_task(cheap_task())
        clear_cache()
        fast = run_flow_task(cheap_task(target_frequency_mhz=900.0))
        assert fast.ok and not fast.cached
        # The same frequency *is* served from disk.
        clear_cache()
        again = run_flow_task(cheap_task(target_frequency_mhz=900.0))
        assert again.ok and again.cached

    def test_run_designs_frequency_not_stale(self):
        slow = run_designs(["silicon_3d"], scale=SCALE, seed=SEED,
                           with_eyes=False, with_thermal=False)
        fast = run_designs(["silicon_3d"], scale=SCALE, seed=SEED,
                           target_frequency_mhz=900.0,
                           with_eyes=False, with_thermal=False)
        assert fast["silicon_3d"].fullchip.total_power_mw \
            != slow["silicon_3d"].fullchip.total_power_mw


class TestSpecOverrides:
    def test_override_changes_spec_and_result(self):
        base = run_design("silicon_3d", scale=SCALE, seed=SEED,
                          with_eyes=False, with_thermal=False)
        wide = run_design("silicon_3d", scale=SCALE, seed=SEED,
                          with_eyes=False, with_thermal=False,
                          spec_overrides={"microbump_pitch_um": 60.0})
        assert base.spec.microbump_pitch_um == 40.0
        assert wide.spec.microbump_pitch_um == 60.0
        assert wide is not base
        assert wide.placement.area_mm2 != base.placement.area_mm2

    def test_overrides_cached_under_own_key(self):
        a = run_design("silicon_3d", scale=SCALE, seed=SEED,
                       with_eyes=False, with_thermal=False,
                       spec_overrides={"microbump_pitch_um": 60.0})
        b = run_design("silicon_3d", scale=SCALE, seed=SEED,
                       with_eyes=False, with_thermal=False,
                       spec_overrides={"microbump_pitch_um": 60.0})
        assert a is b

    def test_protected_field_rejected(self):
        with pytest.raises(ValueError, match="cannot be overridden"):
            run_design("silicon_3d", scale=SCALE,
                       spec_overrides={"name": "evil"})

    def test_unknown_field_rejected(self):
        with pytest.raises(AttributeError):
            run_design("silicon_3d", scale=SCALE,
                       spec_overrides={"warp_factor": 9.0})


class TestBatchFailureIsolation:
    def test_one_bad_design_does_not_abort_batch(self):
        with pytest.raises(FlowBatchError) as excinfo:
            run_designs(["silicon_3d", "fr4", "glass_3d"], scale=SCALE,
                        seed=SEED, with_eyes=False, with_thermal=False)
        err = excinfo.value
        # The good designs finished and are carried on the error.
        assert set(err.results) == {"silicon_3d", "glass_3d"}
        assert set(err.failures) == {"fr4"}
        assert err.failures["fr4"].error_type == "KeyError"
        assert "fr4" in str(err)

    def test_completed_results_cached_despite_failure(self):
        with pytest.raises(FlowBatchError):
            run_designs(["silicon_3d", "fr4"], scale=SCALE, seed=SEED,
                        with_eyes=False, with_thermal=False)
        # Retrying without the bad name is served from cache.
        good = run_designs(["silicon_3d"], scale=SCALE, seed=SEED,
                           with_eyes=False, with_thermal=False)
        assert good["silicon_3d"].fullchip.total_power_mw > 0

    def test_parallel_batch_failure_isolation(self):
        with pytest.raises(FlowBatchError) as excinfo:
            run_designs(["silicon_3d", "fr4", "glass_3d"], scale=SCALE,
                        seed=SEED, with_eyes=False, with_thermal=False,
                        jobs=2)
        assert set(excinfo.value.results) == {"silicon_3d", "glass_3d"}
