"""Unit tests for the declarative :class:`ExperimentSpec`."""

import json
import pickle

import pytest

from repro.cluster import ClusterSpec
from repro.config import SystemConfig
from repro.errors import ConfigError
from repro.serve.spec import ServiceSpec
from repro.sim.experiment import execute, run_experiment
from repro.sim.spec import ExperimentSpec


class TestNormalization:
    def test_override_order_is_irrelevant(self):
        a = ExperimentSpec(
            "lsbm",
            overrides=(("trim_interval_s", 10), ("cache_size_kb", 64)),
        )
        b = ExperimentSpec(
            "lsbm",
            overrides=(("cache_size_kb", 64), ("trim_interval_s", 10)),
        )
        assert a == b
        assert hash(a) == hash(b)
        assert a.overrides == (("cache_size_kb", 64), ("trim_interval_s", 10))

    def test_specs_key_caches(self):
        cache = {ExperimentSpec("lsbm", seed=0): "hit"}
        assert cache[ExperimentSpec("lsbm", seed=0)] == "hit"
        assert ExperimentSpec("lsbm", seed=1) not in cache

    def test_unknown_override_field_rejected(self):
        with pytest.raises(ConfigError, match="bogus_field"):
            ExperimentSpec("lsbm", overrides=(("bogus_field", 1),))

    def test_unknown_base_rejected(self):
        with pytest.raises(ConfigError, match="config base"):
            ExperimentSpec("lsbm", base="nope")

    @pytest.mark.parametrize(
        "spec_class", [ExperimentSpec, ServiceSpec, ClusterSpec]
    )
    def test_duration_below_one_second_rejected(self, spec_class):
        # The serve and cluster specs delegate to the experiment spec.
        for duration in (0, -5):
            with pytest.raises(ConfigError, match="duration_s must be >= 1"):
                spec_class(engine="lsbm", duration_s=duration)
        for duration in (None, 1):
            assert spec_class(engine="lsbm", duration_s=duration)


class TestConfigMaterialization:
    def test_paper_scaled_with_overrides(self):
        spec = ExperimentSpec(
            "lsbm", scale=4096, overrides=(("trim_interval_s", 30),)
        )
        expected = SystemConfig.paper_scaled(4096).replace(trim_interval_s=30)
        assert spec.config() == expected

    def test_ssd_base(self):
        spec = ExperimentSpec("blsm", base="ssd_scaled", scale=4096)
        assert spec.config() == SystemConfig.ssd_scaled(4096)

    def test_from_config_is_exact(self):
        config = SystemConfig.tiny().replace(cache_size_kb=96)
        spec = ExperimentSpec.from_config("lsbm", config, seed=3)
        assert spec.base == "explicit"
        assert spec.seed == 3
        assert spec.config() == config


class TestLabels:
    def test_cell_key_excludes_seed(self):
        a = ExperimentSpec("lsbm", scale=8192, duration_s=300, seed=0)
        b = a.with_seed(5)
        assert a.cell_key() == b.cell_key()
        assert a.label() == "lsbm/x8192/t300/s0"
        assert b.label() == "lsbm/x8192/t300/s5"

    def test_cell_key_shows_overrides_and_scan(self):
        spec = ExperimentSpec(
            "blsm",
            scale=8192,
            overrides=(("trim_threshold", 0.5),),
            scan_mode=True,
        )
        assert spec.cell_key() == "blsm/x8192/trim_threshold=0.5/scan"

    def test_distinct_explicit_configs_get_distinct_keys(self):
        a = ExperimentSpec.from_config("lsbm", SystemConfig.tiny())
        b = ExperimentSpec.from_config(
            "lsbm", SystemConfig.tiny().replace(cache_size_kb=128)
        )
        assert a.cell_key() != b.cell_key()


class TestSerialization:
    def test_json_round_trip(self):
        spec = ExperimentSpec(
            "lsbm",
            scale=8192,
            overrides=(("trim_interval_s", 10),),
            duration_s=200,
            seed=7,
            scan_mode=True,
        )
        payload = json.loads(json.dumps(spec.to_dict()))
        assert ExperimentSpec.from_dict(payload) == spec

    def test_pickle_round_trip(self):
        spec = ExperimentSpec("blsm", duration_s=100)
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestExecute:
    def test_execute_matches_run_experiment_wrapper(self):
        config = SystemConfig.paper_scaled(8192)
        via_wrapper = run_experiment("blsm", config, duration_s=150, seed=2)
        via_spec = execute(
            ExperimentSpec.from_config("blsm", config, duration_s=150, seed=2)
        )
        assert via_spec == via_wrapper
