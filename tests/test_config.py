"""Unit tests for :mod:`repro.config`."""

import pytest

from repro.config import DEFAULT_SCALE, SystemConfig
from repro.errors import ConfigError


class TestPaperConfig:
    def test_paper_sizes_match_section_vi_a(self):
        cfg = SystemConfig.paper()
        assert cfg.level0_size_kb == 100 * 1024
        assert cfg.size_ratio == 10
        assert cfg.file_size_kb == 2 * 1024
        assert cfg.block_size_kb == 4
        assert cfg.pair_size_kb == 1
        assert cfg.bloom_bits_per_key == 15
        assert cfg.cache_size_kb == 6 * 1024 * 1024
        assert cfg.trim_interval_s == 30
        assert cfg.trim_threshold == 0.8

    def test_paper_level_capacities(self):
        cfg = SystemConfig.paper()
        # The paper quotes "1GB, 10GB, 100GB"; with S0 = 100 MB and r = 10
        # the exact values are 1000/10,000/100,000 MB.
        assert cfg.level_capacity_kb(1) == 1000 * 1024
        assert cfg.level_capacity_kb(2) == 10_000 * 1024
        assert cfg.level_capacity_kb(3) == 100_000 * 1024

    def test_paper_workload_parameters(self):
        cfg = SystemConfig.paper()
        assert cfg.unique_keys == 20 * 1024 * 1024  # 20 GB of 1 KB pairs
        assert cfg.hot_range_pairs == 3 * 1024 * 1024  # 3 GB hot range
        assert cfg.hot_read_fraction == 0.98
        assert cfg.write_rate_pairs_per_s == 1000.0
        assert cfg.read_threads == 8
        assert cfg.duration_s == 20_000


class TestScaledConfig:
    def test_ratios_preserved(self):
        paper = SystemConfig.paper()
        scaled = SystemConfig.paper_scaled(DEFAULT_SCALE)
        assert scaled.size_ratio == paper.size_ratio
        assert scaled.num_disk_levels == paper.num_disk_levels
        assert scaled.hot_range_fraction == paper.hot_range_fraction
        assert (
            scaled.cache_size_kb / scaled.dataset_kb
            == paper.cache_size_kb / paper.dataset_kb
        )
        assert (
            scaled.level0_size_kb / scaled.dataset_kb
            == paper.level0_size_kb / paper.dataset_kb
        )

    def test_level_fill_periods_preserved(self):
        """Level 1 must fill every ~1,000 virtual seconds at any scale."""
        for scale in (64, 256, 1024):
            cfg = SystemConfig.paper_scaled(scale)
            period = cfg.level_capacity_kb(1) / cfg.write_rate_pairs_per_s
            assert period == pytest.approx(1024.0, rel=0.05)

    def test_ops_scale_matches(self):
        assert SystemConfig.paper_scaled(256).ops_scale == 256.0

    def test_scale_one_is_paper(self):
        assert SystemConfig.paper_scaled(1) == SystemConfig.paper()

    def test_invalid_scale_rejected(self):
        with pytest.raises(ConfigError):
            SystemConfig.paper_scaled(0)


class TestDerivedQuantities:
    def test_pairs_per_block(self, tiny_config):
        assert tiny_config.pairs_per_block == 4

    def test_blocks_per_file(self, tiny_config):
        assert tiny_config.blocks_per_file == 2

    def test_superfile_size(self, tiny_config):
        assert (
            tiny_config.superfile_size_kb
            == tiny_config.file_size_kb * tiny_config.superfile_files
        )

    def test_cache_blocks(self, tiny_config):
        assert tiny_config.cache_blocks == 64

    def test_scan_length_pairs_minimum_one(self):
        cfg = SystemConfig.tiny().replace(scan_length_kb=1)
        assert cfg.scan_length_pairs == 1

    def test_level_capacity_out_of_range(self, tiny_config):
        with pytest.raises(ConfigError):
            tiny_config.level_capacity_kb(-1)
        with pytest.raises(ConfigError):
            tiny_config.level_capacity_kb(tiny_config.num_disk_levels + 1)


class TestValidation:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("pair_size_kb", 0),
            ("block_size_kb", 3),  # not a multiple of pair size? (3 is, but file 8 % 3 != 0)
            ("file_size_kb", 6),  # not a multiple of block size 4
            ("block_size_kb", 0),  # smaller than a pair
            ("block_size_kb", -4),
            ("file_size_kb", 0),  # smaller than a block
            ("file_size_kb", -8),
            ("superfile_files", 0),
            ("size_ratio", 1),
            ("num_disk_levels", 0),
            ("bloom_bits_per_key", 0),
            ("cache_size_kb", 1),
            ("unique_keys", 0),
            ("hot_range_fraction", 0.0),
            ("hot_range_fraction", 1.5),
            ("hot_read_fraction", -0.1),
            ("write_rate_pairs_per_s", -1.0),
            ("read_threads", -1),
            ("trim_interval_s", 0),
            ("trim_threshold", 0.0),
            ("freeze_duplicate_fraction", 1.5),
            ("seq_bandwidth_kb_per_s", 0.0),
            ("ops_scale", 0.5),
        ],
    )
    def test_bad_values_rejected(self, field, value):
        with pytest.raises(ConfigError):
            SystemConfig.tiny().replace(**{field: value})

    def test_level0_must_hold_a_file(self):
        with pytest.raises(ConfigError):
            SystemConfig.tiny().replace(level0_size_kb=4, file_size_kb=8)

    def test_replace_returns_new_validated_instance(self, tiny_config):
        other = tiny_config.replace(size_ratio=8)
        assert other.size_ratio == 8
        assert tiny_config.size_ratio == 4  # Original untouched.
