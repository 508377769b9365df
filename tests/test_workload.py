"""Unit tests for :mod:`repro.workload`."""

import random
from collections import Counter

import pytest

from repro.config import SystemConfig
from repro.errors import WorkloadError
from repro.workload.distributions import (
    ExponentialSizeChooser,
    LatestChooser,
    ScrambledZipfianChooser,
    UniformChooser,
    ZipfianChooser,
)
from repro.workload.ycsb import (
    OpKind,
    RangeHotWorkload,
    YCSBWorkload,
    ycsb_core_workload,
)


class TestUniform:
    def test_bounds(self):
        chooser = UniformChooser(10, 20)
        rng = random.Random(1)
        keys = [chooser.next_key(rng) for _ in range(1000)]
        assert all(10 <= k < 20 for k in keys)
        assert len(set(keys)) == 10  # Every key appears.

    def test_empty_range_rejected(self):
        with pytest.raises(WorkloadError):
            UniformChooser(5, 5)


class TestZipfian:
    def test_bounds(self):
        chooser = ZipfianChooser(100)
        rng = random.Random(2)
        keys = [chooser.next_key(rng) for _ in range(5000)]
        assert all(0 <= k < 100 for k in keys)

    def test_rank_zero_most_popular(self):
        chooser = ZipfianChooser(1000)
        rng = random.Random(3)
        counts = Counter(chooser.next_key(rng) for _ in range(20000))
        assert counts[0] == max(counts.values())

    def test_skew_concentration(self):
        chooser = ZipfianChooser(10_000)
        rng = random.Random(4)
        counts = Counter(chooser.next_key(rng) for _ in range(20000))
        top_decile = sum(v for k, v in counts.items() if k < 1000)
        assert top_decile / 20000 > 0.6  # Zipf: heavy head.

    def test_invalid_parameters(self):
        with pytest.raises(WorkloadError):
            ZipfianChooser(0)
        with pytest.raises(WorkloadError):
            ZipfianChooser(10, theta=1.0)


class TestScrambledZipfian:
    def test_hot_keys_scattered(self):
        chooser = ScrambledZipfianChooser(10_000)
        rng = random.Random(5)
        counts = Counter(chooser.next_key(rng) for _ in range(20000))
        hot_keys = [k for k, _ in counts.most_common(10)]
        # Scrambling: the hottest keys are not clustered at the low end.
        assert max(hot_keys) > 1000


class TestLatest:
    def test_prefers_recent(self):
        chooser = LatestChooser(initial_max_key=1000)
        rng = random.Random(8)
        keys = [chooser.next_key(rng) for _ in range(5000)]
        recent = sum(1 for k in keys if k >= 900)
        assert recent / len(keys) > 0.5

    def test_advance(self):
        chooser = LatestChooser(initial_max_key=10)
        chooser.advance(100)
        assert chooser.max_key == 100
        chooser.advance(50)  # Never shrinks.
        assert chooser.max_key == 100


class TestScanLengths:
    def test_capped(self):
        chooser = ExponentialSizeChooser(mean=50, cap=100)
        rng = random.Random(9)
        lengths = [chooser.next_length(rng) for _ in range(1000)]
        assert all(1 <= n <= 100 for n in lengths)

    def test_invalid(self):
        with pytest.raises(WorkloadError):
            ExponentialSizeChooser(0, 10)


class TestRangeHot:
    @pytest.fixture
    def workload(self):
        return RangeHotWorkload(SystemConfig.tiny())

    def test_hot_read_fraction(self, workload):
        rng = random.Random(10)
        reads = [workload.next_read_key(rng) for _ in range(20000)]
        in_hot = sum(1 for k in reads if workload.in_hot_range(k))
        # 90% hot + a share of the uniform 10% that lands in the range.
        expected = 0.9 + 0.1 * workload.config.hot_range_fraction
        assert in_hot / len(reads) == pytest.approx(expected, abs=0.02)

    def test_writes_uniform_over_keyspace(self, workload):
        rng = random.Random(11)
        writes = [workload.next_write_key(rng) for _ in range(20000)]
        in_hot = sum(1 for k in writes if workload.in_hot_range(k))
        assert in_hot / len(writes) == pytest.approx(
            workload.config.hot_range_fraction, abs=0.02
        )

    def test_scan_range_length(self, workload):
        rng = random.Random(12)
        low, high = workload.next_scan_range(rng)
        assert high - low + 1 == workload.config.scan_length_pairs

    def test_scan_never_exceeds_keyspace(self, workload):
        rng = random.Random(13)
        for _ in range(2000):
            low, high = workload.next_scan_range(rng)
            assert 0 <= low <= high < workload.num_keys

    def test_hot_range_inside_keyspace(self):
        config = SystemConfig.tiny()
        workload = RangeHotWorkload(config)
        assert workload.hot_start + workload.hot_size <= config.unique_keys


class TestYCSB:
    def test_proportions_must_sum_to_one(self):
        with pytest.raises(WorkloadError):
            YCSBWorkload(100, read_proportion=0.5)

    def test_mix_respected(self):
        workload = YCSBWorkload(
            1000, read_proportion=0.5, update_proportion=0.5
        )
        rng = random.Random(14)
        kinds = Counter(
            workload.next_operation(rng).kind for _ in range(10000)
        )
        assert kinds[OpKind.READ] / 10000 == pytest.approx(0.5, abs=0.03)
        assert kinds[OpKind.UPDATE] / 10000 == pytest.approx(0.5, abs=0.03)

    def test_inserts_extend_keyspace(self):
        workload = YCSBWorkload(
            100, read_proportion=0.0, insert_proportion=1.0
        )
        rng = random.Random(15)
        keys = [workload.next_operation(rng).key for _ in range(10)]
        assert keys == list(range(100, 110))

    def test_scans_have_lengths(self):
        workload = YCSBWorkload(1000, scan_proportion=1.0)
        rng = random.Random(16)
        op = workload.next_operation(rng)
        assert op.kind == OpKind.SCAN
        assert op.scan_length >= 1

    @pytest.mark.parametrize("name", list("ABCDEF"))
    def test_core_presets_construct(self, name):
        workload = ycsb_core_workload(name, 1000)
        rng = random.Random(17)
        for _ in range(100):
            op = workload.next_operation(rng)
            assert op.key >= 0

    def test_unknown_preset(self):
        with pytest.raises(WorkloadError):
            ycsb_core_workload("Z", 100)

    def test_unknown_distribution(self):
        with pytest.raises(WorkloadError):
            YCSBWorkload(100, read_proportion=1.0, request_distribution="bogus")
