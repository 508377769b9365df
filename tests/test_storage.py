"""Unit tests for :mod:`repro.storage` (extents, disk, cost model)."""

import ast
from pathlib import Path

import pytest

import repro
from repro.clock import VirtualClock
from repro.config import SystemConfig
from repro.errors import StorageError
from repro.lsm.base import ReadCost
from repro.storage.disk import SimulatedDisk
from repro.storage.extent import ExtentAllocator
from repro.storage.iomodel import ReadPricer, queueing_factor
from tests.scalar_reference import price_read


class TestExtentAllocator:
    def test_allocation_is_monotonic(self):
        alloc = ExtentAllocator()
        first = alloc.allocate(10)
        second = alloc.allocate(5)
        assert second.start >= first.end

    def test_freed_addresses_never_reused(self):
        """New data never lands where old data was — the property that
        makes compaction-induced invalidation observable."""
        alloc = ExtentAllocator()
        old = alloc.allocate(10)
        alloc.free(old)
        new = alloc.allocate(10)
        assert new.start >= old.end

    def test_live_kb_tracks_allocations_and_frees(self):
        alloc = ExtentAllocator()
        a = alloc.allocate(10)
        b = alloc.allocate(20)
        assert alloc.live_kb == 30
        alloc.free(a)
        assert alloc.live_kb == 20
        alloc.free(b)
        assert alloc.live_kb == 0

    def test_double_free_rejected(self):
        alloc = ExtentAllocator()
        extent = alloc.allocate(4)
        alloc.free(extent)
        with pytest.raises(StorageError):
            alloc.free(extent)

    def test_zero_size_rejected(self):
        with pytest.raises(StorageError):
            ExtentAllocator().allocate(0)

    def test_is_live(self):
        alloc = ExtentAllocator()
        extent = alloc.allocate(4)
        assert alloc.is_live(extent)
        alloc.free(extent)
        assert not alloc.is_live(extent)

    def test_cumulative_counters(self):
        alloc = ExtentAllocator()
        a = alloc.allocate(8)
        alloc.allocate(8)
        alloc.free(a)
        assert alloc.allocated_kb_total == 16
        assert alloc.freed_kb_total == 8
        assert alloc.live_extents == 1


class TestSimulatedDisk:
    def test_live_kb_is_database_size(self, clock):
        disk = SimulatedDisk(clock, 1000.0)
        extent = disk.allocate(100)
        assert disk.live_kb == 100
        disk.free(extent)
        assert disk.live_kb == 0

    def test_background_io_raises_utilization(self, clock):
        disk = SimulatedDisk(clock, 1000.0)
        assert disk.utilization() == 0.0
        disk.background_read(500.0)  # Half a second of transfer.
        assert disk.utilization() >= 0.5

    def test_utilization_resets_each_tick(self, clock):
        disk = SimulatedDisk(clock, 1000.0)
        disk.background_write(900.0)
        assert disk.utilization() > 0.8
        clock.advance(1)
        assert disk.utilization() == 0.0

    def test_utilization_capped_at_one(self, clock):
        disk = SimulatedDisk(clock, 1000.0)
        disk.background_read(1_000_000.0)
        assert disk.utilization() == 1.0

    def test_temp_space_is_per_tick(self, clock):
        disk = SimulatedDisk(clock, 1000.0)
        disk.note_temp_space(50.0)
        disk.note_temp_space(30.0)  # Peak, not sum.
        assert disk.tick_temp_space_kb() == 50.0
        clock.advance(1)
        assert disk.tick_temp_space_kb() == 0.0

    def test_stats_split_reads_and_writes(self, clock):
        disk = SimulatedDisk(clock, 1000.0)
        disk.background_read(10.0)
        disk.background_write(20.0)
        disk.foreground_random_read(3)
        disk.foreground_sequential_read(8.0)
        assert disk.stats.seq_read_kb == 18.0
        assert disk.stats.seq_write_kb == 20.0
        assert disk.stats.random_read_blocks == 3

    def test_negative_io_rejected(self, clock):
        disk = SimulatedDisk(clock, 1000.0)
        with pytest.raises(StorageError):
            disk.background_read(-1.0)

    def test_zero_bandwidth_rejected(self, clock):
        with pytest.raises(StorageError):
            SimulatedDisk(clock, 0.0)

    def test_cause_counters_publish_the_disk_totals(self):
        """Every ``disk.bw.*`` counter equals the disk's own cause total,
        including causes first booked after the registry was bound
        (``preload``, the compactions), which used to publish 0."""
        from repro.sim.driver import MixedReadWriteDriver
        from repro.sim.experiment import build_engine, preload

        config = SystemConfig.paper_scaled(8192)
        setup = build_engine("lsbm", config)
        preload(setup)
        MixedReadWriteDriver(setup.engine, config, setup.clock).run(300)
        totals = setup.disk.cause_totals()
        published = {
            tuple(name[len("disk.bw."):].rsplit(".", 1)): value
            for name, value in setup.substrate.registry.snapshot().items()
            if name.startswith("disk.bw.")
        }
        assert ("preload", "write_kb") in published
        for (cause, kind), value in published.items():
            assert value == totals[cause][kind], (cause, kind)


class TestReadPricer:
    """The physics, on the object that prices every read of every figure:
    each fact is a difference of ``service_seconds`` on two ReadCosts."""

    @pytest.fixture
    def config(self):
        return SystemConfig.tiny()

    @staticmethod
    def extra_s(config, utilization=0.0, **shape):
        """What ``shape`` adds to the price of a read that does no work."""
        pricer = ReadPricer(config)
        return pricer.service_seconds(
            ReadCost(**shape), 0, utilization
        ) - pricer.service_seconds(ReadCost(), 0, utilization)

    def test_random_read_linear_in_blocks(self, config):
        one = self.extra_s(config, disk_random_blocks=1)
        assert one == pytest.approx(config.random_read_s)
        assert self.extra_s(config, disk_random_blocks=4) == pytest.approx(4 * one)

    def test_sequential_includes_seek_and_transfer(self, config):
        one_second_kb = config.foreground_bandwidth_kb_per_s
        cost = self.extra_s(config, seq_runs=1, seq_kb=one_second_kb)
        assert cost == pytest.approx(1.0 + config.seek_s)

    def test_random_read_much_slower_per_kb_than_sequential(self):
        """The HDD asymmetry every LSM design decision rests on (at the
        paper's real-hardware constants)."""
        config = SystemConfig.paper()
        random_per_kb = (
            self.extra_s(config, disk_random_blocks=1) / config.block_size_kb
        )
        seq_per_kb = self.extra_s(config, seq_kb=1024.0) / 1024.0
        assert random_per_kb > 100 * seq_per_kb

    def test_contention_inflates_cost(self, config):
        idle = self.extra_s(config, 0.0, disk_random_blocks=1)
        busy = self.extra_s(config, 0.5, disk_random_blocks=1)
        assert busy == pytest.approx(2 * idle)
        # Only the disk queues: a cached read costs the same when busy.
        assert self.extra_s(config, 0.5, cache_hit_blocks=1) == self.extra_s(
            config, 0.0, cache_hit_blocks=1
        )

    def test_contention_is_clamped(self, config):
        assert queueing_factor(5.0) == queueing_factor(0.8)
        assert queueing_factor(0.8) == pytest.approx(5.0)
        assert queueing_factor(-1.0) == 1.0
        idle = self.extra_s(config, 0.0, disk_random_blocks=1, seq_runs=1)
        for utilization in (-1.0, 0.8, 0.99, 5.0):
            busy = self.extra_s(config, utilization, disk_random_blocks=1, seq_runs=1)
            assert busy == pytest.approx(queueing_factor(utilization) * idle)

    def test_zero_work_costs_nothing(self, config):
        """No blocks, probes or runs: the base CPU and nothing else, at
        any utilization."""
        pricer = ReadPricer(config)
        base = config.cache_hit_s
        for utilization in (0.0, 0.5, 5.0):
            for is_scan in (False, True):
                shape = (ReadCost(), 0, utilization, is_scan)
                assert pricer.service_seconds(*shape) == base
                assert price_read(pricer, *shape) == base * config.ops_scale
                charged = [term for term in pricer.stage_terms(*shape) if term[1]]
                assert charged == [("cpu", base)]

    def test_cache_hit_cost(self, config):
        assert self.extra_s(config, cache_hit_blocks=2) == pytest.approx(
            2 * config.block_hit_s
        )
        assert self.extra_s(config, os_hit_blocks=2) == pytest.approx(
            2 * config.os_hit_s
        )
        assert self.extra_s(config, bloom_probes=3) == pytest.approx(
            3 * config.bloom_probe_s
        )


#: The SystemConfig fields (and one derived property) that enter the
#: price of a read.
_PRICING_CONSTANTS = frozenset(
    {
        "cache_hit_s",
        "block_hit_s",
        "os_hit_s",
        "scan_pair_cpu_s",
        "scan_table_cpu_s",
        "bloom_probe_s",
        "random_read_s",
        "seek_s",
        "foreground_bandwidth_kb_per_s",
    }
)


def test_pricing_constants_are_read_in_one_module():
    """Only ``config.py`` (which defines them) and ``storage/iomodel.py``
    (which prices with them) may read a pricing constant as an attribute.

    A ninth home of the formula would price some reads differently from
    the rest and no digest would say which: every identity gate compares
    a run with itself at another commit, never one pricing site with
    another.
    """
    root = Path(repro.__file__).parent
    allowed = {root / "config.py", root / "storage" / "iomodel.py"}
    offenders = sorted(
        f"{path.relative_to(root)}:{node.lineno}: .{node.attr}"
        for path in root.rglob("*.py")
        if path not in allowed
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and node.attr in _PRICING_CONSTANTS
    )
    assert not offenders, offenders


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now == 0

    def test_advance(self):
        clock = VirtualClock()
        assert clock.advance(5) == 5
        assert clock.now == 5

    def test_cannot_go_backwards(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1)
