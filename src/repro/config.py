"""System configuration shared by every subsystem of the reproduction.

The paper (Section VI-A) fixes one hardware/software configuration for all
experiments:

* level 0 (the in-memory write buffer ``C0``) holds 100 MB,
* the size ratio ``r`` between adjacent levels is 10, giving on-disk levels
  of 1 GB, 10 GB and 100 GB,
* files (multi-page blocks) are 2 MB, super-files group ``r`` = 10 files,
* blocks (single-page blocks) are 4 KB, key-value pairs are 1 KB,
* Bloom filters use 15 bits per element,
* the DB buffer cache holds 6 GB,
* the unique dataset is 20 GB, the hot range 3 GB, 98% of reads hot,
* writes arrive at 1,000 operations per second from one thread while eight
  reader threads issue queries, for 20,000 seconds,
* the compaction buffer is trimmed every 30 s with an 80% cached threshold.

Re-running that setup byte-for-byte in Python is neither feasible nor
useful, so :meth:`SystemConfig.paper_scaled` shrinks every *size* by a
common linear factor while keeping every *ratio* (cache/data, hot/data,
``S0``/data, ``r``) and the virtual-time periodicity (level 1 fills every
~1,000 s, level 2 every ~10,000 s) identical.  All behaviour the paper
evaluates is ratio- and period-driven, so the shape of every figure is
preserved.  See DESIGN.md Section 2 for the substitution argument.

All sizes in this module are integers measured in KB unless the name says
otherwise.  One key-value pair occupies ``pair_size_kb`` KB, so sizes and
pair counts are interchangeable through that constant.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.errors import ConfigError

#: Linear scale used by the default scaled configuration.  256 divides every
#: paper size exactly, which keeps all derived quantities integral.
DEFAULT_SCALE = 256

_KB_PER_MB = 1024
_KB_PER_GB = 1024 * 1024


@dataclass(frozen=True)
class SystemConfig:
    """Immutable bundle of every tunable the reproduction uses.

    Instances are cheap value objects; derive variants with
    :meth:`replace`.  Construct paper-faithful instances through
    :meth:`paper` or :meth:`paper_scaled` rather than by hand.
    """

    # ------------------------------------------------------------------
    # Data layout (Section VI-A).
    # ------------------------------------------------------------------
    pair_size_kb: int = 1
    block_size_kb: int = 4
    file_size_kb: int = 2 * _KB_PER_MB
    superfile_files: int = 10

    # ------------------------------------------------------------------
    # Tree shape.
    # ------------------------------------------------------------------
    level0_size_kb: int = 100 * _KB_PER_MB
    size_ratio: int = 10
    num_disk_levels: int = 3

    # ------------------------------------------------------------------
    # Bloom filters.
    # ------------------------------------------------------------------
    bloom_bits_per_key: int = 15

    # ------------------------------------------------------------------
    # Caching.
    # ------------------------------------------------------------------
    cache_size_kb: int = 6 * _KB_PER_GB

    # ------------------------------------------------------------------
    # Dataset and workload (Section VI-B).
    # ------------------------------------------------------------------
    unique_keys: int = 20 * _KB_PER_GB  # 20 GB of 1 KB pairs.
    hot_range_fraction: float = 0.15  # 3 GB / 20 GB.
    hot_read_fraction: float = 0.98
    write_rate_pairs_per_s: float = 1000.0
    read_threads: int = 8
    duration_s: int = 20_000
    scan_length_kb: int = 100

    # ------------------------------------------------------------------
    # LSbM compaction-buffer management (Sections IV-B, VI-A).
    # ------------------------------------------------------------------
    trim_interval_s: int = 30
    trim_threshold: float = 0.8
    #: A level's compaction-buffer list freezes (Section IV-A) once the
    #: fraction of obsolete data dropped by merges into that level, since
    #: the level's last rotation, exceeds this bound.  Uniform writes over
    #: a finite key space always produce a trickle of statistical
    #: duplicates in upper levels; the paper's detector ("the size of
    #: Ci+1 is smaller than the data compacted into it") is only meant to
    #: fire where repetition is structural, e.g. the last level of an
    #: update-heavy workload.  The default tolerates the ~25% statistical
    #: duplication a half-dataset-sized level sees under uniform updates.
    freeze_duplicate_fraction: float = 0.3

    # ------------------------------------------------------------------
    # Compaction design space (Sarkar et al.; see repro.lsm.policy).
    # The four axes are read by the config-driven ``design`` engine (and
    # any named point built on :class:`~repro.lsm.composed.ComposedTree`
    # without explicit axes); the legacy engine classes are fixed points
    # in the same space and ignore these fields.  All four are ordinary
    # sweepable fields (``repro sweep --set compaction_layout=...``).
    # ------------------------------------------------------------------
    compaction_trigger: str = "size-ratio"
    compaction_layout: str = "leveling"
    compaction_granularity: str = "partial"
    compaction_movement: str = "merge"

    # ------------------------------------------------------------------
    # HBase-style store: virtual seconds between periodic major
    # compactions (0 disables them — the configuration the paper's
    # related-work discussion warns about).  A plain config field so it
    # is reachable as a sweep axis like everything else.
    # ------------------------------------------------------------------
    major_interval_s: int = 5_000

    # ------------------------------------------------------------------
    # Durability.  The paper's evaluation never crashes the system, so
    # the write-ahead log defaults off to keep the calibrated compaction
    # traffic identical to the paper's accounting; production deployments
    # would enable it.
    # ------------------------------------------------------------------
    wal_enabled: bool = False

    # ------------------------------------------------------------------
    # I/O cost model (DESIGN.md Section 2).  The per-operation costs are
    # expressed in *unscaled* seconds; ``ops_scale`` tells the driver how
    # many real operations one simulated operation stands for, which is
    # how a 1/256-size simulation still reports paper-comparable QPS.
    # ------------------------------------------------------------------
    seq_bandwidth_kb_per_s: float = 200.0 * _KB_PER_MB  # RAID0 of two HDDs.
    random_read_s: float = 0.015  # Effective random block read incl. queueing.
    cache_hit_s: float = 0.00045  # Per-operation CPU cost of a cached read.
    block_hit_s: float = 0.00002  # Marginal CPU/copy cost per cached block.
    os_hit_s: float = 0.001  # Page-cache hit: syscall + page copy.
    scan_pair_cpu_s: float = 0.00007  # Iterator CPU cost per scanned pair.
    #: CPU cost for positioning a range iterator on one sorted table
    #: (index descent + iterator setup + merge-heap slot).  This is why
    #: "querying one level with multiple sorted tables" hurts SM-tree's
    #: range queries even when every block is cached (Section III).
    scan_table_cpu_s: float = 0.0003
    bloom_probe_s: float = 0.000002
    seek_s: float = 0.005  # One positioning seek for a sequential run.
    ops_scale: float = 1.0

    def __post_init__(self) -> None:
        self.validate()

    # ------------------------------------------------------------------
    # Constructors.
    # ------------------------------------------------------------------
    @classmethod
    def paper(cls) -> "SystemConfig":
        """The exact configuration of Section VI-A (unscaled)."""
        return cls()

    @classmethod
    def paper_scaled(cls, scale: int = DEFAULT_SCALE) -> "SystemConfig":
        """The paper configuration with every size shrunk by ``scale``.

        Ratios, the number of levels, the size ratio ``r`` and all timing
        parameters are untouched; sizes, the dataset, the write rate, the
        sequential bandwidth and the key count shrink together so that
        level-fill periods stay at the paper's ~1,000 s / ~10,000 s marks.
        Per-operation costs are multiplied by ``scale`` (as ``ops_scale``)
        so each simulated read stands for ``scale`` real reads and the
        reported throughput remains paper-comparable.
        """
        if scale < 1:
            raise ConfigError(f"scale must be >= 1, got {scale}")
        base = cls()

        def shrink(kb: int, floor: int) -> int:
            return max(floor, kb // scale)

        block = base.block_size_kb  # Blocks keep their 4 KB identity.
        file_kb = max(block, base.file_size_kb // scale)
        return cls(
            pair_size_kb=base.pair_size_kb,
            block_size_kb=block,
            file_size_kb=file_kb,
            superfile_files=base.superfile_files,
            level0_size_kb=shrink(base.level0_size_kb, file_kb),
            size_ratio=base.size_ratio,
            num_disk_levels=base.num_disk_levels,
            bloom_bits_per_key=base.bloom_bits_per_key,
            cache_size_kb=shrink(base.cache_size_kb, block),
            unique_keys=max(1, base.unique_keys // scale),
            hot_range_fraction=base.hot_range_fraction,
            hot_read_fraction=base.hot_read_fraction,
            write_rate_pairs_per_s=base.write_rate_pairs_per_s / scale,
            read_threads=base.read_threads,
            duration_s=base.duration_s,
            scan_length_kb=base.scan_length_kb,
            trim_interval_s=base.trim_interval_s,
            trim_threshold=base.trim_threshold,
            seq_bandwidth_kb_per_s=base.seq_bandwidth_kb_per_s / scale,
            random_read_s=base.random_read_s,
            cache_hit_s=base.cache_hit_s,
            bloom_probe_s=base.bloom_probe_s,
            seek_s=base.seek_s,
            ops_scale=float(scale),
        )

    @classmethod
    def ssd_scaled(cls, scale: int = DEFAULT_SCALE) -> "SystemConfig":
        """The scaled paper setup on a modern SATA-SSD cost model.

        The paper targets hard disks, where a random block read costs
        three orders of magnitude more than a cached one — that asymmetry
        is what makes compaction-induced cache invalidation so expensive.
        Section VII surveys SSD-oriented LSM work (FD-tree, LOCS,
        WiscKey); this preset lets the extension experiment quantify how
        much of LSbM's advantage survives when misses cost ~100 µs
        instead of ~15 ms.
        """
        base = cls.paper_scaled(scale)
        return base.replace(
            random_read_s=0.0001,  # ~100 µs random 4 KB read.
            seek_s=0.00002,  # Command overhead, no mechanical seek.
            seq_bandwidth_kb_per_s=500.0 * _KB_PER_MB / scale,
        )

    @classmethod
    def tiny(cls) -> "SystemConfig":
        """A minimal configuration for unit tests.

        Four pairs per block, two blocks per file, a 64-pair level 0 and a
        size ratio of 4: big enough to exercise multi-level compactions,
        small enough that a test builds the whole tree in milliseconds.
        """
        return cls(
            pair_size_kb=1,
            block_size_kb=4,
            file_size_kb=8,
            superfile_files=2,
            level0_size_kb=64,
            size_ratio=4,
            num_disk_levels=3,
            bloom_bits_per_key=15,
            cache_size_kb=256,
            unique_keys=4096,
            hot_range_fraction=0.25,
            hot_read_fraction=0.9,
            write_rate_pairs_per_s=16.0,
            read_threads=2,
            duration_s=100,
            scan_length_kb=16,
            trim_interval_s=5,
            trim_threshold=0.8,
            seq_bandwidth_kb_per_s=4096.0,
            ops_scale=1.0,
        )

    def replace(self, **changes: object) -> "SystemConfig":
        """Return a copy with the given fields changed (and re-validated)."""
        return dataclasses.replace(self, **changes)

    # ------------------------------------------------------------------
    # Derived quantities.
    # ------------------------------------------------------------------
    @property
    def pairs_per_block(self) -> int:
        return self.block_size_kb // self.pair_size_kb

    @property
    def blocks_per_file(self) -> int:
        return self.file_size_kb // self.block_size_kb

    @property
    def pairs_per_file(self) -> int:
        return self.file_size_kb // self.pair_size_kb

    @property
    def superfile_size_kb(self) -> int:
        return self.file_size_kb * self.superfile_files

    @property
    def cache_blocks(self) -> int:
        """Capacity of the DB buffer cache, in blocks."""
        return self.cache_size_kb // self.block_size_kb

    @property
    def foreground_bandwidth_kb_per_s(self) -> float:
        """The real device bandwidth, for pricing foreground transfers.

        ``seq_bandwidth_kb_per_s`` is scaled down with the data so that
        *compaction* traffic and device utilization stay in proportion;
        a foreground read's transfer time, however, is a real-time cost
        of real kilobytes and must be priced at full device speed.
        """
        return self.seq_bandwidth_kb_per_s * self.ops_scale

    @property
    def dataset_kb(self) -> int:
        return self.unique_keys * self.pair_size_kb

    @property
    def hot_range_pairs(self) -> int:
        return int(self.unique_keys * self.hot_range_fraction)

    @property
    def scan_length_pairs(self) -> int:
        return max(1, self.scan_length_kb // self.pair_size_kb)

    def level_capacity_kb(self, level: int) -> int:
        """Maximum size ``Si`` of level ``level`` (0 = the write buffer).

        Follows the paper's balanced-tree rule ``Si = S0 * r**i``.
        """
        if level < 0 or level > self.num_disk_levels:
            raise ConfigError(
                f"level must be in [0, {self.num_disk_levels}], got {level}"
            )
        return self.level0_size_kb * self.size_ratio**level

    # ------------------------------------------------------------------
    # Validation.
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`ConfigError` if any field combination is invalid."""
        if self.pair_size_kb < 1:
            raise ConfigError("pair_size_kb must be >= 1")
        if self.block_size_kb < self.pair_size_kb:
            raise ConfigError("a block must hold at least one pair")
        if self.block_size_kb % self.pair_size_kb != 0:
            raise ConfigError("block size must be a multiple of pair size")
        if self.file_size_kb < self.block_size_kb:
            raise ConfigError("a file must hold at least one block")
        if self.file_size_kb % self.block_size_kb != 0:
            raise ConfigError("file size must be a multiple of block size")
        if self.superfile_files < 1:
            raise ConfigError("superfile_files must be >= 1")
        if self.level0_size_kb < self.file_size_kb:
            raise ConfigError("level 0 must hold at least one file")
        if self.size_ratio < 2:
            raise ConfigError("size_ratio must be >= 2")
        if self.num_disk_levels < 1:
            raise ConfigError("num_disk_levels must be >= 1")
        if self.bloom_bits_per_key < 1:
            raise ConfigError("bloom_bits_per_key must be >= 1")
        if self.cache_size_kb < self.block_size_kb:
            raise ConfigError("cache must hold at least one block")
        if self.unique_keys < 1:
            raise ConfigError("unique_keys must be >= 1")
        if not 0.0 < self.hot_range_fraction <= 1.0:
            raise ConfigError("hot_range_fraction must be in (0, 1]")
        if not 0.0 <= self.hot_read_fraction <= 1.0:
            raise ConfigError("hot_read_fraction must be in [0, 1]")
        if self.write_rate_pairs_per_s < 0:
            raise ConfigError("write rate must be non-negative")
        if self.read_threads < 0:
            raise ConfigError("read_threads must be non-negative")
        if self.trim_interval_s < 1:
            raise ConfigError("trim_interval_s must be >= 1")
        if not 0.0 < self.trim_threshold <= 1.0:
            raise ConfigError("trim_threshold must be in (0, 1]")
        if not 0.0 <= self.freeze_duplicate_fraction <= 1.0:
            raise ConfigError("freeze_duplicate_fraction must be in [0, 1]")
        # Deferred import: policy sits above config in the layering, but
        # it is the single source of truth for the axis vocabulary.
        from repro.lsm.policy import CompactionAxes

        CompactionAxes(
            trigger=self.compaction_trigger,
            layout=self.compaction_layout,
            granularity=self.compaction_granularity,
            movement=self.compaction_movement,
        )
        if self.major_interval_s < 0:
            raise ConfigError("major_interval_s must be >= 0 (0 disables)")
        if self.seq_bandwidth_kb_per_s <= 0:
            raise ConfigError("sequential bandwidth must be positive")
        if self.ops_scale < 1.0:
            raise ConfigError("ops_scale must be >= 1")
