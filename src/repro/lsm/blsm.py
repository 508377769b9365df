"""bLSM-style gear-scheduled LSM-tree (Sears & Ramakrishnan), Section IV-A.

Each level ``i < k`` is split into ``Ci`` and ``Ci'``: ``Ci`` receives data
merged down from above while ``Ci'`` drains into the next level.  The paper
simplifies bLSM's in/out-progress regulation by bounding ``|Ci| + |Ci'|``
by the level capacity ``Si``: whenever the bound is exceeded at level 0,
one compaction *pass* walks the full-level prefix and moves one compaction
unit (a super-file) at each full level — so compaction progress everywhere
is geared to the insertion rate, and writes see predictable latency.

This engine is both the bLSM baseline of the evaluation and the structural
base class of :class:`~repro.core.lsbm.LSbMTree`, which overrides the
rotation and per-unit compaction steps to feed its compaction buffer.
"""

from __future__ import annotations

from bisect import bisect_left

from repro.bloom.hashing import probe_mask
from repro.errors import EngineError
from repro.lsm.base import GetResult, LSMEngine, MergeOutcome, ReadCost, ScanResult
from repro.lsm.policy import GearPolicy
from repro.sstable.block import _shared_filter
from repro.sstable.entry import Entry
from repro.sstable.iterator import merge_entries
from repro.sstable.sorted_table import SortedTable
from repro.sstable.sstable import SSTableFile
from repro.sstable.superfile import group_into_superfiles


class BLSMTree(LSMEngine):
    """Gear-scheduled leveled LSM-tree with Ci/Ci' per level."""

    name = "blsm"

    def __init__(
        self,
        config=None,
        clock=None,
        disk=None,
        db_cache=None,
        os_cache=None,
        *,
        substrate=None,
    ) -> None:
        super().__init__(
            config, clock, disk, db_cache, os_cache, substrate=substrate
        )
        self.num_levels = self.config.num_disk_levels
        #: C[1..k] — the receiving run of each on-disk level.
        self.c: list[SortedTable] = [
            SortedTable() for _ in range(self.num_levels + 1)
        ]
        #: Cp[1..k-1] — the draining run (C') of each gear level.
        self.cp: list[SortedTable] = [
            SortedTable() for _ in range(self.num_levels + 1)
        ]
        #: C0' — the flushed, on-disk image of the write buffer.
        self.c0_prime = SortedTable()
        #: bLSM's design point.  Subclasses that flip the data-movement
        #: axis through the gear hooks (LSbM) reassign this with the
        #: matching axes.
        self.policy = GearPolicy()
        self._rebuild_descent()

    def _rebuild_descent(self) -> None:
        """Recompute the read path's run order (C0', C1, C1', ..., Ck).

        The descent is cached as a flat tuple so ``get`` iterates it
        without per-read list indexing; it must be rebuilt whenever a
        rotation *replaces* a run object (in-place mutation of a run's
        files is fine — the tuple holds the tables, not their contents).
        """
        descent = [self.c0_prime]
        for level in range(1, self.num_levels + 1):
            descent.append(self.c[level])
            if level < self.num_levels:
                descent.append(self.cp[level])
        self._descent = tuple(descent)

    # ------------------------------------------------------------------
    # Sizes.
    # ------------------------------------------------------------------
    def level_total_kb(self, level: int) -> int:
        """``|Ci| + |Ci'|`` (level 0: memtable + C0')."""
        if level == 0:
            return self._level0_kb()
        return self.c[level].size_kb + self.cp[level].size_kb

    def _level0_kb(self) -> int:
        """Gear level 0 counts both the memtable and the C0' run."""
        return self.memtable.size_kb + self.c0_prime.size_kb

    def _source(self, level: int) -> SortedTable:
        """The draining run of ``level`` (C0' for level 0, else Ci')."""
        return self.c0_prime if level == 0 else self.cp[level]

    # ------------------------------------------------------------------
    # The gear scheduler.  Algorithm 1's control flow lives in
    # :class:`~repro.lsm.policy.GearPolicy`; the hooks below are the
    # mechanism it drives (and the seam LSbM overrides to add the
    # compaction-buffer lines).
    # ------------------------------------------------------------------
    def _rotate(self, level: int) -> None:
        """Start a merge round: move Ci into Ci' (flush C0 for level 0)."""
        if level == 0:
            if self.c0_prime:
                raise EngineError("rotating level 0 while C0' is non-empty")
            files = self._flush_memtable_to_files()
            group_into_superfiles(
                files, self.config.superfile_files, self.superfile_ids
            )
            self.c0_prime = SortedTable(files)
        else:
            if self.cp[level]:
                raise EngineError(f"rotating level {level} while C{level}' drains")
            self.cp[level] = self.c[level]
            self.c[level] = SortedTable()
        self._rebuild_descent()

    def _pop_unit(self, source: SortedTable) -> list[SSTableFile]:
        """Pop the next compaction unit: one super-file's member files.

        Section IV-C: the super-file is the basic operation unit of the
        underlying LSM-tree.  Files built together share a super-file id
        and sit contiguously at the low-key end of the draining run.
        """
        first = source.pop_first()
        unit = [first]
        superfile_id = first.superfile_id
        if superfile_id is None:
            return unit  # Ungrouped files compact one at a time.
        while source and source.first.superfile_id == superfile_id:
            unit.append(source.pop_first())
        return unit

    def _compact_unit(self, level: int, unit: list[SSTableFile]) -> MergeOutcome:
        """Merge one unit from ``level`` into C(level+1)."""
        target = level + 1
        outcome = self._merge_into_run(
            unit,
            self.c[target],
            last_level=target == self.num_levels,
            level=level,
        )
        group_into_superfiles(
            outcome.new_files, self.config.superfile_files, self.superfile_ids
        )
        return outcome

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------
    def get(self, key: int) -> GetResult:
        if self._closed:
            self._check_open()
        self.stats.gets += 1
        cost = ReadCost()
        cost.memtable_probes += 1
        entry = self.memtable.get(key)
        if entry is not None:
            return self._make_entry_result(entry, cost)
        # The descent inlines ``_search_table`` over the cached run order
        # with the probe counters accumulated in locals — identical cost
        # accounting (the counters are flushed to ``cost`` before any
        # state-bearing step and at every exit), without a method call
        # per run; over half the per-run searches end at the index gate.
        tables_checked = 0
        index_probes = 0
        bloom_probes = 0
        for table in self._descent:
            tables_checked += 1
            max_keys = table._max_keys
            position = bisect_left(max_keys, key)
            if position == len(max_keys):
                continue
            file = table._files[position]
            if file.min_key > key:  # bisect guarantees key <= file.max_key.
                continue
            index_probes += 1
            if file.removed:
                file._check_not_removed()
            block_keys = file._block_max_keys
            position = bisect_left(block_keys, key)
            if position == len(block_keys):
                continue
            block = file._blocks[position]
            if block.min_key > key:
                continue
            bloom_probes += 1
            bloom = block._bloom
            if bloom is None:
                bloom = block._bloom = _shared_filter(
                    tuple(block._keys), block._bits_per_key
                )
            mask = probe_mask(key, bloom._num_bits, bloom._num_hashes)
            if bloom._bits & mask != mask:
                continue
            cost.tables_checked += tables_checked
            cost.index_probes += index_probes
            cost.bloom_probes += bloom_probes
            tables_checked = 0
            index_probes = 0
            bloom_probes = 0
            self._read_block(file, block, cost)
            entry = block.get(key)
            if entry is None:
                cost.false_positive_blocks += 1
                continue
            return self._make_entry_result(entry, cost)
        cost.tables_checked += tables_checked
        cost.index_probes += index_probes
        cost.bloom_probes += bloom_probes
        return GetResult(False, None, cost)

    def scan(self, low: int, high: int) -> ScanResult:
        self._check_open()
        self.stats.scans += 1
        cost = ReadCost()
        sources: list[list[Entry]] = [self.memtable.entries_in_range(low, high)]
        for table in self._all_runs():
            overlapping = table.files_overlapping(low, high)
            if not overlapping:
                continue
            cost.tables_checked += 1
            sources.extend(self._scan_table_files(overlapping, low, high, cost))
        entries = [e for e in merge_entries(sources) if not e.is_tombstone]  # type: ignore[arg-type]
        return ScanResult(entries, cost)

    def _all_runs(self) -> list[SortedTable]:
        """Every on-disk sorted run, newest data first."""
        runs = [self.c0_prime]
        for level in range(1, self.num_levels + 1):
            runs.append(self.c[level])
            if level < self.num_levels:
                runs.append(self.cp[level])
        return runs

    # ------------------------------------------------------------------
    # Bulk loading.
    # ------------------------------------------------------------------
    def bulk_load(self, entries: list[Entry]) -> None:
        files, _ = self.builder.build_grouped(iter(entries), cause="preload")
        for file in files:
            self.c[self.num_levels].append(file)
        self._seq = max(self._seq, max((e.seq for e in entries), default=0))
