"""A LevelDB-style leveled LSM-tree (the paper's primary baseline).

Structure (Section VI-C, "LevelDB maintains only one sorted table at each
level"): each on-disk level is a single fully sorted run.  When the write
buffer fills it is flushed and merged into C1; when a level exceeds its
capacity, one file at a time is picked — round-robin through the key space
via a compaction cursor, as LevelDB does — and merged with the overlapping
files of the next level.  Every such merge rewrites the affected next-level
files at new disk locations, invalidating their cached blocks: the
compaction-induced cache invalidation of Fig. 1.
"""

from __future__ import annotations

from bisect import bisect_left

from repro.bloom.hashing import probe_mask
from repro.lsm.base import GetResult, LSMEngine, ReadCost, ScanResult
from repro.lsm.policy import LeveledCursorPolicy
from repro.sstable.block import _shared_filter
from repro.sstable.entry import Entry
from repro.sstable.iterator import merge_entries
from repro.sstable.sorted_table import SortedTable


class LevelDBTree(LSMEngine):
    """Leveled LSM-tree with one sorted run per on-disk level."""

    name = "leveldb"

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
        #: levels[1..k]; index 0 is unused (C0 is the memtable).
        self.levels: list[SortedTable] = [
            SortedTable() for _ in range(self.num_levels + 1)
        ]
        #: LevelDB's design point; the policy owns the compaction cursor.
        self.policy = LeveledCursorPolicy(self.num_levels)

    # ------------------------------------------------------------------
    # Compactions (control flow in LeveledCursorPolicy; mechanism here).
    # ------------------------------------------------------------------
    def _flush_and_merge_into_c1(self) -> None:
        """Drain C0 to disk and merge the run into C1 file by file."""
        run_files = self._flush_memtable_to_files()
        last = self.num_levels == 1
        for file in run_files:
            self._merge_into_run([file], self.levels[1], last_level=last, level=0)

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
        # Inlined ``_search_table`` descent over levels 1..k with the
        # probe counters accumulated in locals (flushed to ``cost``
        # before any state-bearing step and at every exit) — identical
        # accounting without a method call per level.  The level tables
        # are only ever mutated in place, so indexing ``self.levels``
        # per level is the sole per-read structure access.
        levels = self.levels
        tables_checked = 0
        index_probes = 0
        bloom_probes = 0
        for level in range(1, self.num_levels + 1):
            table = levels[level]
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
        for level in range(1, self.num_levels + 1):
            files = self.levels[level].files_overlapping(low, high)
            if not files:
                continue
            cost.tables_checked += 1
            sources.extend(self._scan_table_files(files, low, high, cost))
        entries = [
            e for e in merge_entries(sources) if not e.is_tombstone  # type: ignore[arg-type]
        ]
        return ScanResult(entries, cost)

    # ------------------------------------------------------------------
    # Bulk loading.
    # ------------------------------------------------------------------
    def bulk_load(self, entries: list[Entry]) -> None:
        """Preload sorted unique entries directly into the last level."""
        files = self.builder.build(iter(entries), cause="preload")
        for file in files:
            self.levels[self.num_levels].append(file)
        self._seq = max(self._seq, max((e.seq for e in entries), default=0))
