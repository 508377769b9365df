"""The LSbM-tree: Log-Structured buffered-Merge tree (the paper's core).

LSbM keeps two on-disk structures (Section III):

* the **underlying LSM-tree** — a gear-scheduled bLSM holding the entire
  data set, fully sorted per level, serving range queries and cold reads;
* the **compaction buffer** — per-level lists of sorted tables built by
  *appending the input files of compactions instead of deleting them*
  (Algorithm 1's buffered merge).  Since those files already exist on
  disk, the buffer costs no additional I/O, and since they never move,
  the DB buffer cache blocks indexed through them survive compactions.

Queries consult the compaction buffer first for data likely resident in
the buffer cache (Algorithm 3 for point reads, Algorithm 4 for ranges) and
fall back to the underlying tree otherwise; a periodic trim process
(Algorithm 2) evicts buffer files that are not actually hot.

Engineering notes on the two under-specified corners of the paper, both
validated by the model-equivalence property tests:

* **Freeze detector.**  "If the size of Ci+1 is smaller than the data
  compacted into it, there must exist repeated data."  Uniform writes over
  a finite key space *always* collide occasionally, so the detector here
  fires on the cumulative obsolete *fraction* of a level's current merge
  round exceeding ``config.freeze_duplicate_fraction``.  Freezing discards
  the level's serving lists (their obsolete versions could otherwise
  shadow newer data once appends stop) and suspends appends until the
  level rotates.
* **Coverage flags.**  A range query may be answered entirely from a
  buffer list only if that list records *every* round merged into its run
  (otherwise recently merged keys would be missed).  A freeze breaks that
  completeness until the level next rotates; ``LSbMTree._covers`` and
  ``_draining_covers`` track it, and scans fall back to the underlying
  run while coverage is broken.  Point reads never need the flag:
  Algorithm 3 falls back to ``Ci`` per key whenever the buffer misses.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import attrgetter

from repro.core.compaction_buffer import BufferStats, CompactionBuffer
from repro.lsm.base import GetResult, MergeOutcome, ReadCost, ScanResult
from repro.lsm.blsm import BLSMTree
from repro.obs.events import BufferFrozen, BufferUnfrozen
from repro.sstable.entry import Entry
from repro.sstable.iterator import newest_first
from repro.sstable.sorted_table import SortedTable
from repro.sstable.sstable import SSTableFile
from repro.sstable.superfile import group_into_superfiles

_is_removed = attrgetter("removed")

#: One level component of the read shape: ``(run, complement or None,
#: buffer lists newest first, whether the lists cover the run)``.
Component = tuple[
    SortedTable, SortedTable | None, tuple[SortedTable, ...], bool
]


@dataclass
class _RoundAccounting:
    """Per-level bytes merged in / dropped since the level's last rotation."""

    in_kb: float = 0.0
    obsolete_kb: float = 0.0

    def duplicate_fraction(self) -> float:
        if self.in_kb <= 0:
            return 0.0
        return self.obsolete_kb / self.in_kb


@dataclass
class LSbMStats(BufferStats):
    """LSbM-specific counters, on top of the base engine stats."""

    freeze_events: int = 0
    trim_runs: int = 0
    reads_served_by_buffer: int = 0
    reads_served_by_tree: int = 0


class LSbMTree(BLSMTree):
    """bLSM underlying tree + compaction buffer = LSbM (Sections III-V)."""

    name = "lsbm"

    def __init__(self, substrate) -> None:
        super().__init__(substrate)
        self.lsbm_stats = LSbMStats()
        self.buffer = CompactionBuffer(self, self.lsbm_stats)
        self._buffer_levels = self.buffer.levels
        #: Whether a level's serving lists record every round merged into
        #: its C run since the last rotation (see module docstring).
        self._covers: list[bool] = [True] * (self.num_levels + 1)
        #: Same property for the draining lists vs the C' run.
        self._draining_covers: list[bool] = [True] * (self.num_levels + 1)
        self._rounds: list[_RoundAccounting] = [
            _RoundAccounting() for _ in range(self.num_levels + 1)
        ]

    # ------------------------------------------------------------------
    # Buffered merge (Algorithm 1): hook overrides of the gear scheduler.
    # ------------------------------------------------------------------
    def _rotate(self, level: int) -> None:
        if level >= 1:
            buf = self.buffer[level]
            # Close the in-flight Bi^0 so it travels with Bi into B'i.
            buf.finalize_incoming()
            for table in buf.start_drain():
                # Any leftover previous-round B' files: their reads have
                # fully transferred to the next level.
                self.buffer.remove_table(table)
            self._draining_covers[level] = self._covers[level]
            # "When Ci becomes full and is merged down to next level,
            # Bi is unfrozen" — and its coverage restarts with the empty
            # new Ci.
            if buf.frozen and self.bus.active:
                self.bus.emit(BufferUnfrozen(level=level))
            buf.frozen = False
            self._covers[level] = True
            self._rounds[level] = _RoundAccounting()
        super()._rotate(level)
        target = level + 1
        if target <= self.num_levels:
            # Line 11: create an empty sorted table in B(i+1) as B(i+1)^0.
            self.buffer[target].finalize_incoming()

    def _compact_unit(self, level: int, unit: list[SSTableFile]) -> MergeOutcome:
        target = level + 1
        buf = self.buffer[target]
        outcome = self._merge_into_run(
            unit,
            self.c[target],
            last_level=target == self.num_levels,
            dispose_sources=False,  # The buffered merge re-uses the inputs.
            level=level,
        )
        group_into_superfiles(
            outcome.new_files, self.config.superfile_files, self.superfile_ids
        )

        round_acct = self._rounds[target]
        round_acct.in_kb += sum(f.size_kb for f in unit)
        round_acct.obsolete_kb += (
            outcome.obsolete_entries * self.config.pair_size_kb
        )
        if (
            not buf.frozen
            and round_acct.duplicate_fraction()
            > self.config.freeze_duplicate_fraction
        ):
            self._freeze_level(target)

        if buf.frozen:
            self._discard_files(unit)
        else:
            for file in unit:
                self.buffer.append(buf, file)

        if level >= 1:
            self._pace_remove(level)
        return outcome

    def _freeze_level(self, level: int) -> None:
        """Stop buffering a level that is absorbing repeated data."""
        buf = self.buffer[level]
        buf.frozen = True
        self._covers[level] = False
        self.lsbm_stats.freeze_events += 1
        if self.bus.active:
            self.bus.emit(BufferFrozen(level=level))
        for table in buf.take_all_serving():
            self.buffer.remove_table(table)

    def _pace_remove(self, level: int) -> None:
        """Drain B' in lockstep with C' (Algorithm 1, lines 18-20).

        Keeps ``|B'i| / S̄i <= |C'i| / Si`` by removing the file with the
        smallest maximum key — the key range C' has already merged down —
        so the buffer cache transfers its hot set to the next level
        gradually instead of losing it at once.
        """
        buf = self.buffer[level]
        initial = buf.draining_initial_kb
        if initial <= 0:
            return
        capacity = self.config.level_capacity_kb(level)
        target_ratio = self.cp[level].size_kb / capacity
        while True:
            live = buf.draining_live_kb
            if live <= 0 or live / initial <= target_ratio:
                return
            file = buf.smallest_draining_file()
            if file is None:
                return
            self.buffer.remove_file(file)

    # ------------------------------------------------------------------
    # Housekeeping: the trim process runs on the virtual-second tick.
    # ------------------------------------------------------------------
    def tick(self, now: int) -> None:
        super().tick(now)
        trim = self.buffer.trim
        trim.maybe_run(now, self._buffer_levels)
        self.lsbm_stats.trim_runs = trim.runs

    # ------------------------------------------------------------------
    # The read shape: one component program for Algorithms 3 and 4.
    # ------------------------------------------------------------------
    def _derive_read_orders(self) -> tuple[Component, ...]:
        """The component program both query algorithms iterate.

        One entry per level component, newest data first: ``C0'`` with
        ``B1^0``, then per level ``Ci`` with ``Bi`` and ``Ci'`` with
        ``B'i`` and ``B(i+1)^0``.  An entry is ``(run, complement,
        buffer lists, coverage)``: the complement is the B0 table of the
        next level holding the files already drained out of ``run`` —
        together they cover the original sorted run (Section V's
        "treated as a whole") — and coverage says whether the buffer
        lists record every round merged into the run (module docstring).
        The lists and flags are snapshots, cached like every engine's
        read orders until the next :meth:`_structure_changed`; only a
        file's ``removed`` marker moves in between, and it is read live.
        """
        program: list[Component] = [
            (self.c0_prime, self.buffer[1].incoming, (), False)
        ]
        for level in range(1, self.num_levels + 1):
            buf = self.buffer[level]
            program.append(
                (self.c[level], None, tuple(buf.tables), self._covers[level])
            )
            if level < self.num_levels:
                program.append(
                    (
                        self.cp[level],
                        self.buffer[level + 1].incoming,
                        tuple(buf.draining),
                        self._draining_covers[level],
                    )
                )
        return tuple(program)

    # ------------------------------------------------------------------
    # Random access (Algorithm 3, plus the C'/B0 combination rule).
    # ------------------------------------------------------------------
    def get(self, key: int) -> GetResult:
        """Point lookup: per component the run's gate, then buffer first.

        The component's index walk and Bloom gate are fused (same steps
        as ``find_file``/``find_block``/``may_contain``) with the probe
        counters in locals, flushed before any state-bearing step and at
        every exit, as :meth:`LSMEngine.get` does.  The accounting is
        Algorithm 3's, not the base descent's: the run's own index walk
        counts no ``index_probes``, each buffer table consulted counts
        one.
        """
        if self._closed:
            self._check_open()
        self.stats.gets += 1
        cost = ReadCost()
        cost.memtable_probes += 1
        entry = self.memtable.get(key)
        if entry is not None:
            return self._make_entry_result(entry, cost)
        program = self._read_orders
        if program is None:
            program = self._read_orders = self._derive_read_orders()
        tables_checked = 0
        bloom_probes = 0
        for run, complement, buffer_tables, _ in program:
            tables_checked += 1
            file = None
            max_keys = run._max_keys
            position = bisect_left(max_keys, key)
            if position != len(max_keys):
                file = run._files[position]
                if file.min_key > key:  # bisect guarantees key <= max_key.
                    file = None
            if file is None:
                if complement is None:
                    continue
                max_keys = complement._max_keys
                position = bisect_left(max_keys, key)
                if position == len(max_keys):
                    continue
                file = complement._files[position]
                if file.min_key > key:
                    continue
            if file.removed:
                file._check_not_removed()
            block_keys = file._block_max_keys
            if block_keys is None:
                block_keys = file._materialise()
            position = bisect_left(block_keys, key)
            if position == len(block_keys):
                continue
            block = file._blocks[position]
            if block.min_key > key:
                continue
            bloom_probes += 1
            bits = block._filter
            if bits is None:
                bits = block._build_filter()
            mask = block._masks[key]
            if bits & mask != mask:
                # The buffer lists hold subsets of this component, so a
                # negative here clears them too (Algorithm 3's level skip).
                continue
            cost.tables_checked += tables_checked
            cost.bloom_probes += bloom_probes
            tables_checked = 0
            bloom_probes = 0
            if buffer_tables:
                entry = self.buffer.search(buffer_tables, key, cost)
                if entry is not None:
                    self.lsbm_stats.reads_served_by_buffer += 1
                    return self._make_entry_result(entry, cost)
            self._read_block(file, block, cost)
            entry = block.get(key)
            if entry is None:
                cost.false_positive_blocks += 1
                continue
            self.lsbm_stats.reads_served_by_tree += 1
            return self._make_entry_result(entry, cost)
        cost.tables_checked += tables_checked
        cost.bloom_probes += bloom_probes
        return GetResult(False, None, cost)

    # ------------------------------------------------------------------
    # Range queries (Algorithm 4, plus the combination rule).
    # ------------------------------------------------------------------
    def scan(self, low: int, high: int) -> ScanResult:
        """Range query: each component from its buffer lists or its run.

        A component is served from its buffer lists only when they are a
        complete record of the run (no freeze since rotation) and no
        removed-file marker overlaps the range; otherwise from the
        underlying run plus its drained complement.  Either way every
        sorted table read is one :meth:`_scan_table_files` pass, and the
        sources reach the combine in probe order: the program's, and a
        component's buffer tables newest first, as Algorithm 3 probes them.
        """
        self._check_open()
        self.stats.scans += 1
        cost = ReadCost()
        sources: list[list[Entry]] = [self.memtable.entries_in_range(low, high)]
        program = self._read_orders
        if program is None:
            program = self._read_orders = self._derive_read_orders()
        for run, complement, buffer_tables, covered in program:
            groups = [run.files_overlapping(low, high)]
            if complement is not None:
                groups.append(complement.files_overlapping(low, high))
            if not any(groups):
                continue
            cost.tables_checked += 1
            if covered:
                buffered: list[list[SSTableFile]] = []
                for table in buffer_tables:
                    overlapping = table.files_overlapping(low, high)
                    if any(map(_is_removed, overlapping)):
                        buffered = []  # Algorithm 4 lines 11-13: clear F.
                        break
                    buffered.append(overlapping)
                if any(buffered):
                    groups = buffered  # One disk run per Bij touched.
            for group in groups:
                if group:
                    sources.append(
                        self._scan_table_files(group, low, high, cost)
                    )
        return ScanResult(newest_first(sources), cost)
