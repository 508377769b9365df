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

from repro.errors import EngineError
from repro.lsm.base import LSMEngine, MergeOutcome
from repro.sstable.entry import Entry
from repro.sstable.sorted_table import SortedTable
from repro.sstable.sstable import SSTableFile
from repro.sstable.superfile import group_into_superfiles


class BLSMTree(LSMEngine):
    """Gear-scheduled leveled LSM-tree with Ci/Ci' per level."""

    name = "blsm"

    def __init__(self, substrate) -> None:
        super().__init__(substrate)
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

    def _run_groups(self) -> list[list[SortedTable]]:
        """C0', C1, C1', ..., Ck: each a single run, newest data first."""
        groups = [[self.c0_prime]]
        for level in range(1, self.num_levels + 1):
            groups.append([self.c[level]])
            if level < self.num_levels:
                groups.append([self.cp[level]])
        return groups

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
    # The gear scheduler: Algorithm 1's control flow, then the hooks it
    # drives (the seam LSbM overrides to add the compaction-buffer
    # lines, which flips the data-movement axis to lazy adoption).
    # ------------------------------------------------------------------
    def _do_compactions(self) -> None:
        while self.write_stalled:
            if not self._one_pass():
                break

    def _one_pass(self) -> bool:
        """One gear pass: compact one unit at every full level in the prefix.

        Level 0 is full on entry (the caller's trigger); deeper levels
        are full at their size-ratio capacity.  Returns whether any unit
        moved (guards against livelock when the write buffer alone
        exceeds S0 but holds nothing flushable).
        """
        capacity_kb = self.config.level_capacity_kb
        progressed = False
        for level in range(self.num_levels):  # i from 0 to k-1.
            if level and self.level_total_kb(level) < capacity_kb(level):
                break
            source = self._source(level)
            if not source:
                self._rotate(level)
                source = self._source(level)
            if not source:
                break  # Nothing materialized (e.g. an empty memtable).
            unit = self._pop_unit(source)
            self._compact_unit(level, unit)
            progressed = True
        return progressed

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
            # Level 0's new run object is booked by the flush; nothing
            # books this swap, since the pass may go on to move nothing
            # (an empty source).
            self._structure_changed()

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
    # Bulk loading.
    # ------------------------------------------------------------------
    def bulk_load(self, entries: list[Entry]) -> None:
        files = self.builder.build_grouped(iter(entries), cause="preload")
        for file in files:
            self.c[self.num_levels].append(file)
        self._seq = max(self._seq, max((e.seq for e in entries), default=0))
        self._structure_changed()
