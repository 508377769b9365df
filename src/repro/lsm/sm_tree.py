"""The Stepped-Merge tree (Jagadish et al., VLDB '97) — SM-tree baseline.

Section I-A / VI-D: data is organized in exponentially growing levels like
an LSM-tree, but "data objects in a level are not fully sorted and only be
read out and sorted when they are moved to the next level."  Each level
holds 0..r independent sorted tables; when the write buffer fills it is
appended to level 1 as a new table, and when level ``i`` fills, *all* its
tables are merged together and appended to level ``i+1`` as one table.

This slashes compaction traffic (and therefore cache invalidation), but the
paper shows the two prices paid:

* range queries must seek into every table of every level (228 QPS in
  Fig. 11), and
* obsolete versions pile up in the last level until it fills, inflating the
  database size by ~50% with periodic whole-level merge bursts
  (Figs. 12/13).

The last level collapses in place only while it holds two or more
tables: once a single table's live data fills it, nothing is left to
drop, and merging it again on every pass would rewrite the level over
and over (about 4,350x the ingest on ``SystemConfig.tiny()``).
"""

from __future__ import annotations

from repro.lsm.base import LSMEngine
from repro.sstable.entry import Entry
from repro.sstable.sorted_table import SortedTable
from repro.sstable.sstable import SSTableFile


class SMTree(LSMEngine):
    """Stepped-merge LSM variant: multiple sorted tables per level."""

    name = "sm"

    def __init__(self, substrate) -> None:
        super().__init__(substrate)
        self.num_levels = self.config.num_disk_levels
        #: levels[1..k]: newest table last.
        self.levels: list[list[SortedTable]] = [
            [] for _ in range(self.num_levels + 1)
        ]

    def _run_groups(self) -> list[list[SortedTable]]:
        """One group per level; a level's tables are stored oldest first."""
        return self.levels[1:]

    # ------------------------------------------------------------------
    # Sizes.
    # ------------------------------------------------------------------
    def level_size_kb(self, level: int) -> int:
        return sum(table.size_kb for table in self.levels[level])

    # ------------------------------------------------------------------
    # Compactions (lazy stepped merges).
    # ------------------------------------------------------------------
    def _do_compactions(self) -> None:
        """Append a full write buffer to level 1, then merge every level
        at (``>=``) its size-ratio capacity whole into the next.

        The last level is skipped while it holds fewer than two tables:
        a single collapsed table has no obsolete version left to drop,
        and when its live data alone reaches the capacity, re-merging it
        on every pass rewrites the whole level for nothing.
        """
        if self.write_stalled:
            files = self._flush_memtable_to_files()
            self.levels[1].append(SortedTable(files))
        for level in range(1, self.num_levels + 1):
            if level == self.num_levels and len(self.levels[level]) < 2:
                continue
            if self.level_size_kb(level) >= self.config.level_capacity_kb(level):
                self._merge_whole_level(level)

    def _merge_whole_level(self, level: int) -> None:
        """Merge every table of ``level`` into one table one level down.

        For the last level the merged result stays in place — this is the
        only moment obsolete versions (and expired tombstones) are finally
        dropped, which is why they accumulate in between.
        """
        tables = self.levels[level]
        if not tables:
            return
        target_level = min(level + 1, self.num_levels)

        def install(new_files: list[SSTableFile]) -> None:
            self.levels[level] = []
            self.levels[target_level].append(SortedTable(new_files))

        # Tombstones may only be dropped by the in-place collapse of the
        # last level itself: a merge of level k-1 *into* level k appends a
        # new table next to existing last-level tables, and one of those
        # can still hold an older live version of a deleted key — dropping
        # the tombstone there would resurrect it on the next read.
        # Inputs and output coexist until the install completes; this is
        # the transient space behind Fig. 12's bursts.
        self._rewrite_files(
            [file for table in tables for file in table],
            install,
            level=level,
            drop_tombstones=level == self.num_levels,
            kind="whole-level",
            temp_space=True,
        )

    # ------------------------------------------------------------------
    # Bulk loading.
    # ------------------------------------------------------------------
    def bulk_load(self, entries: list[Entry]) -> None:
        files = self.builder.build(iter(entries), cause="preload")
        self.levels[self.num_levels].append(SortedTable(files))
        self._seq = max(self._seq, max((e.seq for e in entries), default=0))
        self._structure_changed()
