"""The generic design-space engine: any axis combination, one tree.

The remaining legacy engine classes — the bLSM gear and the HBase flat
store — each realize *one* point of the Sarkar compaction design space
(see :mod:`repro.lsm.policy`), written as their own
``_do_compactions``.  ComposedTree's pass interprets an arbitrary
:class:`~repro.lsm.policy.CompactionAxes` value instead, so the sweep
and tune layers can explore points the paper's baselines never
shipped — tiering with partial merges, lazy-leveling, and any of them
combined with the LSbM compaction buffer (``movement="lazy-adoption"``).
Two baselines are its points, each this class with the axes pinned:
the default point (size-ratio / leveling / partial / merge) is
:class:`~repro.lsm.leveldb.LevelDBTree`, and the stepped-merge point
(size-ratio / tiering / full-level / merge) is
:class:`~repro.lsm.sm_tree.SMTree`.

Data layout is uniform: ``levels[1..k]`` each hold a list of sorted
tables, oldest first.  Under ``leveling`` every level is pinned to a
single run (one table); under ``tiering`` every level holds up to
``size_ratio`` independent tables; ``lazy-leveling`` mixes the two —
tiering everywhere except a single-run last level.

Movement ``lazy-adoption`` generalizes LSbM's buffered merge beyond the
gear scheduler: every merge's input files are *re-referenced* into the
engine's :class:`~repro.core.compaction_buffer.CompactionBuffer` (the
same one LSbM keeps) instead of being deleted, and point reads check
each level's buffer before the level's own tables through LSbM's
Algorithm-3 probe, falling back to the tree the moment a removed-file
marker covers the key.  Only placement is this engine's own; three
things keep the buffer honest:

* the periodic :class:`~repro.core.trim.TrimProcess` removes files whose
  cached-block fraction fell below the threshold (Algorithm 2);
* per level, the buffer is bounded both by the level's capacity and by a
  table-count cap (``size_ratio`` tables), evicting oldest-first —
  evicting or pruning only the *oldest* table is what makes dropping its
  removed markers safe: no older table remains that a stopped search
  could incorrectly fall through to;
* the in-place collapse of a tiering last level never adopts (it is a
  rewrite of the level onto itself, not data newly arriving at a level).

Range scans bypass the buffer entirely and read the level tables — the
buffer holds copies, so the tables alone are always complete.  This is a
deliberate simplification versus LSbM's Algorithm 4 (scans there can be
served from buffered blocks); the differential tests in
``tests/test_design_space.py`` hold the whole engine to the KVOracle
regardless of axes.
"""

from __future__ import annotations

from repro.core.compaction_buffer import BufferLevel, CompactionBuffer
from repro.lsm.base import GetResult, LSMEngine, ReadCost
from repro.lsm.policy import CompactionAxes
from repro.sstable.entry import Entry
from repro.sstable.sorted_table import SortedTable
from repro.sstable.sstable import SSTableFile


class ComposedTree(LSMEngine):
    """An LSM engine assembled from declarative compaction axes."""

    name = "design"

    def __init__(self, substrate, axes: CompactionAxes | None = None) -> None:
        super().__init__(substrate)
        #: The design point; defaults to the config's four axis fields.
        self.axes = axes if axes is not None else CompactionAxes.from_config(
            self.config
        )
        self.num_levels = self.config.num_disk_levels
        #: levels[1..k]: sorted tables, oldest first.  A single-run level
        #: always holds exactly one table; index 0 is unused.
        self.levels: list[list[SortedTable]] = [
            [SortedTable()] if self._single_run(level) else []
            for level in range(self.num_levels + 1)
        ]
        #: Per-level key cursor for leveling + partial granularity
        #: (LevelDB-style round-robin through the key space).
        self._cursor: dict[int, int | None] = {
            i: None for i in range(1, self.num_levels)
        }
        if self.axes.movement == "lazy-adoption":
            self.buffer = CompactionBuffer(self)
            self._buffer_levels = self.buffer.levels
            #: Per-level cap on completed buffer tables: bounds the extra
            #: index probes a point read pays at ~one tiering level.
            self._buffer_max_tables = self.config.size_ratio
            # The point-read descent is chosen once, here: a buffered
            # point checks its buffer first; every other point reads
            # through ``LSMEngine.get`` with no frame in between.
            self.get = self._buffered_get

    # ------------------------------------------------------------------
    # Layout queries.
    # ------------------------------------------------------------------
    def _single_run(self, level: int) -> bool:
        """Is ``level`` pinned to one sorted run under the layout axis?"""
        layout = self.axes.layout
        if layout == "leveling":
            return True
        if layout == "lazy-leveling":
            return level == self.num_levels
        return False

    def level_size_kb(self, level: int) -> int:
        return sum(table.size_kb for table in self.levels[level])

    def _run_groups(self) -> list[list[SortedTable]]:
        """One group per level (a single-run level is a group of one)."""
        return self.levels[1:]

    # ------------------------------------------------------------------
    # Compaction: the pass interprets the axes — the trigger decides
    # *when* a level is due, layout + granularity decide *what* one unit
    # moves, movement decides what happens to the inputs.
    # ------------------------------------------------------------------
    def _do_compactions(self) -> None:
        if self.write_stalled:
            self._flush_pass()
        last = self.num_levels
        for level in range(1, last + 1):
            if level == last:
                # Only a multi-run last level has anywhere to go: it
                # collapses in place (the sole tombstone-dropping moment
                # for those layouts).  Single collapse per pass — a level
                # whose *live* data exceeds its capacity would otherwise
                # rewrite itself forever.
                if not self._single_run(level) and self._due(level):
                    self._collapse_last_level()
                break
            while self._due(level):
                if not self._compact_level_once(level):
                    break
        self._seal_adoptions()

    def _due(self, level: int) -> bool:
        """Is ``level`` due for compaction under the trigger axis?"""
        if level == self.num_levels and len(self.levels[level]) <= 1:
            return False  # Collapsing a single table is a no-op rewrite.
        if self.axes.trigger == "level-saturation" and not self._single_run(level):
            return len(self.levels[level]) > self.config.size_ratio
        return self.level_size_kb(level) > self.config.level_capacity_kb(level)

    def _flush_pass(self) -> None:
        """Flush the write buffer into level 1 per the layout axis."""
        files = self._flush_memtable_to_files()
        if not files:
            return
        if self._single_run(1):
            adopt = self.axes.movement == "lazy-adoption"
            run = self.levels[1][0]
            last = self.num_levels == 1
            for file in files:
                self._merge_into_run(
                    [file], run, last_level=last,
                    dispose_sources=not adopt, level=0,
                )
            if adopt:
                self._adopt(1, files)
        else:
            self.levels[1].append(SortedTable(files))

    def _compact_level_once(self, level: int) -> bool:
        """Move one granularity-sized unit from ``level`` down.

        Returns whether anything moved (guards the pass's drain loop).
        """
        full = self.axes.granularity == "full-level"
        if self._single_run(level):
            run = self.levels[level][0]
            if not run:
                return False
            if full:
                groups = [run.files]
                self.levels[level][0] = SortedTable()
            else:
                # LevelDB's round-robin pick inside a single-run level.
                file = run.first_after(self._cursor[level])
                self._cursor[level] = file.max_key
                run.remove(file)
                groups = [[file]]
        else:
            tables = self.levels[level]
            if not tables:
                return False
            # Oldest-first: full granularity takes the whole level,
            # partial takes the two oldest tables (the classic tiered
            # "merge the oldest runs" increment).
            count = len(tables) if full else min(2, len(tables))
            picked, self.levels[level] = tables[:count], tables[count:]
            groups = [table.files for table in picked]
        self._move_down(level, groups)
        return True

    def _move_down(self, level: int, groups: list[list[SSTableFile]]) -> None:
        """Merge file ``groups`` (one per source table) into ``level + 1``.

        The movement axis decides the inputs' fate: ``merge`` disposes
        them inside the merge; ``lazy-adoption`` re-references them into
        the target level's compaction buffer — group by group, because
        files from *different* source tables may overlap and a buffer
        table must stay a sorted, non-overlapping run.
        """
        target = level + 1
        adopt = self.axes.movement == "lazy-adoption"
        sources = [file for group in groups for file in group]
        if self._single_run(target):
            self._merge_into_run(
                sources,
                self.levels[target][0],
                last_level=target == self.num_levels,
                dispose_sources=not adopt,
                level=level,
            )
        else:
            self._merge_to_new_table(level, sources, dispose=not adopt)
        if adopt:
            for group in groups:
                self._adopt(target, group)

    def _merge_to_new_table(
        self, level: int, input_files: list[SSTableFile], dispose: bool
    ) -> None:
        """Merge ``input_files`` into one fresh table at ``level + 1``.

        The tiering move: the target level's existing tables are not
        read.  Tombstones are kept — the new table lands *next to* other
        tables, and one of those can still hold an older live version of
        a deleted key (the SM-tree's resurrection hazard).
        """

        def install(new_files: list[SSTableFile]) -> None:
            if new_files:
                self.levels[level + 1].append(SortedTable(new_files))

        self._rewrite_files(
            input_files,
            install,
            level=level,
            drop_tombstones=False,
            kind="tier",
            dying=input_files if dispose else [],
            temp_space=True,
        )

    def _collapse_last_level(self) -> None:
        """Merge the tiering last level into one table, in place.

        The only tombstone-dropping moment for multi-run last levels.
        Inputs are always disposed, whatever the movement axis: this is
        a rewrite of the level onto itself, not data arriving at a new
        level, so adopting would buffer bytes whose hotness the rewrite
        preserves anyway.
        """
        level = self.num_levels
        input_files = [f for table in self.levels[level] for f in table]
        if not input_files:
            return

        def install(new_files: list[SSTableFile]) -> None:
            self.levels[level] = [SortedTable(new_files)] if new_files else []

        self._rewrite_files(
            input_files,
            install,
            level=level,
            drop_tombstones=True,
            kind="collapse",
            temp_space=True,
        )

    # ------------------------------------------------------------------
    # Lazy adoption: the compaction buffer generalized beyond the gear.
    # ------------------------------------------------------------------
    def _adopt(self, level: int, files: list[SSTableFile]) -> None:
        """Re-reference one merge group into ``buffer[level]``'s Bi^0.

        Within a group files are key-ordered, but *across* calls (e.g.
        a wrapped compaction cursor) they need not be — an overlap with
        the incoming tail closes it and opens a fresh one.
        """
        buf = self.buffer[level]
        for file in files:
            tail = buf.incoming.max_key
            if tail is not None and file.min_key <= tail:
                buf.finalize_incoming()
            self.buffer.append(buf, file)

    def _seal_adoptions(self) -> None:
        """End-of-pass buffer upkeep: close Bi^0, enforce the bounds."""
        for buf in self._buffer_levels:
            buf.finalize_incoming()
            self._enforce_buffer_bounds(buf)

    def _enforce_buffer_bounds(self, buf: BufferLevel) -> None:
        """Capacity + table-count bound, evicting oldest tables whole.

        Only ever the oldest table goes: with no older table left behind
        it, dropping its removed markers cannot expose a stale version
        to a newest-first search.
        """
        capacity = self.config.level_capacity_kb(buf.level)
        tables = buf.tables
        while tables and (
            buf.live_kb > capacity or len(tables) > self._buffer_max_tables
        ):
            self.buffer.remove_table(tables.pop())

    def _prune_removed_tails(self) -> None:
        """Drop fully-trimmed oldest buffer tables (markers and all)."""
        for buf in self._buffer_levels:
            tables = buf.tables
            while tables and all(file.removed for file in tables[-1]):
                tables.pop()

    def tick(self, now: int) -> None:
        super().tick(now)
        if self.buffer is not None:
            self.buffer.trim.maybe_run(now, self._buffer_levels)
            self._prune_removed_tails()

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------
    def _buffered_get(self, key: int) -> GetResult:
        """Buffer-first point lookup: ``get`` of a ``lazy-adoption`` point."""
        self._check_open()
        self.stats.gets += 1
        cost = ReadCost()
        cost.memtable_probes += 1
        entry = self.memtable.get(key)
        if entry is not None:
            return self._make_entry_result(entry, cost)
        for level, buf in enumerate(self._buffer_levels, 1):
            # Buffer first: its newest table holds the freshest copy of
            # whatever was last merged into this level, likely still
            # cache-resident.  A removed marker stops the buffer check
            # and the level's own tables answer (Algorithm 3's rule).
            entry = self.buffer.search(buf.tables, key, cost)
            if entry is not None:
                return self._make_entry_result(entry, cost)
            for table in reversed(self.levels[level]):  # Newest first.
                entry = self._search_table(table, key, cost)
                if entry is not None:
                    return self._make_entry_result(entry, cost)
        return GetResult(False, None, cost)

    # ------------------------------------------------------------------
    # Bulk loading.
    # ------------------------------------------------------------------
    def bulk_load(self, entries: list[Entry]) -> None:
        files = self.builder.build(iter(entries), cause="preload")
        last = self.num_levels
        if self._single_run(last):
            for file in files:
                self.levels[last][0].append(file)
        else:
            self.levels[last].append(SortedTable(files))
        self._seq = max(self._seq, max((e.seq for e in entries), default=0))
        self._structure_changed()
