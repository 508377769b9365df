"""Compaction-buffer data structures (Sections III and IV).

The compaction buffer is LSbM's second on-disk structure: per level it
keeps lists of sorted tables built purely by *re-referencing* files that
the underlying LSM-tree's compactions would otherwise delete.  Because the
files never move, the DB buffer cache blocks indexed through them survive
the compaction that rewrote the same logical data inside the tree.

Per level ``i`` (1 ≤ i ≤ k) a :class:`BufferLevel` holds three pieces,
mirroring the paper's notation:

* ``incoming`` — the table currently being appended, ``Bi^0``: it receives
  the files drained from ``C'(i-1)`` during the present merge round and is
  the key-range complement of ``C'(i-1)``.
* ``tables`` — the completed lists ``Bi^j`` (newest first), serving reads
  against ``Ci``.
* ``draining`` — ``B'i``: the former ``tables``, moved here when ``Ci``
  rotated into ``C'i``; its files are *gradually* removed in lockstep with
  ``C'i``'s drain (Algorithm 1 lines 18-20) so the buffer cache never
  loses the whole hot set at once.

``frozen`` implements the repeated-data rule of Section IV-A: once a merge
into level ``i`` is observed dropping obsolete entries, appends stop (and
the accumulated lists are discarded) until ``Ci`` itself is merged down.

One :class:`CompactionBuffer` per engine owns the levels and the whole
mechanism both buffered engines share: appending a file, removing one
(its extent freed, its cached blocks invalidated, its key-range marker
kept), the append/remove counters, the memoised live size, the trim
process and Algorithm 3's newest-first probe of a buffer list.  Where
files enter and leave the lists (*placement*) stays with each engine:
the LSbM gear rotates, freezes and paces the drain of ``B'i``; the
design-space interpreter adopts merge inputs and bounds each level.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.trim import TrimProcess
from repro.obs.events import FileDiscarded
from repro.sstable.sorted_table import SortedTable
from repro.sstable.sstable import SSTableFile

if TYPE_CHECKING:
    from repro.lsm.base import LSMEngine, ReadCost
    from repro.sstable.entry import Entry


@dataclass
class BufferLevel:
    """The compaction-buffer state of one on-disk level."""

    level: int
    incoming: SortedTable = field(default_factory=SortedTable)
    tables: list[SortedTable] = field(default_factory=list)
    draining: list[SortedTable] = field(default_factory=list)
    draining_initial_kb: float = 0.0
    frozen: bool = False

    # ------------------------------------------------------------------
    # Sizes.
    # ------------------------------------------------------------------
    @property
    def live_kb(self) -> int:
        """Live buffer data serving ``Ci`` (incoming + completed tables)."""
        total = self.incoming.size_kb
        for table in self.tables:
            total += table.size_kb
        return total

    @property
    def draining_live_kb(self) -> int:
        """Live data in ``B'i`` (removed markers excluded)."""
        total = 0
        for table in self.draining:
            total += table.size_kb
        return total

    @property
    def total_live_kb(self) -> int:
        """Live data in ``Bi^0``, ``Bi`` and ``B'i``."""
        return self.live_kb + self.draining_live_kb

    # ------------------------------------------------------------------
    # Round transitions.
    # ------------------------------------------------------------------
    def finalize_incoming(self) -> None:
        """Close ``Bi^0``: it becomes the newest completed table."""
        if self.incoming:
            self.tables.insert(0, self.incoming)
        self.incoming = SortedTable()

    def start_drain(self) -> list[SortedTable]:
        """Move ``Bi`` into ``B'i`` at a level rotation.

        Returns any leftover previous ``B'i`` tables; the engine removes
        their remaining files outright (the previous round is over, so
        their reads have fully transferred to the next level).
        """
        leftovers = self.draining
        self.draining = self.tables
        self.tables = []
        self.draining_initial_kb = float(self.draining_live_kb)
        return leftovers

    def take_all_serving(self) -> list[SortedTable]:
        """Detach ``incoming`` + ``tables`` (freeze path); returns them."""
        detached = list(self.tables)
        if self.incoming:
            detached.insert(0, self.incoming)
        self.tables = []
        self.incoming = SortedTable()
        return detached

    # ------------------------------------------------------------------
    # Pace removal support.
    # ------------------------------------------------------------------
    def smallest_draining_file(self) -> SSTableFile | None:
        """The live ``B'i`` file with the smallest maximum key.

        Algorithm 1 removes files in key order so that ``B'i`` sheds the
        same key-space portion that ``C'i`` has already merged down.
        """
        best: SSTableFile | None = None
        for table in self.draining:
            for file in table:
                if file.removed:
                    continue
                if best is None or file.max_key < best.max_key:
                    best = file
                break  # Files are key-ordered; first live one is minimal.
        return best

    # ------------------------------------------------------------------
    # Trim support.
    # ------------------------------------------------------------------
    def trimmable_tables(self) -> list[SortedTable]:
        """Tables eligible for the trim process.

        Algorithm 2 skips ``Bi^0`` — the most recent data, still actively
        warming the buffer cache.  Here that means the ``incoming`` table
        and the newest completed table are exempt; older completed tables
        and every draining table are trimmed.
        """
        return self.tables[1:] + self.draining

    def live_files(self) -> list[SSTableFile]:
        """Every non-removed file currently referenced by this level."""
        files = [f for f in self.incoming if not f.removed]
        for table in self.tables:
            files.extend(f for f in table if not f.removed)
        for table in self.draining:
            files.extend(f for f in table if not f.removed)
        return files


@dataclass
class BufferStats:
    """Files a compaction buffer appended and removed since it was built."""

    buffer_files_appended: int = 0
    buffer_files_removed: int = 0


class CompactionBuffer:
    """One engine's compaction buffer: its levels and its mechanism.

    ``buffer[i]`` is level ``i``'s :class:`BufferLevel` (index 0 is
    unused: level 0 lives in DRAM); :attr:`levels` is levels ``1..k`` in
    order, the stable view the per-tick walks reuse.
    """

    def __init__(
        self, engine: LSMEngine, stats: BufferStats | None = None
    ) -> None:
        self._by_level = [
            BufferLevel(level) for level in range(engine.num_levels + 1)
        ]
        self.levels = self._by_level[1:]
        #: Bumped on every append and removal; an engine may pass a
        #: subclass carrying its own counters (``LSbMStats``).
        self.stats = stats if stats is not None else BufferStats()
        self._db_cache = engine.db_cache
        self._disk = engine.disk
        self._bus = engine.bus
        self._read_block = engine._read_block
        # Buffer appends and trim removals move no data — the paper's
        # "no additional I/O" claim.  Registering them as zero-I/O causes
        # makes per-cause bandwidth reports state that explicitly (0 KB)
        # instead of omitting the rows.
        engine.disk.record_cause("buffer-append")
        engine.disk.record_cause("trim")
        cache = self._db_cache
        self.trim = TrimProcess(
            engine.config,
            cached_blocks=(
                cache.cached_blocks if cache is not None else lambda file_id: 0
            ),
            remove_file=self.remove_file,
            bus=engine.bus,
        )
        # The sampled size is cached between membership changes: every
        # path that adds or removes a live buffer file bumps one of the
        # two counters, so the key below invalidates on exactly the
        # events that can change the total.
        self._kb_key: tuple[int, int] | None = None
        self._kb_total = 0

    def __getitem__(self, level):
        return self._by_level[level]

    # ------------------------------------------------------------------
    # Membership.
    # ------------------------------------------------------------------
    def append(self, buf: BufferLevel, file: SSTableFile) -> None:
        """Re-reference a merge input into ``buf``'s ``Bi^0``."""
        buf.incoming.append(file)
        self.stats.buffer_files_appended += 1

    def remove_file(self, file: SSTableFile) -> None:
        """Remove a file from the compaction buffer (Section IV-A).

        The file's data leaves the disk and the cache; only its key-range
        marker survives inside its sorted table so queries know to fall
        back to the underlying tree.
        """
        if self._db_cache is not None:
            self._db_cache.invalidate_file(file.file_id)
        self._disk.free(file.extent)
        file.mark_removed()
        self.stats.buffer_files_removed += 1
        bus = self._bus
        if bus.active:
            if bus.counting_only:
                bus.count(FileDiscarded)
            else:
                bus.emit(
                    FileDiscarded(
                        file_id=file.file_id,
                        size_kb=file.size_kb,
                        reason="buffer",
                    )
                )

    def remove_table(self, table: SortedTable) -> None:
        """Remove every live file of ``table``; its markers stay."""
        for file in table:
            if not file.removed:
                self.remove_file(file)

    @property
    def total_live_kb(self) -> int:
        """Live on-disk size of the whole compaction buffer."""
        stats = self.stats
        key = (stats.buffer_files_appended, stats.buffer_files_removed)
        if key != self._kb_key:
            total = 0
            for buf in self.levels:
                total += buf.total_live_kb
            self._kb_total = total
            self._kb_key = key
        return self._kb_total

    # ------------------------------------------------------------------
    # Random access (Algorithm 3's buffer check).
    # ------------------------------------------------------------------
    def search(
        self, tables: list[SortedTable], key: int, cost: ReadCost
    ) -> Entry | None:
        """Check a compaction-buffer list newest-table-first.

        Each table consulted counts one ``index_probes``.  A removed-file
        marker covering the key stops the whole check (Algorithm 3 lines
        15-16): the newest version might have been in the removed file,
        so only the underlying tree can answer safely.  The index walk
        and Bloom gate are fused, the same steps as ``find_file`` /
        ``find_block`` / ``may_contain``.
        """
        for table in tables:
            cost.index_probes += 1
            max_keys = table._max_keys
            position = bisect_left(max_keys, key)
            if position == len(max_keys):
                continue
            file = table._files[position]
            if file.min_key > key:
                continue
            if file.removed:
                return None
            block_keys = file._block_max_keys
            if block_keys is None:
                block_keys = file._materialise()
            position = bisect_left(block_keys, key)
            if position == len(block_keys):
                continue
            block = file._blocks[position]
            if block.min_key > key:
                continue
            cost.bloom_probes += 1
            bits = block._filter
            if bits is None:
                bits = block._build_filter()
            mask = block._masks[key]
            if bits & mask != mask:
                continue
            self._read_block(file, block, cost)
            entry = block.get(key)
            if entry is not None:
                return entry
            cost.false_positive_blocks += 1
        return None
