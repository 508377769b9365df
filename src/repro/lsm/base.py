"""Shared machinery for every LSM engine in the reproduction.

All engines — LevelDB, bLSM, SM-tree and LSbM — are built over the same
typed :class:`~repro.substrate.Substrate` (simulated disk, DB and/or OS
buffer cache, configuration, metrics registry, event bus) and share the
same *costed* read primitives: every query returns not just its answer but
a :class:`ReadCost` describing the operation's shape (cache hits, random
disk blocks, sequential runs, Bloom probes).  The simulation driver
converts that shape into modeled service time; the engines themselves stay
purely logical.

Every structural state transition — flush, compaction, file creation and
discard — is published on the substrate's event bus (see
:mod:`repro.obs.events`), so observers can follow compaction behaviour
between the driver's per-second samples.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_left
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.cache.db_cache import BlockKey, DBBufferCache
from repro.cache.os_cache import OSBufferCache
from repro.errors import EngineError
from repro.lsm.memtable import Memtable
from repro.lsm.wal import WriteAheadLog
from repro.obs.events import (
    CompactionEnd,
    CompactionStart,
    FileDiscarded,
    FlushDone,
    MemtableResized,
)
from repro.sstable.entry import Kind
from repro.sstable.block import Block
from repro.sstable.builder import TableBuilder
from repro.sstable.entry import Entry
from repro.sstable.iterator import merge_with_obsolete_count, newest_first
from repro.sstable.sorted_table import SortedTable
from repro.sstable.sstable import FileIdSource, SSTableFile
from repro.sstable.superfile import SuperFileIdSource
from repro.substrate import Substrate

if TYPE_CHECKING:  # ``repro.core`` imports this module.
    from repro.core.compaction_buffer import BufferLevel, CompactionBuffer

#: Sorted runs in the order one kind of query visits them.
RunOrder = tuple[SortedTable, ...]


def compaction_cause(level: int) -> str:
    """The bandwidth-attribution cause of a compaction at ``level``.

    ``compaction:L2`` for a source level, bare ``compaction`` when the
    engine has no levels (flat stores pass -1).
    """
    return f"compaction:L{level}" if level >= 0 else "compaction"


@dataclass(slots=True)
class ReadCost:
    """The I/O shape of one query (the driver prices it)."""

    memtable_probes: int = 0
    index_probes: int = 0
    bloom_probes: int = 0
    cache_hit_blocks: int = 0
    os_hit_blocks: int = 0
    disk_random_blocks: int = 0
    seq_runs: int = 0
    seq_kb: float = 0.0
    false_positive_blocks: int = 0
    tables_checked: int = 0

    @property
    def block_reads(self) -> int:
        return self.cache_hit_blocks + self.os_hit_blocks + self.disk_random_blocks


class GetResult:
    """Outcome of a point lookup.

    ``value`` materializes lazily from the matched entry: the simulation
    kernel prices reads by ``cost`` alone and never reads the payload, so
    hit lookups skip building the value string until a caller (tests, the
    differential checker, the service layer) actually asks for it.
    """

    __slots__ = ("found", "cost", "_value", "_entry")

    def __init__(
        self,
        found: bool,
        value: str | None,
        cost: ReadCost,
        _entry: Entry | None = None,
    ) -> None:
        self.found = found
        self.cost = cost
        self._value = value
        self._entry = _entry

    @property
    def value(self) -> str | None:
        entry = self._entry
        if entry is not None:
            self._value = entry.value()
            self._entry = None
        return self._value

    def __repr__(self) -> str:
        return (
            f"GetResult(found={self.found}, value={self.value!r}, "
            f"cost={self.cost!r})"
        )


@dataclass(slots=True)
class ScanResult:
    """Outcome of a range query."""

    entries: list[Entry]
    cost: ReadCost


@dataclass
class EngineStats:
    """Cumulative engine-side counters."""

    puts: int = 0
    deletes: int = 0
    gets: int = 0
    scans: int = 0
    flushes: int = 0
    compactions: int = 0
    compaction_read_kb: float = 0.0
    compaction_write_kb: float = 0.0
    obsolete_entries_dropped: int = 0
    #: Cumulative virtual seconds writers spent blocked on a full write
    #: buffer (see :meth:`LSMEngine.run_compactions`); the single source
    #: both admission control and reports read write-stall pressure from.
    stall_seconds: float = 0.0


@dataclass
class MergeOutcome:
    """What one compaction step produced."""

    new_files: list[SSTableFile] = field(default_factory=list)
    obsolete_entries: int = 0
    read_kb: float = 0.0
    write_kb: float = 0.0


class LSMEngine(ABC):
    """Abstract base of all engines: substrate wiring + costed reads."""

    #: Human-readable engine name, overridden by subclasses.
    name = "lsm"

    def __init__(self, substrate: Substrate) -> None:
        """Wire the engine over ``substrate``, the stack it is built from."""
        self.substrate = substrate
        self.config = substrate.config
        self.clock = substrate.clock
        self.disk = substrate.disk
        self.db_cache = substrate.db_cache
        self.os_cache = substrate.os_cache
        self.registry = substrate.registry
        self.bus = substrate.bus
        self.file_ids = FileIdSource()
        self.superfile_ids = SuperFileIdSource()
        self.builder = TableBuilder(
            self.config, self.disk, self.file_ids, self.superfile_ids, self.bus
        )
        self.memtable = Memtable(self.config.pair_size_kb)
        self.wal: WriteAheadLog | None = (
            WriteAheadLog(self.disk, self.config.pair_size_kb)
            if self.config.wal_enabled
            else None
        )
        self.stats = EngineStats()
        self.registry.register(self.metrics)
        #: Live write-buffer budget in KB: the bound level 0 is held to by
        #: the flush/gear triggers and the write-stall threshold.  Starts
        #: at (and without a runtime controller stays forever equal to)
        #: ``config.level0_size_kb``; the adaptive controller's memory
        #: actuator moves it via :meth:`set_memtable_budget`.
        self.memtable_budget_kb = self.config.level0_size_kb
        self._seq = 0
        #: Highest flushed seq whose WAL prefix still awaits truncation.
        #: Truncation is deferred to the end of the compaction pass so a
        #: crash anywhere inside the pass leaves the full tail durable.
        self._pending_wal_truncate_seq = 0
        #: Bumped (by :meth:`_structure_changed`) by everything a
        #: compaction pass's outcome depends on besides level-0 fullness:
        #: a flush, a compaction, a budget move, a crash or a recovery.
        #: ``_idle_version`` is the value at which a whole pass was last
        #: seen to change nothing (see :meth:`run_compactions`).
        self._structure_version = 0
        self._idle_version = -1
        #: The read shape as :meth:`_derive_read_orders` last gave it —
        #: ``(probe order, scan order)``, or whatever an engine that owns
        #: its ``get``/``scan`` derives instead (LSbM: its component
        #: program); ``None`` between a :meth:`_structure_changed` and
        #: the next read.
        self._read_orders: tuple | None = None
        #: The compaction buffer; ``None`` for engines without one.
        self.buffer: CompactionBuffer | None = None
        #: The compaction buffer's levels; empty for engines without one.
        self._buffer_levels: list[BufferLevel] = []
        self._closed = False

    # ------------------------------------------------------------------
    # The typed engine protocol the simulation driver consumes.
    # ------------------------------------------------------------------
    @property
    def metric_cache(self) -> DBBufferCache | OSBufferCache | None:
        """The cache whose hit ratio forms an experiment's reported series.

        The DB buffer cache when the stack has one, else the OS page
        cache, else ``None`` — the rule the driver previously implemented
        by duck-probing engine attributes.
        """
        if self.db_cache is not None:
            return self.db_cache
        return self.os_cache

    @property
    def compaction_buffer_kb(self) -> int | None:
        """Live on-disk size of the compaction buffer; ``None`` without one.

        LSbM and the design-space points with ``lazy-adoption`` movement
        keep a compaction buffer; every other engine reports ``None`` so
        samplers can skip the series entirely.
        """
        buffer = self.buffer
        return None if buffer is None else buffer.total_live_kb

    def _level0_kb(self) -> int:
        """Occupied level-0 size; gear engines add the on-disk ``C0'``."""
        return self.memtable.size_kb

    @property
    def l0_pressure(self) -> float:
        """Write-buffer fullness as a fraction of ``S0``.

        At 1.0 the buffer is full and the next write blocks behind the
        drain.
        """
        return self._level0_kb() / self.memtable_budget_kb

    @property
    def write_stalled(self) -> bool:
        """True when level 0 is full and writes would block.

        The one level-0 trigger: every engine's :meth:`_do_compactions`
        flushes (or starts its gear) exactly when this holds, which is
        what :meth:`run_compactions`' skip rule relies on.
        """
        return self._level0_kb() >= self.memtable_budget_kb

    def set_memtable_budget(self, budget_kb: int) -> None:
        """Move the live write-buffer budget (runtime-controller actuator).

        A larger budget lets level 0 absorb bursts before the gear
        trigger fires (fewer write stalls, at the cost of memory that
        could cache reads); a smaller one flushes earlier.  Floored at
        one file so a flush can always materialize.  Publishes
        :class:`~repro.obs.events.MemtableResized` when the budget
        actually moves.
        """
        budget_kb = max(int(budget_kb), self.config.file_size_kb)
        old = self.memtable_budget_kb
        if budget_kb == old:
            return
        self.memtable_budget_kb = budget_kb
        self._structure_changed()
        bus = self.bus
        if bus.active:
            if bus.counting_only:
                bus.count(MemtableResized)
            else:
                bus.emit(MemtableResized(old_kb=old, new_kb=budget_kb))

    # ------------------------------------------------------------------
    # Write path (shared).
    # ------------------------------------------------------------------
    def put(self, key: int) -> int:
        """Insert/overwrite ``key``; returns the assigned sequence number."""
        if self._closed:
            self._check_open()
        self._seq += 1
        if self.wal is not None:
            self.wal.append(key, self._seq, Kind.PUT)
        self.memtable.put(key, self._seq)
        self.stats.puts += 1
        self._maybe_schedule_compactions()
        return self._seq

    def delete(self, key: int) -> int:
        """Delete ``key`` (writes a tombstone)."""
        self._check_open()
        self._seq += 1
        if self.wal is not None:
            self.wal.append(key, self._seq, Kind.DELETE)
        self.memtable.delete(key, self._seq)
        self.stats.deletes += 1
        self._maybe_schedule_compactions()
        return self._seq

    def _maybe_schedule_compactions(self) -> None:
        """Run compaction work if the write buffer demands it.

        The default couples compactions directly to writes (the gear
        principle); engines with different trigger rules override this.
        """
        self.run_compactions()

    def adopt_entries(self, entries: list[Entry]) -> int:
        """Ingest entries from another engine, keeping their seqs.

        The receiving half of a live shard split: the source shard's
        newest live versions (from a range scan) enter through the normal
        write path — WAL first, then memtable — except that each entry
        keeps the sequence number the *source* assigned it, so values
        (``value_for(key, seq)``) survive the move byte-for-byte.  The
        local seq counter is bumped past the adopted maximum so writes
        dispatched here afterwards always win the merge.  Returns the
        number of entries adopted.
        """
        self._check_open()
        for entry in entries:
            if self.wal is not None:
                self.wal.append(entry.key, entry.seq, entry.kind)
            if entry.is_tombstone:
                self.memtable.delete(entry.key, entry.seq)
            else:
                self.memtable.put(entry.key, entry.seq)
            if entry.seq > self._seq:
                self._seq = entry.seq
        self._maybe_schedule_compactions()
        return len(entries)

    # ------------------------------------------------------------------
    # Abstract engine-specific behaviour.
    # ------------------------------------------------------------------
    @abstractmethod
    def _run_groups(self) -> list[list[SortedTable]]:
        """The tree's on-disk sorted runs: the one shape declaration.

        An ordered list of *groups*, newest data first; each group lists
        its runs oldest first (a level of a tiered tree is one group, a
        single sorted run is a group of one).  Everything that needs to
        know which runs the engine holds reads this: the query path
        (through :meth:`_derive_read_orders`),
        ``check.reflect.live_files`` and ``validation.check_engine``.
        """

    def _structure_changed(self) -> None:
        """Note that the tree's structure (or its write budget) moved.

        The one place ``_structure_version`` is bumped and the cached
        read orders are dropped.  The orders are re-derived on the next
        read, not here, so an engine may go on replacing run objects
        after the call (a flush is booked before its table is appended)
        as long as no query runs in between — and none can: queries
        enter between engine calls, never inside one.
        """
        self._structure_version += 1
        self._read_orders = None

    def _derive_read_orders(self) -> tuple[RunOrder, tuple[RunOrder, ...]]:
        """Flatten the hook into ``(probe order, scan groups)``.

        A point read must meet the newest version first, so it takes
        each group's runs newest first.  A scan touches blocks as
        stored — the groups newest first, each group's runs oldest
        first — and keeps the group boundaries so it can hand its
        sources on in probe order.  Both orders are kept exactly
        because both reach ``db_cache.access``: the order blocks are
        touched in is LRU state, hence every later hit, miss and price.
        """
        groups = self._run_groups()
        return (
            tuple(run for group in groups for run in reversed(group)),
            tuple(map(tuple, groups)),
        )

    def get(self, key: int) -> GetResult:
        """Point lookup of the newest version of ``key``.

        Memtable, then every on-disk run in probe order through index,
        Bloom filter and block.  The descent inlines
        :meth:`_search_table` with the probe counters accumulated in
        locals — identical cost accounting (the counters are flushed to
        ``cost`` before any state-bearing step and at every exit),
        without a method call per run; over half the per-run searches
        end at the index gate.
        """
        if self._closed:
            self._check_open()
        self.stats.gets += 1
        cost = ReadCost()
        cost.memtable_probes += 1
        entry = self.memtable.get(key)
        if entry is not None:
            return self._make_entry_result(entry, cost)
        orders = self._read_orders
        if orders is None:
            orders = self._read_orders = self._derive_read_orders()
        tables_checked = 0
        index_probes = 0
        bloom_probes = 0
        for table in orders[0]:
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
            if block_keys is None:  # First point read to reach the file.
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
        """Range query over ``low <= key <= high`` (newest versions)."""
        self._check_open()
        self.stats.scans += 1
        cost = ReadCost()
        sources: list[list[Entry]] = [self.memtable.entries_in_range(low, high)]
        orders = self._read_orders
        if orders is None:
            orders = self._read_orders = self._derive_read_orders()
        for group in orders[1]:
            found: list[list[Entry]] = []
            for table in group:
                overlapping = table.files_overlapping(low, high)
                if overlapping:
                    cost.tables_checked += 1
                    found.append(
                        self._scan_table_files(overlapping, low, high, cost)
                    )
            sources += reversed(found)  # Probe order: newest run first.
        return ScanResult(newest_first(sources), cost)

    def run_compactions(self) -> None:
        """Perform whatever compaction work current sizes demand.

        Concrete wrapper around the engine-specific
        :meth:`_do_compactions`: after the pass completes, the WAL prefix
        covering any data flushed during the pass is truncated.  Nothing
        is truncated mid-pass, so a crash at any point inside leaves a
        log that still covers every unflushed write (replay is idempotent
        — same key, same seq — even for records whose data did reach
        disk).

        When the pass starts with the write buffer at or over ``S0``
        (:attr:`write_stalled`), the writer that triggered it is blocked
        until the drain makes room — a *write stall*.  The pass's
        sequential device traffic at the background bandwidth is the
        modeled stall duration, accrued into ``stats.stall_seconds`` and
        the ``engine.stall_seconds`` counter so admission control, the
        driver's stall series and reports all read one source.

        Every ``put`` lands here, and nearly every call has nothing to
        do, so a pass that would change nothing is skipped.  What a pass
        does is a function of the structure and of whether level 0 is
        full (every pass flushes on :attr:`write_stalled`): if
        the previous pass changed nothing, the structure is as it left it
        and level 0 is still below its budget, this one would change
        nothing either — for any engine, including one that finds work
        on every pass (a last level over capacity re-collapses each
        time, and is never skipped).  No stall can accrue below the
        budget, and no WAL truncate can be pending: only a flush sets the
        marker, and a flush is a structure change.
        """
        version = self._structure_version
        stalled = self.write_stalled
        if version == self._idle_version and not stalled:
            return
        if stalled:
            disk_stats = self.disk.stats
            before_kb = disk_stats.seq_read_kb + disk_stats.seq_write_kb
        self._do_compactions()
        if stalled:
            moved_kb = (
                disk_stats.seq_read_kb + disk_stats.seq_write_kb - before_kb
            )
            if moved_kb > 0:
                stall_s = moved_kb / self.config.seq_bandwidth_kb_per_s
                self.stats.stall_seconds += stall_s
        self._apply_pending_wal_truncate()
        if self._structure_version == version:
            self._idle_version = version

    @abstractmethod
    def _do_compactions(self) -> None:
        """One compaction pass: the control flow of the engine's point."""

    @abstractmethod
    def bulk_load(self, entries: list[Entry]) -> None:
        """Preload sorted unique entries directly into the last level."""

    def tick(self, now: int) -> None:
        """Once-per-virtual-second housekeeping hook."""
        self.run_compactions()

    @property
    def db_size_kb(self) -> int:
        """On-disk footprint (the paper's database-size metric)."""
        return self.disk.live_kb

    # ------------------------------------------------------------------
    # Costed read primitives (shared by every engine's query path).
    # ------------------------------------------------------------------
    def _read_block(self, file: SSTableFile, block: Block, cost: ReadCost) -> None:
        """Charge one block read through the configured cache hierarchy."""
        if self.db_cache is not None:
            if self.db_cache.access(file.file_id, block.index):
                cost.cache_hit_blocks += 1
                return
        if self.os_cache is not None:
            address = file.extent.start + block.index * self.config.block_size_kb
            if self.os_cache.read(address):
                # A page-cache hit: dearer than a DB-cache hit (syscall +
                # copy), far cheaper than the disk.
                cost.os_hit_blocks += 1
                return
        cost.disk_random_blocks += 1
        self.disk.foreground_random_read(1)

    def _search_table(
        self, table: SortedTable, key: int, cost: ReadCost
    ) -> Entry | None:
        """Point lookup in one sorted run (no removed-marker handling).

        The out-of-line form of the probe :meth:`get` inlines, for a
        descent that interleaves buffer checks between runs (the
        ``lazy-adoption`` points of
        :class:`~repro.lsm.composed.ComposedTree`): the index walk and
        Bloom gate are fused — the same steps as ``find_file`` /
        ``find_block`` / ``may_contain`` — with :meth:`get`'s cost
        accounting.
        """
        cost.tables_checked += 1
        max_keys = table._max_keys
        position = bisect_left(max_keys, key)
        if position == len(max_keys):
            return None
        file = table._files[position]
        if file.min_key > key:  # bisect guarantees key <= file.max_key.
            return None
        cost.index_probes += 1
        if file.removed:
            file._check_not_removed()
        block_keys = file._block_max_keys
        if block_keys is None:
            block_keys = file._materialise()
        position = bisect_left(block_keys, key)
        if position == len(block_keys):
            return None
        block = file._blocks[position]
        if block.min_key > key:
            return None
        cost.bloom_probes += 1
        bits = block._filter
        if bits is None:
            bits = block._build_filter()
        mask = block._masks[key]
        if bits & mask != mask:
            return None
        self._read_block(file, block, cost)
        entry = block.get(key)
        if entry is None:
            cost.false_positive_blocks += 1
        return entry

    def _scan_table_files(
        self,
        files: list[SSTableFile],
        low: int,
        high: int,
        cost: ReadCost,
    ) -> list[Entry]:
        """One sorted table's share of a range query, as a single disk run.

        Returns the entries of ``files`` (the table's members overlapping
        the range, in key order) inside ``[low, high]``.  Entries come
        straight from each file's view and blocks are only *indices*: a
        file inside the range gives its whole tuple and every block, one
        straddling a bound is sliced
        (:meth:`~repro.sstable.sstable.SSTableFile.scan_slice`); no
        ``Block`` is built for a scan.  Every block in range is pulled
        through the cache — the DB cache in one
        :meth:`~repro.cache.db_cache.DBBufferCache.access_many`, file by
        file and block by block ascending, because the order blocks reach
        the cache is LRU state — and the blocks that missed are charged
        as one sequential run: files of a run sit contiguously, so a
        range query pays one seek per sorted table touched, the cost
        model behind the paper's range-query analysis (Section III).
        With a DB cache a miss does not consult the OS cache.
        """
        entries: list[Entry] = []
        extend = entries.extend
        db_keys: list[BlockKey] = []
        uncached = 0
        db_cache = self.db_cache
        os_cache = self.os_cache
        for file in files:
            if file.removed:
                file._check_not_removed()
            if low <= file.min_key and file.max_key <= high:
                extend(file._entries)
                indices = range(file.num_blocks)
            else:  # Straddles a bound: only here is anything bisected.
                inside, indices = file.scan_slice(low, high)
                extend(inside)
            if db_cache is not None:
                file_id = file.file_id
                for index in indices:
                    db_keys.append((file_id, index))
            elif os_cache is not None:
                start = file.extent.start
                block_kb = self.config.block_size_kb
                for index in indices:
                    if os_cache.read(start + index * block_kb):
                        cost.os_hit_blocks += 1
                    else:
                        uncached += 1
            else:
                uncached += len(indices)
        if db_keys:
            hits = db_cache.access_many(db_keys)
            cost.cache_hit_blocks += hits
            uncached = len(db_keys) - hits
        if uncached:
            self._charge_scan_run(uncached, cost)
        return entries

    def _charge_scan_run(self, uncached_blocks: int, cost: ReadCost) -> None:
        """Charge one sorted table's uncached scan blocks: 1 seek + stream."""
        cost.seq_runs += 1
        size_kb = uncached_blocks * self.config.block_size_kb
        cost.seq_kb += size_kb
        self.disk.foreground_sequential_read(size_kb, seeks=1)

    # ------------------------------------------------------------------
    # Compaction primitives (shared).
    # ------------------------------------------------------------------
    def _rewrite_files(
        self,
        inputs: list[SSTableFile],
        install: Callable[[list[SSTableFile]], None],
        *,
        level: int,
        drop_tombstones: bool,
        kind: str = "merge",
        cause: str | None = None,
        dying: list[SSTableFile] | None = None,
        temp_space: bool = False,
        report_obsolete: bool = True,
    ) -> MergeOutcome:
        """Merge ``inputs`` into freshly built files: the one compaction step.

        Every engine's merge is this sequence — announce, merge (newest
        version wins), charge the input reads, build the outputs, let
        ``install`` place them in the engine's structure, delete the
        ``dying`` inputs, account — and differs only in its arguments:

        * ``level`` and ``kind`` label the events; ``cause`` the disk
          traffic (default: :func:`compaction_cause` of ``level``);
        * ``dying``: the inputs deleted once the outputs are placed, in
          discard order (default: all; a lazy-adoption merge keeps the
          ones its compaction buffer re-references);
        * ``temp_space``: inputs and output coexist until the install,
          so the inputs are noted as transient space (Fig. 12's bursts);
        * ``report_obsolete=False`` books and reports zero shadowed
          entries (a merge that may drop nothing has none to claim).

        The input reads are one disk ledger entry, the output writes
        another (inside the builder), and a counting-only bus tallies
        created and discarded files once each: a merge's host cost
        follows the data it moves, not a call chain per file.
        """
        input_sizes = [f.size_kb for f in inputs]
        read_kb = float(sum(input_sizes))
        bus = self.bus
        if bus.active:
            if bus.counting_only:
                bus.count(CompactionStart)
            else:
                bus.emit(
                    CompactionStart(
                        level=level,
                        input_files=len(inputs),
                        input_kb=read_kb,
                        kind=kind,
                    )
                )
        merged, obsolete = merge_with_obsolete_count(
            [f.entry_list() for f in inputs], drop_tombstones=drop_tombstones
        )
        if not report_obsolete:
            obsolete = 0

        if cause is None:
            cause = compaction_cause(level)
        self.disk.read_files(input_sizes, cause=cause)
        os_cache = self.os_cache
        if os_cache is not None:
            for file in inputs:
                os_cache.read_for_compaction(file.extent.start, file.size_kb)

        new_files = self.builder.build(merged, cause=cause)
        self._on_compaction_output(new_files)
        write_kb = float(sum(f.size_kb for f in new_files))
        if temp_space:
            self.disk.note_temp_space(read_kb)

        if dying is None:
            dying = inputs
        self._pre_install_hook(dying, new_files)
        install(new_files)
        self._discard_files(dying)

        self._account_compaction(read_kb, write_kb, obsolete)
        if bus.active:
            if bus.counting_only:
                bus.count(CompactionEnd)
            else:
                bus.emit(
                    CompactionEnd(
                        level=level,
                        read_kb=read_kb,
                        write_kb=write_kb,
                        output_files=len(new_files),
                        obsolete_entries=obsolete,
                        kind=kind,
                    )
                )
        return MergeOutcome(
            new_files=new_files,
            obsolete_entries=obsolete,
            read_kb=read_kb,
            write_kb=write_kb,
        )

    def _merge_into_run(
        self,
        source_files: list[SSTableFile],
        target: SortedTable,
        last_level: bool,
        dispose_sources: bool = True,
        level: int = -1,
    ) -> MergeOutcome:
        """Merge ``source_files`` into the sorted run ``target``.

        The overlapping target files are read, merged with the sources
        (tombstones dropped at the last level), and replaced by the
        freshly built files.  Sources are disposed unless the caller
        takes ownership — LSbM's buffered merge passes
        ``dispose_sources=False`` and appends them to the compaction
        buffer instead, which is the paper's zero-extra-I/O trick.
        """
        if not source_files:
            raise EngineError("merge requires at least one source file")
        low = min(f.min_key for f in source_files)
        high = max(f.max_key for f in source_files)
        overlapping = target.files_overlapping(low, high)
        return self._rewrite_files(
            source_files + overlapping,
            lambda new_files: target.replace_range(overlapping, new_files),
            level=level,
            drop_tombstones=last_level,
            dying=overlapping + source_files if dispose_sources else overlapping,
        )

    def _account_compaction(
        self, read_kb: float, write_kb: float, obsolete: int
    ) -> None:
        """Book one finished compaction into the engine stats."""
        self._structure_changed()
        stats = self.stats
        stats.compactions += 1
        stats.compaction_read_kb += read_kb
        stats.compaction_write_kb += write_kb
        stats.obsolete_entries_dropped += obsolete

    def metrics(self) -> dict[str, float]:
        """The engine's registry source: its counters as ``engine.*``."""
        stats = self.stats
        return {
            "engine.flushes": stats.flushes,
            "engine.compactions": stats.compactions,
            "engine.compaction_read_kb": stats.compaction_read_kb,
            "engine.compaction_write_kb": stats.compaction_write_kb,
            "engine.stall_seconds": stats.stall_seconds,
        }

    def _pre_install_hook(
        self, old_files: list[SSTableFile], new_files: list[SSTableFile]
    ) -> None:
        """Subclass hook invoked before a compaction's install step.

        The incremental-warming-up variant overrides this to transplant
        cache residency from the dying files onto the new ones.
        """

    def _on_compaction_output(self, new_files: list[SSTableFile]) -> None:
        """Subclass hook for freshly written compaction output files."""
        if self.os_cache is not None:
            for file in new_files:
                self.os_cache.write_allocate(file.extent.start, file.size_kb)

    def _discard_files(self, files: list[SSTableFile]) -> None:
        """Delete files: invalidate cached blocks, free extents, announce.

        The one place merged-away files die, and the hook a variant
        overrides to drop its own per-file state with them.
        """
        db_cache = self.db_cache
        disk = self.disk
        bus = self.bus
        emit = bus.active and not bus.counting_only
        for file in files:
            if db_cache is not None:
                db_cache.invalidate_file(file.file_id)
            disk.free(file.extent)
            if emit:
                bus.emit(
                    FileDiscarded(file_id=file.file_id, size_kb=file.size_kb)
                )
        if bus.counting_only:
            bus.count(FileDiscarded, len(files))

    def _flush_memtable_to_files(self) -> list[SSTableFile]:
        """Write the memtable out as on-disk files (charged sequentially).

        Files are built *before* the memtable is cleared, and the WAL
        prefix is only marked for truncation — the actual truncate runs
        at the end of the enclosing compaction pass (see
        :meth:`run_compactions`), so a crash mid-flush or mid-compaction
        never loses the log records of data whose files were not yet
        durable.
        """
        entries = self.memtable.sorted_entries()
        files = self.builder.build(entries, cause="flush")
        self._on_compaction_output(files)
        self.memtable.clear()
        self._structure_changed()
        if self.wal is not None and entries:
            self._pending_wal_truncate_seq = max(
                self._pending_wal_truncate_seq, max(e.seq for e in entries)
            )
        self.stats.flushes += 1
        bus = self.bus
        if bus.active:
            if bus.counting_only:
                bus.count(FlushDone)
            else:
                bus.emit(
                    FlushDone(
                        entries=len(entries),
                        files=len(files),
                        size_kb=float(sum(f.size_kb for f in files)),
                    )
                )
        return files

    def _apply_pending_wal_truncate(self) -> None:
        """Truncate the WAL prefix of data flushed this compaction pass."""
        if self.wal is not None and self._pending_wal_truncate_seq:
            self.wal.truncate_through(self._pending_wal_truncate_seq)
            self._pending_wal_truncate_seq = 0

    # ------------------------------------------------------------------
    # Crash simulation and recovery (WAL-backed engines only).
    # ------------------------------------------------------------------
    def simulate_crash(self) -> int:
        """Drop the volatile memtable, as a process crash would.

        Returns how many in-memory entries were lost from the memtable's
        point of view; with the WAL enabled, :meth:`recover` gets every
        one of them back.
        """
        lost = len(self.memtable)
        self.memtable.clear()
        # The pending-truncate marker is process state: it dies too, and
        # a pass the crash interrupted may have left work behind.
        self._pending_wal_truncate_seq = 0
        self._structure_changed()
        return lost

    def recover(self) -> int:
        """Rebuild the memtable from the write-ahead log's tail.

        Returns the number of log records replayed.  Requires
        ``config.wal_enabled``; without a log there is nothing to replay
        and the lost writes are simply gone (the trade-off the WAL
        exists to prevent).
        """
        if self.wal is None:
            raise EngineError("recovery requires wal_enabled=True")
        records = self.wal.replay()
        for record in records:
            if record.kind == Kind.DELETE:
                self.memtable.delete(record.key, record.seq)
            else:
                self.memtable.put(record.key, record.seq)
            self._seq = max(self._seq, record.seq)
        self._structure_changed()
        return len(records)

    # ------------------------------------------------------------------
    # Misc.
    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise EngineError(f"engine {self.name} is closed")

    def close(self) -> None:
        self._closed = True

    @property
    def last_seq(self) -> int:
        return self._seq

    def _make_entry_result(self, entry: Entry | None, cost: ReadCost) -> GetResult:
        """Standard translation of a search outcome to a GetResult."""
        if entry is None or entry.is_tombstone:
            return GetResult(False, None, cost)
        return GetResult(True, None, cost, _entry=entry)
