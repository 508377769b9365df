"""The simulated disk: extent allocation plus an I/O accounting ledger.

Engines never read or write real bytes; they tell the disk *what* they did
(allocate a file's extent, stream N KB sequentially for a compaction, read
one random block for a query miss) and the disk keeps the books:

* live capacity (`live_kb`) — the database-size metric of Figs. 12/13,
* cumulative read/write traffic split by random/sequential,
* a per-virtual-second bandwidth ledger for *background* (compaction) I/O,
  from which the driver derives device utilization and, through
  :class:`~repro.storage.iomodel.ReadPricer`, the queueing slowdown that
  foreground queries experience,
* a per-*cause* attribution of all sequential traffic ("flush",
  "compaction:L2", "wal", "query", ...), so the profiling layer can say
  which stream of the paper's mixed workload owns the device at any time;
  the per-cause totals sum-reconcile exactly with the ``DiskStats``
  sequential counters (the bandwidth-attribution invariant).

The disk also exposes page-level physical addresses so the OS buffer cache
(which caches by physical location, not by file) can observe compaction
traffic — the mechanism behind Fig. 2's OS-cache churn.

**One ledger entry per merge.**  A build writes many files and a merge
reads many; :meth:`SimulatedDisk.write_files` and
:meth:`SimulatedDisk.read_files` book all of them in one entry (size =
the sum, seeks = the number of files) instead of one
``allocate``/``background_write``/``background_read`` call per file.  The
result is bitwise what the per-file calls leave behind: every size is an
integer number of KB (``SystemConfig`` validates ``pair_size_kb >= 1`` and
the block/file sizes as its multiples), so each float ledger holds an
exactly represented integer far below 2**53 and integer addition is exact
in any grouping; the seek, allocation and per-tick seek counters are ints.
The crash points stay per file: an armed ``fault_hook`` is visited once
per file, in the per-file calls' interleaving, before anything is booked.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.errors import StorageError
from repro.clock import VirtualClock
from repro.storage.extent import Extent, ExtentAllocator


@dataclass
class DiskStats:
    """Cumulative I/O counters, all in KB or operation counts."""

    seq_read_kb: float = 0.0
    seq_write_kb: float = 0.0
    random_read_blocks: int = 0
    seeks: int = 0
    allocations: int = 0
    frees: int = 0

    def snapshot(self) -> "DiskStats":
        return DiskStats(
            seq_read_kb=self.seq_read_kb,
            seq_write_kb=self.seq_write_kb,
            random_read_blocks=self.random_read_blocks,
            seeks=self.seeks,
            allocations=self.allocations,
            frees=self.frees,
        )


@dataclass(slots=True)
class _TickLedger:
    """Background (compaction) traffic recorded for one virtual second."""

    second: int = -1
    background_kb: float = 0.0
    background_seeks: int = 0
    temp_space_kb: float = field(default=0.0)


class SimulatedDisk:
    """Extent-allocating virtual disk with per-second bandwidth accounting."""

    def __init__(self, clock: VirtualClock, seq_bandwidth_kb_per_s: float) -> None:
        if seq_bandwidth_kb_per_s <= 0:
            raise StorageError("sequential bandwidth must be positive")
        self._clock = clock
        self._bandwidth = seq_bandwidth_kb_per_s
        self._allocator = ExtentAllocator()
        self.stats = DiskStats()
        #: Cumulative sequential traffic attributed by cause, in KB.
        #: Every KB in ``stats.seq_read_kb``/``seq_write_kb`` appears in
        #: exactly one cause bucket here (default "unattributed", which
        #: the bandwidth-attribution checker requires to stay zero on
        #: fully tagged engine stacks).
        self.cause_read_kb: dict[str, float] = {}
        self.cause_write_kb: dict[str, float] = {}
        self._tick = _TickLedger()
        #: Background work queued but not yet absorbed by the device.  A
        #: compaction step is *issued* within one virtual second but its
        #: I/O physically streams at the device's bandwidth, so the excess
        #: carries over as backlog and keeps utilization (and therefore
        #: foreground queueing) elevated for the following seconds — as a
        #: real disk would behave.
        self._backlog_kb = 0.0
        #: Crash-point hook (see :mod:`repro.check.crash`): called with a
        #: point name before each instrumented operation mutates state; an
        #: armed injector raises to simulate a crash at that instant.
        self.fault_hook: Callable[[str], None] | None = None

    def metrics(self) -> dict[str, float]:
        """The disk's registry source: its ledger under ``disk.*`` names.

        Each cause in the per-cause dicts reads as
        ``disk.bw.<cause>.<read|write>_kb``.
        """
        stats = self.stats
        out = {
            "disk.seq_read_kb": stats.seq_read_kb,
            "disk.seq_write_kb": stats.seq_write_kb,
            "disk.random_read_blocks": stats.random_read_blocks,
            "disk.seeks": stats.seeks,
            "disk.allocations": stats.allocations,
            "disk.frees": stats.frees,
            "disk.live_kb": self._allocator.live_kb,
        }
        for cause, total in self.cause_read_kb.items():
            out[f"disk.bw.{cause}.read_kb"] = total
        for cause, total in self.cause_write_kb.items():
            out[f"disk.bw.{cause}.write_kb"] = total
        return out

    # ------------------------------------------------------------------
    # Space management.
    # ------------------------------------------------------------------
    def allocate(self, size_kb: int) -> Extent:
        """Allocate a contiguous extent (one file or super-file)."""
        if self.fault_hook is not None:
            self.fault_hook("disk.allocate")
        extent = self._allocator.allocate(size_kb)
        self.stats.allocations += 1
        return extent

    def free(self, extent: Extent) -> None:
        """Release an extent; its addresses are never reused."""
        if self.fault_hook is not None:
            self.fault_hook("disk.free")
        self._allocator.free(extent)
        self.stats.frees += 1

    def write_files(
        self,
        sizes_kb: list[int],
        charge_write: bool = True,
        cause: str = "unattributed",
    ) -> list[Extent]:
        """Allocate one extent per size and book their writes as one entry.

        Equivalent to ``allocate(size)`` followed (when ``charge_write``)
        by ``background_write(size, cause=cause)`` for each size in turn;
        see the module docstring for why the ledgers read the same.
        """
        hook = self.fault_hook
        if hook is not None:
            for _ in sizes_kb:
                hook("disk.allocate")
                if charge_write:
                    hook("disk.background_write")
        allocate = self._allocator.allocate
        extents = [allocate(size_kb) for size_kb in sizes_kb]
        self.stats.allocations += len(extents)
        if charge_write and extents:
            total_kb = sum(sizes_kb)
            self._record_background(total_kb, len(extents))
            self.stats.seq_write_kb += total_kb
            self._attribute("write", cause, total_kb)
        return extents

    def is_live(self, extent: Extent) -> bool:
        return self._allocator.is_live(extent)

    @property
    def live_kb(self) -> int:
        """Current on-disk footprint — the paper's "database size"."""
        return self._allocator.live_kb

    @property
    def live_extents(self) -> int:
        return self._allocator.live_extents

    # ------------------------------------------------------------------
    # Background (compaction) I/O accounting.
    # ------------------------------------------------------------------
    def background_read(
        self, size_kb: float, seeks: int = 1, cause: str = "unattributed"
    ) -> None:
        """Record a sequential compaction read of ``size_kb``.

        ``cause`` names the stream this traffic belongs to ("flush",
        "compaction:L2", ...); engine code always tags it, so the
        default only shows up from untagged ad-hoc callers — and the
        bandwidth-attribution checker flags it.
        """
        if self.fault_hook is not None:
            self.fault_hook("disk.background_read")
        self._record_background(size_kb, seeks)
        self.stats.seq_read_kb += size_kb
        self._attribute("read", cause, size_kb)

    def read_files(
        self, sizes_kb: list[int], cause: str = "unattributed"
    ) -> None:
        """Book one sequential read per size (a merge's inputs) as one entry.

        Equivalent to ``background_read(size, cause=cause)`` for each
        size in turn.
        """
        if not sizes_kb:
            return
        hook = self.fault_hook
        if hook is not None:
            for _ in sizes_kb:
                hook("disk.background_read")
        if min(sizes_kb) < 0:
            raise StorageError(f"negative I/O size: {min(sizes_kb)}")
        total_kb = sum(sizes_kb)
        self._record_background(total_kb, len(sizes_kb))
        self.stats.seq_read_kb += total_kb
        self._attribute("read", cause, total_kb)

    def background_write(
        self, size_kb: float, seeks: int = 1, cause: str = "unattributed"
    ) -> None:
        """Record a sequential compaction write of ``size_kb``."""
        if self.fault_hook is not None:
            self.fault_hook("disk.background_write")
        self._record_background(size_kb, seeks)
        self.stats.seq_write_kb += size_kb
        self._attribute("write", cause, size_kb)

    def note_temp_space(self, size_kb: float) -> None:
        """Record transient space held during this second's compaction.

        The SM-tree's full-level merges hold input *and* output on disk until
        the new table is installed; Fig. 12's size bursts come from exactly
        this.  The driver samples ``live_kb + temp space`` once per second.
        """
        self._roll_tick()
        self._tick.temp_space_kb = max(self._tick.temp_space_kb, size_kb)

    def _record_background(self, size_kb: float, seeks: int) -> None:
        if size_kb < 0:
            raise StorageError(f"negative I/O size: {size_kb}")
        tick = self._tick
        if tick.second != self._clock.now:
            self._roll_tick()
            tick = self._tick
        tick.background_kb += size_kb
        tick.background_seeks += seeks
        self.stats.seeks += seeks

    # ------------------------------------------------------------------
    # Per-cause bandwidth attribution.
    # ------------------------------------------------------------------
    def _attribute(self, kind: str, cause: str, size_kb: float) -> None:
        totals = self.cause_read_kb if kind == "read" else self.cause_write_kb
        totals[cause] = totals.get(cause, 0.0) + size_kb

    def record_cause(self, cause: str) -> None:
        """Register a zero-I/O cause so reports list it explicitly.

        LSbM's buffer appends and trim removals move *no* data — the
        paper's "no additional I/O" claim — but the per-cause breakdown
        should still show them at 0 KB rather than omit them.
        """
        self.cause_read_kb.setdefault(cause, 0.0)
        self.cause_write_kb.setdefault(cause, 0.0)

    def cause_totals(self) -> dict[str, dict[str, float]]:
        """Cumulative per-cause traffic: ``{cause: {read_kb, write_kb}}``."""
        causes = set(self.cause_read_kb) | set(self.cause_write_kb)
        return {
            cause: {
                "read_kb": self.cause_read_kb.get(cause, 0.0),
                "write_kb": self.cause_write_kb.get(cause, 0.0),
            }
            for cause in sorted(causes)
        }

    def _roll_tick(self) -> None:
        # The ledger is reset in place rather than reallocated — it is
        # rolled once per virtual second and nothing else holds a
        # reference to it.
        tick = self._tick
        now = self._clock.now
        if tick.second != now:
            if tick.second >= 0:
                elapsed = now - tick.second
                pending = self._backlog_kb + self._pending_tick_kb()
                self._backlog_kb = max(0.0, pending - elapsed * self._bandwidth)
            tick.second = now
            tick.background_kb = 0.0
            tick.background_seeks = 0
            tick.temp_space_kb = 0.0

    def _pending_tick_kb(self) -> float:
        """This tick's background work, seeks converted to transfer-KB."""
        return (
            self._tick.background_kb
            + self._tick.background_seeks * 0.005 * self._bandwidth
        )

    # ------------------------------------------------------------------
    # Foreground I/O accounting (queries). Costing happens in ReadPricer;
    # the disk only keeps cumulative counters.
    # ------------------------------------------------------------------
    def foreground_random_read(self, blocks: int = 1) -> None:
        self.stats.random_read_blocks += blocks
        self.stats.seeks += blocks

    def foreground_sequential_read(
        self, size_kb: float, seeks: int = 1, cause: str = "query"
    ) -> None:
        self.stats.seq_read_kb += size_kb
        self.stats.seeks += seeks
        self._attribute("read", cause, size_kb)

    # ------------------------------------------------------------------
    # Utilization.
    # ------------------------------------------------------------------
    def utilization(self) -> float:
        """Fraction of the current second consumed by background I/O.

        Includes carried-over backlog: a burst bigger than one second of
        bandwidth keeps the device saturated across following seconds.
        """
        tick = self._tick
        if tick.second != self._clock.now:
            self._roll_tick()
            tick = self._tick
        # Inlined _pending_tick_kb; the parentheses keep the original
        # ``backlog + (kb + seeks*...)`` float association exactly.
        pending = self._backlog_kb + (
            tick.background_kb
            + tick.background_seeks * 0.005 * self._bandwidth
        )
        return min(pending / self._bandwidth, 1.0)

    def tick_temp_space_kb(self) -> float:
        """Peak transient compaction space recorded this second."""
        if self._tick.second != self._clock.now:
            self._roll_tick()
        return self._tick.temp_space_kb
