"""Write-ahead logging and crash recovery.

An LSM-tree's memtable is volatile: production engines (LevelDB included)
append every write to a sequential log first, and replay the log's tail
after a crash to rebuild the memtable.  The paper's evaluation does not
exercise crashes, so the engines keep the WAL *optional*
(``SystemConfig.wal_enabled``, default off) to leave the calibrated write
traffic untouched; with it enabled, every put/delete adds one pair-sized
sequential log write, the log is truncated at each flush (the flushed
data is durable in level-0 files), and :meth:`WriteAheadLog.replay`
reconstructs the unflushed tail.

The log models durability bookkeeping, not bytes: records are kept
in-memory (this is a simulator), disk traffic is charged to the
simulated disk, and "crash" means discarding the memtable.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.sstable.entry import Kind


@dataclass(frozen=True)
class LogRecord:
    """One durable write: (key, seq, kind)."""

    key: int
    seq: int
    kind: Kind


class WriteAheadLog:
    """Sequential redo log with truncate-on-flush semantics."""

    def __init__(self, disk, pair_size_kb: int) -> None:
        self._disk = disk
        self._pair_size_kb = pair_size_kb
        self._records: list[LogRecord] = []
        self.bytes_logged_kb = 0.0
        #: Crash-point hook (see :mod:`repro.check.crash`): called with a
        #: point name at instrumented instants; an armed injector raises.
        self.fault_hook: Callable[[str], None] | None = None

    # ------------------------------------------------------------------
    # Writing.
    # ------------------------------------------------------------------
    def append(self, key: int, seq: int, kind: Kind) -> None:
        """Durably record one write before it enters the memtable."""
        if self.fault_hook is not None:
            self.fault_hook("wal.append.before")
        self._records.append(LogRecord(key, seq, kind))
        # A log append is a small sequential write (group commit amortizes
        # the seek, so charge transfer only).
        self._disk.background_write(self._pair_size_kb, seeks=0, cause="wal")
        self.bytes_logged_kb += self._pair_size_kb
        if self.fault_hook is not None:
            self.fault_hook("wal.append.after")

    def truncate_through(self, seq: int) -> int:
        """Drop records with ``seq <= seq`` (their data was flushed).

        Returns how many records were discarded.
        """
        before = len(self._records)
        self._records = [r for r in self._records if r.seq > seq]
        return before - len(self._records)

    # ------------------------------------------------------------------
    # Recovery.
    # ------------------------------------------------------------------
    def replay(self) -> list[LogRecord]:
        """The surviving tail, in write order (for memtable rebuild)."""
        return list(self._records)

    def restore_records(self, records: list[LogRecord]) -> None:
        """Overwrite the tail with a captured durable log image.

        The crash-recovery harness snapshots ``replay()`` at the crash
        instant and splices it into a rebuilt engine before ``recover()``
        — the in-memory equivalent of re-opening the log file a crashed
        process left behind.
        """
        self._records = list(records)

    @property
    def tail_records(self) -> int:
        return len(self._records)
