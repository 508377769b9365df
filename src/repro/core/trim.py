"""The trim process (Section IV-B, Algorithm 2).

The compaction buffer must keep *only* frequently visited data: files whose
blocks are not resident in the buffer cache merely add sorted tables for
queries to wade through and disk space to pay for.  Periodically (every
``trim_interval_s`` virtual seconds) an independent pass inspects every
trimmable file and removes those whose cached-block fraction falls below
the threshold (80% in the paper's setup).

Removal keeps the file's ``[min_key, max_key]`` marker inside its sorted
table: Algorithms 3 and 4 stop searching a buffer list the moment a marker
covers the requested key/range, falling back to the underlying LSM-tree —
that is what makes trimming safe for correctness.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING

from repro.config import SystemConfig
from repro.obs.events import EventBus, TrimRun
from repro.sstable.sstable import SSTableFile

if TYPE_CHECKING:  # ``repro.core.compaction_buffer`` imports this module.
    from repro.core.compaction_buffer import BufferLevel


class TrimProcess:
    """Periodic eviction of infrequently visited compaction-buffer files."""

    def __init__(
        self,
        config: SystemConfig,
        cached_blocks: Callable[[int], int],
        remove_file: Callable[[SSTableFile], None],
        bus: EventBus | None = None,
    ) -> None:
        """``cached_blocks`` maps a file id to its resident block count
        (the DB buffer cache's own ``cached_blocks``, or a constant 0
        without one); ``remove_file`` is the buffer's removal (marker +
        extent free + invalidation, see
        :meth:`~repro.core.compaction_buffer.CompactionBuffer.remove_file`)
        and leaves the file in its table."""
        self._interval = config.trim_interval_s
        self._threshold = config.trim_threshold
        self._cached_blocks = cached_blocks
        self._remove_file = remove_file
        self._bus = bus
        self._last_run: int | None = None
        self.files_trimmed = 0
        self.runs = 0

    @property
    def threshold(self) -> float:
        """Live cached-fraction threshold below which a file is trimmed."""
        return self._threshold

    @property
    def interval_s(self) -> int:
        """Live virtual seconds between trim passes."""
        return self._interval

    def retune(
        self,
        threshold: float | None = None,
        interval_s: int | None = None,
    ) -> None:
        """Move the trim knobs mid-run (runtime-controller actuator).

        A higher threshold trims more aggressively (files must be hotter
        to stay buffered); a longer interval defers trim I/O-free passes
        but lets cold files linger.  Values are clamped to the same
        ranges :class:`~repro.config.SystemConfig` validates.
        """
        if threshold is not None:
            self._threshold = min(1.0, max(0.05, float(threshold)))
        if interval_s is not None:
            self._interval = max(1, int(interval_s))

    def due(self, now: int) -> bool:
        return self._last_run is None or now - self._last_run >= self._interval

    def maybe_run(self, now: int, buffer_levels: list[BufferLevel]) -> int:
        """Run the trim pass if the interval has elapsed; returns removals."""
        if not self.due(now):
            return 0
        self._last_run = now
        return self.run(buffer_levels)

    def run(self, buffer_levels: list[BufferLevel]) -> int:
        """One full trim pass over every level (Algorithm 2)."""
        self.runs += 1
        removed = 0
        cached_blocks = self._cached_blocks
        remove_file = self._remove_file
        threshold = self._threshold
        for level in buffer_levels:
            for table in level.trimmable_tables():
                # Read in place: a removal marks the file and never
                # edits the table it sits in.
                for file in table:
                    if file.removed:
                        continue
                    if cached_blocks(file.file_id) / file.num_blocks < threshold:
                        remove_file(file)
                        removed += 1
        self.files_trimmed += removed
        bus = self._bus
        if bus is not None and bus.active:
            if bus.counting_only:
                bus.count(TrimRun)
            else:
                bus.emit(TrimRun(removed=removed, run_index=self.runs))
        return removed
