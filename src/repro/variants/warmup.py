"""bLSM with incremental warming up (Ahmad & Kemme, VLDB '15).

Section I-A's "dedicated compaction servers" solution, simulated on a
single machine exactly as the paper does in Section VI-C: "before the
newly compacted blocks are flushed from memory, the blocks in the buffer
cache that will be evicted in this compaction will be replaced with the
newly generated blocks whose key ranges overlap with them."

The mechanism's assumption — a compacted block is hot whenever it overlaps
a block that was brought into the cache — is what the paper attacks.  Per
its analysis (Section VI-C): "one key-value pair of level i ... loaded
into the buffer cache by a read operation.  The block containing that pair
will be marked as *Hot* when it is being compacted down to the lower
level.  Since up to r blocks in level i+1 share the same key range with
that block, up to r+1 newly generated blocks will be loaded into buffer
cache after this compaction", cascading to ``(r+1)^(k-i)`` blocks.  The
Hot mark is *sticky*: it outlives the block's cache residency, so even the
2% of reads outside the hot range seed exponentially amplifying warm-up
floods that evict genuinely hot data — Fig. 8c's churn.

Implementation: every block a query loads gets its ``(file, block)``
marked; when a compaction retires files, the key ranges of their marked
blocks are transplanted onto every overlapping output block, which is both
inserted into the cache and marked in turn.
"""

from __future__ import annotations

from bisect import bisect_right

from repro.lsm.base import ReadCost
from repro.lsm.blsm import BLSMTree
from repro.sstable.block import Block
from repro.sstable.sstable import SSTableFile


class WarmupBLSMTree(BLSMTree):
    """bLSM whose compactions warm overlapping new blocks into the cache."""

    name = "blsm+warmup"

    def __init__(self, substrate) -> None:
        super().__init__(substrate)
        #: Sticky Hot marks: file_id -> block indices ever loaded by reads
        #: (or warmed); survives eviction, dies with the file.
        self._hot_marks: dict[int, set[int]] = {}
        self.blocks_warmed = 0

    # ------------------------------------------------------------------
    # Mark on load.
    # ------------------------------------------------------------------
    def _read_block(self, file: SSTableFile, block: Block, cost: ReadCost) -> None:
        super()._read_block(file, block, cost)
        # get-then-add instead of setdefault: the common (already-marked)
        # case skips allocating a fresh set per read.
        marks = self._hot_marks.get(file.file_id)
        if marks is None:
            self._hot_marks[file.file_id] = {block.index}
        else:
            marks.add(block.index)

    # ------------------------------------------------------------------
    # Warm on compaction.
    # ------------------------------------------------------------------
    def _pre_install_hook(
        self, old_files: list[SSTableFile], new_files: list[SSTableFile]
    ) -> None:
        if self.db_cache is None:
            return
        hot_ranges: list[tuple[int, int]] = []
        for file in old_files:
            marks = self._hot_marks.pop(file.file_id, None)
            if not marks:
                continue
            # Key spans come from the view: warming builds no block.
            for index in marks:
                hot_ranges.append(file.block_key_span(index))
        if not hot_ranges:
            return
        merged = self._coalesce(hot_ranges)
        starts = [low for low, _ in merged]
        for file in new_files:
            for index in range(file.num_blocks):
                low, high = file.block_key_span(index)
                if self._overlaps_any(low, high, merged, starts):
                    self.db_cache.insert(file.file_id, index)
                    self._hot_marks.setdefault(file.file_id, set()).add(index)
                    self.blocks_warmed += 1

    def _discard_files(self, files: list[SSTableFile]) -> None:
        for file in files:
            self._hot_marks.pop(file.file_id, None)
        super()._discard_files(files)

    # ------------------------------------------------------------------
    # Range helpers.
    # ------------------------------------------------------------------
    @staticmethod
    def _coalesce(ranges: list[tuple[int, int]]) -> list[tuple[int, int]]:
        """Sort and merge into disjoint ranges (ends become monotone)."""
        ranges.sort()
        merged: list[tuple[int, int]] = []
        for low, high in ranges:
            if merged and low <= merged[-1][1]:
                if high > merged[-1][1]:
                    merged[-1] = (merged[-1][0], high)
            else:
                merged.append((low, high))
        return merged

    @staticmethod
    def _overlaps_any(
        low: int,
        high: int,
        ranges: list[tuple[int, int]],
        starts: list[int],
    ) -> bool:
        """Whether ``[low, high]`` intersects any of the disjoint ranges."""
        position = bisect_right(starts, high) - 1
        if position < 0:
            return False
        return ranges[position][1] >= low