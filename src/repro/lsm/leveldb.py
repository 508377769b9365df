"""A LevelDB-style leveled LSM-tree (the paper's primary baseline).

Structure (Section VI-C, "LevelDB maintains only one sorted table at each
level"): each on-disk level is a single fully sorted run.  When the write
buffer fills it is flushed and merged into C1; when a level exceeds its
capacity, one file at a time is picked — round-robin through the key space
via a compaction cursor, as LevelDB does — and merged with the overlapping
files of the next level.  Every such merge rewrites the affected next-level
files at new disk locations, invalidating their cached blocks: the
compaction-induced cache invalidation of Fig. 1.

The class is the design-space interpreter's default point —
size-ratio / leveling / partial / merge — under LevelDB's name:
:class:`~repro.lsm.composed.ComposedTree` holds ``levels[i] = [run]``,
the per-level compaction cursor and the file-by-file merge into C1;
the ``leveldb`` cells of ``tests/golden.json`` pin the runs it must
produce.
"""

from __future__ import annotations

from repro.lsm.composed import ComposedTree
from repro.lsm.policy import CompactionAxes


class LevelDBTree(ComposedTree):
    """Leveled LSM-tree with one sorted run per on-disk level."""

    name = "leveldb"

    def __init__(self, substrate) -> None:
        # The axes are pinned, not read from the config: a sweep over
        # ``compaction_*`` fields must never alter the ``leveldb`` baseline.
        super().__init__(substrate, axes=CompactionAxes())
