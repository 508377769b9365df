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

The class is the design-space interpreter's stepped-merge point —
size-ratio / tiering / full-level / merge,
:data:`~repro.lsm.policy.STEPPED_MERGE` — under the SM-tree's name:
:class:`~repro.lsm.composed.ComposedTree` appends the flush, moves a
level over its capacity whole into one new table one level down
(``tier``), and collapses the last level in place (``collapse``), the
only merge that drops obsolete versions and tombstones.  The collapse
runs only while the last level holds two or more tables: once a single
table's live data fills it, nothing is left to drop, and merging it
again on every pass would rewrite the level over and over (about
4,350x the ingest on ``SystemConfig.tiny()``).  The ``sm`` cells of
``tests/golden.json`` pin the runs it must produce.
"""

from __future__ import annotations

from repro.lsm.composed import ComposedTree
from repro.lsm.policy import STEPPED_MERGE


class SMTree(ComposedTree):
    """Stepped-merge LSM variant: multiple sorted tables per level."""

    name = "sm"

    def __init__(self, substrate) -> None:
        # Pinned like ``leveldb``: a sweep over ``compaction_*`` fields
        # must never alter the ``sm`` baseline.
        super().__init__(substrate, axes=STEPPED_MERGE)
