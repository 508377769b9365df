"""The compaction design space as declarative axes.

Sarkar et al. ("Constructing and Analyzing the LSM Compaction Design
Space", VLDB '21) decompose any LSM compaction strategy into four
orthogonal knobs; :class:`CompactionAxes` makes them first-class values:

* **trigger** — what makes a level due for compaction: its *size* versus
  the size-ratio capacity curve (``size-ratio``), or the *count* of
  independent runs it holds (``level-saturation``, HBase's
  ``max_store_files`` and the classic tiered ``T`` bound);
* **layout** — how a level organizes data: one fully sorted run
  (``leveling``), several independent runs (``tiering``), or tiering
  everywhere except a single-run last level (``lazy-leveling``,
  Dayan & Idreos' Dostoevsky);
* **granularity** — how much a single compaction moves: everything the
  trigger selected (``full-level``) or an incremental slice chosen by a
  cursor / age window (``partial``);
* **movement** — what happens to the bytes a merge consumed: the input
  files die with the merge (``merge``) or they are adopted into the
  paper's compaction buffer and linger for cache-friendly reads until
  trimmed (``lazy-adoption``, the LSbM-tree's contribution).

An axes value names a point; it does not run one.  Each engine's
``_do_compactions`` is its point's control flow: the gear pass in
:class:`~repro.lsm.blsm.BLSMTree` (which :class:`~repro.core.lsbm.LSbMTree`
inherits, its hooks flipping the movement axis), the flat-store pass in
:class:`~repro.variants.hbase.HBaseStyleStore`, and the interpreter in
:class:`~repro.lsm.composed.ComposedTree`, which runs any axes value —
:class:`~repro.lsm.leveldb.LevelDBTree` and
:class:`~repro.lsm.sm_tree.SMTree` are the interpreter pinned to the
default point and to :data:`STEPPED_MERGE`.  The fixed points' axes are
declared once, in :data:`repro.sim.experiment.ENGINE_SPECS`; the
stepped-merge point is declared here because its class pins it too,
and the registry reads the same value.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.codec import Wire
from repro.errors import ConfigError

TRIGGERS = ("size-ratio", "level-saturation")
LAYOUTS = ("leveling", "tiering", "lazy-leveling")
GRANULARITIES = ("partial", "full-level")
MOVEMENTS = ("merge", "lazy-adoption")


@dataclass(frozen=True)
class CompactionAxes(Wire):
    """One point in the four-knob compaction design space."""

    trigger: str = "size-ratio"
    layout: str = "leveling"
    granularity: str = "partial"
    movement: str = "merge"

    def __post_init__(self) -> None:
        for field_name, value, allowed in (
            ("trigger", self.trigger, TRIGGERS),
            ("layout", self.layout, LAYOUTS),
            ("granularity", self.granularity, GRANULARITIES),
            ("movement", self.movement, MOVEMENTS),
        ):
            if value not in allowed:
                raise ConfigError(
                    f"compaction {field_name} must be one of {allowed}, "
                    f"got {value!r}"
                )
        if self.trigger == "level-saturation" and self.layout == "leveling":
            # A leveled level is always exactly one run, so a run-count
            # trigger could never fire.
            raise ConfigError(
                "trigger 'level-saturation' needs a layout with multiple "
                "runs per level (tiering or lazy-leveling), not 'leveling'"
            )

    @classmethod
    def from_config(cls, config) -> CompactionAxes:
        """The axes a :class:`~repro.config.SystemConfig` declares."""
        return cls(
            trigger=config.compaction_trigger,
            layout=config.compaction_layout,
            granularity=config.compaction_granularity,
            movement=config.compaction_movement,
        )

    def describe(self) -> str:
        """Compact one-line rendering for tables and logs."""
        return (
            f"{self.layout}/{self.granularity} ({self.trigger}, "
            f"{self.movement})"
        )


#: The SM-tree's point (Sarkar et al.'s stepped merge): pinned by
#: :class:`~repro.lsm.sm_tree.SMTree`, read by ``ENGINE_SPECS["sm"]``.
STEPPED_MERGE = CompactionAxes(
    trigger="size-ratio", layout="tiering", granularity="full-level",
    movement="merge",
)
