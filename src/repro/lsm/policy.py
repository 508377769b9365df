"""The compaction design space as declarative, composable policy axes.

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

A :class:`CompactionPolicy` is the executable counterpart: it owns the
*control flow* a compaction pass runs (what to compact next, in which
order, until which bound) while the engine keeps the *mechanism* (how to
flush, merge, install and account one unit of work).  Every engine's
``_do_compactions`` body is one of the policies below; the engine classes
supply hooks the policies drive.  The gear, stepped-merge and flat-store
policies are deliberately bit-identical extractions —
``tests/test_design_space.py`` proves each legacy engine's event stream
unchanged against pinned golden digests — and :class:`ComposedPolicy`
interprets every other axis combination, LevelDB's point (the default
axes) among them.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.codec import Wire
from repro.errors import ConfigError
from repro.sstable.sorted_table import SortedTable

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


class CompactionPolicy(ABC):
    """Control flow of one compaction pass over an engine's hooks."""

    #: The design-space point this policy realizes.
    axes: CompactionAxes

    @abstractmethod
    def run(self, engine) -> None:
        """One full compaction pass (the engine's ``_do_compactions``)."""


class GearPolicy(CompactionPolicy):
    """bLSM's design point: gear-scheduled leveling with C/C' pairs.

    Whenever level 0 (memtable + C0') exceeds S0, one *pass* walks the
    full-level prefix and moves one compaction unit (a super-file) at
    each full level, so compaction progress everywhere is geared to the
    insertion rate.  The engine supplies the gear mechanism as hooks —
    ``level_total_kb`` / ``_source`` / ``_rotate`` / ``_pop_unit`` /
    ``_compact_unit`` — which is exactly the seam the LSbM-tree overrides
    to adopt merge inputs into its compaction buffer: same policy, the
    ``movement`` axis flipped by the hooks underneath it.
    """

    def __init__(self, movement: str = "merge") -> None:
        self.axes = CompactionAxes(
            trigger="size-ratio",
            layout="leveling",
            granularity="partial",
            movement=movement,
        )

    def run(self, engine) -> None:
        while engine.level_total_kb(0) >= engine.memtable_budget_kb:
            if not self._one_pass(engine):
                break

    def _one_pass(self, engine) -> bool:
        """One gear pass: compact one unit at every full level in the prefix.

        Returns whether any unit moved (guards against livelock when the
        write buffer alone exceeds S0 but holds nothing flushable).
        """
        progressed = False
        for level in range(engine.num_levels):  # i from 0 to k-1.
            # Level 0's capacity is the *live* write-buffer budget (equal
            # to S0 unless a runtime controller moved it); deeper levels
            # keep the configured size-ratio curve.
            capacity = (
                engine.memtable_budget_kb
                if level == 0
                else engine.config.level_capacity_kb(level)
            )
            if engine.level_total_kb(level) < capacity:
                break
            source = engine._source(level)
            if not source:
                engine._rotate(level)
                source = engine._source(level)
            if not source:
                break  # Nothing materialized (e.g. an empty memtable).
            unit = engine._pop_unit(source)
            engine._compact_unit(level, unit)
            progressed = True
        return progressed


class SteppedMergePolicy(CompactionPolicy):
    """The SM-tree's design point: tiering with whole-level merges.

    A full write buffer is appended to level 1 as an independent table;
    a level at its size-ratio capacity has *all* its tables merged into
    one table appended to the next level (the last level collapses in
    place — the only moment obsolete versions are dropped).
    """

    axes = CompactionAxes(
        trigger="size-ratio",
        layout="tiering",
        granularity="full-level",
        movement="merge",
    )

    def run(self, engine) -> None:
        if engine.memtable.size_kb >= engine.memtable_budget_kb:
            files = engine._flush_memtable_to_files()
            engine.levels[1].append(SortedTable(files))
        for level in range(1, engine.num_levels + 1):
            if engine.level_size_kb(level) >= engine.config.level_capacity_kb(
                level
            ):
                engine._merge_whole_level(level)


class FlatStorePolicy(CompactionPolicy):
    """HBase's design point: a flat store with saturation-triggered minors.

    A full write buffer flushes to one new table; while the store holds
    more than ``max_store_files`` tables, the cheapest contiguous-by-age
    window is minor-compacted.  (The store's periodic *major* compaction
    is time-triggered and therefore lives on the engine's ``tick``, not
    in the pass.)
    """

    axes = CompactionAxes(
        trigger="level-saturation",
        layout="tiering",
        granularity="partial",
        movement="merge",
    )

    def run(self, engine) -> None:
        if engine.memtable.size_kb >= engine.memtable_budget_kb:
            files = engine._flush_memtable_to_files()
            engine.tables.append(SortedTable(files))
        while len(engine.tables) > engine.max_store_files:
            engine._minor_compaction()


class ComposedPolicy(CompactionPolicy):
    """The generic interpreter: any :class:`CompactionAxes` point.

    Drives :class:`~repro.lsm.composed.ComposedTree`'s hooks — flush,
    per-level "one unit of work", last-level collapse — with the trigger
    axis deciding *when* a level is due and the engine mechanism deciding
    *what* one unit moves (layout + granularity) and what happens to the
    inputs (movement).  The policies above stay as fixed points whose
    behaviour no axis value expresses yet (the Ci/Ci' gear, ``>=``
    whole-level merges, cheapest-window minors); this one covers the
    rest of the space, LevelDB's cursor-driven leveling included.
    """

    def __init__(self, axes: CompactionAxes) -> None:
        self.axes = axes

    def run(self, engine) -> None:
        if engine.memtable.size_kb >= engine.memtable_budget_kb:
            engine._flush_pass()
        last = engine.num_levels
        for level in range(1, last + 1):
            if level == last:
                # Only a multi-run last level has anywhere to go: it
                # collapses in place (the sole tombstone-dropping moment
                # for those layouts).  Single collapse per pass — a level
                # whose *live* data exceeds its capacity would otherwise
                # rewrite itself forever.
                if not engine._single_run(level) and self._due(engine, level):
                    engine._collapse_last_level()
                break
            while self._due(engine, level):
                if not engine._compact_level_once(level):
                    break
        engine._seal_adoptions()

    def _due(self, engine, level: int) -> bool:
        """Is ``level`` due for compaction under the trigger axis?"""
        if level == engine.num_levels and len(engine.levels[level]) <= 1:
            return False  # Collapsing a single table is a no-op rewrite.
        if self.axes.trigger == "level-saturation" and not engine._single_run(
            level
        ):
            return len(engine.levels[level]) > engine.config.size_ratio
        return engine.level_size_kb(level) > engine.config.level_capacity_kb(
            level
        )
