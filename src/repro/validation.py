"""Structural integrity checking for engine states.

Deep invariants that every healthy engine state satisfies — runs sorted
and disjoint, gear bounds respected, compaction-buffer bookkeeping
consistent, disk accounting closed.  Property tests call
:func:`check_engine` after arbitrary operation streams; it raises
:class:`~repro.errors.EngineError` with a precise message on the first
violation, which makes shrunk hypothesis counterexamples readable.
"""

from __future__ import annotations

from repro.core.lsbm import LSbMTree
from repro.errors import EngineError
from repro.lsm.base import LSMEngine
from repro.lsm.blsm import BLSMTree
from repro.sstable.sorted_table import SortedTable
from repro.variants.kv_store import unwrap


def _check_run(table: SortedTable, label: str) -> None:
    """A sorted run's files must be key-ordered and disjoint."""
    files = table.files
    for left, right in zip(files, files[1:]):
        if left.max_key >= right.min_key:
            raise EngineError(
                f"{label}: files {left.file_id} and {right.file_id} overlap"
            )
    for file in files:
        if not file.removed and file.min_key > file.max_key:
            raise EngineError(f"{label}: file {file.file_id} has empty range")


def _check_live_extents(engine, tables: list[tuple[str, SortedTable]]) -> None:
    """Every live (non-removed) file must own a live disk extent, and the
    sum of live file sizes must not exceed the disk's live footprint."""
    total = 0
    for label, table in tables:
        for file in table:
            if file.removed:
                if engine.disk.is_live(file.extent):
                    raise EngineError(
                        f"{label}: removed file {file.file_id} still on disk"
                    )
                continue
            if not engine.disk.is_live(file.extent):
                raise EngineError(
                    f"{label}: live file {file.file_id} has a freed extent"
                )
            total += file.size_kb
    if total > engine.disk.live_kb:
        raise EngineError(
            f"live files ({total} KB) exceed disk footprint "
            f"({engine.disk.live_kb} KB)"
        )


def _check_gear_bounds(engine: BLSMTree) -> None:
    """|Ci| + |Ci'| must respect each level's capacity within slack.

    The gear scheduler moves one compaction unit per pass, and the unit
    draining *out* of a level can transiently be smaller than the unit
    arriving (merge outputs are regrouped into new super-files with
    ragged tails), so totals legitimately wobble above ``Si`` by a few
    units plus one level-0 burst.  The wobble is absolute, not
    proportional — negligible at paper scale, visible in tiny tests.
    """
    slack = (
        engine.config.level0_size_kb + 4 * engine.config.superfile_size_kb
    )
    for level in range(1, engine.num_levels):
        total = engine.level_total_kb(level)
        capacity = engine.config.level_capacity_kb(level)
        if total > capacity + slack:
            raise EngineError(
                f"gear bound broken at level {level}: "
                f"{total} KB > {capacity} + {slack} KB"
            )


def _check_lsbm_buffer(engine: LSbMTree) -> None:
    for buf in engine._buffer_levels:
        if buf.frozen and buf.live_kb != 0:
            raise EngineError(f"frozen B{buf.level} holds live data")
        # Incoming files are never removed while referenced.
        for file in buf.incoming:
            if file.removed:
                raise EngineError(
                    f"B{buf.level}^0 references removed file {file.file_id}"
                )


def _labelled_runs(engine: LSMEngine) -> list[tuple[str, SortedTable]]:
    """Every sorted run the engine holds, tree first, then the buffer."""
    runs = [
        (f"runs[{g}][{i}]", run)
        for g, group in enumerate(engine._run_groups())
        for i, run in enumerate(group)
    ]
    for buf in engine._buffer_levels:
        runs.append((f"B{buf.level}^0", buf.incoming))
        runs.extend((f"B{buf.level}[{i}]", t) for i, t in enumerate(buf.tables))
        runs.extend(
            (f"B{buf.level}'[{i}]", t) for i, t in enumerate(buf.draining)
        )
    return runs


def _check_read_orders(engine: LSMEngine) -> None:
    """Cached read orders must equal a fresh derivation from the hook.

    Whatever shape ``_derive_read_orders()`` gives — a pair of run
    orders, or LSbM's component program with its buffer lists and
    coverage flags — a stale copy means some structure change was not
    followed by :meth:`~repro.lsm.base.LSMEngine._structure_changed`
    before a read.
    """
    cached = engine._read_orders
    # Runs compare by identity inside the tuples: a run has no ``__eq__``.
    if cached is not None and cached != engine._derive_read_orders():
        raise EngineError(
            "cached read orders are stale: they no longer match what the "
            "engine holds"
        )


def check_engine(engine) -> None:
    """Verify every structural invariant of ``engine``'s current state."""
    engine = unwrap(engine)
    if not isinstance(engine, LSMEngine):
        raise EngineError(f"no integrity checks for {type(engine).__name__}")
    runs = _labelled_runs(engine)
    for label, run in runs:
        _check_run(run, label)
    _check_live_extents(engine, runs)
    _check_read_orders(engine)
    if isinstance(engine, BLSMTree):  # Includes LSbM and the warmup variant.
        _check_gear_bounds(engine)
    if isinstance(engine, LSbMTree):
        _check_lsbm_buffer(engine)
