"""Structural integrity checking for engine states.

Deep invariants that every healthy engine state satisfies — runs sorted
and disjoint, gear bounds respected, compaction-buffer bookkeeping
consistent, disk accounting closed.  Property tests call
:func:`check_engine` after arbitrary operation streams; it raises
:class:`~repro.errors.EngineError` with a precise message on the first
violation, which makes shrunk hypothesis counterexamples readable.
"""

from __future__ import annotations

from repro.errors import EngineError
from repro.lsm.base import LSMEngine
from repro.lsm.blsm import BLSMTree
from repro.sstable.sorted_table import SortedTable
from repro.sstable.sstable import SSTableFile


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
    live files must be the disk's whole live footprint: no extent may stay
    live once no run and no buffer list references its file."""
    live_kb: dict[int, int] = {}
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
            live_kb[file.file_id] = file.extent.size_kb
    total = sum(live_kb.values())
    disk = engine.disk
    if (len(live_kb), total) != (disk.live_extents, disk.live_kb):
        raise EngineError(
            f"live files ({len(live_kb)} extents, {total} KB) differ from "
            f"the disk's live footprint ({disk.live_extents} extents, "
            f"{disk.live_kb} KB)"
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


def _check_buffer(engine: LSMEngine) -> None:
    """Compaction-buffer bookkeeping, for every engine that keeps one."""
    total = 0
    for buf in engine._buffer_levels:
        if buf.frozen and buf.live_kb != 0:
            raise EngineError(f"frozen B{buf.level} holds live data")
        # Incoming files are never removed while referenced.
        for file in buf.incoming:
            if file.removed:
                raise EngineError(
                    f"B{buf.level}^0 references removed file {file.file_id}"
                )
        total += buf.total_live_kb
    # A membership change that bumped neither counter leaves it stale.
    memo = engine.buffer.total_live_kb
    if memo != total:
        raise EngineError(
            f"memoised buffer size {memo} KB is stale: the levels hold "
            f"{total} KB"
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


def _shape_fault(file: SSTableFile, pairs_per_block: int, block_kb: int) -> str:
    """What is wrong with one file's shape; empty when nothing is."""
    if file.removed:
        held = file.num_entries or file.materialised
        return "was removed but still holds data" if held else ""
    entries = file.entry_list()
    starts = range(0, len(entries), pairs_per_block)
    if file.num_blocks != len(starts):
        return (
            f"counts {file.num_blocks} blocks for {len(entries)} entries, "
            f"expected {len(starts)}"
        )
    if not file.size_kb == file.extent.size_kb == len(starts) * block_kb:
        return (
            f"is {file.size_kb} KB on a {file.extent.size_kb} KB extent, "
            f"expected {len(starts) * block_kb} KB"
        )
    if (file.min_key, file.max_key) != (entries[0].key, entries[-1].key):
        return (
            f"claims keys [{file.min_key}, {file.max_key}] but holds "
            f"[{entries[0].key}, {entries[-1].key}]"
        )
    if any(entries[start - 1].key >= entries[start].key for start in starts[1:]):
        return "is unsorted across a block boundary"
    if file.materialised:
        blocks = file.blocks
        chunks = [entries[start : start + pairs_per_block] for start in starts]
        fences = [chunk[-1].key for chunk in chunks]
        if (
            [block.index for block in blocks] != list(range(len(starts)))
            or [block.entries for block in blocks] != chunks
            or [block.min_key for block in blocks] != [c[0].key for c in chunks]
            or [block.max_key for block in blocks] != fences
            or file._block_max_keys != fences
        ):
            return "has materialised blocks that disagree with its view"
    return ""


def _check_file_shapes(
    engine: LSMEngine, tables: list[tuple[str, SortedTable]]
) -> None:
    """Every file must be the view a build of this configuration cuts.

    A file's sizes, key range and block count all follow from its entry
    tuple and its extent, and a point read derives its blocks from the
    tuple later; where it already has, the blocks must be what a fresh
    derivation gives.  A removed marker must hold neither entries nor
    blocks.  Nothing here builds a block.
    """
    pairs_per_block = engine.config.pairs_per_block
    block_kb = engine.config.block_size_kb
    for label, table in tables:
        for file in table:
            fault = _shape_fault(file, pairs_per_block, block_kb)
            if fault:
                raise EngineError(f"{label}: file {file.file_id} {fault}")


def check_engine(engine) -> None:
    """Verify every structural invariant of ``engine``'s current state."""
    if not isinstance(engine, LSMEngine):
        raise EngineError(f"no integrity checks for {type(engine).__name__}")
    runs = _labelled_runs(engine)
    for label, run in runs:
        _check_run(run, label)
    _check_live_extents(engine, runs)
    _check_file_shapes(engine, runs)
    if engine.memtable._keys != sorted(engine.memtable._entries):
        raise EngineError("memtable key index disagrees with its entries")
    _check_read_orders(engine)
    if isinstance(engine, BLSMTree):  # Includes LSbM and the warmup variant.
        _check_gear_bounds(engine)
    if engine._buffer_levels:
        _check_buffer(engine)
