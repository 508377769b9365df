"""The eager file, kept as the reference the view is checked against.

Until a file became a view of its build (a tuple slice; blocks cut on
the first point read), a build cut every file into ``Block`` objects at
once and a scan walked those blocks.  The functions here are that code —
the parent's builder slicing, ``SSTableFile.find_block``,
``SSTableFile.blocks_overlapping``, ``SSTableFile.entry_list`` and
``Block.entries_in_range`` — moved out of ``src/`` unchanged except that
they take the block list as an argument.  ``tests/test_sstable.py`` holds
the view to them on random inputs; ``reference_scan`` in
``tests/test_read_path.py`` runs them beside every engine's ``scan``.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence

from repro.sstable.block import Block
from repro.sstable.entry import Entry


def eager_blocks(
    entries: Sequence[Entry], pairs_per_block: int, bits_per_key: int
) -> list[Block]:
    """One file's blocks, cut and validated up front as a build used to."""
    return [
        Block(entries[start : start + pairs_per_block], bits_per_key, index)
        for index, start in enumerate(range(0, len(entries), pairs_per_block))
    ]


def find_block(blocks: list[Block], key: int) -> Block | None:
    """The block whose range covers ``key``, if one exists."""
    max_keys = [block.max_key for block in blocks]
    position = bisect_left(max_keys, key)
    if position == len(max_keys):
        return None
    block = blocks[position]
    return block if block.min_key <= key else None


def blocks_overlapping(blocks: list[Block], low: int, high: int) -> list[Block]:
    """All blocks intersecting ``[low, high]`` in key order."""
    if high < low:
        return []
    start = bisect_left([block.max_key for block in blocks], low)
    result: list[Block] = []
    for block in blocks[start:]:
        if block.min_key > high:
            break
        result.append(block)
    return result


def entries_in_range(block: Block, low: int, high: int) -> list[Entry]:
    """All entries with ``low <= key <= high`` (inclusive bounds)."""
    if high < low:
        return []
    start = bisect_left(block._keys, low)
    end = bisect_left(block._keys, high + 1)
    return list(block._entries[start:end])


def entry_list(blocks: list[Block]) -> list[Entry]:
    """All entries of the file, block by block."""
    result: list[Entry] = []
    for block in blocks:
        result.extend(block.entries)
    return result
