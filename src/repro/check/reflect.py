"""Engine-shape reflection: enumerate every live on-disk file.

The invariant checkers need one question answered for any of the sixteen
registered variants: *which SSTable files does the engine currently
consider live?*  Every engine declares its sorted runs once, in
:meth:`~repro.lsm.base.LSMEngine._run_groups`, and its compaction buffer
(if any) in ``_buffer_levels``; the traversal here reads those two and
knows no engine class.
"""

from __future__ import annotations

from repro.sstable.sstable import SSTableFile


def live_files(engine) -> dict[int, SSTableFile]:
    """Map ``file_id`` to every file the engine can still read.

    Files carrying LSbM's removed marker are excluded — their blocks are
    gone and queries treat them as absent (Algorithm 3's fallback).
    """
    files: dict[int, SSTableFile] = {}
    for group in engine._run_groups():
        for run in group:
            for file in run:
                if not file.removed:
                    files[file.file_id] = file
    for buffer_level in engine._buffer_levels:
        for file in buffer_level.live_files():
            files[file.file_id] = file
    return files
