"""The paper's contribution: the LSbM-tree and its compaction buffer."""

from repro.core.compaction_buffer import BufferLevel, CompactionBuffer
from repro.core.lsbm import LSbMStats, LSbMTree
from repro.core.trim import TrimProcess

__all__ = [
    "BufferLevel", "CompactionBuffer", "LSbMStats", "LSbMTree", "TrimProcess"
]
