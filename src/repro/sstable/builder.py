"""Building files from sorted entry streams.

Compactions and memtable flushes both end in the same step: stream sorted,
deduplicated entries out to new on-disk files.  :class:`TableBuilder` cuts
the stream into files (each a view that cuts itself into single-page
blocks when a point read first needs them), stamps super-file ids on them
(Section IV-C), allocates each file's contiguous extent and charges the
disk with the sequential write traffic.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.config import SystemConfig
from repro.obs.events import EventBus, FileCreated
from repro.sstable.entry import Entry
from repro.sstable.sstable import FileIdSource, SSTableFile
from repro.sstable.superfile import SuperFileIdSource, group_into_superfiles
from repro.storage.disk import SimulatedDisk


class TableBuilder:
    """Turns sorted entry streams into files and super-files.

    Every built file is announced as a
    :class:`~repro.obs.events.FileCreated` event when a bus is attached —
    the opening half of the file-lifecycle ledger the conformance tests
    reconcile against the disk's final state.
    """

    def __init__(
        self,
        config: SystemConfig,
        disk: SimulatedDisk,
        file_ids: FileIdSource,
        superfile_ids: SuperFileIdSource,
        bus: EventBus | None = None,
    ) -> None:
        self._config = config
        self._disk = disk
        self._file_ids = file_ids
        self._superfile_ids = superfile_ids
        self._bus = bus

    def build(
        self,
        entries: Iterable[Entry],
        charge_write: bool = True,
        cause: str = "unattributed",
    ) -> list[SSTableFile]:
        """Build files from ``entries`` (strictly sorted, unique keys).

        ``charge_write`` controls whether the sequential write traffic is
        billed to the disk; the normal path always charges, tests may
        disable it to isolate other counters.  ``cause`` labels the
        charged writes for the per-cause bandwidth attribution ("flush",
        "compaction:L2", "preload"); engine call sites always tag it.
        All files of one build are allocated and charged by a single
        :meth:`~repro.storage.disk.SimulatedDisk.write_files` call.
        """
        config = self._config
        bits_per_key = config.bloom_bits_per_key
        pairs_per_block = config.pairs_per_block
        block_size_kb = config.block_size_kb
        entries_per_file = pairs_per_block * config.blocks_per_file
        # One tuple for the whole build, one slice of it per file.  No
        # block is cut here: a file is a view (see SSTableFile).
        entries = tuple(entries)
        slices = [
            entries[start : start + entries_per_file]
            for start in range(0, len(entries), entries_per_file)
        ]
        # One disk call books the whole build (see SimulatedDisk).
        extents = self._disk.write_files(
            [-(-len(chunk) // pairs_per_block) * block_size_kb for chunk in slices],
            charge_write=charge_write,
            cause=cause,
        )
        next_id = self._file_ids.next_id
        files = [
            SSTableFile(next_id(), chunk, extent, pairs_per_block, bits_per_key)
            for chunk, extent in zip(slices, extents)
        ]
        bus = self._bus
        if bus is not None and bus.active:
            if bus.counting_only:
                bus.count(FileCreated, len(files))
            else:
                for file in files:
                    bus.emit(
                        FileCreated(
                            file_id=file.file_id,
                            size_kb=file.size_kb,
                            extent_start=file.extent.start,
                        )
                    )
        return files

    def build_grouped(
        self,
        entries: Iterable[Entry],
        charge_write: bool = True,
        cause: str = "unattributed",
    ) -> list[SSTableFile]:
        """Build files and stamp them into super-files of ``r`` members."""
        files = self.build(entries, charge_write=charge_write, cause=cause)
        group_into_superfiles(
            files, self._config.superfile_files, self._superfile_ids
        )
        return files
