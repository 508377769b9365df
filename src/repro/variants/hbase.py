"""An HBase-style store: minor compactions online, major compactions rare.

Section VII: "In HBase, [partial runtime compaction] is called minor
compaction, while [full idle-time compaction] is called major compaction.
However, disabling major compaction during run time mainly reduces the
compaction of old data ... this approach cannot avoid the interference
from compactions to buffer caching.  In practice, HBase still suffers low
read performance during intensive writes."

The model here is a single column-family store:

* a memtable flush appends one new HFile (sorted table) to the store;
* when the store holds more than ``max_store_files`` tables, a **minor
  compaction** merges the cheapest *contiguous-by-age* window of
  ``minor_merge_files`` tables into one (tombstones and old versions are
  kept — only a major compaction may drop them, since an older version
  could hide in a table outside the window);
* every ``major_interval_s`` virtual seconds a **major compaction**
  merges the whole store into one table, dropping obsolete versions and
  tombstones.

Minor compactions still rewrite recently-written (hot) data at new disk
locations, which is exactly why the paper's related-work section says the
approach does not solve the cache-invalidation problem — the
``hbase_interference`` benchmark measures it.
"""

from __future__ import annotations

from repro.lsm.base import LSMEngine
from repro.sstable.entry import Entry
from repro.sstable.sorted_table import SortedTable
from repro.sstable.sstable import SSTableFile


class HBaseStyleStore(LSMEngine):
    """Flat store with size-tiered minor and scheduled major compactions."""

    name = "hbase"

    def __init__(
        self,
        substrate,
        max_store_files: int = 6,
        minor_merge_files: int = 3,
        major_interval_s: int | None = 5_000,
    ) -> None:
        super().__init__(substrate)
        if minor_merge_files < 2:
            raise ValueError("minor compactions must merge at least 2 files")
        #: Sorted tables, oldest first (newest flushed last).
        self.tables: list[SortedTable] = []
        self.max_store_files = max_store_files
        self.minor_merge_files = minor_merge_files
        #: ``None`` disables major compactions entirely (the configuration
        #: the paper's related-work discussion warns about).
        self.major_interval_s = major_interval_s
        self._last_major_s = 0
        self.minor_compactions = 0
        self.major_compactions = 0

    def _run_groups(self) -> list[list[SortedTable]]:
        """The flat store is one group: every table, oldest first."""
        return [self.tables]

    # ------------------------------------------------------------------
    # Compactions: saturation-triggered minors in the pass, the
    # time-triggered major on ``tick``.
    # ------------------------------------------------------------------
    def _do_compactions(self) -> None:
        if self.write_stalled:
            files = self._flush_memtable_to_files()
            self.tables.append(SortedTable(files))
        while len(self.tables) > self.max_store_files:
            self._minor_compaction()

    def tick(self, now: int) -> None:
        super().tick(now)
        if (
            self.major_interval_s is not None
            and now - self._last_major_s >= self.major_interval_s
            and len(self.tables) > 1
        ):
            self._last_major_s = now
            self._major_compaction()

    def _minor_compaction(self) -> None:
        """Merge the cheapest contiguous-by-age window of tables."""
        window = self.minor_merge_files
        start = min(
            range(len(self.tables) - window + 1),
            key=lambda i: sum(t.size_kb for t in self.tables[i : i + window]),
        )
        self._merge_tables(slice(start, start + window), "minor")
        self.minor_compactions += 1

    def _major_compaction(self) -> None:
        """Merge the whole store, dropping old versions and tombstones."""
        self._merge_tables(slice(None), "major")
        self.major_compactions += 1

    def _merge_tables(self, span: slice, kind: str) -> None:
        """Replace the tables of ``self.tables[span]`` by their merge.

        Only a major compaction may drop (or claim to have dropped)
        anything: an older version could hide in a table outside a
        minor's window.
        """
        major = kind == "major"

        def install(new_files: list[SSTableFile]) -> None:
            self.tables[span] = [SortedTable(new_files)]

        self._rewrite_files(
            [f for table in self.tables[span] for f in table],
            install,
            level=0,
            drop_tombstones=major,
            kind=kind,
            cause=f"compaction:{kind}",
            temp_space=True,
            report_obsolete=major,
        )

    # ------------------------------------------------------------------
    # Bulk loading.
    # ------------------------------------------------------------------
    def bulk_load(self, entries: list[Entry]) -> None:
        files = self.builder.build(iter(entries), cause="preload")
        self.tables.insert(0, SortedTable(files))  # Oldest position.
        self._seq = max(self._seq, max((e.seq for e in entries), default=0))
        self._structure_changed()
