"""Event-driven invariant checkers.

Each checker subscribes to the substrate's event bus at engine
construction time and verifies one structural property continuously,
plus an optional ``sweep()`` that cross-checks whole-system state (the
differential runner sweeps periodically and once at the end):

* :class:`CacheCoherenceChecker` — every cached ``(file_id, block)``
  points at a live, readable block of a live file (Section I's
  compaction-induced invalidation, done *completely*);
* :class:`LedgerChecker` — the stream of FileCreated/FileDiscarded
  events reconciles exactly with the simulated disk's live footprint
  (no leaked extents, no double frees, no phantom files);
* :class:`TrimBoundChecker` — after every trim pass, every file still
  in a trimmable position of the compaction buffer meets Algorithm 2's
  cached-fraction threshold;
* :class:`BandwidthAttributionChecker` — the disk's per-cause traffic
  buckets sum to exactly the ``DiskStats`` sequential totals, with
  nothing left in the "unattributed" bucket (every KB of I/O names the
  stream — flush, per-level compaction, WAL, query — that issued it);
* :class:`StructureChecker` — at every sweep, the engine's whole state
  passes :func:`repro.validation.check_engine` (runs sorted and
  disjoint, extents live, gear bounds, buffer bookkeeping, cached read
  orders fresh).

The OS page cache is deliberately exempt from coherence checking: it is
keyed by physical address, the allocator never reuses addresses, and so
stale pages of freed extents are unreachable by construction — the
behaviour Fig. 2 depends on.
"""

from __future__ import annotations

import math

from repro.check.reflect import live_files
from repro.errors import EngineError
from repro.obs.events import FileCreated, FileDiscarded, TrimRun
from repro.validation import check_engine


class InvariantChecker:
    """Base checker: a named violation log with a bounded transcript."""

    name = "invariant"
    max_recorded = 25

    def __init__(self) -> None:
        self.checked = 0
        self.violation_count = 0
        self.violations: list[str] = []

    @property
    def ok(self) -> bool:
        return self.violation_count == 0

    def _violate(self, message: str) -> None:
        self.violation_count += 1
        if len(self.violations) < self.max_recorded:
            self.violations.append(message)

    def sweep(self) -> None:
        """Whole-state cross-check; event-only checkers keep it empty."""

    def report(self) -> dict:
        return {
            "checked": self.checked,
            "violations": self.violation_count,
            "examples": list(self.violations),
            "ok": self.ok,
        }


class CacheCoherenceChecker(InvariantChecker):
    """Cached DB-cache blocks always index live on-disk data."""

    name = "cache-coherence"

    def __init__(self, engine, cache, disk, bus) -> None:
        super().__init__()
        self._engine = engine
        self._cache = cache
        self._disk = disk
        bus.subscribe(FileDiscarded, self._on_discard)

    def _on_discard(self, event: FileDiscarded) -> None:
        self.checked += 1
        stale = self._cache.cached_blocks(event.file_id)
        if stale:
            self._violate(
                f"file {event.file_id} discarded ({event.reason}) with "
                f"{stale} blocks still cached"
            )

    def sweep(self) -> None:
        live = live_files(self._engine)
        for file_id in self._cache.resident_file_ids():
            self.checked += 1
            file = live.get(file_id)
            if file is None:
                self._violate(f"cache holds blocks of dead file {file_id}")
                continue
            if not self._disk.is_live(file.extent):
                self._violate(
                    f"cache holds blocks of file {file_id} whose extent "
                    "was freed"
                )
                continue
            for index in self._cache.resident_blocks(file_id):
                if index >= file.num_blocks:
                    self._violate(
                        f"cache holds out-of-range block {index} of file "
                        f"{file_id} ({file.num_blocks} blocks)"
                    )


class LedgerChecker(InvariantChecker):
    """File lifecycle events reconcile with the disk's live footprint."""

    name = "ledger"

    def __init__(self, disk, bus) -> None:
        super().__init__()
        self._disk = disk
        self._live: dict[int, int] = {}
        bus.subscribe(FileCreated, self._on_create)
        bus.subscribe(FileDiscarded, self._on_discard)

    def _on_create(self, event: FileCreated) -> None:
        self.checked += 1
        if event.file_id in self._live:
            self._violate(f"file {event.file_id} created twice")
        self._live[event.file_id] = event.size_kb

    def _on_discard(self, event: FileDiscarded) -> None:
        self.checked += 1
        size = self._live.pop(event.file_id, None)
        if size is None:
            self._violate(
                f"file {event.file_id} discarded but never created "
                "(or discarded twice)"
            )
        elif size != event.size_kb:
            self._violate(
                f"file {event.file_id} created with {size} KB but "
                f"discarded with {event.size_kb} KB"
            )

    def sweep(self) -> None:
        self.checked += 1
        ledger_kb = sum(self._live.values())
        if ledger_kb != self._disk.live_kb:
            self._violate(
                f"ledger says {ledger_kb} KB live, disk says "
                f"{self._disk.live_kb} KB"
            )
        if len(self._live) != self._disk.live_extents:
            self._violate(
                f"ledger says {len(self._live)} live files, disk says "
                f"{self._disk.live_extents} extents"
            )


class TrimBoundChecker(InvariantChecker):
    """After each trim pass, surviving trimmable files meet the bound.

    Algorithm 2 removes a compaction-buffer file when fewer than
    ``trim_threshold`` of its blocks are cache-resident, so immediately
    after a pass every file the pass could have considered must sit at
    or above the threshold.  On engines without a compaction buffer the
    checker never sees a TrimRun and stays trivially green.
    """

    name = "trim-bound"

    def __init__(self, engine, cache, config, bus) -> None:
        super().__init__()
        self._engine = engine
        self._cache = cache
        self._threshold = config.trim_threshold
        self.trim_runs = 0
        bus.subscribe(TrimRun, self._on_trim)

    def _on_trim(self, event: TrimRun) -> None:
        self.trim_runs += 1
        buffer_levels = getattr(self._engine, "buffer", None)
        if buffer_levels is None or self._cache is None:
            return
        for level in buffer_levels[1:]:
            for table in level.trimmable_tables():
                for file in table:
                    if file.removed:
                        continue
                    self.checked += 1
                    cached = self._cache.cached_blocks(file.file_id)
                    if cached / file.num_blocks < self._threshold:
                        self._violate(
                            f"after trim run {event.run_index}, file "
                            f"{file.file_id} kept with {cached}/"
                            f"{file.num_blocks} cached blocks "
                            f"(threshold {self._threshold})"
                        )


class BandwidthAttributionChecker(InvariantChecker):
    """Per-cause disk traffic sum-reconciles with the DiskStats totals.

    Every KB the disk counts in ``stats.seq_read_kb``/``seq_write_kb``
    lands in exactly one cause bucket, so the buckets must sum back to
    the totals; a gap means some code path records I/O outside
    ``background_read``/``background_write``/``foreground_sequential_read``.
    A nonzero "unattributed" bucket is also a violation: it means an
    engine issues I/O without naming its stream, which would silently
    corrupt the per-cause bandwidth breakdown the profiling layer reports.
    """

    name = "bandwidth-attribution"
    #: Tolerance for float accumulation drift over millions of adds.
    abs_tol_kb = 1e-6

    def __init__(self, disk) -> None:
        super().__init__()
        self._disk = disk

    def sweep(self) -> None:
        stats = self._disk.stats
        for kind, buckets, total in (
            ("read", self._disk.cause_read_kb, stats.seq_read_kb),
            ("write", self._disk.cause_write_kb, stats.seq_write_kb),
        ):
            self.checked += 1
            attributed = sum(buckets.values())
            if not math.isclose(
                attributed, total, rel_tol=1e-9, abs_tol=self.abs_tol_kb
            ):
                self._violate(
                    f"per-cause {kind} buckets sum to {attributed:.3f} KB "
                    f"but DiskStats counts {total:.3f} KB"
                )
            self.checked += 1
            loose = buckets.get("unattributed", 0.0)
            if loose > self.abs_tol_kb:
                self._violate(
                    f"{loose:.3f} KB of {kind} traffic is unattributed"
                )


class StructureChecker(InvariantChecker):
    """The engine's structural invariants hold at every sweep."""

    name = "structure"

    def __init__(self, engine) -> None:
        super().__init__()
        self._engine = engine

    def sweep(self) -> None:
        self.checked += 1
        try:
            check_engine(self._engine)
        except EngineError as error:
            self._violate(str(error))


def attach_checkers(setup) -> dict[str, InvariantChecker]:
    """Wire the standard checkers onto a built engine.

    ``setup`` is a :class:`repro.sim.experiment.ExperimentSetup`; the
    checkers subscribe to its substrate's bus, so they must be attached
    before the first operation (file events are not replayable).
    """
    bus = setup.substrate.bus
    disk = setup.disk
    checkers: dict[str, InvariantChecker] = {
        "ledger": LedgerChecker(disk, bus),
        "trim-bound": TrimBoundChecker(
            setup.engine, setup.db_cache, setup.config, bus
        ),
        "bandwidth-attribution": BandwidthAttributionChecker(disk),
        "structure": StructureChecker(setup.engine),
    }
    if setup.db_cache is not None:
        checkers["cache-coherence"] = CacheCoherenceChecker(
            setup.engine, setup.db_cache, disk, bus
        )
    return checkers
