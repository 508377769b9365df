"""Structured engine events and the bus that carries them.

Per-second sampling (the paper's measurement granularity) cannot explain
*why* a hit-ratio series dips: the causes — a compaction deleting a hot
file, a trim pass emptying a buffer level, a freeze — happen between
samples.  Luo & Carey's performance-stability study makes the same point
for real LSM systems: diagnosing them requires event-level traces.

Every state transition an engine performs is therefore published as one
frozen dataclass on an :class:`EventBus`:

========================= ==================================================
event                     emitted when
========================= ==================================================
:class:`FlushDone`        the memtable was written out as level-0 files
:class:`CompactionStart`  a merge's inputs are chosen, before any I/O
:class:`CompactionEnd`    a merge installed its outputs
:class:`FileCreated`      the table builder allocated one on-disk file
:class:`FileDiscarded`    a file's extent was freed (with the reason)
:class:`CacheInvalidated` a cache dropped a deleted file's resident blocks
:class:`TrimRun`          LSbM's trim pass finished (Algorithm 2)
:class:`BufferFrozen`     a compaction-buffer level froze (repeated data)
:class:`BufferUnfrozen`   a frozen level rotated and resumed buffering
:class:`ReadSpan`         the closed-loop span sampler kept one read's path
:class:`RequestShed`      the service layer dropped a request (admission)
:class:`WriteDeferred`    admission control deferred a write with retry-after
:class:`RangeMigrated`    a cluster split moved a key range between shards
:class:`CacheResized`     a runtime controller changed a cache's capacity
:class:`MemtableResized`  a runtime controller moved the write-buffer budget
:class:`ControlDecision`  the runtime controller actuated one knob
========================= ==================================================

The file events form a *ledger*: every ``FileCreated`` must eventually be
matched by a ``FileDiscarded`` or correspond to a live file, and the summed
sizes reconcile with ``disk.live_kb`` — the invariant the engine
conformance tests assert for every engine variant.

A bus with no subscribers short-circuits in ``emit`` and emitters can skip
event construction entirely by checking :attr:`EventBus.active`.
"""

from __future__ import annotations

from collections import Counter as _TallyCounter
from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # repro.lsm.base imports repro.obs: keep this one-way.
    from repro.lsm.base import ReadCost


@dataclass(frozen=True, slots=True)
class FlushDone:
    """The memtable was flushed into ``files`` level-0 files."""

    entries: int
    files: int
    size_kb: float


@dataclass(frozen=True, slots=True)
class CompactionStart:
    """A merge is about to read its inputs.

    ``level`` is the source level (-1 when the engine has no levels, e.g.
    the flat HBase store); ``kind`` distinguishes merge flavours: "merge"
    into a sorted run, "tier" (a level's tables into one new table one
    level down), "collapse" (a multi-run last level in place), and the
    flat store's "minor" and "major".
    """

    level: int
    input_files: int
    input_kb: float
    kind: str = "merge"


@dataclass(frozen=True, slots=True)
class CompactionEnd:
    """A merge installed its outputs and retired its inputs."""

    level: int
    read_kb: float
    write_kb: float
    output_files: int
    obsolete_entries: int
    kind: str = "merge"


@dataclass(frozen=True, slots=True)
class FileCreated:
    """The builder allocated one on-disk file."""

    file_id: int
    size_kb: int
    extent_start: int


@dataclass(frozen=True, slots=True)
class FileDiscarded:
    """A file's extent was freed.

    ``reason`` is "compaction" for normal retirement of merged inputs and
    rewritten outputs, "buffer" for compaction-buffer removals (trim;
    LSbM's pace-removal and freeze; the interpreter's buffer bound).
    """

    file_id: int
    size_kb: int
    reason: str = "compaction"


@dataclass(frozen=True, slots=True)
class CacheInvalidated:
    """A cache dropped the resident blocks of a deleted file."""

    cache: str
    file_id: int
    blocks: int


@dataclass(frozen=True, slots=True)
class TrimRun:
    """One pass of LSbM's trim process completed."""

    removed: int
    run_index: int


@dataclass(frozen=True, slots=True)
class BufferFrozen:
    """A compaction-buffer level stopped accepting appends."""

    level: int


@dataclass(frozen=True, slots=True)
class BufferUnfrozen:
    """A frozen level rotated; buffering resumed."""

    level: int


@dataclass(frozen=True, slots=True)
class ReadSpan:
    """One sampled read's span (``repro.obs.tracing.read_stages``).

    ``stages`` is the list a serve exemplar keeps, ``total_s`` their
    left-to-right sum (bitwise the read's priced service time), and
    ``cost`` the read's ``ReadCost``, every counter under its own name.
    """

    op: str
    sample_index: int
    utilization: float
    total_s: float
    stages: list[dict]
    cost: ReadCost


@dataclass(frozen=True, slots=True)
class RequestShed:
    """The service layer dropped one request instead of queueing it.

    ``reason`` says why: "queue-full" when the bounded scheduler queue
    rejected it, "queue-pressure" or "write-stall" when admission control
    gave up on a write that exhausted its retries.
    """

    klass: str
    op: str
    reason: str
    retries: int = 0


@dataclass(frozen=True, slots=True)
class WriteDeferred:
    """Admission control pushed a write back with a retry-after time.

    The client class is told to re-present the write at ``retry_at_s``
    (virtual seconds); ``reason`` is the backpressure signal that fired
    ("queue-pressure" or "write-stall").
    """

    klass: str
    retry_at_s: float
    reason: str
    retries: int = 0


@dataclass(frozen=True, slots=True)
class RangeMigrated:
    """A live shard split moved the keys ``low <= key < high``.

    Emitted on both shards' buses: ``direction`` is "out" on the source
    and "in" on the target, ``peer`` the other shard's index, ``entries``
    the number of live entries handed over.
    """

    low: int
    high: int
    entries: int
    direction: str
    peer: int


@dataclass(frozen=True, slots=True)
class CacheResized:
    """A runtime controller changed a cache's capacity mid-run.

    ``cache`` names the resized cache ("db_cache" or "os_cache"),
    capacities are in the cache's own units (blocks or pages), and
    ``evicted`` counts the entries dropped to fit a shrink (0 on grow —
    a grown cache adopts incrementally through normal inserts).
    """

    cache: str
    old_capacity: int
    new_capacity: int
    evicted: int = 0


@dataclass(frozen=True, slots=True)
class MemtableResized:
    """A runtime controller moved the engine's write-buffer budget.

    The budget bounds level 0 (memtable + C0') for the gear trigger and
    the write-stall threshold; both budgets are in KB.
    """

    old_kb: int
    new_kb: int


@dataclass(frozen=True, slots=True)
class ControlDecision:
    """The runtime controller actuated one knob.

    ``controller`` is the policy name ("rules", "gradient", ...),
    ``action`` a short verb ("grow-cache", "shed-writes", ...), ``knob``
    the actuated parameter, with its ``old`` and ``new`` values and the
    sensor ``reason`` that drove the decision.
    """

    controller: str
    action: str
    knob: str
    old: float
    new: float
    reason: str


#: Union of every event type, for subscribers that want static typing.
Event = (
    FlushDone
    | CompactionStart
    | CompactionEnd
    | FileCreated
    | FileDiscarded
    | CacheInvalidated
    | TrimRun
    | BufferFrozen
    | BufferUnfrozen
    | ReadSpan
    | RequestShed
    | WriteDeferred
    | RangeMigrated
    | CacheResized
    | MemtableResized
    | ControlDecision
)

Handler = Callable[[Event], None]


class EventBus:
    """Synchronous publish/subscribe fan-out of engine events.

    Handlers run inline on ``emit`` in subscription order, type-specific
    subscribers before catch-all ones.  Handlers must not raise: an engine
    mid-compaction is in no position to unwind observer errors.
    """

    __slots__ = (
        "_by_type",
        "_all",
        "active",
        "_tallies",
        "counting_only",
    )

    def __init__(self) -> None:
        self._by_type: dict[type, list[Handler]] = {}
        self._all: list[Handler] = []
        #: True once anything subscribed; emitters may skip building
        #: events entirely while this is False.
        self.active = False
        self._tallies: list["EventTally"] = []
        #: True while every subscriber is an :class:`EventTally`.  Tallies
        #: only look at an event's *type*, so emit sites may then skip
        #: constructing the event object entirely and call :meth:`count`
        #: with the class instead — the observable counts are identical.
        self.counting_only = False

    def subscribe(self, event_type: type, handler: Handler) -> None:
        """Receive every future event of exactly ``event_type``."""
        self._by_type.setdefault(event_type, []).append(handler)
        self.active = True
        self.counting_only = False

    def subscribe_all(self, handler: Handler) -> None:
        """Receive every future event of any type (trace recorders)."""
        self._all.append(handler)
        self.active = True
        if isinstance(handler, EventTally):
            self._tallies.append(handler)
            self.counting_only = (
                not self._by_type and len(self._tallies) == len(self._all)
            )
        else:
            self.counting_only = False

    def count(self, event_type: type, times: int = 1) -> None:
        """Tally ``times`` occurrences of ``event_type`` without a payload.

        Only meaningful while :attr:`counting_only` is true; emit sites
        use it to skip event construction when nobody would read the
        fields (a build or a discard counts all its files in one call).
        ``times=0`` tallies nothing, not a zero entry.
        """
        if times <= 0:
            return
        name = event_type.__name__
        for tally in self._tallies:
            tally.counts[name] += times

    def emit(self, event: Event) -> None:
        if not self.active:
            return
        for handler in self._by_type.get(type(event), ()):
            handler(event)
        for handler in self._all:
            handler(event)


class EventTally:
    """A subscriber counting events by type name (the cheapest observer)."""

    def __init__(self, bus: EventBus | None = None) -> None:
        self.counts: _TallyCounter[str] = _TallyCounter()
        if bus is not None:
            bus.subscribe_all(self)

    def __call__(self, event: Event) -> None:
        self.counts[type(event).__name__] += 1

    def as_dict(self) -> dict[str, int]:
        return dict(self.counts)
