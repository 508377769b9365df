"""JSONL artifacts: one record shape, one writer, one validating reader.

Every JSON Lines file the system writes — a closed-loop event trace, a
serve run's exemplar file, a flight-recorder dump — goes through
:func:`write_jsonl` (one ``json.dumps(record, sort_keys=True)`` per line)
and is read back through :func:`read_jsonl`, which checks every record.
An event becomes a record in one way, :func:`event_record`:

    {"event": "CompactionStart", "input_files": 2, "level": 0, "t": 12, ...}
    {"event": "FileCreated", "file_id": 31, "size_kb": 8, "t": 12, ...}
    ...
    {"event": "TraceEnd", "live_kb": 6144, "t": 300, ...}

A :class:`TraceRecorder` subscribes to an :class:`~repro.obs.events.EventBus`
and timestamps every event with the virtual clock.  Its final ``TraceEnd``
record (appended by :meth:`TraceRecorder.finalize`) carries the closing
disk and engine state, so the file-lifecycle ledger in a trace can be
reconciled against the run's end state from the file alone.
``python -m repro.cli trace`` wires this up for any figure run.

A span record — a serve exemplar or a closed-loop ``ReadSpan`` — carries
its stages, and :func:`reconciliation_error_s` of a valid one is exactly
``0.0``: the reader rejects a record whose stages do not sum to its total
bit for bit.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterable
from dataclasses import asdict
from pathlib import Path

from repro.clock import VirtualClock
from repro.config import ConfigError
from repro.obs.events import Event, EventBus

#: Operation kinds a request can carry.
_OPS = ("read", "scan", "write")


def event_record(now: float, event: Event) -> dict[str, object]:
    """The artifact record of one bus event at virtual time ``now``."""
    return {"t": now, "event": type(event).__name__, **asdict(event)}


class TraceRecorder:
    """Collects timestamped events for JSONL export."""

    def __init__(self, clock: VirtualClock, bus: EventBus | None = None) -> None:
        self._clock = clock
        self.records: list[dict[str, object]] = []
        if bus is not None:
            self.attach(bus)

    def attach(self, bus: EventBus) -> None:
        bus.subscribe_all(self._on_event)

    def _on_event(self, event: Event) -> None:
        self.records.append(event_record(self._clock.now, event))

    def finalize(self, **closing_state: object) -> None:
        """Append the ``TraceEnd`` footer with the run's closing state."""
        record: dict[str, object] = {"t": self._clock.now, "event": "TraceEnd"}
        record.update(closing_state)
        self.records.append(record)


def write_jsonl(path: str | Path, records: Iterable[dict]) -> int:
    """Write one sorted-key JSON line per record to ``path``, creating
    missing parent directories; returns the number of records."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [json.dumps(record, sort_keys=True) + "\n" for record in records]
    path.write_text("".join(lines))
    return len(lines)


def read_jsonl(path: str | Path) -> list[dict]:
    """Read and validate every record of a JSONL artifact.

    Exemplar files hold exemplar records (keyed by ``trace_id``);
    flight files hold a ``FlightDump`` header followed by the ring
    window's event records; closed-loop traces hold timestamped event
    records, ``ReadSpan`` among them.  Raises ``ConfigError`` naming
    ``path:lineno`` on the first bad line, and for a file with no record.
    """
    records = []
    for lineno, line in enumerate(
        Path(path).read_text().splitlines(), start=1
    ):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            if not isinstance(record, dict):
                raise ValueError(f"not a JSON object: {line.strip()!r}")
            if "trace_id" in record:
                validate_exemplar(record)
            else:
                validate_flight_record(record)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
        records.append(record)
    if not records:
        raise ConfigError(f"{path}: empty trace file")
    return records


# ----------------------------------------------------------------------
# Record checks.
# ----------------------------------------------------------------------
def stage_sum_s(stages: list[dict]) -> float:
    """Left-to-right float sum of stage durations (NOT ``math.fsum``).

    Exactness contract: the stages of an exemplar are the pricer's own
    addends in the pricer's own evaluation order, so this plain
    accumulation reproduces the recorded ``service_s`` bit for bit.
    """
    total = 0.0
    for stage in stages:
        total += stage["duration_s"]
    return total


def reconciliation_error_s(exemplar: dict) -> float:
    """|queue_delay + Σ service stages − total| for one span record.

    Zero — exactly zero, not merely small — for every exemplar the
    tracer emits: the stage sum equals ``service_s`` bitwise and
    ``total_s`` was computed as ``queue_delay_s + service_s``.  A
    closed-loop ReadSpan has no queue: its ``total_s`` is the stage sum.
    """
    service = stage_sum_s(exemplar["stages"])
    return abs(exemplar.get("queue_delay_s", 0.0) + service - exemplar["total_s"])


def validate_exemplar(record: dict) -> None:
    """Schema check for one exemplar record; raises ``ValueError``.

    Also enforces the exactness contract: the record's stage sum must
    reconcile with its queueing-delay + service-time decomposition with
    error exactly ``0.0``.
    """

    fail = _invalid("exemplar", record)
    trace_id = record.get("trace_id")
    if not isinstance(trace_id, str) or not re.fullmatch(
        r"[0-9a-f]{16}", trace_id
    ):
        raise fail("trace_id must be 16 lowercase hex digits")
    if not isinstance(record.get("seq"), int) or record["seq"] < 0:
        raise fail("seq must be a non-negative int")
    if record.get("op") not in _OPS:
        raise fail(f"op must be one of {_OPS}")
    if record.get("sampled") not in ("tail", "uniform", "full"):
        raise fail("sampled must be tail|uniform|full")
    if not isinstance(record.get("klass"), str):
        raise fail("klass must be a string")
    _validate_span(record, ("arrival_s", "queue_delay_s", "service_s"), fail)


def _invalid(what: str, record: dict):
    """The ``ValueError`` factory one record's checks raise through."""
    return lambda message: ValueError(f"invalid {what}: {message}: {record!r}")


def _validate_span(record: dict, numbers: tuple[str, ...], fail) -> None:
    """The checks every span record gets, exemplar or ReadSpan: ``numbers``
    and ``total_s`` are non-negative, ``stages`` is a non-empty list of
    named, non-negative stages, and they reconcile with ``total_s``
    exactly."""
    for key in numbers + ("total_s",):
        value = record.get(key)
        if not isinstance(value, (int, float)) or value < 0:
            raise fail(f"{key} must be a non-negative number")
    stages = record.get("stages")
    if not isinstance(stages, list) or not stages:
        raise fail("stages must be a non-empty list")
    for stage in stages:
        if not isinstance(stage, dict) or not isinstance(
            stage.get("stage"), str
        ):
            raise fail("each stage needs a 'stage' name")
        duration = stage.get("duration_s")
        if not isinstance(duration, (int, float)) or duration < 0:
            raise fail("each stage needs a non-negative duration_s")
    if reconciliation_error_s(record) != 0.0:
        raise fail("stage durations do not reconcile exactly")


def validate_flight_record(record: dict) -> None:
    """Schema check for one flight-ring or dump-header record."""
    if not isinstance(record.get("t"), (int, float)):
        raise ValueError(f"flight record needs a numeric 't': {record!r}")
    if not isinstance(record.get("event"), str):
        raise ValueError(f"flight record needs an 'event' name: {record!r}")
    if record["event"] == "ReadSpan":
        _validate_span(record, ("utilization",), _invalid("read span", record))
    if record["event"] == "FlightDump":
        if record.get("trigger") not in (
            "slo-breach",
            "stall-spike",
            "hit-ratio-dip",
        ):
            raise ValueError(f"unknown flight trigger: {record!r}")
        for key in ("value", "threshold"):
            if not isinstance(record.get(key), (int, float)):
                raise ValueError(
                    f"flight dump header needs numeric {key!r}: {record!r}"
                )
