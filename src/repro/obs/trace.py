"""JSONL event-trace export: a replayable, diffable log of one run.

A :class:`TraceRecorder` subscribes to an :class:`~repro.obs.events.EventBus`
and timestamps every event with the virtual clock.  The result serializes
to JSON Lines — one event per line, so two runs can be compared with
``diff`` and a log can be replayed (or grepped) without loading it whole:

    {"t": 12, "event": "CompactionStart", "level": 0, "input_files": 2, ...}
    {"t": 12, "event": "FileCreated", "file_id": 31, "size_kb": 8, ...}
    ...
    {"t": 300, "event": "TraceEnd", "live_kb": 6144, ...}

The final ``TraceEnd`` record (appended by :meth:`TraceRecorder.finalize`)
carries the closing disk and engine state, so the file-lifecycle ledger in
a trace can be reconciled against the run's end state from the file alone.
``python -m repro.cli trace`` wires this up for any figure run.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict
from pathlib import Path

from repro.clock import VirtualClock
from repro.obs.events import Event, EventBus


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
        record: dict[str, object] = {
            "t": self._clock.now,
            "event": type(event).__name__,
        }
        record.update(asdict(event))
        self.records.append(record)

    def finalize(self, **closing_state: object) -> None:
        """Append the ``TraceEnd`` footer with the run's closing state."""
        record: dict[str, object] = {"t": self._clock.now, "event": "TraceEnd"}
        record.update(closing_state)
        self.records.append(record)

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.records)

    def counts(self) -> dict[str, int]:
        """Number of recorded events per type name."""
        tally: Counter[str] = Counter(str(r["event"]) for r in self.records)
        return dict(tally)

    # ------------------------------------------------------------------
    # Serialization.
    # ------------------------------------------------------------------
    def to_jsonl(self) -> str:
        """The whole trace as JSON Lines text (trailing newline included)."""
        lines = [json.dumps(r, separators=(",", ":")) for r in self.records]
        return "\n".join(lines) + "\n" if lines else ""

    def write_jsonl(self, path: str | Path) -> int:
        """Write the trace to ``path``, creating missing parent
        directories; returns the number of records."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_jsonl())
        return len(self.records)


def read_jsonl(path: str | Path) -> list[dict[str, object]]:
    """Load a trace written by :meth:`TraceRecorder.write_jsonl`."""
    records: list[dict[str, object]] = []
    for line in Path(path).read_text().splitlines():
        if line.strip():
            records.append(json.loads(line))
    return records
