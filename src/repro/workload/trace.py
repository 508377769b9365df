"""Operation-trace recording and replay.

Research workflows often need to re-run *exactly* the same operation
stream against several engines, or archive the stream that produced an
anomaly.  A trace is a plain text file, one operation per line:

    put 1234
    get 77
    del 9
    scan 100 50      # start, length-in-pairs
    tick             # advance one virtual second (housekeeping)

A stream is a ``list[TraceOp]``: :func:`load_trace`/:func:`save_trace`
round-trip it through a file, and :func:`replay_trace` drives any engine
with it, returning basic counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.errors import WorkloadError


@dataclass(frozen=True)
class TraceOp:
    """One operation in a trace."""

    op: str  # "put" | "get" | "del" | "scan" | "tick"
    key: int = 0
    length: int = 0

    def to_line(self) -> str:
        if self.op == "tick":
            return "tick"
        if self.op == "scan":
            return f"scan {self.key} {self.length}"
        return f"{self.op} {self.key}"


#: Integer operands each operation takes; the first is a key.
_OPERANDS = {"put": 1, "get": 1, "del": 1, "scan": 2, "tick": 0}


def parse_line(line: str) -> TraceOp | None:
    """Parse one trace line; returns ``None`` for blanks and comments.

    Anything else that is not an operation, or a key outside the signed
    64-bit range, raises :class:`WorkloadError`.
    """
    body = line.split("#", 1)[0].strip()
    if not body:
        return None
    parts = body.split()
    op = parts[0].lower()
    if op not in _OPERANDS:
        raise WorkloadError(f"unknown trace operation: {line!r}")
    try:
        numbers = [int(part) for part in parts[1:]]
    except ValueError:
        numbers = None
    if numbers is None or len(numbers) != _OPERANDS[op]:
        raise WorkloadError(f"malformed trace line: {line!r}")
    if numbers and not -(2**63) <= numbers[0] < 2**63:  # Bloom-hashable.
        raise WorkloadError(f"key outside the signed 64-bit range: {line!r}")
    return TraceOp(op, *numbers)


def save_trace(ops: list[TraceOp], path: str | Path) -> None:
    Path(path).write_text("\n".join(op.to_line() for op in ops) + "\n")


def load_trace(path: str | Path) -> list[TraceOp]:
    """Read a trace file; a bad line raises ``WorkloadError`` at
    ``path:lineno``."""
    ops = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        try:
            parsed = parse_line(line)
        except WorkloadError as error:
            raise WorkloadError(f"{path}:{lineno}: {error}") from None
        if parsed is not None:
            ops.append(parsed)
    return ops


@dataclass
class ReplayResult:
    """What a replay did and found."""

    puts: int = 0
    gets: int = 0
    deletes: int = 0
    scans: int = 0
    ticks: int = 0
    found: int = 0
    pairs_scanned: int = 0


def replay_trace(engine, clock, ops: list[TraceOp]) -> ReplayResult:
    """Drive ``engine`` with a trace (clock advanced on ``tick`` ops)."""
    result = ReplayResult()
    for op in ops:
        if op.op == "put":
            engine.put(op.key)
            result.puts += 1
        elif op.op == "get":
            if engine.get(op.key).found:
                result.found += 1
            result.gets += 1
        elif op.op == "del":
            engine.delete(op.key)
            result.deletes += 1
        elif op.op == "scan":
            scan = engine.scan(op.key, op.key + max(op.length, 1) - 1)
            result.pairs_scanned += len(scan.entries)
            result.scans += 1
        else:  # tick
            clock.advance(1)
            engine.tick(clock.now)
            result.ticks += 1
    return result
