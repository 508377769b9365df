"""Unit tests for trace recording and replay."""

import pytest

from repro.errors import WorkloadError
from repro.workload.trace import (
    TraceOp,
    load_trace,
    parse_line,
    replay_trace,
    save_trace,
)

from .conftest import make_engine


class TestParsing:
    def test_parse_all_ops(self):
        assert parse_line("put 5") == TraceOp("put", 5)
        assert parse_line("get 7") == TraceOp("get", 7)
        assert parse_line("del 9") == TraceOp("del", 9)
        assert parse_line("scan 10 50") == TraceOp("scan", 10, 50)
        assert parse_line("tick") == TraceOp("tick")

    def test_blank_and_comment_lines(self):
        assert parse_line("") is None
        assert parse_line("   # just a comment") is None
        assert parse_line("put 5 # trailing comment") == TraceOp("put", 5)

    def test_case_insensitive_op(self):
        assert parse_line("PUT 5") == TraceOp("put", 5)

    @pytest.mark.parametrize(
        "bad",
        [
            "put", "scan 5", "frobnicate 1", "put x",
            "tick 5", "tick now", "put 1 2", "del 3 4",
            "scan 1 2 3", "scan a b", "get",
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(WorkloadError):
            parse_line(bad)

    def test_keys_outside_the_signed_64_bit_range_rejected(self):
        """The Bloom hash reads a key as 8 signed bytes, so a wider key is
        refused at parse time, not by an ``OverflowError`` mid-replay."""
        assert parse_line(f"put {-(2**63)}") == TraceOp("put", -(2**63))
        assert parse_line(f"get {2**63 - 1}") == TraceOp("get", 2**63 - 1)
        assert parse_line(f"scan {2**63 - 1} 5") == TraceOp("scan", 2**63 - 1, 5)
        for bad in (f"put {2**64}", f"get {2**63}", f"del {-(2**63) - 1}",
                    f"scan {2**63} 1"):
            with pytest.raises(WorkloadError, match="64-bit range"):
                parse_line(bad)

    @pytest.mark.parametrize(
        "op",
        [
            TraceOp("put", 0),
            TraceOp("get", 0),
            TraceOp("del", 0),
            TraceOp("put", 10**12),
            TraceOp("scan", 0, 0),
            TraceOp("scan", 0, 1),
            TraceOp("scan", 10**9, 10**6),
            TraceOp("tick"),
        ],
    )
    def test_line_round_trip_on_boundary_ops(self, op):
        """``parse_line`` inverts ``to_line`` exactly, including key 0,
        huge keys, and degenerate scan lengths."""
        assert parse_line(op.to_line()) == op

    def test_round_trip_survives_decoration(self):
        op = TraceOp("scan", 42, 7)
        assert parse_line(f"  {op.to_line()}   # note") == op

    def test_tick_rejects_trailing_tokens(self):
        """A trailing token on ``tick`` is a malformed line, not a
        silently ignored one — replays must not misread op streams."""
        with pytest.raises(WorkloadError):
            parse_line("tick tock")


class TestRoundTrip:
    def test_save_load(self, tmp_path):
        ops = [
            TraceOp("put", 1),
            TraceOp("get", 2),
            TraceOp("del", 3),
            TraceOp("scan", 4, 10),
            TraceOp("tick"),
        ]
        path = tmp_path / "ops.trace"
        save_trace(ops, path)
        assert load_trace(path) == ops


class TestReplay:
    def test_replay_counts_and_effects(self):
        engine, clock, *_ = make_engine("lsbm")
        ops = [
            TraceOp("put", 5),
            TraceOp("put", 6),
            TraceOp("get", 5),
            TraceOp("get", 99),
            TraceOp("del", 6),
            TraceOp("get", 6),
            TraceOp("scan", 0, 10),
            TraceOp("tick"),
        ]
        result = replay_trace(engine, clock, ops)
        assert result.puts == 2
        assert result.gets == 3
        assert result.found == 1  # Only the get of key 5.
        assert result.deletes == 1
        assert result.scans == 1
        assert result.pairs_scanned == 1  # Key 5 survives; 6 deleted.
        assert result.ticks == 1
        assert clock.now == 1

    def test_same_trace_same_outcome_across_engines(self, tmp_path):
        """A trace replayed on two engines yields identical answers —
        the whole point of archiving traces."""
        ops = []
        import random

        rng = random.Random(12)
        for _ in range(600):
            roll = rng.random()
            key = rng.randrange(512)
            if roll < 0.5:
                ops.append(TraceOp("put", key))
            elif roll < 0.8:
                ops.append(TraceOp("get", key))
            elif roll < 0.9:
                ops.append(TraceOp("del", key))
            else:
                ops.append(TraceOp("scan", key, 20))
            if rng.random() < 0.05:
                ops.append(TraceOp("tick"))
        path = tmp_path / "mixed.trace"
        save_trace(ops, path)
        assert load_trace(path) == ops

        outcomes = []
        for name in ("leveldb", "lsbm"):
            engine, clock, *_ = make_engine(name)
            result = replay_trace(engine, clock, ops)
            outcomes.append((result.found, result.pairs_scanned))
        assert outcomes[0] == outcomes[1]
