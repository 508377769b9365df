#!/usr/bin/env python3
"""Recording a workload trace and replaying it against every engine.

Traces make apples-to-apples engine comparisons trivial: generate the
operation stream once, archive it as a text file, and replay the *exact*
same stream against each engine.  This example records a skewed mixed
workload, replays it on four engines, and compares their I/O behaviour —
the answers must be identical, the costs must not be.

Run:  python examples/trace_replay.py
"""

from __future__ import annotations

import random
import tempfile
from pathlib import Path

from repro import SystemConfig, build_engine, preload
from repro.sim.report import ascii_table
from repro.workload.trace import TraceOp, load_trace, replay_trace, save_trace

ENGINES = ("leveldb", "blsm", "sm", "lsbm")


def record_workload(config: SystemConfig) -> list[TraceOp]:
    """A skewed read/write mix with housekeeping ticks."""
    ops = []
    rng = random.Random(2024)
    hot_start = config.unique_keys // 4
    hot_size = config.hot_range_pairs
    for step in range(8000):
        roll = rng.random()
        if roll < 0.25:
            ops.append(TraceOp("put", rng.randrange(config.unique_keys)))
        elif roll < 0.9:
            if rng.random() < 0.95:
                ops.append(TraceOp("get", hot_start + rng.randrange(hot_size)))
            else:
                ops.append(TraceOp("get", rng.randrange(config.unique_keys)))
        else:
            ops.append(
                TraceOp(
                    "scan",
                    hot_start + rng.randrange(hot_size),
                    config.scan_length_pairs,
                )
            )
        if step % 20 == 0:
            ops.append(TraceOp("tick"))
    return ops


def main() -> None:
    config = SystemConfig.paper_scaled(4096)
    path = Path(tempfile.gettempdir()) / "rangehot.trace"
    save_trace(record_workload(config), path)
    ops = load_trace(path)
    print(f"recorded {len(ops)} operations -> {path}\n")

    rows = []
    answers = set()
    for name in ENGINES:
        setup = build_engine(name, config)
        preload(setup)
        result = replay_trace(setup.engine, setup.clock, ops)
        answers.add((result.found, result.pairs_scanned))
        cache = setup.db_cache
        rows.append(
            [
                name,
                result.found,
                result.pairs_scanned,
                f"{cache.stats.hit_ratio:.3f}",
                cache.stats.invalidations,
                setup.engine.stats.compactions,
                f"{setup.disk.stats.seq_write_kb:,.0f}",
            ]
        )
        print(f"replayed on {name}", flush=True)

    print()
    print(
        ascii_table(
            [
                "engine",
                "gets found",
                "pairs scanned",
                "hit ratio",
                "invalidations",
                "compactions",
                "KB written",
            ],
            rows,
        )
    )
    assert len(answers) == 1, "engines disagreed on query answers!"
    print(
        "\nAll engines returned identical answers; only their cache and"
        "\ncompaction behaviour differs — which is the paper's whole point."
    )


if __name__ == "__main__":
    main()
