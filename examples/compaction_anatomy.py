#!/usr/bin/env python3
"""Anatomy of a buffered merge: watching LSbM's structures evolve.

Drives an LSbM-tree with a skewed read/write mix and periodically prints
the state of every level — the gear pair Ci/Ci', the compaction-buffer
lists Bi/Bi'/Bi^0, freeze flags, and what the trim process has discarded.
This is the fastest way to *see* Algorithm 1 run: files flow from C0'
down the tree while their hot subset accumulates in the buffer lists.

Run:  python examples/compaction_anatomy.py
"""

from __future__ import annotations

import random

from repro import SystemConfig, build_engine, preload


def describe(engine) -> str:
    lines = []
    c0 = engine.memtable.size_kb
    lines.append(
        f"  level 0: C0 {c0:>6} KB   C0' {engine.c0_prime.size_kb:>6} KB"
    )
    for level in range(1, engine.num_levels + 1):
        c = engine.c[level].size_kb
        cp = engine.cp[level].size_kb if level < engine.num_levels else 0
        buf = engine.buffer[level]
        flags = " FROZEN" if buf.frozen else ""
        lines.append(
            f"  level {level}: C{level} {c:>6} KB   C{level}' {cp:>6} KB   "
            f"B{level}^0 {buf.incoming.size_kb:>5} KB   "
            f"B{level} {sum(t.size_kb for t in buf.tables):>5} KB "
            f"({len(buf.tables)} tables)   "
            f"B{level}' {buf.draining_live_kb:>5} KB{flags}"
        )
    return "\n".join(lines)


def main() -> None:
    config = SystemConfig.paper_scaled(4096)
    setup = build_engine("lsbm", config)
    engine, clock, cache = setup.engine, setup.clock, setup.db_cache
    preload(setup)

    workload_rng = random.Random(3)
    hot_start = config.unique_keys // 4
    hot_size = config.hot_range_pairs

    print(f"dataset {config.unique_keys} keys; hot range "
          f"[{hot_start}, {hot_start + hot_size}); watching 6,000 virtual s\n")

    for second in range(1, 6001):
        # ~0.25 writes and a few hot reads per virtual second.
        if second % 4 == 0:
            engine.put(workload_rng.randrange(config.unique_keys))
        for _ in range(3):
            if workload_rng.random() < 0.98:
                key = hot_start + workload_rng.randrange(hot_size)
            else:
                key = workload_rng.randrange(config.unique_keys)
            engine.get(key)
        clock.advance(1)
        engine.tick(clock.now)

        if second % 1000 == 0:
            stats = engine.lsbm_stats
            print(f"t={second:>5}s  (compactions={engine.stats.compactions}, "
                  f"buffer appended={stats.buffer_files_appended}, "
                  f"removed={stats.buffer_files_removed}, "
                  f"trim runs={engine.buffer.trim.runs}, "
                  f"hit={cache.stats.hit_ratio:.3f})")
            print(describe(engine))
            print()

    print("reads served by compaction buffer:",
          engine.lsbm_stats.reads_served_by_buffer)
    print("reads served by underlying tree:  ",
          engine.lsbm_stats.reads_served_by_tree)
    print("cache invalidations:              ", cache.stats.invalidations)


if __name__ == "__main__":
    main()
