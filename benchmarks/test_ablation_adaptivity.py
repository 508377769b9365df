"""Ablation A5 — workload adaptivity of the compaction buffer (§IV-D).

"For workloads with only intensive writes, no data will be loaded into
the buffer cache and all appended data in the compaction buffer will be
removed by the trim process.  For workloads with only intensive reads,
the compaction buffer is empty since data can only be appended ... by
conducting compactions.  For workloads with both intensive reads and
writes, loaded data in the buffer cache can be effectively kept."

Three runs of the same LSbM stack — write-only, read-only, mixed — and
the buffer's steady-state size must be ~zero, zero, and substantial.
"""

from __future__ import annotations

from repro.sim.driver import MixedReadWriteDriver
from repro.sim.experiment import build_engine, preload
from repro.sim.report import ascii_table

from .common import bench_config, once, write_bench, write_report

DURATION = 5000


def _run_mode(mode: str) -> float:
    """Returns the compaction buffer's final live size in KB."""
    config = bench_config()
    if mode == "write-only":
        config = config.replace(read_threads=0)
    elif mode == "read-only":
        config = config.replace(write_rate_pairs_per_s=0.0)
    setup = build_engine("lsbm", config)
    preload(setup)
    driver = MixedReadWriteDriver(setup.engine, config, setup.clock, seed=1)
    driver.run(DURATION)
    engine = setup.engine
    engine.buffer.trim.run(engine.buffer[1:])  # Settle in-flight appends.
    return float(engine.compaction_buffer_kb)


def test_ablation_adaptivity(benchmark):
    sizes = once(
        benchmark,
        lambda: {
            mode: _run_mode(mode)
            for mode in ("write-only", "read-only", "mixed")
        },
    )
    rows = [[mode, f"{kb:,.0f}"] for mode, kb in sizes.items()]
    report = "\n".join(
        [
            "Ablation A5 — compaction-buffer size by workload (Section IV-D)",
            ascii_table(["workload", "buffer KB (final)"], rows),
        ]
    )
    write_report("ablation_adaptivity", report)
    write_bench(
        "ablation_adaptivity",
        scalars={
            f"{mode}_buffer_kb": kb for mode, kb in sizes.items()
        },
    )

    assert sizes["read-only"] == 0.0
    # Write-only: only the untrimmable newest tables may remain — at most
    # one incoming plus one completed table per gear level, each bounded
    # by the level feeding it (S0 for B1, S1 for B2; B3 is frozen).
    config = bench_config()
    untrimmable_bound = 2 * config.level0_size_kb * (1 + config.size_ratio)
    assert sizes["write-only"] <= untrimmable_bound
    # Mixed: the buffer holds a real working set.
    assert sizes["mixed"] > sizes["write-only"]
