#!/usr/bin/env python3
"""Running the standard YCSB core workloads A-F against the engines.

The paper evaluates with a custom YCSB template (RangeHot), but the
workload package implements the full core suite, and
:class:`repro.sim.MixedReadWriteDriver`, the paper's closed loop, executes
any operation mix with the same costed service-time model.  This example drives
each of A-F against bLSM and LSbM and reports modeled throughput and tail
latency — the library as a general LSM workbench, not just a figure
regenerator.

Run:  python examples/ycsb_workloads.py
"""

from __future__ import annotations

from repro import MixedReadWriteDriver, SystemConfig, build_engine, preload
from repro.sim.report import ascii_table
from repro.workload.ycsb import ycsb_core_workload

DURATION_S = 600

WORKLOAD_NOTES = {
    "A": "update heavy (50/50 read/update, zipfian)",
    "B": "read mostly (95/5)",
    "C": "read only",
    "D": "read latest (95/5 read/insert)",
    "E": "short scans (95/5 scan/insert)",
    "F": "read-modify-write (50/50)",
}


def run_workload(engine_name: str, letter: str, config: SystemConfig):
    setup = build_engine(engine_name, config)
    preload(setup)
    workload = ycsb_core_workload(letter, config.unique_keys)
    driver = MixedReadWriteDriver(
        setup.engine, config, setup.clock, workload, seed=99
    )
    result = driver.run(DURATION_S)
    return result


def main() -> None:
    config = SystemConfig.paper_scaled(4096)
    rows = []
    for letter, note in WORKLOAD_NOTES.items():
        row = [f"{letter} — {note}"]
        for engine_name in ("blsm", "lsbm"):
            result = run_workload(engine_name, letter, config)
            row.append(
                f"{result.mean_throughput():,.0f}"
                f" (p99 {result.latency_percentile_s(99) * 1000:.1f} ms)"
            )
        rows.append(row)
        print(f"workload {letter} done", flush=True)
    print()
    print(
        ascii_table(
            ["YCSB core workload", "bLSM ops/s", "LSbM ops/s"], rows
        )
    )
    print(
        "\n(Modeled closed-loop throughput on the simulated HDD substrate;"
        "\n zipfian-skewed workloads cache poorly, so absolute numbers sit"
        "\n well below the paper's spatially-hot RangeHot results.)"
    )


if __name__ == "__main__":
    main()
