"""One run: one workload, in this process, from set-up to a checked record.

A run measures set-up several times, then makes whole untraced *passes*
over the workload's cells until ``seconds`` have been measured (always at
least one pass), and with ``trace`` on adds one traced pass.  Work per
pass is fixed by the specs, so two passes of one run must produce the
same digests; that is the first correctness gate.
"""

from __future__ import annotations

import dataclasses
import resource
import statistics
from pathlib import Path
from time import perf_counter

from benchmarks.ladder import cells as cells_mod
from benchmarks.ladder.spec import WORKLOADS, cells

#: Set-up is timed this many times per run; the run reports the median.
SETUP_REPEATS = 3

#: Which cell the simulated end-to-end metrics are read from, where the
#: workload has more than one candidate.  ``tail`` supplies p50/p99.
MAIN_CELL = {"serve_open": "saturating", "cluster_hot_shard": "cluster"}
TAIL_CELL = {"serve_open": "comfortable", "cluster_hot_shard": "cluster"}


def _untraced_pass(workload_cells) -> dict[str, dict]:
    """Run every cell through its public entry point; summaries by cell."""
    summaries = {}
    for cell in workload_cells:
        result, wall, calib = cells_mod.run_untraced(cell)
        summary = cells_mod.summarize(cell, result)
        summary["wall_s"] = wall
        summary["wall_msteps"] = wall * calib / 1e6
        summary["sim_digest"] = cells_mod.sim_digest(result)
        summaries[cell.name] = summary
        del result  # Do not hold it while the next cell runs.
    return summaries


def _rate(summaries: dict[str, dict], wall: str) -> float:
    """Simulated operations per unit of ``wall`` over one pass."""
    ops = sum(s["reads"] + s["writes"] for s in summaries.values())
    return ops / sum(s[wall] for s in summaries.values())


def same_outputs(a: dict[str, dict], b: dict[str, dict]) -> bool:
    """Whether two runs of the same cells produced the same results."""
    return all(
        a[name][key] == b[name][key]
        for name in a
        for key in ("sim_digest", "reads", "writes")
    )


def failed_share(ops: dict) -> float:
    """Refused over arrived, plus mismatched over checked."""
    share = ops["refused"] / ops["arrived"]
    if ops["checked"]:
        share += ops["mismatched"] / ops["checked"]
    return share


def simulated_metrics(workload: str, summaries: dict[str, dict]) -> dict:
    """The simulated end-to-end metrics, from the cells the README names."""
    main = summaries[MAIN_CELL.get(workload, "lsbm")]
    tail = summaries[TAIL_CELL.get(workload, "lsbm")]
    return {
        "sim_read_qps": main["qps"],
        "sim_read_p50_ms": tail["p50_ms"],
        "sim_read_p99_ms": tail["p99_ms"],
        "sim_hit_ratio": main["hit_ratio"],
        "sim_hit_ratio_p05": main["hit_ratio_p05"],
        "sim_write_amp": main["background_write_kb"] / main["user_write_kb"],
        "sim_space_amp": main["db_mb"] / main["unique_mb"],
        "sim_stall_frac": main["stall_frac"],
    }


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale_mult: int = 1,
    smoke: bool = False,
    trace_dir: Path | None = None,
) -> dict:
    """Measure one workload; the returned record describes itself."""
    workload_cells = cells(workload, seed, scale_mult, smoke)
    setup_samples = [
        sum(cells_mod.time_set_up(cell) for cell in workload_cells)
        for _ in range(1 if smoke else SETUP_REPEATS)
    ]

    started = perf_counter()
    passes = [_untraced_pass(workload_cells)]
    while not trace and perf_counter() - started < seconds:
        passes.append(_untraced_pass(workload_cells))
    first = passes[0]
    gates = {"passes_agree": all(same_outputs(first, p) for p in passes[1:])}
    ops = {
        key: sum(s[key] for s in first.values())
        for key in ("arrived", "refused", "checked", "mismatched")
    }
    sim_ops = sum(s["reads"] + s["writes"] for s in first.values())
    untraced_wall = sum(s["wall_s"] for s in first.values())

    record: dict = {
        "workload": workload,
        "why": WORKLOADS[workload].why,
        "loop": WORKLOADS[workload].loop,
        "working_set": WORKLOADS[workload].working_set,
        "seed": seed,
        "trace": int(trace),
        "passes": len(passes),
        "sim_ops": sim_ops,
        "untraced_wall_s": untraced_wall,
        "setup_s_samples": setup_samples,
        "sim_ops_per_s_samples": [_rate(p, "wall_s") for p in passes],
        "sim_ops_per_mstep_samples": [_rate(p, "wall_msteps") for p in passes],
        "latency_samples": first[TAIL_CELL.get(workload, "lsbm")][
            "latency_samples"
        ],
        "cells": {
            cell.name: {
                "kind": cell.kind,
                "spec": cell.spec.to_dict(),
                "config": dataclasses.asdict(cell.spec.config()),
                "sim_digest": first[cell.name]["sim_digest"],
                "reads": first[cell.name]["reads"],
                "writes": first[cell.name]["writes"],
                "wall_s": [p[cell.name]["wall_s"] for p in passes],
            }
            for cell in workload_cells
        },
    }

    if trace:
        traced = cells_mod.TracedPass()
        traced_wall = 0.0
        digests_match = True
        for cell in workload_cells:
            result, wall = traced.run(cell)
            traced_wall += wall
            if cells_mod.sim_digest(result) != first[cell.name]["sim_digest"]:
                digests_match = False
        shadow = traced.shadow
        # The traced pass checks every read, so its verdict replaces the
        # untraced pass's (which only a cluster run checks at all).
        ops["checked"], ops["mismatched"] = shadow.checked, shadow.mismatched
        gates["traced_digest_matches"] = digests_match
        gates["bandwidth_reconciles"] = traced.bandwidth_reconciles
        record["traced_wall_s"] = traced_wall
        record["per_layer"] = traced.per_layer(
            workload, first, untraced_wall, traced_wall
        )
        record["layer_self_s"] = traced.layer_self_s()
        if trace_dir is not None:
            trace_dir.mkdir(parents=True, exist_ok=True)
            traced.tracer.write_jsonl(trace_dir / f"trace_{workload}.jsonl")

    gates["oracle_clean"] = ops["mismatched"] == 0
    failed = failed_share(ops)
    record["ops"] = ops
    record["gates"] = gates
    record["end_to_end"] = {
        "setup_s": statistics.median(setup_samples),
        "sim_ops_per_s": statistics.median(record["sim_ops_per_s_samples"]),
        "sim_ops_per_mstep": statistics.median(
            record["sim_ops_per_mstep_samples"]
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        **simulated_metrics(workload, first),
        "failed_share": failed,
        "sim_served_share": 1.0 - failed,
    }
    return record
