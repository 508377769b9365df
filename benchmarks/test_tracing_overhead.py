"""Tracing overhead — what the telemetry plane costs the simulator.

The tracing layer promises a strict cost ladder: ``off`` keeps the
PR-6 counting-only hot path untouched (no tracer, no flight recorder,
the event bus stays in counting mode), ``exemplar`` adds the O(1)
tail-sampler admission test plus the flight recorder's ring, and
``full`` additionally retains every request's span stages up to the
exemplar cap.  This benchmark measures simulated ops per real second
for the same serve workload at all three modes.

What a mode *costs* is the wall time it adds per simulated operation
(``exemplar_added_us_per_op``, ``full_added_us_per_op``): that is the
tracer's own work and does not depend on how fast the untraced loop
is.  The throughput *ratio* asserted below does: the same 5 us per op
is a larger share of a faster untraced loop, so compare the added
microseconds across commits, not the ratio (EXPERIMENTS.md "Cost").

Knobs: ``REPRO_BENCH_SCALE`` as everywhere, plus
``REPRO_BENCH_TRACE_DURATION`` (default 1,000 virtual seconds — the
overhead ratio stabilises long before the SLO benchmark's horizon) and
``REPRO_BENCH_TRACE_REPS`` (default 3; the best rep per mode is scored,
which shrugs off one-off scheduler hiccups on shared CI runners).
"""

from __future__ import annotations

import os
import time

from repro.serve.service import execute_serve
from repro.serve.spec import ServiceSpec
from repro.sim.report import ascii_table

from .common import BENCH_SCALE, write_bench, write_report

TRACE_DURATION = int(os.environ.get("REPRO_BENCH_TRACE_DURATION", "1000"))
TRACE_REPS = int(os.environ.get("REPRO_BENCH_TRACE_REPS", "3"))
TRACE_RATE = 8000.0
#: Exemplar-mode tracing may cost at most this fraction of the
#: tracing-off throughput: the measured 0.20 plus the 0.04 margin this
#: budget has carried since it was 0.10 against a measured 0.06.
EXEMPLAR_BUDGET = 0.24

MODES = ("off", "exemplar", "full")


def _spec(mode: str) -> ServiceSpec:
    return ServiceSpec(
        engine="lsbm",
        scale=BENCH_SCALE,
        duration_s=TRACE_DURATION,
        read_rate_qps=TRACE_RATE,
        seed=0,
        trace=mode,
    )


def _measure(mode: str) -> dict[str, float]:
    """Best-of-``TRACE_REPS`` sim-ops/s for one trace mode."""
    best_ops_per_s = 0.0
    best_wall_s = float("inf")
    exemplars = 0
    for _ in range(TRACE_REPS):
        started = time.perf_counter()
        result = execute_serve(_spec(mode))
        wall_s = time.perf_counter() - started
        sim_ops = result.reads_completed + result.writes_applied
        ops_per_s = sim_ops / wall_s if wall_s > 0 else 0.0
        if ops_per_s > best_ops_per_s:
            best_ops_per_s = ops_per_s
            best_wall_s = wall_s
        exemplars = len(result.exemplars)
    return {
        "sim_ops_per_s": best_ops_per_s,
        "wall_clock_s": best_wall_s,
        "exemplars": float(exemplars),
    }


def test_tracing_overhead(benchmark):
    measured = benchmark.pedantic(
        lambda: {mode: _measure(mode) for mode in MODES},
        rounds=1,
        iterations=1,
    )
    off = measured["off"]["sim_ops_per_s"]
    assert off > 0.0

    rows = []
    scalars: dict[str, float] = {}
    for mode in MODES:
        entry = measured[mode]
        relative = entry["sim_ops_per_s"] / off
        scalars[f"{mode}_sim_ops_per_s"] = entry["sim_ops_per_s"]
        scalars[f"{mode}_relative"] = relative
        scalars[f"{mode}_exemplars"] = entry["exemplars"]
        # Seconds per op at this mode less seconds per op untraced.
        added_us = (1.0 / entry["sim_ops_per_s"] - 1.0 / off) * 1e6
        if mode != "off":
            scalars[f"{mode}_added_us_per_op"] = added_us
        rows.append(
            [
                mode,
                f"{entry['sim_ops_per_s']:.0f}",
                f"{relative:.3f}",
                f"{added_us:.1f}",
                f"{entry['exemplars']:.0f}",
            ]
        )
    report = "\n".join(
        [
            "Tracing overhead — sim-ops/s by trace mode (lsbm, serve)",
            f"(scale {BENCH_SCALE}, {TRACE_DURATION}s, "
            f"{TRACE_RATE:g} qps, best of {TRACE_REPS})",
            ascii_table(
                ["mode", "sim ops/s", "vs off", "added us/op", "exemplars"],
                rows,
            ),
        ]
    )
    write_report("tracing_overhead", report)
    write_bench("tracing_overhead", scalars=scalars)

    # Off mode retains nothing; traced modes retain exemplars, and full
    # retains at least as many as the tail+uniform sampler keeps.
    assert measured["off"]["exemplars"] == 0
    assert measured["exemplar"]["exemplars"] > 0
    assert (
        measured["full"]["exemplars"] >= measured["exemplar"]["exemplars"]
    )

    # The budget: exemplar tracing keeps at least (1 - EXEMPLAR_BUDGET)
    # of the tracing-off throughput (best-of-N absorbs CI timer noise).
    assert measured["exemplar"]["sim_ops_per_s"] >= (
        (1.0 - EXEMPLAR_BUDGET) * off
    ), (
        f"exemplar tracing too slow: "
        f"{measured['exemplar']['sim_ops_per_s']:.0f} ops/s vs "
        f"off {off:.0f} ops/s"
    )
