"""Simulation harness: clock, driver, metrics, experiments, sweeps."""

from repro.clock import VirtualClock
from repro.sim.driver import MixedReadWriteDriver
from repro.sim.experiment import (
    ENGINE_NAMES,
    ENGINE_SPECS,
    EngineSpec,
    ExperimentSetup,
    build_engine,
    execute,
    execute_with_trace,
    preload,
    run_experiment,
)
from repro.sim.metrics import RunResult, TimeSeries
from repro.sim.report import ascii_table, mark_line, series_block, sparkline
from repro.sim.spec import ExperimentSpec
from repro.sim.sweep import (
    CellSummary,
    SpecOutcome,
    SweepOutcome,
    expand_grid,
    run_sweep,
    summarize_cells,
)

__all__ = [
    "CellSummary",
    "ENGINE_NAMES",
    "ENGINE_SPECS",
    "EngineSpec",
    "ExperimentSetup",
    "ExperimentSpec",
    "MixedReadWriteDriver",
    "RunResult",
    "SpecOutcome",
    "SweepOutcome",
    "TimeSeries",
    "VirtualClock",
    "ascii_table",
    "build_engine",
    "execute",
    "execute_with_trace",
    "expand_grid",
    "mark_line",
    "preload",
    "run_experiment",
    "run_sweep",
    "series_block",
    "sparkline",
    "summarize_cells",
]
