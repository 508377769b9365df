"""Differential correctness harness for every engine variant.

The paper's evaluation (Sections IV-VI) argues about *performance* under
mixed reads and writes; this package guards the *correctness* those
numbers silently assume.  It runs any engine in lockstep with a trivially
correct in-memory oracle over a long seeded schedule of puts, deletes,
gets, scans and clock ticks, while event-driven checkers subscribed to
the substrate's bus verify structural invariants (cache coherence, the
file ledger, the trim bound of Algorithm 2) continuously.  A companion
crash harness injects faults at registered crash points inside the
simulated disk and the WAL, then checks that recovery restores an
oracle-consistent state.

Everything is deterministic by seed: any failure is replayable with
``repro check --engines <name> --seed <seed> --ops <ops>``.
"""

from repro.check.crash import (
    CRASH_POINTS,
    CrashOutcome,
    CrashRecoveryHarness,
    FaultInjector,
    SimulatedCrash,
)
from repro.check.differential import DifferentialReport, DifferentialRunner
from repro.check.invariants import (
    BandwidthAttributionChecker,
    CacheCoherenceChecker,
    InvariantChecker,
    LedgerChecker,
    StructureChecker,
    TrimBoundChecker,
)
from repro.check.oracle import KVOracle
from repro.check.schedule import Op, ScheduleSpec, apply_op, generate_schedule

__all__ = [
    "CRASH_POINTS",
    "BandwidthAttributionChecker",
    "CacheCoherenceChecker",
    "CrashOutcome",
    "CrashRecoveryHarness",
    "DifferentialReport",
    "DifferentialRunner",
    "FaultInjector",
    "InvariantChecker",
    "KVOracle",
    "LedgerChecker",
    "Op",
    "ScheduleSpec",
    "SimulatedCrash",
    "StructureChecker",
    "TrimBoundChecker",
    "apply_op",
    "generate_schedule",
]
