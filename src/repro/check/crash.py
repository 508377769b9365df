"""Crash/recovery fault injection.

Crash points are instrumented instants inside the storage layer
(:mod:`repro.storage.disk`) and the write-ahead log
(:mod:`repro.lsm.wal`): each calls its ``fault_hook`` with a point name,
and an armed :class:`FaultInjector` raises :class:`SimulatedCrash` on
the Nth hit — killing the process mid-flush, mid-compaction, or mid-log
append.

Verification uses deterministic replay instead of state snapshots.  The
whole simulation is a pure function of the schedule, so the state a
crashed process left on "disk" is reconstructed by replaying the
schedule prefix into a fresh engine; the durable artifact that survives
the crash — the WAL tail captured at the crash instant — is spliced in
with :meth:`~repro.lsm.wal.WriteAheadLog.restore_records`; then the
normal ``simulate_crash()`` + ``recover()`` path runs.  The recovered
state must equal the oracle's at the crash point, with exactly one
degree of freedom: the in-flight write is applied iff its log record
became durable before the crash (prefix consistency — anything else is
either lost-data or time-travel).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.check.oracle import KVOracle
from repro.check.schedule import Op, ScheduleSpec, apply_op, generate_schedule
from repro.config import SystemConfig
from repro.sim.experiment import build_engine
from repro.sstable.entry import value_for

#: Every registered crash point, in rough write-path order.
CRASH_POINTS = (
    "wal.append.before",
    "wal.append.after",
    "disk.allocate",
    "disk.background_read",
    "disk.background_write",
    "disk.free",
)


class SimulatedCrash(RuntimeError):
    """Raised by an armed injector to kill the process at a crash point."""

    def __init__(self, point: str) -> None:
        super().__init__(f"simulated crash at {point}")
        self.point = point


class FaultInjector:
    """A one-shot fault: crash on the ``hits``-th visit to ``point``."""

    def __init__(self, point: str, hits: int = 1) -> None:
        if hits < 1:
            raise ValueError(f"hits must be >= 1, got {hits}")
        self.point = point
        self.remaining = hits
        self.fired = False

    def __call__(self, point: str) -> None:
        if self.fired or point != self.point:
            return
        self.remaining -= 1
        if self.remaining <= 0:
            self.fired = True
            raise SimulatedCrash(point)


def attach_injector(engine, injector: FaultInjector) -> None:
    """Install ``injector`` as the fault hook of an engine's disk and WAL."""
    engine.disk.fault_hook = injector
    if engine.wal is not None:
        engine.wal.fault_hook = injector


@dataclass
class CrashOutcome:
    """Verdict of one (engine, crash point, hit count) experiment."""

    engine: str
    point: str
    hits: int
    seed: int
    fired: bool
    crash_op: int | None
    consistent: bool
    detail: str

    def to_json_dict(self) -> dict:
        return {
            "engine": self.engine,
            "point": self.point,
            "hits": self.hits,
            "seed": self.seed,
            "fired": self.fired,
            "crash_op": self.crash_op,
            "consistent": self.consistent,
            "detail": self.detail,
        }


class CrashRecoveryHarness:
    """Inject crashes into one engine's schedule and verify recovery."""

    def __init__(
        self,
        engine_name: str,
        spec: ScheduleSpec,
        config: SystemConfig | None = None,
    ) -> None:
        self.engine_name = engine_name
        self.spec = spec
        base = config if config is not None else SystemConfig.tiny()
        # Recovery without a log has nothing to replay; the harness only
        # makes sense for WAL-backed configurations.
        self.config = (
            base if base.wal_enabled else base.replace(wal_enabled=True)
        )

    # ------------------------------------------------------------------
    # One experiment.
    # ------------------------------------------------------------------
    def run_point(self, point: str, hits: int = 1) -> CrashOutcome:
        schedule = generate_schedule(self.spec)

        # Pass 1: run until the armed fault kills the process.
        setup = build_engine(self.engine_name, self.config)
        injector = FaultInjector(point, hits)
        attach_injector(setup.engine, injector)
        crash_op: int | None = None
        inflight: Op | None = None
        for index, op in enumerate(schedule):
            try:
                apply_op(setup.engine, setup.clock, op)
            except SimulatedCrash:
                crash_op = index
                inflight = op
                break
        if crash_op is None or inflight is None:
            return CrashOutcome(
                self.engine_name,
                point,
                hits,
                self.spec.seed,
                fired=False,
                crash_op=None,
                consistent=True,
                detail="crash point never reached by this schedule",
            )
        # The durable log image the crashed process left behind.
        captured = setup.engine.wal.replay()

        # Pass 2: reconstruct the pre-crash on-disk state by replaying
        # the schedule prefix, then splice in the captured log and
        # recover.
        setup2 = build_engine(self.engine_name, self.config)
        oracle = KVOracle()
        for op in schedule[:crash_op]:
            result = apply_op(setup2.engine, setup2.clock, op)
            if op.name == "put":
                oracle.put(op.key, result)
            elif op.name == "delete":
                oracle.delete(op.key)
        pre_seq = setup2.engine.last_seq
        setup2.engine.wal.restore_records(captured)
        setup2.engine.simulate_crash()
        setup2.engine.recover()

        return self._verify(
            setup2, oracle, inflight, captured, pre_seq, crash_op, point, hits
        )

    def _verify(
        self, setup, oracle, inflight, captured, pre_seq, crash_op, point, hits
    ) -> CrashOutcome:
        got = {
            e.key: e.value()
            for e in setup.engine.scan(0, self.spec.key_space).entries
        }
        expected = oracle.as_dict()
        # Prefix consistency: the in-flight write is recovered iff its
        # log record was durable at the crash instant — never partially,
        # never speculatively.
        if inflight.name in ("put", "delete") and any(
            r.seq > pre_seq for r in captured
        ):
            if inflight.name == "put":
                expected[inflight.key] = value_for(inflight.key, pre_seq + 1)
            else:
                expected.pop(inflight.key, None)
            required = "with the durable in-flight write applied"
        else:
            required = "with the in-flight write absent"

        if got == expected:
            return CrashOutcome(
                self.engine_name,
                point,
                hits,
                self.spec.seed,
                fired=True,
                crash_op=crash_op,
                consistent=True,
                detail=f"recovered state matches oracle {required}",
            )
        missing = sorted(set(expected) - set(got))[:5]
        phantom = sorted(set(got) - set(expected))[:5]
        wrong = sorted(
            k for k in set(got) & set(expected) if got[k] != expected[k]
        )[:5]
        return CrashOutcome(
            self.engine_name,
            point,
            hits,
            self.spec.seed,
            fired=True,
            crash_op=crash_op,
            consistent=False,
            detail=(
                f"crash at op {crash_op} ({inflight.describe()}): expected "
                f"oracle state {required}; missing keys {missing}, phantom "
                f"keys {phantom}, wrong values at {wrong}"
            ),
        )

    # ------------------------------------------------------------------
    # Sweeps.
    # ------------------------------------------------------------------
    def run_all(self, hits_list: tuple[int, ...] = (1,)) -> list[CrashOutcome]:
        return [
            self.run_point(point, hits)
            for point in CRASH_POINTS
            for hits in hits_list
        ]
