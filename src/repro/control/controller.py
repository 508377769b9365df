"""Feedback controllers for the serve loop.

Closed-loop tuning for LSM stores follows Luo & Carey's memory-wall
playbook: watch write stalls and cache efficiency, and move memory
between the write path (memtable budget) and the read path (serving
cache) while pacing background work so maintenance I/O lands when the
foreground can afford it.  Three policies share one surface:

``static``
    A proven no-op.  It observes nothing and touches nothing, so a
    ``--controller static`` run's event stream is byte-identical to a
    controller-free run — the regression anchor for the other two.

``rules``
    Banded hysteresis.  Stall pressure above the high band shifts one
    memory step from the serving cache to the memtable budget, defers
    trim/major compactions and tightens admission; sustained calm with
    cache-hit headroom reverses the moves one step at a time.  A dwell
    counter (consecutive intervals in the same band) gates every
    action, so the controller cannot flap on a single noisy interval.

``gradient``
    Hill-climbing on one scalar — the memtable share of the combined
    memory budget — scoring each interval by completions minus a stall
    penalty.  The step halves on every direction reversal, converging
    near the workload's current optimum and re-expanding when a shifted
    workload moves it.

Determinism: controllers draw no randomness and read only engine/serve
state that is itself deterministic, so decision streams are identical
across ``--jobs`` fan-outs.  All actuation goes through the engines'
validated runtime knobs (``set_memtable_budget``, ``Cache.resize``,
``TrimProcess.retune``, ``AdmissionController.retune``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import ConfigError
from repro.obs.events import ControlDecision

#: Controller registry: "off" disables control entirely (no object is
#: constructed, the step loop pays only a None check).
CONTROLLER_NAMES = ("off", "static", "rules", "gradient")

#: Default virtual seconds between control ticks.
DEFAULT_CONTROL_INTERVAL_S = 30


@dataclass(frozen=True)
class ControlSensors:
    """One control tick's snapshot of the live metrics plane."""

    now: int
    #: Scheduler depth and its fraction of the admission bound.
    queue_depth: int
    queue_fraction: float
    #: Stall seconds accrued since the previous control tick.
    stall_delta_s: float
    #: Stall seconds inside the admission window (what ``decide`` sees).
    recent_stall_s: float
    #: Serving-cache hit ratio over the control interval.
    hit_ratio: float
    #: Requests completed since the previous control tick.
    completed_delta: int
    #: Writes deferred since the previous control tick.
    deferred_delta: int
    #: Memtable fill fraction against the live budget.
    l0_pressure: float


class Controller:
    """Shared sensor/actuator plumbing for every policy.

    ``bind`` attaches the controller to one :class:`ServiceSimulator`'s
    stack (engine, admission, scheduler) and snapshots the interval
    baselines; ``tick`` is called by the serve loop every
    ``interval_s`` virtual seconds and returns the decisions made, each
    already emitted as a :class:`ControlDecision` on the engine bus.
    """

    name = "controller"

    def __init__(self, interval_s: int = DEFAULT_CONTROL_INTERVAL_S) -> None:
        if interval_s < 1:
            raise ConfigError("control interval must be >= 1 virtual second")
        self.interval_s = int(interval_s)
        self.decisions_made = 0
        #: Control ticks run; with ``decisions_made``, the registry source.
        self.ticks = 0
        self._sim = None
        self._engine = None

    # ------------------------------------------------------------------
    # Wiring.
    # ------------------------------------------------------------------
    def bind(self, simulator) -> None:
        """Attach to a serve stack and snapshot interval baselines."""
        self._sim = simulator
        self._engine = simulator.engine
        self._engine.registry.register(self.metrics)
        self._last_stall = self._engine.stats.stall_seconds
        self._last_completed = simulator._completed_count
        self._last_deferred = self._event_count("WriteDeferred")
        cache = self._engine.metric_cache
        self._last_cache = cache.stats.snapshot() if cache is not None else None
        #: The memory ledger: moves conserve cache_kb + memtable_kb.
        self._base_memtable_kb = self._engine.memtable_budget_kb
        self._base_cache_units = self._cache_capacity()
        self._unit_kb = self._engine.config.block_size_kb

    def metrics(self) -> dict[str, int]:
        """The controller's registry source: its ``control.*`` counts."""
        return {
            "control.decisions": self.decisions_made,
            "control.ticks": self.ticks,
        }

    def _event_count(self, name: str) -> int:
        return self._sim.event_tally.counts.get(name, 0)

    def _cache(self):
        return self._engine.metric_cache

    def _trim(self):
        """The engine's trim process; ``None`` without a compaction buffer."""
        buffer = self._engine.buffer
        return None if buffer is None else buffer.trim

    def _cache_capacity(self) -> int:
        cache = self._cache()
        if cache is None:
            return 0
        if hasattr(cache, "capacity_blocks"):
            return cache.capacity_blocks
        return cache.capacity_pages

    # ------------------------------------------------------------------
    # Sensing.
    # ------------------------------------------------------------------
    def sense(self, now: int) -> ControlSensors:
        engine = self._engine
        sim = self._sim
        stall_total = engine.stats.stall_seconds
        stall_delta = stall_total - self._last_stall
        self._last_stall = stall_total
        completed = sim._completed_count
        completed_delta = completed - self._last_completed
        self._last_completed = completed
        deferred = self._event_count("WriteDeferred")
        deferred_delta = deferred - self._last_deferred
        self._last_deferred = deferred
        cache = self._cache()
        if cache is not None and self._last_cache is not None:
            hit_ratio = cache.stats.interval_hit_ratio(self._last_cache)
            self._last_cache = cache.stats.snapshot()
        else:
            hit_ratio = 0.0
        depth = len(sim.scheduler)
        bound = sim.admission.policy.queue_bound
        return ControlSensors(
            now=now,
            queue_depth=depth,
            queue_fraction=depth / bound,
            stall_delta_s=stall_delta,
            recent_stall_s=sim._recent_stall_s(),
            hit_ratio=hit_ratio,
            completed_delta=completed_delta,
            deferred_delta=deferred_delta,
            l0_pressure=engine.l0_pressure,
        )

    # ------------------------------------------------------------------
    # Actuation.  Every helper returns a decision dict when state moved
    # (and None when the request was a no-op), mirrored onto the bus.
    # ------------------------------------------------------------------
    def _record(
        self, now: int, action: str, knob: str,
        old: float, new: float, reason: str,
    ) -> dict:
        self.decisions_made += 1
        bus = self._engine.bus
        if bus.active:
            if bus.counting_only:
                bus.count(ControlDecision)
            else:
                bus.emit(
                    ControlDecision(
                        controller=self.name, action=action, knob=knob,
                        old=float(old), new=float(new), reason=reason,
                    )
                )
        return {
            "t": now, "controller": self.name, "action": action,
            "knob": knob, "old": float(old), "new": float(new),
            "reason": reason,
        }

    def _set_memtable_budget(self, now, budget_kb, reason) -> dict | None:
        engine = self._engine
        old = engine.memtable_budget_kb
        engine.set_memtable_budget(int(budget_kb))
        new = engine.memtable_budget_kb
        if new == old:
            return None
        return self._record(
            now, "memtable-budget", "memtable_budget_kb", old, new, reason
        )

    def _resize_cache(self, now, capacity, reason) -> dict | None:
        cache = self._cache()
        if cache is None:
            return None
        old = self._cache_capacity()
        capacity = max(1, int(capacity))
        if capacity == old:
            return None
        cache.resize(capacity)
        return self._record(
            now, "cache-resize", "cache_capacity", old, capacity, reason
        )

    def _retune_trim(self, now, interval_s, reason) -> dict | None:
        trim = self._trim()
        if trim is None:
            return None
        old = trim.interval_s
        trim.retune(interval_s=interval_s)
        if trim.interval_s == old:
            return None
        return self._record(
            now, "trim-pace", "trim_interval_s", old, trim.interval_s, reason
        )

    def _set_major_interval(self, now, interval_s, reason) -> dict | None:
        engine = self._engine
        if getattr(engine, "major_interval_s", None) is None:
            return None
        old = engine.major_interval_s
        new = max(1, int(interval_s))
        if new == old:
            return None
        engine.major_interval_s = new
        return self._record(
            now, "major-pace", "major_interval_s", old, new, reason
        )

    def _retune_admission(self, now, fraction, reason) -> dict | None:
        admission = self._sim.admission
        old = admission.policy.admit_queue_fraction
        fraction = min(1.0, max(0.25, float(fraction)))
        if abs(fraction - old) < 1e-9:
            return None
        admission.retune(admit_queue_fraction=fraction)
        return self._record(
            now, "admission", "admit_queue_fraction", old, fraction, reason
        )

    # ------------------------------------------------------------------
    # Memory rebalancing: shift ``step_kb`` between the serving cache
    # and the memtable budget, conserving their combined footprint.
    # ------------------------------------------------------------------
    def _shift_memory(self, now, to_memtable_kb, reason) -> list[dict]:
        """Move ``to_memtable_kb`` (may be negative) cache → memtable."""
        engine = self._engine
        decisions: list[dict] = []
        unit = self._unit_kb
        units = int(to_memtable_kb) // unit
        if units == 0:
            return decisions
        old_cache = self._cache_capacity()
        floor_units = max(1, self._base_cache_units // 4)
        cap_units = self._base_cache_units * 2
        new_cache = min(cap_units, max(floor_units, old_cache - units))
        moved_kb = (old_cache - new_cache) * unit
        floor_kb = engine.config.file_size_kb
        cap_kb = self._base_memtable_kb * 4
        target_kb = min(
            cap_kb, max(floor_kb, engine.memtable_budget_kb + moved_kb)
        )
        decision = self._set_memtable_budget(now, target_kb, reason)
        if decision is not None:
            decisions.append(decision)
            actual_kb = decision["new"] - decision["old"]
            new_cache = old_cache - int(actual_kb) // unit
        resized = self._resize_cache(now, new_cache, reason)
        if resized is not None:
            decisions.append(resized)
        return decisions

    # ------------------------------------------------------------------
    # Policy hook.
    # ------------------------------------------------------------------
    def tick(self, now: int) -> list[dict]:
        """One control interval: sense, decide, actuate."""
        raise NotImplementedError


class StaticController(Controller):
    """The null policy: binds, then provably does nothing.

    It does not sense, emit, or register a metrics source — its run is
    indistinguishable from a controller-free run on every channel the
    differential tests compare (events, metrics, results).
    """

    name = "static"

    def bind(self, simulator) -> None:
        # Deliberately skip the base wiring: registering the ``control.*``
        # source, even at zero, would show up in the run's metrics
        # snapshot and break the "indistinguishable" guarantee.
        self._sim = simulator
        self._engine = simulator.engine

    def tick(self, now: int) -> list[dict]:
        return []


class RulesController(Controller):
    """Banded hysteresis over stall pressure and cache-hit headroom."""

    name = "rules"

    #: Stall seconds per interval above which the write path is starved.
    high_stall_band_s = 0.2
    #: Stall seconds per interval below which the system is calm.
    low_stall_band_s = 0.02
    #: Interval hit ratio under which the read path wants memory back.
    hit_floor = 0.85
    #: Consecutive same-band intervals required before acting.
    dwell_ticks = 2

    def __init__(self, interval_s: int = DEFAULT_CONTROL_INTERVAL_S) -> None:
        super().__init__(interval_s)
        self._pressure_dwell = 0
        self._calm_dwell = 0

    def tick(self, now: int) -> list[dict]:
        sensors = self.sense(now)
        self.ticks += 1
        decisions: list[dict] = []
        pressured = (
            sensors.stall_delta_s > self.high_stall_band_s
            or sensors.deferred_delta > 0
            or sensors.queue_fraction >= 0.9
        )
        calm = (
            sensors.stall_delta_s < self.low_stall_band_s
            and sensors.deferred_delta == 0
            and sensors.queue_fraction < 0.5
        )
        if pressured:
            self._pressure_dwell += 1
            self._calm_dwell = 0
        elif calm:
            self._calm_dwell += 1
            self._pressure_dwell = 0
        else:
            self._pressure_dwell = 0
            self._calm_dwell = 0
            return decisions
        step_kb = max(self._unit_kb, self._base_memtable_kb // 4)
        def push(decision: dict | None) -> None:
            if decision is not None:
                decisions.append(decision)

        if pressured and self._pressure_dwell >= self.dwell_ticks:
            reason = (
                f"stall {sensors.stall_delta_s:.3f}s/"
                f"defer {sensors.deferred_delta}/interval"
            )
            decisions.extend(self._shift_memory(now, step_kb, reason))
            trim = self._trim()
            if trim is not None:
                base = self._engine.config.trim_interval_s
                push(self._retune_trim(
                    now, min(base * 4, trim.interval_s * 2), reason
                ))
            major = getattr(self._engine, "major_interval_s", None)
            if major is not None:
                base = self._engine.config.major_interval_s
                push(self._set_major_interval(
                    now, min(base * 4, major * 2), reason
                ))
            push(self._retune_admission(
                now,
                self._sim.admission.policy.admit_queue_fraction - 0.125,
                reason,
            ))
            self._pressure_dwell = 0
        elif calm and self._calm_dwell >= self.dwell_ticks:
            reason = (
                f"calm, hit {sensors.hit_ratio:.2f} "
                f"< {self.hit_floor:g}"
                if sensors.hit_ratio < self.hit_floor
                else "calm, restore"
            )
            if (
                sensors.hit_ratio < self.hit_floor
                or self._engine.memtable_budget_kb > self._base_memtable_kb
            ):
                decisions.extend(self._shift_memory(now, -step_kb, reason))
            trim = self._trim()
            if trim is not None:
                base = self._engine.config.trim_interval_s
                if trim.interval_s > base:
                    push(self._retune_trim(
                        now, max(base, trim.interval_s // 2), reason
                    ))
            major = getattr(self._engine, "major_interval_s", None)
            if major is not None:
                base = self._engine.config.major_interval_s
                if major > base:
                    push(self._set_major_interval(
                        now, max(base, major // 2), reason
                    ))
            push(self._retune_admission(
                now,
                self._sim.admission.policy.admit_queue_fraction + 0.125,
                reason,
            ))
            self._calm_dwell = 0
        return decisions


class GradientController(Controller):
    """Hill-climb on the memtable share of the combined memory budget."""

    name = "gradient"

    #: Score = completions − penalty × stall seconds, per interval.
    stall_penalty = 2000.0
    #: Initial move, as a fraction of the combined budget.
    initial_step = 0.10
    min_step = 0.02
    #: Memtable share is clamped to this range of the combined budget.
    min_share = 0.05
    max_share = 0.75

    def __init__(self, interval_s: int = DEFAULT_CONTROL_INTERVAL_S) -> None:
        super().__init__(interval_s)
        self._step = self.initial_step
        self._direction = 1
        self._last_score: float | None = None

    def bind(self, simulator) -> None:
        super().bind(simulator)
        cache_kb = self._base_cache_units * self._unit_kb
        self._total_kb = cache_kb + self._base_memtable_kb
        self._share = self._base_memtable_kb / self._total_kb

    def tick(self, now: int) -> list[dict]:
        sensors = self.sense(now)
        self.ticks += 1
        score = (
            sensors.completed_delta
            - self.stall_penalty * sensors.stall_delta_s
        )
        if self._last_score is not None and score < self._last_score:
            # The last move hurt: back off, try the other way, smaller.
            self._direction = -self._direction
            self._step = max(self.min_step, self._step / 2.0)
        self._last_score = score
        share = min(
            self.max_share,
            max(self.min_share, self._share + self._direction * self._step),
        )
        if abs(share - self._share) < 1e-9:
            # Pinned at a clamp: probe back toward the interior.
            self._direction = -self._direction
            return []
        delta_kb = (share - self._share) * self._total_kb
        reason = (
            f"score {score:.0f} (goodput {sensors.completed_delta}, "
            f"stall {sensors.stall_delta_s:.3f}s), share "
            f"{self._share:.2f}->{share:.2f}"
        )
        decisions = self._shift_memory(now, delta_kb, reason)
        if decisions:
            self._share = share
        return decisions


_CONTROLLERS = {
    "static": StaticController,
    "rules": RulesController,
    "gradient": GradientController,
}


def make_controller(
    name: str, interval_s: int = DEFAULT_CONTROL_INTERVAL_S
) -> Controller | None:
    """Build a controller by registry name; ``"off"`` yields ``None``."""
    if name == "off":
        return None
    factory = _CONTROLLERS.get(name)
    if factory is None:
        raise ConfigError(
            f"unknown controller {name!r}; choose from {CONTROLLER_NAMES}"
        )
    return factory(interval_s=interval_s)
