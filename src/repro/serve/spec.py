"""Declarative serve-run specifications.

:class:`ServiceSpec` is to :func:`~repro.serve.service.execute_serve`
what :class:`~repro.sim.spec.ExperimentSpec` is to ``execute``: a
picklable, JSON-able description of one open-loop run — engine, config
base, client classes, offered rates, scheduling policy and admission
thresholds.  It deliberately mirrors the experiment spec's surface
(``config()``, ``cell_key()``, ``label()``, ``to_dict``/``from_dict``),
because the sweep runner identifies, deduplicates and summarizes cells
through exactly that surface; :func:`expand_serve_grid` builds the
engine × rate × policy grids behind ``repro serve``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.codec import Wire, project
from repro.config import SystemConfig
from repro.control import CONTROLLER_NAMES
from repro.control.controller import DEFAULT_CONTROL_INTERVAL_S
from repro.errors import ConfigError
from repro.obs.tracing import TRACE_MODES
from repro.serve.arrivals import PROCESSES, ClientClass
from repro.serve.scheduler import SCHEDULER_NAMES
from repro.sim.spec import CONFIG_BASES, ExperimentSpec

#: Default sampling period for per-request decomposition samples; prime
#: so samples don't phase-lock with periodic load.
DEFAULT_REQUEST_SAMPLE_EVERY = 17


@dataclass(frozen=True)
class ServiceSpec(Wire):
    """One open-loop serve run, described entirely by primitives.

    ``read_rate_qps``/``write_rate_qps`` configure the *default* client
    classes (a weight-3 ``readers`` class and a weight-1 ``writers``
    class sharing the spec's arrival process); ``classes`` overrides
    them with an explicit tuple of :class:`ClientClass` for custom
    mixes.  ``write_rate_qps=None`` takes the config's paced write rate
    (``write_rate_pairs_per_s × ops_scale``), keeping serve runs
    write-comparable with the closed-loop figures.
    """

    _wire_kind = "serve"

    engine: str
    base: str = "paper_scaled"
    scale: int = 2048
    overrides: tuple[tuple[str, object], ...] = ()
    duration_s: int | None = None
    seed: int = 0
    policy: str = "fifo"
    arrival: str = "poisson"
    read_rate_qps: float = 2000.0
    write_rate_qps: float | None = None
    queue_bound: int = 64
    admit_queue_fraction: float = 0.75
    retry_after_s: float = 5.0
    max_retries: int = 3
    classes: tuple[ClientClass, ...] = ()
    do_preload: bool = True
    #: Read the workload's hot range once before arrivals start, so the
    #: run measures steady-state serving rather than the cold-cache
    #: transient (under open-loop load a cold cache saturates the queue
    #: before it can warm, drowning engine differences in backlog).
    warm_cache: bool = True
    request_sample_every: int = DEFAULT_REQUEST_SAMPLE_EVERY
    #: Request tracing: "off" (no tracer, no flight recorder, the bus
    #: keeps its counting-only amortization), "exemplar" (tail-biased
    #: span-tree sampling + flight recorder), or "full" (every request).
    trace: str = "off"
    #: Where trace/flight JSONL files land (None = keep in memory only).
    #: Not part of the cell identity — it changes artifacts, not results.
    trace_dir: str | None = None
    #: Flight-recorder trigger thresholds (see FlightPolicy).
    trace_slo_s: float = 1.0
    trace_stall_spike_s: float = 0.25
    trace_dip_threshold: float = 0.7
    #: Runtime controller: "off" (no controller object, the step loop
    #: pays one None check), "static" (bound but provably inert),
    #: "rules" (banded hysteresis) or "gradient" (hill-climb).
    controller: str = "off"
    #: Virtual seconds between control ticks.
    control_interval_s: int = DEFAULT_CONTROL_INTERVAL_S

    def __post_init__(self) -> None:
        if self.base not in CONFIG_BASES:
            raise ConfigError(
                f"unknown config base {self.base!r}; choose from {CONFIG_BASES}"
            )
        if self.policy not in SCHEDULER_NAMES:
            raise ConfigError(
                f"unknown policy {self.policy!r}; "
                f"choose from {SCHEDULER_NAMES}"
            )
        if self.arrival not in PROCESSES:
            raise ConfigError(
                f"unknown arrival process {self.arrival!r}; "
                f"choose from {PROCESSES}"
            )
        if self.read_rate_qps < 0:
            raise ConfigError("read_rate_qps must be >= 0")
        if self.queue_bound < 1:
            raise ConfigError("queue_bound must be >= 1")
        if self.request_sample_every < 1:
            raise ConfigError("request_sample_every must be >= 1")
        if self.trace not in TRACE_MODES:
            raise ConfigError(
                f"unknown trace mode {self.trace!r}; "
                f"choose from {TRACE_MODES}"
            )
        if self.trace_slo_s <= 0:
            raise ConfigError("trace_slo_s must be > 0")
        if self.trace_stall_spike_s < 0:
            raise ConfigError("trace_stall_spike_s must be >= 0")
        if not 0.0 <= self.trace_dip_threshold <= 1.0:
            raise ConfigError("trace_dip_threshold must be in [0, 1]")
        if self.controller not in CONTROLLER_NAMES:
            raise ConfigError(
                f"unknown controller {self.controller!r}; "
                f"choose from {CONTROLLER_NAMES}"
            )
        if self.control_interval_s < 1:
            raise ConfigError("control_interval_s must be >= 1")
        # Delegate override validation (field names, sorting) to the
        # experiment spec, then adopt its normalized tuple.
        object.__setattr__(
            self, "overrides", self._experiment_spec().overrides
        )
        object.__setattr__(self, "classes", tuple(self.classes))

    def replace(self, **changes: object) -> "ServiceSpec":
        return dataclasses.replace(self, **changes)

    def with_seed(self, seed: int) -> "ServiceSpec":
        return self.replace(seed=seed)

    # ------------------------------------------------------------------
    # Materialization.
    # ------------------------------------------------------------------
    def _experiment_spec(self) -> ExperimentSpec:
        """The closed-loop spec of the same stack (every shared field)."""
        return project(self, ExperimentSpec)

    def config(self) -> SystemConfig:
        return self._experiment_spec().config()

    def client_classes(self, config: SystemConfig) -> tuple[ClientClass, ...]:
        """The effective classes: explicit ``classes`` or the defaults."""
        if self.classes:
            return self.classes
        write_qps = self.write_rate_qps
        if write_qps is None:
            write_qps = config.write_rate_pairs_per_s * config.ops_scale
        return (
            ClientClass(
                name="readers",
                op="read",
                rate_qps=self.read_rate_qps,
                process=self.arrival,
                weight=3,
            ),
            ClientClass(
                name="writers",
                op="write",
                rate_qps=write_qps,
                process=self.arrival,
                weight=1,
            ),
        )

    # ------------------------------------------------------------------
    # Labels.
    # ------------------------------------------------------------------
    def cell_key(self) -> str:
        """Grid-cell identity (everything but the seed), serve-prefixed."""
        parts = ["serve", self._experiment_spec().cell_key()]
        parts.append(self.policy)
        parts.append(self.arrival)
        parts.append(f"r{self.read_rate_qps:g}")
        if self.write_rate_qps is not None:
            parts.append(f"w{self.write_rate_qps:g}")
        if self.queue_bound != _DEFAULTS["queue_bound"]:
            parts.append(f"q{self.queue_bound}")
        if not self.warm_cache:
            parts.append("cold")
        for klass in self.classes:
            parts.append(f"c:{klass.name}:{klass.op}:{klass.rate_qps:g}")
        if self.trace != "off":
            parts.append(f"trace:{self.trace}")
            if any(
                getattr(self, name) != _DEFAULTS[name]
                for name in _FLIGHT_THRESHOLDS
            ):
                parts.append(
                    "flight:"
                    f"{self.trace_slo_s:g}"
                    f":{self.trace_stall_spike_s:g}"
                    f":{self.trace_dip_threshold:g}"
                )
        if self.controller != "off":
            parts.append(f"ctl:{self.controller}")
            if self.control_interval_s != DEFAULT_CONTROL_INTERVAL_S:
                parts.append(f"ci{self.control_interval_s}")
        return "/".join(parts)

    def label(self) -> str:
        return f"{self.cell_key()}/s{self.seed}"


#: The declared defaults ``cell_key()`` leaves out of the key.
_DEFAULTS = {
    field.name: field.default for field in dataclasses.fields(ServiceSpec)
}
_FLIGHT_THRESHOLDS = ("trace_slo_s", "trace_stall_spike_s", "trace_dip_threshold")


def expand_serve_grid(
    engines: list[str],
    rates: list[float],
    policies: list[str],
    seeds: list[int],
    arrival: str = "poisson",
    scale: int = 2048,
    duration_s: int | None = None,
    queue_bound: int = 64,
    **common: object,
) -> list[ServiceSpec]:
    """The engine × rate × policy × seed grid behind ``repro serve``."""
    specs: list[ServiceSpec] = []
    for engine in engines:
        for rate in rates:
            for policy in policies:
                for seed in seeds:
                    specs.append(
                        ServiceSpec(
                            engine=engine,
                            scale=scale,
                            duration_s=duration_s,
                            seed=seed,
                            policy=policy,
                            arrival=arrival,
                            read_rate_qps=rate,
                            queue_bound=queue_bound,
                            **common,
                        )
                    )
    return specs
