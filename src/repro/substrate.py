"""The typed substrate every engine stack is built from.

:class:`Substrate` bundles the shared environment below an engine —
configuration, virtual clock, simulated disk, the cache hierarchy, and
the observability core (:class:`~repro.obs.metrics.MetricsRegistry` +
:class:`~repro.obs.events.EventBus`) — into one typed object.  Every
engine is built from one (``LSMEngine(substrate)``), and
:mod:`repro.sim.experiment` creates one per registered engine with the
cache stack that engine's spec declares.

Constructing a substrate registers its disk and caches as registry
sources and binds the caches to the bus, so every layer reports through
one spine without each call site having to thread observability
arguments around.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cache.db_cache import DBBufferCache
from repro.cache.os_cache import OSBufferCache
from repro.clock import VirtualClock
from repro.config import SystemConfig
from repro.obs.events import EventBus
from repro.obs.metrics import MetricsRegistry
from repro.storage.disk import SimulatedDisk


@dataclass
class Substrate:
    """Everything below an engine: config, time, disk, caches, observability."""

    config: SystemConfig
    clock: VirtualClock
    disk: SimulatedDisk
    db_cache: DBBufferCache | None = None
    os_cache: OSBufferCache | None = None
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    bus: EventBus = field(default_factory=EventBus)

    def __post_init__(self) -> None:
        self.registry.register(self.disk.metrics)
        for name, cache in (("db", self.db_cache), ("os", self.os_cache)):
            if cache is not None:
                cache.bind_observability(self.bus, name)
                self.registry.register(cache.metrics)

    @classmethod
    def create(
        cls,
        config: SystemConfig,
        db_cache: DBBufferCache | None = None,
        os_cache: OSBufferCache | None = None,
        registry: MetricsRegistry | None = None,
        bus: EventBus | None = None,
    ) -> "Substrate":
        """Build a substrate with a fresh clock and disk for ``config``."""
        clock = VirtualClock()
        disk = SimulatedDisk(clock, config.seq_bandwidth_kb_per_s)
        return cls(
            config=config,
            clock=clock,
            disk=disk,
            db_cache=db_cache,
            os_cache=os_cache,
            registry=registry if registry is not None else MetricsRegistry(),
            bus=bus if bus is not None else EventBus(),
        )
