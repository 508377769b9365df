"""Declarative experiment specifications.

An :class:`ExperimentSpec` is the fully-declarative, picklable
description of one experiment run: which engine, which configuration
(a named :class:`~repro.config.SystemConfig` base plus field overrides),
how long, which seed, point reads or scans, and whether the profiling or
tracing layers are attached.  Because a spec carries only primitives it
can cross a process boundary — :mod:`repro.sim.sweep` fans lists of
specs out over a process pool — and serialize to JSON, so a sweep's
output records exactly what produced every number.

The executable counterpart lives in :mod:`repro.sim.experiment`:
``execute(spec)`` builds the engine stack and drives it;
``run_experiment`` is a thin wrapper that constructs a spec first.
"""

from __future__ import annotations

import dataclasses
import zlib
from dataclasses import dataclass

from repro.codec import Wire
from repro.config import SystemConfig
from repro.errors import ConfigError
from repro.obs.tracing import DEFAULT_SAMPLE_EVERY

#: Named configuration bases a spec can start from.  ``explicit`` means
#: the overrides tuple carries *every* ``SystemConfig`` field (used by
#: :meth:`ExperimentSpec.from_config` to wrap an arbitrary config).
CONFIG_BASES = ("paper", "paper_scaled", "ssd_scaled", "tiny", "explicit")

#: Bases for which ``scale`` is meaningful.
_SCALED_BASES = ("paper_scaled", "ssd_scaled")

_CONFIG_FIELDS = {field.name for field in dataclasses.fields(SystemConfig)}


def _format_value(value: object) -> str:
    """A compact, deterministic rendering of one override value."""
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


@dataclass(frozen=True)
class ExperimentSpec(Wire):
    """One run of one engine, described entirely by primitives.

    ``overrides`` is a sorted tuple of ``(field, value)`` pairs applied
    on top of the named configuration base; keeping it a tuple (not a
    dict) makes the spec hashable, so specs can key caches directly.
    ``to_dict()``/``from_dict()`` (the sweep transport format) come from
    :class:`~repro.codec.Wire`.
    """

    engine: str
    base: str = "paper_scaled"
    scale: int = 2048
    overrides: tuple[tuple[str, object], ...] = ()
    duration_s: int | None = None
    seed: int = 0
    scan_mode: bool = False
    do_preload: bool = True
    profile: bool = False
    sample_every: int = DEFAULT_SAMPLE_EVERY
    trace_path: str | None = None

    def __post_init__(self) -> None:
        if self.base not in CONFIG_BASES:
            raise ConfigError(
                f"unknown config base {self.base!r}; choose from {CONFIG_BASES}"
            )
        if self.sample_every < 1:
            raise ConfigError("sample_every must be >= 1")
        normalized = tuple(sorted(dict(self.overrides).items()))
        unknown = [key for key, _ in normalized if key not in _CONFIG_FIELDS]
        if unknown:
            raise ConfigError(f"unknown SystemConfig fields: {unknown}")
        object.__setattr__(self, "overrides", normalized)

    # ------------------------------------------------------------------
    # Construction helpers.
    # ------------------------------------------------------------------
    @classmethod
    def from_config(
        cls, engine: str, config: SystemConfig, **changes: object
    ) -> "ExperimentSpec":
        """Wrap an arbitrary already-built config as an explicit spec.

        Every field of ``config`` is captured in ``overrides``, so
        ``spec.config() == config`` exactly — this is how the imperative
        ``run_experiment(engine, config, ...)`` API funnels into the
        declarative path.
        """
        overrides = tuple(sorted(dataclasses.asdict(config).items()))
        return cls(
            engine=engine, base="explicit", scale=0, overrides=overrides,
            **changes,
        )

    def replace(self, **changes: object) -> "ExperimentSpec":
        """A copy with the given fields changed (and re-validated)."""
        return dataclasses.replace(self, **changes)

    def with_seed(self, seed: int) -> "ExperimentSpec":
        return self.replace(seed=seed)

    # ------------------------------------------------------------------
    # Materialization.
    # ------------------------------------------------------------------
    def config(self) -> SystemConfig:
        """Build the :class:`SystemConfig` this spec describes."""
        if self.base == "explicit":
            return SystemConfig(**dict(self.overrides))
        if self.base == "paper":
            config = SystemConfig.paper()
        elif self.base == "tiny":
            config = SystemConfig.tiny()
        elif self.base == "ssd_scaled":
            config = SystemConfig.ssd_scaled(self.scale)
        else:
            config = SystemConfig.paper_scaled(self.scale)
        if self.overrides:
            config = config.replace(**dict(self.overrides))
        return config

    # ------------------------------------------------------------------
    # Labels.
    # ------------------------------------------------------------------
    def cell_key(self) -> str:
        """The grid-cell identity: everything but the seed.

        Seed replicas of the same cell share this key, which is what the
        sweep aggregator groups by.  Explicit-base specs summarize their
        (whole-config) overrides as a CRC so the key stays short while
        distinct configs stay distinct.
        """
        parts = [self.engine]
        if self.base in _SCALED_BASES:
            if self.base != "paper_scaled":
                parts.append(self.base)
            parts.append(f"x{self.scale}")
            parts.extend(
                f"{key}={_format_value(value)}" for key, value in self.overrides
            )
        elif self.base == "explicit":
            digest = zlib.crc32(repr(self.overrides).encode())
            parts.append(f"cfg{digest:08x}")
        else:
            parts.append(self.base)
            parts.extend(
                f"{key}={_format_value(value)}" for key, value in self.overrides
            )
        if self.scan_mode:
            parts.append("scan")
        if self.duration_s is not None:
            parts.append(f"t{self.duration_s}")
        return "/".join(parts)

    def label(self) -> str:
        """The run identity: the cell key plus the seed."""
        return f"{self.cell_key()}/s{self.seed}"
