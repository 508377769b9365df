"""The metrics snapshot is each layer's own stats, read once.

``result.metrics`` (and through it every ``sim_digest`` and golden
digest) is the registry snapshot.  These tests pin, for a spread of cache
stacks and for serve runs with and without an active controller, the
snapshot's exact key set and that every value is a ``float`` equal to the
stat the owning layer keeps itself: the disk's ``stats``, live footprint
and per-cause dicts, each cache's ``stats``, the engine's ``stats`` and
the controller's decision count.
"""

from __future__ import annotations

import pytest

from repro.config import SystemConfig
from repro.serve.service import finalize_serve, prepare_serve
from repro.serve.spec import ServiceSpec
from repro.sim.driver import MixedReadWriteDriver
from repro.sim.experiment import build_engine, preload

_DISK_STATS = (
    "seq_read_kb",
    "seq_write_kb",
    "random_read_blocks",
    "seeks",
    "allocations",
    "frees",
)
_ENGINE_STATS = (
    "flushes",
    "compactions",
    "compaction_read_kb",
    "compaction_write_kb",
    "stall_seconds",
)


def _caches(setup) -> dict[str, object]:
    engine = setup.engine
    return {
        name: cache
        for name, cache in (
            ("db", engine.db_cache),
            ("os", engine.os_cache),
            ("kv", getattr(engine, "kv_cache", None)),
        )
        if cache is not None
    }


def _layer_stats(setup) -> dict[str, float]:
    """Every snapshot key, read from the owning layer's own ledger."""
    disk, engine = setup.disk, setup.engine
    out: dict[str, float] = {
        f"disk.{field}": getattr(disk.stats, field) for field in _DISK_STATS
    }
    out["disk.live_kb"] = disk.live_kb
    for kind, totals in (
        ("read", disk.cause_read_kb),
        ("write", disk.cause_write_kb),
    ):
        for cause, total in totals.items():
            out[f"disk.bw.{cause}.{kind}_kb"] = total
    for name, cache in _caches(setup).items():
        for counter in type(cache)._counter_names:
            if counter == "compaction_pages":
                value = cache._compaction_pages
            else:
                value = getattr(cache.stats, counter)
            out[f"cache.{name}.{counter}"] = value
    for field in _ENGINE_STATS:
        out[f"engine.{field}"] = getattr(engine.stats, field)
    return out


def _assert_snapshot_is_layer_stats(snapshot, expected) -> None:
    assert set(snapshot) == set(expected)
    for key, value in snapshot.items():
        assert type(value) is float, key
        assert value == expected[key], key


class TestClosedLoopSnapshot:
    @pytest.mark.parametrize(
        "engine_name",
        [
            "leveldb",
            "leveldb-oscache",
            "lsbm-dual",
            "blsm+kvcache",
            "hbase",
            "tiering+buffer",
        ],
    )
    def test_keys_and_values_are_the_layers_stats(self, engine_name):
        config = SystemConfig.paper_scaled(8192)
        setup = build_engine(engine_name, config)
        preload(setup)
        MixedReadWriteDriver(setup.engine, config, setup.clock).run(120)
        snapshot = setup.substrate.registry.snapshot()
        keys = set(snapshot)
        assert {"disk.live_kb", "engine.flushes"} <= keys
        assert "disk.bw.preload.write_kb" in keys
        assert not any(key.startswith("control.") for key in keys)
        caches = {key.split(".")[1] for key in keys if key.startswith("cache.")}
        assert caches == set(_caches(setup))
        if engine_name == "lsbm-dual":
            assert "disk.bw.buffer-append.read_kb" in keys
            assert caches == {"db", "os"}
        elif engine_name == "leveldb-oscache":
            assert caches == {"os"}
        elif engine_name == "blsm+kvcache":
            assert caches == {"db", "kv"}
        _assert_snapshot_is_layer_stats(snapshot, _layer_stats(setup))


class TestServeSnapshot:
    @staticmethod
    def _serve(controller: str, **overrides):
        params: dict = dict(
            engine="lsbm",
            scale=8192,
            duration_s=200,
            read_rate_qps=30_000.0,
            seed=0,
            controller=controller,
        )
        params.update(overrides)
        session = prepare_serve(ServiceSpec(**params))
        result = session.simulator.run(session.duration_s)
        return session, finalize_serve(session, result)

    def test_static_controller_adds_no_control_keys(self):
        session, result = self._serve("static")
        assert not any(key.startswith("control.") for key in result.metrics)
        _assert_snapshot_is_layer_stats(
            result.metrics, _layer_stats(session.setup)
        )

    def test_rules_controller_publishes_its_decision_count(self):
        session, result = self._serve(
            "rules",
            write_rate_qps=60_000.0,
            arrival="bursty",
            control_interval_s=20,
        )
        controller = session.simulator.controller
        metrics = dict(result.metrics)
        decisions = metrics.pop("control.decisions")
        ticks = metrics.pop("control.ticks")
        assert type(decisions) is float and type(ticks) is float
        assert decisions == controller.decisions_made > 0
        assert ticks >= 1.0
        _assert_snapshot_is_layer_stats(metrics, _layer_stats(session.setup))
