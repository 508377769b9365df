"""Differential proof that the batched read kernel is the scalar path.

The driver's hot loop (:mod:`repro.sim.kernel`) is only admissible
because it is *bit-identical* to the scalar reference loop it replaced
(``tests/scalar_reference.py``): same RNG consumption, same float
expression order, same event stream.  These tests run both over the pinned
differential seeds (``tests/seeds.json``) and require the lossless
:meth:`~repro.sim.metrics.RunResult.to_dict` payloads — every time
series value, latency reservoir sample, event count and bandwidth total
— to compare equal, plus (with a live subscriber, which disables the
counting-only fast path) the full ordered event streams.

The hypothesis test extends the proof to the batch-size axis: with
:data:`repro.sim.kernel.BATCH_SIZE` patched, results must be invariant
under any flush granularity, because batching only changes *when*
accumulated costs are drained, never what they are.
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig
from repro.sim.driver import MixedReadWriteDriver
from repro.sim.experiment import build_engine, preload
from repro.workload.ycsb import RangeHotWorkload
from tests.scalar_reference import ScalarReads

_SEED_CORPUS = json.loads(
    (Path(__file__).parent / "seeds.json").read_text()
)
SEEDS = _SEED_CORPUS["differential"]["seeds"]

#: Long enough at the test scale to cross memtable flushes and at least
#: one gear/leveled compaction round, so the differential covers the
#: cache-invalidation and stall paths, not just steady reads.
DURATION_S = 1500
ENGINES = ("blsm", "leveldb", "lsbm", "blsm+warmup")


def _run(
    engine_name: str,
    seed: int,
    kernel: str,
    duration_s: int = DURATION_S,
    scan_mode: bool = False,
    record_events: bool = False,
):
    """One driver run; returns (lossless result dict, ordered events).

    ``kernel`` is ``"scalar"`` for the reference chain or ``"batched"``
    for the driver's own kernel.
    """
    config = SystemConfig.paper_scaled(2048)
    setup = build_engine(engine_name, config)
    preload(setup)
    events: list[str] = []
    if record_events:
        # A live subscriber turns off the bus's counting-only fast path,
        # so this leg also proves full event *ordering*, buffered flush
        # included.
        setup.engine.bus.subscribe_all(lambda event: events.append(repr(event)))
    driver = MixedReadWriteDriver(
        setup.engine,
        config,
        setup.clock,
        workload=RangeHotWorkload(config),
        seed=seed,
        scan_mode=scan_mode,
    )
    if kernel == "scalar":
        driver._kernel = ScalarReads(driver)
    result = driver.run(duration_s)
    return result.to_dict(), events


@pytest.mark.parametrize("engine_name", ENGINES)
@pytest.mark.parametrize("seed", SEEDS)
def test_batched_kernel_is_bit_identical(engine_name, seed):
    scalar, _ = _run(engine_name, seed, kernel="scalar")
    batched, _ = _run(engine_name, seed, kernel="batched")
    assert batched == scalar


@pytest.mark.parametrize("engine_name", ("lsbm", "leveldb"))
def test_batched_kernel_preserves_event_order(engine_name):
    scalar, scalar_events = _run(
        engine_name, SEEDS[0], kernel="scalar", record_events=True
    )
    batched, batched_events = _run(
        engine_name, SEEDS[0], kernel="batched", record_events=True
    )
    assert batched == scalar
    assert batched_events == scalar_events


def test_batched_kernel_is_bit_identical_in_scan_mode():
    scalar, _ = _run("lsbm", SEEDS[0], kernel="scalar", scan_mode=True)
    batched, _ = _run("lsbm", SEEDS[0], kernel="batched", scan_mode=True)
    assert batched == scalar


@lru_cache(maxsize=None)
def _scalar_reference():
    result, _ = _run("lsbm", SEEDS[0], kernel="scalar", duration_s=800)
    return json.dumps(result, sort_keys=True)


@given(batch_size=st.integers(min_value=1, max_value=512))
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_results_invariant_under_batch_size(batch_size):
    with mock.patch("repro.sim.kernel.BATCH_SIZE", batch_size):
        batched, _ = _run("lsbm", SEEDS[0], kernel="batched", duration_s=800)
    assert json.dumps(batched, sort_keys=True) == _scalar_reference()
