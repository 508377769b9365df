"""One recorder contract over every run loop.

The closed loop, on RangeHot and on a YCSB mix, and the serve loop all
write their per-second series and window totals through
:class:`~repro.sim.metrics.RunRecorder`, so each holds the same contract
on a small run: every shared series sampled at every tick, the
hit ratio at the run's first tick and then every
:data:`~repro.sim.metrics.HIT_RATIO_WINDOW_S`, the stall series summing
to the stall total, and per-cause totals that reconcile with the disk.
"""

from __future__ import annotations

import pytest

from repro.config import SystemConfig
from repro.serve.service import prepare_serve
from repro.serve.spec import ServiceSpec
from repro.sim.driver import MixedReadWriteDriver
from repro.sim.experiment import build_engine, preload
from repro.sim.metrics import HIT_RATIO_WINDOW_S
from repro.workload.ycsb import YCSBWorkload

SCALE = 8192
DURATION_S = 90
#: Ticks run before the measured window, so a closed-loop run starts
#: off the 20-second grid and the hit-ratio rule must count from the
#: run's own first tick.
LEAD_IN_S = 7

SHARED_SERIES = (
    "throughput_qps",
    "cache_usage",
    "db_size_mb",
    "disk_utilization",
    "stall",
    "buffer_size_mb",
)


def _closed_loop():
    config = SystemConfig.paper_scaled(SCALE)
    setup = build_engine("lsbm", config)
    preload(setup)
    return setup, MixedReadWriteDriver(setup.engine, config, setup.clock).run


def _ycsb():
    config = SystemConfig.paper_scaled(SCALE)
    setup = build_engine("lsbm", config)
    preload(setup)
    workload = YCSBWorkload(
        config.unique_keys, read_proportion=0.5, update_proportion=0.5
    )
    driver = MixedReadWriteDriver(setup.engine, config, setup.clock, workload)
    return setup, driver.run


def _serve():
    session = prepare_serve(
        ServiceSpec(engine="lsbm", scale=SCALE, duration_s=DURATION_S)
    )
    return session.setup, session.simulator.run


@pytest.mark.parametrize(
    "make", [_closed_loop, _ycsb, _serve], ids=["closed-loop", "ycsb", "serve"]
)
def test_every_driver_records_the_same_run_window(make):
    setup, run = make()
    for _ in range(LEAD_IN_S):
        setup.clock.advance(1)
        setup.engine.tick(setup.clock.now)
    disk_before = setup.disk.stats.snapshot()
    result = run(DURATION_S)
    disk_after = setup.disk.stats

    first = result.throughput_qps.times[0]
    ticks = list(range(first, first + DURATION_S))
    for name in SHARED_SERIES:
        assert getattr(result, name).times == ticks, name
    assert result.hit_ratio.times == ticks[::HIT_RATIO_WINDOW_S]

    assert sum(result.stall.values) == pytest.approx(
        result.stall_seconds, abs=1e-9
    )

    window = result.bandwidth_kb_by_cause
    assert window and "unattributed" not in window
    read_kb = sum(kinds["read_kb"] for kinds in window.values())
    write_kb = sum(kinds["write_kb"] for kinds in window.values())
    assert read_kb <= disk_after.seq_read_kb - disk_before.seq_read_kb + 1e-9
    assert write_kb <= disk_after.seq_write_kb - disk_before.seq_write_kb + 1e-9
    assert result.event_counts

    # The two renderings read the same window: one CSV row per tick,
    # and the JSON summary's totals are the result's own.
    rows = result.to_csv_rows()
    assert [int(row.split(",", 1)[0]) for row in rows[1:]] == ticks
    summary = result.to_json_dict()
    assert summary["stall_seconds"] == result.stall_seconds
    assert summary["bandwidth_kb_by_cause"] == window
