"""Golden-digest harness for engine bit-identity across refactors.

The compaction design-space refactor (policy extraction + registry
rebuild) is only admissible because every pre-existing engine name keeps
producing *exactly* the runs it produced before: the same lossless
:meth:`~repro.sim.metrics.RunResult.to_dict` payload and the same ordered
event stream.  ``tests/golden_engine_digests.json`` pins SHA-256 digests
of both, recorded from the pre-refactor tree; ``test_design_space.py``
replays the same driver runs and compares digests.

Regenerate (only when a change is *supposed* to alter engine behaviour,
and say so in the commit message)::

    PYTHONPATH=src:tests python -m golden_engines

The run recipe deliberately mirrors ``test_kernel_differential._run``:
``paper_scaled(2048)``, the RangeHot driver, and a live event subscriber
(which disables the bus's counting-only fast path, so the digest also
pins full event *ordering*).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.config import SystemConfig
from repro.sim.driver import MixedReadWriteDriver
from repro.sim.experiment import build_engine, preload
from repro.workload.ycsb import RangeHotWorkload

GOLDEN_PATH = Path(__file__).parent / "golden_engine_digests.json"

_SEED_CORPUS = json.loads((Path(__file__).parent / "seeds.json").read_text())
SEEDS = _SEED_CORPUS["differential"]["seeds"]

#: Long enough at the test scale to cross memtable flushes, gear
#: rotations, leveled cursor compactions, and (for hbase) the periodic
#: major at ``major_interval_s`` — the digests must witness every
#: engine's compaction machinery, not just steady reads.
DURATION_S = 1200

#: Engine names that existed before the design-space refactor.  The
#: golden test iterates this pinned tuple (not the live registry) so
#: adding new named points never silently widens or shrinks the proof.
LEGACY_ENGINES = (
    "leveldb",
    "leveldb-oscache",
    "blsm",
    "blsm-dual",
    "sm",
    "lsbm",
    "lsbm-dual",
    "blsm+warmup",
    "blsm+kvcache",
    "hbase",
    "hbase-nomajor",
)


def run_digests(
    engine_name: str,
    seed: int,
    *,
    scan_mode: bool = False,
    duration_s: int = DURATION_S,
) -> dict[str, str]:
    """Digest one driver run: lossless result dict + ordered events."""
    config = SystemConfig.paper_scaled(2048)
    setup = build_engine(engine_name, config)
    preload(setup)
    events: list[str] = []
    setup.engine.bus.subscribe_all(lambda event: events.append(repr(event)))
    driver = MixedReadWriteDriver(
        setup.engine,
        config,
        setup.clock,
        workload=RangeHotWorkload(config),
        seed=seed,
        scan_mode=scan_mode,
    )
    result = driver.run(duration_s)
    result_json = json.dumps(result.to_dict(), sort_keys=True)
    return {
        "result": hashlib.sha256(result_json.encode()).hexdigest(),
        "events": hashlib.sha256("\n".join(events).encode()).hexdigest(),
    }


def generate() -> dict:
    digests: dict[str, dict[str, dict[str, str]]] = {}
    for engine_name in LEGACY_ENGINES:
        digests[engine_name] = {
            str(seed): run_digests(engine_name, seed) for seed in SEEDS
        }
    return {
        "description": (
            "SHA-256 digests of lossless RunResult.to_dict JSON and the "
            "ordered event stream per legacy engine x seed, recorded "
            "before the compaction design-space refactor.  Regenerate "
            "with `PYTHONPATH=src:tests python -m golden_engines`."
        ),
        "duration_s": DURATION_S,
        "scale": 2048,
        "digests": digests,
    }


if __name__ == "__main__":
    payload = generate()
    GOLDEN_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
