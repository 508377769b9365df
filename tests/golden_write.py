"""Golden-digest harness for write-path bit-identity across refactors.

``golden_engines`` runs 1,200 virtual seconds under a live subscriber: it
never reaches a level-2 -> 3 merge (about 13,000 s at this scale), LSbM's
pace-removal at depth, or the counting-only bus every benchmark run
actually uses.  The cells here do: one reader beside the paced writer
(the ladder's ``write_storm`` shape), 16,000 virtual seconds, through the
public :func:`~repro.sim.experiment.execute`, whose only subscriber is
the driver's tally.  ``tests/golden_write_digests.json`` pins the SHA-256
of each run's lossless ``to_dict()``, recorded from the tree *before* the
write-path speed work; ``test_write_golden.py`` replays and compares.

The same file pins, per engine of the crash corpus, how often the crash
schedule of ``tests/seeds.json`` visits each fault point and at which
operation its 1st and 7th visits fall (the ``hits`` the crash tests
arm).  A disk call that books several files at once must still visit the
per-file points, or a pinned ``(point, hits)`` would fire somewhere else.

Regenerate (only when a change is *supposed* to alter engine behaviour,
and say so in the commit message)::

    PYTHONPATH=src:tests python -m golden_write
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.check.crash import CRASH_POINTS, attach_injector
from repro.check.schedule import ScheduleSpec, apply_op, generate_schedule
from repro.config import SystemConfig
from repro.sim.experiment import ENGINE_NAMES, build_engine, execute
from repro.sim.spec import ExperimentSpec

GOLDEN_PATH = Path(__file__).parent / "golden_write_digests.json"

_SEED_CORPUS = json.loads((Path(__file__).parent / "seeds.json").read_text())
SEEDS = _SEED_CORPUS["differential"]["seeds"]
CRASH = _SEED_CORPUS["crash"]

SCALE = 2048
#: The gear-scheduled engines first drain level 2 at about 15,000 s at
#: this scale (14,000 s reaches it for ``leveldb`` and ``sm`` only); by
#: 16,000 s every seed has moved 200 or more files from level 2 to 3.
DURATION_S = 16_000

#: Every merge sequence the engines own: the leveled run merge (cursor
#: and gear, with and without adoption, with an OS cache beside it), the
#: whole-level merge, the flat store's minor/major, and ComposedTree's
#: cursor pick (``design``), tier move, collapse and lazy adoption.
#: About 0.43 s a cell, 36 cells: inside the 20 s tier-1 budget.
ENGINES = (
    "leveldb",
    "leveldb-oscache",
    "blsm",
    "sm",
    "lsbm",
    "lsbm-dual",
    "blsm+warmup",
    "hbase",
    "design",
    "tiering",
    "tiering+buffer",
    "lazy-leveling+buffer",
)


def run_cell(engine_name: str, seed: int):
    """One write-heavy closed-loop run on the counting-only bus."""
    return execute(
        ExperimentSpec(
            engine=engine_name,
            base="paper_scaled",
            scale=SCALE,
            duration_s=DURATION_S,
            seed=seed,
            overrides=(("read_threads", 1),),
        )
    )


def run_digest(engine_name: str, seed: int) -> str:
    payload = json.dumps(run_cell(engine_name, seed).to_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def crash_point_visits(engine_name: str) -> dict[str, dict]:
    """Per fault point: total visits and the op index of each armed hit."""
    spec = ScheduleSpec(
        seed=CRASH["seed"], ops=CRASH["ops"], key_space=CRASH["key_space"]
    )
    setup = build_engine(
        engine_name, SystemConfig.tiny().replace(wal_enabled=True)
    )
    visits = {point: 0 for point in CRASH_POINTS}
    fired_at: dict[str, dict[str, int]] = {point: {} for point in CRASH_POINTS}
    op_index = 0

    def counting_hook(point: str) -> None:
        visits[point] += 1
        if visits[point] in CRASH["hits"]:
            fired_at[point][str(visits[point])] = op_index

    attach_injector(setup.engine, counting_hook)
    for op_index, op in enumerate(generate_schedule(spec)):
        apply_op(setup.engine, setup.clock, op)
    return {
        point: {"visits": visits[point], "op_of_hit": fired_at[point]}
        for point in CRASH_POINTS
    }


def generate() -> dict:
    return {
        "description": (
            "SHA-256 of lossless RunResult.to_dict JSON per engine x seed "
            "on the counting-only bus (read_threads=1, 16,000 s), and the "
            "fault-point visit counts of the crash schedule per engine, "
            "recorded before the write-path speed work.  Regenerate with "
            "`PYTHONPATH=src:tests python -m golden_write`."
        ),
        "duration_s": DURATION_S,
        "scale": SCALE,
        "digests": {
            name: {str(seed): run_digest(name, seed) for seed in SEEDS}
            for name in ENGINES
        },
        "crash_point_visits": {
            name: crash_point_visits(name) for name in ENGINE_NAMES
        },
    }


if __name__ == "__main__":
    payload = generate()
    GOLDEN_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
