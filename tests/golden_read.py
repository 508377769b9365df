"""Golden-digest harness for read-path bit-identity across refactors.

``golden_engines`` and ``golden_write`` drive point reads, and
``golden_serve`` scans through ``lsbm`` only, so before this file no
digest held the *scan* order of any other engine, nor the point-read
order of the composed points.  Both orders reach ``db_cache.access``
(hence LRU state and every later price), so a read-path refactor that
visits the same runs in another order is a behaviour change these cells
catch:

* every ``ENGINE_SPECS`` name in scan mode;
* the five composed points in point mode (the legacy names' point mode
  is pinned by ``golden_engine_digests.json``).

The recipe is :func:`golden_engines.run_digests` (``paper_scaled(2048)``,
live subscriber, so the digest also pins event *ordering*) run for 14,000
virtual seconds: level-2 -> 3 merges need about 13,000 at this scale.
``tests/golden_read_digests.json`` was recorded from the tree *before*
the read path was single-sourced; ``test_read_golden.py`` replays and
compares.

Regenerate (only when a change is *supposed* to alter engine behaviour,
and say so in the commit message)::

    PYTHONPATH=src python -m tests.golden_read
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.sim.experiment import ENGINE_NAMES
from tests.golden_engines import SEEDS, run_digests

GOLDEN_PATH = Path(__file__).parent / "golden_read_digests.json"

SEED = SEEDS[0]
DURATION_S = 14_000

#: The ``ComposedTree`` points: their point-read order is pinned nowhere
#: else under a live subscriber.
COMPOSED_POINTS = (
    "design",
    "tiering",
    "tiering+buffer",
    "lazy-leveling",
    "lazy-leveling+buffer",
)

#: (engine, mode) cells, about 1 to 1.5 s each.
CELLS = tuple((name, "scan") for name in ENGINE_NAMES) + tuple(
    (name, "point") for name in COMPOSED_POINTS
)


def run_cell(engine_name: str, mode: str) -> dict[str, str]:
    return run_digests(
        engine_name, SEED, scan_mode=mode == "scan", duration_s=DURATION_S
    )


def generate() -> dict:
    digests: dict[str, dict[str, dict[str, str]]] = {}
    for engine_name, mode in CELLS:
        digests.setdefault(engine_name, {})[mode] = run_cell(engine_name, mode)
    return {
        "description": (
            "SHA-256 digests of lossless RunResult.to_dict JSON and the "
            "ordered event stream per engine x read mode (every engine "
            "in scan mode, the composed points in point mode), recorded "
            "before the read path was single-sourced.  Regenerate with "
            "`PYTHONPATH=src python -m tests.golden_read`."
        ),
        "duration_s": DURATION_S,
        "scale": 2048,
        "seed": SEED,
        "digests": digests,
    }


if __name__ == "__main__":
    payload = generate()
    GOLDEN_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
