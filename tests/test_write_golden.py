"""Write-heavy runs and fault-point visits are identical to the pinned tree.

``golden_write_digests.json`` was recorded from the tree before the
write-path speed work (see ``golden_write.py``); every cell replayed
here must hash to the same lossless ``to_dict()`` payload, and the crash
schedule must visit every fault point as often, and at the same
operations, as it did then.
"""

from __future__ import annotations

import json

import pytest

from repro.check.crash import CRASH_POINTS
from repro.sim.experiment import ENGINE_NAMES
from tests.golden_write import (
    CRASH,
    DURATION_S,
    ENGINES,
    GOLDEN_PATH,
    SCALE,
    SEEDS,
    crash_point_visits,
    run_cell,
    run_digest,
)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("engine_name", ENGINES)
def test_write_cell_bit_identical(engine_name, seed, golden):
    assert run_digest(engine_name, seed) == golden["digests"][engine_name][
        str(seed)
    ], (
        f"{engine_name} seed {seed}: write-heavy run diverged from the "
        "recorded golden digest; a speed change must be bit-identical"
    )


@pytest.mark.parametrize("engine_name", ENGINE_NAMES)
def test_crash_points_visited_as_recorded(engine_name, golden):
    """Per-file fault-point granularity is a contract of batched disk calls."""
    assert (
        crash_point_visits(engine_name)
        == golden["crash_point_visits"][engine_name]
    )


def test_golden_covers_exactly_the_cell_matrix(golden):
    assert (golden["scale"], golden["duration_s"]) == (SCALE, DURATION_S)
    assert set(golden["digests"]) == set(ENGINES)
    for per_seed in golden["digests"].values():
        assert set(per_seed) == {str(seed) for seed in SEEDS}
    assert set(golden["crash_point_visits"]) == set(ENGINE_NAMES)
    for per_point in golden["crash_point_visits"].values():
        assert set(per_point) == set(CRASH_POINTS)
        # Every armed (point, hits) of the crash tests is reachable.
        for visits in per_point.values():
            assert set(visits["op_of_hit"]) == {str(h) for h in CRASH["hits"]}


def test_cells_reach_the_deep_merges():
    """The digests only prove something if level 2 drains into level 3
    and the buffer is pace-removed and trimmed on the way."""
    result = run_cell("lsbm", SEEDS[0])
    causes = result.bandwidth_kb_by_cause
    assert causes["compaction:L2"]["write_kb"] > 0
    assert result.event_counts["TrimRun"] > 0
    assert result.event_counts["FileDiscarded"] > 10_000
