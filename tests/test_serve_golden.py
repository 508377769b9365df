"""Serve and coordinated-cluster runs are bit-identical to the pinned tree.

``golden_serve_digests.json`` was recorded from the tree before the
serve-path speed work (see ``golden_serve.py``); every cell replayed
here must hash to the same lossless ``to_dict()`` payload and the same
ordered event stream.
"""

from __future__ import annotations

import json

import pytest

from tests.golden_serve import (
    CELLS,
    DURATION_S,
    GOLDEN_PATH,
    SCALE,
    SEEDS,
    run_cell,
    run_digests,
)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(CELLS))
def test_serve_cell_bit_identical(name, seed, golden):
    assert run_digests(name, seed) == golden["digests"][name][str(seed)], (
        f"{name} seed {seed}: serve run diverged from the recorded "
        "golden digests; a speed change must be bit-identical"
    )


def test_golden_covers_exactly_the_cell_matrix(golden):
    assert (golden["scale"], golden["duration_s"]) == (SCALE, DURATION_S)
    assert set(golden["digests"]) == set(CELLS)
    for per_seed in golden["digests"].values():
        assert set(per_seed) == {str(seed) for seed in SEEDS}


def test_saturating_cell_exercises_every_offer_branch():
    """The digests only prove something if defers, retries and sheds occur."""
    result, events = run_cell("serve/fifo", SEEDS[0])
    writers = result.class_stats["writers"]
    assert writers.deferred and writers.retried and writers.shed
    assert result.class_stats["readers"].shed
    assert any(event.startswith("WriteDeferred") for event in events)


def test_split_cell_migrates_pending_requests():
    result, _ = run_cell("cluster/range2-split", SEEDS[0])
    assert result.migration.drained_requests
    assert result.migration.moved_retries
