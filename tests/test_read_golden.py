"""Scan order (every engine) and composed point reads match the pinned tree.

``golden_read_digests.json`` was recorded from the tree before the read
path was single-sourced (see ``golden_read.py``); every cell replayed
here must hash to the same lossless ``to_dict()`` payload and the same
ordered event stream.
"""

from __future__ import annotations

import json

import pytest

from repro.config import SystemConfig
from repro.sim.experiment import ENGINE_NAMES, run_experiment
from tests.golden_read import (
    CELLS,
    COMPOSED_POINTS,
    DURATION_S,
    GOLDEN_PATH,
    SEED,
    run_cell,
)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("engine_name,mode", CELLS)
def test_read_cell_bit_identical(engine_name, mode, golden):
    assert run_cell(engine_name, mode) == golden["digests"][engine_name][mode], (
        f"{engine_name} ({mode} mode): run diverged from the recorded "
        "golden digest; the read path must visit the same runs in the "
        "same order"
    )


def test_golden_covers_exactly_the_cell_matrix(golden):
    assert (golden["scale"], golden["duration_s"], golden["seed"]) == (
        2048,
        DURATION_S,
        SEED,
    )
    assert set(golden["digests"]) == set(ENGINE_NAMES)
    for engine_name, per_mode in golden["digests"].items():
        expected = {"scan", "point"} if engine_name in COMPOSED_POINTS else {"scan"}
        assert set(per_mode) == expected


def test_scan_cells_reach_the_deep_merges():
    """The digests only prove something if the scans run beside merges
    at every depth: the scan order matters through the cache state that
    compactions keep invalidating."""
    result = run_experiment(
        "leveldb",
        SystemConfig.paper_scaled(2048),
        duration_s=DURATION_S,
        seed=SEED,
        scan_mode=True,
    )
    assert result.bandwidth_kb_by_cause["compaction:L2"]["write_kb"] > 0
    assert result.reads_completed > 4_000
