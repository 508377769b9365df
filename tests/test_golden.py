"""Every golden cell replays to its pin in ``golden.json``.

``golden.py`` holds the cell table and each cell's recipe.  A result
cell must reproduce every section of its pin (a failure names the
sections that moved); crash-point visits, wire payloads and
``cell_key()`` strings must equal their pinned values.  No cell runs
twice: the tests that check what a cell exercises read the run the pin
test already made.
"""

from __future__ import annotations

import copy
import json
from collections import Counter

import pytest

from repro.check.crash import CRASH_POINTS
from repro.sim.experiment import ENGINE_NAMES
from tests import golden
from tests.golden import CELLS, CRASH, INSTANCES, RESULT_CELLS

#: The cells a later test reads back after their pin test ran them.
_READ_BACK = (
    "engines/leveldb/0",
    "read/leveldb/scan",
    "write/lsbm/0",
    "serve/fifo/0",
    "cluster/range2-split/0",
)


@pytest.fixture(scope="module")
def pins() -> dict:
    return golden.load()


@pytest.fixture(scope="module")
def ran():
    """Run a cell once per module, keeping only the runs read back (a
    run holds its whole result and event stream)."""
    kept: dict[str, golden.Run] = {}

    def run(cell_id: str) -> golden.Run:
        if cell_id in kept:
            return kept[cell_id]
        outcome = golden.run(cell_id)
        if cell_id in _READ_BACK:
            kept[cell_id] = outcome
        return outcome

    return run


def _pretty(payload: object) -> str:
    # Compared as JSON text, not as dicts: 1 == 1.0 == True in Python,
    # and the wire format must not trade one for another.
    return json.dumps(payload, indent=1, sort_keys=True)


# ----------------------------------------------------------------------
# The pins.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cell_id", RESULT_CELLS)
def test_result_cell_holds_its_pin(cell_id, pins, ran):
    fresh = golden.pin(cell_id, ran(cell_id))
    moved = golden.moved(cell_id, pins.get(cell_id), fresh)
    assert not moved, f"{cell_id}: sections moved from golden.json: {moved}"


@pytest.mark.parametrize("engine_name", ENGINE_NAMES)
def test_crash_points_visited_as_recorded(engine_name, pins):
    """Per-file fault-point granularity is a contract of batched disk calls."""
    assert golden.crash_point_visits(engine_name) == pins[f"crash/{engine_name}"]


@pytest.mark.parametrize("name", INSTANCES)
def test_wire_payload_is_value_identical(name, pins):
    assert _pretty(INSTANCES[name].to_dict()) == _pretty(pins[f"wire/{name}"]), (
        f"{name}: to_dict() moved away from the pinned wire payload"
    )


@pytest.mark.parametrize("name", INSTANCES)
def test_pinned_payload_loads_back_equal(name, pins):
    """The pinned JSON (not a fresh ``to_dict()``) is what gets loaded."""
    instance = INSTANCES[name]
    loaded = type(instance).from_dict(pins[f"wire/{name}"])
    assert loaded == instance
    assert _pretty(loaded.to_dict()) == _pretty(pins[f"wire/{name}"])


def test_cell_keys_are_unchanged(pins):
    keys = [cell_id for cell_id in CELLS if cell_id.startswith("cell_key/")]
    assert {cell_id: golden.run(cell_id) for cell_id in keys} == {
        cell_id: pins[cell_id] for cell_id in keys
    }


#: How many cells each family of the table holds.
_FAMILY_SIZES = {
    "engines": 33, "read": 21, "ycsb": 12, "write": 36, "serve": 21,
    "cluster": 6, "crash": 16, "wire": 15, "cell_key": 6,
}


def test_golden_lists_the_cell_table_in_order(pins):
    assert list(pins) == list(CELLS)
    assert Counter(cell_id.split("/")[0] for cell_id in CELLS) == _FAMILY_SIZES
    assert len(INSTANCES) == 15 and len(CELLS) == 129 + 16 + 15 + 6


@pytest.mark.parametrize("family", _FAMILY_SIZES)
def test_golden_covers_exactly_the_cell_table(family, pins):
    in_table = [c for c in CELLS if c.split("/")[0] == family]
    assert [c for c in pins if c.split("/")[0] == family] == in_table
    assert len(in_table) == _FAMILY_SIZES[family]
    if family == "crash":
        assert in_table == [f"crash/{name}" for name in ENGINE_NAMES]
        for name in ENGINE_NAMES:
            per_point = pins[f"crash/{name}"]
            assert set(per_point) == set(CRASH_POINTS)
            # Every armed (point, hits) of the crash tests is reachable.
            for visits in per_point.values():
                assert set(visits["op_of_hit"]) == {str(h) for h in CRASH["hits"]}
    elif family == "wire":
        assert in_table == [f"wire/{name}" for name in INSTANCES]
    elif family == "cell_key":
        assert in_table == [
            f"cell_key/{name}"
            for name, instance in INSTANCES.items()
            if hasattr(instance, "cell_key")
        ]
    else:
        assert set(in_table) <= set(RESULT_CELLS)
        for cell_id in in_table:
            sections = pins[cell_id]["sections"]
            assert pins[cell_id]["root"] == golden.digest(sections)
            # Only the write cells run on the counting-only bus, and
            # only they never see their engine's closing structure.
            assert ("events.order" in sections) != (family == "write")
            pins_structure = any(s.endswith("structure") for s in sections)
            assert pins_structure != (family == "write")


def test_record_rewrites_only_the_matching_lines(tmp_path, pins):
    path = tmp_path / "golden.json"
    stale = dict(pins, **{"cell_key/ShardSpec": "stale"})
    golden.write(stale, path)
    assert golden.diff("cell_key/*", path) == 1
    assert golden.diff("wire/*", path) == 0
    golden.record("cell_key/Shard*", path)
    assert path.read_text() == golden.GOLDEN_PATH.read_text()


# ----------------------------------------------------------------------
# What the pinned cells exercise, read from the pin tests' runs.
# ----------------------------------------------------------------------
def test_scan_cells_reach_the_deep_merges(ran):
    """The pins only prove something if the scans run beside merges at
    every depth: the scan order matters through the cache state that
    compactions keep invalidating."""
    result = ran("read/leveldb/scan").result
    assert result.bandwidth_kb_by_cause["compaction:L2"]["write_kb"] > 0
    assert result.reads_completed > 4_000


def test_cells_reach_the_deep_merges(ran):
    """The pins only prove something if level 2 drains into level 3 and
    the buffer is pace-removed and trimmed on the way."""
    result = ran("write/lsbm/0").result
    causes = result.bandwidth_kb_by_cause
    assert causes["compaction:L2"]["write_kb"] > 0
    assert result.event_counts["TrimRun"] > 0
    assert result.event_counts["FileDiscarded"] > 10_000


def test_saturating_cell_exercises_every_offer_branch(ran):
    """The pins only prove something if defers, retries and sheds occur."""
    outcome = ran("serve/fifo/0")
    result, events = outcome.result, outcome.events
    writers = result.class_stats["writers"]
    assert writers.deferred and writers.retried and writers.shed
    assert result.class_stats["readers"].shed
    assert any(event.startswith("WriteDeferred") for event in events)


def test_split_cell_migrates_pending_requests(ran):
    result = ran("cluster/range2-split/0").result
    assert result.migration.drained_requests
    assert result.migration.moved_retries


# ----------------------------------------------------------------------
# The instrument: a planted change moves exactly its sections.
# ----------------------------------------------------------------------
def _kind(event: str) -> str:
    return event.partition("(")[0].rpartition(":")[2]


def _named(shard: int | None, section: str) -> str:
    return section if shard is None else f"shards.{shard}.{section}"


def _bump_counter(target, events, shard):
    target["metrics"]["disk.seeks"] += 1
    return {_named(shard, "metrics.disk")}


def _move_series_point(target, events, shard):
    target["series"]["hit_ratio"]["values"][-1] += 0.5
    return {_named(shard, "series.hit_ratio")}


def _swap_adjacent_events(target, events, shard):
    i = next(
        i
        for i in range(len(events) - 1)
        if _kind(events[i]) != _kind(events[i + 1])
    )
    events[i], events[i + 1] = events[i + 1], events[i]
    return {"events.order"}


def _drop_event(target, events, shard):
    i = next(
        i
        for i, event in enumerate(events)
        if shard is None or event.startswith(f"{shard}:")
    )
    kind = _kind(events.pop(i))
    return {_named(shard, f"events.{kind}"), "events.order"}


def _add_payload_key(target, events, shard):
    target["planted"] = 1
    return {_named(shard, "planted")}


#: Cell -> the shard whose payload the plants edit (``None``: the cell's
#: own payload).
_PLANTED_CELLS = {
    "engines/leveldb/0": None,
    "serve/fifo/0": None,
    "cluster/range2-split/0": 1,
}
_PLANTS = (
    _bump_counter,
    _move_series_point,
    _swap_adjacent_events,
    _drop_event,
    _add_payload_key,
)


@pytest.mark.parametrize("cell_id", _PLANTED_CELLS)
def test_diff_names_a_moved_closing_structure(cell_id, pins, ran):
    outcome = ran(cell_id)
    name = _named(_PLANTED_CELLS[cell_id], "structure")
    structure = copy.deepcopy(outcome.structure)
    first = next(f for group in structure[name] for table in group for f in table)
    first[3] += 1  # One file's size.
    planted = golden.result_pin(
        outcome.result.to_dict(), outcome.events, structure
    )
    assert golden.moved(cell_id, pins[cell_id], planted) == [name]


@pytest.mark.parametrize(
    "cell_id,plant",
    [
        (cell_id, plant)
        for cell_id in _PLANTED_CELLS
        for plant in _PLANTS
        # The closed loop keeps no metrics snapshot: no counter to bump.
        if not (cell_id.startswith("engines/") and plant is _bump_counter)
    ],
)
def test_diff_names_exactly_the_planted_sections(cell_id, plant, pins, ran):
    outcome = ran(cell_id)
    payload, events = outcome.result.to_dict(), list(outcome.events)
    pinned = pins[cell_id]
    fresh = golden.result_pin(payload, events, outcome.structure)
    assert golden.moved(cell_id, pinned, fresh) == []
    shard = _PLANTED_CELLS[cell_id]
    target = payload if shard is None else payload["shards"][shard]
    expected = plant(target, events, shard)
    planted = golden.result_pin(payload, events, outcome.structure)
    assert set(golden.moved(cell_id, pinned, planted)) == expected
    assert planted["root"] != pinned["root"]
