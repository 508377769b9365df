"""Every wire payload is value-identical to the pinned one.

``golden_wire.json`` was recorded from the tree whose
``to_dict``/``from_dict`` methods were written by hand (see
``golden_wire.py``); the same fixed instances must keep producing the
same keys, nesting and values, load back equal, and keep their
``cell_key()`` strings.
"""

from __future__ import annotations

import json

import pytest

from tests.golden_wire import GOLDEN_PATH, INSTANCES, canonical, generate


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_exactly_the_instances(golden):
    assert set(golden["payloads"]) == set(INSTANCES)
    assert set(golden["cell_keys"]) == {
        name for name, instance in INSTANCES.items()
        if hasattr(instance, "cell_key")
    }


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_payload_is_value_identical(name, golden):
    # Compared as canonical JSON, not as dicts: 1 == 1.0 == True in
    # Python, and the wire format must not trade one for another.
    assert canonical(INSTANCES[name].to_dict()) == canonical(
        golden["payloads"][name]
    ), f"{name}: to_dict() moved away from the pinned wire payload"


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_pinned_payload_loads_back_equal(name, golden):
    """The pinned JSON (not a fresh ``to_dict()``) is what gets loaded."""
    instance = INSTANCES[name]
    loaded = type(instance).from_dict(golden["payloads"][name])
    assert loaded == instance
    assert canonical(loaded.to_dict()) == canonical(golden["payloads"][name])


def test_cell_keys_are_unchanged(golden):
    assert generate()["cell_keys"] == golden["cell_keys"]
