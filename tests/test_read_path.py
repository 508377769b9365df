"""One read path: who owns ``get``/``scan``, and a reference descent.

Every engine but LSbM (Algorithms 3 and 4) and the buffered composed
points reads through :meth:`LSMEngine.get` / :meth:`LSMEngine.scan` over
the run order its ``_run_groups()`` declares.  The fused ``get`` used to
have hand-written siblings that cross-checked each other; the reference
here replaces them: the same descent written the slow way, one public
call per step (``find_file`` -> ``find_block`` -> ``may_contain`` ->
``_read_block`` -> ``Block.get``), run beside the engine's own on a twin
engine fed the same operations.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig
from repro.core.lsbm import LSbMTree
from repro.lsm.base import GetResult, LSMEngine, ReadCost
from repro.lsm.composed import ComposedTree
from repro.sim.experiment import ENGINE_NAMES, build_engine
from repro.variants.kv_store import unwrap


def _inner(engine_name: str):
    """One freshly built, unwrapped engine and its clock."""
    setup = build_engine(engine_name, SystemConfig.tiny())
    return unwrap(setup.engine), setup.clock


def _reads_through_base(engine) -> bool:
    get = type(engine).get
    return get is LSMEngine.get or (
        get is ComposedTree.get and not engine._buffer_levels
    )


#: Engines whose ``get`` is the base descent (the buffered points and
#: LSbM consult a compaction buffer first, by design).
BASE_GET_ENGINES = [
    name
    for name in ENGINE_NAMES
    if not name.startswith("lsbm") and not name.endswith("+buffer")
]


@pytest.mark.parametrize("engine_name", ENGINE_NAMES)
def test_read_path_has_one_owner_per_kind(engine_name):
    engine, _ = _inner(engine_name)
    kind = type(engine)
    assert kind.get in (LSMEngine.get, LSbMTree.get, ComposedTree.get)
    assert kind.scan in (LSMEngine.scan, LSbMTree.scan)
    # Only the paper's engine and the buffered points leave the base.
    if not isinstance(engine, LSbMTree) and not engine._buffer_levels:
        assert _reads_through_base(engine)
        assert kind.scan is LSMEngine.scan


def test_base_get_covers_every_unbuffered_engine():
    assert BASE_GET_ENGINES == [
        name for name in ENGINE_NAMES if _reads_through_base(_inner(name)[0])
    ]


def reference_get(engine: LSMEngine, key: int) -> GetResult:
    """``LSMEngine.get``, unfused: one public call per step."""
    engine.stats.gets += 1
    cost = ReadCost()
    cost.memtable_probes += 1
    entry = engine.memtable.get(key)
    if entry is not None:
        return engine._make_entry_result(entry, cost)
    for group in engine._run_groups():
        for run in reversed(group):  # Newest run of the group first.
            cost.tables_checked += 1
            file = run.find_file(key)
            if file is None:
                continue
            cost.index_probes += 1
            block = file.find_block(key)
            if block is None:
                continue
            cost.bloom_probes += 1
            if not block.may_contain(key):
                continue
            engine._read_block(file, block, cost)
            entry = block.get(key)
            if entry is None:
                cost.false_positive_blocks += 1
                continue
            return engine._make_entry_result(entry, cost)
    return GetResult(False, None, cost)


def _cache_stats(engine):
    return [
        dataclasses.asdict(cache.stats)
        for cache in (engine.db_cache, engine.os_cache)
        if cache is not None
    ]


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(
                ["put", "put", "put", "delete", "get", "get", "scan", "tick"]
            ),
            st.integers(min_value=0, max_value=1023),
        ),
        # The tiny write buffer holds 64 pairs: shorter streams never
        # put a run on disk for the descent to walk.
        min_size=200,
        max_size=600,
    )
)
@pytest.mark.parametrize("engine_name", BASE_GET_ENGINES)
def test_fused_get_equals_reference_descent(engine_name, ops):
    """Same answer, same cost in every field, same cache state after
    every read — so the two descents touch the same blocks in the same
    order, which is all the fusion is allowed to preserve."""
    fused, fused_clock = _inner(engine_name)
    plain, plain_clock = _inner(engine_name)
    for op, key in ops:
        if op == "get":
            got = fused.get(key)
            want = reference_get(plain, key)
            assert (got.found, got.value) == (want.found, want.value)
            assert dataclasses.asdict(got.cost) == dataclasses.asdict(want.cost)
            assert _cache_stats(fused) == _cache_stats(plain)
            continue
        for engine, clock in ((fused, fused_clock), (plain, plain_clock)):
            if op == "put":
                engine.put(key)
            elif op == "delete":
                engine.delete(key)
            elif op == "scan":
                engine.scan(key, key + 64)
            else:
                clock.advance(1 + key % 10)
                engine.tick(clock.now)
    assert fused.stats.gets == plain.stats.gets
