"""Property-based tests (hypothesis) on core structures and engines.

The headline property: every engine — across compactions, buffered merges,
freezes, pace removals and trims — behaves exactly like a dict that keeps
the newest write per key.  Plus structural invariants on the pieces the
engines are made of.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bloom import BloomFilter
from repro.clock import VirtualClock
from repro.config import SystemConfig
from repro.sstable.builder import TableBuilder
from repro.sstable.entry import Entry, value_for
from repro.sstable.iterator import merge_entries
from repro.sstable.sorted_table import SortedTable
from repro.sstable.sstable import FileIdSource
from repro.sstable.superfile import SuperFileIdSource
from repro.storage.disk import SimulatedDisk

from .conftest import ENGINE_CLASSES, make_engine

KEYSPACE = 512

# Operation stream: (op, key) with op in put/delete/get/scan.
_ops = st.lists(
    st.tuples(
        st.sampled_from(["put", "put", "put", "delete", "get", "scan"]),
        st.integers(min_value=0, max_value=KEYSPACE - 1),
    ),
    min_size=1,
    max_size=300,
)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ops=_ops, seed=st.integers(min_value=0, max_value=10))
@pytest.mark.parametrize("engine_name", sorted(ENGINE_CLASSES))
def test_engine_equals_model(engine_name, ops, seed):
    """Any operation stream: engine answers == newest-write dict."""
    config = SystemConfig.tiny().replace(
        level0_size_kb=16, cache_size_kb=64, unique_keys=KEYSPACE
    )
    engine, clock, _, _ = make_engine(engine_name, config)
    model: dict[int, int] = {}
    rng = random.Random(seed)
    for step, (op, key) in enumerate(ops):
        if op == "put":
            model[key] = engine.put(key)
        elif op == "delete":
            engine.delete(key)
            model.pop(key, None)
        elif op == "get":
            result = engine.get(key)
            if key in model:
                assert result.found and result.value == value_for(key, model[key])
            else:
                assert not result.found
        else:  # scan
            high = key + rng.randrange(64)
            got = {e.key: e.seq for e in engine.scan(key, high).entries}
            want = {k: s for k, s in model.items() if key <= k <= high}
            assert got == want
        if step % 17 == 0:
            clock.advance(1)
            engine.tick(clock.now)
    # Closing sweep: every key answers correctly.
    for key in range(0, KEYSPACE, 7):
        result = engine.get(key)
        assert result.found == (key in model)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=-(2**40), max_value=2**40), max_size=400))
def test_bloom_never_false_negative(keys):
    bloom = BloomFilter.build(keys, bits_per_key=10)
    for key in keys:
        assert bloom.may_contain(key)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.lists(
            st.integers(min_value=0, max_value=200), unique=True, max_size=50
        ),
        max_size=5,
    )
)
def test_merge_entries_is_sorted_union(key_lists):
    """Merging sorted unique sources yields the sorted key union, and the
    surviving version of each key is the one with the highest seq."""
    sources = []
    best: dict[int, int] = {}
    for index, keys in enumerate(key_lists):
        source = [Entry(k, index + 1) for k in sorted(keys)]
        sources.append(source)
        for entry in source:
            if best.get(entry.key, 0) < entry.seq:
                best[entry.key] = entry.seq
    merged = list(merge_entries(sources))
    assert [e.key for e in merged] == sorted(best)
    for entry in merged:
        assert entry.seq == best[entry.key]


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.integers(min_value=0, max_value=100_000),
        unique=True,
        min_size=1,
        max_size=300,
    )
)
def test_builder_roundtrip(keys):
    """Built files return exactly the entries fed in, in order, and every
    key is findable through the file index."""
    config = SystemConfig.tiny()
    disk = SimulatedDisk(VirtualClock(), config.seq_bandwidth_kb_per_s)
    builder = TableBuilder(config, disk, FileIdSource(), SuperFileIdSource())
    entries = [Entry(k, 1) for k in sorted(keys)]
    files = builder.build(iter(entries))
    recovered = [e for f in files for e in f.entries()]
    assert recovered == entries
    table = SortedTable(files)
    for entry in entries:
        file = table.find_file(entry.key)
        assert file is not None
        block = file.find_block(entry.key)
        assert block is not None and block.get(entry.key) == entry


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.integers(min_value=0, max_value=100_000),
        unique=True,
        min_size=1,
        max_size=200,
    ),
    st.integers(min_value=0, max_value=100_000),
    st.integers(min_value=0, max_value=2_000),
)
def test_sorted_table_range_queries(keys, low, span):
    config = SystemConfig.tiny()
    disk = SimulatedDisk(VirtualClock(), config.seq_bandwidth_kb_per_s)
    builder = TableBuilder(config, disk, FileIdSource(), SuperFileIdSource())
    table = SortedTable(builder.build(iter(Entry(k, 1) for k in sorted(keys))))
    high = low + span
    covered = [
        e.key
        for f in table.files_overlapping(low, high)
        for e in f.scan_slice(low, high)[0]
    ]
    assert covered == [k for k in sorted(keys) if low <= k <= high]


@settings(max_examples=20, deadline=None)
@given(
    writes=st.lists(
        st.integers(min_value=0, max_value=KEYSPACE - 1),
        min_size=50,
        max_size=400,
    )
)
def test_lsbm_buffer_is_subset_of_tree(writes):
    """Section V's subset property: every live compaction-buffer file's
    keys are also present in the underlying tree's runs for that level
    component — which is what makes the Bloom-gate skip correct."""
    config = SystemConfig.tiny().replace(level0_size_kb=16)
    engine, clock, _, _ = make_engine("lsbm", config)
    for step, key in enumerate(writes):
        engine.put(key)
        if step % 13 == 0:
            clock.advance(1)
            engine.tick(clock.now)
    for level in range(1, engine.num_levels + 1):
        buf = engine.buffer[level]
        run_keys = {e.key for e in engine.c[level].entries()}
        for table in buf.tables:
            for file in table:
                if file.removed:
                    continue
                for entry in file.entries():
                    assert entry.key in run_keys


@settings(max_examples=20, deadline=None)
@given(
    writes=st.lists(
        st.integers(min_value=0, max_value=KEYSPACE - 1),
        min_size=50,
        max_size=400,
    )
)
def test_disk_accounting_consistent(writes):
    """live_kb == allocated - freed at all times, for any engine flow."""
    engine, clock, disk, _ = make_engine("lsbm", SystemConfig.tiny())
    for step, key in enumerate(writes):
        engine.put(key)
        if step % 11 == 0:
            clock.advance(1)
            engine.tick(clock.now)
    allocator = disk._allocator
    assert disk.live_kb == allocator.allocated_kb_total - allocator.freed_kb_total
    assert disk.live_kb >= 0


@settings(max_examples=20, deadline=None)
@given(
    writes=st.lists(
        st.integers(min_value=0, max_value=KEYSPACE - 1),
        min_size=100,
        max_size=400,
    ),
    reads=st.lists(
        st.integers(min_value=0, max_value=KEYSPACE - 1),
        min_size=10,
        max_size=100,
    ),
)
def test_cache_counters_consistent(writes, reads):
    """The per-file cached-block counters always equal the true resident
    set sizes — the invariant LSbM's trim decisions rely on."""
    engine, clock, _, cache = make_engine("lsbm", SystemConfig.tiny())
    for step, key in enumerate(writes):
        engine.put(key)
        if step % 9 == 0:
            clock.advance(1)
            engine.tick(clock.now)
            for key2 in reads:
                engine.get(key2)
    by_file: dict[int, int] = {}
    for file_id, _block in list(cache._order):
        by_file[file_id] = by_file.get(file_id, 0) + 1
    for file_id, count in by_file.items():
        assert cache.cached_blocks(file_id) == count
    assert sum(by_file.values()) == len(cache)
