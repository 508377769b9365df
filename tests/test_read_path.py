"""One read path: who owns ``get``/``scan``, and reference descents.

Every engine but LSbM (Algorithms 3 and 4) and the buffered composed
points reads through :meth:`LSMEngine.get` / :meth:`LSMEngine.scan` over
the run order its ``_run_groups()`` declares; LSbM reads through its own
``get``/``scan`` over the component program its ``_derive_read_orders()``
declares.  Each fused form has its reference here: the same descent
written the slow way, one public call per step, run beside the engine's
own on a twin engine fed the same operations.

* ``reference_get``: ``find_file`` -> ``find_block`` -> ``may_contain``
  -> ``_read_block`` -> ``Block.get`` per run.
* ``lsbm_reference_get``: LSbM's component search in its out-of-line
  form (run gate, complement, buffer lists first), walking ``c``, ``cp``
  and ``buffer`` by index.
* ``composed_reference_get``: a ``lazy-adoption`` point's descent, per
  level its buffer tables then its own tables, newest first.
* ``reference_scan``: ``files_overlapping`` -> ``blocks_overlapping``
  -> one cache call per block -> ``entries_in_range`` (the eager file's
  walk over ``Block`` objects, kept in ``tests/eager_reference.py``),
  one run charge per sorted table, merged by ``heap_merge``.
* ``heap_merge``: the k-way heap merge ``merge_entries`` replaced.
"""

from __future__ import annotations

import dataclasses
import heapq
from collections.abc import Iterable, Iterator

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig
from repro.core.lsbm import LSbMTree
from repro.lsm.base import GetResult, LSMEngine, ReadCost, ScanResult
from repro.lsm.blsm import BLSMTree
from repro.lsm.composed import ComposedTree
from repro.sim.experiment import ENGINE_NAMES, build_engine
from repro.sstable.entry import Entry, Kind
from repro.sstable.iterator import (
    merge_entries,
    merge_with_obsolete_count,
    newest_first,
)
from repro.sstable.sorted_table import SortedTable
from repro.sstable.sstable import SSTableFile
from repro.variants.kv_store import KVCachedBLSM
from tests.eager_reference import blocks_overlapping, entries_in_range


def _fresh(engine_name: str):
    """One freshly built engine and its clock."""
    setup = build_engine(engine_name, SystemConfig.tiny())
    return setup.engine, setup.clock


def _descent(engine):
    """The engine's on-disk ``get`` as the engine resolves it (a buffered
    composed point binds its descent when it is built); the K-V
    variant's row cache sits in front of the bLSM descent it inherits."""
    if isinstance(engine, KVCachedBLSM):
        return BLSMTree.get
    return engine.get.__func__


def _reads_through_base(engine) -> bool:
    return _descent(engine) is LSMEngine.get


#: Engines whose ``get`` is the base descent (the buffered points and
#: LSbM consult a compaction buffer first, by design).
BASE_GET_ENGINES = [
    name
    for name in ENGINE_NAMES
    if not name.startswith("lsbm") and not name.endswith("+buffer")
]


@pytest.mark.parametrize("engine_name", ENGINE_NAMES)
def test_read_path_has_one_owner_per_kind(engine_name):
    engine, _ = _fresh(engine_name)
    kind = type(engine)
    assert _descent(engine) in (
        LSMEngine.get, LSbMTree.get, ComposedTree._buffered_get
    )
    assert kind.scan in (LSMEngine.scan, LSbMTree.scan)
    # Only the paper's engine and the buffered points leave the base.
    if not isinstance(engine, LSbMTree) and not engine._buffer_levels:
        assert _reads_through_base(engine)
        assert kind.scan is LSMEngine.scan
    if isinstance(engine, ComposedTree) and not engine._buffer_levels:
        # No pass-through frame: the interpreter's unbuffered points
        # resolve ``get`` to the base descent itself.
        assert kind.get is LSMEngine.get
        assert engine.get.__func__ is LSMEngine.get


def test_base_get_covers_every_unbuffered_engine():
    assert BASE_GET_ENGINES == [
        name for name in ENGINE_NAMES if _reads_through_base(_fresh(name)[0])
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


#: Operation streams for the twin-engine tests.  The tiny write buffer
#: holds 64 pairs: shorter streams never put a run on disk to descend.
OP_STREAMS = st.lists(
    st.tuples(
        st.sampled_from(
            ["put", "put", "put", "delete", "get", "get", "scan", "tick"]
        ),
        st.integers(min_value=0, max_value=1023),
    ),
    min_size=200,
    max_size=600,
)

twin_settings = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _run_twins(engine_name, ops, compare):
    """Feed ``ops`` to two engines; ``compare`` maps an op to the pair of
    calls ``(on the fused engine, on the reference engine)`` it checks."""
    fused, fused_clock = _fresh(engine_name)
    plain, plain_clock = _fresh(engine_name)
    for op, key in ops:
        if op in compare:
            run_fused, run_reference = compare[op]
            yield run_fused(fused, key), run_reference(plain, key), fused, plain
            continue
        for engine, clock in ((fused, fused_clock), (plain, plain_clock)):
            if op == "put":
                engine.put(key)
            elif op == "delete":
                engine.delete(key)
            elif op == "get":
                engine.get(key)
            elif op == "scan":
                engine.scan(key, key + 64)
            else:
                clock.advance(1 + key % 10)
                engine.tick(clock.now)
    assert dataclasses.asdict(fused.stats) == dataclasses.asdict(plain.stats)


def _assert_same_get(got, want, fused, plain):
    assert (got.found, got.value) == (want.found, want.value)
    assert dataclasses.asdict(got.cost) == dataclasses.asdict(want.cost)
    assert _cache_stats(fused) == _cache_stats(plain)


@twin_settings
@given(ops=OP_STREAMS)
@pytest.mark.parametrize("engine_name", BASE_GET_ENGINES)
def test_fused_get_equals_reference_descent(engine_name, ops):
    """Same answer, same cost in every field, same cache state after
    every read — so the two descents touch the same blocks in the same
    order, which is all the fusion is allowed to preserve."""
    compare = {
        "get": (lambda engine, key: _descent(engine)(engine, key), reference_get)
    }
    for outcome in _run_twins(engine_name, ops, compare):
        _assert_same_get(*outcome)


# ----------------------------------------------------------------------
# LSbM: the component program against c/cp/buffer walked by index.
# ----------------------------------------------------------------------
def lsbm_components(engine: LSbMTree):
    """LSbM's read shape, re-derived by hand (Section V's pairing)."""
    yield engine.c0_prime, engine.buffer[1].incoming, [], False
    for level in range(1, engine.num_levels + 1):
        buf = engine.buffer[level]
        yield engine.c[level], None, buf.tables, engine._covers[level]
        if level < engine.num_levels:
            yield (
                engine.cp[level],
                engine.buffer[level + 1].incoming,
                buf.draining,
                engine._draining_covers[level],
            )


def _reference_buffer_lists(
    engine: LSMEngine, tables: list[SortedTable], key: int, cost: ReadCost
) -> Entry | None:
    """A compaction-buffer list newest-table-first; a removed marker
    covering the key stops the whole check (Algorithm 3 lines 15-16)."""
    for table in tables:
        cost.index_probes += 1
        file = table.find_file(key)
        if file is None:
            continue
        if file.removed:
            return None
        block = file.find_block(key)
        if block is None:
            continue
        cost.bloom_probes += 1
        if not block.may_contain(key):
            continue
        engine._read_block(file, block, cost)
        entry = block.get(key)
        if entry is not None:
            return entry
        cost.false_positive_blocks += 1
    return None


def _reference_search_component(
    engine: LSbMTree,
    run: SortedTable,
    key: int,
    cost: ReadCost,
    buffer_tables: list[SortedTable],
    complement: SortedTable | None = None,
) -> Entry | None:
    """One level component: run's index/Bloom gate, buffer first.

    The out-of-line search ``LSbMTree.get`` fused into its loop.
    """
    cost.tables_checked += 1
    file = run.find_file(key)
    if file is None and complement is not None:
        file = complement.find_file(key)
    if file is None:
        return None
    block = file.find_block(key)
    if block is None:
        return None
    cost.bloom_probes += 1
    if not block.may_contain(key):
        return None  # The buffer lists hold subsets: cleared as well.
    entry = _reference_buffer_lists(engine, buffer_tables, key, cost)
    if entry is not None:
        engine.lsbm_stats.reads_served_by_buffer += 1
        return entry
    engine._read_block(file, block, cost)
    entry = block.get(key)
    if entry is None:
        cost.false_positive_blocks += 1
    else:
        engine.lsbm_stats.reads_served_by_tree += 1
    return entry


def lsbm_reference_get(engine: LSbMTree, key: int) -> GetResult:
    """``LSbMTree.get`` (Algorithm 3), unfused."""
    engine.stats.gets += 1
    cost = ReadCost()
    cost.memtable_probes += 1
    entry = engine.memtable.get(key)
    if entry is not None:
        return engine._make_entry_result(entry, cost)
    for run, complement, buffer_tables, _ in lsbm_components(engine):
        entry = _reference_search_component(
            engine, run, key, cost, buffer_tables, complement
        )
        if entry is not None:
            return engine._make_entry_result(entry, cost)
    return GetResult(False, None, cost)


@twin_settings
@given(ops=OP_STREAMS)
@pytest.mark.parametrize("engine_name", ["lsbm", "lsbm-dual"])
def test_fused_lsbm_get_equals_reference_descent(engine_name, ops):
    """The paper's engine has a reference too: same answer, cost, cache
    state and buffer/tree attribution after every read."""
    compare = {
        "get": (lambda engine, key: engine.get(key), lsbm_reference_get)
    }
    for got, want, fused, plain in _run_twins(engine_name, ops, compare):
        _assert_same_get(got, want, fused, plain)
        assert fused.lsbm_stats == plain.lsbm_stats


# ----------------------------------------------------------------------
# The buffered interpreter points: buffer tables, then the level's own.
# ----------------------------------------------------------------------
def composed_reference_get(engine: ComposedTree, key: int) -> GetResult:
    """A ``lazy-adoption`` point's ``get``, unfused: per level the buffer
    tables newest first (one ``index_probes`` each, a removed marker
    ends the check), then the level's tables newest first."""
    engine.stats.gets += 1
    cost = ReadCost()
    cost.memtable_probes += 1
    entry = engine.memtable.get(key)
    if entry is not None:
        return engine._make_entry_result(entry, cost)
    for level in range(1, engine.num_levels + 1):
        entry = _reference_buffer_lists(
            engine, engine.buffer[level].tables, key, cost
        )
        if entry is not None:
            return engine._make_entry_result(entry, cost)
        for run in reversed(engine.levels[level]):
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
            if entry is not None:
                return engine._make_entry_result(entry, cost)
            cost.false_positive_blocks += 1
    return GetResult(False, None, cost)


#: 1,000 puts spread over the key space, a tick after every 50: the
#: tiny buffered points adopt their first files only after about 500.
BUFFER_WARMUP = [
    op
    for i in range(1000)
    for op in [("put", i * 389 % 1024)] + [("tick", 0)] * (i % 50 == 49)
]


@twin_settings
@given(ops=OP_STREAMS)
@pytest.mark.parametrize(
    "engine_name", ["tiering+buffer", "lazy-leveling+buffer"]
)
def test_buffered_composed_get_equals_reference_descent(engine_name, ops):
    """Same answer, cost in every field, cache state and buffer counters
    after every read: the buffered points count probes as LSbM does."""
    compare = {
        "get": (lambda engine, key: engine.get(key), composed_reference_get)
    }
    twins = _run_twins(engine_name, BUFFER_WARMUP + ops, compare)
    for got, want, fused, plain in twins:
        _assert_same_get(got, want, fused, plain)
        assert fused.buffer.stats == plain.buffer.stats


@pytest.mark.parametrize(
    "engine_name", ["tiering+buffer", "lazy-leveling+buffer"]
)
def test_buffer_warmup_gives_the_twins_a_buffer(engine_name):
    """Without buffer tables the test above would only compare tree
    probes."""
    engine, clock = _fresh(engine_name)
    for op, key in BUFFER_WARMUP:
        if op == "put":
            engine.put(key)
        else:
            clock.advance(1)
            engine.tick(clock.now)
    assert any(buf.tables for buf in engine._buffer_levels)


# ----------------------------------------------------------------------
# Range queries: one cache call per block, heap-merged.
# ----------------------------------------------------------------------
def heap_merge(
    sources: list[Iterable[Entry]], drop_tombstones: bool = False
) -> Iterator[Entry]:
    """K-way heap merge with newest-wins deduplication.

    What ``merge_entries`` was before it became one sort: kept as the
    reference its result is checked against.
    """
    # Heap items: (key, -seq, tiebreak, entry, iterator).  Ordering by
    # (key, -seq) surfaces the newest version of each key first.
    heap: list[tuple[int, int, int, Entry, Iterator[Entry]]] = []
    for tiebreak, source in enumerate(sources):
        iterator = iter(source)
        first = next(iterator, None)
        if first is not None:
            heap.append((first.key, -first.seq, tiebreak, first, iterator))
    heapq.heapify(heap)
    previous_key: int | None = None
    while heap:
        key, _, tiebreak, entry, iterator = heapq.heappop(heap)
        following = next(iterator, None)
        if following is not None:
            heapq.heappush(
                heap,
                (following.key, -following.seq, tiebreak, following, iterator),
            )
        if key == previous_key:
            continue  # An older version of a key already emitted.
        previous_key = key
        if drop_tombstones and entry.is_tombstone:
            continue
        yield entry


def _reference_scan_table(
    engine: LSMEngine,
    files: list[SSTableFile],
    low: int,
    high: int,
    cost: ReadCost,
) -> list[list[Entry]]:
    """One sorted table's files: a cache call per block, one run charge."""
    sources: list[list[Entry]] = []
    uncached = 0
    for file in files:
        entries: list[Entry] = []
        for block in blocks_overlapping(file.blocks, low, high):
            if engine.db_cache is not None:
                # A DB miss goes to the disk: scans bypass the OS cache.
                if engine.db_cache.access(file.file_id, block.index):
                    cost.cache_hit_blocks += 1
                else:
                    uncached += 1
            elif engine.os_cache is not None:
                address = (
                    file.extent.start
                    + block.index * engine.config.block_size_kb
                )
                if engine.os_cache.read(address):
                    cost.os_hit_blocks += 1
                else:
                    uncached += 1
            else:
                uncached += 1
            entries.extend(entries_in_range(block, low, high))
        sources.append(entries)
    if uncached:
        cost.seq_runs += 1
        size_kb = uncached * engine.config.block_size_kb
        cost.seq_kb += size_kb
        engine.disk.foreground_sequential_read(size_kb, seeks=1)
    return sources


def _lsbm_scan_tables(
    engine: LSbMTree, low: int, high: int, cost: ReadCost
) -> Iterator[list[SSTableFile]]:
    """Algorithm 4's choice per component: the buffer lists when they
    are a complete record of the run and no removed marker overlaps the
    range, else the run plus its drained complement."""
    for run, complement, buffer_tables, covered in lsbm_components(engine):
        run_files = run.files_overlapping(low, high)
        complement_files = (
            complement.files_overlapping(low, high)
            if complement is not None
            else []
        )
        if not run_files and not complement_files:
            continue
        cost.tables_checked += 1
        collected: list[list[SSTableFile]] = []
        if covered:
            for table in buffer_tables:
                overlapping = table.files_overlapping(low, high)
                if any(file.removed for file in overlapping):
                    collected = []  # Lines 11-13: clear F.
                    break
                if overlapping:
                    collected.append(overlapping)
        yield from collected or [
            files for files in (run_files, complement_files) if files
        ]


def _run_scan_tables(
    engine: LSMEngine, low: int, high: int, cost: ReadCost
) -> Iterator[list[SSTableFile]]:
    """Every run of the shape declaration, as stored (oldest first
    inside a group); the buffered composed points scan no buffer."""
    for group in engine._run_groups():
        for run in group:
            files = run.files_overlapping(low, high)
            if files:
                cost.tables_checked += 1
                yield files


def reference_scan(engine: LSMEngine, low: int, high: int) -> ScanResult:
    """``scan``, unfused: one public call per step, heap-merged."""
    engine.stats.scans += 1
    cost = ReadCost()
    sources = [engine.memtable.entries_in_range(low, high)]
    tables = _lsbm_scan_tables if isinstance(engine, LSbMTree) else _run_scan_tables
    for files in tables(engine, low, high, cost):
        sources.extend(_reference_scan_table(engine, files, low, high, cost))
    return ScanResult(list(heap_merge(sources, drop_tombstones=True)), cost)


def _resident_order(engine) -> list:
    cache = engine.db_cache
    return list(cache._order) if cache is not None else []


@twin_settings
@given(ops=OP_STREAMS)
@pytest.mark.parametrize("engine_name", ENGINE_NAMES)
def test_scan_equals_reference_scan(engine_name, ops):
    """Same pairs, same cost in every field, same cache counters, same
    disk run charges and the same LRU order after every scan: the
    per-table pass reaches the cache block by block in the order the
    per-block walk did."""
    compare = {
        "scan": (
            lambda engine, key: engine.scan(key, key + 64),
            lambda engine, key: reference_scan(engine, key, key + 64),
        )
    }
    for got, want, fused, plain in _run_twins(engine_name, ops, compare):
        assert got.entries == want.entries
        assert dataclasses.asdict(got.cost) == dataclasses.asdict(want.cost)
        assert _cache_stats(fused) == _cache_stats(plain)
        assert _resident_order(fused) == _resident_order(plain)
        for field in ("seeks", "seq_read_kb"):
            assert getattr(fused.disk.stats, field) == getattr(
                plain.disk.stats, field
            )


# ----------------------------------------------------------------------
# The one merge against the heap it replaced.
# ----------------------------------------------------------------------
def _write(key: int, seq: int) -> Entry:
    """The one entry ``(key, seq)`` names: a write's kind is fixed."""
    return Entry(key, seq, Kind.DELETE if (key + seq) % 3 == 0 else Kind.PUT)


@settings(max_examples=200, deadline=None)
@given(
    versions=st.lists(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=30),
                # Few seqs: the same (key, seq) lands in two sources, as
                # a buffer file beside the run that re-wrote it does.
                st.integers(min_value=1, max_value=6),
            ),
            unique_by=lambda version: version[0],
            max_size=20,
        ),
        max_size=6,
    ),
    drop_tombstones=st.booleans(),
)
@example(versions=[], drop_tombstones=False)
@example(versions=[[], []], drop_tombstones=True)
@example(versions=[[(3, 3), (4, 1)]], drop_tombstones=True)  # One source.
@example(versions=[[], [(1, 2)], []], drop_tombstones=False)
@example(versions=[[(1, 2), (2, 1)], [(1, 2)], [(1, 1)]], drop_tombstones=False)
def test_merge_equals_heap_merge(versions, drop_tombstones):
    sources = [
        [_write(key, seq) for key, seq in sorted(source)] for source in versions
    ]
    want = list(heap_merge(sources, drop_tombstones))
    got = merge_entries(sources, drop_tombstones)
    assert isinstance(got, list)
    assert got == want
    assert all(got is not source for source in sources)
    merged, obsolete = merge_with_obsolete_count(sources, drop_tombstones)
    assert merged == want
    assert obsolete == sum(len(source) for source in sources) - len(want)


# ----------------------------------------------------------------------
# The scan rule against the compaction rule.
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(
    versions=st.lists(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=30),
                st.integers(min_value=0, max_value=3),
            ),
            unique_by=lambda version: version[0],
            max_size=20,
        ),
        max_size=6,
    ),
)
@example(versions=[])
@example(versions=[[], []])
@example(versions=[[(3, 0), (4, 1)]])  # One source.
@example(versions=[[], [(1, 2)], []])
@example(versions=[[(1, 0), (2, 0)], [(1, 3)], [(1, 0)]])
def test_newest_first_equals_merge(versions):
    """Sources in probe order — source ``i`` holds seqs in ``[4(n-i),
    4(n-i)+3]``, so a shared key's seq falls with the source index — give
    the same result under the scan rule as under the compaction rule,
    tombstones dropped."""
    n = len(versions)
    sources = [
        [_write(key, 4 * (n - i) + offset) for key, offset in sorted(source)]
        for i, source in enumerate(versions)
    ]
    got = newest_first(sources)
    assert isinstance(got, list)
    assert got == merge_entries(sources, drop_tombstones=True)
    assert all(got is not source for source in sources)
