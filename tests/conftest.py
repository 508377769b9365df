"""Shared fixtures: a tiny config and fully wired engine stacks."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cache.db_cache import DBBufferCache
from repro.clock import VirtualClock
from repro.config import SystemConfig
from repro.core.lsbm import LSbMTree
from repro.lsm.blsm import BLSMTree
from repro.lsm.leveldb import LevelDBTree
from repro.lsm.sm_tree import SMTree
from repro.sstable.sstable import SSTableFile
from repro.storage.disk import SimulatedDisk
from repro.substrate import Substrate
from repro.variants.hbase import HBaseStyleStore
from repro.variants.warmup import WarmupBLSMTree

ENGINE_CLASSES = {
    "leveldb": LevelDBTree,
    "blsm": BLSMTree,
    "sm": SMTree,
    "lsbm": LSbMTree,
    "blsm+warmup": WarmupBLSMTree,
    "hbase": HBaseStyleStore,
}


@pytest.fixture
def tiny_config() -> SystemConfig:
    return SystemConfig.tiny()


@pytest.fixture
def clock() -> VirtualClock:
    return VirtualClock()


@pytest.fixture
def disk(tiny_config, clock) -> SimulatedDisk:
    return SimulatedDisk(clock, tiny_config.seq_bandwidth_kb_per_s)


@pytest.fixture
def db_cache(tiny_config) -> DBBufferCache:
    return DBBufferCache(tiny_config.cache_blocks)


@pytest.fixture
def materialised(monkeypatch) -> list[SSTableFile]:
    """Every file that cuts its blocks while the test runs, in order."""
    files: list[SSTableFile] = []
    materialise = SSTableFile._materialise

    def recording(file):
        files.append(file)
        return materialise(file)

    monkeypatch.setattr(SSTableFile, "_materialise", recording)
    return files


def make_engine(name: str, config: SystemConfig | None = None):
    """Build one engine with a fresh substrate stack (helper, not fixture)."""
    config = config or SystemConfig.tiny()
    clock = VirtualClock()
    disk = SimulatedDisk(clock, config.seq_bandwidth_kb_per_s)
    cache = DBBufferCache(config.cache_blocks)
    engine = ENGINE_CLASSES[name](Substrate(config, clock, disk, db_cache=cache))
    return engine, clock, disk, cache


@pytest.fixture(params=sorted(ENGINE_CLASSES))
def any_engine(request):
    """Parametrized fixture running a test against every engine."""
    return make_engine(request.param)


@pytest.fixture(scope="session")
def seed_corpus() -> dict:
    """The pinned seed corpus (tests/seeds.json).

    Differential failures are replayable by seed; bugs found by the
    harness pin their failing (engine, seed, ops, key_space) here as
    ``regressions`` entries so they stay covered forever.
    """
    path = Path(__file__).parent / "seeds.json"
    return json.loads(path.read_text())
