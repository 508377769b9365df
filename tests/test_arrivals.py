"""The arrival stream against the per-request merge it replaced.

``generate_arrivals`` builds each class's requests in one comprehension
and merges the classes with one stable sort by time.  Every serve and
cluster digest hashes its output (``seq``, key, ``arrival_s``), so the
stream is held here to the code it replaced, kept in
``tests/arrivals_reference.py``: the whole ``Request`` list must be
equal, field for field, for every process and op, for one class and for
three, at three seeds.  A forced tie pins the (declaration order,
per-class index) tie-break, which no real draw reaches.
"""

from __future__ import annotations

import itertools

import pytest

from repro.config import SystemConfig
from repro.serve import arrivals
from repro.serve.arrivals import OPS, PROCESSES, ClientClass, generate_arrivals
from repro.workload.ycsb import RangeHotWorkload
from tests import arrivals_reference

SEEDS = (0, 1, 7)
DURATION_S = 300


def _both(classes, seed, duration_s=DURATION_S):
    config = SystemConfig.tiny()
    return tuple(
        generate(classes, config, RangeHotWorkload(config), duration_s, seed)
        for generate in (generate_arrivals, arrivals_reference.generate_arrivals)
    )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "process,op", list(itertools.product(PROCESSES, OPS))
)
def test_one_class_stream_equals_the_reference(process, op, seed):
    classes = (
        ClientClass(name="only", op=op, rate_qps=5.0, process=process),
    )
    stream, reference = _both(classes, seed)
    assert stream
    assert stream == reference


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("process", PROCESSES)
def test_three_class_stream_equals_the_reference(process, seed):
    classes = (
        ClientClass(name="readers", op="read", rate_qps=4.0, process=process),
        ClientClass(name="scanners", op="scan", rate_qps=1.0, process=process),
        ClientClass(name="writers", op="write", rate_qps=2.0, process=process),
    )
    stream, reference = _both(classes, seed)
    assert {r.klass for r in stream} == {"readers", "scanners", "writers"}
    assert [r.seq for r in stream] == list(range(len(stream)))
    assert stream == reference


def test_a_zero_rate_class_adds_nothing():
    classes = (
        ClientClass(name="idle", op="write", rate_qps=0.0),
        ClientClass(name="readers", op="read", rate_qps=3.0),
    )
    stream, reference = _both(classes, seed=1)
    assert {r.klass for r in stream} == {"readers"}
    assert stream == reference


def test_tied_arrivals_keep_declaration_order_then_class_index(monkeypatch):
    shared = [0.5, 0.5, 1.25, 2.0, 2.0, 2.0]

    def same_times(klass, sim_rate, duration_s, rng):
        rng.random()  # draw something, as every real process does
        return list(shared)

    monkeypatch.setattr(arrivals, "_arrival_times", same_times)
    monkeypatch.setattr(arrivals_reference, "_arrival_times", same_times)
    classes = (
        ClientClass(name="writers", op="write", rate_qps=1.0),
        ClientClass(name="readers", op="read", rate_qps=1.0),
        ClientClass(name="scanners", op="scan", rate_qps=1.0),
    )
    stream, reference = _both(classes, seed=3)
    assert stream == reference
    names = [c.name for c in classes]
    expected = sorted(
        ((t, order, idx) for order in range(3) for idx, t in enumerate(shared))
    )
    assert [(r.arrival_s, names.index(r.klass)) for r in stream] == [
        (t, order) for t, order, _ in expected
    ]
