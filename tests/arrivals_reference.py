"""The per-request merge, kept as the reference the stream is checked against.

Until the stream was built as one comprehension per class and one stable
sort by time, ``generate_arrivals`` built each request with keyword
arguments, wrapped it in a ``(time, class order, index, request)`` tuple
and sorted those tuples with a three-key lambda.  The function here is
that code, moved out of ``src/`` unchanged.  ``tests/test_arrivals.py``
holds the shipped generator to it, field for field.
"""

from __future__ import annotations

import random

from repro.config import ConfigError, SystemConfig
from repro.serve.arrivals import (
    _MAX_TOTAL_ARRIVALS,
    ClientClass,
    Request,
    _arrival_times,
)
from repro.workload.ycsb import RangeHotWorkload


def generate_arrivals(
    classes: tuple[ClientClass, ...],
    config: SystemConfig,
    workload: RangeHotWorkload,
    duration_s: int,
    seed: int,
) -> list[Request]:
    """Materialize the merged, time-ordered request stream.

    Keys come from the shared workload generator, so serve runs read and
    write the same hot ranges the closed-loop figures use — the
    invalidation dips that differentiate LevelDB from LSbM happen under
    open-loop load too.
    """
    per_class: list[tuple[int, list[Request]]] = []
    total = 0
    for order, klass in enumerate(classes):
        sim_rate = klass.rate_qps / config.ops_scale
        times_rng = random.Random(f"{seed}/arrivals/{klass.name}")
        keys_rng = random.Random(f"{seed}/{klass.name}/keys")
        times = list(_arrival_times(klass, sim_rate, duration_s, times_rng))
        total += len(times)
        if total > _MAX_TOTAL_ARRIVALS:
            raise ConfigError(
                f"arrival stream exceeds {_MAX_TOTAL_ARRIVALS} requests; "
                "lower rate_qps or duration_s (rates are paper-scale QPS, "
                "divided by ops_scale for simulation)"
            )
        requests: list[Request] = []
        for t in times:
            key_high = 0
            if klass.op == "write":
                key = workload.next_write_key(keys_rng)
            elif klass.op == "scan":
                key, key_high = workload.next_scan_range(keys_rng)
            else:
                key = workload.next_read_key(keys_rng)
            requests.append(
                Request(
                    seq=0,
                    klass=klass.name,
                    op=klass.op,
                    key=key,
                    key_high=key_high,
                    arrival_s=t,
                )
            )
        per_class.append((order, requests))
    # Merge by (time, class declaration order, per-class index): the sort
    # key never compares floats against identical floats ambiguously, so
    # the merged order is deterministic.
    merged: list[tuple[float, int, int, Request]] = []
    for order, requests in per_class:
        for idx, req in enumerate(requests):
            merged.append((req.arrival_s, order, idx, req))
    merged.sort(key=lambda item: (item[0], item[1], item[2]))
    stream = [item[3] for item in merged]
    for seq, req in enumerate(stream):
        req.seq = seq
    return stream
