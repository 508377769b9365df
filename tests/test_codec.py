"""The wire format (:mod:`repro.codec`): one property, four contracts.

* every :class:`~repro.codec.Wire` class round-trips through JSON
  (a Hypothesis property whose strategies are derived from the same
  field annotations the codec reads, so a new field is covered the day
  it is declared);
* the two field projections (cluster spec -> serve spec -> experiment
  spec) are total: a new serve parameter must be given to clusters or
  named in ``ClusterSpec._wire_extra``;
* a payload written before a field existed loads at the field's default;
* loading neither mutates nor aliases the payload;
* a malformed payload raises ``ConfigError`` and nothing else.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import types
import typing

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.cluster.result import ClusterResult, MigrationReport
from repro.cluster.ring import PARTITIONERS
from repro.cluster.shard import ShardSpec
from repro.cluster.spec import ClusterSpec
from repro.codec import Wire
from repro.config import SystemConfig
from repro.control import CONTROLLER_NAMES
from repro.errors import ConfigError
from repro.lsm.policy import (
    GRANULARITIES,
    LAYOUTS,
    MOVEMENTS,
    TRIGGERS,
    CompactionAxes,
)
from repro.obs.metrics import Reservoir
from repro.obs.tracing import TRACE_MODES
from repro.serve.arrivals import OPS, PROCESSES, ClientClass
from repro.serve.result import ClassStats, ServeResult
from repro.serve.scheduler import SCHEDULER_NAMES
from repro.serve.spec import ServiceSpec
from repro.sim.metrics import RunResult, TimeSeries
from repro.sim.spec import CONFIG_BASES, ExperimentSpec
from tests.golden import (
    CLASS_STATS,
    CLUSTER_RESULT,
    CLUSTER_SPEC,
    MIGRATION_REPORT,
    RUN_RESULT,
    SERVE_RESULT,
    SERVICE_SPEC,
)


def _wire_classes(root: type = Wire) -> list[type]:
    found = []
    for cls in root.__subclasses__():
        found.append(cls)
        found.extend(_wire_classes(cls))
    return found


WIRE_CLASSES = sorted(_wire_classes(), key=lambda cls: cls.__name__)


# ----------------------------------------------------------------------
# Strategies, derived from the annotations the codec itself reads.
# ----------------------------------------------------------------------
_FLOATS = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)
_INTS = st.integers(min_value=-(2**40), max_value=2**40)
_TEXT = st.text(max_size=6)
_JSON = st.recursive(
    st.none() | st.booleans() | _INTS | _FLOATS | _TEXT,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_TEXT, inner, max_size=3),
    max_leaves=6,
)
_OVERRIDES = st.dictionaries(
    st.sampled_from(sorted(f.name for f in dataclasses.fields(SystemConfig))),
    st.booleans() | _INTS | _FLOATS | _TEXT,
    max_size=3,
).map(lambda overrides: tuple(overrides.items()))


@st.composite
def _series(draw) -> TimeSeries:
    series = TimeSeries(draw(_TEXT))
    for time, value in draw(st.lists(st.tuples(_INTS, _FLOATS), max_size=4)):
        series.add(time, value)
    return series


@st.composite
def _reservoirs(draw) -> Reservoir:
    reservoir = Reservoir(capacity=draw(st.integers(1, 6)))
    reservoir.extend(draw(st.lists(_FLOATS, max_size=10)))
    return reservoir


_POSITIVE = st.integers(min_value=1, max_value=2**20)
_RATE = st.floats(min_value=0.0, max_value=1e6)
_UNIT_OPEN = st.floats(min_value=0.01, max_value=0.99)

#: Fields a ``__post_init__`` constrains; everything else is drawn from
#: its annotation alone.
_CONSTRAINED: dict[type, dict[str, st.SearchStrategy]] = {
    CompactionAxes: {
        "trigger": st.sampled_from(TRIGGERS),
        "layout": st.sampled_from(LAYOUTS),
        "granularity": st.sampled_from(GRANULARITIES),
        "movement": st.sampled_from(MOVEMENTS),
    },
    ClientClass: {
        "name": st.text(min_size=1, max_size=6),
        "op": st.sampled_from(OPS),
        "rate_qps": _RATE,
        "process": st.sampled_from(PROCESSES),
        "burst_multiplier": st.floats(min_value=1.0, max_value=64.0),
        "burst_fraction": _UNIT_OPEN,
        "mean_burst_s": st.floats(min_value=0.1, max_value=1e3),
        "diurnal_amplitude": st.floats(min_value=0.0, max_value=0.99),
        "diurnal_period_s": st.floats(min_value=0.1, max_value=1e4),
        "weight": _POSITIVE,
    },
    ExperimentSpec: {
        "base": st.sampled_from(CONFIG_BASES),
        "duration_s": st.none() | _POSITIVE,
        "sample_every": _POSITIVE,
    },
}
_CONSTRAINED[ServiceSpec] = {
    "base": st.sampled_from(CONFIG_BASES),
    "duration_s": st.none() | _POSITIVE,
    "policy": st.sampled_from(SCHEDULER_NAMES),
    "arrival": st.sampled_from(PROCESSES),
    "read_rate_qps": _RATE,
    "queue_bound": _POSITIVE,
    "request_sample_every": _POSITIVE,
    "trace": st.sampled_from(TRACE_MODES),
    "trace_slo_s": st.floats(min_value=0.001, max_value=100.0),
    "trace_stall_spike_s": st.floats(min_value=0.0, max_value=100.0),
    "trace_dip_threshold": st.floats(min_value=0.0, max_value=1.0),
    "controller": st.sampled_from(CONTROLLER_NAMES),
    "control_interval_s": _POSITIVE,
}
_CONSTRAINED[ClusterSpec] = {
    **_CONSTRAINED[ServiceSpec],
    "num_shards": st.integers(2, 4),
    "partitioner": st.sampled_from(PARTITIONERS),
    "vnodes": _POSITIVE,
    # A split is only legal on the range partitioner; invalid draws
    # are rejected where the instance is built.
    "split_at_s": st.none() | st.integers(0, 1000),
    "split_source": st.integers(0, 1),
    "split_target": st.integers(0, 1),
    "split_fraction": _UNIT_OPEN,
}
_CONSTRAINED[ShardSpec] = {"shard": st.integers(0, 1)}


def _for_hint(hint: object) -> st.SearchStrategy:
    if hint is int:
        return _INTS
    if hint is float:
        return _FLOATS
    if hint is bool:
        return st.booleans()
    if hint is str:
        return _TEXT
    if hint is object:
        return _JSON
    if hint is dict:
        return st.dictionaries(_TEXT, _JSON, max_size=3)
    if hint == tuple[tuple[str, object], ...]:
        return _OVERRIDES
    if hint is TimeSeries:
        return _series()
    if hint is Reservoir:
        return _reservoirs()
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (types.UnionType, typing.Union):
        (inner,) = (arg for arg in args if arg is not type(None))
        return st.none() | _for_hint(inner)
    if origin is list:
        return st.lists(_for_hint(args[0]), max_size=2)
    if origin is tuple:
        return st.lists(_for_hint(args[0]), max_size=2).map(tuple)
    if origin is dict:
        return st.dictionaries(_TEXT, _for_hint(args[1]), max_size=2)
    if isinstance(hint, type) and issubclass(hint, Wire):
        return _instances(hint)
    raise AssertionError(f"no strategy for annotation {hint!r}")


@st.composite
def _instances(draw, cls: type):
    hints = typing.get_type_hints(cls)
    constrained = _CONSTRAINED.get(cls, {})
    unknown = set(constrained) - set(hints)
    assert not unknown, f"{cls.__name__}: stale constraints {unknown}"
    values = {
        field.name: draw(
            constrained[field.name]
            if field.name in constrained
            else _for_hint(hints[field.name])
        )
        for field in dataclasses.fields(cls)
    }
    try:
        return cls(**values)
    except ConfigError:
        assume(False)


@pytest.mark.parametrize("cls", WIRE_CLASSES, ids=lambda cls: cls.__name__)
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(data=st.data())
def test_every_wire_class_round_trips_through_json(cls, data):
    instance = data.draw(_instances(cls))
    first = instance.to_dict()
    loaded = cls.from_dict(json.loads(json.dumps(first)))
    assert loaded == instance
    assert loaded.to_dict() == first


def test_the_property_covers_every_class_with_a_wire_form():
    assert {cls.__name__ for cls in WIRE_CLASSES} == {
        "ExperimentSpec", "ServiceSpec", "ClientClass", "ClusterSpec",
        "ShardSpec", "CompactionAxes", "RunResult", "ClassStats",
        "ServeResult", "MigrationReport", "ClusterResult",
    }


# ----------------------------------------------------------------------
# Totality of the projections.
# ----------------------------------------------------------------------
def _declared(cls: type) -> dict[str, object]:
    return {field.name: field.default for field in dataclasses.fields(cls)}


#: The two lists the hand-written copies spelled out, pinned.
_SERVE_TO_EXPERIMENT = {
    "engine", "base", "scale", "overrides", "duration_s", "seed",
    "do_preload",
}
#: Keys of the retired serve span profiler, which archived cluster
#: payloads still carry.
_ARCHIVED_SERVE_KEYS = {"profile", "sample_every"}
_CLUSTER_TO_SERVE = {
    "engine", "base", "scale", "overrides", "duration_s", "seed", "policy",
    "arrival", "read_rate_qps", "write_rate_qps", "queue_bound",
    "admit_queue_fraction", "retry_after_s", "max_retries", "do_preload",
    "warm_cache", "request_sample_every", "trace", "trace_dir",
    "trace_slo_s", "trace_stall_spike_s", "trace_dip_threshold",
    "controller", "control_interval_s",
}


def test_every_serve_field_is_a_cluster_field_or_a_declared_extra():
    """Adding a serve parameter without deciding what a cluster does
    with it fails here, not in a payload."""
    serve, cluster = _declared(ServiceSpec), _declared(ClusterSpec)
    assert set(serve) - set(cluster) == (
        set(ClusterSpec._wire_extra) - _ARCHIVED_SERVE_KEYS
    )
    assert set(serve) & set(cluster) == _CLUSTER_TO_SERVE
    drifted = {
        name for name in _CLUSTER_TO_SERVE if serve[name] != cluster[name]
    }
    assert not drifted, f"defaults differ between the two specs: {drifted}"


def test_every_shared_field_reaches_the_projected_spec():
    serve = CLUSTER_SPEC.service_spec()
    for name in _CLUSTER_TO_SERVE:
        assert getattr(serve, name) == getattr(CLUSTER_SPEC, name), name
    experiment = SERVICE_SPEC._experiment_spec()
    shared = set(_declared(ServiceSpec)) & set(_declared(ExperimentSpec))
    assert shared == _SERVE_TO_EXPERIMENT
    for name in shared:
        assert getattr(experiment, name) == getattr(SERVICE_SPEC, name), name
        assert (
            _declared(ServiceSpec)[name] == _declared(ExperimentSpec)[name]
        ), name


# ----------------------------------------------------------------------
# Old payloads: a key written before its field existed takes the default.
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "instance",
    [RUN_RESULT, CLASS_STATS, SERVE_RESULT, MIGRATION_REPORT, CLUSTER_RESULT],
    ids=lambda instance: type(instance).__name__,
)
def test_result_loads_with_every_defaulted_key_removed(instance):
    cls = type(instance)
    required = [
        field.name
        for field in dataclasses.fields(cls)
        if field.default is dataclasses.MISSING
        and field.default_factory is dataclasses.MISSING
    ]
    full = instance.to_dict()
    old = {name: full[name] for name in required}
    loaded = cls.from_dict(old)
    assert loaded == cls(**{name: getattr(instance, name) for name in required})


def test_an_archived_cluster_payload_with_serve_profiler_keys_loads():
    """Cluster payloads written while ``ServiceSpec`` still had
    ``profile``/``sample_every`` carry both keys; they load unchanged."""
    payload = json.loads(json.dumps(CLUSTER_RESULT.to_dict()))
    assert not _ARCHIVED_SERVE_KEYS & set(payload["spec"])
    payload["spec"].update(profile=False, sample_every=32)
    assert ClusterResult.from_dict(payload) == CLUSTER_RESULT
    with pytest.raises(ConfigError, match="unknown keys"):
        ServiceSpec.from_dict({"engine": "lsbm", "profile": False})


@pytest.mark.parametrize(
    "instance", [RUN_RESULT, SERVE_RESULT], ids=lambda i: type(i).__name__
)
def test_an_archived_run_payload_with_the_bandwidth_series_loads(instance):
    """Run payloads written while ``RunResult`` kept per-cause KB/s
    series carry ``bandwidth_by_cause``; they load, and it is ignored."""
    payload = json.loads(json.dumps(instance.to_dict()))
    assert "bandwidth_by_cause" not in payload
    payload["bandwidth_by_cause"] = {
        "flush": {"name": "bandwidth.flush", "times": [1], "values": [2.0]}
    }
    assert type(instance).from_dict(payload) == instance


def test_a_partial_series_group_keeps_the_other_defaults():
    payload = {"engine": "lsbm", "series": {"stall": {
        "name": "stall", "times": [1], "values": [0.5]}}}
    loaded = RunResult.from_dict(payload)
    assert loaded.stall.values == [0.5]
    assert loaded.hit_ratio == TimeSeries("hit_ratio")


# ----------------------------------------------------------------------
# Neither direction shares a container with the other side.
# ----------------------------------------------------------------------
def test_decode_neither_mutates_nor_aliases_its_input():
    payload = json.loads(json.dumps(CLUSTER_RESULT.to_dict()))
    pristine = copy.deepcopy(payload)
    loaded = ClusterResult.from_dict(payload)
    assert payload == pristine
    shard = loaded.shards[0]
    shard.hit_ratio.add(99, 1.0)
    shard.read_latencies_s.append(7.0)
    shard.event_counts["FlushEnd"] += 1
    shard.bandwidth_kb_by_cause["query"]["read_kb"] = -1.0
    shard.metrics["lsm.get.latency_s"]["count"] = -1.0
    shard.class_stats["writers"].latency_s.append(7.0)
    shard.request_samples[0]["seq"] = -1
    shard.exemplars[0]["stages"].append({"stage": "x", "duration_s": 0.0})
    shard.flight_dumps[0]["records"][0]["t"] = -1.0
    shard.control_decisions.clear()
    loaded.shards.pop()
    loaded.verify["read_mismatches"] = 5
    assert payload == pristine


def test_encode_does_not_alias_the_object():
    result = ServeResult.from_dict(SERVE_RESULT.to_dict())
    payload = result.to_dict()
    payload["exemplars"][0]["stages"].clear()
    payload["metrics"]["lsm.get.latency_s"]["count"] = -1.0
    payload["series"]["stall"]["values"].append(9.0)
    payload["class_stats"]["writers"]["latency_s"]["samples"].clear()
    assert result == SERVE_RESULT


# ----------------------------------------------------------------------
# Malformed payloads.
# ----------------------------------------------------------------------
#: The ten payloads of ISSUE 22: at the hand-written loaders the first
#: two loaded silently and the rest raised AttributeError, KeyError
#: (four), TypeError and ValueError (two).
MALFORMED = [
    (ExperimentSpec, {"engine": "lsbm", "scael": 512}, "unknown keys ['scael']"),
    (ServiceSpec, {"kind": "cluster", "engine": "lsbm"}, "kind 'cluster'"),
    (ExperimentSpec, {"engine": "lsbm", "overrides": [["size_ratio", 8]]},
     "ExperimentSpec.overrides"),
    (ExperimentSpec, {"scale": 512}, "ExperimentSpec.engine: missing"),
    (ClientClass, {"name": "readers", "op": "read"}, "ClientClass.rate_qps"),
    (MigrationReport, {"at_s": 300}, "MigrationReport.source: missing"),
    (ClusterResult, {"kind": "cluster", "shards": []}, "ClusterResult.spec"),
    (RunResult, ["engine", "lsbm"], "RunResult: payload is not a dict"),
    (ClusterSpec, {"kind": "cluster", "engine": "lsbm", "num_shards": "two"},
     "ClusterSpec.num_shards: cannot load 'two'"),
    (ShardSpec,
     {"kind": "cluster-shard", "cluster": {"engine": "lsbm"}, "shard": "x"},
     "ShardSpec.shard: cannot load 'x'"),
]

#: The same door, other ways to be wrong.
MALFORMED_MORE = [
    (ExperimentSpec, {"engine": 5}, "ExperimentSpec.engine"),
    (ExperimentSpec, {"engine": "lsbm", "scan_mode": 1}, "scan_mode"),
    (ExperimentSpec, {"engine": "lsbm", "kind": "serve"}, "unknown keys"),
    (ExperimentSpec, {"engine": "lsbm", "base": "huge"}, "config base"),
    (ServiceSpec, {"engine": "lsbm", "classes": {"readers": 1}}, "classes"),
    (ServiceSpec, {"engine": "lsbm", "classes": ["readers"]},
     "ClientClass: payload is not a dict"),
    (ClusterSpec, {"engine": "lsbm", "shards": 4}, "unknown keys ['shards']"),
    (ShardSpec, {"cluster": {"engine": "lsbm"}, "shard": 9}, "out of range"),
    (RunResult, {"engine": "lsbm", "series": []}, "RunResult.series"),
    (RunResult, {"engine": "lsbm", "series": {"latency": {}}},
     "RunResult.series: unknown keys ['latency']"),
    (RunResult, {"engine": "lsbm", "series": {"stall": {"name": "stall"}}},
     "TimeSeries"),
    (RunResult, {"engine": "lsbm", "read_latencies_s": {"capacity": 0}},
     "Reservoir"),
    (RunResult, {"engine": "lsbm", "event_counts": {"FlushEnd": None}},
     "RunResult.event_counts"),
    (ServeResult, {"kind": "serve", "engine": "lsbm",
                   "class_stats": {"readers": "x"}},
     "ClassStats: payload is not a dict"),
    (ServeResult, {"kind": "serve", "engine": "lsbm", "request_samples": 3},
     "ServeResult.request_samples"),
    (ClusterResult, {"spec": {"engine": "lsbm"}, "verify": [1]}, "verify"),
    (ClusterResult, {"spec": {"engine": "lsbm"}, "migration": {"at_s": "x"}},
     "MigrationReport.at_s"),
    (CompactionAxes, {"layout": "wide"}, "compaction layout"),
    (ExperimentSpec, {"engine": "lsbm", "sample_every": 0},
     "sample_every must be >= 1"),
]


@pytest.mark.parametrize("cls, payload, message", MALFORMED + MALFORMED_MORE)
def test_malformed_payload_raises_config_error(cls, payload, message):
    with pytest.raises(ConfigError) as caught:
        cls.from_dict(payload)
    assert message in str(caught.value)


@pytest.mark.parametrize(
    "cls, payload",
    [
        (TimeSeries, {"name": "stall", "times": [1]}),
        (TimeSeries, {"name": "stall", "times": ["x"], "values": [1.0]}),
        (TimeSeries, None),
        (Reservoir, {"capacity": 4, "count": 1}),
        (Reservoir, {"capacity": 0, "count": 0, "samples": []}),
        (Reservoir, [4, 0, []]),
    ],
)
def test_hand_written_leaves_raise_config_error_too(cls, payload):
    with pytest.raises(ConfigError, match=cls.__name__):
        cls.from_dict(payload)


def test_a_missing_kind_tag_is_not_an_error_but_a_wrong_one_is():
    assert ServiceSpec.from_dict({"engine": "lsbm"}) == ServiceSpec("lsbm")
    with pytest.raises(ConfigError, match="is not 'cluster-shard'"):
        ShardSpec.from_dict(dict(ShardSpec(CLUSTER_SPEC, 0).to_dict(), kind="x"))
