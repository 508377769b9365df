"""Sweep runner tests: grids, determinism, aggregation, payload schema."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.sim.experiment import run_experiment
from repro.sim.metrics import RunResult, TimeSeries
from repro.sim.spec import ExperimentSpec
from repro.sim.sweep import (
    SpecOutcome,
    expand_grid,
    run_sweep,
    summarize_cells,
)

#: The Figure 8 engine panel — the grid the determinism guarantee is
#: stated over in ISSUE/EXPERIMENTS terms.
FIG8_ENGINES = ("blsm", "leveldb", "blsm+warmup", "lsbm")


class TestExpandGrid:
    def test_engines_times_seeds(self):
        specs = expand_grid(("blsm", "lsbm"), seeds=(0, 1, 2))
        assert len(specs) == 6
        assert {spec.engine for spec in specs} == {"blsm", "lsbm"}
        assert {spec.seed for spec in specs} == {0, 1, 2}

    def test_axes_multiply(self):
        specs = expand_grid(
            ("lsbm",),
            seeds=(0,),
            axes={
                "trim_interval_s": (10, 30),
                "trim_threshold": (0.5, 0.8, 1.0),
            },
        )
        assert len(specs) == 6
        combos = {spec.overrides for spec in specs}
        assert (("trim_interval_s", 10), ("trim_threshold", 0.8)) in combos

    def test_labels_are_unique(self):
        specs = expand_grid(
            ("blsm", "lsbm"), seeds=(0, 1), axes={"trim_interval_s": (10, 30)}
        )
        labels = [spec.label() for spec in specs]
        assert len(set(labels)) == len(labels)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigError, match="bogus"):
            expand_grid(("bogus",))

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            expand_grid((), seeds=(0,))
        with pytest.raises(ConfigError):
            expand_grid(("lsbm",), seeds=())


class TestRunSweep:
    def test_rejects_bad_jobs_and_duplicates(self):
        spec = ExperimentSpec("lsbm", scale=8192, duration_s=50)
        with pytest.raises(ConfigError, match="jobs"):
            run_sweep([spec], jobs=0)
        with pytest.raises(ConfigError, match="duplicate"):
            run_sweep([spec, spec])

    def test_parallel_sweep_identical_to_serial_loop(self):
        """The acceptance criterion: a Fig. 8 grid fanned over two worker
        processes returns results identical to running each experiment
        directly, in order, in this process."""
        specs = expand_grid(FIG8_ENGINES, seeds=(1,), scale=8192,
                            duration_s=200)
        parallel = run_sweep(specs, jobs=2)
        assert [o.spec for o in parallel.outcomes] == specs
        for spec, outcome in zip(specs, parallel.outcomes):
            expected = run_experiment(
                spec.engine, spec.config(), duration_s=200, seed=1
            )
            assert outcome.result == expected

    def test_serial_path_equals_parallel_path(self):
        specs = expand_grid(("blsm", "lsbm"), seeds=(0, 1), scale=8192,
                            duration_s=150)
        serial = run_sweep(specs, jobs=1)
        parallel = run_sweep(specs, jobs=2)
        for a, b in zip(serial.outcomes, parallel.outcomes):
            assert a.result == b.result


def _outcome(engine: str, seed: int, hit: float, qps: float) -> SpecOutcome:
    result = RunResult(engine=engine, duration_s=10)
    for t in range(10):
        result.hit_ratio.add(t, hit)
        result.throughput_qps.add(t, qps)
        result.db_size_mb.add(t, 100.0)
    spec = ExperimentSpec(engine, scale=8192, duration_s=10, seed=seed)
    return SpecOutcome(spec=spec, result=result, wall_clock_s=0.5)


class TestAggregation:
    def test_mean_std_min_max_over_replicas(self):
        cells = summarize_cells(
            [
                _outcome("lsbm", 0, hit=0.4, qps=100.0),
                _outcome("lsbm", 1, hit=0.6, qps=200.0),
                _outcome("blsm", 0, hit=0.2, qps=50.0),
            ]
        )
        by_engine = {cell.engine: cell for cell in cells}
        lsbm = by_engine["lsbm"]
        assert lsbm.seeds == [0, 1]
        assert lsbm.stats["hit_ratio"]["mean"] == pytest.approx(0.5)
        assert lsbm.stats["hit_ratio"]["std"] == pytest.approx(
            0.1414, abs=1e-3
        )
        assert lsbm.stats["hit_ratio"]["min"] == pytest.approx(0.4)
        assert lsbm.stats["hit_ratio"]["max"] == pytest.approx(0.6)
        assert lsbm.stats["throughput_qps"]["mean"] == pytest.approx(150.0)
        blsm = by_engine["blsm"]
        assert blsm.replicas == 1
        assert blsm.stats["hit_ratio"]["std"] == 0.0


class TestPayload:
    def test_real_sweep_payload_passes_bench_schema(self, tmp_path):
        from benchmarks.common import validate_bench

        specs = expand_grid(("blsm", "lsbm"), seeds=(0, 1), scale=8192,
                            duration_s=150)
        outcome = run_sweep(specs, jobs=1)
        payload = outcome.to_payload("unit_sweep")
        validate_bench(payload)
        assert payload["name"] == "unit_sweep"
        assert payload["scale"] == 8192
        assert len(payload["runs"]) == 4
        assert "blsm/x8192/t150/s0" in payload["runs"]
        scalars = payload["scalars"]
        assert scalars["sweep_runs"] == 4.0
        assert scalars["sweep_cells"] == 2.0
        assert scalars["sweep_serial_estimate_s"] > 0
        assert "sweep_speedup_x" in scalars
        assert len(payload["sweep"]["specs"]) == 4

        path = outcome.write_payload(tmp_path / "BENCH_unit.json", "unit")
        validate_bench(json.loads(path.read_text()))

        run_paths = outcome.write_runs(tmp_path / "runs")
        assert len(run_paths) == 4
        restored = RunResult.from_dict(json.loads(run_paths[0].read_text()))
        assert restored == outcome.outcomes[0].result


_FINITE = st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def _series(draw, name: str) -> TimeSeries:
    series = TimeSeries(name)
    for t, value in enumerate(draw(st.lists(_FINITE, max_size=6))):
        series.add(t, value)
    return series


@st.composite
def _run_results(draw) -> RunResult:
    result = RunResult(
        engine=draw(st.sampled_from(["lsbm", "blsm", "leveldb"])),
        config_note=draw(st.text(max_size=8)),
        reads_completed=draw(st.integers(0, 10**9)),
        writes_applied=draw(st.integers(0, 10**9)),
        duration_s=draw(st.integers(0, 10**6)),
    )
    result.hit_ratio = draw(_series("hit_ratio"))
    result.throughput_qps = draw(_series("throughput_qps"))
    result.buffer_size_mb = draw(_series("buffer_size_mb"))
    result.stall = draw(_series("stall"))
    result.stall_seconds = draw(_FINITE)
    for value in draw(st.lists(_FINITE, max_size=6)):
        result.read_latencies_s.append(value)
    result.event_counts = draw(
        st.dictionaries(st.text(max_size=6), st.integers(0, 1000), max_size=3)
    )
    for cause in draw(
        st.lists(st.sampled_from(["flush", "wal", "query"]), unique=True)
    ):
        result.bandwidth_kb_by_cause[cause] = {
            "read_kb": draw(_FINITE),
            "write_kb": draw(_FINITE),
        }
    result.metrics = draw(
        st.dictionaries(st.text(max_size=6), _FINITE, max_size=3)
    )
    return result


class TestLosslessTransport:
    @settings(max_examples=30, deadline=None)
    @given(_run_results())
    def test_to_dict_round_trips_through_json(self, result):
        payload = json.loads(json.dumps(result.to_dict()))
        assert RunResult.from_dict(payload) == result
