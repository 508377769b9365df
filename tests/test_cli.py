"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.obs.trace import read_jsonl


class TestParser:
    def test_engines_command(self, capsys):
        assert main(["engines"]) == 0
        out = capsys.readouterr().out
        assert "lsbm" in out and "blsm" in out and "hbase" in out

    def test_run_requires_engine(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])

    def test_unknown_engine_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--engine", "nope"])

    #: The namespace every subcommand parses its minimal argv into: the
    #: name, type and default of each option, as recorded before the
    #: option declarations were shared between commands.
    _SERVING = {
        "arrival": "poisson", "queue_bound": 64, "policy": "fifo",
        "trace": "off", "trace_dir": None, "trace_slo": 1.0,
        "trace_stall_spike": 0.25, "trace_dip": 0.7,
        "controller": "off", "control_interval": 30,
        "scale": 2048, "duration": 2000,
    }
    _DEFAULTS = [
        (["engines"], {"command": "engines", "json": False}),
        (["run", "--engine", "lsbm"], {
            "command": "run", "engine": "lsbm", "csv": None, "json": False,
            "profile": False, "profile_out": None, "profile_top": 25,
            "scale": 2048, "duration": 8000, "seed": 1, "scan": False,
            "seeds": None, "jobs": 1,
        }),
        (["compare"], {
            "command": "compare", "engines": "blsm,leveldb,lsbm",
            "json": False, "scale": 2048, "duration": 8000, "seed": 1,
            "scan": False, "seeds": None, "jobs": 1,
        }),
        (["sweep"], {
            "command": "sweep", "engines": "blsm,leveldb,lsbm", "seeds": "0",
            "set": None, "jobs": 1, "scale": 2048, "duration": 8000,
            "scan": False, "name": "sweep", "json": False, "out": None,
            "out_dir": None,
        }),
        (["tune"], {
            "command": "tune", "engines": "design",
            "objective": "hit-stability", "seeds": "0", "set": None,
            "jobs": 1, "scale": 2048, "duration": 8000, "rate": 2000.0,
            "policy": "fifo", "name": "design_space", "json": False,
            "out": None,
        }),
        (["serve"], {
            **_SERVING, "command": "serve", "engines": "leveldb,lsbm",
            "rate": "2000,8000", "seeds": "0", "jobs": 1, "name": "serve",
            "json": False, "out": None,
        }),
        (["trace"], {
            "command": "trace", "engine": None, "out": "trace.jsonl",
            "scale": 2048, "duration": 8000, "seed": 1, "scan": False,
            "trace_command": None,
        }),
        (["trace", "replay", "ops.trace", "--engine", "lsbm"], {
            "command": "trace", "trace_command": "replay",
            "file": "ops.trace", "engine": "lsbm", "scale": 2048,
            "preload": False, "json": False, "out": "trace.jsonl",
            "duration": 8000, "seed": 1, "scan": False,
        }),
        (["cluster"], {
            **_SERVING, "command": "cluster", "engines": "leveldb,lsbm",
            "shards": "2", "partitioner": "hash", "rate": "2000",
            "write_rate": None, "seeds": "0", "jobs": 1, "split_at": None,
            "split_source": 0, "split_target": 1, "split_fraction": 0.5,
            "verify": False, "name": "cluster", "json": False, "out": None,
        }),
        (["top"], {
            **_SERVING, "command": "top", "engine": "lsbm", "shards": 2,
            "partitioner": "hash", "rate": 2000.0, "seed": 0,
            "refresh": 20, "plain": False, "metrics_out": None,
        }),
        (["report"], {
            "command": "report", "engine": None, "from_file": None,
            "sample_every": 32, "dip_threshold": 0.7, "trace_out": None,
            "json": False, "scale": 2048, "duration": 8000, "seed": 1,
            "scan": False,
        }),
        (["check"], {
            "command": "check", "engines": "all", "seed": 0, "ops": 5000,
            "key_space": 2000, "crash": False, "crash_ops": 2500,
        }),
    ]

    @pytest.mark.parametrize(
        "argv, expected",
        _DEFAULTS,
        ids=[" ".join(argv[:2]).replace(" --engine", "")
             for argv, _ in _DEFAULTS],
    )
    def test_defaults_are_pinned(self, argv, expected):
        parsed = vars(build_parser().parse_args(argv))
        del parsed["func"]
        assert parsed == expected
        assert {key: type(value) for key, value in parsed.items()} == {
            key: type(value) for key, value in expected.items()
        }


class TestRunCommand:
    def test_run_prints_summary_and_series(self, capsys):
        code = main(
            [
                "run",
                "--engine",
                "lsbm",
                "--scale",
                "8192",
                "--duration",
                "300",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "hit" in out and "p99 ms" in out
        assert "throughput (QPS)" in out

    def test_run_writes_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "series.csv"
        code = main(
            [
                "run",
                "--engine",
                "blsm",
                "--scale",
                "8192",
                "--duration",
                "200",
                "--csv",
                str(csv_path),
            ]
        )
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("time_s,throughput_qps,hit_ratio")
        assert len(lines) == 201  # Header + one row per virtual second.

    def test_scan_mode(self, capsys):
        code = main(
            [
                "run",
                "--engine",
                "sm",
                "--scale",
                "8192",
                "--duration",
                "200",
                "--scan",
            ]
        )
        assert code == 0


class TestJsonOutput:
    def test_run_json(self, capsys):
        code = main(
            [
                "run",
                "--engine",
                "blsm",
                "--scale",
                "8192",
                "--duration",
                "200",
                "--json",
            ]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["engine"] == "blsm"
        assert summary["duration_s"] == 200
        assert "latency_p99_ms" in summary
        assert isinstance(summary["event_counts"], dict)

    def test_compare_json(self, capsys):
        code = main(
            [
                "compare",
                "--engines",
                "blsm,lsbm",
                "--scale",
                "8192",
                "--duration",
                "200",
                "--json",
            ]
        )
        assert code == 0
        summaries = json.loads(capsys.readouterr().out)
        assert [s["engine"] for s in summaries] == ["blsm", "lsbm"]


class TestTraceCommand:
    def test_trace_writes_reconcilable_jsonl(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        code = main(
            [
                "trace",
                "--engine",
                "lsbm",
                "--scale",
                "8192",
                "--duration",
                "300",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        records = read_jsonl(out)
        assert records, "trace must not be empty"
        end = records[-1]
        assert end["event"] == "TraceEnd"
        created = sum(
            r["size_kb"] for r in records if r["event"] == "FileCreated"
        )
        discarded = sum(
            r["size_kb"] for r in records if r["event"] == "FileDiscarded"
        )
        assert created - discarded == end["live_kb"]
        write_kb = sum(
            r["write_kb"] for r in records if r["event"] == "CompactionEnd"
        )
        assert write_kb == pytest.approx(end["compaction_write_kb"])


class TestReportCommand:
    def test_report_prints_diagnosis_and_bandwidth(self, capsys):
        code = main(
            [
                "report",
                "--engine",
                "leveldb",
                "--scale",
                "8192",
                "--duration",
                "400",
                "--sample-every",
                "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "dip diagnosis" in out
        assert "disk bandwidth by cause" in out
        assert "flush" in out
        assert "read-path spans" in out
        assert "queueing delay vs service time" in out
        assert "service time" in out

    def test_report_json_with_trace(self, tmp_path, capsys):
        trace = tmp_path / "report.jsonl"
        code = main(
            [
                "report",
                "--engine",
                "lsbm",
                "--scale",
                "8192",
                "--duration",
                "400",
                "--sample-every",
                "1",
                "--trace-out",
                str(trace),
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["engine"] == "lsbm"
        spans = payload["span_summary"]
        assert set(spans) == {"count", "mean_stage_s", "mean_total_s"}
        assert spans["count"] > 0
        assert {"cpu", "bloom"} <= set(spans["mean_stage_s"])
        assert "fraction_explained" in payload["dip_diagnosis"]
        assert "flush" in payload["bandwidth_kb_by_cause"]
        queueing = payload["queueing_decomposition"]
        assert queueing["count"] > 0
        assert queueing["mean_queueing_s"] >= 0.0
        assert queueing["mean_service_s"] > 0.0
        assert 0.0 <= queueing["queueing_share"] <= 1.0
        records = read_jsonl(trace)
        assert any(r["event"] == "ReadSpan" for r in records)

    def test_report_rejects_sample_every_zero_in_one_line(self, capsys):
        code = main(["report", "--engine", "lsbm", "--sample-every", "0"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "report: sample_every must be >= 1"
        ]


class TestSeedReplication:
    def test_run_seeds_reports_mean_and_std(self, capsys):
        code = main(
            [
                "run",
                "--engine",
                "lsbm",
                "--scale",
                "8192",
                "--duration",
                "200",
                "--seeds",
                "0,1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mean±std" in out and "±" in out

    def test_run_seeds_json_carries_replicas(self, capsys):
        code = main(
            [
                "run",
                "--engine",
                "blsm",
                "--scale",
                "8192",
                "--duration",
                "200",
                "--seeds",
                "0,1,2",
                "--jobs",
                "2",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["engine"] == "blsm"
        assert payload["seeds"] == [0, 1, 2]
        assert len(payload["replicas"]) == 3
        assert {r["seed"] for r in payload["replicas"]} == {0, 1, 2}
        stats = payload["stats"]["hit_ratio"]
        assert set(stats) == {"mean", "std", "min", "max"}

    def test_run_seeds_rejects_csv(self, capsys):
        code = main(
            [
                "run",
                "--engine",
                "lsbm",
                "--seeds",
                "0,1",
                "--csv",
                "out.csv",
            ]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["run", "--engine", "lsbm", "--seeds", "0,x"],
             "run: invalid literal for int() with base 10: 'x'"),
            (["compare", "--engines", "lsbm", "--seeds", ","],
             "compare: no seeds in ','"),
        ],
    )
    def test_malformed_seeds_exit_2_with_one_line(self, argv, line, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [line]

    def test_compare_seeds_json(self, capsys):
        code = main(
            [
                "compare",
                "--engines",
                "blsm,lsbm",
                "--scale",
                "8192",
                "--duration",
                "200",
                "--seeds",
                "0,1",
                "--json",
            ]
        )
        assert code == 0
        cells = json.loads(capsys.readouterr().out)
        assert [c["engine"] for c in cells] == ["blsm", "lsbm"]
        assert all(len(c["replicas"]) == 2 for c in cells)


class TestSweepCommand:
    def test_sweep_json_payload(self, capsys):
        code = main(
            [
                "sweep",
                "--engines",
                "blsm,lsbm",
                "--seeds",
                "0,1",
                "--scale",
                "8192",
                "--duration",
                "150",
                "--jobs",
                "2",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        from repro.sim.sweep import SWEEP_SCHEMA_VERSION

        assert payload["schema_version"] == SWEEP_SCHEMA_VERSION
        assert len(payload["runs"]) == 4
        assert payload["scalars"]["sweep_jobs"] == 2.0
        assert payload["scalars"]["sweep_runs"] == 4.0
        assert len(payload["sweep"]["cells"]) == 2

    def test_sweep_set_axis_and_out(self, tmp_path, capsys):
        out = tmp_path / "BENCH_axis.json"
        code = main(
            [
                "sweep",
                "--engines",
                "lsbm",
                "--seeds",
                "0",
                "--scale",
                "8192",
                "--duration",
                "150",
                "--set",
                "trim_interval_s=10,30",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        labels = sorted(payload["runs"])
        assert labels == [
            "lsbm/x8192/trim_interval_s=10/t150/s0",
            "lsbm/x8192/trim_interval_s=30/t150/s0",
        ]

    def test_sweep_out_dir_writes_per_run_results(self, tmp_path, capsys):
        out_dir = tmp_path / "runs"
        code = main(
            [
                "sweep",
                "--engines",
                "blsm",
                "--seeds",
                "0",
                "--scale",
                "8192",
                "--duration",
                "150",
                "--name",
                "mini",
                "--out-dir",
                str(out_dir),
            ]
        )
        assert code == 0
        assert (out_dir / "BENCH_mini.json").exists()
        per_run = list(out_dir.glob("blsm_*.json"))
        assert len(per_run) == 1

    def test_sweep_rejects_unknown_set_field(self, capsys):
        code = main(
            ["sweep", "--engines", "lsbm", "--set", "bogus_field=1"]
        )
        assert code == 2
        assert "bogus_field" in capsys.readouterr().err

    def test_sweep_rejects_unknown_engine(self, capsys):
        assert main(["sweep", "--engines", "nope"]) == 2


class TestServeCommand:
    def test_serve_json_payload(self, capsys):
        code = main(
            [
                "serve",
                "--engines",
                "lsbm",
                "--rate",
                "2000",
                "--scale",
                "8192",
                "--duration",
                "150",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["runs"]) == 1
        run = next(iter(payload["runs"].values()))
        assert run["kind"] == "serve"
        assert run["policy"] == "fifo"
        assert run["offered_read_qps"] == 2000.0
        assert run["reconciliation_max_error_s"] == 0.0
        assert "latency_p99_ms" in run["classes"]["readers"]

    def test_serve_table_lists_per_class_rows(self, capsys):
        code = main(
            [
                "serve",
                "--engines",
                "lsbm",
                "--rate",
                "2000",
                "--policy",
                "read-priority",
                "--scale",
                "8192",
                "--duration",
                "150",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "p99 ms" in out and "queue p99 ms" in out
        assert "readers" in out and "writers" in out
        assert "read-priority" in out

    def test_serve_out_writes_valid_bench_payload(self, tmp_path):
        from benchmarks.common import validate_bench

        out = tmp_path / "BENCH_serve.json"
        code = main(
            [
                "serve",
                "--engines",
                "leveldb,lsbm",
                "--rate",
                "2000",
                "--scale",
                "8192",
                "--duration",
                "150",
                "--jobs",
                "2",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        validate_bench(json.loads(out.read_text()))

    def test_serve_rejects_unknown_engine_and_policy(self, capsys):
        assert main(["serve", "--engines", "bogus"]) == 2
        assert main(["serve", "--engines", "lsbm", "--policy", "lifo"]) == 2


class TestCompareCommand:
    def test_compare_two_engines(self, capsys):
        code = main(
            [
                "compare",
                "--engines",
                "blsm,lsbm",
                "--scale",
                "8192",
                "--duration",
                "300",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "blsm" in out and "lsbm" in out

    def test_compare_labels_composed_points_by_registry_name(self, capsys):
        """Both points are ``ComposedTree``s, whose class name is
        ``design``; each row and summary names the engine asked for."""
        common = ["--scale", "8192", "--duration", "100"]
        engines = ["--engines", "tiering,lazy-leveling"]
        assert main(["compare", *engines, *common]) == 0
        rows = [
            line.split()[0]
            for line in capsys.readouterr().out.splitlines()
            if line.split()[:1] in (["tiering"], ["lazy-leveling"], ["design"])
        ]
        assert rows == ["tiering", "lazy-leveling"]
        assert main(["compare", *engines, *common, "--json"]) == 0
        summaries = json.loads(capsys.readouterr().out)
        assert [s["engine"] for s in summaries] == ["tiering", "lazy-leveling"]

    def test_compare_rejects_unknown(self, capsys):
        assert main(["compare", "--engines", "blsm,bogus"]) == 2


class TestTraceReplayCommand:
    def test_replay_round_trips_a_saved_trace(self, tmp_path, capsys):
        from repro.workload.trace import TraceOp, save_trace

        ops = [
            TraceOp("put", 5),
            TraceOp("get", 5),
            TraceOp("del", 5),
            TraceOp("get", 5),
            TraceOp("scan", 0, 10),
            TraceOp("tick"),
        ]
        path = tmp_path / "ops.trace"
        save_trace(ops, path)

        code = main(
            [
                "trace", "replay", str(path),
                "--engine", "lsbm", "--scale", "8192", "--json",
            ]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["engine"] == "lsbm"
        assert summary["ops"] == 6
        assert summary["puts"] == 1
        assert summary["gets"] == 2
        assert summary["found"] == 1  # The read before the delete.
        assert summary["deletes"] == 1
        assert summary["scans"] == 1
        assert summary["ticks"] == 1

    def test_replay_with_preload_finds_preloaded_keys(
        self, tmp_path, capsys
    ):
        path = tmp_path / "ops.trace"
        path.write_text("get 0\nget 1\n")
        code = main(
            [
                "trace", "replay", str(path),
                "--engine", "leveldb", "--scale", "8192",
                "--preload", "--json",
            ]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["found"] == 2

    def test_replay_rejects_malformed_trace(self, tmp_path, capsys):
        path = tmp_path / "bad.trace"
        for bad in ("tick tock", "put abc", "scan 1 x"):
            path.write_text(f"put 1\n{bad}\n")
            assert main(
                ["trace", "replay", str(path), "--engine", "lsbm"]
            ) == 2
            # One line, naming the file and the line of the bad operation.
            assert capsys.readouterr().err == (
                f"trace replay: {path}:2: malformed trace line: {bad!r}\n"
            )

    def test_replay_rejects_missing_file(self, tmp_path):
        assert main(
            [
                "trace", "replay", str(tmp_path / "absent.trace"),
                "--engine", "lsbm",
            ]
        ) == 2

    def test_bare_trace_still_requires_engine(self, capsys):
        assert main(["trace"]) == 2
        assert "--engine" in capsys.readouterr().err


class TestClusterCommand:
    def test_cluster_json_payload_validates(self, capsys):
        from benchmarks.common import validate_bench

        code = main(
            [
                "cluster",
                "--engines", "lsbm",
                "--shards", "2",
                "--partitioner", "hash",
                "--rate", "30000",
                "--scale", "8192",
                "--duration", "200",
                "--jobs", "2",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        validate_bench(payload)
        (run,) = payload["runs"].values()
        assert run["kind"] == "cluster"
        assert run["num_shards"] == 2
        assert set(run["per_shard"]) == {"0", "1"}

    def test_cluster_table_lists_per_shard_rows(self, capsys):
        code = main(
            [
                "cluster",
                "--engines", "lsbm",
                "--shards", "2",
                "--partitioner", "range",
                "--rate", "30000",
                "--scale", "8192",
                "--duration", "200",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "imbalance" in out and "hottest" in out
        assert "shard" in out

    def test_cluster_split_verify_run(self, capsys):
        code = main(
            [
                "cluster",
                "--engines", "lsbm",
                "--shards", "2",
                "--partitioner", "range",
                "--rate", "30000",
                "--scale", "8192",
                "--duration", "400",
                "--split-at", "200",
                "--verify",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        (run,) = payload["runs"].values()
        assert run["migration"]["at_s"] == 200
        assert run["verify"]["read_mismatches"] == 0

    def test_cluster_rejects_bad_inputs(self, capsys):
        assert main(["cluster", "--engines", "bogus"]) == 2
        assert main(
            ["cluster", "--engines", "lsbm", "--partitioner", "modulo"]
        ) == 2
        assert main(
            ["cluster", "--engines", "lsbm", "--policy", "lifo"]
        ) == 2
        # A split on the hash partitioner is a spec-level ConfigError.
        assert main(
            [
                "cluster", "--engines", "lsbm", "--partitioner", "hash",
                "--split-at", "100",
            ]
        ) == 2


class TestTracingFlags:
    def test_serve_trace_writes_validatable_jsonl(self, tmp_path, capsys):
        code = main(
            [
                "serve",
                "--engines", "lsbm",
                "--rate", "30000",
                "--scale", "8192",
                "--duration", "300",
                "--trace", "exemplar",
                "--trace-dir", str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "worst exemplars" in out
        assert "top stage" in out
        files = sorted(tmp_path.glob("*.jsonl"))
        assert any(f.name.startswith("trace_") for f in files)
        for f in files:
            assert read_jsonl(f)

    def test_cluster_trace_payload_carries_trace_digest(self, capsys):
        code = main(
            [
                "cluster",
                "--engines", "lsbm",
                "--shards", "2",
                "--rate", "30000",
                "--scale", "8192",
                "--duration", "300",
                "--trace", "exemplar",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        (run,) = payload["runs"].values()
        assert run["trace"]["mode"] == "exemplar"
        assert run["trace"]["exemplars"] > 0
        assert run["trace"]["worst_exemplars"]

    def test_trace_mode_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["serve", "--trace", "loud"]
            )


class TestTopCommand:
    def test_top_plain_renders_frames_and_summary(self, capsys):
        code = main(
            [
                "top",
                "--engine", "lsbm",
                "--shards", "2",
                "--rate", "30000",
                "--scale", "8192",
                "--duration", "120",
                "--refresh", "60",
                "--plain",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "t=60s" in out and "t=120s" in out
        assert "final" in out
        assert "\x1b[" not in out  # --plain never emits ANSI controls

    def test_top_metrics_out_writes_openmetrics(self, tmp_path, capsys):
        metrics_path = tmp_path / "shards.prom"
        code = main(
            [
                "top",
                "--engine", "lsbm",
                "--shards", "2",
                "--rate", "30000",
                "--scale", "8192",
                "--duration", "60",
                "--refresh", "60",
                "--plain",
                "--metrics-out", str(metrics_path),
            ]
        )
        assert code == 0
        text = metrics_path.read_text()
        assert text.endswith("# EOF\n")
        assert 'shard="0"' in text and 'shard="1"' in text
        assert text.count("# TYPE") == len(
            {
                line.split()[2]
                for line in text.splitlines()
                if line.startswith("# TYPE")
            }
        )

    def test_top_rejects_bad_partitioner(self, capsys):
        assert main(
            ["top", "--engine", "lsbm", "--partitioner", "modulo"]
        ) == 2


class TestReportFromFile:
    def _cluster_payload(self, tmp_path):
        out = tmp_path / "bench.json"
        code = main(
            [
                "cluster",
                "--engines", "lsbm",
                "--shards", "2",
                "--rate", "30000",
                "--scale", "8192",
                "--duration", "300",
                "--trace", "exemplar",
                "--out", str(out),
            ]
        )
        assert code == 0
        return out

    def test_report_from_cluster_bench_payload(self, tmp_path, capsys):
        out = self._cluster_payload(tmp_path)
        capsys.readouterr()
        assert main(["report", "--from", str(out)]) == 0
        text = capsys.readouterr().out
        assert "shards" in text and "imbalance" in text
        assert "shard" in text and "stall s" in text  # per-shard table
        assert "trace: mode=exemplar" in text
        assert "top stage" in text

    def test_report_from_lossless_cluster_result(self, tmp_path, capsys):
        from repro.cluster import ClusterSpec, run_cluster

        spec = ClusterSpec(
            engine="lsbm", num_shards=2, partitioner="hash",
            scale=8192, duration_s=300, read_rate_qps=30_000.0, seed=0,
            trace="exemplar",
        )
        result = run_cluster(spec)
        path = tmp_path / "cluster.json"
        path.write_text(json.dumps(result.to_dict()))
        assert main(["report", "--from", str(path)]) == 0
        text = capsys.readouterr().out
        assert "imbalance" in text
        assert "trace: mode=exemplar" in text

    def test_report_from_lossless_serve_result(self, tmp_path, capsys):
        from repro.serve.service import execute_serve
        from repro.serve.spec import ServiceSpec

        spec = ServiceSpec(
            engine="lsbm", scale=8192, duration_s=300,
            read_rate_qps=30_000.0, seed=0, trace="exemplar",
        )
        result = execute_serve(spec)
        path = tmp_path / "serve.json"
        path.write_text(json.dumps(result.to_dict()))
        assert main(["report", "--from", str(path)]) == 0
        text = capsys.readouterr().out
        assert "serve" in text
        assert "trace: mode=exemplar" in text

    def test_report_from_json_digest(self, tmp_path, capsys):
        out = self._cluster_payload(tmp_path)
        capsys.readouterr()
        assert main(["report", "--from", str(out), "--json"]) == 0
        digest = json.loads(capsys.readouterr().out)
        (run,) = digest["runs"].values()
        assert run["kind"] == "cluster"
        assert run["trace"]["exemplars"] > 0

    def test_report_degrades_gracefully_on_bad_inputs(
        self, tmp_path, capsys
    ):
        assert main(["report", "--from", str(tmp_path / "nope.json")]) == 2
        not_json = tmp_path / "broken.json"
        not_json.write_text("{")
        assert main(["report", "--from", str(not_json)]) == 2
        not_object = tmp_path / "list.json"
        not_object.write_text("[1, 2, 3]")
        assert main(["report", "--from", str(not_object)]) == 2
        # A well-formed object of an unknown shape is not an error: it
        # renders as a digest so foreign or newer payload kinds (e.g.
        # a "kind": "control" decision log) never break re-rendering.
        weird = tmp_path / "weird.json"
        weird.write_text('{"hello": "world"}')
        capsys.readouterr()
        assert main(["report", "--from", str(weird)]) == 0
        assert "unrecognized kind" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "payload, names",
        [
            # Truncated: the one field without a default is gone.
            ({"kind": "serve", "duration_s": 100}, "ServeResult.engine"),
            ({"kind": "serve", "engine": "lsbm",
              "class_stats": {"readers": "not a ledger"}}, "ClassStats"),
            ({"kind": "cluster", "shards": [],
              "spec": {"engine": "lsbm", "num_shards": "two"}},
             "ClusterSpec.num_shards"),
        ],
    )
    def test_malformed_lossless_payload_exits_2_with_one_line(
        self, payload, names, tmp_path, capsys
    ):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(payload))
        assert main(["report", "--from", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"report: cannot load {path}: ")
        assert names in line and "Traceback" not in line

    def test_report_requires_engine_or_from(self, capsys):
        assert main(["report"]) == 2
        err = capsys.readouterr().err
        assert "--engine or --from" in err


class TestEnginesCommand:
    def test_table_lists_design_points(self, capsys):
        assert main(["engines"]) == 0
        out = capsys.readouterr().out
        assert "design point" in out
        assert "leveling/partial (size-ratio, merge)" in out
        assert "lazy-leveling" in out
        assert "from config" in out  # The dynamic `design` engine.

    def test_json_carries_axes(self, capsys):
        assert main(["engines", "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        by_name = {entry["name"]: entry for entry in entries}
        assert by_name["lsbm"]["axes"]["movement"] == "lazy-adoption"
        assert by_name["sm"]["axes"]["layout"] == "tiering"
        assert by_name["design"]["axes"] is None
        assert by_name["hbase"]["axes"]["trigger"] == "level-saturation"
        assert all(
            {"name", "wiring", "summary", "axes"} <= set(entry)
            for entry in entries
        )


class TestTuneCommand:
    _ARGS = [
        "tune",
        "--engines",
        "design",
        "--set",
        "compaction_layout=leveling,tiering",
        "--seeds",
        "0",
        "--scale",
        "8192",
        "--duration",
        "600",
    ]

    def test_tune_prints_ranking_and_winner(self, capsys):
        assert main(self._ARGS) == 0
        out = capsys.readouterr().out
        assert "objective: hit-stability" in out
        assert "winner:" in out
        assert "rank" in out and "hit floor" in out
        assert "advantage" in out

    def test_tune_json_payload_is_bench_schema(self, capsys):
        from benchmarks.common import validate_bench

        assert main(self._ARGS + ["--jobs", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        validate_bench(payload)
        assert payload["name"] == "design_space"
        assert payload["tune"]["objective"] == "hit-stability"
        assert len(payload["tune"]["candidates"]) == 2
        assert payload["tune"]["winner"]["cell"]

    def test_tune_out_writes_payload(self, tmp_path, capsys):
        out = tmp_path / "BENCH_design_space.json"
        assert main(self._ARGS + ["--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["tune"]["winner"]["engine"] == "design"

    def test_tune_rejects_unknown_engine(self, capsys):
        assert main(["tune", "--engines", "nope"]) == 2
        assert "unknown engines" in capsys.readouterr().err

    def test_tune_rejects_bad_axis(self, capsys):
        assert main(["tune", "--set", "not_a_field=1"]) == 2
        assert "not_a_field" in capsys.readouterr().err


class TestErrorBoundary:
    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--engine", "lsbm", "--scale", "0"],
            ["compare", "--scale", "0"],
            ["sweep", "--engines", "lsbm", "--jobs", "0"],
            ["serve", "--engines", "lsbm", "--jobs", "0"],
            ["run", "--engine", "lsbm", "--duration", "-5"],
            ["compare", "--engines", ","],
            ["run", "--engine", "lsbm", "--scale", "8192", "--duration", "10",
             "--csv", "{file}/x.csv"],
            ["trace", "--engine", "lsbm", "--scale", "8192", "--duration",
             "10", "--out", "{file}/t.jsonl"],
            ["trace", "replay", "{wide}", "--engine", "leveldb"],
        ],
        ids=lambda argv: " ".join(argv[:1] + argv[-2:]),
    )
    def test_bad_input_exits_2_without_a_traceback(
        self, argv, tmp_path, capsys
    ):
        # ``{file}`` is a regular file, so nothing can be written under it.
        blocker = tmp_path / "file"
        blocker.write_text("")
        # ``{wide}`` holds a key past 64 bits that a point read takes to
        # a block's Bloom filter once enough puts have flushed it.
        wide = tmp_path / "wide.trace"
        big = 2**64
        lines = [f"put {key}" for key in range(3001)] + [f"put {big}"]
        lines += [f"put {key}" for key in range(10_000, 12_000)]
        wide.write_text("\n".join(lines + [f"get {big}"]) + "\n")
        argv = [arg.format(file=blocker, wide=wide) for arg in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        command = " ".join(argv[:2]) if argv[1] == "replay" else argv[0]
        assert err.splitlines()[-1].startswith(f"{command}: ")

    def test_csv_parent_directories_are_created(self, tmp_path, capsys):
        csv_path = tmp_path / "new" / "dir" / "x.csv"
        assert main(
            [
                "run", "--engine", "lsbm", "--scale", "8192",
                "--duration", "10", "--csv", str(csv_path),
            ]
        ) == 0
        assert len(csv_path.read_text().splitlines()) == 11


class TestOneRunPath:
    @pytest.mark.parametrize("scan", [False, True], ids=["point", "scan"])
    def test_run_and_compare_json_equal_the_library_result(
        self, scan, capsys
    ):
        from repro.config import SystemConfig
        from repro.sim.experiment import run_experiment

        expected = run_experiment(
            "lsbm",
            SystemConfig.paper_scaled(8192),
            duration_s=200,
            seed=3,
            scan_mode=scan,
        ).to_json_dict()
        expected = json.loads(json.dumps(expected))
        common = ["--scale", "8192", "--duration", "200", "--seed", "3"]
        common += ["--scan"] if scan else []
        assert main(["run", "--engine", "lsbm", "--json", *common]) == 0
        assert json.loads(capsys.readouterr().out) == expected
        assert main(["compare", "--engines", "lsbm", "--json", *common]) == 0
        assert json.loads(capsys.readouterr().out) == [expected]
