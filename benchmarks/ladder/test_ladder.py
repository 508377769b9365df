"""Plumbing test of the ladder; run it as ``pytest benchmarks/ladder``.

Not part of the tier-1 ``testpaths``: it runs the whole five-workload set
in ``--smoke`` size (a few seconds) through the real command line.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.ladder.spec import END_TO_END, PER_LAYER, WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def ladder(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "benchmarks.ladder", *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )


@pytest.fixture(scope="module")
def smoke_set(tmp_path_factory):
    out = tmp_path_factory.mktemp("ladder")
    done = ladder("--smoke", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout, out / "ladder_seed1.json"


def test_benchmark_json_names_are_the_ladders():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)
    end_to_end = {m["name"]: m for m in DECLARED["end_to_end"]}
    per_layer = {m["name"]: m for m in DECLARED["per_layer"]}
    assert 1 <= len(end_to_end) <= 16 and 1 <= len(per_layer) <= 128
    assert len(PER_LAYER) <= 128
    assert end_to_end["setup_s"]["unit"] == "s"
    for name, declared in end_to_end.items():
        assert NAME.fullmatch(name)
        assert declared["unit"] == END_TO_END[name].unit
        assert declared["better"] == END_TO_END[name].better
        assert 0 < declared["bound"] <= 0.25
    for name, declared in per_layer.items():
        assert NAME.fullmatch(name)
        assert declared["unit"] == PER_LAYER[name]
    for name in list(END_TO_END) + list(PER_LAYER) + list(WORKLOADS):
        assert NAME.fullmatch(name)


def test_smoke_set_emits_every_name_and_passes_its_gates(smoke_set):
    printed, path = smoke_set
    payload = json.loads(path.read_text())
    assert payload["gates_ok"]
    assert list(payload["workloads"]) == list(WORKLOADS)
    for key in ("commit", "argv", "seed", "repeats", "python", "uname",
                "cpu_model", "nproc", "host_calib_ops_per_s"):
        assert key in payload
    emitted_layers: set[str] = set()
    for name, entry in payload["workloads"].items():
        assert name in printed
        assert list(entry["end_to_end"]) == list(END_TO_END)
        assert set(entry["per_layer"]) <= set(PER_LAYER)
        assert all(entry["gates"].values()), entry["gates"]
        assert {"traced_digest_matches", "oracle_clean",
                "bandwidth_reconciles", "runs_agree"} <= set(entry["gates"])
        for cell in entry["cells"].values():
            assert cell["config"]["unique_keys"] > 0
        emitted_layers |= set(entry["per_layer"])
    # Every per-layer metric is defined on at least one workload.
    assert emitted_layers == set(PER_LAYER)
    for name in list(END_TO_END) + list(PER_LAYER):
        assert name in printed


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_single_run_prints_the_contract_line(trace, section):
    done = ladder("--workload", "fig10_scan", "--smoke", "--seed", "3",
                  "--seconds", "0", "--trace", str(trace))
    assert done.returncode == 0, done.stdout + done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert list(line["metrics"]) == [m["name"] for m in DECLARED[section]]
    for metric in line["metrics"].values():
        assert set(metric) == {"value", "unit"}


def test_compare_is_clean_against_itself_and_catches_a_change(
    smoke_set, tmp_path
):
    _, path = smoke_set
    same = ladder("compare", str(path), str(path))
    assert same.returncode == 0, same.stdout
    assert "0 breached" in same.stdout
    payload = json.loads(path.read_text())
    payload["workloads"]["fig8_point"]["end_to_end"]["sim_hit_ratio"][
        "value"
    ] += 1e-9
    changed = tmp_path / "changed.json"
    changed.write_text(json.dumps(payload))
    differs = ladder("compare", str(path), str(changed))
    assert differs.returncode == 1
    assert "DIFFERS" in differs.stdout
