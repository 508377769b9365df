"""Which functions of ``src/repro`` does the smoke traffic reach?

Run from the repository root::

    python -m benchmarks.reachability            # every command below
    python -m benchmarks.reachability --out FILE

Each traffic command runs in a subprocess whose ``PYTHONPATH`` starts
with a temporary directory holding a ``sitecustomize`` module.  The
interpreter imports it at start-up; it installs a ``sys.setprofile``
hook (and ``threading.setprofile`` for later threads) that collects
every code object entered and, at exit, writes the ones under
``src/repro`` to a per-process file.  Subprocesses the command starts
inherit the environment and record too.  The traffic is:

* the CI workflow's smoke commands (``repro.cli check``, ``sweep``,
  ``tune``, ``serve``, ``report``, ``cluster``) at ``--jobs 1``, because
  pool workers leave through ``os._exit``, which skips the exit hook and
  drops their record;
* one read of every JSONL file those commands wrote through
  ``repro.obs.trace.read_jsonl``, as the CI workflow's trace checks do;
* ``python -m benchmarks.ladder --smoke``;
* every ``examples/*.py``.

The ``def`` statements of ``src/repro`` are then found by walking each
module's AST, and a ``def`` counts as reached when a recorded code
object has its file, first line and name (a decorated function's code
starts at its first decorator).  The result, one entry per ``def`` with
its file, line, length in lines and whether it was reached, plus totals,
is written to ``BENCH_reachability.json`` at the repository root.
Outputs the commands would write (``--out``, trace directories) go to
the temporary directory.  Nothing but the standard library is used.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
PACKAGE = SRC / "repro"

#: Installed as ``sitecustomize`` in each traced interpreter.
HOOK = '''\
import atexit
import json
import os
import sys
import threading

_package = os.environ["REPRO_REACH_PACKAGE"] + os.sep
_codes = set()


def _record(frame, event, arg):
    if event == "call":
        _codes.add(frame.f_code)


def _dump():
    sys.setprofile(None)
    rows = sorted(
        {
            (code.co_filename, code.co_firstlineno, code.co_name)
            for code in _codes
            if code.co_filename.startswith(_package)
        }
    )
    path = os.path.join(os.environ["REPRO_REACH_OUT"], f"{os.getpid()}.json")
    with open(path, "w") as handle:
        json.dump(rows, handle)


atexit.register(_dump)
threading.setprofile(_record)
sys.setprofile(_record)
'''

#: Reads (and so validates) every JSONL file under ``argv[1]``.
READ_TRACES = """\
import sys
from pathlib import Path
from repro.obs.trace import read_jsonl
paths = sorted(Path(sys.argv[1]).rglob("*.jsonl"))
assert paths, "the traced commands wrote no JSONL"
for path in paths:
    read_jsonl(path)
"""


def commands(out: Path) -> list[tuple[str, list[str]]]:
    """The traffic: ``(label, argv)`` pairs, writing only under ``out``."""
    cli = [sys.executable, "-m", "repro.cli"]
    traces = str(out / "traces")
    runs = [
        ("check", cli + ["check", "--engines", "all", "--seed", "0",
                         "--ops", "20000"]),
        ("check-crash", cli + ["check", "--engines", "all", "--seed", "0",
                               "--ops", "2500", "--key-space", "400",
                               "--crash"]),
        ("sweep-fig08", cli + ["sweep", "--engines",
                               "blsm,leveldb,blsm+warmup,lsbm",
                               "--duration", "4000", "--jobs", "1",
                               "--name", "fig08_sweep",
                               "--out", str(out / "fig08.json")]),
        ("sweep-fig10", cli + ["sweep", "--engines", "blsm,blsm+kvcache,sm,lsbm",
                               "--scan", "--duration", "4000", "--jobs", "1",
                               "--name", "fig10_sweep",
                               "--out", str(out / "fig10.json")]),
        ("tune", cli + ["tune", "--engines", "design",
                        "--set", "compaction_layout=leveling,tiering",
                        "--seeds", "0,1", "--duration", "8000", "--jobs", "1",
                        "--name", "design_space",
                        "--out", str(out / "design_space.json")]),
        ("serve", cli + ["serve", "--engines", "leveldb,lsbm",
                         "--rate", "2000,8000", "--policy", "fifo",
                         "--duration", "2000", "--jobs", "1",
                         "--name", "serve_smoke", "--trace", "exemplar",
                         "--trace-dir", traces,
                         "--out", str(out / "serve.json")]),
        ("report", cli + ["report", "--engine", "lsbm", "--scale", "8192",
                          "--duration", "400", "--sample-every", "8",
                          "--trace-out", str(out / "report_lsbm.jsonl")]),
        ("serve-adapt", cli + ["serve", "--engines", "leveldb,lsbm",
                               "--rate", "6000", "--arrival", "diurnal",
                               "--controller", "rules",
                               "--control-interval", "20",
                               "--duration", "1200", "--jobs", "1",
                               "--name", "adapt_smoke",
                               "--out", str(out / "adapt.json")]),
        ("cluster", cli + ["cluster", "--engines", "leveldb,lsbm",
                           "--shards", "3", "--partitioner", "range",
                           "--rate", "6000", "--duration", "1200",
                           "--jobs", "1", "--name", "cluster_smoke",
                           "--out", str(out / "cluster.json")]),
        ("cluster-split", cli + ["cluster", "--engines", "lsbm",
                                 "--shards", "2", "--partitioner", "range",
                                 "--rate", "6000", "--write-rate", "2000",
                                 "--duration", "1200", "--split-at", "600",
                                 "--verify", "--name", "cluster_split",
                                 "--trace", "exemplar", "--trace-dir", traces,
                                 "--out", str(out / "cluster_split.json")]),
        ("read-traces", [sys.executable, "-c", READ_TRACES, str(out)]),
        ("ladder-smoke", [sys.executable, "-m", "benchmarks.ladder", "--smoke",
                          "--out", str(out / "ladder")]),
    ]
    for example in sorted((REPO_ROOT / "examples").glob("*.py")):
        runs.append((f"example-{example.stem}",
                     [sys.executable, str(example.relative_to(REPO_ROOT))]))
    return runs


def _qualified_defs(tree: ast.Module):
    """``(qualname, name, first_line, def_line, end_line)`` of every
    ``def``, nested ones included; ``first_line`` is the first decorator's."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min(
                    [child.lineno] + [d.lineno for d in child.decorator_list]
                )
                name = f"{prefix}{child.name}"
                yield name, child.name, first, child.lineno, child.end_lineno
                yield from walk(child, f"{name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.")
            else:
                yield from walk(child, prefix)

    return walk(tree, "")


def reachability(records: set[tuple[str, int, str]]) -> dict:
    """The per-``def`` verdicts and totals for ``records``."""
    defs = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for qualname, name, first, line, end in _qualified_defs(tree):
            defs.append(
                {
                    "file": str(path.relative_to(REPO_ROOT)),
                    "name": qualname,
                    "line": line,
                    "length": end - first + 1,
                    "reached": (str(path), first, name) in records,
                }
            )
    unreached = [entry for entry in defs if not entry["reached"]]
    return {
        "totals": {
            "defs": len(defs),
            "reached": len(defs) - len(unreached),
            "unreached": len(unreached),
            "def_lines": sum(entry["length"] for entry in defs),
            "unreached_lines": sum(entry["length"] for entry in unreached),
        },
        "defs": defs,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path,
                        default=REPO_ROOT / "BENCH_reachability.json")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="reachability-") as scratch:
        scratch_path = Path(scratch)
        hook_dir = scratch_path / "hook"
        record_dir = scratch_path / "records"
        hook_dir.mkdir()
        record_dir.mkdir()
        (hook_dir / "sitecustomize.py").write_text(HOOK)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(hook_dir), str(SRC)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        env["REPRO_REACH_PACKAGE"] = str(PACKAGE)
        env["REPRO_REACH_OUT"] = str(record_dir)
        ran = []
        for label, command in commands(scratch_path):
            start = time.perf_counter()
            done = subprocess.run(
                command, cwd=REPO_ROOT, env=env,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            )
            seconds = time.perf_counter() - start
            print(f"{label}: exit {done.returncode} in {seconds:.0f} s",
                  file=sys.stderr)
            if done.returncode != 0:
                print(done.stderr[-2000:], file=sys.stderr)
                return 1
            shown = [arg.replace(scratch, "<tmp>") for arg in command[1:]]
            ran.append({"label": label, "argv": shown})
        records: set[tuple[str, int, str]] = set()
        for path in record_dir.glob("*.json"):
            records.update(tuple(row) for row in json.loads(path.read_text()))
    payload = reachability(records)
    payload["commands"] = ran
    args.out.write_text(json.dumps(payload, indent=1) + "\n")
    totals = payload["totals"]
    print(f"{totals['unreached']} of {totals['defs']} defs unreached "
          f"({totals['unreached_lines']} of {totals['def_lines']} lines); "
          f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
