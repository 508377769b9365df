"""Golden-digest harness for serve/cluster bit-identity across refactors.

The serve-path speed work (per-class ledger look-ups, per-tick stall
sums, generate-once cluster arrivals) is only admissible because every
serve and coordinated-cluster run keeps producing *exactly* what it
produced before: the same lossless ``to_dict()`` payload and the same
ordered event stream.  ``tests/golden_serve_digests.json`` pins SHA-256
digests of both, recorded from the tree *before* that work;
``test_serve_golden.py`` replays the same runs and compares digests.

Regenerate (only when a change is *supposed* to alter serve behaviour,
and say so in the commit message)::

    PYTHONPATH=src:tests python -m golden_serve

The recipe mirrors ``golden_engines``: ``paper_scaled(2048)``, a live
event subscriber on every engine bus (which disables the bus's
counting-only fast path, so the digest also pins full event *ordering*),
seeds from ``tests/seeds.json``.  Cluster cells subscribe one collector
to every shard's bus, so the digest also pins how lockstep stepping
interleaves the shards.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.cluster.run import run_coordinated
from repro.cluster.spec import ClusterSpec
from repro.serve.arrivals import ClientClass
from repro.serve.service import finalize_serve, prepare_serve
from repro.serve.spec import ServiceSpec

GOLDEN_PATH = Path(__file__).parent / "golden_serve_digests.json"

_SEED_CORPUS = json.loads((Path(__file__).parent / "seeds.json").read_text())
SEEDS = _SEED_CORPUS["differential"]["seeds"]

SCALE = 2048
DURATION_S = 1500

#: About 1.5x the closed-loop capacity at this scale: the queue fills,
#: writes defer, retry, and shed — every branch of ``_offer`` runs.
SATURATING_QPS = 8000.0

_SERVE = dict(
    engine="lsbm", scale=SCALE, duration_s=DURATION_S,
    read_rate_qps=SATURATING_QPS,
)
_CLUSTER = dict(_SERVE, partitioner="range")

#: Cell name -> seed-free spec; every cell runs every pinned seed
#: (about 0.5 s each, 27 runs: inside the 30 s tier-1 budget).
CELLS: dict[str, ServiceSpec | ClusterSpec] = {
    "serve/fifo": ServiceSpec(policy="fifo", **_SERVE),
    "serve/read-priority": ServiceSpec(policy="read-priority", **_SERVE),
    "serve/weighted-fair": ServiceSpec(policy="weighted-fair", **_SERVE),
    "serve/bursty": ServiceSpec(arrival="bursty", **_SERVE),
    "serve/scan-class": ServiceSpec(
        classes=(
            ClientClass(name="readers", op="read", rate_qps=4000.0, weight=3),
            ClientClass(name="scanners", op="scan", rate_qps=400.0),
            ClientClass(name="writers", op="write", rate_qps=1000.0),
        ),
        **_SERVE,
    ),
    "serve/trace-exemplar": ServiceSpec(trace="exemplar", **_SERVE),
    "serve/controller-rules": ServiceSpec(controller="rules", **_SERVE),
    "cluster/range4-verify": ClusterSpec(
        num_shards=4, verify=True, **_CLUSTER
    ),
    "cluster/range2-split": ClusterSpec(
        num_shards=2, split_at_s=DURATION_S // 2, write_rate_qps=2000.0,
        **_CLUSTER,
    ),
}


def run_cell(name: str, seed: int):
    """Run one cell under a live subscriber: ``(result, ordered events)``."""
    spec = CELLS[name].replace(seed=seed)
    events: list[str] = []
    if isinstance(spec, ClusterSpec):
        result = run_coordinated(
            spec,
            attach=lambda session, shard: session.setup.engine.bus.subscribe_all(
                lambda event: events.append(f"{shard}:{event!r}")
            ),
        )
        return result, events
    session = prepare_serve(spec)
    session.setup.engine.bus.subscribe_all(
        lambda event: events.append(repr(event))
    )
    result = finalize_serve(session, session.simulator.run(session.duration_s))
    return result, events


def run_digests(name: str, seed: int) -> dict[str, str]:
    """Digest one cell: lossless result dict + ordered events."""
    result, events = run_cell(name, seed)
    result_json = json.dumps(result.to_dict(), sort_keys=True)
    return {
        "result": hashlib.sha256(result_json.encode()).hexdigest(),
        "events": hashlib.sha256("\n".join(events).encode()).hexdigest(),
    }


def generate() -> dict:
    digests = {
        name: {str(seed): run_digests(name, seed) for seed in SEEDS}
        for name in CELLS
    }
    return {
        "description": (
            "SHA-256 digests of lossless ServeResult/ClusterResult "
            "to_dict JSON and the ordered event stream per serve/cluster "
            "cell x seed, recorded before the serve-path speed work.  "
            "Regenerate with `PYTHONPATH=src:tests python -m golden_serve`."
        ),
        "duration_s": DURATION_S,
        "scale": SCALE,
        "digests": digests,
    }


if __name__ == "__main__":
    payload = generate()
    GOLDEN_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
