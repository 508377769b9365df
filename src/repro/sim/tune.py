"""Search the compaction design space for an SLO.

``repro tune`` treats the declarative axes from
:mod:`repro.lsm.policy` as a *search space* rather than a menu: a
candidate is an engine name plus a set of config overrides (typically
the ``compaction_*`` axis fields on the ``design`` engine), the grid of
candidates × seeds runs through the same process-pool sweep runner as
``repro sweep``, and each candidate is scored against one objective:

* ``p99`` — minimize the mean read p99 latency under open-loop load
  (the grid runs through the serve layer, so queueing and admission are
  part of the score);
* ``hit-stability`` — maximize the *floor* of the buffer-cache hit
  ratio (the 5th percentile of the per-second series, averaged over
  seeds).  The paper's headline claim is exactly this: compaction-
  induced cache invalidation shows up as hit-ratio *dips*, so a high
  floor means the design keeps caching effective through compactions.

Determinism: the sweep runner makes every cell a pure function of its
spec, candidates are ranked by ``(score, cell key)``, and the tie-break
key is total — the winner cannot depend on ``--jobs`` or scheduling
order.  The explanation layer reuses the diagnose module's dip
semantics (:func:`~repro.obs.diagnose.find_dips` crossings) plus the
per-cause bandwidth ledger to say *why* the winner wins, not just that
it does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import ConfigError
from repro.sim.metrics import RunResult, TimeSeries
from repro.sim.sweep import (
    SUMMARY_METRICS,
    SpecOutcome,
    SweepOutcome,
    _aggregate,
    expand_grid,
    run_sweep,
)

#: Objective name -> (direction, description).  ``min`` objectives score
#: "lower is better"; ``max`` objectives the opposite.
OBJECTIVES = {
    "p99": ("min", "mean read p99 latency (ms) under open-loop load"),
    "hit-stability": (
        "max",
        "5th-percentile hit-ratio floor, averaged over seeds",
    ),
}

#: Hit-ratio threshold whose downward crossings count as "dips" in the
#: explanation (same default as ``repro diagnose``).
DIP_THRESHOLD = 0.7

#: The percentile defining the hit-ratio *floor* for ``hit-stability``.
FLOOR_PERCENTILE = 5.0


def series_floor(
    series: TimeSeries, percentile: float = FLOOR_PERCENTILE, skip: int = 0
) -> float:
    """The ``percentile``-th percentile of the series' sampled values.

    Nearest-rank on the sorted post-warm-up window; 0.0 for an empty
    window (a run too short to sample scores as maximally unstable,
    which is the conservative direction for a stability objective).
    """
    window = sorted(series.values[skip:])
    if not window:
        return 0.0
    rank = min(len(window) - 1, int(len(window) * percentile / 100.0))
    return window[rank]


def _compaction_write_kb(result: RunResult) -> float:
    """Background compaction write traffic from the per-cause ledger."""
    return sum(
        totals.get("write_kb", 0.0)
        for cause, totals in result.bandwidth_kb_by_cause.items()
        if cause.startswith("compaction")
    )


def _hit_floor(result: RunResult) -> float:
    return series_floor(result.hit_ratio, skip=result.warmup_samples())


def _hit_dips(result: RunResult) -> float:
    return float(
        result.hit_ratio.dips_below(
            DIP_THRESHOLD, skip=result.warmup_samples()
        )
    )


#: Per-candidate evidence columns the explanation compares, beyond the
#: standard cell summary metrics: name -> extractor over one result.
EVIDENCE_METRICS = {
    "hit_floor": _hit_floor,
    "hit_dips": _hit_dips,
    "stall_seconds": lambda result: result.stall_seconds,
    "compaction_write_kb": _compaction_write_kb,
}


@dataclass
class CandidateScore:
    """One design-space candidate, scored and ranked."""

    key: str
    engine: str
    overrides: dict[str, object]
    seeds: list[int]
    score: float
    #: Standard cell stats (mean/std/min/max per SUMMARY_METRICS name).
    stats: dict[str, dict[str, float]]
    #: Explanation evidence (mean over seeds per EVIDENCE_METRICS name).
    evidence: dict[str, float] = field(default_factory=dict)

    def to_json_dict(self) -> dict[str, object]:
        return {
            "cell": self.key,
            "engine": self.engine,
            "overrides": dict(self.overrides),
            "seeds": list(self.seeds),
            "score": self.score,
            "stats": {name: dict(vals) for name, vals in self.stats.items()},
            "evidence": dict(self.evidence),
        }


@dataclass
class TuneOutcome:
    """A completed design-space search: ranked candidates + the sweep."""

    objective: str
    sweep: SweepOutcome
    #: Ranked best-first; ties broken by cell key (total order).
    candidates: list[CandidateScore]

    @property
    def winner(self) -> CandidateScore:
        return self.candidates[0]

    @property
    def runner_up(self) -> CandidateScore | None:
        return self.candidates[1] if len(self.candidates) > 1 else None

    def explanation(self) -> dict[str, object]:
        """Why the winner wins: evidence deltas against the runner-up.

        Each entry compares one evidence metric; ``advantage`` is signed
        so that positive always means "the winner is better on this
        axis" (hit_floor up is good, the rest down is good).
        """
        winner = self.winner
        runner = self.runner_up
        if runner is None:
            return {
                "summary": f"{winner.engine} is the only candidate",
                "deltas": {},
            }
        better_up = {"hit_floor"}
        deltas: dict[str, dict[str, float]] = {}
        for name in EVIDENCE_METRICS:
            w = winner.evidence.get(name, 0.0)
            r = runner.evidence.get(name, 0.0)
            advantage = (w - r) if name in better_up else (r - w)
            deltas[name] = {"winner": w, "runner_up": r,
                            "advantage": advantage}
        direction, _ = OBJECTIVES[self.objective]
        margin = (
            runner.score - winner.score
            if direction == "min"
            else winner.score - runner.score
        )
        strongest = max(deltas, key=lambda name: deltas[name]["advantage"])
        return {
            "summary": (
                f"{winner.key} beats {runner.key} on {self.objective} "
                f"by {margin:.4g}; largest evidence advantage: {strongest}"
            ),
            "margin": margin,
            "strongest_evidence": strongest,
            "deltas": deltas,
        }

    def to_payload(self, name: str = "design_space") -> dict:
        """Bench-schema payload: the sweep payload plus a ``tune`` section."""
        payload = self.sweep.to_payload(name)
        direction, description = OBJECTIVES[self.objective]
        payload["tune"] = {
            "objective": self.objective,
            "direction": direction,
            "description": description,
            "candidates": [c.to_json_dict() for c in self.candidates],
            "winner": self.winner.to_json_dict(),
            "explanation": self.explanation(),
        }
        payload["scalars"]["tune_candidates"] = float(len(self.candidates))
        payload["scalars"]["tune_winner_score"] = self.winner.score
        return payload


def _score_cell(objective: str, members: list[SpecOutcome]) -> float:
    if objective == "p99":
        values = [
            member.result.latency_percentile_s(99) * 1000.0
            for member in members
        ]
    else:  # hit-stability
        values = [_hit_floor(member.result) for member in members]
    return sum(values) / len(values)


def rank_candidates(
    objective: str, sweep: SweepOutcome
) -> list[CandidateScore]:
    """Group sweep outcomes into cells, score and rank them."""
    groups: dict[str, list[SpecOutcome]] = {}
    for outcome in sweep.outcomes:
        groups.setdefault(outcome.spec.cell_key(), []).append(outcome)
    candidates = []
    for key, members in groups.items():
        stats = {
            name: _aggregate([extract(member.result) for member in members])
            for name, extract in SUMMARY_METRICS.items()
        }
        evidence = {
            name: _aggregate(
                [extract(member.result) for member in members]
            )["mean"]
            for name, extract in EVIDENCE_METRICS.items()
        }
        candidates.append(
            CandidateScore(
                key=key,
                engine=members[0].spec.engine,
                overrides=dict(members[0].spec.overrides),
                seeds=[member.spec.seed for member in members],
                score=_score_cell(objective, members),
                stats=stats,
                evidence=evidence,
            )
        )
    direction, _ = OBJECTIVES[objective]
    sign = 1.0 if direction == "min" else -1.0
    candidates.sort(key=lambda c: (sign * c.score, c.key))
    return candidates


def run_tune(
    engines: Sequence[str],
    seeds: Sequence[int] = (0,),
    objective: str = "hit-stability",
    *,
    axes: dict[str, Sequence[object]] | None = None,
    base: str = "paper_scaled",
    scale: int = 2048,
    duration_s: int | None = None,
    jobs: int = 1,
    rate_qps: float = 2000.0,
    policy: str = "fifo",
    queue_bound: int = 64,
) -> TuneOutcome:
    """Run the candidate grid and rank it against ``objective``.

    Candidates are the cartesian product ``engines × axes`` (each axis
    maps a :class:`~repro.config.SystemConfig` field to its candidate
    values), replicated over ``seeds``.  ``p99`` routes the grid through
    the open-loop serve layer at ``rate_qps``; ``hit-stability`` uses
    the closed-loop driver.
    """
    if objective not in OBJECTIVES:
        raise ConfigError(
            f"unknown objective {objective!r}; "
            f"choose from {sorted(OBJECTIVES)}"
        )
    fields: dict = dict(base=base, scale=scale, duration_s=duration_s)
    if objective == "p99":
        from repro.serve.spec import ServiceSpec

        fields.update(
            spec_class=ServiceSpec,
            policy=policy,
            read_rate_qps=rate_qps,
            queue_bound=queue_bound,
        )
    specs = expand_grid(engines, seeds, axes=axes, **fields)
    sweep = run_sweep(specs, jobs=jobs)
    return TuneOutcome(
        objective=objective,
        sweep=sweep,
        candidates=rank_candidates(objective, sweep),
    )
