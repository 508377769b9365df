"""The compaction design-space refactor's proof obligations.

Bit-identity — every legacy engine name still producing exactly the
pre-refactor runs — is pinned by the ``engines/`` cells of
``tests/golden.py``.  This module holds the other two layers of
evidence that decomposing the engines into declarative axes (trigger /
layout / granularity / movement) changed *nothing* it wasn't supposed
to and *something* it was:

* **Soundness of the new points** — axis combinations that never
  existed before (the ``design`` engine over arbitrary
  ``compaction_*`` configs) stay oracle-identical and invariant-clean
  on the pinned seed corpus.
* **Distinctness** — the new named points are not aliases: tiering and
  lazy-leveling produce observably different write amplification /
  stall / hit-ratio profiles, and the compaction buffer shifts them.
"""

from __future__ import annotations

import dataclasses

import pytest
from repro.check import DifferentialRunner
from repro.config import SystemConfig
from repro.errors import ConfigError
from repro.lsm.composed import ComposedTree
from repro.lsm.policy import GRANULARITIES, LAYOUTS, STEPPED_MERGE, CompactionAxes
from repro.sim.experiment import ENGINE_SPECS, build_engine, run_experiment
from tests.golden import LEGACY_ENGINES


# ----------------------------------------------------------------------
# 1. Axes: validation, registry annotations, composed points.
# ----------------------------------------------------------------------


def test_axes_reject_unknown_values():
    with pytest.raises(ConfigError):
        CompactionAxes(trigger="vibes")
    with pytest.raises(ConfigError):
        CompactionAxes(layout="pancake")
    with pytest.raises(ConfigError):
        CompactionAxes(granularity="half")
    with pytest.raises(ConfigError):
        CompactionAxes(movement="teleport")


def test_axes_reject_saturation_trigger_on_leveling():
    with pytest.raises(ConfigError):
        CompactionAxes(trigger="level-saturation", layout="leveling")


def test_axes_round_trip_config():
    config = dataclasses.replace(
        SystemConfig.tiny(),
        compaction_trigger="size-ratio",
        compaction_layout="lazy-leveling",
        compaction_granularity="full-level",
        compaction_movement="lazy-adoption",
    )
    axes = CompactionAxes.from_config(config)
    assert axes.to_dict() == {
        "trigger": "size-ratio",
        "layout": "lazy-leveling",
        "granularity": "full-level",
        "movement": "lazy-adoption",
    }
    assert "lazy-leveling" in axes.describe()


def test_every_legacy_spec_is_an_annotated_design_point():
    for name in LEGACY_ENGINES:
        spec = ENGINE_SPECS[name]
        assert spec.axes is not None, f"{name} lost its axes annotation"


def test_composed_specs_build_the_axes_they_declare():
    """A composed row names its axes twice — in its factory and in its
    spec — so the built engine must run the point the registry names."""
    config = SystemConfig.tiny()
    built = {name: build_engine(name, config).engine for name in ENGINE_SPECS}
    composed = [
        name
        for name, engine in built.items()
        if isinstance(engine, ComposedTree) and ENGINE_SPECS[name].axes
    ]
    assert composed == [
        "leveldb",
        "leveldb-oscache",
        "sm",
        "tiering",
        "tiering+buffer",
        "lazy-leveling",
        "lazy-leveling+buffer",
    ]
    for name in composed:
        assert built[name].axes == ENGINE_SPECS[name].axes, name
    assert ENGINE_SPECS["leveldb"].axes == CompactionAxes()
    assert ENGINE_SPECS["lsbm"].axes.movement == "lazy-adoption"


def test_leveldb_point_ignores_config_axes():
    """``leveldb`` and ``sm`` are interpreter points by pinning, not by
    default: a sweep over ``compaction_*`` must never move a baseline."""
    assert ENGINE_SPECS["sm"].axes is STEPPED_MERGE
    for layout in LAYOUTS:
        for granularity in GRANULARITIES:
            config = dataclasses.replace(
                SystemConfig.tiny(),
                compaction_layout=layout,
                compaction_granularity=granularity,
            )
            for name in ("leveldb", "leveldb-oscache"):
                axes = build_engine(name, config).engine.axes
                assert axes == CompactionAxes()
            assert build_engine("sm", config).engine.axes == STEPPED_MERGE
            design = build_engine("design", config).engine.axes
            assert (design.layout, design.granularity) == (layout, granularity)


def test_design_engine_reads_axes_from_config():
    for layout in ("leveling", "tiering", "lazy-leveling"):
        config = dataclasses.replace(
            SystemConfig.tiny(), compaction_layout=layout
        )
        setup = build_engine("design", config)
        assert setup.engine.axes.layout == layout


# ----------------------------------------------------------------------
# 2. New axis combinations are oracle-identical and invariant-clean.
#    (The named points — tiering, lazy-leveling, ±buffer — are already
#    swept by test_differential's ENGINE_NAMES parametrization; this
#    covers *unnamed* corners of the space through the design engine.)
# ----------------------------------------------------------------------

_UNNAMED_COMBOS = (
    # Saturation-triggered tiering with whole-level moves.
    ("level-saturation", "tiering", "full-level", "merge"),
    # Leveled tree compacted a whole level at a time.
    ("size-ratio", "leveling", "full-level", "merge"),
    # Leveling with lazy adoption at full-level granularity.
    ("size-ratio", "leveling", "full-level", "lazy-adoption"),
    # Lazy-leveling with partial moves and a compaction buffer.
    ("size-ratio", "lazy-leveling", "partial", "lazy-adoption"),
    # Saturation-triggered lazy-leveling.
    ("level-saturation", "lazy-leveling", "partial", "merge"),
)


@pytest.mark.parametrize(
    "trigger,layout,granularity,movement",
    _UNNAMED_COMBOS,
    ids=["/".join(combo) for combo in _UNNAMED_COMBOS],
)
def test_unnamed_combo_matches_oracle(
    trigger, layout, granularity, movement, seed_corpus
):
    config = dataclasses.replace(
        SystemConfig.tiny(),
        compaction_trigger=trigger,
        compaction_layout=layout,
        compaction_granularity=granularity,
        compaction_movement=movement,
    )
    diff = seed_corpus["differential"]
    for seed in diff["seeds"]:
        report = DifferentialRunner(
            "design",
            seed=seed,
            ops=diff["ops"],
            key_space=diff["key_space"],
            config=config,
        ).run()
        assert report.ok, report.to_json_dict()
        assert report.oracle_checks > 0


def test_buffered_combo_actually_buffers(seed_corpus):
    """The lazy-adoption axis must adopt files, or its proof is vacuous."""
    config = dataclasses.replace(
        SystemConfig.tiny(),
        compaction_layout="tiering",
        compaction_movement="lazy-adoption",
    )
    diff = seed_corpus["differential"]
    runner = DifferentialRunner(
        "design",
        seed=diff["seeds"][0],
        ops=diff["ops"],
        key_space=diff["key_space"],
        config=config,
    )
    report = runner.run()
    assert report.ok, report.to_json_dict()
    assert runner.setup.engine.buffer.stats.buffer_files_appended > 0


# ----------------------------------------------------------------------
# 3. The new named points are observably distinct designs.
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def profile_results() -> dict:
    """One medium run per new named point (module-cached; ~10 s total)."""
    config = SystemConfig.paper_scaled(2048)
    names = (
        "tiering",
        "tiering+buffer",
        "lazy-leveling",
        "lazy-leveling+buffer",
    )
    return {
        name: run_experiment(name, config, duration_s=12000, seed=0)
        for name in names
    }


def test_tiering_vs_lazy_leveling_distinct(profile_results):
    tiering = profile_results["tiering"]
    lazy = profile_results["lazy-leveling"]
    t_write = tiering.metrics["engine.compaction_write_kb"]
    l_write = lazy.metrics["engine.compaction_write_kb"]
    # Lazy-leveling rewrites its single-run last level; tiering never
    # merges into a sorted run, so its compaction writes are far lower.
    assert l_write > 1.5 * t_write, (t_write, l_write)
    assert lazy.stall_seconds > tiering.stall_seconds
    assert tiering.mean_hit_ratio() > lazy.mean_hit_ratio()


def test_compaction_buffer_lifts_hit_ratio(profile_results):
    """The paper's claim, transplanted onto the new design points."""
    plain = profile_results["lazy-leveling"]
    buffered = profile_results["lazy-leveling+buffer"]
    assert buffered.mean_hit_ratio() > plain.mean_hit_ratio()
    # The buffer must actually hold data during the run, or the hit-ratio
    # comparison proves nothing about lazy adoption.
    assert max(buffered.buffer_size_mb.values) > 0
