"""The benchmark's hold on the package, checked without running the benchmark.

``bench/tracing.py`` times the package by swapping each name in its
``PATCHES`` table for a timing wrapper, and ``bench/run.py`` gates greedy at
``budget * (2 * n_dof - budget)`` objective evaluations, counted as calls
of the ``mc_objective`` bound in ``fim``.  A refactor that renames a
patched binding, changes greedy's count, moves an evaluation past the
bindings the tracer counts or drops a report key that ``bench/run.py`` or
``bench/test_harness.py`` reads would otherwise fail only inside a
benchmark run.  ``tracing.py`` and ``run.py`` are loaded by
path, as they are.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from sensoropt import baselines, pipeline, validate_config

ROOT = Path(__file__).resolve().parents[1]


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
sys.modules.setdefault("tracing", tracing)  # run.py imports it by that name
harness = _load("run")


def test_every_patched_binding_resolves():
    missing = [
        f"sensoropt.{module}.{name}"
        for module, name, _span in tracing.PATCHES
        if not callable(getattr(importlib.import_module(f"sensoropt.{module}"), name, None))
    ]
    assert not missing


@pytest.mark.parametrize("budget", [1, 2, 4])
def test_greedy_evaluations_are_the_gated_count(four_dof_fimset, budget):
    tracer = tracing.Tracer()
    with tracer.installed():
        result = baselines.greedy_forward(four_dof_fimset, budget)
    traced = sum(
        1 for name, _parent, _start, _end, completed in tracer.spans
        if completed and name in tracing.EVALUATOR_OBJECTIVES
    )
    expected = budget * (2 * four_dof_fimset.n_dof - budget)
    assert result.n_evaluations == expected
    assert traced == expected


def test_report_has_every_key_the_benchmark_reads(tmp_path):
    config = validate_config({
        "n_dof": 4, "budget": 2, "n_steps": 50, "dt": 0.05, "n_samples": 20, "seed": 1,
        "baselines": ["greedy", "exhaustive", "low", "high", "common"],
    })
    pipeline.write_report(pipeline.run_pipeline(config), tmp_path)
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    cfg, relaxed, placement = report["config"], report["relaxed"], report["placement"]
    assert {"budget", "n_dof", "n_samples", "seed", "baselines"} <= cfg.keys()
    assert relaxed["converged"] is True
    assert isinstance(relaxed["trace"][-1]["newton_decrement"], float)
    counts = [relaxed[key] for key in ("iterations", "objective_evaluations", "gradient_evaluations")]
    assert all(isinstance(count, int) for count in counts)
    assert isinstance(placement["certified_optimal"], bool)
    assert isinstance(placement["ambiguous_stories"], list)
    assert isinstance(placement["objective_evaluations"], int)
    rows = report["comparison"]["rows"]
    assert [row["label"] for row in rows] == ["optimal", "greedy", "exhaustive", "low", "high", "common"]
    for row in rows:
        assert {"label", "stories", "objective_value", "n_evaluations"} <= row.keys()
    # bench/run.py derives the solver's backtracks from these two counts.
    assert relaxed["objective_evaluations"] - relaxed["iterations"] - 1 >= 0


@pytest.mark.parametrize("seed", [7, 15, 18, 23, 38])
def test_closest_fifty_story_seeds_pass_the_placement_gate(seed, tmp_path):
    # Of seeds 1-40 these are where optimal beats greedy by the least: by 0
    # at 7, 18, 23 and 38, where greedy picks the optimal stories, and by
    # 2.4e-4 nats at 15.
    raw = json.loads((ROOT / "bench" / "workloads" / "fifty-story.json").read_text(encoding="utf-8"))
    pipeline.write_report(pipeline.run_pipeline(validate_config({**raw, "seed": seed})), tmp_path)
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert harness.check_report("fifty-story", report) == []


@pytest.mark.parametrize("workload", ["small-building", "fifty-story"])
def test_traced_counters_match_the_report(workload, tmp_path):
    # A traced benchmark placement: every counter the tracer derives from
    # its spans, the threaded stage's per-sample sensitivity calls among
    # them (fifty-story), equals the count the report gives.
    raw = json.loads((ROOT / "bench" / "workloads" / f"{workload}.json").read_text(encoding="utf-8"))
    tracer = tracing.Tracer()
    place_s = harness.place(validate_config({**raw, "seed": 1}), tmp_path, tracer)
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert harness.check_counters(tracer.layer_metrics(place_s), report) == []
