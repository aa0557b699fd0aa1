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

import numpy as np
import pytest

from sensoropt import baselines, fim, pipeline, validate_config

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


def _placement_gate(workload, seed, out_dir):
    raw = json.loads((ROOT / "bench" / "workloads" / f"{workload}.json").read_text(encoding="utf-8"))
    pipeline.write_report(pipeline.run_pipeline(validate_config({**raw, "seed": seed})), out_dir)
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    return harness.check_report(workload, report)


@pytest.mark.parametrize("seed", [7, 15, 18, 23, 38])
def test_closest_fifty_story_seeds_pass_the_placement_gate(seed, tmp_path):
    # Of seeds 1-40 these are where optimal beats greedy by the least: by 0
    # at 7, 18, 23 and 38, where greedy picks the optimal stories, and by
    # 2.4e-4 nats at 15.
    assert _placement_gate("fifty-story", seed, tmp_path) == []


def test_paper_size_report_matches_its_reference(tmp_path):
    # The gate compares this report with runs/fifty-story/report.json: the
    # same keys, the same stories and counts, floats to 1e-9.  A field
    # added to a record the report writes adds a key and fails here.
    assert _placement_gate("fifty-story-paper", 1, tmp_path) == []


@pytest.mark.parametrize("workload", ["small-building", "fifty-story"])
def test_traced_counters_match_the_report(workload, tmp_path):
    # A traced benchmark placement: every counter the tracer derives from
    # its spans, the threaded stage's per-sample sensitivity calls among
    # them (fifty-story), equals the count the report gives.
    raw = json.loads((ROOT / "bench" / "workloads" / f"{workload}.json").read_text(encoding="utf-8"))
    tracer = tracing.Tracer()
    place_s = harness.place(validate_config({**raw, "seed": 1}), tmp_path, tracer)
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    layers = tracer.layer_metrics(place_s)
    assert harness.check_counters(layers, report) == []
    # The full-support check runs once, in the pipeline's preflight stage.
    assert [span[0] for span in tracer.spans].count("fim.preflight_check") == 1
    # The comparison scores each row once.
    assert layers["fim.objective_calls.compare"] == len(report["comparison"]["rows"])


def test_traced_backtracks_count_a_rejected_trial(monkeypatch, tmp_path):
    # A NaN gradient at the fourth derivative evaluation rejects one trial
    # point.  Each trial point is one objective evaluation, so the count the
    # benchmark derives from them is the true number of backtracks.
    calls = []
    gradient_hessian = fim.CountingEvaluator.gradient_hessian

    def rejected_once(self, z):
        value, grad, hess = gradient_hessian(self, z)
        calls.append(z)
        return value, (np.full_like(grad, np.nan) if len(calls) == 4 else grad), hess

    monkeypatch.setattr(fim.CountingEvaluator, "gradient_hessian", rejected_once)
    raw = json.loads((ROOT / "bench" / "workloads" / "small-building.json").read_text(encoding="utf-8"))
    tracer = tracing.Tracer()
    place_s = harness.place(validate_config({**raw, "seed": 1}), tmp_path, tracer)
    relaxed = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))["relaxed"]
    layers = tracer.layer_metrics(place_s)
    assert layers["solver.backtracks"] == 1
    assert relaxed["gradient_evaluations"] - relaxed["iterations"] - 1 == 1
    assert layers["solver.objective_evals"] == layers["fim.gradient_hessian_calls"] == len(calls)
