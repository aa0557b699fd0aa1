"""The benchmark's hold on the package, checked without running the benchmark.

``bench/tracing.py`` times the package by swapping each name in its
``PATCHES`` table for a timing wrapper, and ``bench/run.py`` gates greedy at
``budget * (2 * n_dof - budget)`` objective evaluations, counted as calls
of the ``mc_objective`` bound in ``fim``.  A refactor that renames a
patched binding or changes greedy's count would otherwise fail only inside
a traced benchmark run.  ``tracing.py`` is loaded by path, as it is.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from sensoropt import baselines

ROOT = Path(__file__).resolve().parents[1]


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


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
