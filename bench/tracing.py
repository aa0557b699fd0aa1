"""In-memory spans around the calls between sensoropt's layers.

The program is not edited.  While a ``Tracer`` is installed, the names
each module imported from the layer below (``pipeline.solve_relaxed``,
``fim.response_sensitivities``, the ``mc_objective`` bound in ``fim``,
``solver`` and ``baselines``, ...) are replaced by timing wrappers, and
restored afterwards.  Spans are kept in a list and turned into per-layer
metrics once the traced placement has finished.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module of sensoropt, name bound in it, span name).  ``fim.mc_objective``
# is wrapped once per binding site: the ``[fim]`` binding is the one
# ``CountingEvaluator`` calls, so its completed calls are the evaluation
# counts the program reports for the solver and for greedy.
PATCHES = (
    ("pipeline", "build_uniform_shear_model", "building.build_uniform_shear_model"),
    ("pipeline", "sample_prior", "priors.sample_prior"),
    ("pipeline", "compute_elementary_set", "fim.compute_elementary_set"),
    ("pipeline", "preflight_check", "fim.preflight_check"),
    ("pipeline", "solve_relaxed", "solver.solve_relaxed"),
    ("pipeline", "certify_or_repair", "solver.certify_or_repair"),
    ("pipeline", "greedy_forward", "baselines.greedy_forward"),
    ("pipeline", "exhaustive", "baselines.exhaustive"),
    ("pipeline", "fixed_configs", "baselines.fixed_configs"),
    ("pipeline", "compare", "baselines.compare"),
    ("fim", "response_sensitivities", "building.response_sensitivities"),
    ("fim", "mc_objective", "fim.mc_objective[fim]"),
    ("fim", "mc_objective_regularized", "fim.mc_objective_regularized[fim]"),
    ("fim", "mc_gradient_hessian", "fim.mc_gradient_hessian"),
    ("solver", "preflight_check", "fim.preflight_check"),
    ("solver", "mc_objective", "fim.mc_objective[solver]"),
    ("baselines", "mc_objective", "fim.mc_objective[baselines]"),
)

# Span that makes an objective evaluation, by the caller it is booked to.
CALLERS = {
    "solver.solve_relaxed": "solve",
    "solver.certify_or_repair": "certify",
    "baselines.greedy_forward": "greedy",
    "baselines.compare": "compare",
    "baselines.exhaustive": "exhaustive",
}
EVALUATOR_OBJECTIVES = ("fim.mc_objective[fim]", "fim.mc_objective_regularized[fim]")
ROOT_SPAN = "pipeline.run_pipeline"


class Tracer:
    """Spans ``(name, parent index, start, end, completed)`` and step counts."""

    def __init__(self):
        self.spans: list[tuple[str, int | None, float, float, bool]] = []
        self.newton_steps = 0
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            index = len(self.spans)
            self.spans.append((name, parent, 0.0, 0.0, False))
            self._open.append(index)
            completed = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                completed = True
                return result
            finally:
                end = time.perf_counter()
                self._open.pop()
                self.spans[index] = (name, parent, start, end, completed)

        return traced

    def _count_steps(self, solve_relaxed):
        """``solve_relaxed`` with a callback counting accepted Newton steps."""

        @functools.wraps(solve_relaxed)
        def counted(*args, callback=None, **kwargs):
            def on_step(z):
                self.newton_steps += 1
                if callback is not None:
                    callback(z)

            return solve_relaxed(*args, callback=on_step, **kwargs)

        return counted

    @contextmanager
    def installed(self):
        """Swap the wrappers into sensoropt's modules; restore them on exit."""
        saved = []
        try:
            for module_name, attr, span in PATCHES:
                module = importlib.import_module(f"sensoropt.{module_name}")
                original = getattr(module, attr)
                saved.append((module, attr, original))
                if span == "solver.solve_relaxed":
                    original = self._count_steps(original)
                setattr(module, attr, self.wrap(span, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def layer_metrics(self, place_s: float) -> dict[str, float]:
        """Per-layer times (s), counts and ratios from the recorded spans.

        ``place_s`` is the traced placement time measured around the root
        spans; ``trace.coverage_pct`` is the share of it covered by the
        self time of every span except the pipeline's own glue.
        """
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start

        total = defaultdict(float)
        self_time = defaultdict(float)
        calls = Counter()
        completed_under = Counter()
        objective_s = defaultdict(float)
        objective_calls = Counter()
        for index, (name, parent, start, end, completed) in enumerate(self.spans):
            total[name] += end - start
            self_time[name] += end - start - child_time[index]
            calls[name] += 1
            if not name.startswith("fim.mc_objective"):
                continue
            caller = self._caller(parent)
            objective_s[caller] += end - start
            objective_calls[caller] += 1
            if completed:
                completed_under[name, caller] += 1

        def completed(names, caller):
            return sum(completed_under[name, caller] for name in names)

        n_sens = calls["building.response_sensitivities"]
        n_gh = calls["fim.mc_gradient_hessian"]
        solver_evals = completed(EVALUATOR_OBJECTIVES, "solve")
        metrics = {
            "building.sensitivities_s": total["building.response_sensitivities"],
            "building.sensitivities_calls": n_sens,
            "building.sensitivities_ms_per_sample": (
                1e3 * total["building.response_sensitivities"] / n_sens if n_sens else 0.0
            ),
            "fim.elementary_s": total["fim.compute_elementary_set"],
            "fim.outer_product_s": self_time["fim.compute_elementary_set"],
            "fim.gradient_hessian_s": total["fim.mc_gradient_hessian"],
            "fim.gradient_hessian_calls": n_gh,
            "fim.gradient_hessian_ms_per_call": (
                1e3 * total["fim.mc_gradient_hessian"] / n_gh if n_gh else 0.0
            ),
            "fim.objective_s": sum(objective_s.values()),
            "fim.objective_calls": sum(objective_calls.values()),
        }
        for caller in CALLERS.values():
            metrics[f"fim.objective_s.{caller}"] = objective_s[caller]
            metrics[f"fim.objective_calls.{caller}"] = objective_calls[caller]
        metrics.update({
            "solver.solve_s": total["solver.solve_relaxed"],
            "solver.self_s": self_time["solver.solve_relaxed"],
            "solver.newton_steps": self.newton_steps,
            "solver.backtracks": solver_evals - self.newton_steps - 1,
            "solver.objective_evals": solver_evals,
            "solver.certify_s": total["solver.certify_or_repair"],
            "solver.certify_evals": completed(["fim.mc_objective[solver]"], "certify"),
            "baselines.greedy_s": total["baselines.greedy_forward"],
            "baselines.greedy_evals": completed(EVALUATOR_OBJECTIVES, "greedy"),
            "baselines.compare_s": total["baselines.compare"],
            "baselines.exhaustive_s": total["baselines.exhaustive"],
            "priors.sample_s": total["priors.sample_prior"],
            "pipeline.write_report_s": total["pipeline.write_report"],
        })
        layered = sum(self_time.values()) - self_time[ROOT_SPAN]
        metrics["trace.coverage_pct"] = 100.0 * layered / place_s
        return metrics

    def _caller(self, parent: int | None) -> str:
        while parent is not None:
            name, parent_of_parent = self.spans[parent][:2]
            if name in CALLERS:
                return CALLERS[name]
            parent = parent_of_parent
        return "other"
