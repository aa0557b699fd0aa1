"""End-to-end placement pipeline and report artifacts.

Stages run in a fixed order: model construction, prior sampling,
elementary-matrix precomputation, preflight, relaxed solve,
certification/repair, baselines, report assembly.  The exhaustive oracle
shares the first three stages and then runs its own ``exhaustive`` stage.
Every failure carries the stage it occurred in, and no report files are
written for a failed run.  All randomness derives from the configuration
seed, so a report is byte-identical across reruns; wall-clock timings go
to a separate sidecar file for that reason.
"""

from __future__ import annotations

import dataclasses
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .baselines import (
    ComparisonReport,
    ExhaustiveResult,
    compare,
    exhaustive,
    fixed_configs,
    greedy_forward,
)
from .building import TimeGrid, build_uniform_shear_model
from .config import RunConfig
from .fim import ElementaryFimSet, compute_elementary_set, preflight_check
from .priors import sample_prior
from .solver import BinaryPlacement, RelaxedSolution, certify_or_repair, solve_relaxed

REPORT_JSON = "report.json"
REPORT_TEXT = "report.txt"
PLACEMENT_CSV = "placement.csv"
TIMINGS_JSON = "timings.json"


class PipelineError(RuntimeError):
    """Failure attributed to a pipeline stage."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage {stage!r}: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass
class PlacementReport:
    config: dict
    relaxed: RelaxedSolution
    placement: BinaryPlacement
    comparison: ComparisonReport | None
    skipped_baselines: dict[str, str] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)
    version: str = __version__

    @property
    def proved_gap(self) -> float:
        """Proved bound on how far the placement is from the best binary one.

        The relaxed objective plus its duality gap bounds the objective of
        every feasible placement from above; this is that bound minus the
        placement's objective.
        """
        sol = self.relaxed
        return sol.objective_relaxed + sol.duality_gap - self.placement.objective_binary

    def to_dict(self) -> dict:
        """Deterministic report payload (timings deliberately excluded)."""
        sol = self.relaxed
        placed = self.placement
        payload = {
            "version": self.version,
            "config": self.config,
            "relaxed": {
                "z_star": sol.z_star.tolist(),
                "objective_relaxed": sol.objective_relaxed,
                "iterations": sol.iterations,
                "objective_evaluations": sol.objective_evaluations,
                "gradient_evaluations": sol.gradient_evaluations,
                "converged": sol.converged,
                "duality_gap": sol.duality_gap,
                "trace": [dataclasses.asdict(r) for r in sol.trace],
            },
            "placement": {
                "delta": placed.delta.tolist(),
                "stories": list(placed.stories),
                "objective_binary": placed.objective_binary,
                "certified_optimal": placed.certified_optimal,
                "gap": placed.gap,
                "proved_gap": self.proved_gap,
                "ambiguous_stories": [i + 1 for i in placed.ambiguous_indices],
                "objective_evaluations": placed.objective_evaluations,
            },
            "comparison": None,
            "skipped_baselines": dict(sorted(self.skipped_baselines.items())),
        }
        if self.comparison is not None:
            payload["comparison"] = {
                "reference": self.comparison.reference_label,
                "rows": [dataclasses.asdict(r) for r in self.comparison.rows],
            }
        return payload


@contextmanager
def _stage(name: str, timings: dict):
    start = time.perf_counter()
    try:
        yield
    except Exception as exc:
        raise PipelineError(name, exc) from exc
    timings[name] = time.perf_counter() - start


def _elementary_stages(config: RunConfig, timings: dict) -> ElementaryFimSet:
    """The model, prior-sampling and elementary-matrices stages."""
    with _stage("model", timings):
        model = build_uniform_shear_model(config.n_dof)
        grid = TimeGrid(config.n_steps, config.dt)
    with _stage("prior-sampling", timings):
        samples = sample_prior(config.prior, config.n_samples, config.seed)
    with _stage("elementary-matrices", timings):
        return compute_elementary_set(model, samples, grid)


def run_oracle(config: RunConfig) -> ExhaustiveResult:
    """Exhaustive combinatorial optimum; ``exhaustive`` refuses above its cap.

    Shares the first three stages with ``run_pipeline`` and runs the
    enumeration as its own ``exhaustive`` stage.
    """
    timings: dict[str, float] = {}
    elems = _elementary_stages(config, timings)
    with _stage("exhaustive", timings):
        return exhaustive(elems, config.budget)


def run_pipeline(config: RunConfig) -> PlacementReport:
    """Run the full placement pipeline for one configuration."""
    timings: dict[str, float] = {}

    elems = _elementary_stages(config, timings)
    with _stage("preflight", timings):
        preflight_check(elems)
    with _stage("solve", timings):
        solution = solve_relaxed(elems, config.budget)
    with _stage("certify", timings):
        placement = certify_or_repair(
            solution.z_star,
            elems,
            config.budget,
            objective_relaxed=solution.objective_relaxed,
        )

    comparison = None
    skipped: dict[str, str] = {}
    with _stage("baselines", timings):
        configs = [("optimal", placement.delta)]
        counts = {
            "optimal": solution.objective_evaluations + placement.objective_evaluations
        }
        if "greedy" in config.baselines:
            greedy = greedy_forward(elems, config.budget)
            configs.append(("greedy", greedy.delta))
            counts["greedy"] = greedy.n_evaluations
        if "exhaustive" in config.baselines:
            try:
                exact = exhaustive(elems, config.budget)
                configs.append(("exhaustive", exact.delta))
                counts["exhaustive"] = exact.n_evaluations
            except ValueError as exc:
                skipped["exhaustive"] = str(exc)
        fixed_wanted = [b for b in config.baselines if b in ("low", "high", "common")]
        if fixed_wanted:
            fixed = fixed_configs(config.n_dof, config.budget)
            for label in fixed_wanted:
                configs.append((label, fixed[label]))
        if len(configs) > 1:
            comparison = compare(
                configs, elems, reference_label="optimal", evaluation_counts=counts
            )

    return PlacementReport(
        config=config.to_dict(),
        relaxed=solution,
        placement=placement,
        comparison=comparison,
        skipped_baselines=skipped,
        timings=timings,
    )


def _report_text(report: PlacementReport) -> str:
    cfg = report.config
    sol = report.relaxed
    placed = report.placement
    lines = []
    lines.append("Sensor placement report")
    lines.append("=======================")
    lines.append(
        f"stories: {cfg['n_dof']}   sensors: {cfg['budget']}   "
        f"time steps: {cfg['n_steps']} x {cfg['dt']} s   "
        f"prior samples: {cfg['n_samples']}   seed: {cfg['seed']}"
    )
    lines.append("")
    lines.append(f"relaxed optimum objective : {sol.objective_relaxed:.6f}")
    lines.append(f"binary configuration      : {', '.join(map(str, placed.stories))}")
    lines.append(
        f"binary objective          : {placed.objective_binary:.6f}"
        f"   gap: {placed.gap:.3e}   certified: {'yes' if placed.certified_optimal else 'no'}"
    )
    lines.append(f"proved gap to the best binary placement: {report.proved_gap:.3e}")
    if placed.ambiguous_indices:
        amb = ", ".join(str(i + 1) for i in placed.ambiguous_indices)
        lines.append(f"ambiguous stories repaired: {amb}")
    lines.append(
        f"solver: {sol.iterations} Newton steps, "
        f"{sol.objective_evaluations} objective evaluations, "
        f"duality gap {sol.duality_gap:.2e}"
    )
    lines.append("")
    lines.append("story   z*        placed")
    for i, (z_i, d_i) in enumerate(zip(sol.z_star, placed.delta), start=1):
        lines.append(f"{i:5d}   {z_i:8.6f}  {d_i}")
    if report.comparison is not None:
        lines.append("")
        lines.append("comparison (bits of gain of the optimal placement)")
        lines.append(f"{'case':12s} {'objective':>12s} {'bits gain':>10s} {'evaluations':>12s}")
        for row in report.comparison.rows:
            lines.append(
                f"{row.label:12s} {row.objective_value:12.4f} "
                f"{row.bits_gain:10.3f} {row.n_evaluations:12d}"
            )
    for label, reason in report.skipped_baselines.items():
        lines.append(f"skipped baseline {label}: {reason}")
    lines.append("")
    lines.append(f"sensoropt {report.version}")
    return "\n".join(lines) + "\n"


def write_report(report: PlacementReport, out_dir) -> Path:
    """Write report.json, report.txt, placement.csv and timings.json.

    Everything except timings.json is byte-identical for identical
    configurations.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    (out / REPORT_JSON).write_text(payload, encoding="utf-8")
    (out / REPORT_TEXT).write_text(_report_text(report), encoding="utf-8")

    rows = ["story,z,delta"]
    for i, (z_i, d_i) in enumerate(zip(report.relaxed.z_star, report.placement.delta), 1):
        rows.append(f"{i},{float(z_i)!r},{d_i}")
    (out / PLACEMENT_CSV).write_text("\n".join(rows) + "\n", encoding="utf-8")

    timings = dict(report.timings)
    timings["written_at_unix"] = time.time()
    (out / TIMINGS_JSON).write_text(
        json.dumps(timings, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return out
