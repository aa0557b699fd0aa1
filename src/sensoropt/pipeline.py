"""End-to-end placement pipeline and report artifacts.

Stages run in a fixed order, under the names a ``PipelineError`` prints:
``model``, ``prior-sampling``, ``elementary-matrices``, ``preflight``,
``solve``, ``certify`` and ``baselines``.  The exhaustive oracle shares
the first three stages and then runs its own ``exhaustive`` stage.
Every failure carries the stage it occurred in, and no report files are
written for a failed run.  All randomness derives from the configuration
seed, so a report is byte-identical across reruns; wall-clock timings go
to a separate sidecar file for that reason.  ``_write_json`` writes
every JSON artifact.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import ComparisonRow, compare, exhaustive, fixed_configs, greedy_forward
from .building import TimeGrid, build_uniform_shear_model
from .config import RunConfig
from .fim import ElementaryFimSet, compute_elementary_set
from .priors import sample_prior
from .solver import (
    BinaryPlacement, RelaxedSolution, Selection, certify_or_repair, preflight_check,
    solve_relaxed,
)

REPORT_JSON = "report.json"
REPORT_TEXT = "report.txt"
PLACEMENT_CSV = "placement.csv"
TIMINGS_JSON = "timings.json"
ORACLE_JSON = "oracle.json"


class PipelineError(RuntimeError):
    """Failure attributed to a pipeline stage."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage {stage!r}: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass
class PlacementReport:
    """What each stage computed; ``gap``, ``proved_gap`` and the comparison's
    reference (its first row's label) are derived from it.  ``comparison`` is
    ``None`` when no baseline was compared."""

    config: RunConfig
    relaxed: RelaxedSolution
    placement: BinaryPlacement
    comparison: list[ComparisonRow] | None
    skipped_baselines: dict[str, str] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def gap(self) -> float:
        """The relaxed objective minus the placement's, >= 0 up to roundoff."""
        return self.relaxed.objective_relaxed - self.placement.objective_binary

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
        """Deterministic report payload (timings deliberately excluded); each
        section is the record that holds it, plus the figures derived from it."""
        payload = {
            "version": __version__,
            "config": _record(self.config),
            "relaxed": _record(self.relaxed),
            "placement": _record(self.placement, stories=self.placement.stories,
                                 gap=self.gap, proved_gap=self.proved_gap),
            "comparison": None,
            "skipped_baselines": self.skipped_baselines,
        }
        if self.comparison is not None:
            payload["comparison"] = {
                "reference": self.comparison[0].label,
                "rows": [_record(r) for r in self.comparison],
            }
        return payload


def _record(obj, **derived) -> dict:
    """A record's fields, as ``dataclasses.asdict`` gives them, plus ``derived``."""
    return {**dataclasses.asdict(obj), **derived}


class _Stage:
    """Times a stage into ``timings``; a failure in it becomes a ``PipelineError``."""

    __slots__ = ("name", "timings", "start")

    def __init__(self, name: str, timings: dict):
        self.name, self.timings = name, timings

    def __enter__(self):
        self.start = time.perf_counter()

    def __exit__(self, kind, exc, traceback):
        if exc is None:
            self.timings[self.name] = time.perf_counter() - self.start
        elif isinstance(exc, Exception):
            raise PipelineError(self.name, exc) from exc


def _elementary_stages(config: RunConfig, timings: dict) -> ElementaryFimSet:
    """The model, prior-sampling and elementary-matrices stages."""
    with _Stage("model", timings):
        model = build_uniform_shear_model(config.n_dof)
        grid = TimeGrid(config.n_steps, config.dt)
    with _Stage("prior-sampling", timings):
        samples = sample_prior(config.prior, config.n_samples, config.seed)
    with _Stage("elementary-matrices", timings):
        return compute_elementary_set(model, samples, grid)


def run_oracle(config: RunConfig) -> Selection:
    """Exhaustive combinatorial optimum; ``exhaustive`` refuses above its cap.

    Shares the first three stages with ``run_pipeline`` and runs the
    enumeration as its own ``exhaustive`` stage.
    """
    timings: dict[str, float] = {}
    elems = _elementary_stages(config, timings)
    with _Stage("exhaustive", timings):
        return exhaustive(elems, config.budget)


def run_pipeline(config: RunConfig) -> PlacementReport:
    """Run the full placement pipeline for one configuration."""
    timings: dict[str, float] = {}

    elems = _elementary_stages(config, timings)
    with _Stage("preflight", timings):
        preflight_check(elems)
    with _Stage("solve", timings):
        solution = solve_relaxed(elems, config.budget)
    with _Stage("certify", timings):
        placement = certify_or_repair(solution.z_star, elems, config.budget)

    comparison = None
    skipped: dict[str, str] = {}
    with _Stage("baselines", timings):
        n_optimal = solution.objective_evaluations + placement.objective_evaluations
        rows = [("optimal", placement.delta, n_optimal)]
        if "greedy" in config.baselines:
            greedy = greedy_forward(elems, config.budget)
            rows.append(("greedy", greedy.delta, greedy.n_evaluations))
        if "exhaustive" in config.baselines:
            try:
                exact = exhaustive(elems, config.budget)
                rows.append(("exhaustive", exact.delta, exact.n_evaluations))
            except ValueError as exc:
                skipped["exhaustive"] = str(exc)
        fixed = fixed_configs(config.n_dof, config.budget)
        rows += [(label, fixed[label], 1) for label in config.baselines if label in fixed]
        if len(rows) > 1:
            comparison = compare(rows, elems)

    return PlacementReport(
        config=config,
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
        f"stories: {cfg.n_dof}   sensors: {cfg.budget}   "
        f"time steps: {cfg.n_steps} x {cfg.dt} s   "
        f"prior samples: {cfg.n_samples}   seed: {cfg.seed}"
    )
    lines.append("")
    lines.append(f"relaxed optimum objective : {sol.objective_relaxed:.6f}")
    lines.append(f"binary configuration      : {', '.join(map(str, placed.stories))}")
    lines.append(
        f"binary objective          : {placed.objective_binary:.6f}"
        f"   gap: {report.gap:.3e}   certified: {'yes' if placed.certified_optimal else 'no'}"
    )
    lines.append(f"proved gap to the best binary placement: {report.proved_gap:.3e}")
    if placed.ambiguous_stories:
        amb = ", ".join(map(str, placed.ambiguous_stories))
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
        for row in report.comparison:
            lines.append(
                f"{row.label:12s} {row.objective_value:12.4f} "
                f"{row.bits_gain:10.3f} {row.n_evaluations:12d}"
            )
    for label, reason in report.skipped_baselines.items():
        lines.append(f"skipped baseline {label}: {reason}")
    lines.append("")
    lines.append(f"sensoropt {__version__}")
    return "\n".join(lines) + "\n"


def _write_json(path: Path, payload) -> None:
    """``payload`` as sorted, indented JSON; arrays become lists, nothing else does."""
    text = json.dumps(payload, indent=2, sort_keys=True, default=np.ndarray.tolist)
    path.write_text(text + "\n", encoding="utf-8")


def write_report(report: PlacementReport, out_dir) -> Path:
    """Write report.json, report.txt, placement.csv and timings.json.

    Everything except timings.json is byte-identical for identical
    configurations.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / REPORT_JSON, report.to_dict())
    (out / REPORT_TEXT).write_text(_report_text(report), encoding="utf-8")

    rows = ["story,z,delta"]
    for i, (z_i, d_i) in enumerate(zip(report.relaxed.z_star, report.placement.delta), 1):
        rows.append(f"{i},{float(z_i)!r},{d_i}")
    (out / PLACEMENT_CSV).write_text("\n".join(rows) + "\n", encoding="utf-8")

    _write_json(out / TIMINGS_JSON, {**report.timings, "written_at_unix": time.time()})
    return out


def write_oracle(result: Selection, config: RunConfig, out_dir) -> Path:
    """Write oracle.json, the exhaustive optimum and its configuration; return its path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / ORACLE_JSON
    _write_json(path, _record(result, stories=result.stories, config=_record(config)))
    return path
