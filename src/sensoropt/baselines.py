"""Baseline placement strategies and information-gain comparison.

Everything here scores configurations by the expected log-determinant
(larger is better), the negation of the solver's minimization objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fim import (
    CountingEvaluator,
    ElementaryFimSet,
    SingularInformationError,
    check_budget,
    check_sensor_vector,
    mc_objective,
)
from .solver import ENUMERATION_CAP, best_combination

LN2 = math.log(2.0)


@dataclass
class GreedyResult:
    delta: np.ndarray
    objective_value: float
    n_evaluations: int
    picks: tuple[int, ...]  # story indices in placement order, 1-based


@dataclass
class ExhaustiveResult:
    delta: np.ndarray
    objective_value: float
    n_evaluations: int


@dataclass
class ComparisonRow:
    label: str
    stories: tuple[int, ...]
    objective_value: float
    bits_gain: float
    n_evaluations: int


@dataclass
class ComparisonReport:
    reference_label: str
    rows: list[ComparisonRow] = field(default_factory=list)

    def row(self, label: str) -> ComparisonRow:
        for row in self.rows:
            if row.label == label:
                return row
        raise KeyError(label)


def greedy_forward(fimset: ElementaryFimSet, budget: int) -> GreedyResult:
    """Forward sequential placement: grow the configuration one sensor at a time.

    Each round scores every vacant story by the information gain of adding
    it to the current configuration, recomputing the current
    configuration's value alongside each candidate (the first candidate of
    a round reuses the value cached from the previous selection).  Ties go
    to the lower story.  The evaluation counter therefore totals
    ``budget * (2 * n_dof - budget)`` kernel calls.

    Configurations are scored by ``CountingEvaluator.score``: exactly, or
    through its ridge fallback where singular in some sample.  The empty
    starting configuration is singular in every sample; its ridge value,
    ``empty_value``, is computed once, uncounted, with the bits a scored
    empty configuration gets, so every round-1 gain is measured from the
    same base.  The final value is the exact objective: the last round's
    value of the chosen configuration when that was exact (the same call
    on the same set), otherwise recomputed without the ridge.
    """
    n = fimset.n_dof
    check_budget(budget, n)
    evaluator = CountingEvaluator(fimset)
    delta = np.zeros(n, dtype=int)
    base_value = evaluator.empty_value
    picks: list[int] = []
    for _round in range(budget):
        best_gain, best_story, best = -math.inf, -1, None
        for k, i in enumerate(np.flatnonzero(delta == 0)):
            if k:
                base_value = evaluator.score(delta)[0]
            delta[i] = 1
            score = evaluator.score(delta)
            delta[i] = 0
            if score[0] - base_value > best_gain:
                best_gain, best_story, best = score[0] - base_value, int(i), score
        delta[best_story] = 1
        picks.append(best_story + 1)
        base_value = best[0]

    value, exact = best
    return GreedyResult(
        delta=delta,
        objective_value=value if exact else -mc_objective(delta.astype(float), fimset),
        n_evaluations=evaluator.n_objective,
        picks=tuple(picks),
    )


def exhaustive(fimset: ElementaryFimSet, budget: int) -> ExhaustiveResult:
    """Exact combinatorial optimum by enumerating every configuration.

    The repair's search with no story fixed and every story in the pool.
    Refuses, before any evaluation, when the number of configurations
    exceeds ``ENUMERATION_CAP``.  Ties go to the lexicographically smallest
    configuration.
    """
    n = fimset.n_dof
    check_budget(budget, n)
    count = math.comb(n, budget)
    if count > ENUMERATION_CAP:
        raise ValueError(
            f"exhaustive search over {count} configurations exceeds the cap of {ENUMERATION_CAP}"
        )
    delta, value, evals = best_combination(fimset, [], range(n), budget)
    return ExhaustiveResult(delta=delta, objective_value=value, n_evaluations=evals)


def fixed_configs(n_dof: int, budget: int) -> dict[str, np.ndarray]:
    """Reference layouts: bottom block, top block, and evenly spaced.

    ``low`` instruments stories 1..budget, ``high`` the top ``budget``
    stories, and ``common`` stories ``ceil(k * n_dof / budget)`` for
    k = 1..budget (evenly spaced, rounded up, distinct as budget <= n_dof).
    """
    check_budget(budget, n_dof)
    low = np.zeros(n_dof, dtype=int)
    low[:budget] = 1
    high = np.zeros(n_dof, dtype=int)
    high[n_dof - budget:] = 1
    common = np.zeros(n_dof, dtype=int)
    for k in range(1, budget + 1):
        common[math.ceil(k * n_dof / budget) - 1] = 1
    return {"low": low, "high": high, "common": common}


def compare(
    configs: list[tuple[str, np.ndarray]],
    fimset: ElementaryFimSet,
    reference_label: str | None = None,
    evaluation_counts: dict[str, int] | None = None,
) -> ComparisonReport:
    """Score labeled binary configurations and express gaps in bits.

    ``bits_gain`` of a row is ``(V_ref - V) / ln 2`` where ``V_ref`` is the
    reference row's value (the first row by default): the number of bits
    of information the reference placement gains over that configuration.
    """
    if not configs:
        raise ValueError("no configurations to compare")
    evaluation_counts = evaluation_counts or {}
    values = {}
    for label, delta in configs:
        delta = check_sensor_vector(delta, fimset.n_dof, binary=True)
        try:
            values[label] = -mc_objective(np.asarray(delta, dtype=float), fimset)
        except SingularInformationError as exc:
            raise SingularInformationError(
                f"configuration {label!r} is singular: {exc}",
                sample_index=exc.sample_index,
                label=label,
            ) from exc
    reference_label = reference_label or configs[0][0]
    if reference_label not in values:
        raise ValueError(f"reference label {reference_label!r} not among configurations")
    v_ref = values[reference_label]
    report = ComparisonReport(reference_label=reference_label)
    for label, delta in configs:
        delta = np.asarray(delta, dtype=int)
        report.rows.append(
            ComparisonRow(
                label=label,
                stories=tuple(int(i) + 1 for i in np.flatnonzero(delta)),
                objective_value=values[label],
                bits_gain=(v_ref - values[label]) / LN2,
                n_evaluations=evaluation_counts.get(label, 1),
            )
        )
    return report
