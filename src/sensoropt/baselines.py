"""Baseline placement strategies and information-gain comparison.

Everything here scores configurations by the expected log-determinant
(larger is better), the negation of the solver's minimization objective.
Greedy forward selection and the exhaustive search each return their
configuration as a ``solver.Selection``, with its value and the number of
evaluations it cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fim import (
    CountingEvaluator,
    ElementaryFimSet,
    SingularInformationError,
    check_budget,
    check_sensor_vector,
    mc_objective,
)
from .solver import ENUMERATION_CAP, Selection, best_combination, story_numbers

LN2 = math.log(2.0)


@dataclass
class ComparisonRow:
    label: str
    stories: tuple[int, ...]
    objective_value: float
    bits_gain: float
    n_evaluations: int


def greedy_forward(fimset: ElementaryFimSet, budget: int) -> Selection:
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
    same base.  The final value is the last round's exact value of the
    chosen configuration.  Where the last round could score it only
    through the ridge, the exact objective is singular there, and
    recomputing it raises ``SingularInformationError`` naming the sample.
    """
    n = fimset.n_dof
    check_budget(budget, n)
    evaluator = CountingEvaluator(fimset)
    delta = np.zeros(n, dtype=int)
    base_value = evaluator.empty_value
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
        base_value = best[0]

    value, exact = best
    return Selection(
        delta=delta,
        objective_value=value if exact else -mc_objective(delta.astype(float), fimset),
        n_evaluations=evaluator.n_objective,
    )


def exhaustive(fimset: ElementaryFimSet, budget: int) -> Selection:
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
    return best_combination(fimset, [], range(n), budget)


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
    rows: list[tuple[str, np.ndarray, int]], fimset: ElementaryFimSet
) -> list[ComparisonRow]:
    """Score labeled binary configurations and express gaps in bits.

    ``rows`` holds ``(label, delta, n_evaluations)`` triples, each checked
    and scored once, in order, into one ``ComparisonRow``; labels need not
    be distinct.  A row is scored and numbered as the 0/1 vector its check
    rounds it to, and a row the check rejects raises ``ValueError`` naming
    its label.  The first row is the reference: ``bits_gain`` of a row is
    ``(V_ref - V) / ln 2`` where ``V_ref`` is the first row's value: the
    number of bits of information the reference placement gains over that
    configuration.
    """
    if not rows:
        raise ValueError("no configurations to compare")
    compared: list[ComparisonRow] = []
    for label, delta, n_evaluations in rows:
        try:
            delta = check_sensor_vector(delta, fimset.n_dof, binary=True)
        except ValueError as exc:
            raise ValueError(f"configuration {label!r}: {exc}") from exc
        try:
            value = -mc_objective(delta, fimset)
        except SingularInformationError as exc:
            raise SingularInformationError(
                f"configuration {label!r} is singular: {exc}",
                sample_index=exc.sample_index,
                label=label,
            ) from exc
        v_ref = compared[0].objective_value if compared else value
        compared.append(ComparisonRow(
            label, story_numbers(delta), value, (v_ref - value) / LN2, n_evaluations
        ))
    return compared
