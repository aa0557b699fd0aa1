"""Relaxed placement solver: log-barrier interior point with Newton steps.

The relaxed problem minimizes the Monte-Carlo objective h (the negative
mean log-determinant) over the box [0, 1]^n subject to a fixed sensor
budget (an equality on the sum of the weights).  The 2n box constraints
go into a logarithmic barrier, and each barrier subproblem is solved by
equality-constrained Newton steps with backtracking line search (Boyd &
Vandenberghe, *Convex Optimization*, 2004, section 11.3).  The barrier
parameter starts at ``BARRIER_T0`` and grows by ``BARRIER_MULTIPLIER``
per stage.  Every stage centers until half the squared Newton decrement
is at most ``CENTERING``; at most ``MAX_OUTER_ITERATIONS`` stages of at
most ``MAX_NEWTON_ITERATIONS`` steps each are allowed.  None of these is
configurable.

The solve stops on a proved bound, not on how well a stage is centered.
h is convex, so its tangent at any feasible z lies below it, and the
smallest value of that tangent over the feasible set, reached by putting
the budget on the smallest gradient entries, is a lower bound on the
relaxed minimum.  ``duality_gap`` is the distance from h(z) down to that
bound; after each stage the solve computes it from the gradient it
already holds at z and stops once it is at most ``TOLERANCE``.  The
centering only has to bring z close enough to the optimum for the gap to
close, so one loose rule serves every stage.  The gap also bounds the
best binary placement, which is a point of the same feasible set (the
report's ``proved_gap``).  The Monte-Carlo gradient and Hessian do not
depend on the barrier parameter, so those at the point where a stage
stops serve the gap and the next stage's first step: a converged solve
evaluates them once at the start and once after every accepted step.

``certify_or_repair`` turns the relaxed optimum into a binary
configuration.  It holds every story whose weight is within
``AMBIGUITY_THRESHOLD`` of 0 or 1 at that rounded value and scores every
way of placing the remaining sensors among the ambiguous stories in
between.  "Certified" means exactly that search was complete; it is not a
proof of optimality over all C(n, k) configurations.

Each Newton system is factored with ``np.linalg.cholesky`` and solved by
two ``np.linalg.solve`` calls on the triangular factors
(``_newton_direction``).  These LAPACK calls gave bitwise-identical
results at 1, 2 and 8 threads of OpenBLAS 0.3.31 (Haswell kernels) for
4, 50 and 80 stories, which ``tests/test_thread_invariance.py`` checks,
but not for 200 stories, where OpenBLAS starts to split the work
between threads.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .fim import (
    CountingEvaluator,
    ElementaryFimSet,
    check_sensor_vector,
    mc_objective,
    preflight_check,
)

_ARMIJO_SLOPE = 0.01
_BACKTRACK = 0.5
_BOUNDARY_FRACTION = 0.99
_MAX_BACKTRACKS = 60


# Coordinates genuinely pinned to a bound sit within ~1e-8 of it at the
# final barrier stage, while fractional coordinates can come out anywhere
# in between, including 0.99+; the threshold below separates the two
# regimes so the repair enumerates every fractional entry.
AMBIGUITY_THRESHOLD = 1e-3
# Most configurations one combination search scores, in the repair and in
# the exhaustive baseline.
ENUMERATION_CAP = 1_000_000
# Bounds the proved duality gap of the returned point.
TOLERANCE = 1e-6
MAX_OUTER_ITERATIONS = 100
MAX_NEWTON_ITERATIONS = 50
BARRIER_T0 = 2.0
BARRIER_MULTIPLIER = 100.0
# A stage stops centering once half the squared Newton decrement is below
# this; the accuracy comes from the duality gap, not from the centering.
CENTERING = 1.0


@dataclass(frozen=True)
class IterationRecord:
    """One Newton step: objective values are in 'larger is better' orientation."""

    iteration: int
    barrier_t: float
    objective_value: float
    newton_decrement: float
    step_size: float
    step_norm: float


class ConvergenceError(RuntimeError):
    """Solver failed to converge; carries the iteration trace."""

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace or []


@dataclass
class RelaxedSolution:
    """Optimum of the relaxed problem with solve statistics."""

    z_star: np.ndarray
    objective_relaxed: float  # expected log-determinant, larger is better
    iterations: int
    objective_evaluations: int
    gradient_evaluations: int
    converged: bool
    duality_gap: float  # proved: no feasible z beats objective_relaxed by more
    trace: list[IterationRecord] = field(default_factory=list)


@dataclass
class BinaryPlacement:
    """Binary configuration derived from a relaxed optimum."""

    delta: np.ndarray  # 0/1 ints, shape (n_dof,)
    objective_binary: float
    certified_optimal: bool
    gap: float  # objective_relaxed - objective_binary, >= 0 up to roundoff
    ambiguous_indices: tuple[int, ...] = ()
    objective_evaluations: int = 0

    @property
    def stories(self) -> tuple[int, ...]:
        """Instrumented stories, 1-based."""
        return tuple(int(i) + 1 for i in np.flatnonzero(self.delta))


def _barrier_value(z: np.ndarray) -> float:
    return float(-np.sum(np.log(z)) - np.sum(np.log(1.0 - z)))


def _newton_direction(hess: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Equality-constrained Newton step by block elimination.

    Solves ``H dz = -(g + w 1)`` with ``1^T dz = 0`` for ``dz``.  ``H`` is
    factored as ``L L^T`` and both right-hand sides ``g`` and ``1`` go
    through the two triangular systems together.  When the factorization
    fails, a ridge of ``1e-12`` times the mean diagonal is added to
    ``hess`` (in place) and the factorization retried.  A system with an
    infinite or NaN entry raises ``ValueError``.
    """
    if not (np.all(np.isfinite(hess)) and np.all(np.isfinite(grad))):
        raise ValueError("the Newton system has infinite or NaN entries")
    try:
        chol = np.linalg.cholesky(hess)
    except np.linalg.LinAlgError:
        hess[np.diag_indices_from(hess)] += 1e-12 * np.trace(hess) / hess.shape[0]
        chol = np.linalg.cholesky(hess)
    rhs = np.stack([grad, np.ones_like(grad)], axis=1)
    hinv_g, hinv_1 = np.linalg.solve(chol.T, np.linalg.solve(chol, rhs)).T
    w = -float(hinv_g.sum()) / float(hinv_1.sum())
    return -(hinv_g + w * hinv_1)


def solve_relaxed(
    fimset: ElementaryFimSet,
    budget: int,
    z0: np.ndarray | None = None,
    callback=None,
) -> RelaxedSolution:
    """Solve the relaxed placement problem to ``TOLERANCE``.

    Parameters
    ----------
    fimset : ElementaryFimSet
    budget : int
        Number of sensors; 1 <= budget <= n_dof.
    z0 : ndarray, optional
        Strictly interior feasible start; defaults to the uniform point
        ``budget / n_dof``.  The converged objective value does not depend
        on the start.
    callback : callable, optional
        Called with the iterate after every accepted Newton step.

    Raises
    ------
    ConvergenceError
        If the iteration limits are exhausted; the trace is attached.
    """
    n = fimset.n_dof
    if not 1 <= budget <= n:
        raise ValueError(f"budget must satisfy 1 <= budget <= {n}, got {budget}")
    preflight_check(fimset)

    evaluator = CountingEvaluator(fimset)
    if budget == n:
        # The feasible set is the single point of all ones.
        z = np.ones(n)
        value = -evaluator.objective(z)
        return RelaxedSolution(
            z_star=z,
            objective_relaxed=value,
            iterations=0,
            objective_evaluations=evaluator.n_objective,
            gradient_evaluations=0,
            converged=True,
            duality_gap=0.0,
            trace=[],
        )

    if z0 is None:
        z = np.full(n, budget / n)
    else:
        z = check_sensor_vector(z0, n, budget=budget).astype(float).copy()
        if np.any(z <= 0) or np.any(z >= 1):
            raise ValueError("z0 must be strictly interior to the box")

    t = BARRIER_T0
    h_val = evaluator.objective(z)
    # The Monte-Carlo derivatives at z do not depend on t, so those of the
    # point a stage ends at give its duality gap and the next stage's first
    # step.
    grad_h, hess_h = evaluator.gradient_hessian(z)

    trace: list[IterationRecord] = []
    iteration = 0
    for _outer in range(MAX_OUTER_ITERATIONS):
        for _inner in range(MAX_NEWTON_ITERATIONS):
            grad_phi = -1.0 / z + 1.0 / (1.0 - z)
            hess_phi = 1.0 / z**2 + 1.0 / (1.0 - z) ** 2
            grad_t = t * grad_h + grad_phi
            hess_t = t * hess_h
            hess_t[np.diag_indices_from(hess_t)] += hess_phi

            dz = _newton_direction(hess_t, grad_t)
            decrement_sq = max(float(-grad_t @ dz), 0.0)
            if decrement_sq / 2.0 <= CENTERING:
                break

            # Fraction-to-boundary cap keeps the iterate strictly interior.
            step = 1.0
            negative = dz < 0
            if np.any(negative):
                step = min(step, _BOUNDARY_FRACTION * np.min(z[negative] / -dz[negative]))
            positive = dz > 0
            if np.any(positive):
                step = min(
                    step, _BOUNDARY_FRACTION * np.min((1.0 - z[positive]) / dz[positive])
                )

            psi_now = t * h_val + _barrier_value(z)
            slope = float(grad_t @ dz)
            accepted = False
            for _bt in range(_MAX_BACKTRACKS):
                z_trial = z + step * dz
                h_trial = evaluator.objective(z_trial)
                psi_trial = t * h_trial + _barrier_value(z_trial)
                if psi_trial <= psi_now + _ARMIJO_SLOPE * step * slope:
                    accepted = True
                    break
                step *= _BACKTRACK
            if not accepted:
                raise ConvergenceError(
                    f"line search failed at barrier parameter {t:.3g}", trace
                )

            z = z_trial
            # Remove accumulated roundoff in the budget equality.
            z = z + (budget - z.sum()) / n
            h_val = h_trial
            grad_h, hess_h = evaluator.gradient_hessian(z)
            iteration += 1
            trace.append(
                IterationRecord(
                    iteration=iteration,
                    barrier_t=t,
                    objective_value=-h_val,
                    newton_decrement=decrement_sq / 2.0,
                    step_size=step,
                    step_norm=float(np.max(np.abs(step * dz))),
                )
            )
            if callback is not None:
                callback(z.copy())
        else:
            raise ConvergenceError(
                f"Newton iterations exhausted at barrier parameter {t:.3g}", trace
            )

        gap = duality_gap(z, grad_h, budget)
        if gap <= TOLERANCE:
            break
        t *= BARRIER_MULTIPLIER
    else:
        raise ConvergenceError("barrier stages exhausted without convergence", trace)
    return RelaxedSolution(
        z_star=z,
        objective_relaxed=-h_val,
        iterations=iteration,
        objective_evaluations=evaluator.n_objective,
        gradient_evaluations=evaluator.n_gradient,
        converged=True,
        duality_gap=gap,
        trace=trace,
    )


def duality_gap(z: np.ndarray, grad: np.ndarray, budget: int) -> float:
    """Proved bound on how far a feasible ``z`` is from the relaxed optimum.

    ``grad`` is the gradient of the convex objective h at ``z``, so
    ``h(z) + grad @ (y - z)`` lies below h at every feasible ``y``.  Over
    the box with the budget, that tangent is smallest at the 0/1 point
    holding the ``budget`` smallest gradient entries, so no feasible point,
    binary or not, has h below ``h(z)`` minus the returned value,
    ``grad @ z - (sum of the budget smallest entries of grad)``.
    """
    return float(grad @ z - np.sort(grad)[:budget].sum())


def best_combination(
    fimset: ElementaryFimSet, fixed_on, pool, k: int
) -> tuple[np.ndarray, float, int]:
    """Best way of adding ``k`` stories from ``pool`` to the stories ``fixed_on``.

    Scores every combination of ``pool`` in lexicographic order and keeps
    the first strict maximum, so ties go to the lexicographically smallest
    configuration when ``pool`` is sorted.  Returns ``(delta, value,
    n_evaluations)``; ``value`` is the expected log-determinant of
    ``delta``.  Callers check the combination count against
    ``ENUMERATION_CAP`` first.
    """
    base = np.zeros(fimset.n_dof, dtype=int)
    base[fixed_on] = 1
    best_delta = None
    best_value = -math.inf
    evals = 0
    for combo in itertools.combinations(pool, k):
        delta = base.copy()
        delta[list(combo)] = 1
        value = -mc_objective(delta.astype(float), fimset)
        evals += 1
        if value > best_value:
            best_value = value
            best_delta = delta
    return best_delta, best_value, evals


def certify_or_repair(
    z_star: np.ndarray,
    fimset: ElementaryFimSet,
    budget: int,
    objective_relaxed: float | None = None,
) -> BinaryPlacement:
    """Round a relaxed optimum, repairing its ambiguous entries by enumeration.

    Entries of the relaxed optimum inside (eta, 1 - eta), with eta =
    ``AMBIGUITY_THRESHOLD``, are ambiguous.  Every other story is held at
    its rounded value, and every way of spending the remaining budget
    among the ambiguous stories is scored; the best is kept (ties to the
    lexicographically smallest).  Such a complete search, an empty
    ambiguous set included, is reported as certified.  That is not a
    proof over all C(n, k) configurations: a story held at 0 or 1 is never
    reconsidered.  When the search would exceed ``ENUMERATION_CAP``
    configurations, the ``budget`` largest entries are placed instead (ties
    to the lower story) and the result is not certified.
    """
    z = check_sensor_vector(z_star, fimset.n_dof, budget=budget)
    if objective_relaxed is None:
        objective_relaxed = -mc_objective(z, fimset)

    eta = AMBIGUITY_THRESHOLD
    ambiguous = np.flatnonzero((z > eta) & (z < 1.0 - eta))
    fixed_on = np.flatnonzero(z >= 1.0 - eta)
    remaining = budget - fixed_on.size

    certified = (
        0 <= remaining <= ambiguous.size
        and math.comb(ambiguous.size, remaining) <= ENUMERATION_CAP
    )
    if certified:
        delta, value, evals = best_combination(
            fimset, fixed_on, ambiguous.tolist(), remaining
        )
    else:
        # The top-k rounding, scored as a search with nothing left to place.
        # Stable sort on -z: ties resolve to the lower story index.
        top_k = np.argsort(-z, kind="stable")[:budget]
        delta, value, evals = best_combination(fimset, top_k, [], 0)
    return BinaryPlacement(
        delta=delta,
        objective_binary=value,
        certified_optimal=certified,
        gap=objective_relaxed - value,
        ambiguous_indices=tuple(int(i) for i in ambiguous),
        objective_evaluations=evals,
    )
