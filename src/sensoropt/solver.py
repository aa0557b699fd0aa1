"""Relaxed placement solver: primal-dual interior point with Newton steps.

The relaxed problem minimizes the Monte-Carlo objective h (the negative
mean log-determinant) over the box [0, 1]^n subject to a fixed sensor
budget.  One primal-dual Newton loop (Boyd & Vandenberghe, *Convex
Optimization*, 2004, section 11.7) moves the weights z, the multipliers
``lam_lo`` and ``lam_hi`` of z >= 0 and z <= 1, and the budget multiplier
``nu``.  Each step aims at the central point whose surrogate gap
``z @ lam_lo + (1 - z) @ lam_hi`` is ``1 / MU`` of the current one, by
the Newton system reduced to z (``_newton_direction``).  It goes at most
``_BOUNDARY_FRACTION`` of the way to the boundary of the box or of the
multipliers' positive orthant, and backtracks until the norm of the dual
and centrality residuals falls.  None of the controls is configurable.

The solve stops on a proved bound.  h is convex, so its tangent at any
feasible z lies below it, and the smallest value of that tangent over
the feasible set, reached by putting the budget on the smallest gradient
entries, is a lower bound on the relaxed minimum, and on the best binary
placement (the report's ``proved_gap``).  ``duality_gap`` is the distance
from h(z) down to that bound; the loop stops once it is at most
``TOLERANCE``, or fails after ``MAX_ITERATIONS`` steps.  The derivatives
at each trial point give its residual, and at the accepted point the gap
and the next step.  The objective is evaluated at the start and at each
accepted point, for the trace.

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
    check_budget,
    check_sensor_vector,
    mc_objective,
    preflight_check,
)

_ARMIJO_SLOPE = 0.01
_BACKTRACK = 0.5
_BOUNDARY_FRACTION = 0.99
_MAX_BACKTRACKS = 60


# Coordinates the solve leaves at a bound sit within 1e-4 of it (8.6e-5 at
# most on the fifty-story workload, seeds 1-12), while fractional ones can
# come out anywhere in between (1.8e-3 from a bound at the least there);
# the threshold below separates the two regimes so the repair enumerates
# every fractional entry.
AMBIGUITY_THRESHOLD = 1e-3
# Most configurations one combination search scores, in the repair and in
# the exhaustive baseline.
ENUMERATION_CAP = 1_000_000
# Bounds the proved duality gap of the returned point.
TOLERANCE = 1e-8
MAX_ITERATIONS = 50
# Each step aims at the central point whose surrogate gap is 1/MU of the
# current one.
MU = 10.0


@dataclass(frozen=True)
class IterationRecord:
    """One Newton step: objective values are in 'larger is better' orientation.

    ``barrier_t`` is ``1 / sigma``, the barrier parameter of the central
    point the step aimed at, and ``newton_decrement`` is ``dz^T H dz / 2``
    of the step's system reduced to z.
    """

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


def _newton_direction(hess: np.ndarray, grad: np.ndarray) -> tuple[np.ndarray, float]:
    """Equality-constrained Newton step by block elimination.

    Solves ``H dz + w 1 = -g`` with ``1^T dz = 0`` for ``dz`` and the
    budget multiplier ``w``, and returns both.  ``H`` is factored as
    ``L L^T`` and both right-hand sides ``g`` and ``1`` go through the two
    triangular systems together.  When the factorization fails, a ridge of
    ``1e-12`` times the mean diagonal is added to ``hess`` (in place) and
    the factorization retried.  A system with an infinite or NaN entry
    raises ``ValueError``.
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
    return -(hinv_g + w * hinv_1), w


def _residual_norm(grad, z, lam_lo, lam_hi, nu, sigma) -> float:
    """Norm of the dual residual and the two centrality residuals at ``sigma``."""
    residual = np.concatenate(
        [grad - lam_lo + lam_hi + nu, lam_lo * z - sigma, lam_hi * (1.0 - z) - sigma]
    )
    return math.sqrt(float(residual @ residual))


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
        If ``MAX_ITERATIONS`` steps do not close the duality gap, or a
        line search fails; the trace is attached.
    """
    n = fimset.n_dof
    check_budget(budget, n)
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

    h_val = evaluator.objective(z)
    grad_h, hess_h = evaluator.gradient_hessian(z)
    # Multipliers of z >= 0 and z <= 1 on the central path at sigma = 1,
    # and the budget multiplier that best balances the dual residual.
    lam_lo = 1.0 / z
    lam_hi = 1.0 / (1.0 - z)
    nu = -float(np.mean(grad_h - lam_lo + lam_hi))

    trace: list[IterationRecord] = []
    gap = duality_gap(z, grad_h, budget)
    while gap > TOLERANCE:
        if len(trace) == MAX_ITERATIONS:
            raise ConvergenceError(
                f"Newton iterations exhausted after {MAX_ITERATIONS} steps "
                f"at duality gap {gap:.3g}", trace
            )
        sigma = (float(z @ lam_lo) + float((1.0 - z) @ lam_hi)) / (MU * 2 * n)
        hess_h[np.diag_indices_from(hess_h)] += lam_lo / z + lam_hi / (1.0 - z)
        rhs = grad_h - sigma / z + sigma / (1.0 - z)
        dz, nu_plus = _newton_direction(hess_h, rhs)
        dlam_lo = sigma / z - lam_lo - lam_lo * dz / z
        dlam_hi = sigma / (1.0 - z) - lam_hi + lam_hi * dz / (1.0 - z)
        dnu = nu_plus - nu

        # The longest step that keeps z strictly inside the box and the
        # multipliers positive, times the boundary fraction.
        values = np.concatenate([z, 1.0 - z, lam_lo, lam_hi])
        moves = np.concatenate([dz, -dz, dlam_lo, dlam_hi])
        shrinking = moves < 0
        step = min(1.0, _BOUNDARY_FRACTION * float(
            np.min(values[shrinking] / -moves[shrinking], initial=np.inf)
        ))
        residual = _residual_norm(grad_h, z, lam_lo, lam_hi, nu, sigma)
        for _bt in range(_MAX_BACKTRACKS):
            z_trial = z + step * dz
            # Remove accumulated roundoff in the budget equality.
            z_trial += (budget - z_trial.sum()) / n
            lam_lo_trial = lam_lo + step * dlam_lo
            lam_hi_trial = lam_hi + step * dlam_hi
            nu_trial = nu + step * dnu
            grad_trial, hess_trial = evaluator.gradient_hessian(z_trial)
            if _residual_norm(
                grad_trial, z_trial, lam_lo_trial, lam_hi_trial, nu_trial, sigma
            ) <= (1.0 - _ARMIJO_SLOPE * step) * residual:
                break
            step *= _BACKTRACK
        else:
            raise ConvergenceError(f"line search failed at duality gap {gap:.3g}", trace)

        z, lam_lo, lam_hi, nu = z_trial, lam_lo_trial, lam_hi_trial, nu_trial
        grad_h, hess_h = grad_trial, hess_trial
        h_val = evaluator.objective(z)
        gap = duality_gap(z, grad_h, budget)
        trace.append(
            IterationRecord(
                iteration=len(trace) + 1,
                barrier_t=1.0 / sigma,
                objective_value=-h_val,
                newton_decrement=max(float(-rhs @ dz), 0.0) / 2.0,
                step_size=step,
                step_norm=float(np.max(np.abs(step * dz))),
            )
        )
        if callback is not None:
            callback(z.copy())
    return RelaxedSolution(
        z_star=z,
        objective_relaxed=-h_val,
        iterations=len(trace),
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
