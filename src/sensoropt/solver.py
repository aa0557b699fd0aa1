"""Relaxed placement solver: log-barrier interior point with Newton steps.

The relaxed problem minimizes the Monte-Carlo objective over the box
[0, 1]^n subject to a fixed sensor budget (an equality on the sum of the
weights).  The 2n box constraints go into a logarithmic barrier; each
barrier subproblem is solved by equality-constrained Newton steps with
backtracking line search.  The barrier schedule is fixed: it starts at
``BARRIER_T0``, grows by ``BARRIER_MULTIPLIER`` per stage, and stops once
the duality-gap estimate and the complementarity residual are both below
``TOLERANCE``; ``MAX_OUTER_ITERATIONS`` stages of at most
``MAX_NEWTON_ITERATIONS`` steps each are allowed.  Only the final stage,
the first whose duality-gap estimate is below ``TOLERANCE``, sets the
accuracy: it centers until the complementarity residual is at most half
of ``TOLERANCE``, while every earlier stage stops once half the squared
Newton decrement is at most ``INTERMEDIATE_CENTERING``.  None of these is
configurable.  The Monte-Carlo gradient and Hessian do not depend on the
barrier parameter, so those at the point where a stage stops serve the
next stage's first step: a converged solve evaluates them once at the
start and once after every accepted step.

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
# Bounds both the barrier duality-gap estimate and the complementarity
# residual of the returned point.
TOLERANCE = 1e-6
MAX_OUTER_ITERATIONS = 100
MAX_NEWTON_ITERATIONS = 50
BARRIER_T0 = 2.0
BARRIER_MULTIPLIER = 100.0
# An intermediate stage only has to hand the next one a good start, so it
# stops centering once half the squared Newton decrement is below this;
# only the final stage sets the accuracy.
INTERMEDIATE_CENTERING = 0.1


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
    kkt_residual: float
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


def _newton_direction(hess: np.ndarray, grad: np.ndarray) -> tuple[np.ndarray, float]:
    """Equality-constrained Newton step by block elimination.

    Solves ``H dz = -(g + w 1)`` with ``1^T dz = 0`` and returns
    ``(dz, w)``.  ``H`` is factored as ``L L^T`` and both right-hand sides
    ``g`` and ``1`` go through the two triangular systems together.  When
    the factorization fails, a ridge of ``1e-12`` times the mean diagonal
    is added to ``hess`` (in place) and the factorization retried.  A
    system with an infinite or NaN entry raises ``ValueError``.
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
            kkt_residual=0.0,
            trace=[],
        )

    if z0 is None:
        z = np.full(n, budget / n)
    else:
        z = check_sensor_vector(z0, n, budget=budget).astype(float).copy()
        if np.any(z <= 0) or np.any(z >= 1):
            raise ValueError("z0 must be strictly interior to the box")

    m_ineq = 2 * n
    t = BARRIER_T0
    h_val = evaluator.objective(z)

    trace: list[IterationRecord] = []
    iteration = 0
    kkt_residual = math.inf
    converged = False

    # The Monte-Carlo derivatives at z do not depend on t, so those of the
    # point a stage ends at carry over to the next stage's first step.
    derivatives = None
    for _outer in range(MAX_OUTER_ITERATIONS):
        final_stage = m_ineq / t < TOLERANCE
        for _inner in range(MAX_NEWTON_ITERATIONS):
            if derivatives is None:
                derivatives = evaluator.gradient_hessian(z)
            grad_h, hess_h = derivatives
            grad_phi = -1.0 / z + 1.0 / (1.0 - z)
            hess_phi = 1.0 / z**2 + 1.0 / (1.0 - z) ** 2
            grad_t = t * grad_h + grad_phi
            hess_t = t * hess_h
            hess_t[np.diag_indices_from(hess_t)] += hess_phi

            dz, w = _newton_direction(hess_t, grad_t)

            decrement_sq = max(float(-grad_t @ dz), 0.0)
            nu = w / t

            if not final_stage:
                if decrement_sq / 2.0 <= INTERMEDIATE_CENTERING:
                    break
            elif decrement_sq / 2.0 <= 1e-9 * t:
                # Final stage: center until the optimality certificate
                # itself passes, with a floor guarding against stalling
                # at the limits of double precision.
                kkt_residual = kkt_certificate(z, grad_h, nu)
                if kkt_residual <= 0.5 * TOLERANCE:
                    break
                if decrement_sq / 2.0 <= 1e-13 * t:
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
            derivatives = None
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

        # The final stage's centering computed the residual at this z.
        if final_stage and kkt_residual < TOLERANCE:
            converged = True
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
        converged=converged,
        kkt_residual=kkt_residual,
        trace=trace,
    )


def kkt_certificate(z: np.ndarray, grad: np.ndarray, nu: float) -> float:
    """Complementary-slackness residual at an interior point with equality multiplier nu.

    The bound multipliers absorb the signed stationarity residual,
    ``lam_lo = max(grad + nu, 0)`` and ``lam_hi = max(-(grad + nu), 0)``,
    so stationarity holds exactly and optimality is quantified by the
    largest of ``lam_lo * z`` and ``lam_hi * (1 - z)``, which shrinks like
    1/t along the barrier path.
    """
    signed = grad + nu
    lam_lo = np.maximum(signed, 0.0)
    lam_hi = np.maximum(-signed, 0.0)
    return float(max(np.max(lam_lo * z), np.max(lam_hi * (1.0 - z))))


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
