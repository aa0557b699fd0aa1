"""Elementary information matrices and the Monte-Carlo placement objective.

Placing a sensor at story ``i`` contributes a 5x5 information matrix
``Q_i = sum_n g_{n,i} g_{n,i}^T`` built from the response sensitivities
``g_{n,i} = d x_i(t_n) / d theta``.  For a placement weight vector ``z``
the information matrix is ``Q(z) = sum_i z_i Q_i`` and the objective to
minimize is the negated expected log-determinant over the prior,
estimated by a sample mean with fixed summation order.

Reductions across samples run in fixed sample order.  The BLAS-backed
contractions are each in an orientation whose result was bitwise
identical at 1, 2 and 8 BLAS threads at the sizes the tests check: every
output entry is one short sum within one sample (or one mode), so a BLAS
thread split can only divide the outputs between threads, never the sum
behind one of them.  The mode-to-story gemm is the exception on short
records: at 50 and 80 stories it is not thread-invariant at 100 and 300
steps (README, "Determinism").

- The elementary matrices take two passes per block of
  ``max(1, ROWS // n_dof)`` samples: ``building.sensitivity_coefficients``
  forms the block's coefficients with elementwise arithmetic only, then
  ``building.response_sensitivities`` runs per sample, with a batched
  matmul over modes (``K = 8``) and the mode-to-story gemm
  (``M = K = n_dof``).  Each sample's coefficients are the same bits in
  any block, so the result does not depend on ``ROWS``.
- ``_assemble_all`` forms ``Q(z)`` for every sample, as the objective and
  the Newton step need it, with one batched matmul over stories
  (``K = n_dof`` within each sample).
- ``_cholesky_all`` factors every sample's ``Q(z)``, for the objective's
  log-determinant, the Newton step's whitening and the preflight check,
  and the Newton step inverts the factors.  Both treat each of the 25
  entries as one vector over the samples and use elementwise arithmetic
  only, so no BLAS or LAPACK call and no thread count enters.
- The Newton step's gradient and Hessian (``mc_gradient_hessian``) come
  from per-sample batched matmuls with an inner dimension of at most 15,
  summed in sample order over blocks of the fixed size ``SAMPLE_BLOCK``.

``tests/test_thread_invariance.py`` checks all of them at benchmark sizes
and holds the modal contraction, the mode-to-story map and the assembly
to the non-BLAS ``einsum`` each docstring names as its fallback;
``tests/test_fim.py`` keeps the two-``einsum`` whitening as the Newton
step's fallback.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .building import (
    N_PARAMS, ShearBuildingModel, response_sensitivities, sensitivity_buffers,
    sensitivity_coefficients,
)
from .priors import SampleSet


class SingularInformationError(RuntimeError):
    """An information matrix required to be positive definite is not.

    Attributes
    ----------
    sample_index : int or None
        Index of the first offending prior sample, when known.
    label : str or None
        Label of the offending configuration, when known.
    """

    def __init__(self, message: str, sample_index: int | None = None, label: str | None = None):
        super().__init__(message)
        self.sample_index = sample_index
        self.label = label


@dataclass(frozen=True)
class ElementaryFimSet:
    """Per-sample, per-story elementary information matrices.

    ``matrices`` has shape (n_samples, n_dof, 5, 5); entry ``[k, i]`` is
    the symmetric PSD contribution of a sensor at story ``i`` under prior
    sample ``k``.  Pure precomputation: nothing downstream recomputes
    sensitivities.
    """

    matrices: np.ndarray

    @property
    def n_samples(self) -> int:
        return self.matrices.shape[0]

    @property
    def n_dof(self) -> int:
        return self.matrices.shape[1]

    @property
    def n_params(self) -> int:
        return self.matrices.shape[2]


# Mode-rows (samples times stories) whose sensitivity coefficients are
# computed in one pass: 64 samples at 4 stories, 5 at 50.  Counted in
# rows, not samples, so that the pass's temporaries (a few dozen arrays of
# ROWS floats) stay small at any height.
ROWS = 256


def compute_elementary_set(
    model: ShearBuildingModel, samples: SampleSet, times
) -> ElementaryFimSet:
    """Precompute elementary matrices for every prior sample.

    Two passes per block of ``max(1, ROWS // n_dof)`` samples: one
    ``building.sensitivity_coefficients`` call forms the modal constants
    and sensitivity coefficients of the whole block, then each sample's
    ``response_sensitivities`` builds its time bases, modal derivatives and
    story map from its coefficients, and its outer products follow.
    Samples run in order, and the result depends only on (model, samples,
    times).  Every sample's sensitivities are written into the same
    ``building.SensitivityBuffers``, allocated here once.
    """
    n_samples, n_dof = samples.n_samples, model.n_dof
    out = np.empty((n_samples, n_dof, N_PARAMS, N_PARAMS))
    buffers = sensitivity_buffers(n_dof, times)
    block = max(1, ROWS // n_dof)
    for start in range(0, n_samples, block):
        stop = min(start + block, n_samples)
        # Range-check every row before the pass, as one sample at a time would.
        thetas = [samples.parameters(k) for k in range(start, stop)]
        block_coefficients = sensitivity_coefficients(model, samples.values[start:stop])
        for k, theta, coefficients in zip(range(start, stop), thetas, zip(*block_coefficients)):
            sens = response_sensitivities(
                model, theta, times, buffers=buffers, coefficients=coefficients
            )
            # The sensitivities are stored (story, parameter, time): summing
            # along contiguous time keeps the einsum loop vectorised.
            story_major = sens.transpose(1, 2, 0)
            np.einsum("ipn,iqn->ipq", story_major, story_major, out=out[k])
            # The diagonal sums the squares of every sensitivity, so it is
            # finite exactly when they all are (and their squares do not overflow).
            if not np.all(np.isfinite(out[k])):
                raise FloatingPointError(f"non-finite sensitivities for sample {k}")
    out.setflags(write=False)
    return ElementaryFimSet(matrices=out)


def check_sensor_vector(z, n_dof: int, budget: int | None = None,
                        binary: bool = False) -> np.ndarray:
    """Validate a placement vector against box, budget and binary constraints."""
    z = np.asarray(z, dtype=float)
    if z.shape != (n_dof,):
        raise ValueError(f"placement vector must have shape ({n_dof},), got {z.shape}")
    if np.any(z < -1e-9) or np.any(z > 1 + 1e-9):
        raise ValueError("placement entries must lie in [0, 1]")
    if budget is not None and abs(z.sum() - budget) > 1e-9:
        raise ValueError(f"placement must sum to {budget}, got {z.sum():.12g}")
    if binary and np.any(np.minimum(np.abs(z), np.abs(1 - z)) > 1e-9):
        raise ValueError("placement vector is not binary")
    return z


def _assemble_all(z: np.ndarray, fimset: ElementaryFimSet) -> np.ndarray:
    """Information matrices ``Q(z) = sum_i z_i Q_i`` of every sample, shape (n_samples, 5, 5).

    One batched matmul over stories, ``z @ (n_samples, n_dof, 25)``: per
    sample, each entry is one sum of ``K = n_dof`` products.  Why that is
    thread-invariant is in the module docstring; the non-BLAS
    ``np.einsum("i,kipq->kpq", z, fimset.matrices)`` is the fallback.
    """
    n_samples, n_dof, n_params = fimset.n_samples, fimset.n_dof, fimset.n_params
    stacked = fimset.matrices.reshape(n_samples, n_dof, n_params * n_params)
    return (z @ stacked).reshape(n_samples, n_params, n_params)


# The entries above the diagonal of a 5x5 matrix.
_OFF_ROWS, _OFF_COLS = np.triu_indices(N_PARAMS, 1)


def _cholesky_all(
    q_all: np.ndarray,
    message: str = "information matrix for sample {} is not positive definite",
) -> np.ndarray:
    """Cholesky factors of a stack of matrices, naming the first failure.

    ``q_all`` has shape (n_samples, 5, 5).  It is transposed once to
    (5, 5, n_samples), so that each of its 25 entries is one vector over
    the samples, and factored column by column with elementwise
    arithmetic only: column ``j`` of every factor is the current column
    divided by the square root of its pivot, and its outer product is
    taken off the trailing block.  Returns ``L`` of shape
    (5, 5, n_samples), zero above the diagonal, with
    ``Q_k = L[:, :, k] L[:, :, k]^T``.

    A sample with a pivot that is not positive (NaN included) gets a NaN
    on its diagonal there, without a floating-point warning, and leaves
    the other samples alone.  The first such sample is reported by
    ``message.format(k)`` and in ``sample_index``.
    """
    n = q_all.shape[-1]
    chol = q_all.transpose(1, 2, 0).copy()
    with np.errstate(invalid="ignore", divide="ignore"):
        for j in range(n):
            column = chol[j:, j]
            column /= np.sqrt(column[0])
            if j + 1 < n:
                below = column[1:]
                chol[j + 1:, j + 1:] -= below[:, None] * below
    chol[_OFF_ROWS, _OFF_COLS] = 0.0
    diagonal = np.diagonal(chol)
    if not np.min(diagonal) > 0.0:  # NaN compares false
        k = int(np.argmin(np.all(diagonal > 0.0, axis=1)))
        raise SingularInformationError(message.format(k), sample_index=k)
    return chol


def _mean_logdet(q_all: np.ndarray) -> float:
    """Mean log-determinant of a stack of positive-definite matrices."""
    logdets = 2.0 * np.sum(np.log(np.diagonal(_cholesky_all(q_all))), axis=1)
    return float(np.mean(logdets))


def _check_z(z, fimset: ElementaryFimSet) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if z.shape != (fimset.n_dof,):
        raise ValueError(f"z must have shape ({fimset.n_dof},), got {z.shape}")
    return z


def mc_objective(z, fimset: ElementaryFimSet) -> float:
    """Monte-Carlo placement objective, the negated mean log-determinant.

    Lower is better; the reported "objective value" elsewhere is the
    negation of this.  Deterministic for a given (z, sample set): the
    per-sample terms are reduced in fixed sample order.
    """
    z = _check_z(z, fimset)
    return -_mean_logdet(_assemble_all(z, fimset))


def mc_objective_regularized(z, fimset: ElementaryFimSet, eps: float) -> float:
    """Objective with a ridge ``eps * I`` added per sample.

    Defined for any PSD combination, including rank-deficient ones; used
    only as a documented fallback for degenerate configurations.
    """
    z = _check_z(z, fimset)
    return -_mean_logdet(_assemble_all(z, fimset) + eps * np.eye(fimset.n_params))


def regularization_scale(fimset: ElementaryFimSet) -> float:
    """Ridge size for the regularized fallback: 1e-12 times the mean trace."""
    mean_trace = float(np.mean(np.einsum("kipp->ki", fimset.matrices)))
    return 1e-12 * mean_trace


# Samples whitened and contracted together.  A fixed constant, so the
# summation order, and with it every bit of the result, does not depend on
# the machine; 64 keeps the per-block Hessian terms at 64 * n_dof**2
# floats, about 1.3 MB at 50 stories.
SAMPLE_BLOCK = 64

# A symmetric 5x5 matrix packed as its diagonal, then its upper off-diagonal
# entries scaled by sqrt(2): the dot product of two packed matrices is
# their Frobenius inner product.
_PACK_ROWS = np.concatenate([np.arange(N_PARAMS), _OFF_ROWS])
_PACK_COLS = np.concatenate([np.arange(N_PARAMS), _OFF_COLS])
_PACK_WEIGHTS = np.concatenate([np.ones(N_PARAMS), np.full(_OFF_ROWS.size, np.sqrt(2.0))])


def mc_gradient_hessian(z, fimset: ElementaryFimSet) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Hessian of the Monte-Carlo objective with respect to z.

    With ``Q(z) = L_k L_k^T`` for sample k, the whitened elements
    ``W_ki = L_k^{-1} Q_i L_k^{-T}`` give gradient component
    ``-mean_k tr W_ki = -mean_k tr(Q^{-1} Q_i)`` and Hessian entry
    ``mean_k <W_ki, W_kj> = mean_k tr(Q^{-1} Q_i Q^{-1} Q_j)``, a symmetric
    PSD matrix.  One factorization per sample serves every story: the
    factors come from ``_cholesky_all`` and are inverted by forward
    substitution on ``L X = I``, column by column over the same (5, 5,
    n_samples) vectors, so both are elementwise.

    Samples are taken in blocks of ``SAMPLE_BLOCK``.  Within a block, two
    batched matmuls whiten the elements (per sample, ``M = 5 n_dof`` and
    ``K = 5``): ``Q_i L^{-T}``, transposed per story to ``L^{-1} Q_i`` by
    the symmetry of ``Q_i``, then times ``L^{-T}`` again.  Each ``W_ki`` is
    packed into 15 entries and one batched per-sample product
    ``X_k X_k^T`` (``K = 15``) gives the Hessian terms, which are summed in
    sample order.  Why this is thread-invariant is in the module
    docstring; ``whitened_elements_einsum`` in ``tests/test_fim.py`` is the
    non-BLAS fallback for the whitening.
    """
    z = _check_z(z, fimset)
    n_samples, n_dof, n_params = fimset.n_samples, fimset.n_dof, fimset.n_params
    chol = _cholesky_all(_assemble_all(z, fimset))
    # Contiguous right-hand operands: numpy's batched matmul over transposed
    # views took two to three times as long at 50 stories.  Entry (i, j) of
    # X = L^{-1} is written straight into entry (j, i) of the right-hand
    # operand X^T of every sample.
    chol_inv_t = np.zeros((n_samples, n_params, n_params))
    chol_inv = chol_inv_t.transpose(2, 1, 0)
    # X_jj = 1 / L_jj and X_ij = -(sum_{j <= l < i} L_il X_lj) / L_ii.
    for j in range(n_params):
        np.divide(1.0, chol[j, j], out=chol_inv[j, j])
        for i in range(j + 1, n_params):
            acc = chol[i, j] * chol_inv[j, j]
            for l in range(j + 1, i):
                acc += chol[i, l] * chol_inv[l, j]
            np.divide(acc, chol[i, i], out=chol_inv[i, j])
            np.negative(chol_inv[i, j], out=chol_inv[i, j])
    trace_sum = np.zeros(n_dof)
    hess_sum = np.zeros((n_dof, n_dof))
    for start in range(0, n_samples, SAMPLE_BLOCK):
        block = slice(start, start + SAMPLE_BLOCK)
        elems = fimset.matrices[block]
        b = elems.shape[0]
        half = elems.reshape(b, n_dof * n_params, n_params) @ chol_inv_t[block]
        half = half.reshape(b, n_dof, n_params, n_params).transpose(0, 1, 3, 2).copy()
        whitened = (half.reshape(b, n_dof * n_params, n_params) @ chol_inv_t[block]).reshape(
            b, n_dof, n_params, n_params
        )
        packed = whitened[:, :, _PACK_ROWS, _PACK_COLS] * _PACK_WEIGHTS
        trace_sum += np.sum(packed[:, :, :n_params], axis=(0, 2))
        hess_sum += np.sum(packed @ packed.transpose(0, 2, 1).copy(), axis=0)
    return -trace_sum / n_samples, hess_sum / n_samples


def preflight_check(fimset: ElementaryFimSet) -> None:
    """Reject sample sets whose full-support information matrix is singular.

    Verifies that the story-averaged matrix is positive definite for every
    sample; interior placement vectors then always yield PD matrices.
    """
    _cholesky_all(
        np.mean(fimset.matrices, axis=1),
        "sample {} is degenerate: its full-support information matrix is not "
        "positive definite",
    )


class CountingEvaluator:
    """Objective/derivative evaluator with exact invocation counters.

    The reported evaluation counts in placement reports come straight from
    these counters.
    """

    def __init__(self, fimset: ElementaryFimSet):
        self.fimset = fimset
        self.n_objective = 0
        self.n_gradient = 0

    def objective(self, z) -> float:
        # Counts completed evaluations: a PD failure propagates uncounted.
        value = mc_objective(z, self.fimset)
        self.n_objective += 1
        return value

    def objective_regularized(self, z, eps: float) -> float:
        value = mc_objective_regularized(z, self.fimset, eps)
        self.n_objective += 1
        return value

    def gradient_hessian(self, z) -> tuple[np.ndarray, np.ndarray]:
        self.n_gradient += 1
        return mc_gradient_hessian(z, self.fimset)

