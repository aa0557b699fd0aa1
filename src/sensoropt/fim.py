"""Elementary information matrices and the Monte-Carlo placement objective.

Placing a sensor at story ``i`` contributes a 5x5 information matrix
``Q_i = sum_n g_{n,i} g_{n,i}^T`` built from the response sensitivities
``g_{n,i} = d x_i(t_n) / d theta``.  For a placement weight vector ``z``
the information matrix is ``Q(z) = sum_i z_i Q_i`` and the objective to
minimize is the negated expected log-determinant over the prior,
estimated by a sample mean with fixed summation order.

Every reduction in this module uses ``einsum`` in its non-BLAS path.  The
elementary matrices rest on one BLAS-backed contraction, the mode-to-story
map in ``building.response_sensitivities``: a gemm of the mode shapes with
the modal derivatives with ``M = K = n_dof``, an orientation whose result
is bitwise identical at 1, 2 and 8 BLAS threads;
``tests/test_thread_invariance.py`` checks this at benchmark sizes.  Every
value therefore stays bit-reproducible regardless of BLAS thread counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .building import N_PARAMS, ShearBuildingModel, response_sensitivities
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


def elementary_matrices(sens: np.ndarray) -> np.ndarray:
    """Elementary information matrices from one sensitivity field.

    Parameters
    ----------
    sens : ndarray, shape (n_times, n_dof, 5)

    Returns
    -------
    ndarray, shape (n_dof, 5, 5)
        ``out[i] = sum_n sens[n, i, :] sens[n, i, :]^T``, symmetric PSD
        by construction.
    """
    sens = np.asarray(sens, dtype=float)
    if sens.ndim != 3 or sens.shape[2] != N_PARAMS:
        raise ValueError(f"expected shape (n_times, n_dof, {N_PARAMS}), got {sens.shape}")
    return np.einsum("nip,niq->ipq", sens, sens)


def compute_elementary_set(
    model: ShearBuildingModel, samples: SampleSet, times
) -> ElementaryFimSet:
    """Precompute elementary matrices for every prior sample.

    Samples are processed one at a time in order; the result depends only
    on (model, samples, times).
    """
    out = np.empty((samples.n_samples, model.n_dof, N_PARAMS, N_PARAMS))
    for k in range(samples.n_samples):
        sens = response_sensitivities(model, samples.parameters(k), times)
        if not np.all(np.isfinite(sens)):
            raise FloatingPointError(f"non-finite sensitivities for sample {k}")
        # The sensitivities are stored (story, parameter, time): summing
        # along contiguous time keeps the einsum loop vectorised.
        story_major = sens.transpose(1, 2, 0)
        out[k] = np.einsum("ipn,iqn->ipq", story_major, story_major)
    out.setflags(write=False)
    return ElementaryFimSet(matrices=out)


def check_sensor_vector(z, n_dof: int, budget: int | None = None, binary: bool = False,
                        atol: float = 1e-9) -> np.ndarray:
    """Validate a placement vector against box, budget and binary constraints."""
    z = np.asarray(z, dtype=float)
    if z.shape != (n_dof,):
        raise ValueError(f"placement vector must have shape ({n_dof},), got {z.shape}")
    if np.any(z < -atol) or np.any(z > 1 + atol):
        raise ValueError("placement entries must lie in [0, 1]")
    if budget is not None and abs(z.sum() - budget) > atol:
        raise ValueError(f"placement must sum to {budget}, got {z.sum():.12g}")
    if binary and np.any(np.minimum(np.abs(z), np.abs(1 - z)) > atol):
        raise ValueError("placement vector is not binary")
    return z


def assemble_q(z, elems: np.ndarray) -> np.ndarray:
    """Information matrix of a placement for one sample, Q(z) = sum_i z_i Q_i.

    Parameters
    ----------
    z : array of shape (n_dof,)
    elems : ndarray, shape (n_dof, 5, 5)
    """
    z = np.asarray(z, dtype=float)
    elems = np.asarray(elems, dtype=float)
    if z.ndim != 1 or elems.ndim != 3 or z.shape[0] != elems.shape[0]:
        raise ValueError(
            f"length mismatch: z has shape {z.shape}, elems has shape {elems.shape}"
        )
    return np.einsum("i,ipq->pq", z, elems)


def logdet_pd(q: np.ndarray) -> float:
    """Log-determinant of a symmetric positive-definite matrix via Cholesky."""
    try:
        chol = np.linalg.cholesky(q)
    except np.linalg.LinAlgError as exc:
        raise SingularInformationError(
            "information matrix is not positive definite"
        ) from exc
    return float(2.0 * np.sum(np.log(np.diagonal(chol))))


def _assemble_all(z: np.ndarray, fimset: ElementaryFimSet) -> np.ndarray:
    return np.einsum("i,kipq->kpq", z, fimset.matrices)


def _cholesky_all(q_all: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(q_all)
    except np.linalg.LinAlgError:
        for k in range(q_all.shape[0]):
            try:
                np.linalg.cholesky(q_all[k])
            except np.linalg.LinAlgError:
                raise SingularInformationError(
                    f"information matrix for sample {k} is not positive definite",
                    sample_index=k,
                ) from None
        raise  # unreachable: the batched failure must have a witness


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
    chol = _cholesky_all(_assemble_all(z, fimset))
    logdets = 2.0 * np.sum(np.log(np.einsum("kii->ki", chol)), axis=1)
    return float(-np.mean(logdets))


def mc_objective_regularized(z, fimset: ElementaryFimSet, eps: float) -> float:
    """Objective with a ridge ``eps * I`` added per sample.

    Defined for any PSD combination, including rank-deficient ones; used
    only as a documented fallback for degenerate configurations.
    """
    z = _check_z(z, fimset)
    q_all = _assemble_all(z, fimset) + eps * np.eye(fimset.n_params)
    chol = _cholesky_all(q_all)
    logdets = 2.0 * np.sum(np.log(np.einsum("kii->ki", chol)), axis=1)
    return float(-np.mean(logdets))


def regularization_scale(fimset: ElementaryFimSet) -> float:
    """Ridge size for the regularized fallback: 1e-12 times the mean trace."""
    mean_trace = float(np.mean(np.einsum("kipp->ki", fimset.matrices)))
    return 1e-12 * mean_trace


def _whitened_elements(z: np.ndarray, fimset: ElementaryFimSet) -> np.ndarray:
    """Per sample k and story i: L_k^{-1} Q_i L_k^{-T} with Q(z) = L_k L_k^T.

    One factorization per sample is reused for all stories.  The traces of
    these symmetric factors give the gradient; their pairwise Frobenius
    products give the Hessian.
    """
    chol = _cholesky_all(_assemble_all(z, fimset))
    chol_inv = np.linalg.inv(chol)
    half = np.einsum("kap,kipq->kiaq", chol_inv, fimset.matrices)
    return np.einsum("kiaq,kbq->kiab", half, chol_inv)


def mc_gradient(z, fimset: ElementaryFimSet) -> np.ndarray:
    """Gradient of the Monte-Carlo objective with respect to z.

    Component ``i`` is the negated mean of ``tr(Q(z)^{-1} Q_i)``, the
    Frobenius inner product of the two symmetric factors.
    """
    z = _check_z(z, fimset)
    chol = _cholesky_all(_assemble_all(z, fimset))
    chol_inv = np.linalg.inv(chol)
    q_inv = np.einsum("kpa,kpb->kab", chol_inv, chol_inv)
    traces = np.einsum("kpq,kipq->ki", q_inv, fimset.matrices)
    return -np.mean(traces, axis=0)


def mc_hessian(z, fimset: ElementaryFimSet) -> np.ndarray:
    """Hessian of the Monte-Carlo objective, a symmetric PSD matrix.

    Entry ``(p, q)`` is the mean of ``tr(Q^{-1} Q_q Q^{-1} Q_p)``.
    """
    z = _check_z(z, fimset)
    whitened = _whitened_elements(z, fimset)
    return np.einsum("kiab,kjab->ij", whitened, whitened) / fimset.n_samples


def mc_gradient_hessian(z, fimset: ElementaryFimSet) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Hessian sharing one factorization per sample."""
    z = _check_z(z, fimset)
    whitened = _whitened_elements(z, fimset)
    grad = -np.mean(np.einsum("kiaa->ki", whitened), axis=0)
    hess = np.einsum("kiab,kjab->ij", whitened, whitened) / fimset.n_samples
    return grad, hess


def preflight_check(fimset: ElementaryFimSet) -> None:
    """Reject sample sets whose full-support information matrix is singular.

    Verifies that the story-averaged matrix is positive definite for every
    sample; interior placement vectors then always yield PD matrices.
    """
    mean_q = np.mean(fimset.matrices, axis=1)
    try:
        np.linalg.cholesky(mean_q)
    except np.linalg.LinAlgError:
        for k in range(fimset.n_samples):
            try:
                np.linalg.cholesky(mean_q[k])
            except np.linalg.LinAlgError:
                raise SingularInformationError(
                    f"sample {k} is degenerate: its full-support information "
                    "matrix is not positive definite",
                    sample_index=k,
                ) from None


class CountingEvaluator:
    """Objective/derivative evaluator with exact invocation counters.

    The reported evaluation counts in placement reports come straight from
    these counters.
    """

    def __init__(self, fimset: ElementaryFimSet):
        self.fimset = fimset
        self.n_objective = 0
        self.n_gradient = 0
        self.n_hessian = 0

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
        self.n_hessian += 1
        return mc_gradient_hessian(z, self.fimset)


def save_elementary_npz(fimset: ElementaryFimSet, path) -> None:
    """Binary dump of the elementary matrices for offline inspection."""
    np.savez_compressed(path, matrices=fimset.matrices)


def load_elementary_npz(path) -> ElementaryFimSet:
    with np.load(path) as data:
        matrices = np.array(data["matrices"])
    matrices.setflags(write=False)
    return ElementaryFimSet(matrices=matrices)


def save_elementary_csv(fimset: ElementaryFimSet, path) -> None:
    """CSV dump keyed (sample, story, row, col), one matrix entry per line."""
    m = fimset.matrices
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("sample,story,row,col,value\n")
        for k in range(fimset.n_samples):
            for i in range(fimset.n_dof):
                for p in range(fimset.n_params):
                    for q in range(fimset.n_params):
                        fh.write(f"{k},{i + 1},{p},{q},{float(m[k, i, p, q])!r}\n")
