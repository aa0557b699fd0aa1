"""Elementary information matrices and the Monte-Carlo placement objective.

Placing a sensor at story ``i`` contributes a 5x5 information matrix
``Q_i = sum_n g_{n,i} g_{n,i}^T`` built from the response sensitivities
``g_{n,i} = d x_i(t_n) / d theta``.  For a placement weight vector ``z``
the information matrix is ``Q(z) = sum_i z_i Q_i`` and the objective to
minimize is the negated expected log-determinant over the prior,
estimated by a sample mean with fixed summation order.

The BLAS-backed contractions are each in an orientation whose result was
bitwise identical at 1, 2 and 8 BLAS threads at the sizes the tests
check: every output entry is one short sum within one sample (or one
mode), so a BLAS thread split can only divide the outputs between
threads, never the sum behind one of them.  The elementary stage does
not rely on that: it pins the BLAS to one thread while it runs
(``_one_blas_thread``, which the solver's Newton direction also holds).

- The elementary matrices take two passes per block of
  ``max(1, ROWS // n_dof)`` samples: ``building.sensitivity_coefficients``
  forms the block's coefficients with elementwise arithmetic only, then
  ``building.response_sensitivities`` runs per sample, with a batched
  matmul over modes (``K = 8``) and the mode-to-story gemm
  (``M = K = n_dof``).  Each sample's coefficients are the same bits in
  any block, so the result does not depend on ``ROWS``.  The gemm is not
  thread-invariant on short records (on two threads it gave other bits
  at 50 and 80 stories on 100, 300 and 1001 steps), which is why
  ``compute_elementary_set`` pins the BLAS to one thread; with the BLAS
  pinned, it shares the blocks out between Python threads, one per core,
  once the per-sample work reaches ``THREAD_WORK``.
- ``_outer_products`` takes each sample's ``Q_i`` with ``np.vecdot``, one
  BLAS ddot along time per entry.  The exception to "one short sum" is
  here: a ddot is one long sum, and OpenBLAS splits a ddot of more than
  10,000 elements between threads.  So each dot covers at most
  ``OUTER_CHUNK`` steps, and the chunks are added in order; the chunks
  keep the dots on one thread also where no BLAS pin is found.
- ``ElementaryFimSet.assemble`` forms ``Q(z)`` for every sample, for the
  objective, the Newton step and the solver's full-support check, with
  one gemv over stories: ``z`` times ``entries``, the (n_dof, 25 n_samples)
  entry-major array that the elementary stage writes and the set keeps as
  its only copy of the matrices, so that each output entry is one sum of
  ``K = n_dof`` products and the result is already the (5, 5, n_samples)
  stack the factor works on.  Each set assembles into one stack of its
  own, allocated once.
- ``_StackFactor.factor`` factors every sample's ``Q(z)`` in place, for
  the objective's log-determinant, the Newton step's whitening and the
  full-support check, and the Newton step inverts the factors.  Both treat
  each of the 25 entries as one vector over the samples and use
  elementwise arithmetic only, so no BLAS or LAPACK call and no thread
  count enters.
- The Newton step's derivatives (``mc_gradient_hessian``) reuse the
  factors its ``mc_objective`` call leaves in the stack, and come from
  per-sample batched matmuls with an inner dimension of at most 15,
  summed in sample order over blocks of the fixed size ``SAMPLE_BLOCK``.

``tests/test_thread_invariance.py`` checks all of them at benchmark sizes,
the stage's sensitivities on records of 7 to 1001 steps, and the outer
products at one, two and three chunks.  It holds the modal
contraction, the mode-to-story map and the assembly to the non-BLAS
``einsum`` each docstring names as its fallback.  ``tests/test_fim.py``
holds the outer products to theirs, and keeps the two-``einsum``
whitening as the Newton step's fallback.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading
from collections import deque

import numpy as np

from .building import (
    N_PARAMS, SensitivityBuffers, ShearBuildingModel, _is_count, response_sensitivities,
    sensitivity_buffers, sensitivity_coefficients,
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


# The entries above the diagonal of a 5x5 matrix.
_OFF_ROWS, _OFF_COLS = np.triu_indices(N_PARAMS, 1)

_NOT_PD = "information matrix for sample {} is not positive definite"


class _StackFactor:
    """An entry-major stack of 5x5 matrices, factored in place.

    ``stack`` has shape (5, 5, n_samples): each of the 25 entries is one
    vector over the samples.  The views of it that each column of the
    factor works on, and the factor's temporaries, are made here once, so
    that ``factor`` and ``mean_logdet`` allocate no array data.
    """

    def __init__(self, stack: np.ndarray):
        n, _, n_samples = stack.shape
        self.stack = stack
        # ``ElementaryFimSet.assemble`` writes into this view; the stack is C-contiguous.
        self.flat = stack.reshape(-1)
        self.diagonal = np.einsum("ppk->kp", stack)  # (n_samples, 5), a writable view
        self.pivot = np.empty(n_samples)
        update = np.empty((n - 1, n - 1, n_samples))
        self.columns = []
        for j in range(n):
            column = stack[j:, j]
            below = column[1:]
            m = n - 1 - j
            self.columns.append(
                (column, below[:, None], below, stack[j + 1:, j + 1:], update[:m, :m])
            )
        # The log-diagonal in the layout numpy gives np.log of ``diagonal``,
        # so that the per-sample sums add in the same order as that would.
        self.logs = np.empty((n, n_samples)).T
        self.logdets = np.empty(n_samples)

    def factor(self, message: str = _NOT_PD) -> np.ndarray:
        """Overwrite the lower triangle of ``stack`` with its Cholesky factors.

        Column by column with elementwise arithmetic only: column ``j`` of
        every factor is the current column divided by the square root of
        its pivot, and its outer product is taken off the trailing block.
        Afterwards ``Q_k = L_k L_k^T`` with ``L_k`` the lower triangle of
        ``stack[:, :, k]``; the entries above the diagonal are left over
        and are not read.

        A sample with a pivot that is not positive (NaN included) gets a
        NaN on its diagonal there, without a floating-point warning, and
        leaves the other samples alone.  The first such sample is reported
        by ``message.format(k)`` and in ``sample_index``.
        """
        pivot = self.pivot
        with np.errstate(invalid="ignore", divide="ignore"):
            for column, below_col, below, trailing, update in self.columns:
                np.sqrt(column[0], out=pivot)
                np.divide(column, pivot, out=column)
                if below.size:
                    np.multiply(below_col, below, out=update)
                    np.subtract(trailing, update, out=trailing)
        diagonal = self.diagonal
        if not np.minimum.reduce(diagonal, axis=None) > 0.0:  # NaN compares false
            k = int(np.argmin(np.all(diagonal > 0.0, axis=1)))
            raise SingularInformationError(message.format(k), sample_index=k)
        return self.stack

    def mean_logdet(self) -> float:
        """Mean log-determinant of the positive-definite matrices in ``stack``.

        Factors the stack first.  ``sum_p log L_pp`` per sample, then the
        sum over samples in fixed order; the factor 2 is applied to that
        sum, where it is exact.
        """
        self.factor()
        np.log(self.diagonal, out=self.logs)
        np.add.reduce(self.logs, axis=1, out=self.logdets)
        return 2.0 * float(np.add.reduce(self.logdets)) / self.logdets.size


class ElementaryFimSet:
    """Per-sample, per-story elementary information matrices.

    ``matrices`` has shape (n_samples, n_dof, 5, 5); entry ``[k, i]`` is
    the symmetric PSD contribution of a sensor at story ``i`` under prior
    sample ``k``.  Pure precomputation: nothing downstream recomputes
    sensitivities.

    The set stores the matrices once, entry-major and read-only:
    ``entries`` has shape (n_dof, 25 n_samples), with ``entries[i, (5 p +
    q) n_samples + k] = matrices[k, i, p, q]``, so that ``z @ entries`` is
    the (5, 5, n_samples) stack of ``Q(z)`` that the factor works on, and
    ``matrices`` is a strided view of the same array.  A read-only
    ``matrices`` argument already laid out that way, such as the
    elementary stage's or another set's ``matrices``, is kept without a
    copy; any other array is copied into that layout once.

    Each set also owns one (5, 5, n_samples) stack with its factor's
    temporaries (``assemble``), and every objective call, Newton step and
    full-support check on the set reuses it: calls on one set are not
    thread-safe.  Sets compare by identity.  A set needs at least one
    sample, and any other shape than (n_samples, n_dof, 5, 5) is refused.
    """

    def __init__(self, matrices: np.ndarray):
        if matrices.ndim != 4 or matrices.shape[2:] != (N_PARAMS, N_PARAMS):
            raise ValueError(
                f"expected elementary matrices of shape (n_samples, n_dof, {N_PARAMS}, "
                f"{N_PARAMS}), got {matrices.shape}"
            )
        n_samples, n_dof = matrices.shape[:2]
        if n_samples < 1:
            raise ValueError("an elementary set needs at least one sample")
        stack = matrices.transpose(1, 2, 3, 0)
        if matrices.flags.writeable or not stack.flags.c_contiguous:
            stack = stack.copy()
            stack.setflags(write=False)
        self.n_samples, self.n_dof = n_samples, n_dof
        self.entries = stack.reshape(n_dof, -1)
        self.matrices = stack.transpose(3, 0, 1, 2)
        self._work = _StackFactor(np.empty((N_PARAMS, N_PARAMS, n_samples)))
        # The Newton step's inverse factors, transposed: only the entries
        # on and above the diagonal are ever written, so the rest stay zero.
        self._inverse_t = np.zeros((n_samples, N_PARAMS, N_PARAMS))

    def __reduce__(self):
        # Copies and pickles are built afresh from the matrices: a copied
        # stack would not share memory with copies of its views.  A shallow
        # copy shares the read-only matrices.
        return ElementaryFimSet, (self.matrices,)

    def assemble(self, z) -> _StackFactor:
        """Write every sample's ``Q(z) = sum_i z_i Q_i`` into the set's stack; return its factor.

        One gemv over stories, ``z @ entries``: each output entry is one
        sum of ``K = n_dof`` products.  Why that is thread-invariant is in
        the module docstring; the non-BLAS ``np.einsum("i,kipq->pqk", z,
        matrices)`` is the fallback.  The next call on the set overwrites
        the stack.
        """
        z = _as_placement(z, self.n_dof)
        np.matmul(z, self.entries, out=self._work.flat)
        return self._work


# Mode-rows (samples times stories) whose sensitivity coefficients are
# computed in one pass: 64 samples at 4 stories, 5 at 50.  Counted in
# rows, not samples, so that the pass's temporaries (a few dozen arrays of
# ROWS floats) stay small at any height.
ROWS = 256

# Time steps per ``np.vecdot`` call of the outer products.  OpenBLAS
# splits a ddot of more than 10,000 elements between threads, which
# changes its summation order; shorter dots run on one thread.
OUTER_CHUNK = 8192


def _outer_products(story_major: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``Q_i = sum_n g_{n,i} g_{n,i}^T`` of one sample, written into ``out`` (n_dof, 5, 5).

    ``story_major`` holds the sensitivities laid out (story, parameter,
    time).  Each entry is one BLAS ddot along contiguous time
    (``np.vecdot``), summed over chunks of ``OUTER_CHUNK`` steps in chunk
    order, so no dot is long enough for OpenBLAS to split it between
    threads.  ``(p, q)`` and ``(q, p)`` multiply the same pairs in the same
    order, so every ``Q_i`` is exactly symmetric.  The non-BLAS
    ``np.einsum("ipn,iqn->ipq", story_major, story_major)`` is the fallback.
    """
    rows, cols = story_major[:, :, None], story_major[:, None]
    np.vecdot(rows[..., :OUTER_CHUNK], cols[..., :OUTER_CHUNK], out=out)
    for start in range(OUTER_CHUNK, story_major.shape[-1], OUTER_CHUNK):
        chunk = slice(start, start + OUTER_CHUNK)
        out += np.vecdot(rows[..., chunk], cols[..., chunk])
    return out


# Per-sample work, ``n_dof * n_steps``, from which the elementary stage
# shares its blocks out between threads.  Below it the Python and numpy
# call overhead, which holds the GIL, outweighs a second thread.  On two
# cores, one thread against two: 4 stories x 1000 steps 128 vs 143 ms
# (1000 samples), 20 x 300 82 vs 87 ms, 8 x 1000 even, 80 x 100 64 vs
# 54 ms, and 50 x 1000 237 vs 138 ms (100 samples).
THREAD_WORK = 8_000

# BLAS thread-count controls, tried in order: (set, get).
_BLAS_THREAD_SYMBOLS = tuple(
    (f"{prefix}set_num_threads{suffix}", f"{prefix}get_num_threads{suffix}")
    for prefix in ("scipy_openblas_", "openblas_")
    for suffix in ("64_", "")
)


@functools.cache
def _blas_thread_control():
    """``(set, get)`` of the thread count of the BLAS numpy calls, or None.

    Looked up once per process, at first use, among the symbols that
    numpy's core extension module resolves (its own and its libraries'),
    so it is the BLAS that numpy's matmul calls.  None where no OpenBLAS
    control is found, for example with MKL or Accelerate.
    """
    try:
        library = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return None
    for set_name, get_name in _BLAS_THREAD_SYMBOLS:
        try:
            set_threads, get_threads = getattr(library, set_name), getattr(library, get_name)
        except AttributeError:
            continue
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        return set_threads, get_threads
    return None


# The BLAS thread count is one setting of the whole process, so its pin is
# shared: the holders currently inside ``_one_blas_thread``, and the count
# the first of them found.
_PIN_LOCK = threading.Lock()
_pin_holders = 0
_pin_saved = 1


@contextlib.contextmanager
def _one_blas_thread():
    """Pin the BLAS to one thread while any holder is inside; yields whether it could.

    Re-entrant across threads: the first holder saves the thread count and
    sets it to 1, and the last holder to leave restores it, so one
    thread's pin never ends while another thread's is still held.
    """
    global _pin_holders, _pin_saved
    control = _blas_thread_control()
    if control is None:
        yield False
        return
    set_threads, get_threads = control
    with _PIN_LOCK:
        if not _pin_holders:
            _pin_saved = get_threads()
            set_threads(1)
        _pin_holders += 1
    try:
        yield True
    finally:
        with _PIN_LOCK:
            _pin_holders -= 1
            if not _pin_holders:
                set_threads(_pin_saved)


def _cores() -> int:
    """Cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def compute_elementary_set(
    model: ShearBuildingModel, samples: SampleSet, times
) -> ElementaryFimSet:
    """Precompute elementary matrices for every prior sample.

    Two passes per block of ``max(1, ROWS // n_dof)`` samples: one
    ``building.sensitivity_coefficients`` call forms the modal constants
    and sensitivity coefficients of the whole block, then each sample's
    ``response_sensitivities`` builds its time bases, modal derivatives and
    story map from its ``(rate, coef)`` pair, and its outer products follow
    (``_outer_products``).  A block whose matrices are not all finite
    raises ``FloatingPointError`` naming its first such sample.

    The BLAS is pinned to one thread for the stage and its thread count
    restored afterwards, so every contraction runs on one thread whatever
    the environment asks for.  Where the per-sample work ``n_dof * n_steps``
    is at least ``THREAD_WORK``, one thread per core, the calling thread
    among them, takes block indices from the front of a queue that holds
    them in order, until the queue is empty or a block has failed; each
    writes only its own samples' slices of the set's entry-major array,
    from sensitivity buffers of its own, and a sample's bits do not depend
    on the thread that computes it.
    Below that work, on one core, or where no BLAS thread control is found,
    the calling thread takes every block in order alone.  Either way the
    result depends only on (model, samples, times).  The queue is first in,
    first out, so every block below a failed one has been taken and is
    finished, and the error raised, that of the lowest failing block, is
    the one of the first failing sample.  The pin is shared by the whole
    process: stages run at the same time from two threads of the caller's
    both run pinned, and the last to finish restores the caller's count.
    """
    n_samples, n_dof = samples.n_samples, model.n_dof
    # The set's only copy of the matrices, entry-major (``ElementaryFimSet``).
    # Threads on neighbouring blocks can write the same cache lines (one
    # holds 8 samples of an entry); at 50 stories, 5 samples a block, the
    # threaded stage on two cores measured no slower than with a
    # sample-major array (145 vs 152 ms at 100 samples x 1000 steps).
    stack = np.empty((n_dof, N_PARAMS, N_PARAMS, n_samples))
    block = max(1, ROWS // n_dof)
    n_blocks = -(-n_samples // block)
    # ``popleft`` is thread-safe.  A ``queue.SimpleQueue`` would do the same,
    # but importing ``queue`` (with ``heapq`` and ``_queue``) added about
    # 0.1 MB to small-building's peak RSS.
    blocks = deque(range(n_blocks))
    failures = []  # (block, error)

    def fill(index: int, buffers: SensitivityBuffers) -> None:
        start = index * block
        coefficients = sensitivity_coefficients(model, samples.values[start:start + block])
        for k, sample in enumerate(zip(*coefficients), start):
            sens = response_sensitivities(model, sample, times, buffers=buffers)
            # The sensitivities are stored (story, parameter, time).
            _outer_products(sens.transpose(1, 2, 0), stack[..., k])
        # A diagonal sums the squares of its story's sensitivities, so a
        # sample's matrices are finite exactly when all its sensitivities are
        # (and their squares do not overflow).  Checked once per block.
        finite = np.isfinite(stack[..., start:start + block]).all(axis=(0, 1, 2))
        if not finite.all():
            k = start + int(np.argmin(finite))
            raise FloatingPointError(f"non-finite sensitivities for sample {k}")

    def work(buffers: SensitivityBuffers) -> None:
        while not failures:
            try:
                index = blocks.popleft()
            except IndexError:
                return
            try:
                fill(index, buffers)
            except BaseException as error:
                # Kept and raised below, after every thread has stopped: an
                # exception left to end a thread would lose its block.
                failures.append((index, error))

    # The calling thread works too, and allocates every thread's buffers,
    # because each further thread that allocates does so in a malloc arena
    # of its own.  On two cores a thread pool beside an idle caller raised
    # fifty-story's peak RSS from 49.4-49.7 to 50.8-51.2 MB, and buffers
    # allocated inside the helpers raised it by about 4.5 MB.
    buffers = sensitivity_buffers(n_dof, times)
    with _one_blas_thread() as pinned:
        n_threads = 1
        if pinned and n_dof * buffers.story.shape[-1] >= THREAD_WORK:
            n_threads = min(_cores(), n_blocks)
        helpers = [
            threading.Thread(target=work, args=(sensitivity_buffers(n_dof, times),))
            for _ in range(n_threads - 1)
        ]
        for helper in helpers:
            helper.start()
        try:
            work(buffers)
        finally:
            for helper in helpers:
                helper.join()
    if failures:
        raise min(failures)[1]  # the blocks are distinct, so no errors are compared
    stack.setflags(write=False)
    return ElementaryFimSet(matrices=stack.transpose(3, 0, 1, 2))


def check_budget(budget: int, n_dof: int) -> None:
    """Reject a sensor count that is not an integer in ``1 <= budget <= n_dof``."""
    if not _is_count(budget):
        raise ValueError(f"budget must be an integer, got {budget!r}")
    if not 1 <= budget <= n_dof:
        raise ValueError(f"budget must satisfy 1 <= budget <= {n_dof}, got {budget}")


def _as_placement(z, n_dof: int) -> np.ndarray:
    """``z`` as a float array of shape (n_dof,); the objective's only check."""
    z = np.asarray(z, dtype=float)
    if z.shape != (n_dof,):
        raise ValueError(f"placement vector must have shape ({n_dof},), got {z.shape}")
    return z


def check_sensor_vector(z, n_dof: int, budget: int | None = None,
                        binary: bool = False) -> np.ndarray:
    """Validate a placement vector against box, budget and binary constraints.

    A vector checked as binary is returned rounded, so its entries are
    exactly the 0s and 1s the check accepted.
    """
    z = _as_placement(z, n_dof)
    # NaN would pass every comparison below.
    if not np.all(np.isfinite(z)):
        raise ValueError("placement entries must be finite")
    if np.any(z < -1e-9) or np.any(z > 1 + 1e-9):
        raise ValueError("placement entries must lie in [0, 1]")
    if budget is not None and abs(z.sum() - budget) > 1e-9:
        raise ValueError(f"placement must sum to {budget}, got {z.sum():.12g}")
    if binary and np.any(np.minimum(np.abs(z), np.abs(1 - z)) > 1e-9):
        raise ValueError("placement vector is not binary")
    return np.rint(z) if binary else z


def mc_objective(z, fimset: ElementaryFimSet) -> float:
    """Monte-Carlo placement objective, the negated mean log-determinant.

    Lower is better; the reported "objective value" elsewhere is the
    negation of this.  Deterministic for a given (z, sample set): the
    per-sample terms are reduced in fixed sample order.  ``Q(z)`` is
    assembled into the set's own stack and factored there, so calls on
    one set are not thread-safe.
    """
    return -fimset.assemble(z).mean_logdet()


def _ridged_objective(z, fimset: ElementaryFimSet, eps: float) -> float:
    # ``mc_objective_regularized``, under a name of its own that
    # ``CountingEvaluator.empty_value`` calls without counting an evaluation.
    work = fimset.assemble(z)
    work.diagonal += eps
    return -work.mean_logdet()


def mc_objective_regularized(z, fimset: ElementaryFimSet, eps: float) -> float:
    """Objective with a ridge ``eps * I`` added per sample.

    Defined for any PSD combination, including rank-deficient ones; used
    only as a documented fallback for degenerate configurations.
    """
    return _ridged_objective(z, fimset, eps)


def regularization_scale(fimset: ElementaryFimSet) -> float:
    """Ridge size for the regularized fallback: 1e-12 times the mean trace.

    The traces are laid out sample-major (``order="C"``), so that the mean
    adds them in the same order whatever the layout of ``matrices``.
    """
    mean_trace = float(np.mean(np.einsum("kipp->ki", fimset.matrices, order="C")))
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


def mc_gradient_hessian(z, fimset: ElementaryFimSet) -> tuple[float, np.ndarray, np.ndarray]:
    """Value, gradient and Hessian of the Monte-Carlo objective with respect to z.

    The value is ``mc_objective(z, fimset)``, which factors every sample's
    ``Q(z) = L_k L_k^T`` in place in the set's stack.  The whitened elements
    ``W_ki = L_k^{-1} Q_i L_k^{-T}`` give gradient component
    ``-mean_k tr W_ki = -mean_k tr(Q^{-1} Q_i)`` and Hessian entry
    ``mean_k <W_ki, W_kj> = mean_k tr(Q^{-1} Q_i Q^{-1} Q_j)``, a symmetric
    PSD matrix.  That one factorization per sample serves the value and
    every story: the factors are inverted by forward substitution on
    ``L X = I`` over the same (5, 5, n_samples) vectors, elementwise, into
    a second stack the set keeps.

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
    n_samples, n_dof = fimset.n_samples, fimset.n_dof
    value = mc_objective(z, fimset)
    chol = fimset._work.stack
    # Contiguous right-hand operands: numpy's batched matmul over transposed
    # views took two to three times as long at 50 stories.  Entry (i, j) of
    # X = L^{-1} is written straight into entry (j, i) of the right-hand
    # operand X^T of every sample.
    chol_inv_t = fimset._inverse_t
    chol_inv = chol_inv_t.transpose(2, 1, 0)
    # X_jj = 1 / L_jj and X_ij = -(sum_{j <= l < i} L_il X_lj) / L_ii.
    for j in range(N_PARAMS):
        np.divide(1.0, chol[j, j], out=chol_inv[j, j])
        for i in range(j + 1, N_PARAMS):
            acc = chol[i, j] * chol_inv[j, j]
            for l in range(j + 1, i):
                acc += chol[i, l] * chol_inv[l, j]
            np.divide(acc, chol[i, i], out=chol_inv[i, j])
            np.negative(chol_inv[i, j], out=chol_inv[i, j])
    trace_sum = np.zeros(n_dof)
    hess_sum = np.zeros((n_dof, n_dof))
    for start in range(0, n_samples, SAMPLE_BLOCK):
        block = slice(start, start + SAMPLE_BLOCK)
        elems = fimset.matrices[block]  # a strided view: the reshape below copies it
        b = elems.shape[0]
        half = elems.reshape(b, n_dof * N_PARAMS, N_PARAMS) @ chol_inv_t[block]
        half = half.reshape(b, n_dof, N_PARAMS, N_PARAMS).transpose(0, 1, 3, 2).copy()
        whitened = (half.reshape(b, n_dof * N_PARAMS, N_PARAMS) @ chol_inv_t[block]).reshape(
            b, n_dof, N_PARAMS, N_PARAMS
        )
        packed = whitened[:, :, _PACK_ROWS, _PACK_COLS] * _PACK_WEIGHTS
        trace_sum += np.sum(packed[:, :, :N_PARAMS], axis=(0, 2))
        hess_sum += np.sum(packed @ packed.transpose(0, 2, 1).copy(), axis=0)
    return value, -trace_sum / n_samples, hess_sum / n_samples


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

    @functools.cached_property
    def eps(self) -> float:
        """The ridge of ``score``'s fallback, computed once per evaluator."""
        return regularization_scale(self.fimset)

    @functools.cached_property
    def empty_value(self) -> float:
        """``score`` of the empty configuration, bit for bit, computed once and not counted."""
        return -_ridged_objective(np.zeros(self.fimset.n_dof), self.fimset, self.eps)

    def score(self, delta) -> tuple[float, bool]:
        """Value (the negated objective) of a binary configuration, and whether it is exact.

        The exact objective scores a configuration with a sensor; the ridge
        fallback, ``eps I`` added to every sample's matrix, scores the empty
        configuration and one that is singular in some sample.  Each call is
        one counted evaluation.
        """
        z = np.asarray(delta, dtype=float)
        if z.any():
            try:
                return -self.objective(z), True
            except SingularInformationError:
                pass
        value = mc_objective_regularized(z, self.fimset, self.eps)
        self.n_objective += 1
        return -value, False

    def gradient_hessian(self, z) -> tuple[float, np.ndarray, np.ndarray]:
        self.n_objective += 1
        self.n_gradient += 1
        return mc_gradient_hessian(z, self.fimset)

