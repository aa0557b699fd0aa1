"""Shear-building structural model and its closed-form dynamic response.

The model is a lumped-mass chain with normalized mass/stiffness pattern
matrices.  Under classical (Rayleigh) damping and sinusoidal ground
acceleration every mode behaves as an independent driven, damped
oscillator, so the displacement response and its derivatives with respect
to the uncertain system parameters are available in closed form.

Uncertain parameters, in fixed order:

==========  =====================================================
name        meaning
==========  =====================================================
``omega0``  nominal natural-frequency scale, rad/s
``alpha``   mass-proportional damping coefficient, 1/s
``beta``    stiffness-proportional damping coefficient, s
``omega``   ground-excitation frequency, rad/s
``a0``      ground-acceleration amplitude, m/s^2
==========  =====================================================

The uniform building's mode shapes and frequencies are known in closed
form (``build_uniform_shear_model``), so no eigensolver runs.

The response and its sensitivities come from one path, in two passes.
``sensitivity_coefficients`` takes a block of parameter rows, shape
(B, 5), and forms the modal constants (``modal_constants``, after
range-checking the rows) and each mode's derivative coefficients over
eight time bases for the whole block at once; a single
``SystemParameters`` is a block of one, so every caller shares that
arithmetic.  The response is linear in ``a0``, so ``modal_response`` is
``a0`` times the ``a0`` derivative.  ``response_sensitivities`` then
turns one sample's coefficients into time series, one group of modes at
a time (``BASES_FLOATS``): it builds the group's time bases, on a
``TimeGrid`` from two short tables per row (``_damped_bases``), one row
for the forcing's ``sin(w t)`` and ``cos(w t)``, with the rate ``i w``,
and one per mode of the group for the damped bases, so no sine or cosine
runs over the record.  An arbitrary time array is evaluated directly,
and ``tests/test_building.py`` holds the two paths together.  The grid's
time vectors are computed once per ``TimeGrid``.  Two BLAS-backed
contractions follow: a batched matmul over the group's modes that forms
the modal derivatives from their coefficients (``K = 8``,
``_modal_sensitivities``), and, once every group is done, a gemm that
maps them to stories (``M = K = n_dof``).  The batched matmul is in an
orientation whose result was bitwise identical at 1, 2 and 8 BLAS
threads; the gemm was on records of 1000 steps, but not at 50 and 80
stories on 100, 300 or 1001 steps, so the elementary-matrix stage runs it
with the BLAS pinned to one thread.  ``tests/test_thread_invariance.py``
checks both at benchmark sizes and holds each to the non-BLAS ``einsum``
its docstring names as the fallback.  The second pass writes into
``SensitivityBuffers``, which the elementary-matrix stage
(``fim.compute_elementary_set``, in blocks of ``fim.ROWS`` mode-rows)
allocates once per thread, with each group's bases and table rows in the
memory that the story-major sensitivities later take (4 MB at 50 stories
on 1000 steps), and returns the sensitivities as a view of a story-major
(story, parameter, time) array, the layout in which the stage takes
their outer products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

PARAMETER_NAMES = ("omega0", "alpha", "beta", "omega", "a0")
N_PARAMS = len(PARAMETER_NAMES)


class UnsupportedDampingError(ValueError):
    """A mode is critically damped or overdamped (damping ratio >= 1).

    The closed-form response assumes oscillatory decay in every mode.
    """


@dataclass(frozen=True)
class SystemParameters:
    """Uncertain system parameters of the stochastic ground-motion model."""

    omega0: float
    alpha: float
    beta: float
    omega: float
    a0: float

    def __post_init__(self):
        _check_ranges(self.as_array()[None])

    def as_array(self) -> np.ndarray:
        return np.array([self.omega0, self.alpha, self.beta, self.omega, self.a0])


def _check_ranges(rows: np.ndarray) -> None:
    """Reject parameter rows, shape (B, 5), with a value outside its range.

    Every parameter must be finite, so NaN and infinities fail every
    check.  The error names the first failing row's first failing
    parameter in the order below, as for that row on its own.
    """
    omega0, alpha, beta, omega, a0 = rows.T
    inf = math.inf
    checks = (
        ("omega0", "positive and finite", omega0, (omega0 > 0) & (omega0 < inf)),
        ("omega", "positive and finite", omega, (omega > 0) & (omega < inf)),
        ("alpha", "non-negative and finite", alpha, (alpha >= 0) & (alpha < inf)),
        ("beta", "non-negative and finite", beta, (beta >= 0) & (beta < inf)),
        ("a0", "finite", a0, np.isfinite(a0)),
    )
    valid = np.logical_and.reduce([ok for *_, ok in checks])
    if not valid.all():
        row = int(np.argmin(valid))
        name, requirement, values, _ = next(check for check in checks if not check[3][row])
        raise ValueError(f"{name} must be {requirement}, got {values[row]}")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform observation grid t_n = n * dt for n = 1..n_steps."""

    n_steps: int
    dt: float

    def __post_init__(self):
        if not _is_count(self.n_steps) or self.n_steps < 1:
            raise ValueError(f"n_steps must be a positive integer, got {self.n_steps!r}")
        # Written so that NaN fails the check.
        if not 0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")

    @cached_property
    def times(self) -> np.ndarray:
        """The times ``t_n``, computed once per grid and read-only."""
        return _read_only(self.dt * np.arange(1, self.n_steps + 1))

    @cached_property
    def table_times(self) -> np.ndarray:
        """The coarse table's times ``a m dt``, then the fine table's ``b dt``.

        See ``_damped_bases``; computed once per grid and read-only.
        """
        _, m = _grid_split(self.n_steps)
        coarse = self.dt * np.arange(0, self.n_steps + 1, m)
        return _read_only(np.concatenate([coarse, self.dt * np.arange(m)]))


def _is_count(n) -> bool:
    """Whether ``n`` is an integer, Python's or numpy's, and not a bool."""
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@dataclass(frozen=True, eq=False)
class ShearBuildingModel:
    """Normalized structural model with cached modal data.

    Attributes
    ----------
    n_dof : int
        Number of stories (lateral degrees of freedom).
    mass_pattern, stiffness_pattern : ndarray, shape (n_dof, n_dof)
        Symmetric positive-definite pattern matrices.  Physical matrices
        are uncertain scalars times these patterns; only the square-root
        ratio of the scalars (``omega0``) enters the response.
    eigenvalues : ndarray, shape (n_dof,)
        Dimensionless squared modal frequency factors, strictly ascending.
    eigenvectors : ndarray, shape (n_dof, n_dof)
        Mode shapes as columns, unit Euclidean norm, sign-canonicalized so
        the largest-magnitude entry of each column is positive.
    modal_masses, modal_stiffnesses : ndarray, shape (n_dof,)
        Diagonal entries of the modal mass/stiffness matrices.
    """

    n_dof: int
    mass_pattern: np.ndarray
    stiffness_pattern: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    modal_masses: np.ndarray
    modal_stiffnesses: np.ndarray


def build_uniform_shear_model(n_dof: int) -> ShearBuildingModel:
    """Build the uniform shear building with identity mass pattern.

    The stiffness pattern is tridiagonal with 2 on the diagonal (1 in the
    last entry, the free roof) and -1 on the off-diagonals.  Its
    eigenpairs are known in closed form: with
    ``theta_j = (2j - 1) pi / (2 n + 1)``, mode ``j`` has eigenvalue
    ``4 sin^2(theta_j / 2)`` and shape ``sin(i theta_j)`` at story ``i``.
    No eigensolver runs, so the modes do not depend on BLAS threading.

    Parameters
    ----------
    n_dof : int
        Number of stories, >= 1.  Story 1 is at the base, story
        ``n_dof`` is the roof.
    """
    if not _is_count(n_dof) or n_dof < 1:
        raise ValueError(f"n_dof must be a positive integer, got {n_dof!r}")
    n_dof = int(n_dof)

    mass = np.eye(n_dof)
    stiffness = 2.0 * np.eye(n_dof)
    stiffness[-1, -1] = 1.0
    idx = np.arange(n_dof - 1)
    stiffness[idx, idx + 1] = -1.0
    stiffness[idx + 1, idx] = -1.0

    if n_dof == 1:
        # Exact; the closed form below rounds sin(pi / 6) below 1/2.
        evals = np.array([1.0])
        vecs = np.array([[1.0]])
    else:
        # i theta_j is an integer multiple of 2 pi / period, reduced
        # modulo period in integers so the sine's argument stays below 2 pi.
        period = 2 * (2 * n_dof + 1)
        odd = 2 * np.arange(1, n_dof + 1) - 1
        evals = 4.0 * np.sin(odd * (np.pi / period)) ** 2
        multiples = np.multiply.outer(np.arange(1, n_dof + 1), odd) % period
        vecs = np.sin(multiples * (2.0 * np.pi / period))
    # Unit columns, each signed so that its largest-magnitude entry is
    # positive.  The columns are contiguous, which fixes the summation order
    # of their norms and the layout that every later contraction reads.
    vecs = np.asfortranarray(vecs)
    vecs = vecs / np.linalg.norm(vecs, axis=0)
    lead = np.argmax(np.abs(vecs), axis=0)
    vecs = vecs * np.sign(vecs[lead, np.arange(n_dof)])

    mu = np.einsum("ji,jk,ki->i", vecs, mass, vecs)
    kappa = np.einsum("ji,jk,ki->i", vecs, stiffness, vecs)
    for arr in (mass, stiffness, evals, vecs, mu, kappa):
        arr.setflags(write=False)
    return ShearBuildingModel(
        n_dof=n_dof,
        mass_pattern=mass,
        stiffness_pattern=stiffness,
        eigenvalues=evals,
        eigenvectors=vecs,
        modal_masses=mu,
        modal_stiffnesses=kappa,
    )


def _as_times(times) -> np.ndarray:
    if isinstance(times, TimeGrid):
        return times.times
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValueError(f"times must be a 1-D array, got shape {times.shape}")
    if times.size < 1:
        raise ValueError("times must hold at least one time, got an empty array")
    return times


def modal_constants(model: ShearBuildingModel, theta):
    """Per-mode frequency, damping ratio, damped frequency and forcing amplitude.

    ``theta`` is one ``SystemParameters`` or a block of parameter rows,
    shape (B, 5) in ``PARAMETER_NAMES`` order (``SampleSet.values[a:b]``).
    A block is computed in one pass; one ``SystemParameters`` is the
    block of its one row.

    Returns
    -------
    (omega_j, zeta_j, omega_dj, a_j) : tuple of ndarray
        Each of shape (n_dof,) for one ``SystemParameters``, (B, n_dof)
        for a block.

    Raises
    ------
    ValueError
        If a row is out of range, or ``UnsupportedDampingError`` if a mode
        has damping ratio >= 1, checked in that order.  The first failing
        sample of a block is reported as it would be on its own.
    """
    if isinstance(theta, SystemParameters):
        return tuple(c[0] for c in modal_constants(model, theta.as_array()[None]))
    rows = np.asarray(theta, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != N_PARAMS:
        raise ValueError(f"expected parameter rows of shape (B, {N_PARAMS}), got {rows.shape}")
    _check_ranges(rows)
    omega0, alpha, beta, _, a0 = rows.T[:, :, None]  # (B, 1) columns
    cj = np.sqrt(model.eigenvalues)
    wj = cj * omega0
    zj = (alpha + beta * wj**2) / (2.0 * wj)
    over = zj >= 1.0
    if np.any(over):
        zb = zj[np.argmax(np.any(over, axis=1))]
        worst = int(np.argmax(zb))
        raise UnsupportedDampingError(
            f"mode {worst + 1} has damping ratio {zb[worst]:.6g} >= 1; "
            "the closed-form response requires underdamped modes"
        )
    wd = wj * np.sqrt(1.0 - zj**2)
    participation = model.eigenvectors.sum(axis=0)  # Phi^T 1
    aj = -(a0 / model.modal_masses) * participation
    return wj, zj, wd, aj


class SensitivityBuffers(NamedTuple):
    """Arrays that ``response_sensitivities`` writes its stages into.

    ``compute_elementary_set`` allocates them once per thread and passes
    them to every sample's call there, so the per-sample arrays are neither
    allocated nor page-faulted afresh; every other caller leaves them out
    and gets fresh ones.  Each call rewrites all of them before it reads
    them.  The bases are built, and the modal derivatives formed from them,
    for one group of modes at a time (``_grouped_bases``), each group from
    its own table rows.  A group's ``bases`` and then its table rows,
    ``damped``, lie in the memory of ``story``, which the story map writes
    only once every group is done.
    """

    damped: np.ndarray  # complex (group + 1, table length), one group's _damped_bases
    bases: np.ndarray  # (group, 8, n_times), one group's bases
    modal: np.ndarray  # (n_dof, 5, n_times), as from _modal_sensitivities
    story: np.ndarray  # (n_dof, 5, n_times), story-major sensitivities


class SensitivityCoefficients(NamedTuple):
    """The per-sample inputs of ``response_sensitivities`` for B samples.

    ``zip(*coefficients)`` yields each sample's ``(rate, coef)`` pair, a
    form of one sample that ``response_sensitivities`` takes as ``theta``.
    """

    rate: np.ndarray  # complex (B, n_dof + 1): see sensitivity_coefficients
    coef: np.ndarray  # (B, n_dof, 5, 8): coef[s, j, p] @ bases[j] is dq_j/d theta_p


def _grid_split(n_steps: int) -> tuple[int, int]:
    """Coarse and fine table lengths of ``_damped_bases`` on a grid of ``n_steps``."""
    fine = math.isqrt(n_steps) + 1
    return n_steps // fine + 1, fine


# Floats of time bases built in one pass, 1.6 MB: 25 modes on 1000 steps,
# so that the 50-story building takes two groups of modes and the 4-story
# building or a 100-step record one.
BASES_FLOATS = 200_000


def sensitivity_buffers(n_dof: int, times) -> SensitivityBuffers:
    """Uninitialized ``SensitivityBuffers`` for ``n_dof`` stories on ``times``.

    A group holds ``BASES_FLOATS // (8 n_times)`` modes, at least one.
    """
    if isinstance(times, TimeGrid):
        n_times = times.n_steps
        table = math.prod(_grid_split(n_times))
    else:
        n_times = table = _as_times(times).size
    group = min(n_dof, max(1, BASES_FLOATS // (8 * n_times)))
    size = N_PARAMS * n_dof * n_times
    bases, rows = 8 * group * n_times, 2 * table * (group + 1)
    story = np.empty(max(size, bases + rows))
    return SensitivityBuffers(
        damped=story[bases : bases + rows].view(complex).reshape(group + 1, table),
        bases=story[:bases].reshape(group, 8, n_times),
        modal=np.empty((n_dof, N_PARAMS, n_times)),
        story=story[:size].reshape(n_dof, N_PARAMS, n_times),
    )


def _damped_bases(rate: np.ndarray, times, out: np.ndarray) -> np.ndarray:
    """``exp(rate_r t)`` for each complex rate ``rate_r``, shape (rate.size, n_times).

    ``rate`` holds rows of ``SensitivityCoefficients.rate``: the
    forcing's ``i w``, whose imaginary and real parts are ``sin(w t)`` and
    ``cos(w t)``, and for mode ``j`` its ``-zeta_j w_j + i wd_j``, whose
    parts are the damped bases ``e sin(wd_j t)`` and ``e cos(wd_j t)``.
    On a ``TimeGrid`` each step is written ``n = a m + b`` with ``m =
    isqrt(n_steps) + 1``, and ``exp(rate t_n)`` is the product of a coarse
    table over ``a m dt`` and a fine table over ``b dt``
    (``TimeGrid.table_times``): about ``2 sqrt(n_steps)`` complex
    exponentials per row instead of ``n_steps``.  Every entry is the
    product of two directly evaluated values, not a recurrence, so its
    error does not grow with ``n`` and a row's bits do not depend on the
    rows beside it.  An arbitrary time array is evaluated directly.  The
    table is written into ``out`` (the leading rows of
    ``SensitivityBuffers.damped``); the result is a view of it.
    """
    if not isinstance(times, TimeGrid):
        np.multiply.outer(rate, _as_times(times), out=out)
        return np.exp(out, out=out)
    n_coarse, m = _grid_split(times.n_steps)
    factors = np.exp(np.multiply.outer(rate, times.table_times))
    coarse, fine = factors[:, :n_coarse], factors[:, n_coarse:]
    # Entry (a, b) of the product is step a m + b; step 0 is t = 0.
    np.multiply(coarse[:, :, None], fine[:, None, :], out=out.reshape(rate.size, n_coarse, m))
    return out[:, 1 : times.n_steps + 1]


def _grouped_bases(rate: np.ndarray, times, buffers: SensitivityBuffers):
    """Yield ``(modes, bases)`` for each group of modes of one sample, in order.

    ``rate`` is the sample's row of ``SensitivityCoefficients.rate``.  For
    each group, one ``_damped_bases`` call builds the table rows of the
    forcing and of the group's modes, and bases 0 to 3 are parts of them:
    the damped pair from each mode's row, and the forcing pair from the
    forcing row, broadcast over the modes, so no sine or cosine is taken
    over the record.  Bases 4 to 7 are then ``t`` times bases 0 to 3, in
    one multiply.  ``modes`` is the group's slice of the modes, and its
    bases, in ``buffers.bases``, are valid until the next group's are
    yielded.
    """
    t = _as_times(times)
    n_dof, group = rate.size - 1, buffers.bases.shape[0]
    for start in range(0, n_dof, group):
        modes = slice(start, min(start + group, n_dof))
        rows = np.concatenate([rate[:1], rate[1:][modes]])
        table = _damped_bases(rows, times, buffers.damped[: rows.size])
        bases = buffers.bases[: rows.size - 1]
        bases[:, 0] = table[1:].imag
        bases[:, 1] = table[1:].real
        bases[:, 2] = table[0].imag
        bases[:, 3] = table[0].real
        # Input and output share a buffer, so numpy may read bases 0 to 3
        # through a copy; the stage measured no slower than four multiplies
        # from the table at 4 and 50 stories.
        np.multiply(bases[:, :4], t, out=bases[:, 4:])
        yield modes, bases


def modal_response(model: ShearBuildingModel, theta: SystemParameters, times) -> np.ndarray:
    """Closed-form modal displacements under sinusoidal ground acceleration.

    Each mode solves ``q'' + 2 zeta_j w_j q' + w_j^2 q = a_j sin(w t)``
    with zero initial displacement and velocity.  The response is linear
    in ``a0``, and its derivative with respect to ``a0`` is the response's
    own closed form with ``a_j`` replaced by ``da_j/da0``
    (``sensitivity_coefficients``), so the response is ``a0`` times that
    row of the modal derivatives.

    Parameters
    ----------
    times : TimeGrid or 1-D array of evaluation times.

    Returns
    -------
    ndarray, shape (n_times, n_dof)
        Modal coordinate histories, one column per mode.
    """
    return theta.a0 * _modal_sensitivities(model, theta, times)[:, -1].T


def physical_response(model: ShearBuildingModel, q: np.ndarray) -> np.ndarray:
    """Map modal coordinates to story displacements, x = q Phi^T (row-wise)."""
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[1] != model.n_dof:
        raise ValueError(
            f"modal matrix must have shape (n_times, {model.n_dof}), got {q.shape}"
        )
    return np.einsum("nj,ij->ni", q, model.eigenvectors)


def sensitivity_coefficients(model: ShearBuildingModel, rows) -> SensitivityCoefficients:
    """Modal derivatives of B samples as coefficients over eight time bases.

    ``rows`` are parameter rows, shape (B, 5), as in ``modal_constants``;
    every array below is computed for the whole block at once.

    Mode ``j`` of sample ``s`` responds as ``q_j(t) = a_j / denom_j *
    sum_b bracket[b, s, j] * bases[j, b, t]`` over ``b < 4``: the bracket
    coefficients are ``(trans_sin, cross, detune, -cross)`` and the bases
    are ``e sin(wd_j t)``, ``e cos(wd_j t)``, ``sin(w t)`` and ``cos(w t)``
    with envelope ``e = exp(-zeta_j w_j t)``, the imaginary and real parts
    of ``exp(rate t)`` for the complex rates ``rate`` (``_damped_bases``).
    Bases 4 to 7 are ``t`` times bases 0 to 3.  Differentiating a basis
    gives ``t`` times a basis of the same mode: ``d/dx`` of the damped pair
    ``(e sin, e cos)`` is ``t`` times that pair decayed by ``d(zeta_j
    w_j)/dx`` and rotated by ``d(wd_j)/dx``, and ``d/dw`` of ``(sin(w t),
    cos(w t))`` is ``t`` times ``(cos(w t), -sin(w t))``.  Every derivative
    is therefore a per-mode coefficient vector over the eight bases, and
    the chain rule through ``(w_j, zeta_j, wd_j, a_j)`` and then ``theta``
    acts on those coefficients alone.  ``a_j`` is linear in ``a0``, so the
    ``a0`` row is the response's own bracket times ``da_j/da0 / denom_j``,
    and ``modal_response`` is ``a0`` times it.

    Returns
    -------
    SensitivityCoefficients
        ``rate[s]`` holds the forcing's ``i w``, exactly ``0 + i w``, then
        mode ``j``'s ``-zeta_j w_j + i wd_j`` at ``j + 1``.  ``coef[s, j,
        p] @ bases[j]`` is the derivative of mode ``j`` of sample ``s``
        with respect to parameter ``PARAMETER_NAMES[p]``, with ``bases[j]``
        mode ``j``'s time bases from ``_grouped_bases(rate[s], times,
        buffers)``.
    """
    rows = np.asarray(rows, dtype=float)
    wj, zj, wd, aj = modal_constants(model, rows)
    _, alpha, beta, w, _ = rows.T[:, :, None]  # (B, 1) columns
    # The forcing frequency's powers by Python's scalar pow.  numpy's array
    # power runs a SIMD kernel on CPUs with AVX-512 that rounds about 5 % of
    # cubes differently, and the upper stories' near-cancelling
    # sensitivities carry such last-bit changes into the reports.
    w2, w3 = (np.array([[x**p] for x in w[:, 0].tolist()]) for p in (2, 3))
    tilt = 2.0 * zj**2 - 1.0
    trans_sin = (w3 + wj**2 * w * tilt) / wd
    cross = 2.0 * zj * wj * w
    detune = wj**2 - w2
    denom = detune**2 + cross**2
    bracket = np.stack([trans_sin, cross, detune, -cross])
    zero = np.zeros_like(wj)
    sq = np.sqrt(1.0 - zj**2)

    # Partials of the per-mode constants, one row per x = (w_j, zeta_j, w).
    d_decay = np.stack([zj, wj, zero])  # of zeta_j w_j
    d_wd = np.stack([sq, -wj * zj / sq, zero])
    d_phase = np.stack([zero, zero, np.ones_like(wj)])  # of w
    d_trans = np.stack([
        (2.0 * wj * w * tilt - trans_sin * d_wd[0]) / wd,
        (4.0 * wj**2 * w * zj - trans_sin * d_wd[1]) / wd,
        (3.0 * w2 + wj**2 * tilt) / wd,
    ])
    d_cross = np.stack([2.0 * zj * w, 2.0 * wj * w, 2.0 * zj * wj])
    d_detune = np.stack([2.0 * wj, zero, np.broadcast_to(-2.0 * w, wj.shape)])
    d_denom = 2.0 * detune * d_detune + 2.0 * cross * d_cross

    # dq_j/dx = a_j/denom_j * [(d bracket - bracket d denom/denom) . B
    #                          + (the bases' own derivative) . t B]
    d_bracket = np.stack([d_trans, d_cross, d_detune, -d_cross], axis=1)
    d_bases = np.stack([
        -d_decay * trans_sin - d_wd * cross,
        d_wd * trans_sin - d_decay * cross,
        d_phase * cross,
        d_phase * detune,
    ], axis=1)
    d_wj, d_zeta, d_w = (aj / denom) * np.concatenate(
        [d_bracket - (d_denom / denom)[:, None] * bracket, d_bases], axis=1
    )

    cj = np.sqrt(model.eigenvalues)
    dz_dwj = beta / 2.0 - alpha / (2.0 * wj**2)
    # a_j is linear in a0, so this derivative stays defined at a0 = 0.
    daj_da0 = -model.eigenvectors.sum(axis=0) / model.modal_masses
    coef = np.stack([
        cj * (d_wj + d_zeta * dz_dwj),
        d_zeta / (2.0 * wj),
        d_zeta * (wj / 2.0),
        d_w,
        np.concatenate([bracket, np.zeros_like(bracket)]) * (daj_da0 / denom),
    ])  # (parameter, basis, sample, mode)
    rate = np.concatenate([1j * w, -zj * wj + 1j * wd], axis=1)
    return SensitivityCoefficients(rate, np.ascontiguousarray(coef.transpose(2, 3, 0, 1)))


def _modal_sensitivities(
    model: ShearBuildingModel, theta, times, buffers: SensitivityBuffers | None = None,
) -> np.ndarray:
    """Derivatives of the modal response, laid out (mode, parameter, time).

    ``theta`` is one sample, as in ``response_sensitivities``.  A batched
    matmul over modes, ``(group, 5, 8) @ (group, 8, n_times)`` for each
    group of ``_grouped_bases``, forms the time series from the sample's
    ``(rate, coef)`` pair of ``sensitivity_coefficients``; a mode's result
    does not depend on its group.  Each output entry is a sum of ``K = 8``
    products within one mode, so a BLAS thread split can only divide the
    outputs between threads, never the sum behind one of them;
    ``tests/test_thread_invariance.py`` checks it at 4, 50 and 80 stories.
    Should that test fail on another CPU, the non-BLAS
    ``np.einsum("jpb,jbn->jpn", coef[modes], bases)`` is the drop-in
    replacement.
    """
    if isinstance(theta, SystemParameters):
        theta = tuple(c[0] for c in sensitivity_coefficients(model, theta.as_array()[None]))
    if buffers is None:
        buffers = sensitivity_buffers(model.n_dof, times)
    rate, coef = theta
    for modes, bases in _grouped_bases(rate, times, buffers):
        np.matmul(coef[modes], bases, out=buffers.modal[modes])
    return buffers.modal


def response_sensitivities(
    model: ShearBuildingModel, theta, times, *, buffers: SensitivityBuffers | None = None,
) -> np.ndarray:
    """Derivatives of story displacements with respect to system parameters.

    ``theta`` is one sample: a ``SystemParameters``, computed as a block
    of one, or its ``(rate, coef)`` pair from ``sensitivity_coefficients``.

    The modal derivatives of ``_modal_sensitivities`` are mapped to stories
    by a gemm of the mode shapes ``(n_dof x n_dof)`` with the derivatives
    ``(n_dof x 5 n_times)``, so ``M = K = n_dof``.  In this orientation the
    result is bitwise identical at 1, 2 and 8 threads of OpenBLAS 0.3.31
    (Haswell kernels) on records of 1000 steps, whereas folding the map
    into the bases, one gemm ``(time x 8 n_dof) @ (8 n_dof x 5 stories)``,
    is not at 50 stories.  On records of 100, 300 and 1001 steps this
    orientation is not thread-invariant either at 50 and 80 stories, so
    ``fim.compute_elementary_set`` calls it with the BLAS pinned to one
    thread.  ``tests/test_thread_invariance.py`` checks the map at 4, 50
    and 80 stories.  Should that test fail on another CPU, the non-BLAS
    ``np.einsum("ij,jpn->ipn", model.eigenvectors, dq)`` is the drop-in
    replacement for the ``np.dot``.

    ``buffers`` (keyword only) are the ``SensitivityBuffers`` to write
    into; the result is then a view of ``buffers.story``, valid until the
    next call with the same buffers.  Left out, fresh ones are allocated.

    Returns
    -------
    ndarray, shape (n_times, n_dof, 5)
        ``out[n, i, p]`` is the derivative of story ``i``'s displacement
        at time ``t_n`` with respect to parameter ``PARAMETER_NAMES[p]``.
        It is a view of a contiguous (story, parameter, time) array.
    """
    if buffers is None:
        buffers = sensitivity_buffers(model.n_dof, times)
    dq = _modal_sensitivities(model, theta, times, buffers)
    n_dof = model.n_dof
    np.dot(model.eigenvectors, dq.reshape(n_dof, -1), out=buffers.story.reshape(n_dof, -1))
    return buffers.story.transpose(2, 0, 1)
