import copy
import dataclasses
import itertools
import math
import pickle
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from sensoropt import (
    Marginal,
    SampleSet,
    SingularInformationError,
    SystemParameters,
    TimeGrid,
    UnsupportedDampingError,
    baselines,
    build_uniform_shear_model,
    certify_or_repair,
    compute_elementary_set,
    default_prior,
    exhaustive,
    fim,
    fixed_configs,
    greedy_forward,
    mc_gradient_hessian,
    mc_objective,
    modal_constants,
    preflight_check,
    response_sensitivities,
    sample_prior,
    solve_relaxed,
    solver,
)
from sensoropt.fim import ElementaryFimSet

from conftest import random_feasible_z


def _fimset_from(matrices) -> ElementaryFimSet:
    m = np.asarray(matrices, dtype=float)
    return ElementaryFimSet(matrices=m)


def _symmetric(a) -> np.ndarray:
    """``a`` plus its transpose: an exactly symmetric array of 5x5 matrices."""
    return a + a.swapaxes(-1, -2)


# The entries of a 5x5 matrix that the set stores and assembles.
LOWER = fim._LOWER_ROWS, fim._LOWER_COLS


def _gradient(z, fimset):
    return mc_gradient_hessian(z, fimset)[1]


def _hessian(z, fimset):
    return mc_gradient_hessian(z, fimset)[2]


def whitened_elements_einsum(z, fimset: ElementaryFimSet) -> np.ndarray:
    """Per sample k and story i, L_k^{-1} Q_i L_k^{-T} with Q(z) = L_k L_k^T.

    The non-BLAS fallback for the whitening in ``mc_gradient_hessian``:
    two ``einsum`` contractions, whose result does not depend on BLAS
    threading on any CPU.
    """
    q_all = np.einsum("i,kipq->kpq", z, fimset.matrices)
    chol_inv = np.linalg.inv(np.linalg.cholesky(q_all))
    half = np.einsum("kap,kipq->kiaq", chol_inv, fimset.matrices)
    return np.einsum("kiaq,kbq->kiab", half, chol_inv)


def _diag5(*entries):
    q = np.eye(5)
    for idx, value in enumerate(entries):
        q[idx, idx] = value
    return q


def _elementary_from(monkeypatch, sens) -> np.ndarray:
    """Elementary matrices of one sample whose sensitivity field is ``sens``."""
    sens = np.asarray(sens, dtype=float)
    monkeypatch.setattr(
        fim, "response_sensitivities",
        lambda model, theta, times, *, buffers=None: sens,
    )
    model = build_uniform_shear_model(sens.shape[1])
    samples = sample_prior(default_prior(), 1, seed=0)
    return compute_elementary_set(model, samples, TimeGrid(sens.shape[0], 0.01)).matrices[0]


class TestElementaryMatrices:
    def test_zero_sensitivities(self, monkeypatch):
        assert np.all(_elementary_from(monkeypatch, np.zeros((10, 3, 5))) == 0.0)

    def test_single_step_outer_product(self, monkeypatch):
        g = np.array([1.0, -2.0, 0.5, 3.0, 0.0])
        q = _elementary_from(monkeypatch, g.reshape(1, 1, 5))[0]
        np.testing.assert_allclose(q, np.outer(g, g), rtol=0, atol=0)
        assert np.linalg.matrix_rank(q) == 1
        assert np.trace(q) == pytest.approx(np.dot(g, g))

    def test_non_finite_sensitivities_rejected(self, monkeypatch):
        sens = np.ones((10, 3, 5))
        sens[4, 1, 2] = np.nan
        with pytest.raises(FloatingPointError, match="sample 0"):
            _elementary_from(monkeypatch, sens)

    def test_first_non_finite_sample_of_a_block_is_named(self, monkeypatch):
        # Finiteness is checked once per block of samples; samples 5 and 7
        # share a block, and the earlier one is named.  The stage calls
        # response_sensitivities once per sample, in sample order.
        samples = sample_prior(default_prior(), 10, seed=0)
        assert samples.n_samples <= fim.ROWS // 4
        exact = fim.response_sensitivities
        call = itertools.count()

        def spoiled(model, theta, times, **kwargs):
            sens = exact(model, theta, times, **kwargs)
            if next(call) in (5, 7):
                sens[3, 1, 2] = np.nan
            return sens

        monkeypatch.setattr(fim, "response_sensitivities", spoiled)
        with pytest.raises(FloatingPointError, match="sample 5$"):
            compute_elementary_set(build_uniform_shear_model(4), samples, TimeGrid(50, 0.01))

    @pytest.mark.parametrize("n_dof", [4, 50, 80])
    def test_reused_buffers_match_allocating_path(self, n_dof):
        # The stage writes every sample into one set of buffers; running
        # the samples in reverse order as well catches a buffer entry that
        # one sample leaves over for the next.
        prior = dataclasses.replace(  # underdamped in every mode at 80 stories
            default_prior(), omega0=Marginal("lognormal", 2 * np.pi, 0.15)
        )
        samples = sample_prior(prior, 4, seed=5)
        model = build_uniform_shear_model(n_dof)
        grid = TimeGrid(1000, 0.01)
        expected = np.empty((samples.n_samples, n_dof, 5, 5))
        for k in range(samples.n_samples):
            sens = response_sensitivities(model, SystemParameters(*samples.values[k]), grid)
            fim._outer_products(sens.transpose(1, 2, 0), expected[k])
        forward = compute_elementary_set(model, samples, grid).matrices
        reverse = SampleSet(values=samples.values[::-1].copy(), seed=samples.seed)
        backward = compute_elementary_set(model, reverse, grid).matrices[::-1]
        np.testing.assert_array_equal(forward, expected)
        np.testing.assert_array_equal(backward, expected)

    @pytest.mark.parametrize("n_dof", [1, 4, 50, 80])
    def test_outer_products_match_non_blas_einsum(self, n_dof):
        # The einsum is the fallback named in fim._outer_products.  10,001
        # steps take two chunks of the chunked sum.  Off-diagonal entries
        # cancel, and the upper stories' entries can be as small as 1e-24,
        # where both sums are set by rounding, so each sample's error is
        # judged against sqrt(max_i Q_i,pp max_i Q_i,qq), not per entry.
        prior = dataclasses.replace(  # underdamped in every mode at 80 stories
            default_prior(), omega0=Marginal("lognormal", 2 * np.pi, 0.15)
        )
        samples = sample_prior(prior, 2, seed=8)
        model = build_uniform_shear_model(n_dof)
        for n_steps in (1, 7, 1000, 1001, 10_001):
            grid = TimeGrid(n_steps, 0.01)
            matrices = compute_elementary_set(model, samples, grid).matrices
            assert np.array_equal(matrices, matrices.transpose(0, 1, 3, 2))
            for k in range(samples.n_samples):
                sens = response_sensitivities(model, SystemParameters(*samples.values[k]), grid)
                story_major = sens.transpose(1, 2, 0)
                reference = np.einsum("ipn,iqn->ipq", story_major, story_major)
                top = np.max(np.einsum("ipp->ip", reference), axis=0)
                scale = np.sqrt(np.multiply.outer(top, top))
                error = np.max(np.abs(matrices[k] - reference), axis=0)
                assert np.all(error <= 1e-12 * scale), (n_steps, k, np.max(error / scale))

    @pytest.mark.parametrize("n_dof, n_samples, k", [(4, 150, 100), (50, 13, 7)])
    def test_block_boundaries(self, n_dof, n_samples, k):
        # The sensitivity coefficients are computed for blocks of samples.
        # The full set spans at least three blocks, and k is not a multiple
        # of the block, so the first k samples and the rest, each computed
        # alone, are split into blocks differently from the full set.
        block = max(1, fim.ROWS // n_dof)
        assert n_samples > 2 * block and k % block
        model = build_uniform_shear_model(n_dof)
        samples = sample_prior(default_prior(), n_samples, seed=6)
        grid = TimeGrid(200, 0.01)
        full = compute_elementary_set(model, samples, grid).matrices
        for part in (slice(None, k), slice(k, None)):
            alone = SampleSet(values=samples.values[part], seed=samples.seed)
            np.testing.assert_array_equal(
                compute_elementary_set(model, alone, grid).matrices, full[part]
            )

    def test_overdamped_sample_in_a_later_block(self):
        # The error names the first overdamped sample of its block, as
        # modal_constants does for that sample alone; a later sample of the
        # same block is damped more, so reporting the worst would differ.
        model = build_uniform_shear_model(4)
        block = fim.ROWS // 4
        values = sample_prior(default_prior(), 3 * block, seed=7).values.copy()
        first = block + block // 2
        values[first] = [1.0, 10.0, 0.0, 1.0, 1.0]
        values[first + 3] = [1.0, 20.0, 0.0, 1.0, 1.0]
        with pytest.raises(UnsupportedDampingError) as alone:
            modal_constants(model, SystemParameters(*values[first]))
        with pytest.raises(UnsupportedDampingError) as in_set:
            compute_elementary_set(model, SampleSet(values=values, seed=7), TimeGrid(100, 0.01))
        assert str(in_set.value) == str(alone.value)

    def test_against_brute_force_loop(self):
        model = build_uniform_shear_model(2)
        samples = sample_prior(default_prior(), 1, seed=3)
        grid = TimeGrid(100, 0.01)
        sens = response_sensitivities(model, SystemParameters(*samples.values[0]), grid)
        fast = compute_elementary_set(model, samples, grid).matrices[0]
        slow = np.zeros_like(fast)
        for i in range(2):
            for p in range(5):
                for q in range(5):
                    for n in range(100):
                        slow[i, p, q] += sens[n, i, p] * sens[n, i, q]
        np.testing.assert_allclose(fast, slow, rtol=1e-12)

    def test_symmetry_and_psd(self, four_dof_fimset):
        m = four_dof_fimset.matrices
        np.testing.assert_array_equal(m, np.swapaxes(m, -1, -2))
        eigs = np.linalg.eigvalsh(m.reshape(-1, 5, 5))
        traces = np.einsum("qpp->q", m.reshape(-1, 5, 5))
        assert np.all(eigs[:, 0] >= -1e-10 * traces)


def _stage(monkeypatch, model, samples, grid, threaded: bool) -> ElementaryFimSet:
    """The elementary stage on three threads whatever the record, or on one."""
    with monkeypatch.context() as patch:
        patch.setattr(fim, "THREAD_WORK", 0 if threaded else math.inf)
        patch.setattr(fim, "_cores", lambda: 3)
        return compute_elementary_set(model, samples, grid)


# Underdamped in every mode at 80 stories.
_TALL_PRIOR = dataclasses.replace(default_prior(), omega0=Marginal("lognormal", 2 * np.pi, 0.15))


@pytest.fixture
def blas_control():
    """The BLAS thread control; without one the stage never uses threads."""
    control = fim._blas_thread_control()
    if control is None:
        pytest.skip("no BLAS thread control: the elementary stage runs serially")
    return control


@pytest.mark.parametrize("files, cores", [
    ({}, 8),
    ({"cpu.max": "150000 100000\n"}, 2),
    ({"cpu.max": "max 100000\n"}, 8),
    ({"cpu.max": "1600000 100000\n"}, 8),
    ({"cpu/cpu.cfs_quota_us": "-1\n", "cpu/cpu.cfs_period_us": "100000\n"}, 8),
    ({"cpu/cpu.cfs_quota_us": "300000\n", "cpu/cpu.cfs_period_us": "100000\n"}, 3),
    ({"cpu/cpu.cfs_quota_us": "50000\n", "cpu/cpu.cfs_period_us": "100000\n"}, 1),
])
def test_cores_are_bounded_by_the_cpu_quota(monkeypatch, files, cores):
    # Eight cores in the affinity mask; the cgroup's quota, where one is
    # set, bounds them, rounded up.  cgroup v2 has cpu.max, v1 the pair.
    monkeypatch.setattr(fim.os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    monkeypatch.setattr(fim, "_read_cgroup", files.get)
    assert fim._cores() == cores


class TestThreadedStage:
    @pytest.mark.parametrize("n_dof, n_samples", [(4, 700), (50, 52), (80, 31)])
    def test_matches_the_serial_stage(self, monkeypatch, blas_control, n_dof, n_samples):
        # Three threads whatever the core count, with at least three blocks
        # each, the last one short, switching as often as they can; a block
        # lost, or written into another block's rows, would show.
        assert -(-n_samples // max(1, fim.ROWS // n_dof)) >= 9
        model = build_uniform_shear_model(n_dof)
        samples = sample_prior(_TALL_PRIOR, n_samples, seed=9)
        grid = TimeGrid(120, 0.01)
        exact = fim.response_sensitivities
        threads = set()

        def recorded(*args, **kwargs):
            threads.add(threading.get_ident())
            return exact(*args, **kwargs)

        serial = _stage(monkeypatch, model, samples, grid, threaded=False).matrices
        monkeypatch.setattr(fim, "response_sensitivities", recorded)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = _stage(monkeypatch, model, samples, grid, threaded=True).matrices
        finally:
            sys.setswitchinterval(interval)
        assert len(threads) > 1
        np.testing.assert_array_equal(threaded, serial)

    @pytest.mark.parametrize("fault", ["non-finite", "nan row", "overdamped"])
    def test_error_of_the_first_failing_sample(self, monkeypatch, blas_control, fault):
        # Blocks of 5 samples at 50 stories.  Sample 23 (block 4) has the
        # fault, and sample 41 (block 8) non-finite sensitivities.  Block 4
        # starts 50 ms late, so block 8 fails first, and the stage still
        # raises the serial stage's error, for sample 23.  The spoiled samples are
        # keyed by their values: the threads take them in no fixed order.
        model = build_uniform_shear_model(50)
        values = sample_prior(default_prior(), 50, seed=11).values.copy()
        spoiled = [values[41].copy()]
        if fault == "non-finite":
            spoiled.append(values[23].copy())
        elif fault == "nan row":
            values[23, 2] = np.nan
        else:
            values[23] = [1.0, 10.0, 0.0, 1.0, 1.0]
        coefficients, exact = fim.sensitivity_coefficients, fim.response_sensitivities
        spoiled_rates = coefficients(model, np.array(spoiled)).rate

        def late(model, rows):
            if any(np.array_equal(row, values[23], equal_nan=True) for row in rows):
                time.sleep(0.05)
            return coefficients(model, rows)

        def spoiling(model, theta, times, **kwargs):
            sens = exact(model, theta, times, **kwargs)
            if any(np.array_equal(theta[0], rate) for rate in spoiled_rates):
                sens[2, 1, 0] = np.nan
            return sens

        monkeypatch.setattr(fim, "sensitivity_coefficients", late)
        monkeypatch.setattr(fim, "response_sensitivities", spoiling)
        samples, grid = SampleSet(values=values, seed=11), TimeGrid(50, 0.01)
        with pytest.raises(Exception) as serial:
            _stage(monkeypatch, model, samples, grid, threaded=False)
        with pytest.raises(Exception) as threaded:
            _stage(monkeypatch, model, samples, grid, threaded=True)
        expected = {
            "non-finite": (FloatingPointError, "non-finite sensitivities for sample 23"),
            "nan row": (ValueError, "beta must be non-negative and finite, got nan"),
            "overdamped": (UnsupportedDampingError, "mode 1 has damping ratio"),
        }[fault]
        assert type(serial.value) is expected[0]
        assert str(serial.value).startswith(expected[1])
        assert type(threaded.value) is type(serial.value)
        assert str(threaded.value) == str(serial.value)

    def test_blas_thread_count_is_restored(self, monkeypatch, blas_control):
        # One BLAS thread inside the stage, the caller's count after it,
        # also when the stage raises.
        set_threads, get_threads = blas_control
        model = build_uniform_shear_model(50)
        samples = sample_prior(default_prior(), 12, seed=2)
        values = samples.values.copy()
        values[7, 0] = -1.0
        bad = SampleSet(values=values, seed=2)
        grid = TimeGrid(40, 0.01)
        exact = fim.response_sensitivities
        inside = []

        def recorded(*args, **kwargs):
            inside.append(get_threads())
            return exact(*args, **kwargs)

        monkeypatch.setattr(fim, "response_sensitivities", recorded)
        before = get_threads()
        try:
            set_threads(2)
            caller = get_threads()
            for threaded in (False, True):
                _stage(monkeypatch, model, samples, grid, threaded)
                assert get_threads() == caller
                with pytest.raises(ValueError, match="^omega0 must be"):
                    _stage(monkeypatch, model, bad, grid, threaded)
                assert get_threads() == caller
        finally:
            set_threads(before)
        assert set(inside) == {1}


@pytest.fixture
def fake_blas_count(monkeypatch):
    """A fake BLAS thread control at four threads; the list holds its count."""
    count = [4]

    def set_threads(n):
        count[0] = n

    monkeypatch.setattr(fim, "_blas_thread_control", lambda: (set_threads, lambda: count[0]))
    return count


def test_blas_pin_lasts_until_its_last_holder_leaves(fake_blas_count):
    # Two threads' pins overlap, and the first to take it leaves first: the
    # count stays at one while the other holds the pin, and the last holder
    # restores the count the first found.
    count = fake_blas_count
    entered, release = threading.Event(), threading.Event()

    def hold():
        with fim._one_blas_thread():
            entered.set()
            release.wait(10)

    helper = threading.Thread(target=hold)
    with fim._one_blas_thread() as pinned:
        assert pinned
        helper.start()
        assert entered.wait(10)
    try:
        assert count[0] == 1
    finally:
        release.set()
        helper.join(10)
    assert not helper.is_alive()
    assert count[0] == 4


def test_blas_pin_holds_under_many_threads(fake_blas_count):
    # More holders than cores, switching often: every holder sees one
    # thread, and the count the first holder found comes back at the end.
    count = fake_blas_count
    seen = []
    start = threading.Barrier(8)

    def hold():
        start.wait(10)
        for _ in range(1000):
            with fim._one_blas_thread():
                seen.append(count[0])

    holders = [threading.Thread(target=hold) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for holder in holders:
            holder.start()
        for holder in holders:
            holder.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(holder.is_alive() for holder in holders)
    assert len(seen) == 8 * 1000 and set(seen) == {1}
    assert count[0] == 4


BUDGET_CHECKS = {
    "solve_relaxed": solve_relaxed,
    "certify_or_repair": lambda fimset, k: certify_or_repair(np.full(4, 0.5), fimset, k),
    "greedy_forward": greedy_forward,
    "exhaustive": exhaustive,
    "fixed_configs": lambda fimset, k: fixed_configs(4, k),
}


@pytest.mark.parametrize("budget", [2.0, np.float64(2.0), True], ids=["float", "numpy-float", "bool"])
@pytest.mark.parametrize("name", BUDGET_CHECKS)
def test_budget_must_be_an_integer(monkeypatch, four_dof_fimset, name, budget):
    # Rejected before any evaluation.
    for module in (fim, solver, baselines):
        monkeypatch.setattr(module, "mc_objective", None)
    with pytest.raises(ValueError, match="budget must be an integer"):
        BUDGET_CHECKS[name](four_dof_fimset, budget)


def test_budget_out_of_range_keeps_its_message():
    with pytest.raises(ValueError, match=r"budget must satisfy 1 <= budget <= 4, got 5"):
        fim.check_budget(5, 4)
    fim.check_budget(np.int64(4), 4)


def test_elementary_set_needs_a_sample():
    with pytest.raises(ValueError, match="at least one sample"):
        compute_elementary_set(
            build_uniform_shear_model(4), SampleSet(np.empty((0, 5)), 0), TimeGrid(10, 0.01)
        )
    with pytest.raises(ValueError, match="at least one sample"):
        ElementaryFimSet(np.empty((0, 4, 5, 5)))


@pytest.mark.parametrize("n_params", [4, 6])
def test_elementary_set_is_five_by_five(n_params):
    # The derivative packing assumes 5 parameters: a 6 x 6 set would give
    # a wrong gradient without an error.
    rng = np.random.default_rng(0)
    roots = rng.standard_normal((2, 3, n_params, n_params))
    with pytest.raises(ValueError, match=r"shape \(n_samples, n_dof, 5, 5\)"):
        ElementaryFimSet(roots @ roots.transpose(0, 1, 3, 2))
    with pytest.raises(ValueError, match=r"shape \(n_samples, n_dof, 5, 5\)"):
        ElementaryFimSet(np.zeros((3, 5, 5)))


class TestAssembleQ:
    # Only the lower triangle of the stack is assembled.
    def test_zero_weights(self):
        fimset = _fimset_from([[np.eye(5), 2 * np.eye(5)]])
        assert np.all(fimset.assemble(np.zeros(2)).stack[LOWER] == 0.0)

    def test_one_hot(self):
        rng = np.random.default_rng(0)
        elems = _symmetric(rng.normal(size=(3, 5, 5)))
        fimset = _fimset_from([elems])
        one_hot = fimset.assemble(np.eye(3)[1]).stack[LOWER][:, 0]
        np.testing.assert_array_equal(one_hot, elems[1][LOWER])

    def test_linearity_midpoint(self):
        rng = np.random.default_rng(1)
        fimset = _fimset_from([_symmetric(rng.normal(size=(4, 5, 5)))])
        z1, z2 = rng.uniform(size=4), rng.uniform(size=4)
        mid = fimset.assemble((z1 + z2) / 2).stack[LOWER]
        avg = (fimset.assemble(z1).stack[LOWER] + fimset.assemble(z2).stack[LOWER]) / 2
        np.testing.assert_allclose(mid, avg, atol=1e-15 * np.max(np.abs(avg)))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mc_objective(np.ones(3), _fimset_from(np.zeros((1, 2, 5, 5))))


class TestLogdetPd:
    # The log-determinant of one sample at one story, through mc_objective.
    def test_identity(self):
        assert mc_objective(np.ones(1), _fimset_from([[np.eye(5)]])) == 0.0

    def test_diagonal_by_hand(self):
        # product of the diagonal: 120
        fimset = _fimset_from([[np.diag([1.0, 2.0, 3.0, 4.0, 5.0])]])
        assert -mc_objective(np.ones(1), fimset) == pytest.approx(4.787491742782046, rel=1e-12)

    def test_singular_rejected(self):
        q = np.diag([1.0, 1.0, 0.0, 1.0, 1.0])
        with pytest.raises(SingularInformationError):
            mc_objective(np.ones(1), _fimset_from([[q]]))


class TestMcObjective:
    def test_single_identity_sample(self):
        fimset = _fimset_from([[np.eye(5)]])
        assert mc_objective(np.ones(1), fimset) == 0.0

    def test_arithmetic_mean_of_logdets(self):
        # one sample with log det 2, one with log det 4 -> objective -3
        q_a = _diag5(math.exp(2.0))
        q_b = _diag5(math.exp(4.0))
        fimset = _fimset_from([[q_a], [q_b]])
        assert mc_objective(np.ones(1), fimset) == pytest.approx(-3.0, rel=1e-14)

    def test_independent_recomputation(self, four_dof_fimset):
        rng = np.random.default_rng(8)
        z = random_feasible_z(rng, 4, 2)
        fast = mc_objective(z, four_dof_fimset)
        matrices = four_dof_fimset.matrices
        total = 0.0
        for k in range(four_dof_fimset.n_samples):
            q = sum(z[i] * matrices[k, i] for i in range(4))
            sign, logdet = np.linalg.slogdet(q)
            assert sign > 0
            total += logdet
        slow = -total / four_dof_fimset.n_samples
        assert fast == pytest.approx(slow, rel=1e-12)

    def test_singular_sample_identified(self):
        good = _diag5(2.0)
        bad = np.zeros((5, 5))
        fimset = _fimset_from([[good], [bad], [good]])
        with pytest.raises(SingularInformationError) as excinfo:
            mc_objective(np.ones(1), fimset)
        assert excinfo.value.sample_index == 1

    def test_estimators_bit_reproducible(self, four_dof_fimset):
        rng = np.random.default_rng(9)
        z = random_feasible_z(rng, 4, 3)
        assert mc_objective(z, four_dof_fimset) == mc_objective(z, four_dof_fimset)
        _, grad, hess = mc_gradient_hessian(z, four_dof_fimset)
        _, grad_again, hess_again = mc_gradient_hessian(z, four_dof_fimset)
        assert np.array_equal(grad, grad_again)
        assert np.array_equal(hess, hess_again)


class TestMcGradient:
    def test_one_hot_identity(self):
        fimset = _fimset_from([[np.eye(5), 3 * np.eye(5)]])
        grad = _gradient(np.array([1.0, 0.0]), fimset)
        assert grad[0] == pytest.approx(-5.0, rel=1e-14)
        assert grad[1] == pytest.approx(-15.0, rel=1e-14)

    def test_equal_elements_give_equal_components(self):
        q = _diag5(2.0, 3.0)
        fimset = _fimset_from([[q, q, q]])
        grad = _gradient(np.full(3, 1.0 / 3.0), fimset)
        assert np.ptp(grad) == pytest.approx(0.0, abs=1e-12)

    def test_matches_finite_differences(self, four_dof_fimset):
        rng = np.random.default_rng(10)
        z = random_feasible_z(rng, 4, 2, mix=0.5)
        grad = _gradient(z, four_dof_fimset)
        h = 1e-6
        for i in range(4):
            zp, zm = z.copy(), z.copy()
            zp[i] += h
            zm[i] -= h
            fd = (mc_objective(zp, four_dof_fimset) - mc_objective(zm, four_dof_fimset)) / (2 * h)
            assert abs(grad[i] - fd) / abs(grad[i]) < 1e-6

    def test_permutation_equivariance(self, four_dof_fimset):
        rng = np.random.default_rng(11)
        z = random_feasible_z(rng, 4, 2, mix=0.4)
        perm = rng.permutation(4)
        permuted = ElementaryFimSet(matrices=four_dof_fimset.matrices[:, perm])
        np.testing.assert_allclose(
            _gradient(z[perm], permuted), _gradient(z, four_dof_fimset)[perm], rtol=1e-13
        )


class TestMcHessian:
    def test_identity_entries(self):
        fimset = _fimset_from([[np.eye(5)]])
        hess = _hessian(np.ones(1), fimset)
        assert hess[0, 0] == pytest.approx(5.0, rel=1e-14)

    def test_matches_finite_differences_of_gradient(self, four_dof_fimset):
        rng = np.random.default_rng(12)
        z = random_feasible_z(rng, 4, 2, mix=0.5)
        hess = _hessian(z, four_dof_fimset)
        h = 1e-6
        fd = np.zeros((4, 4))
        for i in range(4):
            zp, zm = z.copy(), z.copy()
            zp[i] += h
            zm[i] -= h
            fd[:, i] = (
                _gradient(zp, four_dof_fimset) - _gradient(zm, four_dof_fimset)
            ) / (2 * h)
        assert np.max(np.abs(hess - fd)) / np.max(np.abs(hess)) < 1e-4

    def test_positive_semidefinite_at_random_points(self, four_dof_fimset):
        rng = np.random.default_rng(13)
        for _ in range(10):
            z = random_feasible_z(rng, 4, int(rng.integers(1, 4)), mix=0.6)
            hess = _hessian(z, four_dof_fimset)
            np.testing.assert_allclose(hess, hess.T, rtol=1e-13)
            assert np.min(np.linalg.eigvalsh(hess)) >= -1e-8 * np.trace(hess)

    def test_bundle_matches_pieces(self, four_dof_fimset):
        rng = np.random.default_rng(14)
        z = random_feasible_z(rng, 4, 2, mix=0.3)
        value, grad, hess = mc_gradient_hessian(z, four_dof_fimset)
        # The value is the objective whose factor the derivatives reuse.
        assert value == mc_objective(z, four_dof_fimset)
        whitened = whitened_elements_einsum(z, four_dof_fimset)
        n_samples = four_dof_fimset.n_samples
        grad_einsum = -np.mean(np.einsum("kiaa->ki", whitened), axis=0)
        hess_einsum = np.einsum("kiab,kjab->ij", whitened, whitened) / n_samples
        np.testing.assert_allclose(grad, grad_einsum, rtol=1e-14)
        np.testing.assert_allclose(hess, hess_einsum, rtol=1e-14)


def _spd_stack(rng, n_samples):
    """Random positive-definite 5x5 matrices whose scales span six decades."""
    a = rng.normal(size=(n_samples, 5, 8))
    scale = 10.0 ** rng.uniform(-3.0, 3.0, size=(n_samples, 1, 1))
    return scale * (a @ a.transpose(0, 2, 1))


def _entry_major(q_all) -> np.ndarray:
    """A (n_samples, 5, 5) stack as the (5, 5, n_samples) stack ``_StackFactor`` factors."""
    return q_all.transpose(1, 2, 0).copy()


def _raises_singular(stack) -> SingularInformationError:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularInformationError) as excinfo:
            fim._StackFactor(stack).factor()
    return excinfo.value


class TestCholeskyAll:
    @pytest.mark.parametrize("n_samples", [1, 100, 1000])
    def test_matches_linalg_cholesky(self, n_samples):
        q_all = _spd_stack(np.random.default_rng(n_samples), n_samples)
        reference = np.linalg.cholesky(q_all)
        stack = _entry_major(q_all)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            factored = fim._StackFactor(stack).factor()
        # Factored in place; only the lower triangle is the factor.
        assert factored is stack
        chol = np.tril(stack.transpose(2, 0, 1))
        scale = np.max(np.abs(reference), axis=(1, 2), keepdims=True)
        error = np.abs(chol - reference) / scale
        assert np.max(error) <= 1e-13, np.max(error)

    @pytest.mark.parametrize("fault", ["singular", "nan"])
    def test_first_failing_sample_is_the_witness(self, fault):
        # Sample 37 fails only at the last pivot, sample 60 at the first:
        # the witness is the lower sample index, not the earlier column.
        q_all = _spd_stack(np.random.default_rng(19), 100)
        if fault == "singular":
            q_all[37, 4, :] = q_all[37, :, 4] = 0.0
        else:
            q_all[37, 4, 1] = q_all[37, 1, 4] = np.nan
        q_all[60, 0, :] = q_all[60, :, 0] = 0.0
        error = _raises_singular(_entry_major(q_all))
        assert error.sample_index == 37
        assert str(error) == "information matrix for sample 37 is not positive definite"

    def test_empty_configuration(self, four_dof_fimset):
        # Greedy scores the empty configuration first: every sample is zero.
        assert _raises_singular(four_dof_fimset.assemble(np.zeros(4)).stack.copy()).sample_index == 0


class TestSetStack:
    # Each set keeps the lower triangles of its matrices once, entry-major,
    # and one stack that every objective call and Newton step on it overwrites.
    def test_entries_are_a_read_only_entry_major_copy(self, four_dof_fimset):
        built = _fimset_from(_symmetric(np.random.default_rng(20).normal(size=(7, 3, 5, 5))))
        for fimset in (four_dof_fimset, built):
            n_samples, n_dof = fimset.n_samples, fimset.n_dof
            entries, matrices = fimset.entries, fimset.matrices
            assert entries.shape == (n_dof, 15 * n_samples)
            assert matrices.shape == (n_samples, n_dof, 5, 5)
            assert not entries.flags.writeable
            assert not matrices.flags.writeable
            # ``matrices`` is a fresh array on each access.
            assert not np.shares_memory(entries, matrices)
            assert not np.shares_memory(matrices, fimset.matrices)
            np.testing.assert_array_equal(
                entries.reshape(n_dof, 15, n_samples),
                matrices[:, :, LOWER[0], LOWER[1]].transpose(1, 2, 0),
            )
            np.testing.assert_array_equal(matrices, matrices.swapaxes(-1, -2))

    def test_refuses_matrices_that_are_not_exactly_symmetric(self, four_dof_fimset):
        # The set keeps the lower triangles, so an upper triangle of its own
        # would be lost: the objective would read the lower triangle and the
        # Newton step's whitening the whole matrix.
        matrices = four_dof_fimset.matrices.copy()
        matrices[3, 1, 0, 4] = np.nextafter(matrices[3, 1, 0, 4], np.inf)
        with pytest.raises(ValueError, match="exactly symmetric"):
            ElementaryFimSet(matrices)
        skew = np.random.default_rng(26).normal(size=(5, 5))
        with pytest.raises(ValueError, match="exactly symmetric"):
            ElementaryFimSet(four_dof_fimset.matrices + 0.5 * (skew - skew.T))

    def test_reused_stack_gives_the_bits_of_a_fresh_set(self, four_dof_fimset):
        # Calls on two sets interleave, and each follows a failed call on
        # the same set; every result must be that of a set never used.
        other = ElementaryFimSet(matrices=four_dof_fimset.matrices[:37, ::-1])
        rng = np.random.default_rng(21)
        eps = fim.regularization_scale(four_dof_fimset)
        for _ in range(3):
            for fimset in (four_dof_fimset, other):
                z = random_feasible_z(rng, 4, 2, mix=0.5)
                fresh = ElementaryFimSet(matrices=fimset.matrices)
                with pytest.raises(SingularInformationError):
                    mc_objective(np.zeros(4), fimset)
                assert mc_objective(z, fimset) == mc_objective(z, fresh)
                for ours, theirs in zip(
                    mc_gradient_hessian(z, fimset), mc_gradient_hessian(z, fresh)
                ):
                    assert np.array_equal(ours, theirs)
                assert fim.mc_objective_regularized(z, fimset, eps) == (
                    fim.mc_objective_regularized(z, ElementaryFimSet(matrices=fimset.matrices), eps)
                )

    def test_the_stage_builds_one_copy(self):
        # The stage writes the entry-major array the set keeps, 15 entries
        # per matrix.  Besides it, the traced peak holds the set's own stacks
        # and the stage's per-block arrays, well below half a copy at 20
        # stories; a 25-entry array, or a copy of the entries, would take the
        # peak above it.
        model, grid = build_uniform_shear_model(20), TimeGrid(100, 0.01)
        samples = sample_prior(default_prior(), 500, seed=24)
        buffers = fim.sensitivity_buffers(model.n_dof, grid)
        buffer_bytes = buffers.modal.nbytes + buffers.story.base.nbytes
        compute_elementary_set(model, samples, grid)  # imports and caches first
        tracemalloc.start()
        try:
            fimset = compute_elementary_set(model, samples, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fimset.entries.nbytes == 8 * 15 * model.n_dof * samples.n_samples
        assert peak < 1.5 * fimset.entries.nbytes + buffer_bytes

    def test_copies_hold_one_copy_of_their_own(self, four_dof_fimset):
        # A set built from another's matrices, deep copies and pickles get
        # the same entries in an array of their own.
        rebuilt = ElementaryFimSet(matrices=four_dof_fimset.matrices)
        for copied in (rebuilt, copy.deepcopy(four_dof_fimset),
                       pickle.loads(pickle.dumps(four_dof_fimset))):
            assert np.array_equal(copied.entries, four_dof_fimset.entries)
            assert not np.shares_memory(copied.entries, four_dof_fimset.entries)
            assert not copied.entries.flags.writeable
            assert not copied.matrices.flags.writeable

    def test_ridge_scale_adds_the_traces_in_sample_order(self):
        # The same bits as the mean over a sample-major array of traces,
        # although the set stores its matrices entry-major.
        rng = np.random.default_rng(25)
        for n_samples, n_dof in ((300, 7), (1000, 4), (37, 50)):
            matrices = _symmetric(rng.exponential(size=(n_samples, n_dof, 5, 5)))
            mean_trace = np.mean(np.ascontiguousarray(np.einsum("kipp->ki", matrices)))
            assert fim.regularization_scale(_fimset_from(matrices)) == 1e-12 * float(mean_trace)

    def test_copies_get_a_stack_of_their_own(self, four_dof_fimset):
        mc_objective(np.full(4, 0.5), four_dof_fimset)
        z = random_feasible_z(np.random.default_rng(23), 4, 2, mix=0.5)
        expected = mc_objective(z, ElementaryFimSet(matrices=four_dof_fimset.matrices))
        for copied in (copy.copy(four_dof_fimset), copy.deepcopy(four_dof_fimset),
                       pickle.loads(pickle.dumps(four_dof_fimset))):
            assert mc_objective(z, copied) == expected

    def test_regularized_is_the_objective_of_the_ridged_matrices(self, four_dof_fimset):
        # Q(z) + eps I is Q of the set with one more story, eps I, at weight 1.
        matrices = four_dof_fimset.matrices
        eps = 1e-3 * float(np.mean(np.einsum("kipp->ki", matrices)))
        ridge = np.broadcast_to(eps * np.eye(5), (matrices.shape[0], 1, 5, 5))
        ridged = ElementaryFimSet(matrices=np.concatenate([matrices, ridge], axis=1))
        rng = np.random.default_rng(22)
        for z in (np.zeros(4), np.eye(4)[2], random_feasible_z(rng, 4, 2, mix=0.5)):
            expected = mc_objective(np.append(z, 1.0), ridged)
            value = fim.mc_objective_regularized(z, four_dof_fimset, eps)
            assert value == pytest.approx(expected, rel=1e-13, abs=1e-13)

    def test_score_takes_the_ridge_only_where_the_objective_cannot(self, four_dof_fimset):
        # Story 1 alone is singular once its matrices are zero; the empty
        # configuration is singular always.  Every call counts.
        matrices = four_dof_fimset.matrices.copy()
        matrices[:, 0] = 0.0
        fimset = _fimset_from(matrices)
        evaluator = fim.CountingEvaluator(fimset)
        eps = fim.regularization_scale(fimset)
        for delta in (np.eye(4, dtype=int)[0], np.zeros(4, dtype=int)):
            ridge = -fim.mc_objective_regularized(delta.astype(float), fimset, eps)
            assert evaluator.score(delta) == (ridge, False)
        assert evaluator.score(np.ones(4, dtype=int)) == (-mc_objective(np.ones(4), fimset), True)
        assert evaluator.empty_value == ridge
        assert evaluator.n_objective == 3

    def test_empty_value_is_the_scored_empty_configuration(self, four_dof_fimset):
        # Greedy's round 1 takes story 1's gain from ``empty_value`` and every
        # other story's from a scored empty configuration, so the two must be
        # the same bits.  ``n_params log(eps)`` missed them on the last three
        # sets.  ``empty_value`` is not a counted evaluation.
        sets = [four_dof_fimset] + [
            compute_elementary_set(
                build_uniform_shear_model(n_dof), sample_prior(default_prior(), n_samples, seed=seed),
                TimeGrid(n_steps, 0.01),
            )
            for n_dof, n_samples, seed, n_steps in ((4, 50, 1, 100), (20, 30, 2, 100), (7, 37, 3, 50))
        ]
        for fimset in sets:
            evaluator = fim.CountingEvaluator(fimset)
            empty_value = evaluator.empty_value
            assert empty_value == evaluator.score(np.zeros(fimset.n_dof, dtype=int))[0]
            assert evaluator.n_objective == 1


def test_array_records_compare_by_identity(four_dof_fimset):
    # Field-wise equality would compare arrays, which raises on ``==`` and
    # on ``hash``; records holding arrays are equal only to themselves.
    records = [
        (build_uniform_shear_model(4), build_uniform_shear_model(4)),
        (sample_prior(default_prior(), 3, seed=1), sample_prior(default_prior(), 3, seed=1)),
        (four_dof_fimset, ElementaryFimSet(matrices=four_dof_fimset.matrices)),
    ]
    for record, twin in records:
        assert record == record
        assert record != twin
        assert len({record, twin, record}) == 2


class TestObjectiveShape:
    def test_midpoint_convexity(self, four_dof_fimset):
        rng = np.random.default_rng(15)
        for _ in range(50):
            budget = int(rng.integers(1, 4))
            z1 = random_feasible_z(rng, 4, budget, mix=0.8)
            z2 = random_feasible_z(rng, 4, budget, mix=0.8)
            h_mid = mc_objective((z1 + z2) / 2, four_dof_fimset)
            h_avg = (mc_objective(z1, four_dof_fimset) + mc_objective(z2, four_dof_fimset)) / 2
            assert h_mid <= h_avg + 1e-9

    def test_monotone_under_added_sensor(self, four_dof_fimset):
        rng = np.random.default_rng(16)
        for _ in range(20):
            base = np.zeros(4)
            base[rng.choice(4, size=2, replace=False)] = 1.0
            bigger = base.copy()
            bigger[rng.choice(np.flatnonzero(base == 0))] = 1.0
            assert mc_objective(bigger, four_dof_fimset) <= mc_objective(base, four_dof_fimset) + 1e-12


class TestPreflight:
    def test_accepts_healthy_set(self, four_dof_fimset):
        preflight_check(four_dof_fimset)

    def test_rejects_degenerate_sample(self):
        healthy = np.stack([_diag5(2.0), _diag5(3.0)])
        rank_deficient = np.zeros((2, 5, 5))
        fimset = _fimset_from([healthy, rank_deficient])
        with pytest.raises(SingularInformationError) as excinfo:
            preflight_check(fimset)
        assert excinfo.value.sample_index == 1

