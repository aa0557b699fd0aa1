import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import eigh_tridiagonal

from sensoropt import (
    PARAMETER_NAMES,
    building,
    SampleSet,
    SystemParameters,
    TimeGrid,
    UnsupportedDampingError,
    build_uniform_shear_model,
    compute_elementary_set,
    default_prior,
    modal_constants,
    modal_response,
    physical_response,
    response_sensitivities,
    sample_prior,
)

PRIOR_MEANS = SystemParameters(
    omega0=2 * np.pi, alpha=0.1, beta=1e-4, omega=2 * np.pi * 0.9, a0=3.0
)


def _ode_mode(wj, zj, aj, w, t_end, t_eval):
    def rhs(t, y):
        return [y[1], aj * np.sin(w * t) - 2 * zj * wj * y[1] - wj**2 * y[0]]

    return solve_ivp(
        rhs, (0.0, t_end), [0.0, 0.0], method="DOP853",
        rtol=1e-11, atol=1e-13, t_eval=t_eval, dense_output=True,
    )


def _full_table(rate, times, buffers):
    """``_damped_bases`` of every rate at once, in an array of its own."""
    out = np.empty((rate.size, buffers.damped.shape[1]), dtype=complex)
    return building._damped_bases(rate, times, out)


def _bases_from(table, modes, t):
    """The eight time bases of ``modes`` by their formula from a full table."""
    damped = table[1:][modes]
    bases = np.empty((damped.shape[0], 8, t.size))
    bases[:, 0], bases[:, 1] = damped.imag, damped.real
    bases[:, 2], bases[:, 3] = table[0].imag, table[0].real
    bases[:, 4:] = bases[:, :4] * t
    return bases


# A value outside each parameter's range; NaN is outside every one.
OUT_OF_RANGE = {"omega0": -6.28, "alpha": -0.1, "beta": -1e-4, "omega": -6.28, "a0": math.inf}


class TestSystemParameters:
    @pytest.mark.parametrize("name", PARAMETER_NAMES)
    def test_nan_rejected(self, name):
        # One range rule for a row and for a block: a bad row in the middle
        # of a block is reported as SystemParameters reports it alone, and
        # a later row that fails on an earlier parameter is not.  Every
        # parameter must be finite: an infinite omega0 or omega used to
        # pass and then raise RuntimeWarnings in the response.
        model = build_uniform_shear_model(4)
        block = sample_prior(default_prior(), 9, seed=2).values.copy()
        block[6, 0] = -1.0
        for bad in (math.nan, math.inf, -math.inf, OUT_OF_RANGE[name]):
            row = dict(zip(PARAMETER_NAMES, PRIOR_MEANS.as_array()), **{name: bad})
            with pytest.raises(ValueError, match=f"^{name} must be") as alone:
                SystemParameters(**row)
            block[4] = list(row.values())
            samples = SampleSet(values=block, seed=2)
            for path in (
                lambda: modal_constants(model, block),
                lambda: building.sensitivity_coefficients(model, block),
                lambda: compute_elementary_set(model, samples, TimeGrid(10, 0.01)),
            ):
                with pytest.raises(ValueError) as in_block:
                    path()
                assert str(in_block.value) == str(alone.value)


class TestBuildUniformShearModel:
    def test_three_story_matrices(self):
        model = build_uniform_shear_model(3)
        expected_k = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
        np.testing.assert_array_equal(model.stiffness_pattern, expected_k)
        np.testing.assert_array_equal(model.mass_pattern, np.eye(3))

    def test_single_story_degenerate(self):
        model = build_uniform_shear_model(1)
        np.testing.assert_array_equal(model.stiffness_pattern, [[1.0]])
        np.testing.assert_array_equal(model.eigenvalues, [1.0])
        np.testing.assert_array_equal(model.eigenvectors, [[1.0]])

    def test_two_story_eigenvalues_by_hand(self):
        # roots of lambda^2 - 3 lambda + 1 = 0
        model = build_uniform_shear_model(2)
        expected = np.array([(3 - np.sqrt(5)) / 2, (3 + np.sqrt(5)) / 2])
        np.testing.assert_allclose(model.eigenvalues, expected, rtol=1e-12)

    def test_zero_dof_rejected(self):
        with pytest.raises(ValueError):
            build_uniform_shear_model(0)

    def test_bool_dof_rejected(self):
        # ``True`` is an int to ``isinstance``, but not a story count.
        with pytest.raises(ValueError, match="n_dof must be a positive integer"):
            build_uniform_shear_model(True)

    @pytest.mark.parametrize("n_dof", [1, 2, 5, 17, 50])
    def test_eigen_invariants(self, n_dof):
        model = build_uniform_shear_model(n_dof)
        k, m, phi = model.stiffness_pattern, model.mass_pattern, model.eigenvectors
        lam = model.eigenvalues

        residual = k @ phi - m @ phi * lam
        scale = np.linalg.norm(k @ phi, axis=0)
        assert np.all(np.linalg.norm(residual, axis=0) <= 1e-10 * scale)

        gram = phi.T @ m @ phi
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) <= 1e-10 * np.max(np.abs(np.diag(gram)))

        np.testing.assert_allclose(
            model.modal_stiffnesses / model.modal_masses, lam, rtol=1e-10
        )
        assert np.all(lam > 0)
        assert np.all(np.diff(lam) > 0)

    @pytest.mark.parametrize("n_dof", [1, 2, 4, 50, 80, 200])
    def test_closed_form_matches_tridiagonal_solver(self, n_dof):
        model = build_uniform_shear_model(n_dof)
        diagonal = model.stiffness_pattern.diagonal().copy()
        evals, vecs = eigh_tridiagonal(diagonal, np.full(n_dof - 1, -1.0))
        # Every eigenvalue lies in (0, 4), so an absolute bound is relative too.
        np.testing.assert_allclose(model.eigenvalues, evals, rtol=0, atol=1e-13)
        # Eigenvectors are fixed only up to sign, and the sign convention
        # (largest-magnitude entry positive) can flip a mode whose two
        # largest entries nearly tie in magnitude, as one mode at 80
        # stories does.  That flip is harmless: every response term
        # carries phi_ij * sum_i phi_ij, so the sign cancels.
        vecs = vecs / np.linalg.norm(vecs, axis=0)
        signs = np.sign(np.sum(vecs * model.eigenvectors, axis=0))
        np.testing.assert_allclose(model.eigenvectors, vecs * signs, rtol=0, atol=1e-12)


class TestModalResponse:
    def test_zero_initial_displacement_exact(self):
        model = build_uniform_shear_model(3)
        q0 = modal_response(model, PRIOR_MEANS, np.array([0.0]))
        assert np.all(q0 == 0.0)

    def test_zero_initial_velocity(self):
        model = build_uniform_shear_model(3)
        h = 1e-8
        qdot0 = modal_response(model, PRIOR_MEANS, np.array([h]))[0] / h
        grid = TimeGrid(2000, 0.01)
        q = modal_response(model, PRIOR_MEANS, grid)
        qdot_scale = np.max(np.abs(np.diff(q, axis=0)), axis=0) / grid.dt
        assert np.all(np.abs(qdot0) < 1e-4 * qdot_scale)

    def test_zero_amplitude_means_zero_response(self):
        model = build_uniform_shear_model(2)
        theta = SystemParameters(6.0, 0.05, 1e-4, 5.0, 0.0)
        q = modal_response(model, theta, TimeGrid(100, 0.02))
        assert np.all(q == 0.0)

    def test_single_mode_against_ode_oracle(self):
        model = build_uniform_shear_model(1)
        theta = SystemParameters(omega0=1.0, alpha=0.02, beta=0.0, omega=1.0, a0=1.0)
        wj, zj, _, aj = modal_constants(model, theta)
        oracle = _ode_mode(wj[0], zj[0], aj[0], theta.omega, 10.0, [10.0])
        closed = modal_response(model, theta, np.array([10.0]))[0, 0]
        assert closed == pytest.approx(oracle.y[0][-1], rel=1e-6)

    def test_random_probes_against_ode_oracle(self):
        rng = np.random.default_rng(42)
        model = build_uniform_shear_model(2)
        samples = sample_prior(default_prior(), 10, seed=11)
        for k in range(10):
            theta = SystemParameters(*samples.values[k])
            t_probe = float(rng.uniform(1.0, 15.0))
            wj, zj, _, aj = modal_constants(model, theta)
            q_closed = modal_response(model, theta, np.array([t_probe]))[0]
            for j in range(2):
                oracle = _ode_mode(wj[j], zj[j], aj[j], theta.omega, t_probe, None)
                amp = np.max(np.abs(oracle.y[0]))
                assert abs(q_closed[j] - oracle.y[0][-1]) < 1e-6 * amp

    def test_ode_residual_of_closed_form(self):
        # Substitute finite differences of the closed form back into the
        # oscillator equation; the residual must vanish relative to the
        # modal forcing amplitude.
        model = build_uniform_shear_model(4)
        theta = PRIOR_MEANS
        wj, zj, _, aj = modal_constants(model, theta)
        dt = 0.01
        h = dt / 100
        probes = np.array([0.5, 2.0, 5.0, 9.97])
        stencil = np.concatenate([probes - h, probes, probes + h])
        q = modal_response(model, theta, stencil).reshape(3, probes.size, model.n_dof)
        q_minus, q_mid, q_plus = q
        qddot = (q_plus - 2 * q_mid + q_minus) / h**2
        qdot = (q_plus - q_minus) / (2 * h)
        forcing = aj * np.sin(theta.omega * probes)[:, None]
        residual = qddot + 2 * zj * wj * qdot + wj**2 * q_mid - forcing
        assert np.all(np.abs(residual) < 1e-6 * np.abs(aj))

    def test_overdamped_mode_rejected(self):
        model = build_uniform_shear_model(2)
        theta = SystemParameters(omega0=1.0, alpha=10.0, beta=0.0, omega=1.0, a0=1.0)
        with pytest.raises(UnsupportedDampingError):
            modal_response(model, theta, TimeGrid(10, 0.01))


@pytest.mark.parametrize("function", [modal_response, response_sensitivities])
def test_empty_time_array_rejected(function):
    # As ``TimeGrid`` rejects n_steps < 1: no ZeroDivisionError from sizing the bases.
    model = build_uniform_shear_model(3)
    with pytest.raises(ValueError, match="^times must hold at least one time"):
        function(model, PRIOR_MEANS, np.array([]))


@pytest.mark.parametrize("n_steps, dt, message", [
    (3, math.nan, "dt must be positive and finite"),
    (3, math.inf, "dt must be positive and finite"),
    (2.5, 0.1, "n_steps must be a positive integer"),
    (True, 0.1, "n_steps must be a positive integer"),
])
def test_time_grid_rejects_what_the_config_rejects(n_steps, dt, message):
    # A NaN or infinite step would give non-finite sensitivities, and a
    # fractional step count fails later, in sizing the bases' tables.
    with pytest.raises(ValueError, match=message):
        TimeGrid(n_steps, dt)


class TestPhysicalResponse:
    def test_identity_mode_shapes(self):
        model = build_uniform_shear_model(3)
        q = np.arange(12, dtype=float).reshape(4, 3)
        x = physical_response(model, q)
        np.testing.assert_allclose(x, q @ model.eigenvectors.T, rtol=1e-15)

    def test_zero_modal_response(self):
        model = build_uniform_shear_model(3)
        assert np.all(physical_response(model, np.zeros((5, 3))) == 0.0)

    def test_hand_multiplied_row(self):
        rng = np.random.default_rng(3)
        model = build_uniform_shear_model(2)
        q = rng.normal(size=(1, 2))
        x = physical_response(model, q)
        phi = model.eigenvectors
        expected = [
            phi[0, 0] * q[0, 0] + phi[0, 1] * q[0, 1],
            phi[1, 0] * q[0, 0] + phi[1, 1] * q[0, 1],
        ]
        np.testing.assert_allclose(x[0], expected, rtol=1e-15)

    def test_linearity(self):
        rng = np.random.default_rng(4)
        model = build_uniform_shear_model(5)
        q1 = rng.normal(size=(7, 5))
        q2 = rng.normal(size=(7, 5))
        lhs = physical_response(model, q1 + q2)
        rhs = physical_response(model, q1) + physical_response(model, q2)
        np.testing.assert_allclose(lhs, rhs, atol=1e-13 * np.max(np.abs(lhs)))

    def test_shape_mismatch_rejected(self):
        model = build_uniform_shear_model(3)
        with pytest.raises(ValueError):
            physical_response(model, np.zeros((5, 4)))


def _fd_sensitivities(model, theta, times, rel_step=1e-6):
    base = theta.as_array()
    out = np.empty((len(times), model.n_dof, 5))
    for p in range(5):
        h = rel_step * abs(base[p]) if base[p] != 0 else rel_step
        plus, minus = base.copy(), base.copy()
        plus[p] += h
        minus[p] -= h
        x_plus = physical_response(model, modal_response(model, SystemParameters(*plus), times))
        x_minus = physical_response(model, modal_response(model, SystemParameters(*minus), times))
        out[:, :, p] = (x_plus - x_minus) / (2 * h)
    return out


class TestResponseSensitivities:
    def test_amplitude_derivative_is_response_over_a0(self):
        model = build_uniform_shear_model(3)
        times = np.array([1.0, 4.0, 8.5])
        x = physical_response(model, modal_response(model, PRIOR_MEANS, times))
        sens = response_sensitivities(model, PRIOR_MEANS, times)
        np.testing.assert_allclose(sens[:, :, 4], x / PRIOR_MEANS.a0, rtol=1e-12)

    def test_zero_amplitude(self):
        model = build_uniform_shear_model(2)
        theta = SystemParameters(6.0, 0.05, 1e-4, 5.0, 0.0)
        sens = response_sensitivities(model, theta, np.array([2.0, 3.0]))
        assert np.all(sens[:, :, :4] == 0.0)
        assert np.any(sens[:, :, 4] != 0.0)

    def test_prior_mean_probe_against_central_differences(self):
        model = build_uniform_shear_model(2)
        times = np.array([5.0])
        sens = response_sensitivities(model, PRIOR_MEANS, times)
        fd = _fd_sensitivities(model, PRIOR_MEANS, times)
        scale = np.max(np.abs(sens))
        rel = np.abs(sens - fd) / np.maximum(np.abs(sens), 1e-9 * scale)
        assert np.max(rel) < 1e-5

    def test_many_random_probes_against_central_differences(self):
        # >= 20 random (theta, t, story) probes.  The cube-root-of-eps
        # relative step balances truncation against cancellation in the
        # finite-difference oracle.
        rng = np.random.default_rng(5)
        samples = sample_prior(default_prior(), 8, seed=23)
        checked = 0
        for k in range(8):
            theta = SystemParameters(*samples.values[k])
            n_dof = int(rng.integers(1, 5))
            model = build_uniform_shear_model(n_dof)
            times = rng.uniform(0.5, 12.0, size=3)
            sens = response_sensitivities(model, theta, times)
            fd = _fd_sensitivities(model, theta, times, rel_step=6e-6)
            scale = np.max(np.abs(sens))
            rel = np.abs(sens - fd) / np.maximum(np.abs(sens), 1e-9 * scale)
            assert np.max(rel) < 1e-5
            checked += sens.shape[0] * sens.shape[1]
        assert checked >= 20

    def test_fifty_story_probes_against_central_differences(self):
        # 24 (theta, t) probes on a tall building.  Upper-story beta entries
        # are as small as 1e-13, where a per-entry ratio only measures the
        # finite differences' own noise, so each parameter's error is judged
        # against that parameter's scale, max |sens[:, :, p]|.
        rng = np.random.default_rng(50)
        model = build_uniform_shear_model(50)
        samples = sample_prior(default_prior(), 3, seed=29)
        probes = 0
        for k in range(3):
            theta = SystemParameters(*samples.values[k])
            times = rng.uniform(0.5, 10.0, size=8)
            sens = response_sensitivities(model, theta, times)
            fd = _fd_sensitivities(model, theta, times, rel_step=6e-6)
            scale = np.max(np.abs(sens), axis=(0, 1))
            error = np.max(np.abs(sens - fd), axis=(0, 1))
            assert np.all(error < 1e-5 * scale), error / scale
            probes += times.size
        assert probes >= 20

    @pytest.mark.parametrize("n_dof", [1, 4, 50, 80])
    def test_time_grid_matches_its_time_array(self, n_dof):
        # A TimeGrid takes the table-built damped bases, an array the direct
        # evaluation that the finite-difference and ODE oracles check.  Each
        # parameter's (or mode's) scale is taken over a 10 s record: near
        # t = 0 the closed form sums terms of order one to a response of
        # order t^3, and its derivatives to less, so a 0.07 s record's own
        # scale is set by rounding, in both paths alike.
        model = build_uniform_shear_model(n_dof)
        samples = sample_prior(default_prior(), 3, seed=1)
        full_record = TimeGrid(1001, 0.01).times
        for k in range(3):
            theta = SystemParameters(*samples.values[k])
            for fn, axes in ((response_sensitivities, (0, 1)), (modal_response, 0)):
                scale = np.max(np.abs(fn(model, theta, full_record)), axis=axes)
                for n_steps in (1, 7, 1000, 1001):
                    grid = TimeGrid(n_steps, 0.01)
                    on_array = fn(model, theta, grid.times)
                    error = np.max(np.abs(fn(model, theta, grid) - on_array), axis=axes)
                    assert np.all(error <= 1e-13 * scale), (fn.__name__, n_steps, k, error / scale)

    @pytest.mark.parametrize("n_dof", [1, 50])
    def test_time_bases_match_their_formula(self, n_dof):
        # Bases 0 to 3 are the parts of the table's rows, bit for bit: each
        # mode's damped row, and for every mode the one forcing row, whose
        # rate is exactly i w.  Bases 4 to 7 are t times bases 0 to 3, bit
        # for bit.  Also on an arbitrary time array.  The bases come one
        # group of modes at a time, each from the table rows of its own
        # modes, which equal those of a table built for all modes at once;
        # at 10,001 steps the 50 modes take 25 groups.
        model = build_uniform_shear_model(n_dof)
        theta = sample_prior(default_prior(), 1, seed=4).values
        rate = building.sensitivity_coefficients(model, theta).rate[0]
        w = theta[0, 3]
        assert rate[0] == complex(0.0, w)
        grids = (TimeGrid(1000, 0.01), TimeGrid(10_001, 0.01))
        for times in grids + (np.array([0.0, 0.3, 2.5, 7.0]),):
            t = times.times if isinstance(times, TimeGrid) else times
            buffers = building.sensitivity_buffers(n_dof, times)
            table = _full_table(rate, times, buffers)
            seen = np.zeros(n_dof, dtype=bool)
            for modes, bases in building._grouped_bases(rate, times, buffers):
                seen[modes] = True
                assert np.array_equal(bases, _bases_from(table, modes, t))
                # The forcing row agrees with the direct sine and cosine to
                # within 4 units in the last place of the largest phase w t,
                # the size of that phase's own rounding (about 2 were seen).
                bound = 4 * np.spacing(w * t[-1])
                assert np.max(np.abs(bases[:, 2] - np.sin(w * t))) <= bound
                assert np.max(np.abs(bases[:, 3] - np.cos(w * t))) <= bound
                # The caller writes the group's modal rows before the next
                # group's bases are built.
                buffers.modal[modes] = np.nan
            assert seen.all()

    def test_shared_buffers_keep_the_table_rows_still_needed(self):
        # A group's bases, and after them its table rows, lie in the memory
        # of the story-major sensitivities, apart from each other and from
        # the modal rows, so building the bases leaves the rows they are
        # built from intact, on every record length.  Every group's bases
        # equal those of a table built apart, bit for bit.
        records = [TimeGrid(n, 0.01) for n in [*range(1, 65), 999, 1000, 1001, 10_001, 12_501]]
        address = lambda a: a.__array_interface__["data"][0]  # noqa: E731
        for times in records + [np.linspace(0.0, 1.0, n) for n in (1, 4, 100)]:
            t = times.times if isinstance(times, TimeGrid) else times
            group = max(1, building.BASES_FLOATS // (8 * t.size))
            n_dof = 2 * group + 1
            buffers = building.sensitivity_buffers(n_dof, times)
            assert buffers.bases.shape[0] == group
            story = buffers.story.base
            for part in (buffers.bases, buffers.damped):
                assert address(story) <= address(part), times
                assert address(part) + part.nbytes <= address(story) + story.nbytes, times
            assert not np.shares_memory(buffers.bases, buffers.damped), times
            assert not np.shares_memory(buffers.modal, story), times
            j = np.arange(1, n_dof + 1)
            rate = np.concatenate([[2.5j], -0.01 * j + 1j * (1.0 + 0.03 * j)])
            table = _full_table(rate, times, buffers)
            for modes, bases in building._grouped_bases(rate, times, buffers):
                assert np.array_equal(bases, _bases_from(table, modes, t)), (times, modes)

    def test_entries_finite_and_shaped(self):
        model = build_uniform_shear_model(4)
        grid = TimeGrid(50, 0.02)
        sens = response_sensitivities(model, PRIOR_MEANS, grid)
        assert sens.shape == (50, 4, 5)
        assert np.all(np.isfinite(sens))
        assert PARAMETER_NAMES == ("omega0", "alpha", "beta", "omega", "a0")
