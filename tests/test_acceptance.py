"""Acceptance suite: one test per published-behavior criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``).
Shared elementary sets are cached at module scope since they dominate the
runtime.  Run order follows criterion numbering.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from sensoropt import (
    SystemParameters,
    TimeGrid,
    build_uniform_shear_model,
    certify_or_repair,
    compare,
    compute_elementary_set,
    default_prior,
    exhaustive,
    fixed_configs,
    greedy_forward,
    mc_gradient_hessian,
    mc_objective,
    modal_constants,
    modal_response,
    physical_response,
    response_sensitivities,
    sample_prior,
    solve_relaxed,
)

from conftest import random_feasible_z

SEED = 1
PRIOR = default_prior()

_ELEMS_CACHE = {}


def _elems(n_dof, n_steps, n_samples, dt=0.01, seed=SEED):
    key = (n_dof, n_steps, n_samples, dt, seed)
    if key not in _ELEMS_CACHE:
        model = build_uniform_shear_model(n_dof)
        samples = sample_prior(PRIOR, n_samples, seed)
        _ELEMS_CACHE[key] = compute_elementary_set(model, samples, TimeGrid(n_steps, dt))
    return _ELEMS_CACHE[key]


def _verdict(n, name, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {n} {name}: {status}")
    assert not failures, f"criterion {n}: " + "; ".join(failures)


def _solve_and_repair(elems, budget):
    sol = solve_relaxed(elems, budget)
    placed = certify_or_repair(sol.z_star, elems, budget)
    return sol, placed


TABLE_ROWS = [
    (2, 1, 1000, 1000, (2,)),
    (2, 1, 1000, 2000, (2,)),
    (2, 1, 2000, 1000, (2,)),
    (2, 1, 2000, 2000, (2,)),
    (4, 1, 1000, 1000, (4,)),
    (4, 1, 1000, 2000, (4,)),
    (4, 1, 2000, 1000, (4,)),
    (4, 1, 2000, 2000, (4,)),
    (4, 2, 1000, 1000, (2, 4)),
    (4, 2, 1000, 2000, (2, 4)),
    (4, 2, 2000, 1000, (2, 4)),
    (4, 2, 2000, 2000, (2, 4)),
    (8, 2, 1000, 1000, (6, 8)),
    (8, 2, 2000, 2000, (6, 8)),
]


def test_criterion_1_published_small_configurations():
    failures = []
    for dt in (0.01, 0.02):
        for n_dof, budget, n_steps, n_samples, expected in TABLE_ROWS:
            _, placed = _solve_and_repair(_elems(n_dof, n_steps, n_samples, dt), budget)
            if placed.stories != expected:
                failures.append(
                    f"dt={dt} n_dof={n_dof} budget={budget} N={n_steps} "
                    f"N_k={n_samples}: got {placed.stories}, want {expected}"
                )
    _verdict(1, "published small-structure configurations (both dt)", failures)


def test_criterion_2_exhaustive_oracle_equivalence():
    # A single-story building is excluded: with one mode the two damping
    # sensitivities are exactly parallel, so its information matrix is
    # rank-deficient for every placement and the objective is undefined.
    failures = []
    for seed in (101, 102, 103):
        for n_dof in range(2, 11):
            elems = _elems(n_dof, 300, 120, seed=seed)
            for budget in range(1, min(3, n_dof) + 1):
                _, placed = _solve_and_repair(elems, budget)
                exact = exhaustive(elems, budget)
                if abs(placed.objective_binary - exact.objective_value) > 1e-9:
                    failures.append(
                        f"seed={seed} n_dof={n_dof} budget={budget}: repaired "
                        f"{placed.objective_binary:.12f} vs exhaustive "
                        f"{exact.objective_value:.12f}"
                    )
    _verdict(2, "repaired solution attains the exhaustive optimum", failures)


def test_criterion_3_derivative_consistency():
    elems = _elems(4, 400, 200)
    rng = np.random.default_rng(33)
    failures = []
    worst_grad, worst_hess = 0.0, 0.0
    for _ in range(10):
        budget = int(rng.integers(1, 4))
        z = random_feasible_z(rng, 4, budget, mix=0.6)
        _, grad, hess = mc_gradient_hessian(z, elems)
        step = 1e-6
        for i in range(4):
            zp, zm = z.copy(), z.copy()
            zp[i] += step
            zm[i] -= step
            fd = (mc_objective(zp, elems) - mc_objective(zm, elems)) / (2 * step)
            worst_grad = max(worst_grad, abs(grad[i] - fd) / abs(grad[i]))
        fd_hess = np.zeros((4, 4))
        for i in range(4):
            zp, zm = z.copy(), z.copy()
            zp[i] += step
            zm[i] -= step
            fd_hess[:, i] = (
                mc_gradient_hessian(zp, elems)[1] - mc_gradient_hessian(zm, elems)[1]
            ) / (2 * step)
        worst_hess = max(
            worst_hess, np.max(np.abs(hess - fd_hess)) / np.max(np.abs(hess))
        )
    if worst_grad >= 1e-6:
        failures.append(f"gradient max relative error {worst_grad:.3e} >= 1e-6")
    if worst_hess >= 1e-4:
        failures.append(f"hessian max relative error {worst_hess:.3e} >= 1e-4")
    _verdict(3, "gradient/hessian match finite differences", failures)


def test_criterion_4_sensitivity_oracle():
    rng = np.random.default_rng(44)
    samples = sample_prior(PRIOR, 10, seed=77)
    failures = []
    probes = 0
    worst = 0.0
    for k in range(10):
        theta = SystemParameters(*samples.values[k])
        model = build_uniform_shear_model(int(rng.integers(1, 6)))
        times = rng.uniform(0.5, 12.0, size=3)
        sens = response_sensitivities(model, theta, times)
        base = theta.as_array()
        fd = np.empty_like(sens)
        # Relative steps sized for oracle health: cube-root-of-eps in
        # general; wider for the stiffness-damping coefficient whose tiny
        # absolute scale would otherwise leave the difference
        # cancellation-dominated (its curvature is mild, so truncation
        # stays far below the tolerance).
        rel_steps = (6e-6, 6e-6, 1e-3, 6e-6, 6e-6)
        for p in range(5):
            step = rel_steps[p] * abs(base[p]) if base[p] != 0 else rel_steps[p]
            plus, minus = base.copy(), base.copy()
            plus[p] += step
            minus[p] -= step
            x_p = physical_response(model, modal_response(model, SystemParameters(*plus), times))
            x_m = physical_response(model, modal_response(model, SystemParameters(*minus), times))
            fd[:, :, p] = (x_p - x_m) / (2 * step)
        scale = np.max(np.abs(sens))
        rel = np.abs(sens - fd) / np.maximum(np.abs(sens), 1e-9 * scale)
        worst = max(worst, float(np.max(rel)))
        probes += sens.shape[0] * sens.shape[1]
    if probes < 20:
        failures.append(f"only {probes} probes")
    if worst >= 1e-5:
        failures.append(f"max relative error {worst:.3e} >= 1e-5")
    _verdict(4, "analytic sensitivities match the finite-difference oracle", failures)


def test_criterion_5_modal_solution_correctness():
    failures = []

    # part 1: residual of the closed form substituted into the oscillator
    model = build_uniform_shear_model(4)
    theta = SystemParameters(*sample_prior(PRIOR, 1, seed=3).values[0])
    wj, zj, _, aj = modal_constants(model, theta)
    h = 0.01 / 100
    probes = np.array([0.5, 2.0, 5.0, 9.97])
    stencil = np.concatenate([probes - h, probes, probes + h])
    q = modal_response(model, theta, stencil).reshape(3, probes.size, 4)
    qddot = (q[2] - 2 * q[1] + q[0]) / h**2
    qdot = (q[2] - q[0]) / (2 * h)
    residual = qddot + 2 * zj * wj * qdot + wj**2 * q[1] - aj * np.sin(theta.omega * probes)[:, None]
    if not np.all(np.abs(residual) < 1e-6 * np.abs(aj)):
        failures.append(
            f"ODE residual {np.max(np.abs(residual / aj)):.3e} >= 1e-6 of forcing amplitude"
        )

    # part 2: adaptive Runge-Kutta oracle at random probes
    rng = np.random.default_rng(55)
    samples = sample_prior(PRIOR, 10, seed=13)
    model2 = build_uniform_shear_model(2)
    for k in range(10):
        theta = SystemParameters(*samples.values[k])
        t_probe = float(rng.uniform(1.0, 15.0))
        wj, zj, _, aj = modal_constants(model2, theta)
        q_closed = modal_response(model2, theta, np.array([t_probe]))[0]
        for j in range(2):
            def rhs(t, y, j=j):
                return [y[1], aj[j] * np.sin(theta.omega * t)
                        - 2 * zj[j] * wj[j] * y[1] - wj[j] ** 2 * y[0]]

            sol = solve_ivp(rhs, (0, t_probe), [0.0, 0.0], method="DOP853",
                            rtol=1e-11, atol=1e-13)
            amp = np.max(np.abs(sol.y[0]))
            if abs(q_closed[j] - sol.y[0][-1]) >= 1e-6 * amp:
                failures.append(
                    f"probe {k} mode {j}: |closed - ode| = "
                    f"{abs(q_closed[j] - sol.y[0][-1]):.3e} vs amplitude {amp:.3e}"
                )
    _verdict(5, "closed-form response matches the ODE oracle", failures)


def test_criterion_6_convexity_suite():
    elems = _elems(4, 400, 200)
    rng = np.random.default_rng(66)
    failures = []

    for _ in range(50):
        budget = int(rng.integers(1, 4))
        z1 = random_feasible_z(rng, 4, budget, mix=0.8)
        z2 = random_feasible_z(rng, 4, budget, mix=0.8)
        h_mid = mc_objective((z1 + z2) / 2, elems)
        h_avg = (mc_objective(z1, elems) + mc_objective(z2, elems)) / 2
        if h_mid > h_avg + 1e-9:
            failures.append(f"midpoint convexity violated by {h_mid - h_avg:.3e}")

    for _ in range(10):
        z = random_feasible_z(rng, 4, int(rng.integers(1, 4)), mix=0.6)
        _, _, hess = mc_gradient_hessian(z, elems)
        if np.min(np.linalg.eigvalsh(hess)) < -1e-8 * np.trace(hess):
            failures.append("hessian not PSD within tolerance")

    reference = solve_relaxed(elems, 2).objective_relaxed
    for _ in range(5):
        z0 = random_feasible_z(rng, 4, 2, mix=0.85)
        value = solve_relaxed(elems, 2, z0=z0).objective_relaxed
        if abs(value - reference) > 1e-8 * abs(reference):
            failures.append(
                f"start-point dependence: {value:.12f} vs {reference:.12f}"
            )
    _verdict(6, "convexity, PSD hessian, start-point independence", failures)


@pytest.fixture(scope="module")
def fifty_story_run():
    elems = _elems(50, 1000, 1000)
    sol, placed = _solve_and_repair(elems, 20)
    return elems, sol, placed


def test_criterion_7_fifty_story_qualitative(fifty_story_run):
    elems, sol, placed = fifty_story_run
    failures = []
    if 50 not in placed.stories:
        failures.append("roof not instrumented")
    above = sum(1 for s in placed.stories if s > 25)
    if above < 15:
        failures.append(f"only {above}/20 sensors above story 25")
    if sol.objective_evaluations >= 100:
        failures.append(f"{sol.objective_evaluations} objective evaluations >= 100")
    if not sol.converged:
        failures.append("solver did not converge")
    gap = sol.objective_relaxed - placed.objective_binary
    if gap >= 1e-3 * abs(placed.objective_binary):
        failures.append(f"binary gap {gap:.3e} >= 0.1% of {abs(placed.objective_binary):.3f}")
    _verdict(7, "fifty-story qualitative reproduction", failures)


def test_criterion_8_comparison_ordering(fifty_story_run):
    elems, sol, placed = fifty_story_run
    failures = []
    greedy = greedy_forward(elems, 20)
    if greedy.n_evaluations != 1600:
        failures.append(f"greedy evaluation count {greedy.n_evaluations} != 1600")
    fixed = fixed_configs(50, 20)
    rows = compare(
        [("optimal", placed.delta, 1), ("greedy", greedy.delta, 1),
         ("low", fixed["low"], 1), ("high", fixed["high"], 1), ("common", fixed["common"], 1)],
        elems,
    )
    v = {row.label: row.objective_value for row in rows}
    if not (v["low"] < v["common"] < v["high"] <= v["greedy"] <= v["optimal"]):
        failures.append(f"ordering violated: {v}")
    bits_low = rows[2].bits_gain
    if not 3.0 <= bits_low <= 9.0:
        failures.append(f"bits gain over bottom-block layout {bits_low:.2f} outside [3, 9]")
    _verdict(8, "comparison ordering and bits of gain", failures)


def test_criterion_9_byte_identical_reports(tmp_path):
    config = {
        "n_dof": 4, "budget": 2, "n_steps": 300, "dt": 0.01,
        "n_samples": 150, "seed": 42,
        "baselines": ["greedy", "exhaustive", "low", "high", "common"],
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    failures = []
    digests = []
    for name, threads in (("a", "1"), ("b", "1"), ("c", "8")):
        out = tmp_path / name
        env = dict(os.environ)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = threads
        proc = subprocess.run(
            [sys.executable, "-m", "sensoropt.cli", "place",
             "--config", str(config_path), "--out", str(out), "--quiet"],
            capture_output=True, text=True, env=env,
        )
        if proc.returncode != 0:
            failures.append(f"run {name} failed: {proc.stderr}")
            continue
        digests.append(
            tuple((out / f).read_bytes() for f in ("report.json", "placement.csv", "report.txt"))
        )
    if not failures and not (digests[0] == digests[1] == digests[2]):
        failures.append("report payloads differ across runs or thread counts")
    _verdict(9, "byte-identical reports across runs and thread counts", failures)
