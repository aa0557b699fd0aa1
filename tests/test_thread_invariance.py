"""Thread invariance of the BLAS-backed kernels at benchmark sizes.

``response_sensitivities`` forms the modal derivatives with one batched
matmul over modes and maps them to stories with one gemm
(``np.dot``); ``compute_elementary_set`` takes each story's outer
products with ddots of at most ``fim.OUTER_CHUNK`` steps
(``np.vecdot``); ``mc_objective`` assembles ``Q(z)`` with one gemv over
stories; ``mc_gradient_hessian`` whitens the elementary
matrices and forms the Hessian terms with per-sample batched matmuls; and
the solver factors and solves each Newton system with LAPACK, with the
BLAS pinned to one thread, which a 200-story system needs.
OpenBLAS does not promise the same bits at every thread count, so fresh
processes compute SHA-256 digests at 1, 2 and 8 threads and must agree.
Acceptance criterion 9 builds only 4 stories, where the map's inner
dimension is 4, so it cannot see an orientation whose result varies with
the thread count; the sizes here are those of the benchmark workloads
(4 and 50 stories, and 80 for the tall building), plus a sample count that
is not a multiple of the Newton step's sample block, and records of one,
two and three outer-product chunks.  The elementary stage pins the BLAS
to one thread, so its sensitivities are also compared on records of 7 to
1001 steps, where the mode-to-story gemm alone is not thread-invariant,
and the tall building's report at 1 and 2 threads.  The other tests hold
the modal contraction, the mode-to-story map, the outer products and the
assembly to the non-BLAS ``einsum`` each docstring names as its fallback.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import sensoropt
from sensoropt import (
    Marginal, SystemParameters, TimeGrid, build_uniform_shear_model, building,
    compute_elementary_set, default_prior, fim, sample_prior,
)

from conftest import random_feasible_z

THREAD_COUNTS = ("1", "2", "8")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

DIGEST_SCRIPT = """
import dataclasses
import hashlib
import json

import numpy as np

from sensoropt import (
    Marginal, SystemParameters, TimeGrid, build_uniform_shear_model, compute_elementary_set,
    default_prior, mc_gradient_hessian, mc_objective, response_sensitivities, sample_prior,
)
from sensoropt import fim
from sensoropt.fim import ElementaryFimSet, _outer_products
from sensoropt.solver import _newton_direction


def digest(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


# Underdamped in every mode up to 80 stories.
theta = SystemParameters(omega0=2 * np.pi, alpha=0.1, beta=1e-4, omega=2 * np.pi * 0.9, a0=3.0)
grid = TimeGrid(1000, 0.01)
digests = {
    f"sensitivities, {n_dof} stories": digest(
        response_sensitivities(build_uniform_shear_model(n_dof), theta, grid)
    )
    for n_dof in (4, 50, 80)
}
fimset = compute_elementary_set(
    build_uniform_shear_model(50), sample_prior(default_prior(), 5, seed=1), grid
)
digests["elementary matrices, 50 stories x 5 samples"] = digest(fimset.matrices)
# OpenBLAS splits a ddot of more than 10,000 elements between threads, so
# records longer than that are summed in chunks; 20,000 steps take three.
for n_steps in (1000, 10_001, 20_000):
    story_major = np.random.default_rng(n_steps).standard_normal((4, 5, n_steps))
    digests[f"outer products, 4 stories x {n_steps} steps"] = digest(
        _outer_products(story_major, np.empty((4, 5, 5)))
    )

sets = {
    n_dof: compute_elementary_set(
        build_uniform_shear_model(n_dof), sample_prior(default_prior(), n_samples, seed=2), grid
    )
    for n_dof, n_samples in ((4, 1000), (50, 130))
}
digests["elementary matrices, 4 stories x 1000 samples"] = digest(sets[4].matrices)
for n_dof, n_samples in ((4, 1000), (50, 100), (50, 130)):
    fimset = ElementaryFimSet(matrices=sets[n_dof].matrices[:n_samples])
    # Interior and non-uniform, so no story's terms share a weight.
    z = 0.1 + 0.8 * np.linspace(0.0, 1.0, n_dof) ** 2
    _, grad, hess = mc_gradient_hessian(z, fimset)
    digests[f"gradient and Hessian, {n_dof} stories x {n_samples} samples"] = (
        digest(grad) + digest(hess)
    )
    if n_samples == 130:
        continue
    binary = (np.arange(n_dof) % 2 == 1).astype(float)
    for kind, weights in (("binary", binary), ("interior", z)):
        digests[f"objective, {n_dof} stories x {n_samples} samples, {kind} z"] = digest(
            mc_objective(weights, fimset)
        )

# The narrower omega0 prior keeps every mode underdamped at 80 stories.
tall_prior = dataclasses.replace(default_prior(), omega0=Marginal("lognormal", 2 * np.pi, 0.15))
sets[80] = compute_elementary_set(build_uniform_shear_model(80), sample_prior(tall_prior, 10, 2), grid)

# The sensitivities as the elementary stage computes them, with the BLAS
# pinned to one thread: on 100, 300 and 1001 steps the mode-to-story gemm
# gives other bits on two threads than on one.
exact = fim.response_sensitivities
stage = []


def recorded(model, theta, times, **kwargs):
    sens = exact(model, theta, times, **kwargs)
    stage.append(digest(sens))
    return sens


fim.response_sensitivities = recorded
for n_dof, prior in ((50, default_prior()), (80, tall_prior)):
    for n_steps in (7, 100, 300, 1000, 1001):
        stage.clear()
        compute_elementary_set(
            build_uniform_shear_model(n_dof), sample_prior(prior, 2, seed=3),
            TimeGrid(n_steps, 0.01),
        )
        digests[f"stage sensitivities, {n_dof} stories x {n_steps} steps"] = "".join(stage)
fim.response_sensitivities = exact
# Four blocks of five samples, which the stage shares out between threads
# wherever it has two cores.
digests["elementary matrices, 50 stories x 20 samples"] = digest(
    compute_elementary_set(
        build_uniform_shear_model(50), sample_prior(default_prior(), 20, seed=4), grid
    ).matrices
)

# The assembly gemv has 15 n_samples outputs, so its split between threads
# changes with the sample count: the paper's 50 x 1000 and the tall
# building's 80 x 100.  The split depends on the shape only, so the sets
# repeat the samples above instead of computing more.
for n_dof, n_samples in ((50, 1000), (80, 100)):
    matrices = sets[n_dof].matrices
    fimset = ElementaryFimSet(matrices=np.resize(matrices, (n_samples,) + matrices.shape[1:]))
    binary = (np.arange(n_dof) % 2 == 1).astype(float)
    interior = 0.1 + 0.8 * np.linspace(0.0, 1.0, n_dof) ** 2
    for kind, weights in (("binary", binary), ("interior", interior)):
        digests[f"objective, {n_dof} stories x {n_samples} samples, {kind} z"] = digest(
            mc_objective(weights, fimset)
        )
for n_dof in (4, 50, 80):
    # The reduced primal-dual Newton system of solve_relaxed with the
    # start's multipliers, lam_lo = 1 / z and lam_hi = 1 / (1 - z), aiming
    # at sigma = 0.1.
    z = 0.1 + 0.8 * np.linspace(0.0, 1.0, n_dof) ** 2
    _, grad, hess = mc_gradient_hessian(z, sets[n_dof])
    hess[np.diag_indices_from(hess)] += 1.0 / z**2 + 1.0 / (1.0 - z) ** 2
    dz, nu = _newton_direction(hess, grad - 0.1 / z + 0.1 / (1.0 - z))
    digests[f"Newton direction, {n_dof} stories"] = digest(dz) + digest(np.float64(nu))
# At 200 stories OpenBLAS splits the Cholesky factorization between
# threads, so only the BLAS pin in _newton_direction keeps its bits; the
# gradient and Hessian are the same at every thread count.  The stiffer
# omega0 prior keeps every mode underdamped.
stiff_prior = dataclasses.replace(default_prior(), omega0=Marginal("lognormal", 80 * np.pi, 0.1))
z = np.full(200, 0.4)
_, grad, hess = mc_gradient_hessian(z, compute_elementary_set(
    build_uniform_shear_model(200), sample_prior(stiff_prior, 20, 2), TimeGrid(100, 0.01)
))
hess[np.diag_indices_from(hess)] += 1.0 / z**2 + 1.0 / (1.0 - z) ** 2
dz, nu = _newton_direction(hess, grad - 0.1 / z + 0.1 / (1.0 - z))
digests["Newton direction, 200 stories"] = digest(dz) + digest(np.float64(nu))
print(json.dumps(digests))
"""


def _environment(threads: str) -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = threads
    src = str(Path(sensoropt.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _digests(threads: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", DIGEST_SCRIPT], capture_output=True, text=True,
        env=_environment(threads),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_digests_identical_at_1_2_and_8_threads():
    digests = {threads: _digests(threads) for threads in THREAD_COUNTS}
    reference = digests[THREAD_COUNTS[0]]
    assert len(reference) == 34
    for threads in THREAD_COUNTS[1:]:
        differing = [key for key in reference if digests[threads][key] != reference[key]]
        assert not differing, f"{threads} threads differ from 1 thread in: {differing}"


def test_tall_short_record_report_identical_at_1_and_2_threads(tmp_path):
    # The 80-story, 100-step benchmark workload, whose mode-to-story gemm
    # gives other bits on two BLAS threads than on one: its report differed
    # in 121 fields before the elementary stage pinned the BLAS.
    config = Path(__file__).resolve().parents[1] / "bench" / "workloads" / "tall-short-record.json"
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        proc = subprocess.run(
            [sys.executable, "-m", "sensoropt.cli", "place",
             "--config", str(config), "--out", str(out), "--quiet"],
            capture_output=True, text=True, env=_environment(threads),
        )
        assert proc.returncode == 0, proc.stderr
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]


def test_tensordot_map_matches_non_blas_einsum():
    # The einsum is the drop-in replacement named in the kernel's docstring.
    theta = SystemParameters(omega0=2 * np.pi, alpha=0.1, beta=1e-4, omega=2 * np.pi * 0.9, a0=3.0)
    grid = TimeGrid(1000, 0.01)
    for n_dof in (4, 50, 80):
        model = build_uniform_shear_model(n_dof)
        dq = building._modal_sensitivities(model, theta, grid)
        reference = np.einsum("ij,jpn->ipn", model.eigenvectors, dq)
        sens = building.response_sensitivities(model, theta, grid).transpose(1, 2, 0)
        scale = np.max(np.abs(reference), axis=(0, 2))
        error = np.max(np.abs(sens - reference), axis=(0, 2))
        assert np.all(error <= 1e-13 * scale), (n_dof, error / scale)


def test_modal_matmul_matches_non_blas_einsum():
    # The einsum is the drop-in replacement named in _modal_sensitivities.
    theta = SystemParameters(omega0=2 * np.pi, alpha=0.1, beta=1e-4, omega=2 * np.pi * 0.9, a0=3.0)
    grid = TimeGrid(1000, 0.01)
    for n_dof in (4, 50, 80):
        model = build_uniform_shear_model(n_dof)
        block = building.sensitivity_coefficients(model, theta.as_array()[None])
        buffers = building.sensitivity_buffers(n_dof, grid)
        reference = np.empty_like(buffers.modal)
        for modes, bases in building._grouped_bases(block.rate[0], grid, buffers):
            reference[modes] = np.einsum("jpb,jbn->jpn", block.coef[0][modes], bases)
        dq = building._modal_sensitivities(model, theta, grid)
        scale = np.max(np.abs(reference), axis=(0, 2))
        error = np.max(np.abs(dq - reference), axis=(0, 2))
        assert np.all(error <= 1e-13 * scale), (n_dof, error / scale)


def test_assembly_matmul_matches_non_blas_einsum(four_dof_fimset):
    # The einsum is the fallback named in ElementaryFimSet.assemble.  Only
    # the lower triangle is assembled; it has the bits of the gemv over all
    # 25 entries of each matrix, and agrees with the einsum to rounding.
    tall_prior = dataclasses.replace(
        default_prior(), omega0=Marginal("lognormal", 2 * np.pi, 0.15)
    )
    fifty, eighty = (
        compute_elementary_set(
            build_uniform_shear_model(n_dof), sample_prior(prior, 10, seed=4),
            TimeGrid(n_steps, 0.01),
        )
        for n_dof, prior, n_steps in ((50, default_prior(), 200), (80, tall_prior, 100))
    )
    lower = fim._LOWER_ROWS, fim._LOWER_COLS
    rng = np.random.default_rng(17)
    for fimset in (four_dof_fimset, fifty, eighty):
        n_dof, matrices = fimset.n_dof, fimset.matrices
        all_entries = np.ascontiguousarray(matrices.transpose(1, 2, 3, 0)).reshape(n_dof, -1)
        binary = (np.arange(n_dof) % 2 == 1).astype(float)
        for z in (binary, random_feasible_z(rng, n_dof, n_dof // 2, mix=0.5)):
            assembled = fimset.assemble(z).stack[lower]
            gemv = (z @ all_entries).reshape(5, 5, -1)[lower]
            assert np.array_equal(assembled, gemv)
            reference = np.einsum("i,kipq->pqk", z, matrices)
            # Off-diagonal entries cancel, so each entry is judged against
            # its PSD bound sqrt(Q_pp Q_qq), the same for both sums.
            diagonal = np.einsum("ppk->pk", reference)
            scale = np.sqrt(diagonal[:, None, :] * diagonal[None, :, :])[lower]
            error = np.abs(assembled - reference[lower])
            assert np.all(error <= 1e-14 * scale), np.max(error / scale)
