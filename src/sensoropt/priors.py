"""Designer priors over the uncertain system parameters and reproducible sampling.

Marginals are mutually independent.  A lognormal marginal is specified by
its physical-space location (the median) and the spread of its logarithm,
mirroring numpy's ``Generator.lognormal(mean, sigma)`` convention; the
``lognormal_underlying`` helper converts physical mean/std pairs into that
form for users who prefer moment matching.  Draws use numpy's PCG64
generator so sample sets are reproducible across platforms and runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .building import PARAMETER_NAMES, _is_count

STANDARD_GRAVITY = 9.81  # m/s^2

# Ground-acceleration amplitudes below this are redrawn: they would leave
# one information direction numerically rank-deficient.
_A0_FLOOR = 1e-6
# Rounds of redraws before a prior whose draws stay below the floor is
# rejected: one that puts less than half its mass below the floor leaves
# a sample there after this many rounds with odds below 1e-30.
_A0_REDRAWS = 100

_DISTRIBUTIONS = ("lognormal", "normal")


@dataclass(frozen=True)
class Marginal:
    """One-dimensional prior marginal, either lognormal or normal.

    For ``dist == "normal"``, ``mean`` and ``std`` are the usual physical
    moments.  For ``dist == "lognormal"``, ``mean`` is the physical-space
    location parameter (the median) and ``std`` the standard deviation of
    the variable's logarithm, so draws follow
    ``exp(Normal(ln(mean), std))``.  ``implied_moments`` gives the
    resulting physical mean and standard deviation.
    """

    dist: str
    mean: float
    std: float

    def __post_init__(self):
        if self.dist not in _DISTRIBUTIONS:
            raise ValueError(f"dist must be one of {_DISTRIBUTIONS}, got {self.dist!r}")
        # Written so that NaN fails every check.
        if not 0 < self.std < math.inf:
            raise ValueError(f"std must be positive and finite, got {self.std}")
        if not math.isfinite(self.mean):
            raise ValueError(f"mean must be finite, got {self.mean}")
        if self.dist == "lognormal" and not self.mean > 0:
            raise ValueError(f"lognormal mean must be positive, got {self.mean}")

    def implied_moments(self) -> tuple[float, float]:
        """Physical-space mean and standard deviation of the marginal."""
        if self.dist == "normal":
            return self.mean, self.std
        var_factor = math.expm1(self.std**2)
        phys_mean = self.mean * math.exp(self.std**2 / 2.0)
        return phys_mean, phys_mean * math.sqrt(var_factor)


@dataclass(frozen=True)
class PriorSpec:
    """Independent marginals for the five uncertain system parameters."""

    omega0: Marginal
    alpha: Marginal
    beta: Marginal
    omega: Marginal
    a0: Marginal

    def marginals(self):
        """Marginals in canonical parameter order."""
        return tuple(getattr(self, name) for name in PARAMETER_NAMES)


def default_prior() -> PriorSpec:
    """Reference prior for typical low-rise to mid-rise buildings.

    The frequency parameters center on 1 Hz with a 25% log-space spread,
    damping is light and nearly certain, and the ground-acceleration
    amplitude is zero-mean with a standard deviation of 40% of standard
    gravity.
    """
    return PriorSpec(
        omega0=Marginal("lognormal", math.tau, 0.25),
        alpha=Marginal("lognormal", 0.1, 0.01),
        beta=Marginal("lognormal", 1e-4, 1e-5),
        omega=Marginal("lognormal", math.tau, 0.25),
        a0=Marginal("normal", 0.0, 0.4 * STANDARD_GRAVITY),
    )


def lognormal_underlying(mean: float, std: float) -> tuple[float, float]:
    """Underlying-normal parameters of a lognormal with given physical moments.

    Returns ``(mu_ln, sigma_ln)`` such that exp of a normal with those
    parameters has exactly the requested mean and standard deviation:
    ``sigma_ln^2 = ln(1 + std^2/mean^2)`` and
    ``mu_ln = ln(mean) - sigma_ln^2 / 2``.
    """
    if not 0 < mean < math.inf:
        raise ValueError(f"mean must be positive and finite, got {mean}")
    if not 0 < std < math.inf:
        raise ValueError(f"std must be positive and finite, got {std}")
    var_ln = math.log1p((std / mean) ** 2)
    return math.log(mean) - var_ln / 2.0, math.sqrt(var_ln)


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Monte-Carlo sample of system parameters, one row per draw.

    ``values`` has shape (n_samples, 5) with columns in
    ``PARAMETER_NAMES`` order.  The array is read-only so sample sets can
    be shared freely across threads.
    """

    values: np.ndarray
    seed: int

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    def __len__(self) -> int:
        return self.n_samples


def sample_prior(spec: PriorSpec, n_samples: int, seed: int) -> SampleSet:
    """Draw a reproducible sample set from the prior.

    Draws are made parameter by parameter in canonical order, so the
    result is bit-identical across runs and independent of thread count.
    Amplitudes ``a0`` below ``_A0_FLOOR`` in magnitude are redrawn, for
    at most ``_A0_REDRAWS`` rounds; a sample still below the floor after
    them raises ``ValueError``.
    """
    if not _is_count(n_samples) or n_samples < 1:
        raise ValueError(f"n_samples must be a positive integer, got {n_samples!r}")
    rng = np.random.Generator(np.random.PCG64(seed))

    def draw(marginal: Marginal, size: int) -> np.ndarray:
        if marginal.dist == "lognormal":
            return rng.lognormal(math.log(marginal.mean), marginal.std, size=size)
        return rng.normal(marginal.mean, marginal.std, size=size)

    columns = []
    for name, marginal in zip(PARAMETER_NAMES, spec.marginals()):
        column = draw(marginal, n_samples)
        if name == "a0":
            tiny = np.flatnonzero(np.abs(column) < _A0_FLOOR)
            for _ in range(_A0_REDRAWS):
                if not tiny.size:
                    break
                column[tiny] = draw(marginal, tiny.size)
                tiny = tiny[np.abs(column[tiny]) < _A0_FLOOR]
            if tiny.size:
                raise ValueError(
                    f"a0: {tiny.size} of {n_samples} samples stayed below the floor "
                    f"{_A0_FLOOR:g} after {_A0_REDRAWS} rounds of redraws"
                )
        columns.append(column)
    values = np.column_stack(columns)
    values.setflags(write=False)
    return SampleSet(values=values, seed=int(seed))
