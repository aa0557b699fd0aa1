"""End-to-end placement on a small building, certified against brute force.

For a four-story building with two sensors the full combinatorial search
is tiny, so this script shows the whole chain: prior sampling, elementary
information matrices, the relaxed convex solve, rounding with repair, and
a comparison table against every baseline.
"""

import numpy as np

from sensoropt import (
    TimeGrid,
    build_uniform_shear_model,
    certify_or_repair,
    compare,
    compute_elementary_set,
    default_prior,
    exhaustive,
    fixed_configs,
    greedy_forward,
    sample_prior,
    solve_relaxed,
)

N_DOF, BUDGET = 4, 2

model = build_uniform_shear_model(N_DOF)
samples = sample_prior(default_prior(), n_samples=1000, seed=1)
grid = TimeGrid(n_steps=1000, dt=0.01)

# One 5x5 information matrix per (prior sample, candidate story); this is
# the only expensive step and everything downstream reuses it.
elems = compute_elementary_set(model, samples, grid)
print(f"elementary matrices: {elems.n_samples} samples x {elems.n_dof} stories")

solution = solve_relaxed(elems, BUDGET)
print("\nrelaxed optimum z*:", np.round(solution.z_star, 4))
print(
    f"objective {solution.objective_relaxed:.4f} after {solution.iterations} Newton steps, "
    f"{solution.objective_evaluations} objective evaluations"
)

placed = certify_or_repair(solution.z_star, elems, BUDGET)
print(f"binary placement: stories {placed.stories}, certified: {placed.certified_optimal}")

# The exhaustive optimum over all C(4, 2) = 6 configurations must agree.
exact = exhaustive(elems, BUDGET)
assert placed.objective_binary == exact.objective_value
print("matches the exhaustive optimum over all configurations")

greedy = greedy_forward(elems, BUDGET)
fixed = fixed_configs(N_DOF, BUDGET)
# (label, placement, evaluations spent finding it); the first row is the reference.
rows = compare(
    [("optimal", placed.delta, solution.objective_evaluations + placed.objective_evaluations),
     ("greedy", greedy.delta, greedy.n_evaluations),
     ("exhaustive", exact.delta, exact.n_evaluations),
     ("low", fixed["low"], 1), ("high", fixed["high"], 1), ("common", fixed["common"], 1)],
    elems,
)
print(f"\n{'case':12s} {'stories':16s} {'objective':>10s} {'bits gain':>10s}")
for row in rows:
    stories = ",".join(map(str, row.stories))
    print(f"{row.label:12s} {stories:16s} {row.objective_value:10.4f} {row.bits_gain:10.3f}")
