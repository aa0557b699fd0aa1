"""The headline study: 20 sensors on a 50-story building.

An exhaustive search over the roughly 47 trillion possible configurations
is out of the question; the relaxed convex solve takes 15 objective
evaluations and the repair of its rounding 126 more, 141 in all.  Runs the
packaged pipeline and writes the full report artifacts to
``runs/fifty-story-demo/`` (runtime is about 3.5 s on a 2-core machine).
``runs/fifty-story/`` holds the committed reference report for this
configuration, which the demo leaves alone.
"""

from sensoropt import run_pipeline, validate_config, write_report

config = validate_config(
    {
        "n_dof": 50,
        "budget": 20,
        "n_steps": 1000,
        "dt": 0.01,
        "n_samples": 1000,
        "seed": 1,
        "baselines": ["greedy", "low", "high", "common"],
    }
)

report = run_pipeline(config)
out = write_report(report, "runs/fifty-story-demo")

placed = report.placement
print("instrumented stories:", ", ".join(map(str, placed.stories)))
print(f"relaxed objective  : {report.relaxed.objective_relaxed:.4f}")
print(f"binary objective   : {placed.objective_binary:.4f}  (gap {placed.gap:.2e})")
print(f"certified optimal  : {placed.certified_optimal}")
print(
    f"solver cost        : {report.relaxed.iterations} Newton steps, "
    f"{report.relaxed.objective_evaluations} objective evaluations"
)
print(f"\n{'case':10s} {'objective':>10s} {'bits gain':>10s} {'evaluations':>12s}")
for row in report.comparison.rows:
    print(
        f"{row.label:10s} {row.objective_value:10.4f} "
        f"{row.bits_gain:10.3f} {row.n_evaluations:12d}"
    )
print(f"\nartifacts in {out}/: report.json, report.txt, placement.csv, timings.json")
