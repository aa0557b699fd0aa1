"""Placement benchmark: one certified placement, timed end to end or layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

A workload is a configuration in ``bench/workloads/``; ``--seed`` becomes
its config ``seed``.  The benchmark repeats ``run_pipeline`` +
``write_report`` in this process until ``--seconds`` have passed and
checks every report (see ``check_report``).  With ``--trace 0`` it also
times the set-up in fresh processes and prints the end-to-end metrics;
with ``--trace 1`` untraced and traced placements alternate and it prints
the per-layer metrics of ``tracing.py``.  Metric names and units come from
``BENCHMARK.json``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
exit code is 1 when any placement failed.  ``bench/README.md`` explains
the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = BENCH / "workloads"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

sys.path.insert(0, str(SRC))
import numpy  # noqa: E402
import scipy  # noqa: E402
import sensoropt  # noqa: E402
from sensoropt import pipeline, validate_config  # noqa: E402

import tracing  # noqa: E402

if Path(sensoropt.__file__).resolve().parent != SRC / "sensoropt":
    raise ImportError(f"sensoropt was imported from {sensoropt.__file__}, not from {SRC}")

ARTIFACTS = ("report.json", "report.txt", "placement.csv")
COUNT_UNITS = ("count", "bytes")
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
MIN_COVERAGE_PCT = 95.0
# The published small-building table.
SMALL_BUILDING_STORIES = [2, 4]
# Committed reports to reproduce at one seed: counts and stories exactly,
# floats to a relative tolerance, because the reference was written on
# another machine and differs in the last digits.
REFERENCES = {("fifty-story-paper", 1): ROOT / "runs" / "fifty-story" / "report.json"}
REFERENCE_RTOL = 1e-9
REFERENCE_ATOL = 1e-12


def environment(seed: int) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_configuration": blas.get("openblas configuration"),
        "blas_threads": {
            var: os.environ.get(var, "default")
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "seed": seed,
    }


def time_setup(config_path: Path, seed: int, n_samples: int) -> float:
    """Wall time of a fresh process that imports, loads and samples."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), str(config_path), str(seed)]
    start = time.perf_counter()
    done = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    seconds = time.perf_counter() - start
    if int(done.stdout) != n_samples:
        raise RuntimeError(f"set-up drew {done.stdout.strip()} samples, expected {n_samples}")
    return seconds


def place(config, out_dir: Path, tracer: tracing.Tracer | None = None):
    """Wall time of one placement, ``run_pipeline`` + ``write_report``."""
    run_pipeline, write_report = pipeline.run_pipeline, pipeline.write_report
    with tracer.installed() if tracer else contextlib.nullcontext():
        if tracer:
            run_pipeline = tracer.wrap(tracing.ROOT_SPAN, run_pipeline)
            write_report = tracer.wrap("pipeline.write_report", write_report)
        start = time.perf_counter()
        report = run_pipeline(config)
        write_report(report, out_dir)
        return time.perf_counter() - start


def compare_reference(actual, expected, path: str = "report") -> list[str]:
    """Differences from a reference report: floats to a tolerance, the rest exactly."""
    if isinstance(actual, float) and isinstance(expected, float):
        if math.isclose(actual, expected, rel_tol=REFERENCE_RTOL, abs_tol=REFERENCE_ATOL):
            return []
    elif isinstance(actual, dict) and isinstance(expected, dict) and actual.keys() == expected.keys():
        return [
            p for key in expected
            for p in compare_reference(actual[key], expected[key], f"{path}.{key}")
        ]
    elif isinstance(actual, list) and isinstance(expected, list) and len(actual) == len(expected):
        return [
            p for i, (a, e) in enumerate(zip(actual, expected))
            for p in compare_reference(a, e, f"{path}[{i}]")
        ]
    elif actual == expected:
        return []
    return [f"{path}: {actual!r} differs from the reference {expected!r}"]


def check_report(workload: str, report: dict) -> list[str]:
    """Correctness problems of one placement report; empty when it passes."""
    cfg, relaxed, placement = report["config"], report["relaxed"], report["placement"]
    rows = {row["label"]: row for row in report["comparison"]["rows"]}
    optimal = rows["optimal"]
    problems = []
    if not relaxed["converged"]:
        problems.append("the relaxed solve did not converge")
    if not placement["certified_optimal"]:
        problems.append("the placement is not certified")
    greedy = rows.get("greedy")
    if greedy is not None:
        if greedy["objective_value"] > optimal["objective_value"]:
            problems.append(
                f"greedy {greedy['objective_value']!r} beats optimal {optimal['objective_value']!r}"
            )
        expected = cfg["budget"] * (2 * cfg["n_dof"] - cfg["budget"])
        if greedy["n_evaluations"] != expected:
            problems.append(f"greedy made {greedy['n_evaluations']} evaluations, not {expected}")
    exact = rows.get("exhaustive")
    if exact is not None and (exact["stories"], exact["objective_value"]) != (
        optimal["stories"], optimal["objective_value"]
    ):
        problems.append(f"optimal {optimal['stories']} differs from exhaustive {exact['stories']}")
    if workload == "small-building" and optimal["stories"] != SMALL_BUILDING_STORIES:
        problems.append(f"small building placed {optimal['stories']}, not {SMALL_BUILDING_STORIES}")
    reference = REFERENCES.get((workload, cfg["seed"]))
    if reference is not None:
        expected_report = json.loads(reference.read_text(encoding="utf-8"))
        problems += compare_reference(_without_newton_log(report), _without_newton_log(expected_report))
    return problems


def _without_newton_log(report: dict) -> dict:
    # Late Newton decrements amplify last-digit differences up to ~1e-7
    # relative, so the per-step log is left out of the reference comparison.
    relaxed = {k: v for k, v in report["relaxed"].items() if k != "trace"}
    return {**report, "relaxed": relaxed}


def check_counters(layers: dict, report: dict) -> list[str]:
    """Traced counters must equal the report's own counts exactly."""
    cfg, relaxed, placement = report["config"], report["relaxed"], report["placement"]
    expected = {
        "building.sensitivities_calls": cfg["n_samples"],
        "fim.gradient_hessian_calls": relaxed["gradient_evaluations"],
        "solver.newton_steps": relaxed["iterations"],
        "solver.objective_evals": relaxed["objective_evaluations"],
        "solver.backtracks": relaxed["objective_evaluations"] - relaxed["iterations"] - 1,
        "solver.certify_evals": placement["objective_evaluations"],
    }
    if "greedy" in cfg["baselines"]:
        expected["baselines.greedy_evals"] = cfg["budget"] * (2 * cfg["n_dof"] - cfg["budget"])
    problems = [
        f"traced {name} = {layers[name]}, the report gives {value}"
        for name, value in expected.items()
        if layers[name] != value
    ]
    if layers["trace.coverage_pct"] < MIN_COVERAGE_PCT:
        problems.append(f"layer self times cover only {layers['trace.coverage_pct']:.1f} % of place_s")
    return problems


def check_across_runs(workload: str, seed: int, artifacts: dict) -> list[str]:
    """The artifacts must match earlier runs of the same source, workload and seed.

    Their digests are kept in ``.bench_out/digests/<hash of src/>/``, so
    a fresh process (with its own hash seed) is compared with the first.
    """
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode())
        source.update(path.read_bytes())
    digests = {name: hashlib.sha256(artifacts[name]).hexdigest() for name in ARTIFACTS}
    record = OUT / "digests" / source.hexdigest()[:16] / f"{workload}-seed{seed}.json"
    if not record.exists():
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")
        return []
    earlier = json.loads(record.read_text(encoding="utf-8"))
    return [f"{name} differs from an earlier run's" for name in ARTIFACTS if digests[name] != earlier[name]]


def measure(workload: str, config, seconds: float, trace: bool, work: Path, setup=None):
    """Repeat placements for ``seconds`` (at least one round); stop at a failure.

    A round is one untraced placement, followed by a traced one when
    ``trace`` is set.  Every repeat must write the same bytes as the first,
    and the first the same as earlier runs'.  ``setup``, when given, is
    called ``SETUP_REPEATS`` times at even intervals between rounds, so
    set-up and placement times sample the same stretch of machine load.
    Returns the repeats and the set-up times.
    """
    reps: list[dict] = []
    setup_times: list[float] = []
    first_artifacts = None
    first_counts = None
    round_times = []
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        while (setup and len(setup_times) < SETUP_REPEATS
               and time.perf_counter() >= start + len(setup_times) * seconds / SETUP_REPEATS):
            setup_times.append(setup())
        round_start = time.perf_counter()
        for traced in (False, True) if trace else (False,):
            out = work / f"rep{len(reps)}"
            rep = {"traced": traced, "place_s": None, "problems": []}
            reps.append(rep)
            tracer = tracing.Tracer() if traced else None
            try:
                rep["place_s"] = place(config, out, tracer)
                artifacts = {name: (out / name).read_bytes() for name in ARTIFACTS}
                report = json.loads(artifacts["report.json"])
                if first_artifacts is None:
                    first_artifacts = artifacts
                    rep["problems"] += check_across_runs(workload, config.seed, artifacts)
                rep["problems"] += [
                    f"{name} differs from the first repeat's"
                    for name in ARTIFACTS
                    if artifacts[name] != first_artifacts[name]
                ]
                rep["problems"] += check_report(workload, report)
                if traced:
                    layers = tracer.layer_metrics(rep["place_s"])
                    layers["solver.ambiguous_stories"] = len(report["placement"]["ambiguous_stories"])
                    layers["pipeline.report_bytes"] = sum(map(len, artifacts.values()))
                    rep["problems"] += check_counters(layers, report)
                    counts = {k: v for k, v in layers.items() if UNITS[k] in COUNT_UNITS}
                    first_counts = first_counts or counts
                    if counts != first_counts:
                        rep["problems"].append("traced counters differ from the first repeat's")
                    rep["layers"] = layers
            except Exception as exc:  # a failed placement is counted, not fatal
                traceback.print_exc()
                rep["problems"].append(f"raised {type(exc).__name__}: {exc}")
            finally:
                shutil.rmtree(out, ignore_errors=True)
            if rep["problems"]:
                return reps, setup_times
        round_times.append(time.perf_counter() - round_start)
        if time.perf_counter() + statistics.median(round_times) > deadline:
            break
    while setup and len(setup_times) < SETUP_REPEATS:
        setup_times.append(setup())
    return reps, setup_times


def summarize(reps: list[dict], setup_times: list[float], trace: bool) -> dict:
    """Medians over the passing repeats, keyed and ordered as in BENCHMARK.json."""
    untraced = [r["place_s"] for r in reps if not r["traced"] and not r["problems"]]
    if not trace:
        values = {
            "setup_s": statistics.median(setup_times),
            "place_s": statistics.median(untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        return {m["name"]: values[m["name"]] for m in SPEC["end_to_end"]}
    traced = [r for r in reps if r["traced"] and not r["problems"]]
    values = {  # counters repeat exactly, so the first repeat's stand for all
        name: first if UNITS[name] in COUNT_UNITS else statistics.median(r["layers"][name] for r in traced)
        for name, first in traced[0]["layers"].items()
    }
    values["trace.place_s"] = statistics.median(r["place_s"] for r in traced)
    values["trace.untraced_place_s"] = statistics.median(untraced)
    values["trace.overhead_s"] = values["trace.place_s"] - values["trace.untraced_place_s"]
    return {m["name"]: values[m["name"]] for m in SPEC["per_layer"]}


def run(workload: str, config_path: Path, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the result record."""
    raw = json.loads(config_path.read_text(encoding="utf-8"))
    raw["seed"] = seed
    config = validate_config(raw)
    setup = None if trace else functools.partial(time_setup, config_path, seed, config.n_samples)
    work = OUT / f"work-{os.getpid()}"
    try:
        reps, setup_times = measure(workload, config, seconds, trace, work, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = sum(1 for r in reps if r["problems"])
    return {
        "workload": workload,
        "trace": trace,
        "environment": environment(seed),
        "setup_times_s": setup_times,
        "repeats": reps,
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": summarize(reps, setup_times, trace) if failed == 0 else {},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    workloads = sorted(p.stem for p in WORKLOADS.glob("*.json"))
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    config_path = WORKLOADS / f"{args.workload}.json"
    record = run(args.workload, config_path, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{record['attempted']} placements in {args.seconds:g} s")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    for rep in record["repeats"]:
        for problem in rep["problems"]:
            print(f"FAILED: {problem}")
    for name, value in record["metrics"].items():
        shown = f"{value:16.6f}" if isinstance(value, float) else f"{value:16d}"
        print(f"  {name:40s} {shown} {UNITS[name]}")
    print(f"  {'failed_runs':40s} {record['failed']:16d} of {record['attempted']} attempted")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in record["metrics"].items()},
    }), flush=True)
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
