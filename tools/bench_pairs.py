"""Run the benchmark in alternating parent/change pairs and compare the two.

    python3 tools/bench_pairs.py LABEL --parent DIR --change DIR

For each workload that ``BENCHMARK.json`` lists, it runs ``PAIRS`` pairs
of ``bench/run.py --workload W --seed 1 --seconds <run_seconds> --trace 0``,
each run in its own checkout's directory.  Odd pairs run the parent
first, even pairs the change, so that a slow spell of the machine falls
on both sides.  After each run, ``bench_record.main`` folds the
checkout's record into ``BENCH_<LABEL>.json``, which keeps every run.

At the end it prints, per workload and end-to-end metric: both medians,
the parent's interquartile range (``statistics.quantiles``' default
method), the change's wins out of ``PAIRS`` and whether the change's
median is within the metric's ``BENCHMARK.json`` bound, a fraction of the
parent's median.  A metric whose parent IQR exceeds that bound is marked
unresolved: the runs cannot tell a change of the bound's size from
noise.  The exit code is 1 when any run failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
SPEC = json.loads((TOOLS.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
PAIRS = 10
SEED = 1

sys.path.insert(0, str(TOOLS))
import bench_record  # noqa: E402


def bench_run(checkout: Path, workload: str) -> dict:
    """One benchmark run in ``checkout``: its metrics and failed placements.

    ``failed`` is None when the run ended without its result line.
    """
    command = [*SPEC["command"], "--workload", workload, "--seed", str(SEED),
               "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr)
        return {"metrics": {}, "failed": None}
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return {"metrics": metrics, "failed": result["failed"]}


def summary(workload: str, parent: list[dict], change: list[dict]) -> list[str]:
    """One line per end-to-end metric, from the pairs in which both runs gave it."""
    lines = []
    for metric in SPEC["end_to_end"]:
        name = metric["name"]
        pairs = [(a["metrics"][name], b["metrics"][name]) for a, b in zip(parent, change)
                 if name in a["metrics"] and name in b["metrics"]]
        if len(pairs) < 2:
            lines.append(f"{workload:16s} {name:12s} too few pairs")
            continue
        p, c = zip(*pairs)
        sign = 1 if metric["better"] == "lower" else -1
        wins = sum(sign * (b - a) < 0 for a, b in pairs)
        p_median, c_median = statistics.median(p), statistics.median(c)
        q1, _, q3 = statistics.quantiles(p, n=4)
        room = metric["bound"] * p_median
        within = "within" if sign * (c_median - p_median) <= room else "OUTSIDE"
        resolved = "unresolved" if q3 - q1 > room else "resolved"
        lines.append(
            f"{workload:16s} {name:12s} {p_median:10.4f} {c_median:10.4f} {q3 - q1:10.4f}"
            f" {wins:3d}/{len(p):<3d} {within:8s} {resolved}"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("label")
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    args = parser.parse_args(argv)
    sides = {"parent": args.parent, "change": args.change}

    lines, failed = [], 0
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = {"parent": [], "change": []}
        for pair in range(1, PAIRS + 1):
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for side in order:
                run = bench_run(sides[side], workload)
                bench_record.main([args.label, "--checkout", str(sides[side])])
                runs[side].append(run)
                failed += run["failed"] != 0
                shown = " ".join(f"{k}={v:.4f}" for k, v in run["metrics"].items())
                print(f"{workload} pair {pair}/{PAIRS} {side}: {shown} failed={run['failed']}",
                      flush=True)
        lines += summary(workload, runs["parent"], runs["change"])

    print(f"{'workload':16s} {'metric':12s} {'parent':>10s} {'change':>10s} {'parent IQR':>10s}"
          f" {'wins':7s} {'bound':8s} spread")
    print("\n".join(lines))
    print(f"failed runs: {failed}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
