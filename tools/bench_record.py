"""Fold benchmark records into ``BENCH_<label>.json`` at the repository root.

    python3 tools/bench_record.py LABEL [--checkout DIR]

``bench/run.py`` writes the full record of its last run of a workload,
seed and trace setting to ``.bench_out/<workload>-seed<S>-trace<T>.json``
in the checkout it runs from, and the next such run overwrites it.  Run
this after each benchmark run to keep the record: every record found in
``DIR/.bench_out/`` (the repository holding this script by default) is
appended to the file as one run, unless the file already holds it.  A run
carries the checkout's commit, whether its ``src/`` differs from that
commit, and ``source``, the hash of its ``src/*.py`` that ``bench/run.py``
keys its digests by, which tells an uncommitted change from its parent.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _git(checkout: Path, *args: str) -> str | None:
    try:
        proc = subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_hash(checkout: Path) -> str:
    """The hash of ``src/*.py`` by which ``bench/run.py`` keys its digests.

    It repeats the hash in ``bench/run.py:check_across_runs``;
    ``tests/test_bench_record.py`` checks that the two agree.
    """
    source = hashlib.sha256()
    src = checkout / "src"
    for path in sorted(src.rglob("*.py")):
        source.update(path.relative_to(src).as_posix().encode())
        source.update(path.read_bytes())
    return source.hexdigest()[:16]


def run_entry(path: Path, checkout: Path) -> dict:
    """One recorded run: its identity, environment and metrics, without its per-repeat samples."""
    raw = path.read_bytes()
    record = json.loads(raw)
    status = _git(checkout, "status", "--porcelain", "--", "src")
    return {
        "workload": record["workload"],
        "seed": record["environment"]["seed"],
        "trace": record["trace"],
        "commit": _git(checkout, "rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "source": source_hash(checkout),
        "record_sha256": hashlib.sha256(raw).hexdigest(),
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
        "setup_times_s": record["setup_times_s"],
        "environment": record["environment"],
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("label")
    parser.add_argument("--checkout", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    target = ROOT / f"BENCH_{args.label}.json"
    bench = json.loads(target.read_text()) if target.exists() else {"label": args.label, "runs": []}
    known = {run["record_sha256"] for run in bench["runs"]}
    added = 0
    for path in sorted((args.checkout / ".bench_out").glob("*-seed*-trace*.json")):
        entry = run_entry(path, args.checkout)
        if entry["record_sha256"] in known:
            continue
        bench["runs"].append(entry)
        known.add(entry["record_sha256"])
        added += 1
    target.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"{target.name}: {added} run(s) added, {len(bench['runs'])} in all")


if __name__ == "__main__":
    main()
