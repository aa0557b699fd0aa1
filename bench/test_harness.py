"""Fast self-test of the placement benchmark, at tiny sizes.

    python3 -m pytest bench/
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
import run as harness  # noqa: E402
from sensoropt import pipeline  # noqa: E402

TINY = {
    "n_dof": 4,
    "budget": 2,
    "n_steps": 50,
    "dt": 0.05,
    "n_samples": 20,
    "seed": 1,
    "baselines": ["greedy", "exhaustive", "low", "high", "common"],
}
COMMITTED = harness.ROOT / "runs" / "fifty-story" / "report.json"


@pytest.fixture(autouse=True)
def bench_out(tmp_path, monkeypatch):
    out = tmp_path / "bench_out"
    monkeypatch.setattr(harness, "OUT", out)
    return out


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY), encoding="utf-8")
    return path


@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_every_metric_is_emitted(tiny_config, trace, section):
    record = harness.run("tiny", tiny_config, seed=3, seconds=0.3, trace=trace)
    assert record["correct"], [r["problems"] for r in record["repeats"]]
    assert record["attempted"] >= (2 if trace else 1)
    assert list(record["metrics"]) == [m["name"] for m in harness.SPEC[section]]
    times = {k: v for k, v in record["metrics"].items() if k.endswith("_s") and k != "trace.overhead_s"}
    assert all(value > 0 for value in times.values()), times


def _rewrite_report(out: Path, edit) -> None:
    path = out / "report.json"
    report = json.loads(path.read_text(encoding="utf-8"))
    edit(report)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _uncertify(out, call):
    _rewrite_report(out, lambda r: r["placement"].update(certified_optimal=False))


def _greedy_wins(out, call):
    def edit(report):
        rows = {row["label"]: row for row in report["comparison"]["rows"]}
        rows["greedy"]["objective_value"] = rows["optimal"]["objective_value"] + 1.0

    _rewrite_report(out, edit)


def _second_csv_differs(out, call):
    if call == 2:
        with open(out / "placement.csv", "a", encoding="utf-8") as fh:
            fh.write("\n")


@pytest.mark.parametrize("tamper, message", [
    (_uncertify, "not certified"),
    (_greedy_wins, "beats optimal"),
    (_second_csv_differs, "placement.csv differs"),
])
def test_gate_fails_on_tampered_report(tiny_config, monkeypatch, tamper, message):
    write_report = pipeline.write_report
    calls = []

    def tampered(report, out_dir):
        out = write_report(report, out_dir)
        calls.append(out)
        tamper(Path(out), len(calls))
        return out

    monkeypatch.setattr(pipeline, "write_report", tampered)
    record = harness.run("tiny", tiny_config, seed=3, seconds=30, trace=False)
    assert not record["correct"]
    assert record["failed"] == 1
    assert record["metrics"] == {}
    assert any(message in p for p in record["repeats"][-1]["problems"])


def test_artifacts_must_match_earlier_runs():
    artifacts = {name: b"same" for name in harness.ARTIFACTS}
    assert harness.check_across_runs("tiny", 3, artifacts) == []
    assert harness.check_across_runs("tiny", 3, artifacts) == []
    changed = {**artifacts, "report.txt": b"other"}
    assert harness.check_across_runs("tiny", 3, changed) == ["report.txt differs from an earlier run's"]
    assert harness.check_across_runs("tiny", 4, changed) == []


def test_main_exits_nonzero_on_a_failed_check(monkeypatch, capsys):
    monkeypatch.setattr(harness, "SMALL_BUILDING_STORIES", [1, 4])
    code = harness.main(["--workload", "small-building", "--seed", "1", "--seconds", "0.1"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert (last["correct"], last["attempted"], last["failed"]) == (False, 1, 1)


def test_reference_check_takes_last_digits_but_not_stories():
    reference = json.loads(COMMITTED.read_text(encoding="utf-8"))
    nudged = copy.deepcopy(reference)
    nudged["comparison"]["rows"][0]["objective_value"] *= 1 + 3e-14
    nudged["relaxed"]["trace"][-1]["newton_decrement"] *= 1 + 1e-7
    assert harness.check_report("fifty-story-paper", nudged) == []
    moved = copy.deepcopy(reference)
    moved["comparison"]["rows"][0]["stories"][0] = 22
    assert harness.check_report("fifty-story-paper", moved) == [
        "report.comparison.rows[0].stories[0]: 22 differs from the reference 21"
    ]


def test_fails_without_the_program(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "small-building", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
