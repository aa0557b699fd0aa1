import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
TOOL = REPO / "tools" / "bench_record.py"


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def bench_record(monkeypatch, tmp_path):
    module = _load(TOOL, "bench_record")
    monkeypatch.setattr(module, "ROOT", tmp_path)
    return module


def _checkout(path: Path, code: str) -> Path:
    (path / "src" / "pkg").mkdir(parents=True)
    (path / "src" / "pkg" / "mod.py").write_text(code)
    (path / ".bench_out").mkdir()
    return path


def _record(checkout: Path, peak: float) -> None:
    record = {
        "workload": "fifty-story", "trace": False, "environment": {"seed": 1, "nproc": 2},
        "setup_times_s": [0.2] * 5,
        "repeats": [{"traced": False, "place_s": 0.3, "problems": []}],
        "correct": True, "attempted": 1, "failed": 0,
        "metrics": {"setup_s": 0.2, "place_s": 0.3, "peak_rss_mb": peak},
    }
    (checkout / ".bench_out" / "fifty-story-seed1-trace0.json").write_text(json.dumps(record))


def test_each_run_is_folded_once(bench_record, tmp_path):
    # Alternating runs of two sources; the record file of a run is
    # overwritten by the next run, so the tool is called after each.
    parent = _checkout(tmp_path / "parent", "x = 1\n")
    change = _checkout(tmp_path / "change", "x = 2\n")
    subprocess.run(["git", "init", "-q", str(parent)], check=True)
    for peak_parent, peak_change in ((50.0, 49.5), (50.1, 49.6)):
        _record(parent, peak_parent)
        bench_record.main(["trial", "--checkout", str(parent)])
        _record(change, peak_change)
        bench_record.main(["trial", "--checkout", str(change)])
    bench_record.main(["trial", "--checkout", str(change)])  # nothing new
    runs = json.loads((tmp_path / "BENCH_trial.json").read_text())["runs"]
    assert [run["metrics"]["peak_rss_mb"] for run in runs] == [50.0, 49.5, 50.1, 49.6]
    assert [run["source"] for run in runs] == [
        bench_record.source_hash(checkout) for checkout in (parent, change) * 2
    ]
    assert runs[0]["commit"] is None  # a repository without commits
    assert runs[1]["dirty"] is None  # not a repository


def test_source_hash_is_the_benchmarks_digest_key(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(REPO / "bench"))
    harness = _load(REPO / "bench" / "run.py", "bench_run_for_hash")
    monkeypatch.setattr(harness, "OUT", tmp_path)
    harness.check_across_runs("trial", 1, {name: b"" for name in harness.ARTIFACTS})
    keys = [path.name for path in (tmp_path / "digests").iterdir()]
    assert keys == [_load(TOOL, "bench_record").source_hash(REPO)]
