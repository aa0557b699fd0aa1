import importlib.util
import json
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

# Per pair, in pair order: the parent's and the change's place_s.  The
# change is 0.01 s faster in every pair but the fifth.
PARENT_PLACE = [0.12, 0.10, 0.15, 0.11, 0.19, 0.13, 0.17, 0.14, 0.18, 0.16]
CHANGE_PLACE = [0.11, 0.09, 0.14, 0.10, 0.20, 0.12, 0.16, 0.13, 0.17, 0.15]


def _load_driver():
    spec = importlib.util.spec_from_file_location("bench_pairs", REPO / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pairs_alternate_and_the_summary_is_the_hand_computation(monkeypatch, tmp_path, capsys):
    driver = _load_driver()
    monkeypatch.setattr(driver.bench_record, "ROOT", tmp_path)
    sides = {name: tmp_path / name for name in ("parent", "change")}
    calls = []

    def stub(checkout, workload):
        # Stands in for bench/run.py: writes the record it would leave.
        side = checkout.name
        index = sum(1 for c in calls if c == (side, workload))
        calls.append((side, workload))
        place = (PARENT_PLACE if side == "parent" else CHANGE_PLACE)[index]
        metrics = {"setup_s": 0.2, "place_s": place,
                   "peak_rss_mb": 50.0 + index / 100 if side == "parent" else 55.6}
        record = {
            "workload": workload, "trace": False, "environment": {"seed": 1},
            "setup_times_s": [0.2], "correct": True, "attempted": 3, "failed": 0,
            "metrics": metrics,
        }
        (checkout / ".bench_out").mkdir(parents=True, exist_ok=True)
        (checkout / ".bench_out" / f"{workload}-seed1-trace0.json").write_text(json.dumps(record))
        return {"metrics": metrics, "failed": 0}

    monkeypatch.setattr(driver, "bench_run", stub)
    code = driver.main(["trial", "--parent", str(sides["parent"]), "--change", str(sides["change"])])
    assert code == 0

    workloads = [w["name"] for w in driver.SPEC["workloads"]]
    order = []
    for pair in range(1, 11):
        order += ["parent", "change"] if pair % 2 else ["change", "parent"]
    assert calls == [(side, w) for w in workloads for side in order]

    runs = json.loads((tmp_path / "BENCH_trial.json").read_text())["runs"]
    assert len(runs) == 2 * 10 * len(workloads)  # every run folded once

    rows = {tuple(line.split()[:2]): line.split()[2:] for line in capsys.readouterr().out.splitlines()}
    # place_s: medians (0.14 + 0.15) / 2 and (0.13 + 0.14) / 2; the
    # parent's quartiles at ranks 2.75 and 8.25 of its sorted values,
    # 0.1175 and 0.1725; 9 wins; a 0.055 IQR above the 0.25 · 0.145 bound.
    assert rows[(workloads[0], "place_s")] == [
        "0.1450", "0.1350", "0.0550", "9/10", "within", "unresolved"]
    # Equal values are no win; a spread of zero resolves anything.
    assert rows[(workloads[0], "setup_s")] == [
        "0.2000", "0.2000", "0.0000", "0/10", "within", "resolved"]
    # 55.6 MB is 5.555 MB above the parent's 50.045 MB median, past the
    # 0.1 · 50.045 bound; the parent's IQR is 0.055 MB.
    assert rows[(workloads[-1], "peak_rss_mb")] == [
        "50.0450", "55.6000", "0.0550", "0/10", "OUTSIDE", "resolved"]
    assert rows[("failed", "runs:")] == ["0"]
