import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sensoropt
from sensoropt import PipelineError, cli, run_pipeline, validate_config, write_report
from sensoropt.pipeline import run_oracle
from sensoropt.solver import Selection, story_numbers

ROOT = Path(__file__).resolve().parents[1]
SMALL = {
    "n_dof": 2,
    "budget": 1,
    "n_steps": 200,
    "dt": 0.01,
    "n_samples": 100,
    "seed": 1,
    "baselines": ["greedy", "exhaustive", "low", "high", "common"],
}


@pytest.fixture(scope="module")
def small_report():
    return run_pipeline(validate_config(dict(SMALL)))


class TestRunPipeline:
    def test_roof_sensor_selected(self, small_report):
        assert small_report.placement.stories == (2,)
        oracle = run_oracle(validate_config(dict(SMALL)))
        assert isinstance(oracle, Selection)
        assert oracle.stories == story_numbers(oracle.delta) == (2,)

    def test_full_budget_trivial_solve(self):
        config = validate_config(dict(SMALL, budget=2, baselines=[]))
        report = run_pipeline(config)
        np.testing.assert_array_equal(report.placement.delta, [1, 1])
        assert report.relaxed.iterations == 0

    def test_comparison_counts_match_counters(self, small_report):
        rows = {r.label: r for r in small_report.comparison}
        assert rows["greedy"].n_evaluations == 1 * (2 * 2 - 1)
        assert rows["exhaustive"].n_evaluations == 2
        assert rows["optimal"].n_evaluations == (
            small_report.relaxed.objective_evaluations
            + small_report.placement.objective_evaluations
        )

    def test_stage_attribution(self):
        config = validate_config(dict(SMALL))
        config.budget = 3  # bypass validation to hit the solve-stage check
        with pytest.raises(PipelineError) as excinfo:
            run_pipeline(config)
        assert excinfo.value.stage == "solve"

    def test_timings_cover_stages(self, small_report):
        for stage in ("model", "prior-sampling", "elementary-matrices",
                      "preflight", "solve", "certify", "baselines"):
            assert stage in small_report.timings


class TestWriteReport:
    def test_artifacts_written(self, small_report, tmp_path):
        out = write_report(small_report, tmp_path / "run")
        for name in ("report.json", "report.txt", "placement.csv", "timings.json"):
            assert (out / name).exists()
        payload = json.loads((out / "report.json").read_text())
        assert payload["placement"]["stories"] == [2]
        assert payload["version"]
        assert "timings" not in payload  # volatile data lives in the sidecar

    def test_derived_figures_are_the_written_ones(self, small_report, tmp_path):
        out = write_report(small_report, tmp_path / "run")
        payload = json.loads((out / "report.json").read_text())
        assert payload["placement"]["gap"] == small_report.gap
        assert small_report.gap == (
            small_report.relaxed.objective_relaxed - small_report.placement.objective_binary
        )
        assert payload["comparison"]["reference"] == small_report.comparison[0].label == "optimal"
        assert payload["version"] == sensoropt.__version__

    def test_ambiguous_stories_line_matches_the_json(self, tmp_path):
        # The small-building benchmark workload: its seed-1 repair
        # enumerates 2 ambiguous stories.
        raw = json.loads((ROOT / "bench" / "workloads" / "small-building.json").read_text())
        out = write_report(run_pipeline(validate_config(raw)), tmp_path / "run")
        ambiguous = json.loads((out / "report.json").read_text())["placement"]["ambiguous_stories"]
        prefix = "ambiguous stories repaired: "
        (line,) = [x for x in (out / "report.txt").read_text().splitlines() if x.startswith(prefix)]
        assert len(ambiguous) == 2
        assert line == prefix + ", ".join(map(str, ambiguous))

    def test_csv_layout(self, small_report, tmp_path):
        out = write_report(small_report, tmp_path / "run")
        lines = (out / "placement.csv").read_text().splitlines()
        assert lines[0] == "story,z,delta"
        assert len(lines) == 1 + 2
        story, z, delta = lines[2].split(",")
        assert story == "2" and delta == "1"
        assert 0.0 <= float(z) <= 1.0

    def test_report_reproducible_from_echo(self, small_report, tmp_path):
        echoed = validate_config(small_report.to_dict()["config"])
        report2 = run_pipeline(echoed)
        a = write_report(small_report, tmp_path / "a")
        b = write_report(report2, tmp_path / "b")
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
        assert (a / "placement.csv").read_bytes() == (b / "placement.csv").read_bytes()
        assert (a / "report.txt").read_bytes() == (b / "report.txt").read_bytes()


def _run_cli(args, env_extra=None, cwd=None, timeout=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "sensoropt.cli", *args],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=timeout,
    )


class TestCli:
    def test_place_and_seed_override(self, tmp_path):
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps(SMALL))
        out = tmp_path / "out"
        proc = _run_cli(["place", "--config", str(config_path), "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        assert "instrumented stories : 2" in proc.stdout
        payload = json.loads((out / "report.json").read_text())
        assert payload["config"]["seed"] == 1

        proc = _run_cli(
            ["place", "--config", str(config_path), "--out", str(out), "--seed", "9", "--quiet"]
        )
        assert proc.returncode == 0
        assert proc.stdout == ""
        payload = json.loads((out / "report.json").read_text())
        assert payload["config"]["seed"] == 9

    def test_config_baselines_name_the_comparison_rows(self, tmp_path):
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps(dict(SMALL, baselines=["low", "high"])))
        out = tmp_path / "out"
        proc = _run_cli(["place", "--config", str(config_path), "--out", str(out), "--quiet"])
        assert proc.returncode == 0, proc.stderr
        payload = json.loads((out / "report.json").read_text())
        labels = [r["label"] for r in payload["comparison"]["rows"]]
        assert labels == ["optimal", "low", "high"]

    def test_config_rejects_unknown_baseline_label(self, tmp_path):
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps(dict(SMALL, baselines=["genetic"])))
        proc = _run_cli(["place", "--config", str(config_path), "--quiet"])
        assert proc.returncode == 2
        assert "baselines: unknown labels ['genetic']" in proc.stderr

    def test_compare_verb_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["compare", "--config", str(tmp_path / "c.json")])
        assert excinfo.value.code == 2
        assert "invalid choice: 'compare'" in capsys.readouterr().err

    def test_configs_option_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["place", "--config", str(tmp_path / "c.json"), "--configs", "low"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --configs low" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["place", "oracle"])
    def test_output_dir_is_an_unknown_key(self, tmp_path, monkeypatch, capsys, command):
        def never(config):
            raise AssertionError("a stage ran with an invalid configuration")

        monkeypatch.setattr(cli, "run_pipeline", never)
        monkeypatch.setattr(cli, "run_oracle", never)
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps(dict(SMALL, output_dir=str(tmp_path / "run"))))
        assert cli.main([command, "--config", str(config_path)]) == 2
        assert "unknown keys ['output_dir']" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["place", "oracle"])
    def test_each_verb_takes_exactly_the_four_run_options(self, command):
        sub = next(
            a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        assert sorted(sub.choices) == ["oracle", "place"]
        options = {
            o for a in sub.choices[command]._actions for o in a.option_strings if o.startswith("--")
        }
        assert options == {"--config", "--seed", "--out", "--quiet", "--help"}

    def test_oracle_subcommand(self, tmp_path):
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps(SMALL))
        out = tmp_path / "out"
        proc = _run_cli(["oracle", "--config", str(config_path), "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        payload = json.loads((out / "oracle.json").read_text())
        assert payload.keys() == {"config", "delta", "stories", "objective_value", "n_evaluations"}
        assert payload["stories"] == [2]
        assert payload["n_evaluations"] == 2
        assert validate_config(payload["config"]) == validate_config(dict(SMALL))

    def test_oracle_cap_exceeded_fails_with_count(self, tmp_path):
        config_path = tmp_path / "c.json"
        config_path.write_text(
            json.dumps(dict(SMALL, n_dof=30, budget=10, n_steps=20, n_samples=2))
        )
        proc = _run_cli(["oracle", "--config", str(config_path)])
        assert proc.returncode == 1
        assert "30045015 configurations" in proc.stderr  # C(30, 10)

    @pytest.mark.parametrize("a0", [
        {"dist": "normal", "mean": 0.0, "std": 1e-9},
        {"dist": "lognormal", "mean": 1e-8, "std": 0.1},
    ])
    def test_amplitude_prior_below_the_floor_fails_its_stage(self, tmp_path, a0):
        # Every draw of these valid priors lies below the amplitude floor,
        # so redrawing alone would never end; the timeout turns a hang into
        # a failure.
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps(dict(SMALL, prior={"a0": a0})))
        proc = _run_cli(["place", "--config", str(config_path), "--quiet"], timeout=60)
        assert proc.returncode == 1, proc.stderr
        assert "stage 'prior-sampling'" in proc.stderr
        assert "a0: 100 of 100 samples stayed below the floor 1e-06" in proc.stderr

    def test_config_error_exit_code_and_all_violations(self, tmp_path):
        config_path = tmp_path / "bad.json"
        bad = dict(SMALL, budget=5)
        del bad["dt"]
        config_path.write_text(json.dumps(bad))
        proc = _run_cli(["place", "--config", str(config_path)])
        assert proc.returncode == 2
        assert "dt" in proc.stderr and "infeasible" in proc.stderr

    @pytest.mark.parametrize("content", [None, b"{\"n_dof\": \xff}"], ids=["missing", "not-utf8"])
    def test_unreadable_config_is_a_configuration_error(self, tmp_path, content):
        config_path = tmp_path / "c.json"
        if content is not None:
            config_path.write_bytes(content)
        proc = _run_cli(["place", "--config", str(config_path)])
        assert proc.returncode == 2, proc.stderr
        assert f"cannot read {config_path}" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_unwritable_out_fails_without_a_traceback(self, tmp_path):
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps(SMALL))
        (tmp_path / "file").write_text("")
        proc = _run_cli(["place", "--config", str(config_path), "--out", str(tmp_path / "file" / "run")])
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("error writing report: ")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", ["place", "oracle"])
    @pytest.mark.parametrize("out", ["file", "file/run", "file/run/deeper"])
    def test_unusable_out_fails_before_any_stage(self, tmp_path, monkeypatch, capsys, command, out):
        def never(config):
            raise AssertionError("a stage ran before --out was checked")

        monkeypatch.setattr(cli, "run_pipeline", never)
        monkeypatch.setattr(cli, "run_oracle", never)
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps(SMALL))
        (tmp_path / "file").write_text("")
        before = sorted(tmp_path.rglob("*"))
        code = cli.main([command, "--config", str(config_path), "--out", str(tmp_path / out)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error writing report: [Errno 20] Not a directory: '{tmp_path / 'file'}'\n"
        )
        assert sorted(tmp_path.rglob("*")) == before

    def test_seed_override_meets_the_schema(self, tmp_path):
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps(SMALL))
        proc = _run_cli(["place", "--config", str(config_path), "--seed", "-1"])
        assert proc.returncode == 2
        assert "seed: must be >= 0" in proc.stderr

    def test_byte_identical_across_runs_and_threads(self, tmp_path):
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps(SMALL))
        outputs = []
        for name, threads in (("t1", "1"), ("t8", "8")):
            out = tmp_path / name
            proc = _run_cli(
                ["place", "--config", str(config_path), "--out", str(out), "--quiet"],
                env_extra={"OMP_NUM_THREADS": threads,
                           "OPENBLAS_NUM_THREADS": threads,
                           "MKL_NUM_THREADS": threads},
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(out)
        a, b = outputs
        for name in ("report.json", "placement.csv", "report.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


IMPORT_GUARD_SCRIPT = """
import json
import runpy
import sys

import sensoropt
from sensoropt import run_pipeline, validate_config

config_path, out = sys.argv[1:]
with open(config_path, encoding="utf-8") as fh:
    run_pipeline(validate_config(json.load(fh)))
# What ``python -m sensoropt.cli place`` runs, in this process.
sys.argv = ["sensoropt.cli", "place", "--config", config_path, "--out", out, "--quiet"]
try:
    runpy.run_module("sensoropt.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert exc.code == 0, exc.code
print(json.dumps(sorted(name for name in sys.modules if name.split(".")[0] == "scipy")))
"""


def test_placement_does_not_load_scipy(tmp_path):
    # SciPy costs a quarter of a second to import and only the tests'
    # oracles need it; a lazy import anywhere on the placement path would
    # show up here.
    config_path = tmp_path / "c.json"
    config_path.write_text(json.dumps(SMALL))
    env = dict(os.environ)
    src = str(Path(sensoropt.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_GUARD_SCRIPT, str(config_path), str(tmp_path / "out")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "report.json").exists()
    assert json.loads(proc.stdout) == []
