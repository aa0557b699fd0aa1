"""The README's schema and headline counts stay true, and the demos runnable."""

import ast
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from sensoropt import validate_config
from sensoropt.config import RunConfig

ROOT = Path(__file__).resolve().parents[1]


def test_readme_schema_block_validates():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"### Configuration schema\s+```jsonc\n(.*?)```", readme, re.S).group(1)
    raw = json.loads(re.sub(r"\s*//.*", "", block))
    validate_config(raw)
    # Every top-level field is documented.
    assert set(raw) == {f.name for f in dataclasses.fields(RunConfig)}


def _search(words: str, text: str) -> tuple[int, ...]:
    match = re.search(words.replace(" ", r"\s+"), text, re.S)
    assert match, f"sentence missing: {words}"
    return tuple(map(int, match.groups()))


def test_readme_headline_counts_match_the_committed_run():
    # README's headline sentence and demo 03's docstring quote the counts
    # of the committed 50-story run.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    total, solve, repair, ambiguous = _search(
        r"with (\d+) objective evaluations, .*?: (\d+) in the interior-point solve"
        r" and (\d+) in the repair, which enumerates the (\d+) ambiguous stories",
        readme,
    )
    demo = ast.get_docstring(ast.parse(
        (ROOT / "demos" / "03_fifty_story_study.py").read_text(encoding="utf-8")
    ))
    demo_counts = _search(
        r"takes (\d+) objective evaluations and the repair of its rounding (\d+) more,"
        r" (\d+) in all",
        demo,
    )
    report = json.loads(
        (ROOT / "runs" / "fifty-story" / "report.json").read_text(encoding="utf-8")
    )
    optimal = next(r for r in report["comparison"]["rows"] if r["label"] == "optimal")
    placement = report["placement"]
    assert (total, solve, repair, ambiguous) == (
        optimal["n_evaluations"],
        report["relaxed"]["objective_evaluations"],
        placement["objective_evaluations"],
        len(placement["ambiguous_stories"]),
    )
    assert demo_counts == (solve, repair, total)


@pytest.mark.parametrize(
    "demo", ["01_model_and_response.py", "02_small_building_placement.py"]
)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True, text=True, env=env, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
