import dataclasses
import json

import pytest

from sensoropt import ConfigError, validate_config
from sensoropt.config import load_config

GOOD = {
    "n_dof": 4,
    "budget": 2,
    "n_steps": 100,
    "dt": 0.01,
    "n_samples": 50,
    "seed": 1,
}


def test_minimal_config_fills_defaults():
    config = validate_config(dict(GOOD))
    assert config.n_dof == 4
    assert config.prior.omega0.dist == "lognormal"
    assert config.baselines == ("greedy", "low", "high", "common")


def test_missing_dt_named():
    raw = dict(GOOD)
    del raw["dt"]
    with pytest.raises(ConfigError) as excinfo:
        validate_config(raw)
    assert any("dt" in v for v in excinfo.value.violations)


def test_budget_infeasible():
    raw = dict(GOOD, budget=9)
    with pytest.raises(ConfigError) as excinfo:
        validate_config(raw)
    assert any("infeasible" in v for v in excinfo.value.violations)


def test_unknown_top_level_key_rejected():
    raw = dict(GOOD, dtt=0.01)
    with pytest.raises(ConfigError) as excinfo:
        validate_config(raw)
    assert any("unknown keys" in v for v in excinfo.value.violations)


def test_all_violations_reported_at_once():
    raw = dict(GOOD, budget=9, dt=-1.0, typo=3)
    del raw["seed"]
    with pytest.raises(ConfigError) as excinfo:
        validate_config(raw)
    text = "\n".join(excinfo.value.violations)
    assert "budget" in text and "dt" in text and "typo" in text and "seed" in text
    assert len(excinfo.value.violations) >= 4


def test_prior_override_and_validation():
    raw = dict(GOOD, prior={"a0": {"dist": "normal", "mean": 0.0, "std": 1.0}})
    config = validate_config(raw)
    assert config.prior.a0.std == 1.0
    assert config.prior.omega0.dist == "lognormal"  # untouched default

    raw = dict(GOOD, prior={"a0": {"dist": "normal", "mean": 0.0}})
    with pytest.raises(ConfigError) as excinfo:
        validate_config(raw)
    assert any("missing keys" in v for v in excinfo.value.violations)

    raw = dict(GOOD, prior={"damping": {"dist": "normal", "mean": 0, "std": 1}})
    with pytest.raises(ConfigError):
        validate_config(raw)


def test_baselines_validated():
    config = validate_config(dict(GOOD, baselines=["greedy"]))
    assert config.baselines == ("greedy",)
    with pytest.raises(ConfigError) as excinfo:
        validate_config(dict(GOOD, baselines=["genetic"]))
    assert any("genetic" in v for v in excinfo.value.violations)


def test_repeated_baselines_reported_with_other_violations():
    with pytest.raises(ConfigError) as excinfo:
        validate_config(dict(GOOD, dt=-1.0, baselines=["low", "greedy", "low"]))
    violations = excinfo.value.violations
    assert "baselines: repeated labels ['low']" in violations
    assert any(v.startswith("dt:") for v in violations)


def test_types_checked():
    with pytest.raises(ConfigError):
        validate_config(dict(GOOD, n_dof="four"))
    with pytest.raises(ConfigError):
        validate_config(dict(GOOD, n_dof=True))
    with pytest.raises(ConfigError):
        validate_config(dict(GOOD, dt="0.01"))


NORMAL_A0 = {"dist": "normal", "mean": 0.0}


@pytest.mark.parametrize(
    "override, named",
    [
        ({"dt": float("nan")}, "dt"),
        ({"prior": {"a0": dict(NORMAL_A0, std=float("nan"))}}, "prior.a0.std"),
        ({"prior": {"a0": dict(NORMAL_A0, std="1")}}, "prior.a0.std"),
        ({"seed": -1}, "seed"),
        ({"solver": {"tolerance": 1e-8}}, "unknown keys ['solver']"),
        ({"n_steps": 2.5}, "n_steps"),
        ({"prior": {"a0": dict(NORMAL_A0, std=True)}}, "prior.a0.std"),
        ({"prior": {"a0": dict(NORMAL_A0, std=0.0)}}, "prior.a0: std must be positive"),
    ],
)
def test_schema_rejects_value_and_names_field(override, named):
    with pytest.raises(ConfigError) as excinfo:
        validate_config(dict(GOOD, **override))
    assert any(v.startswith(named) for v in excinfo.value.violations), excinfo.value.violations


def test_canonical_fifty_story_file_parses():
    config = load_config("configs/fifty_story.json")
    assert config.n_dof == 50 and config.budget == 20
    assert config.n_steps == 1000 and config.n_samples == 1000


def test_echo_revalidates_to_same_config(tmp_path):
    config = validate_config(dict(GOOD))
    path = tmp_path / "echo.json"
    path.write_text(json.dumps(dataclasses.asdict(config)))
    assert load_config(path) == config


def test_invalid_json_reported():
    import tempfile, os

    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        fh.write("{not json")
        path = fh.name
    try:
        with pytest.raises(ConfigError):
            load_config(path)
    finally:
        os.unlink(path)
