"""Run configuration: a strict JSON schema with full-file validation.

The schema is the three dataclasses the file fills: ``RunConfig`` at the
top level, ``PriorSpec`` under ``prior`` and one ``Marginal`` per prior
entry.  Their field names are the only accepted keys, their type hints
the accepted types, and fields without a default are required.  Integers
reject booleans and fractions; numbers reject booleans, strings and
non-finite values.  A section given in the file starts from its field's
default, so ``prior`` lists only the marginals it overrides (each one
complete).  ``Marginal`` checks its own ranges; ``RunConfig``'s ranges
are checked here, on whichever fields parsed, so that every violation in
a file is reported at once.  The interior-point controls are not
configurable: they are the constants ``TOLERANCE``, ``MAX_ITERATIONS``
and ``MU`` in ``solver``, so a ``solver`` key is an unknown key.
"""

from __future__ import annotations

import dataclasses
import json
import math
import typing
from dataclasses import MISSING, dataclass, field

from .priors import PriorSpec, default_prior

BASELINE_LABELS = ("greedy", "exhaustive", "low", "high", "common")


class ConfigError(ValueError):
    """Invalid run configuration; ``violations`` lists every problem found."""

    def __init__(self, violations: list[str]):
        super().__init__("invalid configuration:\n  - " + "\n  - ".join(violations))
        self.violations = violations


@dataclass
class RunConfig:
    n_dof: int
    budget: int
    n_steps: int
    dt: float
    n_samples: int
    seed: int
    prior: PriorSpec = field(default_factory=default_prior)
    baselines: tuple[str, ...] = ("greedy", "low", "high", "common")


# A value that failed its check; the violation is already recorded.
_BAD = object()
_EXPECTED = {int: "an integer", float: "a finite number", str: "a string"}


def _parse(tp, value, path: str, violations: list[str], base=None):
    """``value`` checked against the type hint ``tp``, or ``_BAD``."""
    if dataclasses.is_dataclass(tp):
        values = _parse_fields(tp, value, path, violations, base)
        if values is _BAD or any(v is _BAD for v in values.values()):
            return _BAD
        try:
            return tp(**values)
        except ValueError as exc:
            violations.append(f"{path}: {exc}")
            return _BAD
    if typing.get_origin(tp) is tuple:  # ``tuple[X, ...]``, written as a list
        if isinstance(value, (list, tuple)):
            item = typing.get_args(tp)[0]
            items = [_parse(item, v, f"{path}[{i}]", violations) for i, v in enumerate(value)]
            return _BAD if any(v is _BAD for v in items) else tuple(items)
        expected = "a list"
    else:
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if tp is int:
            ok = number and isinstance(value, int)
        elif tp is float:
            ok = number and math.isfinite(value)
        else:
            ok = isinstance(value, tp)
        if ok:
            return tp(value)
        expected = _EXPECTED[tp]
    violations.append(f"{path}: expected {expected}, got {value!r}")
    return _BAD


def _parse_fields(cls, raw, path: str, violations: list[str], base=None):
    """Field values of dataclass ``cls`` read from the mapping ``raw``, or ``_BAD``.

    A field that ``raw`` omits keeps its value in ``base`` when one is
    given, else its own default; without either it is missing.
    """
    where = f"{path}: " if path else ""
    if not isinstance(raw, dict):
        violations.append(f"{where}expected a mapping, got {type(raw).__name__}")
        return _BAD
    fields = dataclasses.fields(cls)
    hints = typing.get_type_hints(cls)
    unknown = sorted(set(raw) - {f.name for f in fields})
    if unknown:
        violations.append(f"{where}unknown keys {unknown}")
    values, missing = {}, []
    for f in fields:
        if f.name in raw:
            nested = f.default_factory() if f.default_factory is not MISSING else None
            key = f"{path}.{f.name}" if path else f.name
            values[f.name] = _parse(hints[f.name], raw[f.name], key, violations, nested)
        elif base is not None:
            values[f.name] = getattr(base, f.name)
        elif f.default is MISSING and f.default_factory is MISSING:
            values[f.name] = _BAD
            missing.append(f.name)
    if missing:
        violations.append(f"{where}missing keys {missing}")
    return values


def _run_violations(values: dict) -> list[str]:
    """``RunConfig``'s range rules, applied to the fields that parsed."""
    v = {key: value for key, value in values.items() if value is not _BAD}
    found = [
        f"{key}: must be >= {low}, got {v[key]}"
        for key, low in (("n_dof", 1), ("budget", 1), ("n_steps", 1), ("n_samples", 1), ("seed", 0))
        if key in v and v[key] < low
    ]
    if "dt" in v and v["dt"] <= 0:
        found.append(f"dt: must be positive, got {v['dt']}")
    if "budget" in v and "n_dof" in v and v["budget"] > v["n_dof"]:
        found.append(f"budget: infeasible, {v['budget']} sensors for {v['n_dof']} stories")
    baselines = v.get("baselines", ())
    bad = sorted(set(baselines) - set(BASELINE_LABELS))
    if bad:
        found.append(f"baselines: unknown labels {bad}; allowed: {list(BASELINE_LABELS)}")
    repeated = sorted({label for label in baselines if baselines.count(label) > 1})
    if repeated:
        found.append(f"baselines: repeated labels {repeated}")
    return found


def validate_config(raw: dict) -> RunConfig:
    """Validate a raw configuration mapping, reporting every violation at once.

    Unknown keys anywhere in the document are rejected so typos cannot
    silently fall back to defaults.
    """
    violations: list[str] = []
    values = _parse_fields(RunConfig, raw, "", violations)
    if values is not _BAD:
        violations += _run_violations(values)
    if violations:
        raise ConfigError(violations)
    return RunConfig(**values)


def load_config(path, overrides: dict | None = None) -> RunConfig:
    """Read and validate a JSON configuration, with ``overrides`` merged over
    its top-level keys first so that they meet the same schema."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"not valid JSON: {exc}"]) from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError([f"cannot read {path}: {exc}"]) from exc
    if overrides and isinstance(raw, dict):
        raw.update(overrides)
    return validate_config(raw)
