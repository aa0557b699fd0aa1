"""Set-up of one placement in a fresh process, timed by ``run.py`` from outside.

    python3 bench/setup_probe.py CONFIG.json SEED

Imports sensoropt from the checkout's ``src/``, loads and validates the
configuration with the given seed, builds the model and draws the prior
samples, then prints the number of samples drawn.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sensoropt import TimeGrid, build_uniform_shear_model, sample_prior, validate_config  # noqa: E402


def main(config_path: str, seed: str) -> None:
    with open(config_path, encoding="utf-8") as fh:
        raw = json.load(fh)
    raw["seed"] = int(seed)
    config = validate_config(raw)
    build_uniform_shear_model(config.n_dof)
    TimeGrid(config.n_steps, config.dt)
    samples = sample_prior(config.prior, config.n_samples, config.seed)
    print(samples.n_samples)


if __name__ == "__main__":
    main(*sys.argv[1:])
