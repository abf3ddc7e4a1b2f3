"""Shared fixtures and synthetic-data helpers for the test suite."""

import json
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from bytecode_energy import cli
from bytecode_energy.ingest import MeasurementDataset, record_from_sample

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def bundled_model():
    return cli.load_model(cli.BUNDLED_MODEL)


@pytest.fixture(scope="session")
def bundled_json():
    path = resources.files("bytecode_energy") / "data" / "appendix_a.json"
    return json.loads(path.read_text(encoding="utf-8"))


def synthetic_crossed_dataset(
    seed,
    sizes=("s0", "s1", "s2"),
    ops=("o0", "o1", "o2", "o3"),
    dtypes=("t0", "t1"),
    devices=("device1", "device2"),
    obs_per_key=30,
    sigma=1.36e-8,
):
    """Fully crossed synthetic dataset with data-scale effect magnitudes.

    Draws every level's effect from ``default_rng(seed)``, category by
    category in the order given, then each key's observations.  Returns
    (data, effects, sigma) where ``data`` maps raw 4-tuples (size,
    operation, dtype, device) to observation arrays and ``effects`` holds
    the true per-level values.
    """
    rng = np.random.default_rng(seed)
    effects = {
        "alpha": {s: abs(rng.normal(5e-9, 3e-9)) for s in sizes},
        "beta": {o: abs(rng.normal(5e-8, 4e-8)) for o in ops},
        "gamma": {t: abs(rng.normal(5e-9, 4e-9)) for t in dtypes},
        "delta": {d: abs(rng.normal(3e-9, 3e-9)) for d in devices},
    }
    data = {}
    for s in sizes:
        for o in ops:
            for t in dtypes:
                for d in devices:
                    mean = (effects["alpha"][s] + effects["beta"][o]
                            + effects["gamma"][t] + effects["delta"][d])
                    data[(s, o, t, d)] = rng.normal(mean, sigma, obs_per_key)
    return data, effects, sigma


def true_key_mean(effects, key):
    s, o, t, d = key
    return (effects["alpha"][s] + effects["beta"][o]
            + effects["gamma"][t] + effects["delta"][d])


def dataset_from_samples(samples) -> MeasurementDataset:
    """Group raw samples into a measurement dataset (tests' ingest shortcut)."""
    records, baselines = [], []
    for s in samples:
        rec = record_from_sample(s)
        (baselines if s.pattern is None else records).append(rec)
    return MeasurementDataset(records=records, baselines=baselines)
