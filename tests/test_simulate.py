"""Synthetic-study generator tests: determinism, schedules, round trips."""

import json
import math

import numpy as np
import pytest

from bytecode_energy.catalog import PatternKey, PatternTriple
from bytecode_energy.errors import DomainError
from bytecode_energy.ingest import energy_per_iteration, write_measurements
from bytecode_energy.simulate import (
    DEFAULT_ITERATIONS,
    MEASUREMENT_WINDOW,
    SUPPLY_VOLTAGE,
    GroundTruth,
    encode_energy,
    simulate_study,
)

from conftest import dataset_from_samples


def single_key_truth(beta_addition=1e-8, sigma=1e-12, **kwargs):
    return GroundTruth(
        alpha={"constant": 0.0},
        beta={"addition": beta_addition},
        gamma={"int": 0.0},
        delta={"device1": 0.0},
        sigma=sigma,
        **kwargs,
    )


def test_ground_truth_requires_positive_noise():
    with pytest.raises(DomainError):
        single_key_truth(sigma=0.0)


def test_legal_keys_filters_by_covered_levels():
    truth = single_key_truth()
    keys = truth.legal_keys()
    assert keys == [PatternKey(PatternTriple("addition", "int", "constant"),
                               "device1")]


def test_sample_mean_matches_truth():
    truth = single_key_truth(beta_addition=1e-8, sigma=1e-12, seed=11)
    samples = simulate_study(truth, cycles=10, samples_per_cycle=5)
    energies = [energy_per_iteration(s) for s in samples if s.pattern]
    assert len(energies) == 50
    tolerance = 3.0 * 1e-12 / math.sqrt(50)
    assert abs(np.mean(energies) - 1e-8) < tolerance


def test_per_key_sample_sd_near_truth(bundled_json):
    summaries = bundled_json["summaries"]

    def group(prefix):
        return {k[len(prefix) + 1:-1]: v["mean"] for k, v in summaries.items()
                if k.startswith(prefix + "[")}

    sigma = summaries["sigma"]["mean"]
    truth = GroundTruth(alpha=group("alpha"), beta=group("beta"),
                        gamma=group("gamma"), delta=group("delta"),
                        sigma=sigma, seed=3)
    keys = truth.legal_keys()[:2]
    samples = simulate_study(truth, cycles=10, samples_per_cycle=5, keys=keys)
    data = dataset_from_samples(samples).by_key()
    for key in keys:
        values = np.asarray(data[key])
        assert len(values) == 50
        assert abs(values.std(ddof=1) - sigma) < 0.25 * sigma


def test_same_seed_gives_byte_identical_csv(tmp_path):
    truth = single_key_truth(seed=5)
    paths = []
    for name in ("a.csv", "b.csv"):
        samples = simulate_study(truth, cycles=3, samples_per_cycle=2)
        path = tmp_path / name
        write_measurements(path, samples)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_different_seed_changes_output(tmp_path):
    a = simulate_study(single_key_truth(seed=1), cycles=2, samples_per_cycle=2)
    b = simulate_study(single_key_truth(seed=2), cycles=2, samples_per_cycle=2)
    assert [s.amperage for s in a] != [s.amperage for s in b]


def test_encode_energy_round_trips_through_ingestion():
    for energy in (1e-8, 5.63e-9, -2.5e-10, 3.2e-7):
        s = encode_energy(energy, "device1",
                          PatternTriple("addition", "int", "constant"), 0, 0)
        assert s.voltage == SUPPLY_VOLTAGE
        assert s.elapsed == MEASUREMENT_WINDOW
        assert s.iterations == DEFAULT_ITERATIONS
        assert math.isclose(energy_per_iteration(s), energy, rel_tol=1e-12)


def test_study_record_counts():
    truth = GroundTruth(
        alpha={"load": 0.0, "constant": 1e-9},
        beta={"negation": 2e-8, "modulo": 3e-8},
        gamma={"int": 0.0, "long": 1e-9},
        delta={"device1": 0.0, "device2": 1e-9},
        sigma=1e-9,
        seed=9,
    )
    cycles, per_cycle = 4, 3
    samples = simulate_study(truth, cycles=cycles, samples_per_cycle=per_cycle)
    keys = truth.legal_keys()
    counts = {k: len(v) for k, v in
              dataset_from_samples(samples).by_key().items()}
    assert set(counts) == set(keys)
    assert all(c == cycles * per_cycle for c in counts.values())
    baselines = [s for s in samples if s.pattern is None]
    assert len(baselines) == 2 * cycles * per_cycle  # per device, per cycle


def test_per_cycle_order_is_shuffled():
    truth = GroundTruth(
        alpha={"load": 0.0},
        beta={"negation": 2e-8, "modulo": 3e-8, "bit_and": 1e-8,
              "bit_or": 1e-8, "array_load": 4e-8},
        gamma={"int": 0.0, "long": 1e-9, "float": 2e-9, "double": 3e-9},
        delta={"device1": 0.0},
        sigma=1e-9,
        seed=2,
    )
    samples = simulate_study(truth, cycles=4, samples_per_cycle=1)
    keys = sorted(truth.legal_keys())
    per_cycle = {}
    for s in samples:
        if s.pattern is None:
            continue
        per_cycle.setdefault(s.cycle, []).append(PatternKey(s.pattern, s.device))
    orders = []
    for cycle, seen in per_cycle.items():
        assert sorted(seen) == keys  # every key exactly once per round
        orders.append(tuple(seen))
    assert len(set(orders)) > 1  # rounds are independently shuffled


def test_baseline_subtraction_recovers_truth_means():
    truth = single_key_truth(beta_addition=1e-8, sigma=1e-11, seed=4,
                             baseline_energy=2e-9)
    samples = simulate_study(truth, cycles=10, samples_per_cycle=5)
    raw = dataset_from_samples(samples)
    raw_mean = np.mean(next(iter(raw.by_key().values())))
    assert raw_mean > 1.15e-8  # baseline offset present before correction
    corrected = raw.corrected().by_key()
    mean = np.mean(next(iter(corrected.values())))
    assert abs(mean - 1e-8) < 6 * 1e-11 / math.sqrt(50) * 2


def test_ground_truth_from_json_dict(tmp_path):
    obj = {
        "alpha": {"constant": 0.0},
        "beta": {"addition": 1e-8},
        "gamma": {"int": 0.0},
        "delta": {"device1": 0.0},
        "sigma": 1e-10,
        "seed": 7,
        "baseline_energy": 1e-9,
    }
    truth = GroundTruth.from_json_dict(json.loads(json.dumps(obj)))
    assert truth.sigma == 1e-10
    assert truth.seed == 7
    assert truth.baseline_energy == 1e-9
