"""Synthetic measurement studies from known ground-truth parameters.

The generator draws per-execution energies from the same four-factor
Gaussian the model assumes, then encodes each draw back into a raw
(voltage, amperage, elapsed, iterations) sample so that ingestion recovers
the drawn energy exactly.  It also emulates the split-plot schedule by
randomizing the per-cycle execution order on every device.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import catalog
from .catalog import PatternKey
from .errors import DataError, DomainError
from .ingest import RawSample

SUPPLY_VOLTAGE = 5.6          # volts, constant-voltage supply
MEASUREMENT_WINDOW = 0.1006   # seconds of wall time per cycle
DEFAULT_ITERATIONS = 10**7


@dataclass
class GroundTruth:
    """True additive effects per category level, in joules."""

    alpha: dict[str, float]   # data size effects
    beta: dict[str, float]    # operation effects
    gamma: dict[str, float]   # data type effects
    delta: dict[str, float]   # device effects
    sigma: float              # per-execution noise sd
    seed: int = 0
    baseline_energy: float = 0.0

    def __post_init__(self):
        if not (self.sigma > 0):
            raise DomainError(f"noise sd must be positive, got {self.sigma}")

    def mean_energy(self, key: PatternKey) -> float:
        t = key.triple
        return (
            self.alpha[t.dsize]
            + self.beta[t.operation]
            + self.gamma[t.dtype]
            + self.delta[key.device]
        )

    def legal_keys(self) -> list[PatternKey]:
        """Catalog triples covered by this truth, on every device."""
        keys = []
        for device in sorted(self.delta):
            for triple in catalog.list_catalog():
                if (
                    triple.dsize in self.alpha
                    and triple.operation in self.beta
                    and triple.dtype in self.gamma
                ):
                    keys.append(PatternKey(triple, device))
        return keys

    @classmethod
    def from_json_dict(cls, obj) -> "GroundTruth":
        """Build a truth from a decoded truth file.

        Raises DataError naming the first missing or ill-typed field.
        """
        if not isinstance(obj, dict):
            raise DataError("truth file: must be a JSON object")
        level_map = "an object mapping each level name to a number"
        for name, default, valid, kind in (
            ("alpha", None, _is_level_map, level_map),
            ("beta", None, _is_level_map, level_map),
            ("gamma", None, _is_level_map, level_map),
            ("delta", None, _is_level_map, level_map),
            ("sigma", None, _is_number, "a number"),
            ("seed", 0, _is_integer, "an integer"),
            ("baseline_energy", 0.0, _is_number, "a number"),
        ):
            value = obj.get(name, default)
            if not valid(value):
                raise DataError(
                    f'truth file: "{name}" must be {kind}, got {value!r}')
        return cls(
            alpha=dict(obj["alpha"]),
            beta=dict(obj["beta"]),
            gamma=dict(obj["gamma"]),
            delta=dict(obj["delta"]),
            sigma=float(obj["sigma"]),
            seed=obj.get("seed", 0),
            baseline_energy=float(obj.get("baseline_energy", 0.0)),
        )


def _is_integer(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    return _is_integer(x) or isinstance(x, float)


def _is_level_map(x) -> bool:
    return isinstance(x, dict) and all(map(_is_number, x.values()))


def encode_energy(
    energy: float, device: str, pattern, cycle: int, sample_index: int
) -> RawSample:
    """Encode a drawn per-execution energy as a raw multimeter sample.

    Voltage and wall time are fixed to the documented bench setup; the
    amperage is solved so the energy formula round-trips exactly.
    """
    iterations = DEFAULT_ITERATIONS
    amperage = energy * iterations / (SUPPLY_VOLTAGE * MEASUREMENT_WINDOW)
    return RawSample(
        device=device,
        pattern=pattern,
        cycle=cycle,
        sample_index=sample_index,
        voltage=SUPPLY_VOLTAGE,
        amperage=amperage,
        elapsed=MEASUREMENT_WINDOW,
        iterations=iterations,
    )


def simulate_study(
    truth: GroundTruth,
    cycles: int = 10,
    samples_per_cycle: int = 5,
    keys: list[PatternKey] | None = None,
) -> list[RawSample]:
    """Generate a full synthetic study as raw samples.

    Every key receives ``cycles * samples_per_cycle`` observations drawn from
    Normal(alpha+beta+gamma+delta, sigma); each cycle round is shuffled
    independently per device (split plot) and baseline rows are emitted with
    the configured true baseline energy.  All pattern energies include the
    baseline offset, so baseline subtraction recovers the model draws.
    """
    if cycles < 0:
        raise DomainError(f"cycles must be >= 0, got {cycles}")
    if samples_per_cycle < 0:
        raise DomainError(
            f"samples per cycle must be >= 0, got {samples_per_cycle}")
    if keys is None:
        keys = truth.legal_keys()
    devices = sorted({k.device for k in keys})

    samples: list[RawSample] = []
    for dev_index, device in enumerate(devices):
        rng = np.random.default_rng([truth.seed, dev_index])
        dev_keys = sorted(k for k in keys if k.device == device)
        for cycle in range(cycles):
            order = rng.permutation(len(dev_keys))
            for slot in order:
                key = dev_keys[slot]
                mu = truth.mean_energy(key) + truth.baseline_energy
                draws = rng.normal(mu, truth.sigma, size=samples_per_cycle)
                for j, e in enumerate(draws):
                    samples.append(
                        encode_energy(float(e), device, key.triple, cycle, j)
                    )
            # one empty-loop baseline measurement per cycle
            base = rng.normal(truth.baseline_energy, truth.sigma,
                              size=samples_per_cycle)
            for j, e in enumerate(base):
                samples.append(encode_energy(float(e), device, None, cycle, j))
    return samples
