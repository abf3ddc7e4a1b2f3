"""Seeded inputs for the benchmark workloads, built without the package.

Every generator here uses numpy and the standard library only, never
``simulate``, ``write_measurements`` or ``fit``, so that a change to those
modules cannot change what the benchmark measures.  Each input has a
SHA-256 digest over canonical bytes; the same seed gives the same digest
on any commit.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CATALOG_FILE = Path(__file__).resolve().parent / "catalog.txt"

SIGMA = 1.356665e-08          # true per-execution noise sd, joules
DEVICES = ("device1", "device2")
OBS_PER_KEY = 50              # paper: 10 cycles x 5 samples
CYCLES = 10
SAMPLES_PER_CYCLE = 5
BASELINE_ENERGY = 2.5e-08     # true empty-loop energy per execution
VOLTAGE = 5.6
WINDOW_S = 0.1006
ITERATIONS = 10**7

CSV_HEADER = ("device_id,pattern,cycle,sample_index,voltage_v,amperage_a,"
              "elapsed_s,iterations")


def catalog_descriptors() -> list[str]:
    """The 174 ``operation:dtype:dsize`` descriptors, as a fixed snapshot."""
    return [ln.strip() for ln in CATALOG_FILE.read_text().splitlines()
            if ln.strip()]


def _effects(rng, sizes, ops, dtypes, devices) -> dict[str, dict[str, float]]:
    """Level effects with the magnitudes of the published estimates."""
    return {
        "alpha": {s: abs(rng.normal(5e-9, 3e-9)) for s in sizes},
        "beta": {o: abs(rng.normal(5e-8, 4e-8)) for o in ops},
        "gamma": {t: abs(rng.normal(5e-9, 4e-9)) for t in dtypes},
        "delta": {d: abs(rng.normal(3e-9, 3e-9)) for d in devices},
    }


def _key_mean(effects, size, op, dtype, device) -> float:
    return (effects["alpha"][size] + effects["beta"][op]
            + effects["gamma"][dtype] + effects["delta"][device])


class _Digest:
    def __init__(self, label: str):
        self._h = hashlib.sha256(label.encode())

    def add(self, *parts) -> None:
        for part in parts:
            if isinstance(part, np.ndarray):
                self._h.update(str(part.shape).encode())
                self._h.update(np.ascontiguousarray(part, "<f8").tobytes())
            else:
                self._h.update(repr(part).encode())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


# -- paper -------------------------------------------------------------------

@dataclass
class PaperInput:
    """The full catalog on two devices as a measurement CSV."""

    csv_text: str
    truth: dict                 # (size, op, dtype, device) -> true key mean
    patterns: list[str]         # pattern column of every non-baseline row


def _encode_row(device, pattern, cycle, j, energy) -> str:
    amperage = energy * ITERATIONS / (VOLTAGE * WINDOW_S)
    return (f"{device},{pattern},{cycle},{j},{VOLTAGE!r},{amperage!r},"
            f"{WINDOW_S!r},{ITERATIONS}")


def paper_inputs(seed: int) -> tuple[PaperInput, str]:
    """A split-plot study of 348 keys x 50 samples plus baseline rows.

    Matches the shape of ``simulate_study(cycles=10, samples=5)``: every
    cycle measures each device's keys in a random order, then one
    empty-loop baseline of 5 samples, 17,500 rows in all.  The truth and
    every observation come from the fixed stream 2000, so all seeds fit the
    same posterior; the seed draws the measurement order of each cycle.
    Min ESS differs between datasets by more than a run's few fits can
    average out, so the posterior is held fixed here.
    """
    descriptors = catalog_descriptors()
    triples = [d.split(":") for d in descriptors]
    ops = sorted({t[0] for t in triples})
    dtypes = sorted({t[1] for t in triples})
    sizes = sorted({t[2] for t in triples})
    values_rng = np.random.default_rng(2000)
    effects = _effects(values_rng, sizes, ops, dtypes, DEVICES)
    order_rng = np.random.default_rng([2000, seed])
    truth = {}
    lines = [CSV_HEADER]
    patterns = []
    for device in DEVICES:
        means = []
        for op, dtype, size in triples:
            mu = _key_mean(effects, size, op, dtype, device)
            truth[(size, op, dtype, device)] = mu
            means.append(mu + BASELINE_ENERGY)
        draws = values_rng.normal(
            np.array(means)[:, None, None], SIGMA,
            (len(descriptors), CYCLES, SAMPLES_PER_CYCLE))
        base = values_rng.normal(BASELINE_ENERGY, SIGMA,
                                 (CYCLES, SAMPLES_PER_CYCLE))
        for cycle in range(CYCLES):
            for slot in order_rng.permutation(len(descriptors)):
                for j in range(SAMPLES_PER_CYCLE):
                    lines.append(_encode_row(device, descriptors[slot], cycle,
                                             j, float(draws[slot, cycle, j])))
                    patterns.append(descriptors[slot])
            for j in range(SAMPLES_PER_CYCLE):
                lines.append(_encode_row(device, "BASELINE", cycle, j,
                                         float(base[cycle, j])))
    csv_text = "\n".join(lines) + "\n"
    digest = hashlib.sha256(b"paper/v1" + csv_text.encode()).hexdigest()
    return PaperInput(csv_text=csv_text, truth=truth, patterns=patterns), digest


def paper_keys() -> list[tuple[str, str, str, str]]:
    """Every catalog key on both devices, as (size, op, dtype, device)."""
    keys = []
    for device in DEVICES:
        for desc in catalog_descriptors():
            op, dtype, size = desc.split(":")
            keys.append((size, op, dtype, device))
    return keys


# -- query -------------------------------------------------------------------

@dataclass
class QueryModelInput:
    """Seeded posterior draws shaped like a paper-size fit with draws."""

    levels: dict[str, list[str]]
    names: list[str]
    draws: np.ndarray           # (chains, draws, params)
    truth: dict                 # (size, op, dtype, device) -> key mean


PHI = 0.5                 # lag-1 autocorrelation of every synthetic chain
MC_OFFSET = 0.05          # |pooled draw mean - truth|, in draw sds


def query_model_inputs(seed: int, chains: int,
                       draws: int) -> tuple[QueryModelInput, str]:
    """AR(1) chains around a random truth, in the stored draw layout.

    Column order is sigma, then every level effect per category, then
    (mu, sd) per category: the layout a four-category fit stores.  Each
    column's pooled mean sits ``MC_OFFSET`` draw sds from its truth, in a
    seeded direction, so the model's key-mean error has the same size on
    every seed.  The chain noise comes from the fixed stream 3000, so ESS
    and R-hat are the same on every seed too.
    """
    triples = [d.split(":") for d in catalog_descriptors()]
    levels = {
        "alpha": sorted({t[2] for t in triples}),
        "beta": sorted({t[0] for t in triples}),
        "gamma": sorted({t[1] for t in triples}),
        "delta": list(DEVICES),
    }
    effect_sd = {"alpha": 1e-10, "beta": 1e-9, "gamma": 1e-10, "delta": 1e-10}
    rng = np.random.default_rng([3000, seed])
    effects = _effects(rng, levels["alpha"], levels["beta"],
                       levels["gamma"], levels["delta"])
    names, centre, spread = ["sigma"], [SIGMA], [7e-11]
    for cat, lv in levels.items():
        for level in lv:
            names.append(f"{cat}[{level}]")
            centre.append(effects[cat][level])
            spread.append(effect_sd[cat])
    for cat, lv in levels.items():
        values = np.array([effects[cat][level] for level in lv])
        names += [f"mu[{cat}]", f"sd[{cat}]"]
        centre += [float(values.mean()), float(values.std()) + 1e-9]
        spread += [1e-9, 2e-10]
    centre, spread = np.array(centre), np.array(spread)
    innov = np.random.default_rng(3000).standard_normal(
        (chains, draws, len(names)))
    x = np.empty_like(innov)
    x[:, 0] = innov[:, 0]
    for t in range(1, draws):
        x[:, t] = PHI * x[:, t - 1] + math.sqrt(1.0 - PHI ** 2) * innov[:, t]
    offset = MC_OFFSET * rng.choice([-1.0, 1.0], len(names))
    x += offset - x.mean(axis=(0, 1))
    values = centre + spread * x
    truth = {key: _key_mean(effects, *key) for key in paper_keys()}
    digest = _Digest("query-model/v3")
    digest.add(names, values)
    return QueryModelInput(levels=levels, names=names, draws=values,
                           truth=truth), digest.hexdigest()


# Query kinds, in equal shares: diagnose, and predict over manifests of one
# key, half the 348 keys and all of them.  No usage data exists, so this
# mix is a choice, not an observation.  Model load takes most of a query
# and predict_program a few percent of query time, so the mix barely moves
# the query latency.
PREDICT_SIZES = (1, 174, 348)


def query_script(seed: int, keys: list[tuple], length: int) -> tuple[list, str]:
    """A seeded sequence of ``diagnose`` and ``predict`` queries.

    Returns a list of ``("diagnose", None)`` or ``("predict", entries)``
    where ``entries`` maps ``(size, op, dtype, device)`` to a repeat count.
    Every block of four holds one ``diagnose`` and one ``predict`` of each
    size in ``PREDICT_SIZES``, in a seeded order.  The seed also picks the
    keys and their repeat counts (1 to 999); the counts only weight the
    correctness check, not the cost.
    """
    rng = np.random.default_rng([4000, seed])
    kinds = (None,) + PREDICT_SIZES
    script = []
    while len(script) < length:
        for i in rng.permutation(len(kinds)):
            size = kinds[i]
            if size is None:
                script.append(("diagnose", None))
                continue
            chosen = rng.choice(len(keys), size=size, replace=False)
            script.append(("predict", {keys[j]: int(rng.integers(1, 1000))
                                       for j in sorted(chosen)}))
    script = script[:length]
    digest = _Digest("query-script/v2")
    for kind, entries in script:
        digest.add(kind, sorted(entries.items()) if entries else None)
    return script, digest.hexdigest()


def manifest_text(entries: dict) -> str:
    return "".join(f"{count} {op}:{dtype}:{size}@{device}\n"
                   for (size, op, dtype, device), count in entries.items())
