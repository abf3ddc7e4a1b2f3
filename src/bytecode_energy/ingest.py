"""Measurement ingestion: raw multimeter samples to per-iteration energies.

A raw sample is one (voltage, amperage) reading taken while a pattern's
benchmark loop ran; combining it with the loop wall time and iteration count
gives the energy of a single pattern execution.  Baseline (empty-loop)
records are subtracted per device before modeling.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

from . import catalog
from .catalog import PatternKey, PatternTriple
from .errors import DomainError, IllegalTriple, MissingBaseline, SchemaError

BASELINE = "BASELINE"

CSV_HEADER = [
    "device_id",
    "pattern",
    "cycle",
    "sample_index",
    "voltage_v",
    "amperage_a",
    "elapsed_s",
    "iterations",
]


@dataclass(frozen=True)
class RawSample:
    device: str
    pattern: PatternTriple | None  # None marks a baseline row
    cycle: int
    sample_index: int
    voltage: float       # volts
    amperage: float      # amperes; slightly negative readings are
                         # instrument noise and are retained
    elapsed: float       # whole-loop wall time of the cycle, seconds
    iterations: int      # loop count

    def __post_init__(self):
        if not (self.voltage > 0 and self.elapsed > 0 and self.iterations >= 1):
            raise DomainError(
                f"invalid sample: V={self.voltage}, t={self.elapsed}, "
                f"i={self.iterations}"
            )


@dataclass(frozen=True)
class MeasurementRecord:
    key: PatternKey | None  # None for baseline records
    device: str
    energy: float  # joules per single pattern execution
    baseline_corrected: bool = False


def energy_per_iteration(s: RawSample) -> float:
    """Energy of one pattern execution: V * I * (t / iterations)."""
    values = (s.voltage, s.amperage, s.elapsed)
    if not all(math.isfinite(v) for v in values):
        raise DomainError(f"non-finite sample values {values}")
    return s.voltage * s.amperage * (s.elapsed / s.iterations)


def record_from_sample(s: RawSample) -> MeasurementRecord:
    key = None if s.pattern is None else PatternKey(s.pattern, s.device)
    return MeasurementRecord(key=key, device=s.device, energy=energy_per_iteration(s))


def subtract_baseline(
    records: list[MeasurementRecord], baselines: list[MeasurementRecord]
) -> list[MeasurementRecord]:
    """Subtract each device's mean baseline energy from its records.

    Record count and ordering are preserved.  Raises
    :class:`MissingBaseline` for any device lacking baseline data.
    """
    sums: dict[str, float] = {}
    counts: dict[str, int] = {}
    for b in baselines:
        sums[b.device] = sums.get(b.device, 0.0) + b.energy
        counts[b.device] = counts.get(b.device, 0) + 1
    means = {d: sums[d] / counts[d] for d in sums}

    corrected = []
    for r in records:
        if r.device not in means:
            raise MissingBaseline(r.device)
        corrected.append(MeasurementRecord(
            r.key, r.device, r.energy - means[r.device],
            baseline_corrected=True))
    return corrected


@dataclass
class MeasurementDataset:
    """Pattern records plus the baseline records of the same study."""

    records: list[MeasurementRecord]
    baselines: list[MeasurementRecord]

    def corrected(self) -> "MeasurementDataset":
        return MeasurementDataset(
            records=subtract_baseline(self.records, self.baselines),
            baselines=self.baselines,
        )

    def by_key(self) -> dict[PatternKey, list[float]]:
        groups: dict[PatternKey, list[float]] = {}
        for r in self.records:
            groups.setdefault(r.key, []).append(r.energy)
        return groups

    def counts(self) -> dict[PatternKey, int]:
        return {k: len(v) for k, v in self.by_key().items()}

    def devices(self) -> list[str]:
        return sorted({r.device for r in self.records})


def _parse_row(row: dict, rownum: int) -> RawSample:
    def number(field, conv, check):
        raw = row.get(field)
        try:
            value = conv(raw)
        except (TypeError, ValueError):
            raise SchemaError(rownum, f"bad {field} value {raw!r}") from None
        if not check(value):
            raise SchemaError(rownum, f"{field} out of range: {value!r}")
        return value

    device = (row.get("device_id") or "").strip()
    if not device:
        raise SchemaError(rownum, "empty device_id")

    pattern_text = (row.get("pattern") or "").strip()
    if pattern_text == BASELINE:
        pattern = None
    else:
        try:
            pattern = catalog.classify_statement(pattern_text)
        except Exception:
            # Distinguish a structurally valid but forbidden triple from noise.
            parts = pattern_text.split(":")
            if (
                len(parts) == 3
                and parts[0] in catalog.OPERATIONS
                and parts[1] in catalog.DATA_TYPES
                and parts[2] in catalog.DATA_SIZES
            ):
                raise IllegalTriple(
                    f"row {rownum}: {pattern_text!r} is outside the catalog"
                ) from None
            raise SchemaError(rownum, f"unclassifiable pattern {pattern_text!r}")

    return RawSample(
        device=device,
        pattern=pattern,
        cycle=number("cycle", int, lambda v: v >= 0),
        sample_index=number("sample_index", int, lambda v: v >= 0),
        voltage=number("voltage_v", float, lambda v: v > 0 and math.isfinite(v)),
        amperage=number("amperage_a", float, math.isfinite),
        elapsed=number("elapsed_s", float, lambda v: v > 0 and math.isfinite(v)),
        iterations=number("iterations", int, lambda v: v >= 1),
    )


def load_measurements(path) -> MeasurementDataset:
    """Read a measurement CSV into per-iteration energy records."""
    records: list[MeasurementRecord] = []
    baselines: list[MeasurementRecord] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != CSV_HEADER:
            raise SchemaError(0, f"header must be {','.join(CSV_HEADER)}")
        for rownum, row in enumerate(reader, start=2):
            sample = _parse_row(row, rownum)
            rec = record_from_sample(sample)
            (baselines if sample.pattern is None else records).append(rec)
    return MeasurementDataset(records=records, baselines=baselines)


def write_measurements(path, samples: list[RawSample]) -> None:
    """Write raw samples using the canonical CSV schema (deterministic)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for s in samples:
            pattern = BASELINE if s.pattern is None else s.pattern.render()
            writer.writerow(
                [
                    s.device,
                    pattern,
                    s.cycle,
                    s.sample_index,
                    repr(s.voltage),
                    repr(s.amperage),
                    repr(s.elapsed),
                    s.iterations,
                ]
            )
