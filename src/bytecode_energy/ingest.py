"""Measurement ingestion: raw multimeter samples to per-iteration energies.

A raw sample is one (voltage, amperage) reading taken while a pattern's
benchmark loop ran; combining it with the loop wall time and iteration count
gives the energy of a single pattern execution.  Baseline (empty-loop)
records are subtracted per device before modeling.

``load_measurements`` reads a file as columns.  It streams the rows in
chunks of ``_CHUNK_ROWS``, classifies each distinct (pattern, device) text
pair once and gives the record group it names an integer code, converts a
chunk's numbers with Python's own ``int`` and ``float`` and checks them with
numpy.  A chunk that fails a check is parsed again row by row with
``_parse_row``, so the first offending row in file order raises the error it
raises on its own.  A :class:`MeasurementDataset` holds each record as a
group code and an energy; baseline correction and the per-key grouping work
on those arrays, and :class:`MeasurementRecord` objects are built only when
``records`` or ``baselines`` is read.
"""

from __future__ import annotations

import csv
import math
import sys
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from . import catalog
from .catalog import PatternKey, PatternTriple
from .errors import (
    BytecodeEnergyError,
    DataError,
    DomainError,
    IllegalTriple,
    MissingBaseline,
    SchemaError,
    shorten,
)

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

# Rows converted per numpy pass: large enough to amortize the per-chunk
# cost, small enough that a chunk's strings stay a small part of memory.
_CHUNK_ROWS = 4096


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
    return list(MeasurementDataset(records, baselines).corrected().records)


def _device_means(pairs: Iterable[tuple[str, float]]) -> dict[str, float]:
    """Each device's mean energy, summed left to right in the given order."""
    sums: dict[str, float] = {}
    counts: dict[str, int] = {}
    for device, energy in pairs:
        sums[device] = sums.get(device, 0.0) + energy
        counts[device] = counts.get(device, 0) + 1
    return {d: sums[d] / counts[d] for d in sums}


class _Records(Sequence):
    """Records as columns: a code into ``groups`` and an energy per record.

    A group is the (key, device, baseline_corrected) that its records share;
    ``groups`` lists them in order of their first record.  Indexing and
    iteration build :class:`MeasurementRecord` objects on demand.
    """

    def __init__(self, groups: list[tuple], codes: np.ndarray,
                 energies: np.ndarray):
        self.groups = groups
        self.codes = codes
        self.energies = energies

    @classmethod
    def of(cls, records: Iterable[MeasurementRecord]) -> "_Records":
        index: dict[tuple, int] = {}
        codes, energies = [], []
        for r in records:
            group = (r.key, r.device, r.baseline_corrected)
            codes.append(index.setdefault(group, len(index)))
            energies.append(r.energy)
        return cls(list(index), np.array(codes, dtype=np.intp),
                   np.array(energies, dtype=float))

    def __len__(self) -> int:
        return len(self.energies)

    def __getitem__(self, i):
        key, device, corrected = self.groups[self.codes[i]]
        return MeasurementRecord(key, device, float(self.energies[i]),
                                 corrected)

    def __iter__(self):
        for code, energy in zip(self.codes.tolist(), self.energies.tolist()):
            key, device, corrected = self.groups[code]
            yield MeasurementRecord(key, device, energy, corrected)


class MeasurementDataset:
    """Pattern records plus the baseline records of the same study.

    ``records`` and ``baselines`` are sequences of :class:`MeasurementRecord`
    in file order, stored as columns.
    """

    def __init__(self, records: Iterable[MeasurementRecord],
                 baselines: Iterable[MeasurementRecord]):
        self.records = (records if isinstance(records, _Records)
                        else _Records.of(records))
        self.baselines = (baselines if isinstance(baselines, _Records)
                          else _Records.of(baselines))

    def corrected(self) -> "MeasurementDataset":
        """Subtract each device's mean baseline energy from its records.

        Record count and ordering are preserved.  Raises
        :class:`MissingBaseline` for the first record's device, in file
        order, that has no baseline records.
        """
        base, rec = self.baselines, self.records
        means = _device_means(zip(
            [base.groups[c][1] for c in base.codes.tolist()],
            base.energies.tolist()))
        for _, device, _ in rec.groups:  # in order of their first record
            if device not in means:
                raise MissingBaseline(device)
        group_means = np.array([means[d] for _, d, _ in rec.groups],
                               dtype=float)
        return MeasurementDataset(
            records=_Records([(k, d, True) for k, d, _ in rec.groups],
                             rec.codes, rec.energies - group_means[rec.codes]),
            baselines=base,
        )

    def by_key(self) -> dict[PatternKey, np.ndarray]:
        """Each key's energies in file order, keys in order of first record."""
        rec = self.records
        slots: dict[PatternKey, int] = {}
        slot_of_group = np.array(
            [slots.setdefault(key, len(slots)) for key, _, _ in rec.groups],
            dtype=np.intp)
        slot = slot_of_group[rec.codes]
        order = np.argsort(slot, kind="stable")
        ends = np.cumsum(np.bincount(slot, minlength=len(slots)))
        return dict(zip(slots, np.split(rec.energies[order], ends[:-1])))


def _parse_pattern(pattern_field: str, device_field: str, rownum: int
                   ) -> tuple[PatternTriple | None, str]:
    """A row's pattern (None for a baseline) and device."""
    device = device_field.strip()
    if not device:
        raise SchemaError(rownum, "empty device_id")

    pattern_text = pattern_field.strip()
    if pattern_text == BASELINE:
        return None, device
    try:
        return catalog.classify_statement(pattern_text), device
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
        raise SchemaError(
            rownum, f"unclassifiable pattern {shorten(pattern_text)}")


def _parse_row(row: list[str], rownum: int) -> RawSample:
    if len(row) != len(CSV_HEADER):
        raise SchemaError(
            rownum, f"{len(row)} fields, expected {len(CSV_HEADER)}")
    fields = dict(zip(CSV_HEADER, row))

    def number(field, conv, check):
        raw = fields[field]
        try:
            value = conv(raw)
        except ValueError:
            raise SchemaError(
                rownum, f"bad {field} value {shorten(raw)}") from None
        if not check(value):
            raise SchemaError(
                rownum, f"{field} out of range: {shorten(value)}")
        return value

    pattern, device = _parse_pattern(fields["pattern"], fields["device_id"],
                                     rownum)
    return RawSample(
        device=device,
        pattern=pattern,
        cycle=number("cycle", int, lambda v: v >= 0),
        sample_index=number("sample_index", int, lambda v: v >= 0),
        voltage=number("voltage_v", float, lambda v: v > 0 and math.isfinite(v)),
        amperage=number("amperage_a", float, math.isfinite),
        elapsed=number("elapsed_s", float, lambda v: v > 0 and math.isfinite(v)),
        # Beyond the float range, elapsed / iterations cannot be computed.
        iterations=number("iterations", int,
                          lambda v: 1 <= v <= sys.float_info.max),
    )


class _GroupCodes(dict):
    """Group code of each raw (pattern, device) field pair; -1 if it fails.

    Each distinct pair is classified once, on its first lookup.  ``groups``
    maps each (key, device, baseline_corrected) group to its code, in order
    of first appearance.
    """

    def __init__(self):
        super().__init__()
        self.groups: dict[tuple, int] = {}

    def code(self, key: PatternKey | None, device: str) -> int:
        return self.groups.setdefault((key, device, False), len(self.groups))

    def __missing__(self, pair: tuple[str, str]) -> int:
        try:
            pattern, device = _parse_pattern(*pair, rownum=0)
        except BytecodeEnergyError:
            code = -1
        else:
            key = None if pattern is None else PatternKey(pattern, device)
            code = self.code(key, device)
        self[pair] = code
        return code


def _chunks(reader):
    """The reader's non-blank rows and their line numbers, in chunks."""
    rows, line_nums = [], []
    for row in reader:
        if row:
            rows.append(row)
            line_nums.append(reader.line_num)
            if len(rows) == _CHUNK_ROWS:
                yield rows, line_nums
                rows, line_nums = [], []
    if rows:
        yield rows, line_nums


def _convert_chunk(rows: list[list[str]], codes: _GroupCodes):
    """Group codes and energies of a chunk, or None if a row fails a check."""
    if set(map(len, rows)) != {len(CSV_HEADER)}:
        return None
    device, pattern, cycle, index, volt, amp, elapsed, iters = zip(*rows)
    try:
        cycle, index, iters = (np.array(list(map(int, col)), dtype=np.int64)
                               for col in (cycle, index, iters))
        volt, amp, elapsed = (np.array(list(map(float, col)), dtype=float)
                              for col in (volt, amp, elapsed))
    except (ValueError, OverflowError):
        return None
    code = np.array(list(map(codes.__getitem__, zip(pattern, device))),
                    dtype=np.intp)
    ok = ((code >= 0) & (cycle >= 0) & (index >= 0)
          & (volt > 0) & np.isfinite(volt) & np.isfinite(amp)
          & (elapsed > 0) & np.isfinite(elapsed) & (iters >= 1))
    if not ok.all():
        return None
    # Overflow to inf (and inf * 0) pass silently, as in Python arithmetic.
    with np.errstate(over="ignore", invalid="ignore"):
        return code, volt * amp * (elapsed / iters)


def _reparse_chunk(rows, line_nums, codes: _GroupCodes):
    """Group codes and energies of a chunk, parsed row by row.

    Raises the error of the chunk's first offending row.  Rows that only
    Python's converters accept, such as an int beyond int64, pass.
    """
    records = [record_from_sample(_parse_row(row, n))
               for row, n in zip(rows, line_nums)]
    return (np.array([codes.code(r.key, r.device) for r in records],
                     dtype=np.intp),
            np.array([r.energy for r in records], dtype=float))


def load_measurements(path) -> MeasurementDataset:
    """Read a measurement CSV into per-iteration energy records."""
    codes = _GroupCodes()
    code_chunks = [np.empty(0, dtype=np.intp)]
    energy_chunks = [np.empty(0, dtype=float)]
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            if next(reader, None) != CSV_HEADER:
                raise SchemaError(0, f"header must be {','.join(CSV_HEADER)}")
            for rows, line_nums in _chunks(reader):
                columns = _convert_chunk(rows, codes)
                if columns is None:
                    columns = _reparse_chunk(rows, line_nums, codes)
                code_chunks.append(columns[0])
                energy_chunks.append(columns[1])
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text: {exc}") from None
    code = np.concatenate(code_chunks)
    energy = np.concatenate(energy_chunks)

    groups = list(codes.groups)
    is_baseline = np.array([key is None for key, _, _ in groups], dtype=bool)

    def part(keep: np.ndarray) -> _Records:
        rows = keep[code]
        new_code = np.cumsum(keep) - 1
        return _Records([g for g, k in zip(groups, keep) if k],
                        new_code[code[rows]], energy[rows])

    return MeasurementDataset(records=part(~is_baseline),
                              baselines=part(is_baseline))


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
