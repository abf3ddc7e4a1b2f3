"""Ingestion tests: energy arithmetic, baseline correction, CSV schema."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bytecode_energy import catalog
from bytecode_energy.catalog import PatternKey, PatternTriple
from bytecode_energy.errors import (
    DomainError,
    IllegalTriple,
    MissingBaseline,
    SchemaError,
)
from bytecode_energy.ingest import (
    CSV_HEADER,
    MeasurementRecord,
    RawSample,
    energy_per_iteration,
    load_measurements,
    record_from_sample,
    subtract_baseline,
    write_measurements,
)
from bytecode_energy.inference import ModelSpec, _SuffStats

ADD_INT = PatternTriple("addition", "int", "constant")


def sample(voltage=5.6, amperage=0.1, elapsed=0.1006, iterations=10**7,
           pattern=ADD_INT, device="device1", cycle=0, index=0):
    return RawSample(device=device, pattern=pattern, cycle=cycle,
                     sample_index=index, voltage=voltage, amperage=amperage,
                     elapsed=elapsed, iterations=iterations)


def test_energy_formula_documented_setup():
    e = energy_per_iteration(sample(voltage=5.6, amperage=0.1,
                                    elapsed=0.1006, iterations=10**7))
    assert math.isclose(e, 5.6336e-09, rel_tol=1e-12)


def test_energy_formula_direct_arithmetic():
    # V * I * (t / i) = 5.6 * 0.02 * 0.2 / 1e7
    e = energy_per_iteration(sample(voltage=5.6, amperage=0.02,
                                    elapsed=0.2, iterations=10**7))
    assert math.isclose(e, 2.24e-09, rel_tol=1e-12)


def test_energy_zero_current():
    assert energy_per_iteration(sample(amperage=0.0)) == 0.0


def test_energy_negative_current_is_retained():
    e = energy_per_iteration(sample(amperage=-0.01))
    assert e < 0.0


def test_energy_rejects_non_finite_values():
    with pytest.raises(DomainError):
        energy_per_iteration(sample(amperage=math.nan))
    with pytest.raises(DomainError):
        energy_per_iteration(sample(amperage=math.inf))


@pytest.mark.parametrize("kwargs", [
    {"voltage": 0.0},
    {"voltage": -1.0},
    {"elapsed": 0.0},
    {"iterations": 0},
])
def test_raw_sample_invariants(kwargs):
    with pytest.raises(DomainError):
        sample(**kwargs)


@given(st.floats(min_value=1e-6, max_value=10.0),
       st.floats(min_value=2.0, max_value=100.0))
def test_energy_linear_in_amperage(amperage, factor):
    base = energy_per_iteration(sample(amperage=amperage))
    scaled = energy_per_iteration(sample(amperage=amperage * factor))
    assert math.isclose(scaled, base * factor, rel_tol=1e-12)


@given(st.floats(min_value=1e-3, max_value=10.0),
       st.integers(min_value=1, max_value=10**9))
def test_energy_inverse_in_iterations(elapsed, iterations):
    one = energy_per_iteration(sample(elapsed=elapsed, iterations=1))
    many = energy_per_iteration(sample(elapsed=elapsed, iterations=iterations))
    assert math.isclose(many, one / iterations, rel_tol=1e-12)


def _record(energy, device="device1", key=None):
    return MeasurementRecord(key=key, device=device, energy=energy)


def test_subtract_baseline_example():
    records = [_record(1.0e-8), _record(1.2e-8)]
    baselines = [_record(0.2e-8)]
    corrected = subtract_baseline(records, baselines)
    assert [r.energy for r in corrected] == pytest.approx([0.8e-8, 1.0e-8],
                                                          rel=1e-12)
    assert all(r.baseline_corrected for r in corrected)


def test_subtract_baseline_self_subtraction_centers_at_zero():
    baselines = [_record(1.0e-9), _record(3.0e-9), _record(2.0e-9)]
    corrected = subtract_baseline(baselines, baselines)
    mean = sum(r.energy for r in corrected) / len(corrected)
    assert abs(mean) < 1e-24


def test_subtract_baseline_preserves_count_and_order():
    records = [_record(float(i)) for i in range(5)]
    corrected = subtract_baseline(records, [_record(1.0)])
    assert len(corrected) == 5
    assert [r.energy for r in corrected] == [float(i) - 1.0 for i in range(5)]


def test_subtract_baseline_missing_device():
    records = [_record(1.0e-8, device="device2")]
    with pytest.raises(MissingBaseline) as exc:
        subtract_baseline(records, [_record(1.0e-9, device="device1")])
    assert exc.value.device == "device2"


def test_subtract_baseline_uses_per_device_means():
    records = [_record(1.0e-8, device="device1"),
               _record(1.0e-8, device="device2")]
    baselines = [_record(2.0e-9, device="device1"),
                 _record(4.0e-9, device="device2")]
    corrected = subtract_baseline(records, baselines)
    assert corrected[0].energy == pytest.approx(0.8e-8, rel=1e-12)
    assert corrected[1].energy == pytest.approx(0.6e-8, rel=1e-12)


def _write_csv(path, rows):
    lines = [",".join(CSV_HEADER)] + rows
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_load_well_formed_file(tmp_path):
    path = tmp_path / "m.csv"
    _write_csv(path, [
        "device1,addition:int:constant,0,0,5.6,0.1,0.1006,10000000",
        "device1,BASELINE,0,0,5.6,0.01,0.1006,10000000",
        "device1,addition:int:constant,0,1,5.6,0.2,0.1006,10000000",
    ])
    ds = load_measurements(path)
    assert len(ds.records) == 2
    assert len(ds.baselines) == 1
    key = PatternKey(ADD_INT, "device1")
    assert {k: len(v) for k, v in ds.by_key().items()} == {key: 2}
    assert {r.device for r in ds.records} == {"device1"}


def test_load_bad_amperage_reports_row(tmp_path):
    path = tmp_path / "m.csv"
    _write_csv(path, [
        "device1,BASELINE,0,0,5.6,0.01,0.1006,10000000",
        "device1,addition:int:constant,0,0,5.6,abc,0.1006,10000000",
    ])
    with pytest.raises(SchemaError) as exc:
        load_measurements(path)
    assert exc.value.row == 3
    assert "row 3" in str(exc.value)


def test_load_illegal_triple_is_distinguished(tmp_path):
    path = tmp_path / "m.csv"
    _write_csv(path, [
        "device1,addition:long:bits32,0,0,5.6,0.1,0.1006,10000000",
    ])
    with pytest.raises(IllegalTriple):
        load_measurements(path)


def test_load_unclassifiable_pattern_is_schema_error(tmp_path):
    path = tmp_path / "m.csv"
    _write_csv(path, [
        "device1,not-a-pattern,0,0,5.6,0.1,0.1006,10000000",
    ])
    with pytest.raises(SchemaError):
        load_measurements(path)


def test_load_rejects_wrong_header(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
    with pytest.raises(SchemaError):
        load_measurements(path)


def test_write_then_load_round_trips_energy_exactly(tmp_path):
    samples = [sample(amperage=a, cycle=i)
               for i, a in enumerate([0.1, 0.01234567891234, -0.003])]
    samples.append(sample(pattern=None, amperage=0.02, cycle=0))
    path = tmp_path / "m.csv"
    write_measurements(path, samples)
    ds = load_measurements(path)
    expected = [energy_per_iteration(s) for s in samples if s.pattern]
    assert [r.energy for r in ds.records] == expected
    assert ds.baselines[0].energy == energy_per_iteration(samples[-1])


def test_record_from_sample_builds_keys():
    rec = record_from_sample(sample())
    assert rec.key == PatternKey(ADD_INT, "device1")
    baseline = record_from_sample(sample(pattern=None))
    assert baseline.key is None
    assert baseline.device == "device1"


def test_load_row_number_counts_blank_lines(tmp_path):
    path = tmp_path / "m.csv"
    _write_csv(path, [
        "device1,BASELINE,0,0,5.6,0.01,0.1006,10000000",
        "",
        "device1,addition:int:constant,0,0,5.6,abc,0.1006,10000000",
    ])
    with pytest.raises(SchemaError) as exc:
        load_measurements(path)
    assert exc.value.row == 4


@pytest.mark.parametrize("row, n_fields", [
    ("device1,addition:int:constant,0,0,5.6,0.1,0.1006,10000000,9", 9),
    ("device1,addition:int:constant,0,0,5.6,0.1,0.1006", 7),
])
def test_load_rejects_row_with_wrong_field_count(tmp_path, row, n_fields):
    path = tmp_path / "m.csv"
    _write_csv(path, [
        "device1,BASELINE,0,0,5.6,0.01,0.1006,10000000",
        row,
        "device1,addition:int:constant,0,1,5.6,abc,0.1006,10000000",
    ])
    with pytest.raises(SchemaError) as exc:
        load_measurements(path)
    assert exc.value.row == 3
    assert f"{n_fields} fields, expected 8" in str(exc.value)


# Pattern texts a study file may carry: descriptors, a mnemonic sequence and
# a padded descriptor that name triples other texts name too, and baselines.
_STUDY_TEXTS = (
    [(t.render(), t) for t in catalog.list_catalog()[:40]]
    + [("iload_1 iload_2 iadd istore_3",
        PatternTriple("addition", "int", "load")),
       (" addition:int:constant ", ADD_INT)]
    + [("BASELINE", None)] * 4
)


def _study(n_rows, seed):
    """CSV lines and their RawSamples for a two-device study, in file order."""
    rng = np.random.default_rng(seed)
    lines, samples = [], []
    for j in range(n_rows):
        text, triple = _STUDY_TEXTS[rng.integers(len(_STUDY_TEXTS))]
        device = ("device1", "device2", " device2")[rng.integers(3)]
        voltage = float(rng.uniform(4.5, 6.0))
        amperage = float(rng.normal(0.5, 0.6))
        elapsed = float(rng.uniform(0.05, 0.2))
        iterations = int(rng.integers(1, 10**9))
        cycle, index = divmod(j, 7)
        lines.append(f"{device},{text},{cycle},{index},{voltage!r},"
                     f"{amperage!r},{elapsed!r},{iterations}")
        samples.append(RawSample(device.strip(), triple, cycle, index,
                                 voltage, amperage, elapsed, iterations))
    return lines, samples


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


def test_load_matches_per_row_reference(tmp_path):
    # Longer than two of the loader's 4,096-row chunks.
    lines, samples = _study(9_000, seed=5)
    path = tmp_path / "m.csv"
    _write_csv(path, lines)
    records = [record_from_sample(s) for s in samples if s.pattern]
    baselines = [record_from_sample(s) for s in samples if not s.pattern]
    corrected = subtract_baseline(records, baselines)
    groups = {}
    for r in corrected:
        groups.setdefault(r.key, []).append(r.energy)

    ds = load_measurements(path)
    assert list(ds.records) == records
    assert list(ds.baselines) == baselines
    assert _bits([r.energy for r in ds.records]) == _bits(
        [r.energy for r in records])
    assert {r.device for r in ds.records} == {"device1", "device2"}

    got = ds.corrected()
    assert list(got.records) == corrected
    assert list(got.baselines) == baselines
    assert _bits([r.energy for r in got.records]) == _bits(
        [r.energy for r in corrected])

    by_key = got.by_key()
    assert list(by_key) == list(groups)
    for key, values in groups.items():
        assert _bits(by_key[key]) == _bits(values)
    spec = ModelSpec.from_keys(groups)
    assert _SuffStats(by_key, spec).digest == _SuffStats(groups, spec).digest


_GOOD = "device1,addition:int:constant,0,0,5.6,0.1,0.1006,10000000"
_ILLEGAL = "device1,addition:long:bits32,0,0,5.6,0.1,0.1006,10000000"


@pytest.mark.parametrize("rows, error, row, message", [
    # several bad rows: the first one wins, whatever its field
    ([_GOOD, _GOOD.replace("0.1,", "abc,"), _GOOD.replace("5.6", "-1")],
     SchemaError, 3, "bad amperage_a value 'abc'"),
    ([_GOOD, _GOOD.replace("5.6", "-1"), _GOOD.replace("0.1,", "abc,")],
     SchemaError, 3, "voltage_v out of range: -1.0"),
    # two bad fields in one row: the field order decides
    ([_GOOD.replace("5.6", "x").replace("10000000", "0")],
     SchemaError, 2, "bad voltage_v value 'x'"),
    ([_GOOD.replace(",0,0,", ",-1,0,").replace("0.1,", "nan,")],
     SchemaError, 2, "cycle out of range: -1"),
    (["," + _GOOD.split(",", 1)[1].replace("addition", "nope")],
     SchemaError, 2, "empty device_id"),
    ([_GOOD.replace("addition", "nope").replace("0.1,", "abc,")],
     SchemaError, 2, "unclassifiable pattern 'nope:int:constant'"),
    # a forbidden triple against a malformed row
    ([_GOOD, _ILLEGAL, _GOOD.replace("0.1,", "abc,")],
     IllegalTriple, None, "row 3: 'addition:long:bits32' is outside"),
    ([_GOOD.replace("0.1,", "abc,"), _ILLEGAL],
     SchemaError, 2, "bad amperage_a value 'abc'"),
    ([_ILLEGAL.replace("0.1,", "abc,")],
     IllegalTriple, None, "row 2: 'addition:long:bits32' is outside"),
    # bad values around and past the first chunk boundary
    ([_GOOD] * 4095 + [_GOOD.replace("10000000", "0")] * 2,
     SchemaError, 4097, "iterations out of range: 0"),
    ([_GOOD] * 4096 + [_GOOD.replace("10000000", "1.5")] * 2,
     SchemaError, 4098, "bad iterations value '1.5'"),
    ([_GOOD] * 5000 + [_GOOD.replace("0.1006", "inf")],
     SchemaError, 5002, "elapsed_s out of range: inf"),
    # an integer count too large for the energy's float division
    ([_GOOD, _GOOD.replace("10000000", "1" + "0" * 400)],
     SchemaError, 3, "iterations out of range"),
])
def test_load_reports_first_error_in_file_order(tmp_path, rows, error, row,
                                                message):
    path = tmp_path / "m.csv"
    _write_csv(path, rows)
    with pytest.raises(error) as exc:
        load_measurements(path)
    assert message in str(exc.value)
    if row is not None:
        assert exc.value.row == row


def test_load_accepts_python_number_spellings(tmp_path):
    big = "123456789012345678901"  # beyond int64
    rows = [
        "device1,addition:int:constant,1_0,0,5.6,0.1,0.1006,10000000",
        "device1,addition:int:constant,0,0, 5.6 ,0.1_5,0.1006, 7 ",
        f"device1,addition:int:constant,0,0,5.6,0.1,0.1006,{big}",
        "device1,BASELINE,0,0,5.6,0.01,0.1006,10000000",
    ]
    path = tmp_path / "m.csv"
    _write_csv(path, rows)
    ds = load_measurements(path)
    expected = [
        energy_per_iteration(sample(amperage=0.15, iterations=7)),
        energy_per_iteration(sample(iterations=int(big))),
    ]
    energies = [r.energy for r in ds.records]
    assert energies[0] == energy_per_iteration(sample())
    assert _bits(energies[1:]) == _bits(expected)
    assert len(ds.baselines) == 1


def test_corrected_requires_baseline_for_each_device(tmp_path):
    path = tmp_path / "m.csv"
    _write_csv(path, [
        "device1,BASELINE,0,0,5.6,0.01,0.1006,10000000",
        _GOOD,
        _GOOD.replace("device1", "device2"),
    ])
    with pytest.raises(MissingBaseline) as exc:
        load_measurements(path).corrected()
    assert exc.value.device == "device2"
