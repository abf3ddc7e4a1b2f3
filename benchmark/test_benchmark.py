"""The benchmark's own tests: input digests, metric coverage, failure counts.

Run from the root of a checkout:  python3 -m pytest -q benchmark
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import inputs
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _digests(seed):
    return [
        inputs.paper_inputs(seed)[1],
        inputs.query_model_inputs(seed, chains=2, draws=50)[1],
        inputs.query_script(seed, inputs.paper_keys(), 20)[1],
    ]


def test_same_seed_gives_identical_digests():
    assert _digests(3) == _digests(3)


def test_different_seeds_give_different_digests():
    first, second = _digests(3), _digests(4)
    assert all(a != b for a, b in zip(first, second))


def test_paper_csv_has_the_study_shape():
    paper, _ = inputs.paper_inputs(0)
    lines = paper.csv_text.splitlines()
    assert len(lines) == 1 + 17_500
    assert len(paper.patterns) == 348 * 50
    assert len(paper.truth) == 348


def test_workloads_match_benchmark_json():
    assert sorted(workloads.WORKLOADS) == sorted(
        w["name"] for w in SPEC["workloads"])


TINY = {
    "paper": dict(fits=1, warmup=20, draws=20),
    "query": dict(fits=1, draws=100),
}


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    """Every workload at a tiny length, untraced and traced."""
    results = {}
    saved = workloads.SETUP_STARTS
    workloads.SETUP_STARTS = 1
    try:
        for name, sizes in TINY.items():
            w = dataclasses.replace(workloads.WORKLOADS[name], **sizes)
            for trace in (False, True):
                workdir = tmp_path_factory.mktemp(f"{name}-{int(trace)}")
                results[name, trace] = workloads.run(
                    w, 0, 0.0, trace, ROOT / "src", workdir)
    finally:
        workloads.SETUP_STARTS = saved
    return results


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_emits_every_metric_with_its_unit(smoke_runs, name, trace):
    result, details = smoke_runs[name, trace]
    assert result["correct"], details["failures"]
    assert result["failed"] == 0
    assert result["attempted"] >= 1 + workloads.MIN_QUERIES
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    for value in result["metrics"].values():
        assert np.isfinite(value["value"])
    assert set(details["digests"])


def test_traced_run_attributes_operation_time_to_layers(smoke_runs):
    result, _ = smoke_runs["paper", True]
    m = result["metrics"]
    assert 0 < m["trace.unattributed_pct"]["value"] <= (
        workloads.UNATTRIBUTED_MAX_PCT)
    assert m["ingest.rows"]["value"] == 17_500


def test_traced_run_that_misses_a_layer_is_not_correct(tmp_path, monkeypatch):
    """Without the load span, model load lands in cli.main's self time."""
    monkeypatch.setattr(tracing, "ENTRY_POINTS", tuple(
        e for e in tracing.ENTRY_POINTS if e[2] != "inference.load"))
    monkeypatch.setattr(workloads, "SETUP_STARTS", 1)
    w = dataclasses.replace(workloads.WORKLOADS["query"], **TINY["query"])
    result, _ = workloads.run(w, 0, 0.0, True, ROOT / "src", tmp_path)
    assert result["failed"] == 0
    assert result["metrics"]["trace.unattributed_pct"]["value"] > (
        workloads.UNATTRIBUTED_MAX_PCT)
    assert not result["correct"]


def _query_run(tmp_path):
    w = workloads.WORKLOADS["query"]
    return workloads.RunState(workload=w, seed=0, workdir=tmp_path, tracer=None,
                              src=ROOT / "src")


@pytest.fixture
def small_model(tmp_path):
    source, _ = inputs.query_model_inputs(0, chains=2, draws=60)
    from bytecode_energy.inference import PosteriorModel, summarize_draws
    model = PosteriorModel(
        levels=source.levels,
        summaries=summarize_draws(source.draws, source.names),
        meta={"chains": 2, "draws_per_chain": 60},
        draw_names=source.names, draws=source.draws)
    path = tmp_path / "model.json"
    model.save(path)
    return path, source


def test_good_query_passes(tmp_path, small_model):
    path, source = small_model
    run = _query_run(tmp_path)
    ref = workloads.Reference(source.names, source.draws)
    entries = {inputs.paper_keys()[0]: 3, inputs.paper_keys()[200]: 7}
    manifest = tmp_path / "ok.txt"
    manifest.write_text(inputs.manifest_text(entries))
    workloads.query_once(run, path, "predict", entries, manifest, ref)
    workloads.query_once(run, path, "diagnose", None, None, ref)
    assert (run.attempted, run.failed) == (2, 0)


def test_broken_query_is_counted_as_failed_not_dropped(tmp_path, small_model):
    path, source = small_model
    run = _query_run(tmp_path)
    ref = workloads.Reference(source.names, source.draws)
    size, op, dtype, _ = inputs.paper_keys()[0]
    entries = {(size, op, dtype, "no-such-device"): 1}
    manifest = tmp_path / "broken.txt"
    manifest.write_text(inputs.manifest_text(entries))
    workloads.query_once(run, path, "predict", entries, manifest, ref)
    assert (run.attempted, run.failed) == (1, 1)
    assert len(run.query_walls) == 1
    assert "exited 1" in run.failures[0]


def test_wrong_answer_is_counted_as_failed(tmp_path, small_model):
    path, source = small_model
    run = _query_run(tmp_path)
    ref = workloads.Reference(source.names, source.draws * 1.001)
    entries = {inputs.paper_keys()[5]: 2}
    manifest = tmp_path / "ok.txt"
    manifest.write_text(inputs.manifest_text(entries))
    workloads.query_once(run, path, "predict", entries, manifest, ref)
    workloads.query_once(run, path, "diagnose", None, None, ref)
    assert (run.attempted, run.failed) == (2, 2)

