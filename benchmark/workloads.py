"""The benchmark's workloads, their operations and correctness checks.

Every workload runs the product's two sides in one closed loop with one
client: a fixed number of model-building operations, each followed by a
burst of CLI queries against the resulting model file.  The run's time is
split evenly over the builds.

* ``paper``: six in-process ``bytecode-energy fit --save-draws`` calls
  from the same 17.5k-row CSV (dimension 77); queries mix
  ``predict --json`` and ``diagnose --json`` against the fitted model.
* ``query``: the model is built without the sampler, from seeded draws of
  paper size (4 x 1000 x 82), by ``summarize_draws`` and
  ``PosteriorModel.save``, sixteen times; that build is this workload's
  "fit".  Queries mix ``predict`` and ``diagnose`` and dominate the run.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from bytecode_energy import catalog, cli, inference

import inputs
from tracing import Tracer, instrument, span_cost_s

SETUP_STARTS = 21         # fresh interpreters timed for setup_s, per run
# Relative tolerance of a query answer against the recomputation.  Fitted
# effect draws are ~1e-2 J and cancel to ~1e-8 J key means, so two correct
# summation orders of a program's variance differ by up to ~1e-8; any real
# error in a mean or sd is orders of magnitude larger.
QUERY_RTOL = 1e-6
TAIL_PCT = 80.0           # query_ms_tail; MIN_QUERIES leaves >= 10 beyond it
MIN_QUERIES = 50
# A traced run is correct only if at most this share of its operations'
# wall time is unattributed: self time of the harness's own ``bench.*``
# spans or of ``cli.main``, outside every layer entry point it calls.
# Measured at 1-5% on full runs and up to ~10% on the tests' tiny ones;
# tracing that misses model load, most of a query, exceeds it.
UNATTRIBUTED_MAX_PCT = 25.0
SCRIPT_LENGTH = 400      # queries in the seeded mix; the loop cycles
CHAINS = 4


@dataclass(frozen=True)
class Workload:
    name: str
    fits: int                 # model-building operations per run
    warmup: int
    draws: int


# Fits are short, far below the 1000+1000 default, so that a run holds
# many of them and fit_s is their median.  On a shared host whose speed
# wanders by up to 1.5x, that median is far steadier from run to run than
# the mean of a few long fits (README, "Steadiness").  Per-iteration cost
# does not depend on the length.  No length is expected to pass the
# convergence gate, so a gate miss is recorded (gate_misses), not failed.
WORKLOADS = {
    "paper": Workload("paper", fits=6, warmup=50, draws=50),
    "query": Workload("query", fits=16, warmup=0, draws=1000),
}


class Failed(Exception):
    """An operation returned a wrong or unusable result."""


@dataclass
class FitResult:
    wall: float
    min_ess: float
    max_rhat: float
    sq_err: list[float]       # ((estimate - truth) / sigma)^2 per key
    converged: bool
    acceptance: list[dict]
    nonfinite: int
    draws_total: int


@dataclass
class RunState:
    workload: Workload
    seed: int
    workdir: Path
    tracer: Tracer | None
    src: Path
    setup_times: list[float] = field(default_factory=list)
    fits: list[FitResult] = field(default_factory=list)
    query_walls: list[float] = field(default_factory=list)
    query_phase_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    gate_misses: int = 0
    op_walls: list[float] = field(default_factory=list)
    model_bytes: int = 0
    predict_keys: int = 0
    digests: dict = field(default_factory=dict)

    def op(self, label: str):
        """Count and time one operation; inside a root span when tracing."""
        return _Operation(self, label)


class _Operation:
    def __init__(self, run: RunState, label: str):
        self.run = run
        self.label = label
        self.wall = 0.0
        self.ok = False
        self._span = None

    def __enter__(self):
        self.run.attempted += 1
        if self.run.tracer is not None:
            self._span = self.run.tracer.span(f"bench.{self.label}")
            self._span.__enter__()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.wall = time.perf_counter() - self._t0
        if self._span is not None:
            self._span.__exit__(None, None, None)
        self.run.op_walls.append(self.wall)
        self.ok = exc_type is None
        if exc_type is not None and issubclass(exc_type, Exception):
            self.run.failed += 1
            self.run.failures.append(f"{self.label}: {exc_type.__name__}: {exc}")
            return True
        return False


# -- set-up --------------------------------------------------------------------

def setup_start(src: Path) -> float:
    """Wall time of one fresh interpreter importing the CLI module."""
    env = dict(os.environ, PYTHONPATH=str(src))
    t0 = time.perf_counter()
    # No timeout: with one, subprocess polls in 50 ms sleeps.
    subprocess.run([sys.executable, "-c", "import bytecode_energy.cli"],
                   env=env, check=True)
    return time.perf_counter() - t0


# -- fit checks ------------------------------------------------------------------

def evaluate_fit(summaries: dict, meta: dict, names: list[str], truth: dict,
                 wall: float) -> FitResult:
    """Check a fit's summaries and score its key means against the truth."""
    for name in names:
        s = summaries.get(name)
        if s is None:
            raise Failed(f"summary for {name} is missing")
        values = [s.get(f) for f in ("mean", "sd", "ess", "rhat")]
        if not all(isinstance(v, (int, float)) and math.isfinite(v)
                   for v in values):
            raise Failed(f"summary for {name} is not finite: {values}")
    converged = bool(meta.get("converged"))
    sq_err = []
    for (size, op, dtype, device), mu in truth.items():
        estimate = (summaries[f"alpha[{size}]"]["mean"]
                    + summaries[f"beta[{op}]"]["mean"]
                    + summaries[f"gamma[{dtype}]"]["mean"]
                    + summaries[f"delta[{device}]"]["mean"])
        sq_err.append(((estimate - mu) / inputs.SIGMA) ** 2)
    return FitResult(
        wall=wall,
        min_ess=min(summaries[n]["ess"] for n in names),
        max_rhat=max(summaries[n]["rhat"] for n in names),
        sq_err=sq_err,
        converged=converged,
        acceptance=list(meta.get("acceptance", [])),
        nonfinite=int(meta.get("nonfinite_states", 0)),
        draws_total=int(meta["chains"]) * int(meta["draws_per_chain"]),
    )


# -- query checks ------------------------------------------------------------------

class Reference:
    """Expected query answers, recomputed from a model's raw draws."""

    def __init__(self, names: list[str], draws: np.ndarray):
        self.names = list(names)
        self.column = {n: i for i, n in enumerate(self.names)}
        self.flat = np.asarray(draws, dtype=float).reshape(-1, len(self.names))
        self.means = self.flat.mean(axis=0)
        self.sigma = float(self.means[self.column["sigma"]])

    def predict(self, entries: dict) -> tuple[float, float]:
        """Mean and sd of the program energy: sum of count x key mean."""
        weights = np.zeros(len(self.names))
        statement_var = 0.0
        for (size, op, dtype, device), count in entries.items():
            for name in (f"alpha[{size}]", f"beta[{op}]", f"gamma[{dtype}]",
                         f"delta[{device}]"):
                weights[self.column[name]] += count
            statement_var += count * self.sigma ** 2
        total = self.flat @ weights
        return float(total.mean()), math.sqrt(
            statement_var + float(total.var(ddof=1)))


def _close(x: float, y: float) -> bool:
    return abs(x - y) <= QUERY_RTOL * max(abs(x), abs(y), 1e-300)


def check_query(kind: str, entries, stdout: str, ref: Reference) -> None:
    payload = json.loads(stdout)
    if kind == "predict":
        mean, sd = ref.predict(entries)
        if not (_close(payload["mean_j"], mean) and _close(payload["sd_j"], sd)):
            raise Failed(f"predict gave ({payload['mean_j']!r}, "
                         f"{payload['sd_j']!r}), expected ({mean!r}, {sd!r})")
        return
    rows = {row["parameter"]: row for row in payload}
    if set(rows) != set(ref.names):
        raise Failed("diagnose rows do not match the model's parameters")
    for name, row in rows.items():
        expected = float(ref.means[ref.column[name]])
        if not _close(row["mean"], expected):
            raise Failed(f"diagnose mean of {name} is {row['mean']!r}, "
                         f"expected {expected!r}")
        if not all(isinstance(row[f], (int, float)) and math.isfinite(row[f])
                   for f in ("ess", "rhat")):
            raise Failed(f"diagnose row {name} has non-finite ess/rhat")


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """``bytecode-energy <argv>`` in process, with stdout/stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def query_once(run: RunState, model_path: Path, kind: str, entries,
               manifest_path: Path | None, ref: Reference) -> None:
    if kind == "predict":
        argv = ["predict", "--model", str(model_path), "--program",
                str(manifest_path), "--json"]
    else:
        argv = ["diagnose", str(model_path), "--json"]
    with run.op("query") as op:
        code, stdout, stderr = run_cli(argv)
        if code != 0:
            raise Failed(f"{kind} exited {code}: {stderr.strip()[-200:]}")
        check_query(kind, entries, stdout, ref)
    run.query_walls.append(op.wall)
    if kind == "predict":
        run.predict_keys += len(entries)


class QueryScript:
    """The seeded query mix, with each predict manifest written to a file."""

    def __init__(self, run: RunState, keys: list):
        self.items, run.digests["query_script"] = inputs.query_script(
            run.seed, keys, SCRIPT_LENGTH)
        self.manifests = {}
        for i, (kind, entries) in enumerate(self.items):
            if kind == "predict":
                self.manifests[i] = run.workdir / f"manifest-{i}.txt"
                self.manifests[i].write_text(inputs.manifest_text(entries))
        self.next = 0

    def issue(self, run: RunState, model_path: Path, ref: Reference) -> None:
        index = self.next % len(self.items)
        kind, entries = self.items[index]
        query_once(run, model_path, kind, entries, self.manifests.get(index),
                   ref)
        self.next += 1


def serve(run: RunState, deadline: float, builds) -> None:
    """Alternate model builds with bursts of queries against the latest model.

    ``builds`` yields ``(model_path, Reference)`` after each successful
    build and ``None`` after a failed one.  The run's time is split evenly
    over the builds, so fits and queries both sample the whole run.  The
    loop is closed with one client: each query waits for the previous one.
    At least MIN_QUERIES queries are issued in all.

    The set-up starts are spread evenly over each burst, between queries,
    so that ``setup_s`` samples the host over the whole run rather than
    over one moment of it.  Their time is not query time.
    """
    script = QueryScript(run, inputs.paper_keys())
    fits = run.workload.fits
    start = time.perf_counter()
    target = None
    for i, built in enumerate(builds, start=1):
        target = built or target
        if target is None:
            continue
        slice_end = start + (deadline - start) * i / fits
        quota = math.ceil(MIN_QUERIES * i / fits)
        burst = time.perf_counter()
        starts = SETUP_STARTS * i // fits - SETUP_STARTS * (i - 1) // fits
        due = [burst + (slice_end - burst) * (j + 0.5) / starts
               for j in range(starts)]
        setup_spent = 0.0
        while time.perf_counter() < slice_end or script.next < quota or due:
            if due and time.perf_counter() >= due[0]:
                due.pop(0)
                run.setup_times.append(setup_start(run.src))
                setup_spent += run.setup_times[-1]
            else:
                script.issue(run, *target)
        run.query_phase_s += time.perf_counter() - burst - setup_spent


# -- workloads -------------------------------------------------------------------

def _paper(run: RunState, deadline: float) -> None:
    w = run.workload
    paper, run.digests["paper_csv"] = inputs.paper_inputs(run.seed)
    csv_path = run.workdir / "measurements.csv"
    csv_path.write_text(paper.csv_text)
    path = run.workdir / "paper-model.json"
    argv = ["fit", "--measurements", str(csv_path), "--out", str(path),
            "--save-draws", "--chains", str(CHAINS), "--warmup",
            str(w.warmup), "--draws", str(w.draws), "--seed", "0"]

    def builds():
        for _ in range(w.fits):
            with run.op("fit") as op:
                code, _, stderr = run_cli(argv)
                if code not in (0, 2):
                    raise Failed(f"fit exited {code}: {stderr.strip()[-200:]}")
            obj = json.loads(path.read_text()) if op.ok else None
            if obj is None or not _score(run, lambda: evaluate_fit(
                    obj["summaries"], obj["meta"], obj["draws"]["names"],
                    paper.truth, op.wall)):
                yield None
                continue
            run.model_bytes = path.stat().st_size
            yield path, Reference(obj["draws"]["names"],
                                  np.asarray(obj["draws"]["values"]))

    serve(run, deadline, builds())


def _query(run: RunState, deadline: float) -> None:
    w = run.workload
    source, run.digests["query_draws"] = inputs.query_model_inputs(
        run.seed, CHAINS, w.draws)
    path = run.workdir / "query-model.json"
    meta = {"seed": run.seed, "chains": CHAINS, "warmup": w.warmup,
            "draws_per_chain": w.draws}
    ref = Reference(source.names, source.draws)

    def builds():
        for _ in range(w.fits):
            with run.op("fit") as op:
                model = inference.PosteriorModel(
                    levels=source.levels,
                    summaries=inference.summarize_draws(source.draws,
                                                        source.names),
                    meta=dict(meta), draw_names=source.names,
                    draws=source.draws)
                model.meta["converged"] = not model.convergence_failures()
                model.save(path)
            if not (op.ok and _score(run, lambda: evaluate_fit(
                    model.summaries, model.meta, source.names, source.truth,
                    op.wall))):
                yield None
                continue
            run.model_bytes = path.stat().st_size
            yield path, ref

    serve(run, deadline, builds())


RUNNERS = {"paper": _paper, "query": _query}


def _score(run: RunState, evaluate) -> bool:
    """Evaluate a finished fit; a failed check counts the fit as failed."""
    try:
        result = evaluate()
    except (Failed, KeyError, TypeError) as exc:
        run.failed += 1
        run.failures.append(f"fit check: {exc}")
        return False
    run.fits.append(result)
    run.gate_misses += not result.converged
    return True


# -- metrics -------------------------------------------------------------------

def _percentile(values: list[float], pct: float) -> float:
    return float(np.percentile(np.asarray(values), pct))


def end_to_end_metrics(run: RunState) -> dict:
    fits, q = run.fits, run.query_walls
    sq_err = [e for f in fits for e in f.sq_err]
    fit_s = statistics.median(f.wall for f in fits)
    return {
        "setup_s": (statistics.median(run.setup_times), "s"),
        "fit_s": (fit_s, "s"),
        "min_ess_per_s": (statistics.fmean(f.min_ess for f in fits) / fit_s,
                          "1/s"),
        "key_mean_rmse_rel": (math.sqrt(statistics.fmean(sq_err)), "1"),
        "query_ms_tail": (1e3 * _percentile(q, TAIL_PCT), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def unbounded_query_metrics(run: RunState) -> dict:
    """Query median and throughput: reported in the traced run, no bound.

    On a shared host the CPU's speed switches between two levels, about
    1.5x apart, for seconds at a time.  The median latency falls between
    the two levels, and over ten runs it spreads by 19-34% of its median.
    Throughput spreads by 13-29%.  Both exceed the largest bound a gated
    metric may have.  The p80 tail sits in the slow level on every run
    and spreads by 7-12%.
    """
    q = run.query_walls
    return {
        "query_ms_p50": (1e3 * _percentile(q, 50.0), "ms"),
        "query_per_s": (len(q) / run.query_phase_s, "1/s"),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


LAYERS = ("bench", "cli", "ingest", "inference", "diagnostics", "predict")


def classify_us(patterns: list[str]) -> float:
    """Median over three passes of classify_statement microseconds per call."""
    samples = []
    for _ in range(3):
        t0 = time.perf_counter()
        for text in patterns:
            catalog.classify_statement(text)
        samples.append((time.perf_counter() - t0) / len(patterns) * 1e6)
    return statistics.median(samples)


def per_layer_metrics(run: RunState, patterns: list[str]) -> dict:
    """Layer numbers from the traced run's spans and the fits' meta."""
    t, w, fits = run.tracer, run.workload, run.fits
    ops = len(run.op_walls)
    op_wall = sum(run.op_walls)
    self_s = {layer: 0.0 for layer in LAYERS}
    for name, seconds in t.self_times().items():
        self_s[name.split(".")[0]] += seconds

    fit_spans = t.durations("inference.fit")
    summaries = t.durations_with_parent("inference.summarize_draws")
    # Summaries made by a fit or a model build, not by load's validation.
    summarize = [d for d, p in summaries if p != "inference.load"]
    iters = CHAINS * (w.warmup + w.draws)
    us_per_iter = [1e6 * (f - s) / iters for f, s in zip(
        fit_spans, [d for d, p in summaries if p == "inference.fit"])]
    ingest_s = sum(t.durations("ingest.load_measurements")
                   + t.durations("ingest.corrected") + t.durations("ingest.by_key"))
    correct = [c + b for c, b in zip(t.durations("ingest.corrected"),
                                     t.durations("ingest.by_key"))]
    program = t.durations("predict.predict_program")
    predict_s = sum(program + t.durations("predict.parse"))
    acceptance = [a for f in fits for a in f.acceptance]

    def accept(key):
        return statistics.fmean(a[key] for a in acceptance) if acceptance else 0.0

    spans = len(t.spans)
    metrics = {
        "catalog.classify_us": (classify_us(patterns), "us"),
        "ingest.load_s": (_median_or_zero(
            t.durations("ingest.load_measurements")), "s"),
        "ingest.rows": (t.counts.get("ingest.load_measurements", 0)
                        / max(len(t.durations("ingest.load_measurements")), 1),
                        "count"),
        "ingest.correct_s": (_median_or_zero(correct), "s"),
        "ingest.share_pct": (100.0 * ingest_s / sum(f.wall for f in fits),
                             "%"),
        "inference.fit_s": (_median_or_zero(fit_spans), "s"),
        "inference.summarize_s": (_median_or_zero(summarize), "s"),
        "inference.us_per_iter": (_median_or_zero(us_per_iter), "us"),
        "inference.ess_per_draw": (sum(f.min_ess for f in fits)
                                   / sum(f.draws_total for f in fits), "1"),
        "inference.max_rhat": (max(f.max_rhat for f in fits), "1"),
        "inference.accept_log_sd": (accept("log_sd"), "1"),
        "inference.accept_log_sigma": (accept("log_sigma"), "1"),
        "inference.accept_swap": (accept("swap"), "1"),
        "inference.nonfinite_states": (sum(f.nonfinite for f in fits), "count"),
        "inference.save_s": (_median_or_zero(t.durations("inference.save")), "s"),
        "inference.model_bytes": (run.model_bytes, "bytes"),
        "inference.load_s": (_median_or_zero(t.durations("inference.load")), "s"),
        "diagnostics.report_ms": (1e3 * _median_or_zero(
            t.durations("diagnostics.report")), "ms"),
        "predict.parse_ms": (1e3 * _median_or_zero(
            t.durations("predict.parse")), "ms"),
        "predict.program_ms": (1e3 * _median_or_zero(program), "ms"),
        "predict.us_per_key": (1e6 * sum(program) / run.predict_keys
                               if run.predict_keys else 0.0, "us"),
        "predict.share_pct": (100.0 * predict_s / sum(run.query_walls), "%"),
        "trace.spans_per_op": (spans / ops, "count"),
        "trace.overhead_pct": (100.0 * spans * span_cost_s() / op_wall, "%"),
        "trace.unattributed_pct": (100.0 * (self_s["bench"] + self_s["cli"])
                                   / op_wall, "%"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = (1e3 * self_s[layer] / ops, "ms")
    metrics.update(unbounded_query_metrics(run))
    return metrics


# -- one run -------------------------------------------------------------------

def environment() -> dict:
    """Software and platform the run measured on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "machine": platform.machine(),
        "longdouble_eps": float(np.finfo(np.longdouble).eps),
    }


def run(w: Workload, seed: int, seconds: float, trace: bool, src: Path,
        workdir: Path) -> tuple[dict, dict]:
    """Run one workload; return (result line, details) as plain dicts."""
    tracer = Tracer() if trace else None
    state = RunState(workload=w, seed=seed, workdir=workdir, tracer=tracer,
                     src=src)
    start = time.perf_counter()
    deadline = start + seconds
    with instrument(tracer) if tracer else contextlib.nullcontext():
        RUNNERS[w.name](state, deadline)
    wall = time.perf_counter() - start

    complete = all((state.fits, state.query_walls, state.setup_times))
    correct = complete and state.failed == 0
    if not complete:
        metrics = {}
    elif trace:
        paper, _ = inputs.paper_inputs(seed)
        metrics = per_layer_metrics(state, paper.patterns)
        correct = correct and (metrics["trace.unattributed_pct"][0]
                               <= UNATTRIBUTED_MAX_PCT)
    else:
        metrics = end_to_end_metrics(state)
    q = len(state.query_walls)
    details = {
        "workload": w.name,
        "seed": seed,
        "trace": trace,
        "lengths": {"fits": w.fits, "chains": CHAINS, "warmup": w.warmup,
                    "draws": w.draws},
        "digests": state.digests,
        "environment": environment(),
        "fits": [{"wall_s": f.wall, "min_ess": f.min_ess,
                  "max_rhat": f.max_rhat, "converged": f.converged}
                 for f in state.fits],
        "gate_misses": state.gate_misses,
        "queries": q,
        "query_tail_pct": TAIL_PCT,
        "query_tail_samples_beyond": int(q * (1.0 - TAIL_PCT / 100.0)),
        "measured_s": wall,
        "failures": state.failures[:20],
    }
    result = {
        "correct": correct,
        "attempted": state.attempted,
        "failed": state.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, details
