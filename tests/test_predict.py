"""Gaussian distribution, convolution, and program prediction tests."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bytecode_energy.catalog import PatternKey, PatternTriple
from bytecode_energy.errors import (
    DomainError,
    EmptyManifest,
    UnknownLevel,
    UnknownPattern,
)
from bytecode_energy.inference import PosteriorModel
from bytecode_energy.predict import (
    GaussianDist,
    ProgramManifest,
    convolve,
    predict_program,
    statement_dist,
)

STD_NORMAL = GaussianDist(0.0, 1.0)


def test_cdf_symmetry():
    assert STD_NORMAL.cdf(0.0) == pytest.approx(0.5, abs=1e-12)


def test_quantile_95_percent():
    d = GaussianDist(2.0, 3.0)
    assert d.quantile(0.95) == pytest.approx(2.0 + 1.6448536 * 3.0, abs=3e-6)


def test_quantile_cdf_round_trip():
    d = GaussianDist(1e-8, 3e-9)
    for p in np.concatenate([[1e-6, 1 - 1e-6],
                             np.linspace(0.001, 0.999, 41)]):
        assert abs(d.cdf(d.quantile(p)) - p) < 1e-9


def test_quantile_domain_errors():
    with pytest.raises(DomainError):
        STD_NORMAL.quantile(0.0)
    with pytest.raises(DomainError):
        STD_NORMAL.quantile(1.0)


def test_invalid_gaussians():
    with pytest.raises(DomainError):
        GaussianDist(0.0, -1.0)
    with pytest.raises(DomainError):
        GaussianDist(math.nan, 1.0)
    degenerate = GaussianDist(1.0, 0.0)  # allowed, but not evaluable
    with pytest.raises(DomainError):
        degenerate.cdf(1.0)


def test_convolve_two_equal_gaussians():
    d = GaussianDist(1e-8, 3e-9)
    out = convolve([d, d])
    assert out.mean == pytest.approx(2e-8, rel=1e-12)
    assert out.sd == pytest.approx(4.2426e-9, rel=1e-4)
    assert out.sd == pytest.approx(math.sqrt(2) * 3e-9, rel=1e-12)


def test_convolve_single_distribution_is_identity():
    d = GaussianDist(2.0, 0.5)
    out = convolve([d])
    assert (out.mean, out.sd) == (2.0, 0.5)


def test_convolve_rejects_empty_and_negative_variance():
    with pytest.raises(DomainError):
        convolve([])


def test_convolution_against_monte_carlo():
    rng = np.random.default_rng(42)
    dists = [GaussianDist(float(rng.uniform(1.0, 10.0)),
                          float(rng.uniform(0.5, 3.0))) for _ in range(5)]
    analytic = convolve(dists)
    draws = sum(rng.normal(d.mean, d.sd, 1_000_000) for d in dists)
    assert abs(draws.mean() - analytic.mean) < 0.01 * analytic.mean
    assert abs(draws.std(ddof=1) - analytic.sd) < 0.01 * analytic.sd


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.floats(min_value=-100.0, max_value=100.0),
                          st.floats(min_value=0.0, max_value=10.0)),
                min_size=2, max_size=6))
def test_convolution_associative_and_commutative(params):
    dists = [GaussianDist(m, s) for m, s in params]
    direct = convolve(dists)
    nested = convolve([convolve(dists[:2])] + dists[2:])
    permuted = convolve(list(reversed(dists)))
    for other in (nested, permuted):
        assert math.isclose(direct.mean, other.mean,
                            rel_tol=1e-12, abs_tol=1e-12)
        assert math.isclose(direct.sd, other.sd, rel_tol=1e-12, abs_tol=1e-12)


def test_mean_additivity_is_exact():
    dists = [GaussianDist(m, 0.1) for m in (1.25, 2.5, 4.75)]
    assert convolve(dists).mean == 1.25 + 2.5 + 4.75


def test_statement_dist_bundled_model(bundled_model):
    key = PatternKey(PatternTriple("addition", "int", "constant"), "device2")
    d = statement_dist(bundled_model, key)
    assert d.mean == pytest.approx(2.974859162e-08, rel=1e-12)
    assert d.sd == bundled_model.summaries["sigma"]["mean"]
    assert d.sd == 1.356665e-08


def test_statement_dist_zero_effects():
    model = PosteriorModel(
        levels={"alpha": ["s"], "beta": ["o"], "gamma": ["t"], "delta": ["d"]},
        summaries={
            "alpha[s]": {"mean": 0.0, "sd": 0.0},
            "beta[o]": {"mean": 0.0, "sd": 0.0},
            "gamma[t]": {"mean": 0.0, "sd": 0.0},
            "delta[d]": {"mean": 0.0, "sd": 0.0},
            "sigma": {"mean": 2e-8, "sd": 0.0},
        },
    )
    d = statement_dist(model, ("s", "o", "t", "d"))
    assert (d.mean, d.sd) == (0.0, 2e-8)


def test_statement_dist_unknown_level(bundled_model):
    with pytest.raises(UnknownLevel):
        statement_dist(bundled_model, ("constant", "addition", "int", "deviceX"))


def test_manifest_parse_counts_and_comments():
    manifest = ProgramManifest.parse([
        "# program header",
        "",
        "2 addition:int:bits32@device1",
        "1 variable_declaration:long:constant@device2",
        "1 addition:int:bits32@device1",
    ])
    add_key = PatternKey(PatternTriple("addition", "int", "bits32"), "device1")
    var_key = PatternKey(
        PatternTriple("variable_declaration", "long", "constant"), "device2")
    assert manifest.entries == {add_key: 3, var_key: 1}
    assert manifest.total_statements() == 4


def test_manifest_parse_errors_carry_line_numbers():
    with pytest.raises(UnknownPattern, match="line 2"):
        ProgramManifest.parse(["1 addition:int:bits32@device1", "garbage"])
    with pytest.raises(UnknownPattern, match="line 1"):
        ProgramManifest.parse(["1 addition:long:bits32@device1"])
    with pytest.raises(DomainError, match="line 1"):
        ProgramManifest.parse(["0 addition:int:bits32@device1"])


def test_manifest_rejects_counts_beyond_the_float_range():
    top = str(int(sys.float_info.max))
    lines = [f"{top} addition:int:bits32@device1"] * 2
    assert ProgramManifest.parse(lines[:1]).total_statements() == int(top)
    with pytest.raises(DomainError, match="line 2: count 1797"):
        ProgramManifest.parse(lines)


def test_manifest_rejects_nonpositive_counts():
    key = PatternKey(PatternTriple("addition", "int", "bits32"), "device1")
    with pytest.raises(DomainError):
        ProgramManifest(entries={key: 0})


def test_predict_program_bundled_example(bundled_model):
    key = PatternKey(
        PatternTriple("variable_declaration", "long", "constant"), "device2")
    result = predict_program(bundled_model, ProgramManifest(entries={key: 1}))
    s = bundled_model.summaries
    exact = bundled_model.mean_mu(key)
    assert exact == pytest.approx(
        s["alpha[constant]"]["mean"] + s["beta[variable_declaration]"]["mean"]
        + s["gamma[long]"]["mean"] + s["delta[device2]"]["mean"], rel=1e-15)
    assert result.dist.mean == exact
    assert result.dist.mean == pytest.approx(1.419680e-08, rel=1e-5)
    assert result.dist.sd == s["sigma"]["mean"]
    assert result.contributions[key] == exact


def test_predict_program_count_two_doubles_mean(bundled_model):
    key = PatternKey(
        PatternTriple("variable_declaration", "long", "constant"), "device2")
    one = predict_program(bundled_model, ProgramManifest(entries={key: 1}))
    two = predict_program(bundled_model, ProgramManifest(entries={key: 2}))
    assert two.dist.mean == pytest.approx(2 * one.dist.mean, rel=1e-12)
    # independent repetitions: variance scales with n, sd with sqrt(n)
    assert two.dist.sd == pytest.approx(math.sqrt(2) * one.dist.sd, rel=1e-12)


def test_predict_program_quantiles_ordered(bundled_model):
    key = PatternKey(PatternTriple("addition", "int", "bits32"), "device1")
    result = predict_program(bundled_model, ProgramManifest(entries={key: 3}))
    q = result.quantiles
    assert q[0.5] == pytest.approx(result.dist.mean, rel=1e-12)
    assert q[0.5] < q[0.95] < q[0.99]
    payload = result.to_json_dict()
    assert set(payload) == {"mean_j", "sd_j", "quantiles_j", "contributions_j"}


def test_predict_program_empty_manifest(bundled_model):
    with pytest.raises(EmptyManifest):
        predict_program(bundled_model, ProgramManifest(entries={}))


def _model_with_draws(correlation_sign=1.0, n=4000, seed=0):
    rng = np.random.default_rng(seed)
    shared = rng.normal(0.0, 1e-9, n)
    draws = np.empty((2, n // 2, 6))
    cols = {
        "sigma": np.full(n, 1e-8) + rng.normal(0, 1e-11, n),
        "alpha[s]": rng.normal(5e-9, 1e-10, n),
        "beta[o1]": 3e-8 + shared,
        "beta[o2]": 4e-8 + correlation_sign * shared,
        "gamma[t]": rng.normal(1e-9, 1e-10, n),
        "delta[d]": rng.normal(2e-9, 1e-10, n),
    }
    names = list(cols)
    flat = np.stack([cols[c] for c in names], axis=1)
    draws = flat.reshape(2, n // 2, len(names))
    summaries = {c: {"mean": float(cols[c].mean()),
                     "sd": float(cols[c].std(ddof=1))} for c in names}
    return PosteriorModel(
        levels={"alpha": ["s"], "beta": ["o1", "o2"], "gamma": ["t"],
                "delta": ["d"]},
        summaries=summaries,
        draw_names=names,
        draws=draws,
    )


def test_predict_program_uses_draw_covariance():
    manifest = ProgramManifest(entries={("s", "o1", "t", "d"): 1,
                                        ("s", "o2", "t", "d"): 1})
    positive = _model_with_draws(correlation_sign=1.0)
    negative = _model_with_draws(correlation_sign=-1.0)
    var_pos = predict_program(positive, manifest).dist.sd ** 2
    var_neg = predict_program(negative, manifest).dist.sd ** 2
    # positively correlated statement means inflate the program variance
    assert var_pos > var_neg
    # and the variance decomposes as counts' Sigma counts + n * sigma^2
    model = positive
    mu = np.stack([model.mu_draws(("s", "o1", "t", "d")),
                   model.mu_draws(("s", "o2", "t", "d"))])
    expected = (2 * model.sigma_mean() ** 2
                + (mu[0] + mu[1]).var(ddof=1))
    assert var_pos == pytest.approx(expected, rel=1e-9)
