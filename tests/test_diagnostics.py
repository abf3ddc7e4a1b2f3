"""Diagnostics oracles: split R-hat, ESS, MCSE, gates, predictive checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bytecode_energy.diagnostics import (
    ESS_CAP_FACTOR,
    _gate,
    ess,
    mcse,
    posterior_predictive_check,
    report,
    split_rhat,
    summarize,
)
from bytecode_energy.errors import DegenerateChains
from bytecode_energy.inference import PosteriorModel, summarize_draws

IID = np.random.default_rng(0).standard_normal((4, 1000))


def test_iid_rhat_near_one():
    assert 0.99 <= split_rhat(IID) <= 1.01


def test_separated_chains_rhat_large():
    rng = np.random.default_rng(1)
    chains = np.stack([rng.normal(0.0, 1.0, 1000),
                       rng.normal(100.0, 1.0, 1000)])
    assert split_rhat(chains) > 1.5


def test_constant_chains_are_degenerate():
    chains = np.ones((4, 100))
    for func in (split_rhat, ess, mcse):
        with pytest.raises(DegenerateChains):
            func(chains)
    draws = np.random.default_rng(2).standard_normal((4, 100, 3))
    draws[:, :, 1] = 5.0
    with pytest.raises(DegenerateChains):
        summarize_draws(draws, ["a", "b", "c"])


def test_zero_within_chain_variance_is_degenerate():
    chains = np.stack([np.zeros(100), np.ones(100)])
    with pytest.raises(DegenerateChains):
        split_rhat(chains)


def test_requires_two_chains_and_four_draws():
    with pytest.raises(ValueError):
        split_rhat(np.random.default_rng(0).standard_normal((1, 100)))
    with pytest.raises(ValueError):
        ess(np.random.default_rng(0).standard_normal((4, 3)))


def _reference_summary(chains):
    """One parameter's columns by direct O(n^2) lag sums and Geyer's loop."""
    _, length = chains.shape
    n = length // 2
    halves = [chain[:n] for chain in chains] + [chain[n:2 * n]
                                                 for chain in chains]
    means = [h.mean() for h in halves]
    centered = [h - mu for h, mu in zip(halves, means)]
    w = sum(float(c @ c) for c in centered) / (len(halves) * (n - 1))
    var_hat = (n - 1) / n * w + np.var(means, ddof=1)
    acov = [sum(float(c[:n - t] @ c[t:]) for c in centered)
            / (len(halves) * n) for t in range(n)]
    tau = 0.0
    t = 1
    while t + 1 < n:
        pair = 2.0 - (2.0 * w - acov[t] - acov[t + 1]) / var_hat
        if pair <= 0.0:
            break
        tau += pair
        t += 2
    total = len(halves) * n
    ess_value = min(total / (1.0 + 2.0 * tau), ESS_CAP_FACTOR * total)
    flat = chains.reshape(-1)
    sd = flat.std(ddof=1)
    return {"mean": flat.mean(), "sd": sd, "mcse": sd / math.sqrt(ess_value),
            "ess": ess_value, "rhat": math.sqrt(var_hat / w)}


def _ar1(rng, rho, shape):
    x = np.empty(shape)
    x[..., 0] = rng.standard_normal(shape[:-1])
    for t in range(1, shape[-1]):
        x[..., t] = rho * x[..., t - 1] + math.sqrt(1 - rho * rho) * \
            rng.standard_normal(shape[:-1])
    return x


def _oracle_cases():
    rng = np.random.default_rng(17)
    odd = _ar1(rng, 0.5, (4, 57))[:, :, np.newaxis]
    minimal = rng.standard_normal((2, 4, 1))
    scales = np.array([1e-9, 1e-5, 1.0, 1e2, 1e3])
    mixed = rng.standard_normal((3, 101, 5)) * scales + 10.0 * scales
    mixed[:, :, 3] = 1e2 * _ar1(rng, 0.95, (3, 101)) + 3e2
    return odd, minimal, mixed


def test_summarize_matches_direct_reference():
    for draws in _oracle_cases():
        columns = summarize(draws)
        for j in range(draws.shape[2]):
            alone = summarize(draws[:, :, j:j + 1])
            expected = _reference_summary(draws[:, :, j])
            for field, value in expected.items():
                assert columns[field][j] == pytest.approx(value, rel=1e-12)
                assert alone[field][0] == pytest.approx(value, rel=1e-12)


def test_iid_ess_within_20_percent_of_draw_count():
    assert 3200 <= ess(IID) <= 4800


def test_ar1_ess_matches_analytic_within_30_percent():
    rho = 0.9
    rng = np.random.default_rng(7)
    n = 4000
    chains = np.empty((4, n))
    for c in range(4):
        noise = rng.standard_normal(n + 500) * math.sqrt(1 - rho * rho)
        x = np.empty(n + 500)
        x[0] = rng.standard_normal()
        for t in range(1, n + 500):
            x[t] = rho * x[t - 1] + noise[t]
        chains[c] = x[500:]
    analytic = chains.size * (1 - rho) / (1 + rho)
    estimate = ess(chains)
    assert abs(estimate - analytic) < 0.30 * analytic


def test_iid_mcse_near_inverse_sqrt_n():
    assert abs(mcse(IID) - 1 / math.sqrt(4000)) < 0.2 / math.sqrt(4000)


def test_ess_never_exceeds_cap():
    rng = np.random.default_rng(3)
    base = rng.standard_normal((4, 1000))
    antithetic = base * ((-1.0) ** np.arange(1000))
    for chains in (base, antithetic):
        assert ess(chains) <= ESS_CAP_FACTOR * chains.size + 1e-9


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.1, max_value=100.0),
       st.floats(min_value=-10.0, max_value=10.0))
def test_diagnostics_are_affine_invariant(a, b):
    transformed = a * IID + b
    assert math.isclose(split_rhat(transformed), split_rhat(IID),
                        rel_tol=1e-9)
    assert math.isclose(ess(transformed), ess(IID), rel_tol=1e-9)


def test_split_halves_match_explicit_two_chain_input():
    x = np.random.default_rng(5).standard_normal(2000)
    as_one_pair = np.stack([x[:1000], x[1000:]])
    halves = np.stack([x[:500], x[500:1000], x[1000:1500], x[1500:]])
    # gate decisions agree between the 2-chain input (split internally)
    # and pre-split 4-chain input
    for chains in (as_one_pair, halves):
        assert _gate(split_rhat(chains), ess(chains), None)


def test_gate_logic():
    assert _gate(None, None, None)            # fixed parameter
    assert _gate(1.001, 1000.0, 0.25)
    assert not _gate(1.02, 1000.0, 0.25)      # rhat too high
    assert not _gate(1.001, 100.0, 0.25)      # ess too low
    assert not _gate(1.001, 1000.0, 5e-5)     # ess ratio too low
    assert _gate(1.001, 1000.0, None)         # unknown total draw count


def _summary(mean=1.0, sd=0.1, mcse_value=0.001, ess_value=2000.0,
             rhat=1.0005):
    return {"mean": mean, "sd": sd, "mcse": mcse_value, "ess": ess_value,
            "rhat": rhat}


def test_report_rows_and_gate_failures():
    model = PosteriorModel(
        levels={},
        summaries={
            "good": _summary(),
            "bad_rhat": _summary(rhat=1.05),
            "fixed": {"mean": 0.0, "sd": 0.0, "mcse": 0.0, "ess": None,
                      "rhat": None},
        },
        meta={"chains": 4, "draws_per_chain": 1000},
    )
    rep = report(model)
    rows = {r["parameter"]: r for r in rep}
    assert rows["good"]["pass"] is True
    assert rows["good"]["ess_ratio"] == pytest.approx(0.5)
    assert rows["bad_rhat"]["pass"] is False
    assert rows["fixed"]["pass"] is True
    assert not all(r["pass"] for r in rep)


def _synthetic_model_and_data(n_keys=100, shift_key=None, sigma=1.36e-8,
                              seed=0):
    rng = np.random.default_rng(seed)
    ops = [f"o{i}" for i in range(n_keys)]
    summaries = {
        "sigma": {"mean": sigma, "sd": 0.0},
        "alpha[s]": {"mean": 5e-9, "sd": 1e-10},
        "gamma[t]": {"mean": 1e-9, "sd": 1e-10},
        "delta[d]": {"mean": 2e-9, "sd": 1e-10},
    }
    data = {}
    for op in ops:
        beta = abs(rng.normal(3e-8, 1e-8))
        summaries[f"beta[{op}]"] = {"mean": beta, "sd": 1e-10}
        mu = 5e-9 + beta + 1e-9 + 2e-9
        values = rng.normal(mu, sigma, 30)
        if shift_key == ("s", op, "t", "d"):
            values = values + 10 * sigma
        data[("s", op, "t", "d")] = values
    model = PosteriorModel(
        levels={"alpha": ["s"], "beta": ops, "gamma": ["t"], "delta": ["d"]},
        summaries=summaries,
    )
    return model, data


def test_predictive_check_is_calibrated_on_model_data():
    model, data = _synthetic_model_and_data(seed=12)
    misfits = posterior_predictive_check(model, data, level=0.99)
    assert len(misfits) <= 0.02 * len(data)


def test_predictive_check_flags_shifted_key():
    shifted = ("s", "o7", "t", "d")
    model, data = _synthetic_model_and_data(seed=12, shift_key=shifted)
    misfits = posterior_predictive_check(model, data, level=0.99)
    assert shifted in misfits
    assert len(misfits) <= 1 + 0.02 * len(data)


def test_predictive_check_empty_data():
    model, _ = _synthetic_model_and_data(n_keys=2)
    assert posterior_predictive_check(model, {}) == []


def test_predictive_check_rejects_bad_level():
    model, data = _synthetic_model_and_data(n_keys=2)
    with pytest.raises(ValueError):
        posterior_predictive_check(model, data, level=1.5)
