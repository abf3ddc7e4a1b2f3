"""Model density oracles, sampler behavior, and posterior containers."""

import copy
import json
import math
import warnings

import numpy as np
import pytest

from bytecode_energy import cli, diagnostics, inference
from bytecode_energy.catalog import list_catalog
from bytecode_energy.errors import DataError, UnknownLevel
from bytecode_energy.inference import (
    ModelSpec,
    NonConvergenceWarning,
    PosteriorModel,
    _Chain,
    _Model,
    _Refused,
    _run_chain,
    _SuffStats,
    fit,
    log_posterior,
    param_names,
    prior_predictive,
)

from conftest import synthetic_crossed_dataset, true_key_mean


def oracle_log_density(data, theta, spec, device_sampled=True):
    """Independent reimplementation: plain sums of scalar log densities."""
    cats = ["alpha", "beta", "gamma"] + (["delta"] if device_sampled else [])
    level_sets = spec.level_sets
    sds = [math.exp(u) for u in theta["log_sd"]]
    effects = {}
    for ci, cat in enumerate(cats):
        effects[cat] = {
            lv: theta["mu"][ci] + sds[ci] * theta["z"][ci][j]
            for j, lv in enumerate(level_sets[cat])
        }
    if not device_sampled:
        effects["delta"] = {lv: 0.0 for lv in level_sets["delta"]}
    sigma = math.exp(theta["log_sigma"])

    lp = 0.0
    for (s, o, t, d), values in data.items():
        m = (effects["alpha"][s] + effects["beta"][o]
             + effects["gamma"][t] + effects["delta"][d])
        for v in values:
            lp += (-0.5 * math.log(2 * math.pi) - math.log(sigma)
                   - 0.5 * ((v - m) / sigma) ** 2)
    for ci in range(len(cats)):
        for zj in theta["z"][ci]:
            lp += -0.5 * math.log(2 * math.pi) - 0.5 * zj * zj
        mu = theta["mu"][ci]
        lp += (-0.5 * math.log(2 * math.pi)
               - math.log(inference.HYPER_MEAN_SCALE)
               - 0.5 * ((mu - inference.HYPER_MEAN_LOC)
                        / inference.HYPER_MEAN_SCALE) ** 2)
        u = theta["log_sd"][ci]
        rate = inference.RATE_CATEGORY_SD
        lp += math.log(rate) - rate * math.exp(u) + u
    u = theta["log_sigma"]
    rate = inference.RATE_SIGMA
    lp += math.log(rate) - rate * math.exp(u) + u
    return lp


TOY_SPEC = ModelSpec(sizes=("s",), operations=("o",), dtypes=("t",),
                     devices=("d1", "d2"))
TOY_THETA = {
    "z": [[0.3], [-0.2], [0.1], [0.5, -0.4]],
    "mu": [0.004, 0.005, 0.006, 0.0055],
    "log_sd": [math.log(2e-3), math.log(1e-3), math.log(5e-4), math.log(8e-4)],
    "log_sigma": math.log(1.5e-8),
}
TOY_DATA = {
    ("s", "o", "t", "d1"): [1.0e-8, 2.0e-8],
    ("s", "o", "t", "d2"): [3.0e-8],
}


def test_log_posterior_matches_hand_oracle():
    lp = log_posterior(TOY_THETA, TOY_DATA, TOY_SPEC)
    oracle = oracle_log_density(TOY_DATA, TOY_THETA, TOY_SPEC)
    assert math.isclose(lp, oracle, rel_tol=1e-12)


def test_log_posterior_single_device_excludes_device_effect():
    spec = ModelSpec(sizes=("s1", "s2"), operations=("o",), dtypes=("t",),
                     devices=("d1",))
    theta = {
        "z": [[0.2, -0.7], [0.4], [-0.1]],
        "mu": [0.004, 0.005, 0.006],
        "log_sd": [math.log(1e-3)] * 3,
        "log_sigma": math.log(2e-8),
    }
    data = {
        ("s1", "o", "t", "d1"): [1.5e-8],
        ("s2", "o", "t", "d1"): [2.5e-8, 0.5e-8],
    }
    lp = log_posterior(theta, data, spec)
    oracle = oracle_log_density(data, theta, spec, device_sampled=False)
    assert math.isclose(lp, oracle, rel_tol=1e-12)


def test_log_posterior_empty_dataset_is_prior_only():
    lp = log_posterior(TOY_THETA, {}, TOY_SPEC)
    oracle = oracle_log_density({}, TOY_THETA, TOY_SPEC)
    assert math.isclose(lp, oracle, rel_tol=1e-12)


def test_single_observation_at_its_mean_adds_normalizer_only():
    sigma = math.exp(TOY_THETA["log_sigma"])
    # reconstruct the key mean exactly as the model does
    m = sum(TOY_THETA["mu"][ci] + math.exp(TOY_THETA["log_sd"][ci]) * z
            for ci, z in [(0, 0.3), (1, -0.2), (2, 0.1), (3, 0.5)])
    with_obs = log_posterior(TOY_THETA, {("s", "o", "t", "d1"): [m]}, TOY_SPEC)
    prior_only = log_posterior(TOY_THETA, {}, TOY_SPEC)
    assert math.isclose(with_obs - prior_only,
                        -math.log(sigma * math.sqrt(2 * math.pi)),
                        rel_tol=1e-9)


def test_log_posterior_accepts_pattern_keys():
    from bytecode_energy.catalog import PatternKey, PatternTriple

    key = PatternKey(PatternTriple("addition", "int", "constant"), "d1")
    tuple_data = {("constant", "addition", "int", "d1"): [1e-8]}
    spec = ModelSpec.from_keys(tuple_data)
    theta = {"z": [[0.1]] * 3, "mu": [0.005] * 3,
             "log_sd": [math.log(1e-3)] * 3, "log_sigma": math.log(1e-8)}
    assert log_posterior(theta, {key: [1e-8]}, spec) == log_posterior(
        theta, tuple_data, spec)


def _toy_theta(**changes):
    return {**TOY_THETA, **changes}


SINGLE_DEVICE_SPEC = ModelSpec(sizes=("s",), operations=("o",), dtypes=("t",),
                               devices=("d1",))


@pytest.mark.parametrize("theta, spec", [
    (_toy_theta(z=[[0.3, 0.2], [-0.2], [0.1], [0.5, -0.4]]), TOY_SPEC),
    (_toy_theta(z=[[0.3], [-0.2], [0.1], [0.5]]), TOY_SPEC),
    (_toy_theta(z=[[0.3], [-0.2], [0.1]]), TOY_SPEC),
    (_toy_theta(z=[[[0.3]], [-0.2], [0.1], [0.5, -0.4]]), TOY_SPEC),
    (_toy_theta(mu=TOY_THETA["mu"][:3]), TOY_SPEC),
    (_toy_theta(mu=TOY_THETA["mu"] + [0.005]), TOY_SPEC),
    (_toy_theta(log_sd=TOY_THETA["log_sd"][:3]), TOY_SPEC),
    (TOY_THETA, SINGLE_DEVICE_SPEC),
], ids=["extra_z", "short_z", "missing_z", "nested_z", "short_mu",
        "long_mu", "short_log_sd", "delta_not_sampled"])
def test_log_posterior_rejects_theta_of_wrong_shape(theta, spec):
    data = {key: values for key, values in TOY_DATA.items()
            if key[3] in spec.devices}
    with pytest.raises(DataError, match="theta"):
        log_posterior(theta, data, spec)


def test_spec_from_keys_sorts_levels():
    spec = ModelSpec.from_keys(TOY_DATA)
    assert spec.devices == ("d1", "d2")
    assert spec.device_effect_sampled


def test_spec_rejects_empty_levels_and_bad_rates():
    with pytest.raises(DataError):
        ModelSpec(sizes=(), operations=("o",), dtypes=("t",), devices=("d",))


def test_param_names_cover_effects_and_hyperparameters():
    names = param_names(TOY_SPEC)
    assert names[0] == "sigma"
    assert "delta[d2]" in names
    assert "mu[delta]" in names and "sd[delta]" in names
    single = ModelSpec(sizes=("s",), operations=("o",), dtypes=("t",),
                       devices=("d1",))
    assert not any("delta" in n for n in param_names(single))


def test_fit_requires_two_chains():
    with pytest.raises(DataError):
        fit(TOY_DATA, chains=1, warmup=10, draws=10)


def test_fit_rejects_levels_missing_from_spec():
    with pytest.raises(DataError):
        fit({("sX", "o", "t", "d1"): [1e-8, 2e-8]}, spec=TOY_SPEC,
            chains=2, warmup=5, draws=5)


def test_fit_is_deterministic_given_seed():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonConvergenceWarning)
        a = fit(TOY_DATA, chains=2, warmup=50, draws=50, seed=9)
        b = fit(TOY_DATA, chains=2, warmup=50, draws=50, seed=9)
    assert np.array_equal(a.draws, b.draws)
    assert a.summaries == b.summaries


def test_fit_is_exchangeable_in_key_order():
    data, _, _ = synthetic_crossed_dataset(
        seed=1, sizes=("s0", "s1"), ops=("o0", "o1"), obs_per_key=10)
    reordered = dict(reversed(list(data.items())))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonConvergenceWarning)
        a = fit(data, chains=2, warmup=50, draws=50, seed=2)
        b = fit(reordered, chains=2, warmup=50, draws=50, seed=2)
    assert a.meta["dataset_digest"] == b.meta["dataset_digest"]
    assert np.array_equal(a.draws, b.draws)


def _gates_pass(model):
    return all(row["pass"] for row in diagnostics.report(model))


def test_fit_warns_when_gates_fail():
    with pytest.warns(NonConvergenceWarning):
        model = fit(TOY_DATA, chains=2, warmup=0, draws=8, seed=0)
    assert not model.meta["converged"]
    assert model.meta["gate_failures"]
    assert model.meta["converged"] == _gates_pass(model)


@pytest.fixture(scope="module")
def recovery_fit():
    data, effects, sigma = synthetic_crossed_dataset(seed=5)
    model = fit(data, chains=4, warmup=1000, draws=1000, seed=3)
    return data, effects, sigma, model


def test_fit_converges_on_synthetic_data(recovery_fit):
    _, _, _, model = recovery_fit
    assert model.meta["converged"]
    assert model.meta["converged"] == _gates_pass(model)
    for name, s in model.summaries.items():
        if s["rhat"] is None:
            continue
        assert s["rhat"] < 1.01, name
        assert s["ess"] > 400, name


def test_fit_recovers_key_means_and_noise(recovery_fit):
    data, effects, sigma, model = recovery_fit
    assert abs(model.sigma_mean() - sigma) < 0.1 * sigma
    se = sigma / math.sqrt(30)
    for key in data:
        truth = true_key_mean(effects, key)
        assert abs(model.mean_mu(key) - truth) < 5 * se, key


def test_fit_meta_records_run_configuration(recovery_fit):
    _, _, _, model = recovery_fit
    meta = model.meta
    assert meta["chains"] == 4
    assert meta["warmup"] == 1000
    assert meta["draws_per_chain"] == 1000
    assert meta["seed"] == 3
    assert meta["device_effect_sampled"] is True
    assert len(meta["dataset_digest"]) == 64
    assert set(meta["provenance"]) == {"package_version", "python", "numpy",
                                       "machine", "longdouble_eps"}
    assert meta["provenance"]["numpy"] == np.__version__
    assert 1 <= meta["workers"] <= 4
    assert len(meta["trace"]) == 4
    evaluations = 1 + (1000 + 1000) * inference.SCALE_SWEEPS * (4 + 2)
    swap_proposals = (1000 + 1000) * inference.SCALE_SWEEPS
    for trace, acceptance in zip(meta["trace"], meta["acceptance"]):
        assert trace["evaluations"] == evaluations
        assert trace["warmup_s"] > 0 and trace["sampling_s"] > 0
        assert 0 < trace["location_s"] <= (trace["warmup_s"]
                                           + trace["sampling_s"])
        assert set(trace["step_sizes"]) == {"sd[alpha]", "sd[beta]",
                                            "sd[gamma]", "sd[delta]", "sigma"}
        assert all(v > 0 for v in trace["step_sizes"].values())
        swaps = trace["swaps"]
        assert len(swaps) == 6 and "alpha/beta" in swaps
        assert sum(s["proposed"] for s in swaps.values()) == swap_proposals
        accepted = sum(s["accepted"] for s in swaps.values())
        assert accepted == round(acceptance["swap"] * swap_proposals)
        assert all(0 <= s["accepted"] <= s["proposed"] for s in swaps.values())
    for count in ("refused_states", "nonfinite_states"):
        assert meta[count] == sum(t[count] for t in meta["trace"])
    assert meta["chains_wall_s"] > 0


def test_mu_draws_mean_matches_summary_sum(recovery_fit):
    data, _, _, model = recovery_fit
    key = next(iter(data))
    draws = model.mu_draws(key)
    assert draws.shape == (4 * 1000,)
    assert math.isclose(draws.mean(), model.mean_mu(key), rel_tol=1e-9)


def _assert_round_trip(model, path, include_draws=True) -> PosteriorModel:
    """Save ``model``; its file must parse to exactly its JSON and reload."""
    model.save(path, include_draws=include_draws)
    with open(path, encoding="utf-8") as fh:
        assert json.load(fh) == json.loads(
            json.dumps(model.to_json_dict(include_draws)))
    loaded = PosteriorModel.load(path)
    assert loaded.summaries == model.summaries
    assert loaded.meta == model.meta
    if include_draws:
        assert loaded.draw_names == model.draw_names
        assert np.array_equal(loaded.draws, model.draws)
    else:
        assert not loaded.has_draws()
    return loaded


def test_save_load_round_trip(recovery_fit, tmp_path):
    _, _, _, model = recovery_fit
    path = tmp_path / "model.json"
    _assert_round_trip(model, path)
    # One line per draw row, after the header and before the closing lines.
    rows = path.read_text(encoding="utf-8").split('"values": [\n')[1]
    assert len(rows.splitlines()[:-3]) == 4 * 1000


def test_load_reads_the_indented_layout(recovery_fit, tmp_path):
    _, _, _, model = recovery_fit
    path = tmp_path / "indented.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model.to_json_dict(), fh, indent=1)
    loaded = PosteriorModel.load(path)
    assert loaded.summaries == model.summaries
    assert np.array_equal(loaded.draws, model.draws)


def _small_model() -> PosteriorModel:
    draws = np.random.default_rng(3).normal(1.0, 0.1, size=(2, 10, 2))
    names = ["sigma", "alpha[s]"]
    return PosteriorModel(
        levels={"alpha": ["s"], "beta": ["o"], "gamma": ["t"],
                "delta": ["d"]},
        summaries=inference.summarize_draws(draws, names),
        meta={"chains": 2, "draws_per_chain": 10,
              "trace": [{"seconds": 0.5}, {"seconds": 0.25}]},
        draw_names=names, draws=draws)


def test_to_json_dict_shares_nothing_with_the_model():
    model = _small_model()
    before = json.loads(json.dumps(model.to_json_dict()))
    obj = model.to_json_dict()
    obj["levels"]["alpha"].append("x")
    obj["summaries"]["sigma"]["mean"] = "abc"
    obj["meta"]["chains"] = 99
    obj["meta"]["trace"][0]["seconds"] = -1.0
    obj["draws"]["names"].append("x")
    assert model.to_json_dict() == before


def test_saved_non_finite_draws_fail_the_load(tmp_path, capsys):
    model = _small_model()
    model.draws[1, 2, 0] = math.nan
    model.draws[0, 3, 1] = -math.inf
    path = tmp_path / "model.json"
    model.save(path)
    assert json.loads(path.read_text(encoding="utf-8"))["draws"]["values"][
        0][3][1] == -math.inf
    assert cli.main(["diagnose", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: model draws must be finite")
    assert "Traceback" not in err


def test_load_rejects_tampered_summaries(recovery_fit, tmp_path):
    _, _, _, model = recovery_fit
    obj = copy.deepcopy(model.to_json_dict())  # leave the fixture intact
    first = next(iter(obj["summaries"]))
    obj["summaries"][first]["mean"] *= 1.01
    with pytest.raises(DataError):
        PosteriorModel.from_json_dict(obj)
    obj["summaries"][first]["mean"] = math.nan
    with pytest.raises(DataError):
        PosteriorModel.from_json_dict(obj)
    obj = copy.deepcopy(model.to_json_dict())
    obj["summaries"]["sigma"] = dict.fromkeys(obj["summaries"]["sigma"])
    with pytest.raises(DataError, match="stored summary for sigma does not "
                                        "match its draws"):
        PosteriorModel.from_json_dict(obj)


@pytest.mark.parametrize("field", ["chains", "draws_per_chain"])
@pytest.mark.parametrize("value", ["x", [1], 0, True, 2.0])
def test_load_rejects_meta_counts_that_are_not_positive_integers(field,
                                                                 value):
    obj = _small_model().to_json_dict()
    obj["meta"][field] = value
    with pytest.raises(DataError, match=f'"meta.{field}" must be a positive'):
        PosteriorModel.from_json_dict(obj)


def _extra_name(draws):
    draws["names"].append("extra")


def _missing_name(draws):
    draws["names"].pop()


def _ragged_values(draws):
    draws["values"][0].pop()


def _text_value(draws):
    draws["values"][0][0][0] = "x"


def _two_dimensional(draws):
    draws["values"] = draws["values"][0]


def _one_chain(draws):
    draws["values"] = draws["values"][:1]


def _nan_value(draws):
    draws["values"][1][2][0] = math.nan


def _inf_value(draws):
    draws["values"][0][3][1] = -math.inf


@pytest.mark.parametrize("corrupt", [_extra_name, _missing_name,
                                     _ragged_values, _text_value,
                                     _two_dimensional, _one_chain,
                                     _nan_value, _inf_value])
def test_diagnose_rejects_malformed_draws(recovery_fit, tmp_path, capsys,
                                          corrupt):
    _, _, _, model = recovery_fit
    obj = json.loads(json.dumps(model.to_json_dict()))
    corrupt(obj["draws"])
    path = tmp_path / "model.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert cli.main(["diagnose", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: model draws") and "Traceback" not in err


def test_summary_only_model_has_no_draws(recovery_fit, tmp_path):
    _, _, _, model = recovery_fit
    loaded = _assert_round_trip(model, tmp_path / "summary.json",
                                include_draws=False)
    assert loaded.mu_draws(("s0", "o0", "t0", "device1")) is None


def test_single_device_fixes_device_effect_at_zero(tmp_path):
    data, _, _ = synthetic_crossed_dataset(
        seed=7, sizes=("s0", "s1"), ops=("o0", "o1", "o2"),
        devices=("device1",), obs_per_key=20)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonConvergenceWarning)
        model = fit(data, chains=2, warmup=200, draws=200, seed=1)
    s = model.summaries["delta[device1]"]
    assert s == {"mean": 0.0, "sd": 0.0, "mcse": 0.0, "ess": None,
                 "rhat": None}
    assert not any("delta" in n for n in model.draw_names)
    assert model.meta["device_effect_sampled"] is False
    assert model.mean_mu(("s0", "o0", "t0", "device1")) == pytest.approx(
        model.summaries["alpha[s0]"]["mean"]
        + model.summaries["beta[o0]"]["mean"]
        + model.summaries["gamma[t0]"]["mean"])
    # The unsampled delta row's null ESS and R-hat survive a save.
    loaded = _assert_round_trip(model, tmp_path / "model.json")
    assert loaded.summaries["delta[device1]"]["ess"] is None


def test_prior_predictive_moments():
    spec = ModelSpec.from_catalog(["device1", "device2"])
    draws = prior_predictive(spec, 100_000, seed=0)
    assert draws.shape == (100_000,)
    # Sum of four Normal(0.006, 0.001) hyper-means.
    assert abs(draws.mean() - 0.024) < 0.0005
    # Per category: hyper scale^2 + E[sd^2] = 1e-6 + 2e-6; noise adds 2e-6.
    analytic_sd = math.sqrt(4 * 3e-6 + 2e-6)
    assert abs(draws.std(ddof=1) - analytic_sd) < 0.05 * analytic_sd
    assert ((draws >= 0.0) & (draws <= 0.050)).mean() >= 0.99


def test_prior_predictive_empty_and_deterministic():
    spec = ModelSpec.from_catalog(["device1"])
    assert prior_predictive(spec, 0).size == 0
    a = prior_predictive(spec, 100, seed=4)
    b = prior_predictive(spec, 100, seed=4)
    assert np.array_equal(a, b)


def test_posterior_mean_mu_degenerate_sum():
    model = PosteriorModel(
        levels={"alpha": ["s"], "beta": ["o"], "gamma": ["t"], "delta": ["d"]},
        summaries={
            "alpha[s]": {"mean": 1.0, "sd": 0.0},
            "beta[o]": {"mean": 2.0, "sd": 0.0},
            "gamma[t]": {"mean": 3.0, "sd": 0.0},
            "delta[d]": {"mean": 4.0, "sd": 0.0},
            "sigma": {"mean": 0.5, "sd": 0.0},
        },
    )
    assert model.mean_mu(("s", "o", "t", "d")) == 10.0


def test_posterior_mean_mu_unknown_level(bundled_model):
    with pytest.raises(UnknownLevel):
        bundled_model.mean_mu(("constant", "addition", "int", "device9"))


# -- collapsed location block against a high-precision oracle ---------------

def _crossed_design():
    data, _, _ = synthetic_crossed_dataset(
        seed=11, sizes=("s0", "s1"), ops=("o0", "o1", "o2"), obs_per_key=5)
    return data


def _confounded_design():
    # Size s<i> only ever occurs with type t<i>: their contrasts are not
    # identified by the data, only by the prior.
    return {k: v for k, v in _crossed_design().items()
            if k[0][1:] == k[2][1:]}


def _reference_design():
    # Like the catalog's reference patterns: operation oref occurs only
    # with size sref and type tref, which occur with nothing else.  The
    # unidentified directions then reach into the operations, the largest
    # category, whose contrasts location_system eliminates in closed form.
    data = _crossed_design()
    rng = np.random.default_rng(12)
    for device in ("device1", "device2"):
        data[("sref", "oref", "tref", device)] = rng.normal(6e-8, 1.36e-8, 5)
    return data


def _catalog_design():
    # The paper's shape: every legal pattern of the catalog on two devices,
    # 2 observations per key.  The dense block then has 11 dimensions and
    # spans the 2 directions the data cannot identify, and 59 operation
    # contrasts are diagonal.
    rng = np.random.default_rng(13)
    return {(t.dsize, t.operation, t.dtype, device):
            rng.normal(6e-8, 1.36e-8, 2)
            for t in list_catalog() for device in ("device1", "device2")}


DESIGNS = {"crossed": _crossed_design, "confounded": _confounded_design,
           "reference": _reference_design, "catalog": _catalog_design}

# Every sd 1e4 times below sigma: exact on a design of full rank, refused
# where the sds scale directions that the data cannot identify.
TINY_SDS = ([1e-12] * 4, 1.36e-8)

# (category sds, sigma): near the posterior, prior-dominated extremes, and
# states whose location precision spans 20+ orders of magnitude.
SCALE_POINTS = [
    ([5e-9, 4e-8, 5e-9, 3e-9], 1.36e-8),
    ([8e-3, 1e-8, 5e-9, 3e-9], 1.36e-8),
    ([8e-3, 2e-3, 1e-3, 4e-3], 4.46e-10),
    ([1e-1, 1e-1, 1e-1, 1e-1], 1e-2),
    ([1e-3, 1e-3, 1e-3, 1e-3], 1e-3),
    ([5.1e-3, 9.5e-3, 1.4e-3, 9.5e-3], 1.31e-8),
    ([2e-9, 6e-3, 3e-8, 1e-10], 2e-8),
]


def mpmath_location_oracle(data, spec, sds, sigma, mp):
    """Collapsed log density and location conditional, in mpmath.

    Works in the sampler's original coordinates x = (z..., hyper-means)
    from the raw observations: precision P = D A' N A D / sigma^2 + P0,
    moment b, and log p(data | scales) + log p(scales) by the closed-form
    Gaussian integral.  Returns (collapsed, conditional mean, P).
    """
    cats = ["alpha", "beta", "gamma", "delta"]
    levels = [spec.level_sets[c] for c in cats]
    ncat = len(cats)
    nz = sum(len(lv) for lv in levels)
    dim = nz + ncat
    offsets = np.cumsum([0] + [len(lv) for lv in levels])
    sd = [mp.mpf(v) for v in sds]
    var = mp.mpf(sigma) ** 2
    prec = mp.zeros(dim, dim)
    moment = mp.zeros(dim, 1)
    n_obs, sum_sq = 0, mp.mpf(0)
    for key, values in data.items():
        cols = []
        for ci in range(ncat):
            cols.append((int(offsets[ci]) + levels[ci].index(key[ci]), sd[ci]))
            cols.append((nz + ci, mp.mpf(1)))
        values = [mp.mpf(float(v)) for v in values]
        n_obs += len(values)
        sum_sq += mp.fsum(v * v for v in values)
        total = mp.fsum(values)
        for i, wi in cols:
            moment[i] += wi * total / var
            for j, wj in cols:
                prec[i, j] += len(values) * wi * wj / var
    loc = mp.mpf(inference.HYPER_MEAN_LOC)
    scale = mp.mpf(inference.HYPER_MEAN_SCALE)
    for i in range(nz):
        prec[i, i] += 1
    for i in range(nz, dim):
        prec[i, i] += 1 / scale ** 2
        moment[i] += loc / scale ** 2
    chol = mp.cholesky(prec)
    mean = mp.cholesky_solve(prec, moment)
    collapsed = (-n_obs * mp.log(2 * mp.pi) / 2 - n_obs * mp.log(var) / 2
                 - sum_sq / (2 * var) - ncat * mp.log(scale)
                 - ncat * (loc / scale) ** 2 / 2
                 - mp.fsum(mp.log(chol[i, i]) for i in range(dim))
                 + mp.fsum(moment[i] * mean[i] for i in range(dim)) / 2)
    for rate, value in [(inference.RATE_CATEGORY_SD, s) for s in sd] + [
            (inference.RATE_SIGMA, mp.sqrt(var))]:
        collapsed += mp.log(rate) - rate * value + mp.log(value)
    return collapsed, mean, prec


def _bound_model(data):
    spec = ModelSpec.from_keys(data)
    return spec, _Model(spec, _SuffStats(data, spec))


@pytest.mark.parametrize("design", sorted(DESIGNS))
def test_collapsed_density_matches_high_precision_oracle(design):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 60
    data = DESIGNS[design]()
    spec, model = _bound_model(data)
    points = SCALE_POINTS + ([TINY_SDS] if design == "crossed" else [])
    for sds, sigma in points:
        system = model.location_system(np.log(sds), math.log(sigma))
        oracle, _, _ = mpmath_location_oracle(data, spec, sds, sigma, mpmath)
        error = abs(system.collapsed - float(oracle))
        assert error <= 1e-6 + 1e-12 * abs(float(oracle)), (sds, sigma, error)


def _inverse_sds(chol, mp):
    """sqrt(diag(P^-1)) as floats from P's Cholesky factor L, in mpmath:
    the column norms of L^-1, found by forward substitution."""
    low = chol.tolist()
    dim = len(low)
    inv = [[mp.mpf(0)] * dim for _ in range(dim)]  # L^-1, lower triangular
    for j in range(dim):
        inv[j][j] = 1 / low[j][j]
        for i in range(j + 1, dim):
            inv[i][j] = -mp.fdot(low[i][j:i], [inv[r][j] for r in range(j, i)]
                                 ) / low[i][i]
    return [float(mp.sqrt(mp.fsum(inv[r][i] ** 2 for r in range(i, dim))))
            for i in range(dim)]


@pytest.mark.parametrize("design", sorted(DESIGNS))
def test_location_draws_match_full_conditional(design):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    data = DESIGNS[design]()
    spec, model = _bound_model(data)
    sds, sigma = [2e-3, 4e-8, 5e-9, 3e-9], 1.36e-8
    system = model.location_system(np.log(sds), math.log(sigma))
    _, mean, prec = mpmath_location_oracle(data, spec, sds, sigma, mpmath)
    chol = mpmath.cholesky(prec)
    dim = prec.rows
    exact_mean = np.array([float(mean[i]) for i in range(dim)])
    exact_sd = np.array(_inverse_sds(chol, mpmath))

    rng = np.random.default_rng(4)
    scales = [math.exp(math.log(sigma))] + [math.exp(u) for u in np.log(sds)]
    n_effects = sum(model.sizes)
    n = 4000
    draws = np.empty((n, dim))
    for i in range(n):
        # A row is sigma, the level effects, then (hyper-mean, sd) pairs.
        row = model.draw_locations(system, rng)
        assert row[[0, *range(n_effects + 2, len(row), 2)]].tolist() == scales
        effects = np.split(row[1:1 + n_effects], np.cumsum(model.sizes)[:-1])
        hyper, sd = row[1 + n_effects::2], row[2 + n_effects::2]
        # Back to the oracle's coordinates: z = (effect - hyper-mean) / sd.
        z = [(e - m) / s for e, m, s in zip(effects, hyper, sd)]
        draws[i] = np.concatenate(z + [hyper])
    standardized = (draws - exact_mean) / exact_sd
    assert np.all(np.abs(standardized.mean(axis=0)) < 5 / math.sqrt(n))
    assert np.all(np.abs(standardized.var(axis=0) - 1.0) < 0.15)
    # Whole covariance: whitened draws have identity covariance.
    whiten = np.array([[float(chol[j, i] * exact_sd[j]) for j in range(dim)]
                       for i in range(dim)])
    white = standardized @ whiten.T
    assert np.allclose(np.cov(white, rowvar=False), np.eye(dim), atol=0.15)


def test_reference_design_reaches_the_eliminated_category():
    _, model = _bound_model(_reference_design())
    assert model._null.shape[1] == 2
    assert np.count_nonzero(model._dense_group == model._diag_group) == 1


def test_location_system_refuses_states_it_cannot_compute_exactly():
    _, model = _bound_model(_crossed_design())
    with pytest.raises(_Refused):
        model.location_system(np.log([1e-3] * 4), -800.0)  # sigma^2 == 0
    with pytest.raises(_Refused):
        model.location_system(np.array([-800.0, 0.0, 0.0, 0.0]), -18.0)
    sds, sigma = TINY_SDS
    for design in (_confounded_design, _reference_design):
        _, model = _bound_model(design())
        with pytest.raises(_Refused):
            model.location_system(np.log(sds), math.log(sigma))
    # Sds so small that the bordered matrix has no Cholesky factor: the
    # guard then reads W's own and still refuses.
    with pytest.raises(_Refused):
        model.location_system(np.log([1e-16] * 4), math.log(sigma))


# -- chains in worker processes ----------------------------------------------

POOL_DESIGNS = {
    "toy": lambda: TOY_DATA,
    "two_devices": lambda: synthetic_crossed_dataset(
        seed=6, sizes=("s0", "s1"), ops=("o0", "o1", "o2"), obs_per_key=8)[0],
}


@pytest.mark.parametrize("cpus", [None, 1, 3])
@pytest.mark.parametrize("design", sorted(POOL_DESIGNS))
def test_fit_draws_equal_serial_chains(design, cpus, monkeypatch):
    if cpus is not None:
        monkeypatch.setattr(inference, "_available_cpus", lambda: cpus)
    data = POOL_DESIGNS[design]()
    chains, warmup, draws, seed = 3, 40, 30, 12
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonConvergenceWarning)
        model = fit(data, chains=chains, warmup=warmup, draws=draws, seed=seed)
    spec, bound = _bound_model(data)
    serial = [_run_chain(bound, warmup, draws, seed + c)
              for c in range(chains)]
    assert model.draws.tobytes() == np.stack([r[0] for r in serial]).tobytes()
    assert model.meta["acceptance"] == [r[1] for r in serial]
    for trace, (_, _, serial_trace) in zip(model.meta["trace"], serial):
        for count in ("evaluations", "refused_states", "nonfinite_states"):
            assert trace[count] == serial_trace[count]
    ncat = len(bound.cats)
    assert all(t["evaluations"] == 1 + (warmup + draws) * 3 * (ncat + 2)
               for t in model.meta["trace"])
    if cpus is not None:
        assert model.meta["workers"] == min(chains, cpus)


def test_chain_step_adapts_in_warmup_only_and_drives_run_chain():
    _, model = _bound_model(TOY_DATA)
    ncat, seed, k = len(model.cats), 8, 6
    chain = _Chain(model, np.random.default_rng(seed))
    rows = []
    for adapting in [True] * k + [False] * k:
        log_step = list(chain.log_step)
        evaluations = chain.counts["evaluations"]
        rows.append(chain.step(adapting))
        assert chain.counts["evaluations"] == evaluations + 3 * (ncat + 2)
        moved = [u != v for u, v in zip(chain.log_step, log_step)]
        assert moved == [adapting] * (ncat + 1)
    assert chain.adapted == [3 * k] * (ncat + 1)
    assert chain.proposed == [6 * k] * (ncat + 1)
    samples, _, trace = _run_chain(model, k, k, seed)
    assert samples.tobytes() == np.array(rows[k:]).tobytes()
    assert trace["evaluations"] == chain.counts["evaluations"]


def test_worker_data_error_reaches_the_caller(monkeypatch):
    def fail(self, log_sd, log_sigma):
        raise DataError("location block unavailable")

    monkeypatch.setattr(_Model, "location_system", fail)
    monkeypatch.setattr(inference, "_available_cpus", lambda: 2)
    with pytest.raises(DataError, match="location block unavailable"):
        fit(TOY_DATA, chains=2, warmup=5, draws=5, seed=0)


def test_refused_proposals_are_not_counted_as_nonfinite(monkeypatch):
    def run():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonConvergenceWarning)
            return fit(TOY_DATA, chains=3, warmup=30, draws=30, seed=5).meta

    monkeypatch.setattr(inference, "_available_cpus", lambda: 3)
    plain = run()
    # Send every proposal of sigma above 1 mJ out of range, where
    # location_system refuses it; the chains start at exactly 1 mJ.
    location_system = _Model.location_system

    def capped(self, log_sd, log_sigma):
        if log_sigma > math.log(1e-3) + 1e-9:
            log_sigma = 1000.0
        return location_system(self, log_sd, log_sigma)

    monkeypatch.setattr(_Model, "location_system", capped)
    forced = run()
    assert forced["refused_states"] > plain["refused_states"]
    assert forced["nonfinite_states"] == plain["nonfinite_states"] == 0
    for meta in (plain, forced):
        for count in ("refused_states", "nonfinite_states"):
            assert meta[count] == sum(t[count] for t in meta["trace"])


def test_convergence_gate_is_the_diagnostics_gate():
    def summary(rhat):
        return {"mean": 1.0, "sd": 0.1, "mcse": 0.002, "ess": 2500.0,
                "rhat": rhat}

    model = PosteriorModel(
        levels={},
        summaries={"below": summary(1.0099), "at_gate": summary(1.01),
                   "fixed": {"mean": 0.0, "sd": 0.0, "mcse": 0.0,
                             "ess": None, "rhat": None}},
        meta={"chains": 4, "draws_per_chain": 1000},
    )
    assert model.convergence_failures() == ["at_gate"]
    assert not _gates_pass(model)
    del model.summaries["at_gate"]
    assert model.convergence_failures() == []
    assert _gates_pass(model)
