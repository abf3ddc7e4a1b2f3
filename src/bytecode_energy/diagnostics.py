"""Convergence and fit diagnostics: split R-hat, ESS, MCSE, predictive checks.

Plain (non rank-normalized) split diagnostics of every parameter in one pass:
the halved chains' means and within-chain variance give R-hat and normalise
the FFT autocovariances, ESS sums the autocorrelations over Geyer's initial
positive sequence, and MCSE is sd / sqrt(ESS) from that same ESS.  Results
can therefore differ slightly from rank-normalizing toolchains.
"""

from __future__ import annotations

from statistics import NormalDist

import numpy as np

from .errors import DegenerateChains

RHAT_GATE = 1.01
ESS_GATE = 400.0
ESS_RATIO_GATE = 1e-4

# ESS above the raw draw count signals antithetic chains; cap the estimate.
ESS_CAP_FACTOR = 1.5


def summarize(draws) -> dict[str, np.ndarray]:
    """Mean, sd, MCSE, ESS and split R-hat of each column of the draws.

    ``draws`` is (chains, n, params); each name maps to a length-params array.
    Raises ValueError unless there are >= 2 chains of >= 4 draws, and
    DegenerateChains when a parameter's split chains are constant.
    """
    x = np.asarray(draws, dtype=float)
    if x.ndim != 3 or x.shape[0] < 2 or x.shape[1] < 4:
        raise ValueError("need >= 2 chains with >= 4 draws each")
    chains, length, params = x.shape
    n = length // 2
    halves = x[:, :2 * n].reshape(2 * chains, n, params)
    chain_means = halves.mean(axis=1)
    w = halves.var(axis=1, ddof=1).mean(axis=0)
    degenerate = (np.ptp(halves, axis=(0, 1)) == 0.0) | (w == 0.0)
    if degenerate.any():
        raise DegenerateChains(f"parameter {int(np.argmax(degenerate))} has "
                               "constant split chains; R-hat/ESS undefined")
    var_hat = (n - 1) / n * w + chain_means.var(axis=0, ddof=1)

    # Autocovariance (biased, 1/n) averaged over the half-chains, by FFT one
    # parameter at a time: a transform of the whole array costs more memory.
    nfft = 1 << (2 * n - 1).bit_length()
    acov = np.empty((params, n))
    for j in range(params):
        spectrum = np.fft.rfft(halves[:, :, j] - chain_means[:, j, None],
                               nfft, axis=1)
        power = spectrum.real ** 2 + spectrum.imag ** 2
        acov[j] = np.fft.irfft(power, nfft, axis=1)[:, :n].mean(axis=0) / n
    rho = 1.0 - (w[:, None] - acov) / var_hat[:, None]

    # Sum the lag pairs (t, t + 1), odd t and t + 1 < n, while they stay
    # positive (Geyer).  A NaN pair does not stop the sum: NaN draws give NaN.
    last = 2 * ((n - 1) // 2)
    pair_sums = rho[:, 1:last:2] + rho[:, 2:last + 1:2]
    positive = np.logical_and.accumulate(~(pair_sums <= 0.0), axis=1)
    tau = np.where(positive, pair_sums, 0.0).sum(axis=1)
    total = 2 * chains * n
    ess_values = np.minimum(total / (1.0 + 2.0 * tau), ESS_CAP_FACTOR * total)

    flat = x.reshape(-1, params)
    sd = flat.std(axis=0, ddof=1)
    return {"mean": flat.mean(axis=0), "sd": sd,
            "mcse": sd / np.sqrt(ess_values), "ess": ess_values,
            "rhat": np.sqrt(var_hat / w)}


def _column(chains, field: str) -> float:
    """One summary column of a single parameter's (chains, n) draws."""
    one = np.asarray(chains, dtype=float)[..., np.newaxis]
    return float(summarize(one)[field][0])


def split_rhat(chains) -> float:
    """Split-chain potential scale reduction factor."""
    return _column(chains, "rhat")


def ess(chains) -> float:
    """Multi-chain effective sample size (initial positive sequence)."""
    return _column(chains, "ess")


def mcse(chains) -> float:
    """Monte Carlo standard error of the posterior mean: sd / sqrt(ESS)."""
    return _column(chains, "mcse")


def _gate(rhat, ess_value, ess_ratio) -> bool:
    if rhat is None or ess_value is None:
        return True  # fixed parameters carry no sampling error
    if not (rhat < RHAT_GATE and ess_value > ESS_GATE):
        return False
    if ess_ratio is not None and not (ess_ratio > ESS_RATIO_GATE):
        return False
    return True


def report(model) -> list[dict]:
    """The per-parameter convergence report of a posterior model.

    One row per parameter, as ``diagnose --json`` prints it: parameter,
    mean, mcse, sd, ess, rhat, ess_ratio and pass, its gate verdict.  Uses
    the stored summaries verbatim; models without draws (summary-only
    bundles) are reported exactly as shipped.
    """
    chains = model.meta.get("chains")
    draws = model.meta.get("draws_per_chain")
    n_total = chains * draws if chains and draws else None
    rows = []
    for name, s in model.summaries.items():
        ess_value, rhat = s.get("ess"), s.get("rhat")
        ratio = ess_value / n_total if ess_value and n_total else None
        rows.append({"parameter": name, "mean": s["mean"],
                     "mcse": s.get("mcse"), "sd": s["sd"], "ess": ess_value,
                     "rhat": rhat, "ess_ratio": ratio,
                     "pass": _gate(rhat, ess_value, ratio)})
    return rows


def posterior_predictive_check(model, data: dict, level: float = 0.99) -> list:
    """Flag keys whose observed mean energy leaves the predictive interval.

    For each key the reference distribution is the sampling distribution of
    the per-key mean under the fitted model: Normal(mu_k, sqrt(var(mu_k) +
    sigma^2 / n_k)).  With stored draws, mu_k's posterior mean and variance
    are empirical; otherwise the summary sds are combined assuming
    independence.
    """
    if not 0 < level < 1:
        raise ValueError(f"level must be in (0, 1), got {level}")
    z = NormalDist().inv_cdf(0.5 + level / 2.0)
    sigma = model.sigma_mean()

    misfits = []
    for key, values in data.items():
        values = np.asarray(values, dtype=float)
        n = len(values)
        if n == 0:
            continue
        mu_draws = model.mu_draws(key)
        if mu_draws is not None:
            mu = float(mu_draws.mean())
            mu_var = float(mu_draws.var(ddof=1))
        else:
            names = model._effect_names(key)
            mu = model.mean_mu(key)
            mu_var = sum(model.summaries[nm]["sd"] ** 2 for nm in names)
        spread = np.sqrt(mu_var + sigma * sigma / n)
        if abs(values.mean() - mu) > z * spread:
            misfits.append(key)
    return misfits
