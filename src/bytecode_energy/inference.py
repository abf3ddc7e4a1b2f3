"""Hierarchical four-factor Gaussian model and its MCMC sampler.

The model: each observed energy J is Normal(mu, sigma) with
mu = alpha[size] + beta[operation] + gamma[type] + delta[device].
Level effects get Normal(hyper_mean, category_sd) priors, hyper-means get
Normal(0.006 J, 0.001 J) priors, and all scales get Exponential(1e3) priors.
log_posterior evaluates the joint density on the non-centered
parameterization (effect = hyper_mean + category_sd * z, z standard
normal) with positive scales on the log axis; the sampler works on the
log scales alone.

The kernel is a collapsed Metropolis-within-Gibbs sweep.  Conditional on
the scale parameters the model is linear-Gaussian, so the location block
(every level effect plus all hyper-means, jointly) has a multivariate-normal
full conditional and a closed-form marginal likelihood.  Each iteration
makes SCALE_SWEEPS (three) sweeps over the scales; a sweep updates every
log scale by adaptive scalar random-walk Metropolis against the collapsed
target p(scales | data) -- locations integrated out -- and then proposes
one mode swap between two category sds.  That is 3 * (C + 2) collapsed
evaluations per iteration for C sampled categories.  The chain's state is
the log scales and the location system they factor; the iteration ends by
drawing the whole location block exactly from that Gaussian full
conditional, which gives the stored row: each level effect as its
category's level mean plus its contrast, and each category's hyper-mean.
Collapsing is what makes the sampler robust: the additive structure
creates near-flat ridges (a constant can move between categories, or
between a hyper-mean and its level effects) and a multimodal funnel in
(category sd, effect) space, and both disappear once the locations are
marginalized.  The collapsed density is computed in float64 in
coordinates that the data identify (a grand intercept and sum-to-zero
contrasts), where it is exact to rounding.  The contrasts of the category
with the most levels (the operations) are rotated, once per model, onto
the eigenvectors of their Gram block (apart from the directions the data
cannot identify); their prior is isotropic, so there the conditional
precision is diagonal and is eliminated in closed form.  The rest, bordered
by the unidentified directions, is one dense matrix, factored and solved
once per evaluation: of order 13 at paper size (11 coordinates and 2
unidentified directions), against 70 for the whole block.  Step sizes adapt
toward a 20-40% acceptance rate during warmup and are frozen afterwards.
Chains are independent and each owns a private RNG seeded from seed +
chain index, so fit runs them in forked worker processes, one chain per
task and at most one worker per available CPU, and collects them in
chain order: the draws are bit-identical to running the chains one after
another in-process, which fit does when only one CPU is available or the
platform cannot fork.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import json
import math
import os
import platform
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import catalog as _catalog
from . import diagnostics
from .catalog import PatternKey
from .errors import DataError, DomainError, UnknownLevel, shorten

LOG_2PI = math.log(2.0 * math.pi)

CATEGORY_NAMES = ("alpha", "beta", "gamma", "delta")

# The paper's fixed priors, in joules: hyper-means ~ Normal(HYPER_MEAN_LOC,
# HYPER_MEAN_SCALE), category sds ~ Exponential(RATE_CATEGORY_SD) and the
# likelihood sd ~ Exponential(RATE_SIGMA).
HYPER_MEAN_LOC = 0.006
HYPER_MEAN_SCALE = 0.001
RATE_CATEGORY_SD = 1e3
RATE_SIGMA = 1e3


class NonConvergenceWarning(UserWarning):
    """Fit finished but at least one parameter failed a convergence gate."""


class _Refused(DataError):
    """Scales location_system declines on purpose: outside the range it
    computes exactly, not a numerical fault."""


@dataclass(frozen=True)
class ModelSpec:
    """Level sets of the four categories."""

    sizes: tuple[str, ...]
    operations: tuple[str, ...]
    dtypes: tuple[str, ...]
    devices: tuple[str, ...]

    def __post_init__(self):
        for levels in (self.sizes, self.operations, self.dtypes, self.devices):
            if not levels:
                raise DataError("every category needs at least one level")

    @property
    def level_sets(self) -> dict[str, tuple[str, ...]]:
        return {
            "alpha": self.sizes,
            "beta": self.operations,
            "gamma": self.dtypes,
            "delta": self.devices,
        }

    @property
    def device_effect_sampled(self) -> bool:
        # A single-device study carries no between-device information;
        # delta is then fixed at zero and excluded from sampling.
        return len(self.devices) > 1

    @property
    def sampled_categories(self) -> tuple[str, ...]:
        """The categories whose effects are sampled, in draw column order."""
        return CATEGORY_NAMES[:4 if self.device_effect_sampled else 3]

    @classmethod
    def from_keys(cls, keys) -> "ModelSpec":
        keys = [_as_levels(k) for k in keys]
        return cls(
            sizes=tuple(sorted({k[0] for k in keys})),
            operations=tuple(sorted({k[1] for k in keys})),
            dtypes=tuple(sorted({k[2] for k in keys})),
            devices=tuple(sorted({k[3] for k in keys})),
        )

    @classmethod
    def from_catalog(cls, devices) -> "ModelSpec":
        triples = _catalog.list_catalog()
        return cls(
            sizes=tuple(sorted({t.dsize for t in triples})),
            operations=tuple(sorted({t.operation for t in triples})),
            dtypes=tuple(sorted({t.dtype for t in triples})),
            devices=tuple(sorted(devices)),
        )


def _as_levels(key) -> tuple[str, str, str, str]:
    """Accept a PatternKey or a raw (size, operation, dtype, device) tuple."""
    if isinstance(key, PatternKey):
        return key.levels()
    if len(key) != 4:
        raise DataError(f"key {key!r} is not a 4-level pattern key")
    return tuple(key)


class _SuffStats:
    """Per-key sufficient statistics for the Gaussian likelihood."""

    def __init__(self, data: dict, spec: ModelSpec):
        items = sorted((_as_levels(k), np.asarray(v, dtype=float))
                       for k, v in data.items())
        index = {name: {lv: i for i, lv in enumerate(levels)}
                 for name, levels in spec.level_sets.items()}
        ia, ib, ic, idx_d, n, s1, s2, ss = [], [], [], [], [], [], [], []
        for (size, op, dtype, device), values in items:
            try:
                ia.append(index["alpha"][size])
                ib.append(index["beta"][op])
                ic.append(index["gamma"][dtype])
                idx_d.append(index["delta"][device])
            except KeyError as exc:
                raise DataError(
                    f"level {exc.args[0]!r} of key {(size, op, dtype, device)} "
                    "is not in the model spec"
                ) from None
            n.append(len(values))
            s1.append(values.sum())
            s2.append(np.square(values).sum())
            ss.append(np.square(values - values.mean()).sum()
                      if len(values) else 0.0)
        # Each key's level index in each category, in CATEGORY_NAMES order.
        self.levels = tuple(np.array(idx, dtype=int)
                            for idx in (ia, ib, ic, idx_d))
        self.n = np.array(n, dtype=float)
        self.s1 = np.array(s1, dtype=float)
        self.s2 = np.array(s2, dtype=float)
        self.ss = float(np.sum(ss))  # within-key sum of squares
        self.n_obs = float(self.n.sum())
        self.digest = _digest(items)


def _digest(items) -> str:
    h = hashlib.sha256()
    for levels, values in items:
        h.update(repr(levels).encode())
        h.update(np.ascontiguousarray(values).tobytes())
    return h.hexdigest()


def _contrast_basis(n_levels: int) -> np.ndarray:
    """Orthonormal Helmert basis of the sum-to-zero vectors in R^n_levels."""
    basis = np.zeros((n_levels, n_levels - 1))
    for j in range(1, n_levels):
        basis[:j, j - 1] = 1.0
        basis[j, j - 1] = -float(j)
        basis[:, j - 1] /= math.sqrt(j * (j + 1.0))
    return basis


class _Model:
    """Bound model: spec + data, evaluating the joint log density."""

    def __init__(self, spec: ModelSpec, stats: _SuffStats):
        self.stats = stats
        self.cats = spec.sampled_categories
        self.sizes = [len(spec.level_sets[c]) for c in self.cats]

        # The data see the location block only through the key means, and
        # those depend on it only through a grand intercept g (the sum of
        # the categories' level means) and each category's orthonormal
        # sum-to-zero contrasts t_c.  These coordinates carry the design,
        # independent of every scale: mu_key = B @ (g || t_1 || ... || t_C).
        # The prior makes them independent, g ~ N(C * loc, V) and
        # t_c ~ N(0, sd_c^2 I); the rest of the block (the split of g over
        # categories and into hyper-mean and sd * mean(z)) is informed by
        # the prior alone and is integrated and drawn in closed form.
        ncat = len(self.cats)
        level_idx = stats.levels[:ncat]
        bases = [_contrast_basis(n) for n in self.sizes]
        design = np.hstack(
            [np.ones((len(stats.n), 1))]
            + [q[idx] for q, idx in zip(bases, level_idx)])
        gram = design.T @ (stats.n[:, None] * design)
        # Directions the design cannot identify (levels that always occur
        # together, such as the catalog's reference size and reference
        # type) are informed by the prior alone; location_system integrates
        # them out exactly, which keeps its factor well conditioned.
        eigval, eigvec = np.linalg.eigh(gram)
        identified = eigval > 1e-9 * eigval[-1]
        null = eigvec[:, ~identified]
        self._identified_floor = min(1.0, float(eigval[identified].min(
            initial=np.inf)))
        # Prior groups of the coordinates: 0 the intercept, 1 + ci the
        # contrasts of category ci.  The refusal guard reads the largest
        # null weight of each group in these coordinates.
        group = np.repeat(np.arange(ncat + 1),
                          [1] + [n - 1 for n in self.sizes])
        self._group_dim = np.bincount(group, minlength=ncat + 1).tolist()
        weight = np.square(null).sum(axis=1)
        self._null_weight = [float(weight[group == g].max(initial=0.0))
                             for g in range(ncat + 1)]

        # The largest category's prior is isotropic on its contrasts, so
        # any orthonormal basis of them keeps it.  Take first the span of
        # the null space's component there, then the eigenvectors of the
        # category's Gram block on the rest: there the precision is
        # diagonal, and location_system eliminates those coordinates in
        # closed form, factoring only the dense block (the intercept, the
        # other categories' contrasts and the null-touching directions).
        big = int(np.argmax(self.sizes))
        rows = np.flatnonzero(group == big + 1)
        left, singular, _ = np.linalg.svd(null[rows])
        # N is orthonormal: singular values at rounding level span nothing.
        n_touched = int(np.count_nonzero(singular > 1e-9))
        rest = left[:, n_touched:]
        _, rotation = np.linalg.eigh(rest.T @ gram[np.ix_(rows, rows)] @ rest)
        others = np.flatnonzero(group != big + 1)
        nd = len(others) + n_touched  # dimension of the dense block
        # Columns: the factored coordinates in terms of (g, t).
        coords = np.zeros((len(group), len(group)))
        coords[others, np.arange(len(others))] = 1.0
        coords[np.ix_(rows, np.arange(len(others), len(group)))] = np.hstack(
            [left[:, :n_touched], rest @ rotation])
        self._dense_group = np.concatenate(
            [group[others], np.full(n_touched, big + 1)])
        self._diag_group = big + 1

        self.design = design @ coords
        full = self.design.T @ (stats.n[:, None] * self.design)
        moment = self.design.T @ stats.s1
        # Blocks of G in these coordinates: dense (taken with N N', which
        # sets the prior-only directions to identity, into the terms
        # below), coupling C, and the diagonal, the eigenvalues lambda of
        # the rotated category's block.
        self._null = (coords.T @ null)[:nd]
        self._cross = full[:nd, nd:]
        self._eig = np.diagonal(full[nd:, nd:]).copy()
        self._moment_diag = moment[nd:]
        self._prior_mean = np.zeros(nd)
        self._prior_mean[0] = ncat * HYPER_MEAN_LOC

        # location_system factors the bordered matrix K of order k + nd and
        # solves K u = b.  [K; b'] is linear in 1, sigma^2 over each prior
        # group's variance and -1/D_j for each diagonal coordinate j, so
        # each call builds it as one product of those coefficients with
        # these terms.
        k = self._null.shape[1]
        order = k + nd
        groups = np.arange(ncat + 1)[:, None] == self._dense_group
        terms = np.zeros((1 + len(groups) + len(self._eig), order + 1, order))
        const, by_group, by_diag = np.split(terms, [1, 1 + len(groups)])
        const[0, k:order, k:] = full[:nd, :nd] + self._null @ self._null.T
        const[0, order, k:] = moment[:nd]
        for g, members in enumerate(groups):
            block = self._null[members]
            at = k + np.flatnonzero(members)
            by_group[g, :k, :k] = block.T @ block  # W = N' Lam^-1 N
            by_group[g, at, :k] = block  # Lam^-1 N
            by_group[g, :k, at] = block
            by_group[g, at, at] = 1.0  # Lam^-1
        # The prior mean's share of b, which is zero but for the intercept's
        # (group 0): N' Lam^-1 m0 on top and Lam^-1 m0 below.
        by_group[0, order, :k] = self._prior_mean[0] * self._null[0]
        by_group[0, order, k] = self._prior_mean[0]
        by_diag[:, k:order, k:] = (self._cross.T[:, :, None]
                                   * self._cross.T[:, None])
        by_diag[:, order, k:] = self._cross.T * self._moment_diag[:, None]
        self._terms = terms.reshape(len(terms), -1)

        # Factored coordinates to every category's level contrasts.
        level_cat = np.repeat(np.arange(ncat), self.sizes)
        levels = np.zeros((len(level_cat), len(group) - 1))
        for ci, basis in enumerate(bases):
            levels[np.ix_(level_cat == ci, group[1:] == ci + 1)] = basis
        self._to_levels = levels @ coords[1:]
        self._key_mean = stats.s1 / np.maximum(stats.n, 1.0)

    def location_system(self, log_sd: np.ndarray, log_sigma: float):
        """Gaussian full conditional of the location block given the scales.

        In the (g, t) coordinates w of __init__ the prior is Normal with
        diagonal covariance Lam and the conditional precision is
        P = G / sigma^2 + Lam^-1, G the fixed weighted Gram matrix of the
        design.  With N an orthonormal basis of G's null space and
        W = N' Lam^-1 N, the matrix

            M = G + sigma^2 (Lam^-1 - Lam^-1 N W^-1 N' Lam^-1) + N N'

        is the precision of the identified directions times sigma^2 (a Schur
        complement), with the prior-only directions N set to identity.  It
        is well conditioned whatever the scales, and log|P| = log|M|
        + log|W| - 2 (dim - k) log sigma for k = rank N.

        M is not factored whole.  In the coordinates of __init__ the largest
        category's contrasts outside N's span are eigenvectors of its Gram
        block and Lam is sd^2 I on them, so that block of M is the diagonal
        D = lambda + sigma^2 / sd^2, and N does not reach it.  Both
        eliminations, of D and of W, go into the factor of one bordered
        matrix of order k + nd (13 at paper size, against 70 for M):

            K = [[sigma^2 W, sigma^2 N' Lam^-1], [sigma^2 Lam^-1 N, S0]]

        on the dense block, with S0 = M0 - C D^-1 C', M0 the dense block of
        G + sigma^2 Lam^-1 + N N' and C its coupling to the diagonal block.
        The Schur complement of K's first block, S0 - sigma^2 Lam^-1 N W^-1
        N' Lam^-1, is S, that of D in M.  So K's Cholesky factor has sigma
        times W's factor in its leading block and S's in its trailing one:
        log|K| = log|W| + 2 k log sigma + log|S|, and log|M| = log|S|
        + sum log D.  One solve of K [v; y] = [sigma^2 N' Lam^-1 m; r],
        m the prior mean and r the dense block's moment with D eliminated,
        gives y, the identified part of the dense block's conditional mean,
        and N v, its prior-only part given y.  (The data moment has no part
        along N, which G does not reach.)  The diagonal block follows by
        back substitution.  [K; b'] is linear in fixed terms, so a call
        builds it in one product.  The rotation is fixed by the data, not
        the scales, and each step is an exact identity, so the result is
        exact to rounding.

        Returns a _LocationSystem with the factors, the conditional mean,
        and the collapsed log density log p(data | scales) + log p(scales)
        -- the location block integrated out in closed form, which the
        scale updates sample against.  Raises _Refused (a DataError) for
        scales outside the floating-point range or too ill-conditioned to
        eliminate the unidentified directions exactly, and DataError when K
        cannot be factorized or the density is not finite.
        """
        st = self.stats
        # Scales beyond exp(+-150) carry no posterior mass for any data in
        # joules, and their squares and ratios would overflow.
        log_sd = np.asarray(log_sd, dtype=float).tolist()
        if not (abs(log_sigma) < 150.0
                and all(abs(u) < 150.0 for u in log_sd)):
            raise _Refused("scale parameters outside the floating-point range")
        sigma = math.exp(log_sigma)
        sigma2 = sigma * sigma
        # Prior variances, as floats: of each category's contrasts (sd^2)
        # and level mean, and of the intercept g (the level means' sum).
        sd2 = [math.exp(2.0 * u) for u in log_sd]
        level_var = [HYPER_MEAN_SCALE ** 2 + v / n
                     for v, n in zip(sd2, self.sizes)]
        group_var = [sum(level_var)] + sd2
        inv_group = [1.0 / v for v in group_var]
        inv_var = np.array(inv_group)[self._dense_group]
        diag_var = group_var[self._diag_group]
        diag = self._eig + sigma2 / diag_var
        null = self._null
        k = null.shape[1]

        # The bordered system [K; b'], in one product (see __init__).
        coef = np.empty(len(self._terms))
        coef[0] = 1.0
        coef[1:len(inv_group) + 1] = [sigma2 * v for v in inv_group]
        np.divide(-1.0, diag, out=coef[len(inv_group) + 1:])
        order = k + len(self._prior_mean)
        system = (coef @ self._terms).reshape(order + 1, order)
        bordered, rhs = system[:-1], system[-1]
        try:
            chol = np.linalg.cholesky(bordered)
        except np.linalg.LinAlgError:
            chol = None
        if k:
            # Eliminating the prior-only directions subtracts terms as large
            # as `pinned`, losing eps times that, amplified by the
            # conditioning of W.  States where the loss could reach 1e-10 of
            # the identified precision are refused: a category sd orders of
            # magnitude below sigma, or sds that differ by orders of
            # magnitude along one unidentified direction.  The leading
            # block of K's factor is that of sigma^2 W; where K has no
            # factor, the guard reads W's own, if W has one.
            null_prec = bordered[:k, :k]
            try:
                null_chol = (chol if chol is not None
                             else np.linalg.cholesky(null_prec))
            except np.linalg.LinAlgError:
                pass
            else:
                pinned = sigma2 * max(
                    v * w for v, w in zip(inv_group, self._null_weight))
                w_det = math.prod(
                    lii * lii / wii for lii, wii in zip(
                        null_chol.diagonal()[:k].tolist(),
                        null_prec.diagonal().tolist()))
                if not pinned <= 1e6 * self._identified_floor * w_det:
                    raise _Refused("the scales leave directions the data "
                                   "cannot identify too ill-conditioned")
        if chol is not None:
            try:
                solution = np.linalg.solve(bordered, rhs)
            except np.linalg.LinAlgError:
                chol = None
        if chol is None:
            raise DataError("location conditional is numerically singular")
        dense = solution[k:]
        rest = (self._moment_diag - self._cross.T @ dense) / diag
        if k:
            # The prior-only part given the identified part.
            dense = dense + null @ solution[:k]
        mean = np.concatenate((dense, rest))

        # Marginal likelihood by completing the square at the conditional
        # mean: log p(y | m) + log p(m) - log N(m | m, P^-1), with the data
        # term as the within-key sum of squares plus the key means' misfit,
        # so that no large terms cancel.
        resid = self._key_mean - self.design @ mean
        data_ss = st.ss + float(st.n @ (resid * resid))
        centered = dense - self._prior_mean
        logdet = (2.0 * (float(np.log(chol.diagonal()).sum())
                         - len(mean) * log_sigma)
                  + float(np.log(diag).sum()))
        collapsed = (
            -0.5 * st.n_obs * LOG_2PI - st.n_obs * log_sigma
            - 0.5 * data_ss / sigma2
            - 0.5 * sum(d * math.log(v)
                        for d, v in zip(self._group_dim, group_var))
            - 0.5 * (float(centered @ (inv_var * centered))
                     + float(rest @ rest) / diag_var)
            - 0.5 * logdet
        )
        # Scale priors: Exponential(rate) with the log-parameterization
        # Jacobian (+u per log scale).
        for u in log_sd:
            collapsed += (math.log(RATE_CATEGORY_SD)
                          - RATE_CATEGORY_SD * math.exp(u) + u)
        collapsed += math.log(RATE_SIGMA) - RATE_SIGMA * sigma + log_sigma
        if not math.isfinite(collapsed):
            raise DataError("collapsed density is not finite")
        return _LocationSystem(log_sd, log_sigma, sigma, sd2, level_var, chol,
                               diag, mean, collapsed)

    def draw_locations(self, system: "_LocationSystem",
                       rng: np.random.Generator) -> np.ndarray:
        """Exact Gibbs draw of the location block, as a param_names row.

        Draws w = (g, t) from its Gaussian conditional -- the dense block
        and, given it, the prior-only directions from their prior, both
        through one triangular solve with the factor of K, then the
        diagonal block given the dense one -- then splits g over the
        categories' level means, and each level mean into its hyper-mean
        and an offset, from their prior conditionals.
        The row holds sigma, each level effect (its category's level mean
        plus its contrast), and each category's hyper-mean and sd, the
        scales being those of the system.
        """
        k = self._null.shape[1]
        nd = len(system.chol) - k
        standard = rng.standard_normal(len(system.mean))
        white = standard[:nd]
        if k:
            white = np.concatenate((rng.standard_normal(k), white))
        noise = system.sigma * np.linalg.solve(system.chol.T, white)
        dense = noise[k:]
        # The diagonal block given the dense one:
        # Normal(-D^-1 C' dense, sigma^2 D^-1).
        rest = (system.sigma * np.sqrt(system.diag) * standard[nd:]
                - self._cross.T @ dense) / system.diag
        if k:
            dense += self._null @ noise[:k]
        w = system.mean + np.concatenate((dense, rest))
        sd2 = np.array(system.sd2)
        level_var = np.array(system.level_var)
        # Level means given their sum g: independent Normal(loc, level_var)
        # conditioned on the total.
        level_mean = (HYPER_MEAN_LOC + np.sqrt(level_var)
                      * rng.standard_normal(len(self.cats)))
        level_mean += level_var / level_var.sum() * (w[0] - level_mean.sum())
        # Offset of each level mean from its hyper-mean, given the level mean.
        share = sd2 / self.sizes / level_var
        offset = ((level_mean - HYPER_MEAN_LOC) * share
                  + HYPER_MEAN_SCALE * np.sqrt(share)
                  * rng.standard_normal(len(self.cats)))
        effects = np.repeat(level_mean, self.sizes) + self._to_levels @ w
        sd = [math.exp(u) for u in system.log_sd]
        hyper = np.column_stack((level_mean - offset, sd)).ravel()
        return np.concatenate(([system.sigma], effects, hyper))


@dataclass
class _LocationSystem:
    """Factorized Gaussian conditional of the location block."""

    log_sd: list[float]    # the scales it is conditional on: log category sds
    log_sigma: float       # and log likelihood sd
    sigma: float           # likelihood sd
    sd2: list[float]       # category variances sd^2
    level_var: list[float]  # prior variance of each category's level mean
    chol: np.ndarray       # Cholesky factor of the bordered matrix K
    diag: np.ndarray       # diagonal block D of M
    mean: np.ndarray       # conditional mean of w in the factored coordinates
    collapsed: float       # log p(data | scales) + log p(scales)


def log_posterior(theta: dict, data: dict, spec: ModelSpec) -> float:
    """Joint log density (likelihood + priors) on the non-centered scale.

    ``theta`` is a dict with keys ``z`` (one array per sampled category,
    one value per level), ``mu`` and ``log_sd`` (one value per sampled
    category) and ``log_sigma``; a level effect is mu + exp(log_sd) * z.
    Raises DataError when theta has another shape.
    """
    cats = spec.sampled_categories
    z = [np.asarray(v, dtype=float) for v in theta["z"]]
    mu = np.asarray(theta["mu"], dtype=float)
    log_sd = np.asarray(theta["log_sd"], dtype=float)
    log_sigma = float(theta["log_sigma"])
    if ([v.shape for v in z] != [(len(spec.level_sets[c]),) for c in cats]
            or mu.shape != (len(cats),) or log_sd.shape != (len(cats),)):
        raise DataError(f"theta needs one z value per level and one mu and "
                        f"log_sd value per sampled category ({', '.join(cats)})")
    st = _SuffStats(data, spec)

    sigma = math.exp(log_sigma)
    mu_keys = np.zeros(len(st.n))
    for level, m, u, v in zip(st.levels, mu, log_sd, z):
        mu_keys += (m + math.exp(u) * v)[level]
    quad = float(np.sum(st.s2 - 2.0 * mu_keys * st.s1
                        + st.n * mu_keys * mu_keys))
    lp = (-0.5 * st.n_obs * LOG_2PI - st.n_obs * log_sigma
          - 0.5 * quad / (sigma * sigma))
    # z ~ Normal(0, 1)
    for v in z:
        lp += -0.5 * len(v) * LOG_2PI - 0.5 * float(v @ v)
    # hyper-means ~ Normal(loc, scale)
    resid = (mu - HYPER_MEAN_LOC) / HYPER_MEAN_SCALE
    lp += (-0.5 * len(mu) * LOG_2PI - len(mu) * math.log(HYPER_MEAN_SCALE)
           - 0.5 * float(resid @ resid))
    # category sds ~ Exponential(rate), sampled as log sd (Jacobian +u)
    for u in log_sd:
        lp += (math.log(RATE_CATEGORY_SD) - RATE_CATEGORY_SD * math.exp(u)
               + u)
    # likelihood sd ~ Exponential(rate), log scale
    lp += math.log(RATE_SIGMA) - RATE_SIGMA * sigma + log_sigma
    return lp


# ---------------------------------------------------------------------------
# Sampler
# ---------------------------------------------------------------------------

ACCEPT_TARGET = 0.3  # middle of the 20-40% adaptation band
SCALE_SWEEPS = 3  # scale sweeps per iteration, each ending in a mode swap


class _Chain:
    """One chain of the collapsed kernel, its whole state held explicitly.

    The state is the current _LocationSystem (the log scales and the
    location system they factor); for each of the C + 1 scales -- the C
    log category sds, then log sigma -- a log step size, its adaptation
    count and its accepted and proposed counts; the mode swaps proposed and
    accepted per category pair; the collapsed evaluations, the proposals
    location_system refused on purpose and those whose density was
    singular or not finite; and the seconds spent in location_system.
    ``step`` is the kernel's one entry point; ``rng`` is the chain's stream.
    """

    def __init__(self, model: _Model, rng: np.random.Generator):
        self.model = model
        self.rng = rng
        ncat = len(model.cats)
        # The normals that once seeded a non-centered location start, drawn
        # and discarded so that a seed keeps its draws (ROADMAP item 3).
        rng.standard_normal(sum(model.sizes))
        self.location_s = 0.0
        self.system = self._evaluate(
            np.full(ncat, math.log(1.0 / RATE_CATEGORY_SD)),
            math.log(1.0 / RATE_SIGMA))
        self.counts = {"evaluations": 1, "refused_states": 0,
                       "nonfinite_states": 0}
        self.log_step = [math.log(0.5)] * ncat + [math.log(0.1)]
        self.adapted = [0] * (ncat + 1)
        self.accepted = [0] * (ncat + 1)
        self.proposed = [0] * (ncat + 1)
        self.swaps = {(i, j): [0, 0]  # proposed, accepted
                      for i in range(ncat) for j in range(i + 1, ncat)}

    def _evaluate(self, log_sd, log_sigma) -> _LocationSystem:
        """location_system, timed into location_s."""
        called = time.perf_counter()
        try:
            return self.model.location_system(log_sd, log_sigma)
        finally:
            self.location_s += time.perf_counter() - called

    def _metropolis(self, log_sd, log_sigma) -> tuple[bool, float]:
        """Collapsed scale update against p(scales | data): whether the
        proposal was accepted, and its acceptance probability."""
        self.counts["evaluations"] += 1
        a = 0.0
        try:
            proposed = self._evaluate(log_sd, log_sigma)
        except _Refused:
            self.counts["refused_states"] += 1
        except DataError:
            self.counts["nonfinite_states"] += 1
        else:
            log_a = proposed.collapsed - self.system.collapsed
            a = 1.0 if log_a >= 0 else math.exp(log_a)
        # A refused or underflowed proposal draws no uniform.
        accepted = a > 0 and self.rng.random() < a
        if accepted:
            self.system = proposed
        return accepted, a

    def step(self, adapting: bool) -> np.ndarray:
        """One iteration, returning the stored row.  While ``adapting``,
        each scale's step size moves toward ACCEPT_TARGET by Robbins-Monro
        on the log scale; otherwise the step sizes stay frozen."""
        rng = self.rng
        ncat = len(self.log_step) - 1
        pairs = list(self.swaps)
        for _ in range(SCALE_SWEEPS):
            for i in range(ncat + 1):
                scales = [*self.system.log_sd, self.system.log_sigma]
                scales[i] += math.exp(self.log_step[i]) * rng.standard_normal()
                accepted, a = self._metropolis(scales[:-1], scales[-1])
                self.accepted[i] += accepted
                self.proposed[i] += 1
                if adapting:
                    # Python floats: numpy's SIMD paths may round otherwise.
                    self.adapted[i] += 1
                    gain = min(1.0, 3.0 * self.adapted[i] ** -0.6)
                    self.log_step[i] = min(max(
                        self.log_step[i] + gain * (a - ACCEPT_TARGET),
                        -60.0), 10.0)

            # Mode-swap move: the collapsed target can be multimodal in which
            # category carries a large sd (categories with similar level
            # counts can absorb the same hyper-mean offset).  Exchanging two
            # log sds is a symmetric proposal that jumps between those modes
            # directly.  Proposed once per sweep, it lets a chain leave a
            # minor mode within an iteration instead of tens of them.
            if pairs:
                i, j = pair = pairs[rng.integers(len(pairs))]
                log_sd = list(self.system.log_sd)
                log_sd[i], log_sd[j] = log_sd[j], log_sd[i]
                self.swaps[pair][0] += 1
                accepted, _ = self._metropolis(log_sd, self.system.log_sigma)
                self.swaps[pair][1] += accepted

        # Location block: exact multivariate-normal Gibbs draw.  Warmup
        # makes it too, to keep the stream (ROADMAP item 3).
        return self.model.draw_locations(self.system, rng)


def _run_chain(model: _Model, warmup: int, draws: int, seed: int):
    """One chain on stream ``seed``: (draws x params) samples, acceptance
    rates and trace.

    The trace holds the warmup and sampling seconds, the seconds spent in
    location_system and its calls (the collapsed evaluations,
    1 + iterations * 3 * (C + 2)), the rejected proposals split into those
    location_system refused on purpose and those whose density was
    singular or not finite, the final (log-scale) step sizes, and the mode
    swaps proposed and accepted per category pair.
    """
    started = time.perf_counter()
    chain = _Chain(model, np.random.default_rng(seed))
    for _ in range(warmup):
        chain.step(adapting=True)
    warmed_up = time.perf_counter()
    samples = np.array([chain.step(adapting=False) for _ in range(draws)])

    rates = [a / p if p else 0.0 for a, p in zip(chain.accepted, chain.proposed)]
    swap_proposed = sum(p for p, _ in chain.swaps.values())
    swap_accepted = sum(a for _, a in chain.swaps.values())
    acc = {
        "log_sd": float(np.mean(rates[:-1])),
        "log_sigma": rates[-1],
        "swap": swap_accepted / swap_proposed if swap_proposed else 1.0,
    }
    cats = model.cats
    steps = [math.exp(u) for u in chain.log_step]
    trace = {
        "warmup_s": warmed_up - started,
        "sampling_s": time.perf_counter() - warmed_up,
        "location_s": chain.location_s,
        **chain.counts,
        "step_sizes": {**{f"sd[{cat}]": v for cat, v in zip(cats, steps)},
                       "sigma": steps[-1]},
        "swaps": {f"{cats[i]}/{cats[j]}": {"proposed": p, "accepted": a}
                  for (i, j), (p, a) in chain.swaps.items()},
    }
    return samples, acc, trace


def _available_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _map_chains(task, args: list) -> tuple[list, int]:
    """[task(arg) for arg in args] and the number of processes used.

    Chains run in forked worker processes, at most one per available CPU.
    The task, model included, is pickled to the worker with each chain:
    at paper size about 360 KB and 0.3 ms to dump and load, against
    0.3 s or more for the chain itself.  Results come back in chain order
    and a worker's exception is re-raised here with its type and message.
    With one CPU, or no fork, the chains run in this process.
    """
    # Imported here, not at module level: the CLI's start-up never needs it.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    workers = min(len(args), _available_cpus())
    if workers < 2 or "fork" not in multiprocessing.get_all_start_methods():
        return [task(arg) for arg in args], 1
    with ProcessPoolExecutor(workers,
                             multiprocessing.get_context("fork")) as pool:
        return list(pool.map(task, args)), workers


def param_names(spec: ModelSpec) -> list[str]:
    """Sampled parameter names, matching the stored draw column order."""
    names = ["sigma"]
    for cat in spec.sampled_categories:
        names.extend(f"{cat}[{lv}]" for lv in spec.level_sets[cat])
    for cat in spec.sampled_categories:
        names.append(f"mu[{cat}]")
        names.append(f"sd[{cat}]")
    return names


# ---------------------------------------------------------------------------
# Posterior model container
# ---------------------------------------------------------------------------

@dataclass
class PosteriorModel:
    levels: dict[str, list[str]]
    summaries: dict[str, dict]
    meta: dict = field(default_factory=dict)
    draw_names: list[str] | None = None
    draws: np.ndarray | None = None  # (chains, iterations, params)

    def has_draws(self) -> bool:
        return self.draws is not None

    def _effect_names(self, key) -> list[str]:
        size, op, dtype, device = _as_levels(key)
        names = [f"alpha[{size}]", f"beta[{op}]", f"gamma[{dtype}]",
                 f"delta[{device}]"]
        for name in names:
            if name not in self.summaries:
                shown = name if len(name) <= 40 else shorten(name)
                raise UnknownLevel(f"{shown} is not a model parameter")
        return names

    def mean_mu(self, key) -> float:
        """Posterior mean of alpha+beta+gamma+delta for one pattern key."""
        return sum(self.summaries[n]["mean"] for n in self._effect_names(key))

    def sigma_mean(self) -> float:
        if "sigma" not in self.summaries:
            raise UnknownLevel("sigma is not a model parameter")
        return self.summaries["sigma"]["mean"]

    def mu_draws(self, key) -> np.ndarray | None:
        """Flattened posterior draws of the key's mean, if draws are stored."""
        return self.weighted_mu_draws({key: 1})

    def weighted_mu_draws(self, counts: dict) -> np.ndarray | None:
        """Flattened posterior draws of sum(count * key mean) over ``counts``.

        One mat-vec of the draw columns the keys use with their total
        counts; None if no draws are stored.  Effects without a column (an
        unsampled delta) are fixed at zero.
        """
        if not self.has_draws():
            return None
        column = {name: j for j, name in enumerate(self.draw_names)}
        weights = np.zeros(len(column))
        for key, count in counts.items():
            for name in self._effect_names(key):
                if name in column:
                    weights[column[name]] += count
        used = np.flatnonzero(weights)  # a key uses 4 of the 82 columns
        return self.draws.reshape(-1, len(weights))[:, used] @ weights[used]

    def convergence_failures(self) -> list[str]:
        """Parameters that fail a gate of the diagnostics report."""
        return [row["parameter"] for row in diagnostics.report(self)
                if not row["pass"]]

    def to_json_dict(self, include_draws: bool = True) -> dict:
        """The model as plain JSON data; it shares nothing with the model."""
        obj = {
            "levels": {k: list(v) for k, v in self.levels.items()},
            "summaries": {k: dict(v) for k, v in self.summaries.items()},
            "meta": copy.deepcopy(self.meta),
        }
        if include_draws and self.has_draws():
            obj["draws"] = {
                "names": list(self.draw_names),
                "values": self.draws.tolist(),
            }
        return obj

    def save(self, path, include_draws: bool = True) -> None:
        """Write ``to_json_dict(include_draws)`` as JSON, one draw row a line.

        ``json.dump`` always runs the pure-Python encoder; only a plain
        ``json.dumps`` runs the C one.  So each draw row is one
        ``json.dumps`` call, which spells floats, NaN and Infinity as
        ``json.dump`` does.  Rows are converted one chain at a time; the
        document is never built as one string.
        """
        header = json.dumps(self.to_json_dict(include_draws=False), indent=1)
        with open(path, "w", encoding="utf-8") as fh:
            if not (include_draws and self.has_draws()):
                fh.write(header + "\n")
                return
            fh.write(header[:-len("\n}")])
            fh.write(',\n "draws": {\n  "names": '
                     f'{json.dumps(self.draw_names)},\n  "values": [\n')
            for c, chain in enumerate(self.draws):
                fh.write(",\n[" if c else "[")
                fh.write(",\n".join(map(json.dumps, chain.tolist())))
                fh.write("]")
            fh.write("\n  ]\n }\n}\n")

    @classmethod
    def from_json_dict(cls, obj: dict) -> "PosteriorModel":
        _check_model_json(obj)
        draws = draw_names = None
        if obj.get("draws"):
            draw_names = list(obj["draws"]["names"])
            try:
                draws = np.asarray(obj["draws"]["values"])
            except ValueError:
                raise DataError("model draws are not rectangular") from None
            if (draws.dtype.kind not in "iuf" or draws.ndim != 3
                    or draws.shape[2] != len(draw_names)):
                raise DataError(
                    f"model draws must be a numeric (chains, draws, "
                    f"{len(draw_names)}) array, one column per name; got "
                    f"{draws.dtype} of shape {draws.shape}")
            draws = draws.astype(float, copy=False)
            if not np.isfinite(draws).all():
                raise DataError("model draws must be finite")
        model = cls(
            levels={k: list(v) for k, v in obj["levels"].items()},
            summaries={k: dict(v) for k, v in obj["summaries"].items()},
            meta=dict(obj.get("meta", {})),
            draw_names=draw_names,
            draws=draws,
        )
        if model.has_draws():
            try:
                recomputed = summarize_draws(model.draws, model.draw_names)
            except ValueError as exc:
                raise DataError(f"model draws: {exc}") from None
            for name, s in recomputed.items():
                stored = model.summaries.get(name)
                if stored is None or not _close(stored, s):
                    raise DataError(
                        f"stored summary for {name} does not match its draws"
                    )
        for name, s in model.summaries.items():
            for field_name in SUMMARY_FIELDS:
                x = s.get(field_name)
                required = field_name in ("mean", "sd")  # predict reads them
                if not (_is_number(x) or (x is None and not required)):
                    raise DataError(
                        f"stored summary for {name}: {field_name} must be a "
                        f"number{'' if required else ' or null'}, got {x!r}")
        return model

    @classmethod
    def load(cls, path) -> "PosteriorModel":
        with open(path, encoding="utf-8") as fh:
            try:
                obj = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise DataError(f"{path} is not a JSON model file: {exc}") \
                    from None
        return cls.from_json_dict(obj)


SUMMARY_FIELDS = ("mean", "sd", "mcse", "ess", "rhat")


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_name_list(x) -> bool:
    return isinstance(x, list) and all(isinstance(v, str) for v in x)


def _check_model_json(obj) -> None:
    """Raise DataError unless ``obj`` has the layout to_json_dict writes.

    This checks the containers only; from_json_dict checks the draws, the
    summary values and their agreement after it.
    """
    problem = None
    if not isinstance(obj, dict):
        problem = "must be a JSON object"
    elif not (isinstance(obj.get("levels"), dict)
              and all(map(_is_name_list, obj["levels"].values()))):
        problem = '"levels" must map each category to a list of level names'
    elif not (isinstance(obj.get("summaries"), dict)
              and all(isinstance(s, dict)
                      for s in obj["summaries"].values())):
        problem = '"summaries" must map each parameter to an object'
    elif not isinstance(obj.get("meta", {}), dict):
        problem = '"meta" must be an object'
    elif counts := [k for k, v in obj.get("meta", {}).items()
                    if k in ("chains", "draws_per_chain")
                    and not (type(v) is int and v > 0)]:
        problem = f'"meta.{counts[0]}" must be a positive integer'
    elif obj.get("draws") and not (isinstance(obj["draws"], dict)
                                   and _is_name_list(obj["draws"].get("names"))
                                   and "values" in obj["draws"]):
        problem = ('"draws" must hold "names", a list of parameter names, '
                   'and "values"')
    if problem is not None:
        raise DataError(f"model file: {problem}")


def _close(stored: dict, recomputed: dict, rtol: float = 1e-6) -> bool:
    for field_name in SUMMARY_FIELDS:
        x, y = stored.get(field_name), recomputed[field_name]
        if not _is_number(x):  # a stored None would hide it from the gate
            return False
        scale = max(abs(x), abs(y), 1e-300)
        if not abs(x - y) <= rtol * scale:  # NaN compares false: not close
            return False
    return True


def summarize_draws(draws: np.ndarray, names: list[str]) -> dict[str, dict]:
    """Per-parameter mean/sd/MCSE/ESS/R-hat from (chains, n, params) draws."""
    columns = {field: values.tolist()
               for field, values in diagnostics.summarize(draws).items()}
    return {name: {field: values[j] for field, values in columns.items()}
            for j, name in enumerate(names)}


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def fit(
    data: dict,
    spec: ModelSpec | None = None,
    chains: int = 4,
    warmup: int = 1000,
    draws: int = 1000,
    seed: int = 0,
) -> PosteriorModel:
    """Fit the model by multi-chain MCMC; deterministic given the seed.

    ``data`` maps pattern keys (PatternKey or 4-tuples) to observation
    arrays.  Attaches a NonConvergenceWarning (without failing) when any
    parameter misses the R-hat/ESS gates.

    ``meta`` records the run: its configuration, per-chain acceptance and
    trace (seconds, seconds in location_system, collapsed evaluations,
    refused and non-finite proposals, final step sizes, swaps per category
    pair), the totals of the rejected proposals, the worker processes and
    wall seconds of the chains (the sum of the chains' seconds over it is
    the parallel speed-up), and the software and platform that ran it.
    """
    if chains < 2 or draws < 4:
        raise DataError("split diagnostics need at least 2 chains of at "
                        f"least 4 draws each (chains={chains}, draws={draws})")
    if warmup < 0:
        raise DataError(f"warmup must be >= 0, got {warmup}")
    if spec is None:
        spec = ModelSpec.from_keys(data.keys())
    stats = _SuffStats(data, spec)
    model = _Model(spec, stats)

    started = time.perf_counter()
    results, workers = _map_chains(
        functools.partial(_run_chain, model, warmup, draws),
        [seed + c for c in range(chains)])
    chains_wall_s = time.perf_counter() - started
    draw_array = np.stack([r[0] for r in results])  # (chains, draws, P)
    traces = [r[2] for r in results]

    names = param_names(spec)
    summaries = summarize_draws(draw_array, names)
    if not spec.device_effect_sampled:
        for device in spec.devices:
            summaries[f"delta[{device}]"] = {
                "mean": 0.0, "sd": 0.0, "mcse": 0.0, "ess": None, "rhat": None,
            }

    meta = {
        "seed": seed,
        "chains": chains,
        "warmup": warmup,
        "draws_per_chain": draws,
        "dataset_digest": stats.digest,
        "acceptance": [r[1] for r in results],
        "refused_states": sum(t["refused_states"] for t in traces),
        "nonfinite_states": sum(t["nonfinite_states"] for t in traces),
        "device_effect_sampled": spec.device_effect_sampled,
        "workers": workers,
        "chains_wall_s": chains_wall_s,
        "trace": traces,
        "provenance": _provenance(),
    }
    posterior = PosteriorModel(
        levels={k: list(v) for k, v in spec.level_sets.items()},
        summaries=summaries,
        meta=meta,
        draw_names=names,
        draws=draw_array,
    )
    failures = posterior.convergence_failures()
    meta["converged"] = not failures
    meta["gate_failures"] = failures
    if failures:
        warnings.warn(
            f"convergence gates failed for: {', '.join(failures)}",
            NonConvergenceWarning,
            stacklevel=2,
        )
    return posterior


def _provenance() -> dict:
    """Software and platform a fit ran on, to explain cross-machine drift."""
    from . import __version__

    return {
        "package_version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "longdouble_eps": float(np.finfo(np.longdouble).eps),
    }


def prior_predictive(spec: ModelSpec, n: int, seed: int = 0) -> np.ndarray:
    """Draw n energies from the prior predictive distribution.

    Each draw samples the hyperpriors, then one level effect per category
    (a uniformly random legal pattern, by prior exchangeability of levels),
    then an observation from the likelihood.
    """
    if n < 0:
        raise DomainError(f"n must be >= 0 draws, got {n}")
    if n == 0:
        return np.empty(0)
    rng = np.random.default_rng(seed)
    ncat = len(spec.sampled_categories)
    hyper = rng.normal(HYPER_MEAN_LOC, HYPER_MEAN_SCALE, size=(n, ncat))
    cat_sd = rng.exponential(1.0 / RATE_CATEGORY_SD, size=(n, ncat))
    effects = rng.normal(hyper, cat_sd)
    sigma = rng.exponential(1.0 / RATE_SIGMA, size=n)
    return rng.normal(effects.sum(axis=1), sigma)
