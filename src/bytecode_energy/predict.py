"""Gaussian energy distributions and program-level convolution predictions.

A fitted model gives every statement a Normal(mean, sd) energy distribution;
a program is a multiset of statements whose distributions are convolved into
one Gaussian.  Sums of Gaussians stay Gaussian: means add, variances add,
plus twice the pairwise covariances, which predict_program takes from the
model's posterior draws when it stores them.
Worst-case consumption is reported as an upper quantile of the resulting
distribution, never as a point maximum.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass
from statistics import NormalDist

from .catalog import PatternKey, PatternTriple, is_legal
from .errors import DomainError, EmptyManifest, UnknownPattern, shorten

DEFAULT_QUANTILES = (0.5, 0.95, 0.99)


@dataclass(frozen=True)
class GaussianDist:
    """A (mean, sd) energy distribution in joules."""

    mean: float
    sd: float

    def __post_init__(self):
        if not (math.isfinite(self.mean) and math.isfinite(self.sd)):
            raise DomainError(f"non-finite Gaussian ({self.mean}, {self.sd})")
        if self.sd < 0:
            raise DomainError(f"negative sd {self.sd}")

    def _dist(self) -> NormalDist:
        if self.sd <= 0:
            raise DomainError("degenerate distribution (sd = 0)")
        return NormalDist(self.mean, self.sd)

    def cdf(self, x: float) -> float:
        return self._dist().cdf(x)

    def quantile(self, p: float) -> float:
        if not 0.0 < p < 1.0:
            raise DomainError(f"quantile probability must be in (0,1), got {p}")
        return self._dist().inv_cdf(p)


def convolve(dists) -> GaussianDist:
    """Sum of independent Gaussians: means add and variances add."""
    dists = list(dists)
    if not dists:
        raise DomainError("cannot convolve an empty distribution list")
    mean = sum(d.mean for d in dists)
    var = sum(d.sd ** 2 for d in dists)
    return GaussianDist(mean, math.sqrt(var))


def statement_dist(model, key) -> GaussianDist:
    """Predictive distribution of one statement: Normal(sum of effects, sigma)."""
    return GaussianDist(model.mean_mu(key), model.sigma_mean())


@dataclass
class ProgramManifest:
    """Multiset of pattern keys with repeat counts."""

    entries: dict

    def __post_init__(self):
        for key, count in self.entries.items():
            if count < 1:
                raise DomainError(f"count for {key} must be >= 1, got {count}")

    def total_statements(self) -> int:
        return sum(self.entries.values())

    @classmethod
    def parse(cls, lines) -> "ProgramManifest":
        """Parse manifest lines of the form ``<count> <op>:<t>:<s>@<device>``."""
        entries: Counter = Counter()
        for lineno, line in enumerate(lines, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            try:
                count_text, spec = text.split(None, 1)
                count = int(count_text)
                descriptor, device = spec.strip().rsplit("@", 1)
                op, dtype, dsize = descriptor.split(":")
            except ValueError:
                raise UnknownPattern(f"line {lineno}: cannot parse manifest "
                                     f"entry {shorten(text)}") from None
            if count < 1:
                raise DomainError(f"line {lineno}: count must be >= 1")
            triple = PatternTriple(op, dtype, dsize)
            if not is_legal(triple):
                raise UnknownPattern(f"line {lineno}: {shorten(descriptor)} "
                                     "is not a modeled pattern")
            key = PatternKey(triple, device)
            entries[key] += count
            # Beyond the float range, count * energy cannot be computed.
            if entries[key] > sys.float_info.max:
                raise DomainError(f"line {lineno}: count {shorten(count)} "
                                  "takes its pattern beyond the float range")
        return cls(entries=dict(entries))


@dataclass
class PredictionResult:
    dist: GaussianDist
    quantiles: dict[float, float]
    contributions: dict  # key -> count * statement mean, joules

    def to_json_dict(self) -> dict:
        return {
            "mean_j": self.dist.mean,
            "sd_j": self.dist.sd,
            "quantiles_j": {str(p): v for p, v in self.quantiles.items()},
            "contributions_j": {
                k.render() if hasattr(k, "render") else str(k): v
                for k, v in self.contributions.items()
            },
        }


def predict_program(
    model, manifest: ProgramManifest, quantiles=DEFAULT_QUANTILES
) -> PredictionResult:
    """Convolve the manifest's statement distributions into one prediction.

    When the model stores posterior draws, the empirical covariance between
    statement means is included; otherwise statements are treated as
    independent.
    """
    if not manifest.entries:
        raise EmptyManifest("manifest contains no statements")

    keys = sorted(manifest.entries, key=lambda k: (k.render()
                  if hasattr(k, "render") else str(k)))
    counts = [manifest.entries[k] for k in keys]
    dists = [statement_dist(model, k) for k in keys]

    mean = sum(c * d.mean for c, d in zip(counts, dists))
    var = sum(c * d.sd ** 2 for c, d in zip(counts, dists))

    if model.has_draws():
        # Parameter uncertainty including cross-statement covariance:
        # Var(sum_k c_k * mu_k) over posterior draws.
        weighted = model.weighted_mu_draws(manifest.entries)
        var += float(weighted.var(ddof=1))

    dist = GaussianDist(mean, math.sqrt(var))
    quantile_values = {p: dist.quantile(p) for p in quantiles}
    contributions = {k: c * d.mean for k, c, d in zip(keys, counts, dists)}
    return PredictionResult(dist=dist, quantiles=quantile_values,
                            contributions=contributions)
