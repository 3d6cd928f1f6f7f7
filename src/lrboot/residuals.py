"""Residual definitions and their inversion back into responses.

Four resampling-capable kinds (pearson, sbs, surrogate, raw) plus deviance
(diagnostic only; it has no recreation rule). Surrogate residuals draw a
latent variable truncated to the interval implied by the observed category,
via inverse-CDF sampling stabilized with complementary CDFs in the tails.

This module decides which residual kinds a family has (`supports`); the
family rules they use (unit deviance, variance, category probabilities,
codes, latent thresholds and cdf/ppf) come from `fit.family`.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import DegenerateTruncation, UnsupportedKind
from .glm import FitResult
from .rng import substream

__all__ = [
    "ResidualSet",
    "RESIDUAL_KINDS",
    "supports",
    "check_supported",
    "compute",
    "pearson",
    "deviance",
    "sbs",
    "surrogate",
    "raw",
    "recreate",
    "to_csv",
]

RESIDUAL_KINDS = ("pearson", "deviance", "sbs", "surrogate", "raw")

# kinds with a response-recreation rule (deviance has none)
RECREATABLE_KINDS = ("pearson", "sbs", "surrogate", "raw")

_MIN_MASS = 1e-300


@dataclass
class ResidualSet:
    values: np.ndarray
    kind: str


def supports(family: str, kind: str) -> bool:
    """Whether the residual kind is defined for the family."""
    if kind == "surrogate" or kind == "sbs":
        return family in ("binomial", "ordinal")
    if kind == "pearson" or kind == "deviance":
        return family != "ordinal"
    if kind == "raw":
        return family == "gaussian"
    return False


def check_supported(family: str, kind: str) -> None:
    if kind not in RESIDUAL_KINDS:
        raise UnsupportedKind(f"unknown residual kind {kind!r}")
    if not supports(family, kind):
        raise UnsupportedKind(f"{kind} residuals are not defined for {family} models")


def pearson(fit: FitResult, data: Dataset) -> ResidualSet:
    """(y - mu) / sqrt(V(mu))."""
    check_supported(fit.spec.family, "pearson")
    values = (data.y - fit.mu_hat) / np.sqrt(fit.var_hat)
    return ResidualSet(values=values, kind="pearson")


def raw(fit: FitResult, data: Dataset) -> ResidualSet:
    check_supported(fit.spec.family, "raw")
    return ResidualSet(values=data.y - fit.mu_hat, kind="raw")


def deviance(fit: FitResult, data: Dataset) -> ResidualSet:
    """sign(y - mu) * sqrt(2 * family deviance contribution); diagnostic only."""
    check_supported(fit.spec.family, "deviance")
    y, mu = data.y, fit.mu_hat
    d = fit.family.half_deviance(y, mu)
    values = np.sign(y - mu) * np.sqrt(2.0 * np.clip(d, 0.0, None))
    return ResidualSet(values=values, kind="deviance")


def _cumulative(fit: FitResult) -> np.ndarray:
    """P(Y <= j) for j = 0..J per observation (first column 0, last 1)."""
    probs = fit.family.category_probs(fit.mu_hat)
    n = probs.shape[0]
    return np.concatenate([np.zeros((n, 1)), np.cumsum(probs, axis=1)], axis=1)


def sbs(fit: FitResult, data: Dataset) -> ResidualSet:
    """P(Y < y) - P(Y > y) under the fitted model; values in (-1, 1)."""
    check_supported(fit.spec.family, "sbs")
    cum = _cumulative(fit)
    codes = fit.family.codes(data.y)
    rows = np.arange(data.n)
    values = cum[rows, codes - 1] + cum[rows, codes] - 1.0
    return ResidualSet(values=values, kind="sbs")


# -- truncated latent sampling ------------------------------------------------


def _trunc_standard(u, lo, hi, cdf, ppf):
    """Inverse-CDF draw of a symmetric standard latent truncated to (lo, hi]."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    x = np.empty_like(u)
    right = lo >= 0.0  # work on the mirrored side where the CDF is small
    if np.any(right):
        s_lo = cdf(-lo[right])
        s_hi = cdf(-hi[right])
        mass = s_lo - s_hi
        if np.any(mass < _MIN_MASS):
            raise DegenerateTruncation("truncation interval mass below 1e-300")
        arg = np.clip(s_hi + (1.0 - u[right]) * mass, 1e-300, 1.0 - 1e-16)
        x[right] = -ppf(arg)
    left = ~right
    if np.any(left):
        f_lo = cdf(lo[left])
        f_hi = cdf(hi[left])
        mass = f_hi - f_lo
        if np.any(mass < _MIN_MASS):
            raise DegenerateTruncation("truncation interval mass below 1e-300")
        arg = np.clip(f_lo + u[left] * mass, 1e-300, 1.0 - 1e-16)
        x[left] = ppf(arg)
    # keep draws strictly inside (lo, hi]
    return np.minimum(np.maximum(x, np.nextafter(lo, np.inf)), hi)


def latent_intervals(fit: FitResult, y: np.ndarray):
    """(lo, hi] residual-scale truncation bounds per observation."""
    family = fit.family
    ext = np.concatenate([[-np.inf], family.thresholds(fit), [np.inf]])
    codes = family.codes(y)
    eta = fit.eta
    return ext[codes - 1] - eta, ext[codes] - eta


def surrogate_values(fit: FitResult, y: np.ndarray, rng: np.random.Generator):
    """One truncated latent draw per observation, minus the linear predictor."""
    lo, hi = latent_intervals(fit, y)
    cdf, ppf = fit.family.latent
    u = rng.random(y.shape[0])
    return _trunc_standard(u, lo, hi, cdf, ppf)


def surrogate(fit: FitResult, data: Dataset, rng) -> ResidualSet:
    """Latent-variable residual s - x'beta, s drawn from the link's latent
    distribution truncated to the interval implied by the observed category."""
    check_supported(fit.spec.family, "surrogate")
    if isinstance(rng, (int, np.integer)):
        rng = substream(int(rng))
    values = surrogate_values(fit, data.y, rng)
    return ResidualSet(values=values, kind="surrogate")


_DISPATCH = {
    "pearson": pearson,
    "deviance": deviance,
    "sbs": sbs,
    "raw": raw,
}


def compute(fit: FitResult, data: Dataset, kind: str, rng=None) -> ResidualSet:
    if kind == "surrogate":
        if rng is None:
            raise UnsupportedKind("surrogate residuals need an RNG or seed")
        return surrogate(fit, data, rng)
    fn = _DISPATCH.get(kind)
    if fn is None:
        raise UnsupportedKind(f"unknown residual kind {kind!r}")
    return fn(fit, data)


# -- recreation ---------------------------------------------------------------


def recreate(fit: FitResult, data: Dataset, r_star: np.ndarray, kind: str) -> np.ndarray:
    """Invert a resampled residual vector into a recreated response vector."""
    if kind == "deviance":
        raise UnsupportedKind("deviance residuals have no recreation rule")
    check_supported(fit.spec.family, kind)
    r_star = np.asarray(r_star, dtype=float)

    family = fit.family
    if kind == "surrogate":
        s = r_star + fit.eta
        codes = np.searchsorted(family.thresholds(fit), s, side="left") + 1  # (a_{j-1}, a_j]
        return family.from_codes(codes)

    if kind == "sbs":
        if not fit.spec.is_ordinal:
            return (r_star > 0.0).astype(float)
        cum = _cumulative(fit)
        grid = cum[:, :-1] + cum[:, 1:] - 1.0  # per-observation SBS value of each j
        return family.from_codes(np.argmin(np.abs(grid - r_star[:, None]), axis=1) + 1)

    if kind == "pearson":
        return family.clamp_response(fit.mu_hat + np.sqrt(fit.var_hat) * r_star)

    # raw (gaussian)
    return fit.eta + r_star


def to_csv(res: ResidualSet, path) -> None:
    """Export (index, residual, kind) rows for external plotting."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "residual", "kind"])
        for i, v in enumerate(res.values, start=1):
            writer.writerow([i, repr(float(v)), res.kind])
