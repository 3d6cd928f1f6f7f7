"""Residual kinds and their inversion back into responses.

Each kind is one entry of `KINDS`: the families it applies to, its values
(fit, y, rng) -> r, which `compute` returns as one array, and its inverse
(fit, r*) -> y*, which recreates responses from resampled residuals
(deviance residuals have none). An inverse takes one vector r* (n,) or a
block of them (b x n), a row per replicate, and works element by element,
so a block gives each row the bits that row alone would. An entry asks the family for a capability, not
for its name: a scalar mean and variance (Pearson, deviance), the
categorical view `latent` (SBS, surrogate), or the identity link (raw).
Every family rule comes from `fit.family`. Surrogate residuals draw a
latent variable truncated to the interval implied by the observed
category, via inverse-CDF sampling stabilized with complementary CDFs in
the tails.
"""

from __future__ import annotations

import csv
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from .data import Dataset
from .errors import DegenerateTruncation, UnsupportedKind
from .glm import FitResult

__all__ = [
    "KINDS",
    "supports",
    "compute",
    "recreate",
    "surrogate_values",
    "to_csv",
]

_MIN_MASS = 1e-300


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
    """Surrogate residuals s - eta: one latent draw s per observation from
    the link's latent distribution, truncated to the observed category."""
    if rng is None:
        raise UnsupportedKind("surrogate residuals need an RNG")
    lo, hi = latent_intervals(fit, y)
    cdf, ppf = fit.family.latent
    u = rng.random(y.shape[0])
    return _trunc_standard(u, lo, hi, cdf, ppf)


# -- the kinds ----------------------------------------------------------------


def _scalar(family) -> bool:
    """Whether the family has a scalar mean and variance per observation."""
    return family.n_cut == 0


def _categorical(family) -> bool:
    """Whether the family has the categorical view (binary and ordinal)."""
    return hasattr(family, "latent")


def _pearson(fit, y, rng):
    """(y - mu) / sqrt(V(mu))."""
    return (y - fit.mu_hat) / np.sqrt(fit.var_hat)


def _pearson_inverse(fit, r):
    return fit.family.clamp_response(fit.mu_hat + np.sqrt(fit.var_hat) * r)


def _deviance(fit, y, rng):
    """sign(y - mu) * sqrt(2 * family deviance contribution)."""
    mu = fit.mu_hat
    d = fit.family.half_deviance(y, mu)
    return np.sign(y - mu) * np.sqrt(2.0 * np.clip(d, 0.0, None))


def _sbs_grid(fit):
    """P(Y < j) - P(Y > j) under the fitted model, per observation (rows)
    and category j (columns)."""
    probs = fit.family.category_probs(fit.mu_hat)
    cum = np.concatenate([np.zeros((probs.shape[0], 1)), np.cumsum(probs, axis=1)], axis=1)
    return cum[:, :-1] + cum[:, 1:] - 1.0


def _sbs(fit, y, rng):
    """The SBS value of each observed category; values in (-1, 1)."""
    return _sbs_grid(fit)[np.arange(y.shape[0]), fit.family.codes(y) - 1]


def _sbs_inverse(fit, r):
    """A binary model's category is the sign of r*; an ordinal model's is
    the one whose SBS value lies nearest r*, the smaller on a tie."""
    family = fit.family
    if _scalar(family):
        return family.from_codes((r > 0.0).astype(int) + 1)
    nearest = np.argmin(np.abs(_sbs_grid(fit) - r[..., None]), axis=-1)
    return family.from_codes(nearest + 1)


def _surrogate_inverse(fit, r):
    """Category j where the latent r* + eta lies in (alpha_{j-1}, alpha_j]:
    one plus the number of thresholds below it."""
    family = fit.family
    thresholds = family.thresholds(fit)
    latent = r + fit.eta
    # the smallest integer type that holds every code: a third b x n array of
    # 8-byte ints beside r* and the latent values made the allocator return
    # and re-fault heap pages on every 16 x 2000 block (about 150 faults)
    codes = np.ones(latent.shape, dtype=np.min_scalar_type(len(thresholds) + 1))
    for alpha in thresholds:
        codes += alpha < latent
    return family.from_codes(codes)


class Kind(NamedTuple):
    applies: Callable  # family -> bool
    values: Callable  # (fit, y, rng) -> r
    inverse: Callable | None  # (fit, r*) -> y*


KINDS = {
    "pearson": Kind(_scalar, _pearson, _pearson_inverse),
    "deviance": Kind(_scalar, _deviance, None),
    "sbs": Kind(_categorical, _sbs, _sbs_inverse),
    "surrogate": Kind(_categorical, surrogate_values, _surrogate_inverse),
    "raw": Kind(
        lambda family: family.link == "identity",
        lambda fit, y, rng: y - fit.mu_hat,
        lambda fit, r: fit.eta + r,
    ),
}


def supports(family, kind: str) -> bool:
    """Whether the residual kind is defined for the family object."""
    entry = KINDS.get(kind)
    return entry is not None and entry.applies(family)


def _entry(family, kind: str) -> Kind:
    if kind not in KINDS:
        raise UnsupportedKind(f"unknown residual kind {kind!r}")
    if not supports(family, kind):
        raise UnsupportedKind(f"{kind} residuals are not defined for {family.name} models")
    return KINDS[kind]


def compute(fit: FitResult, data: Dataset, kind: str, rng=None) -> np.ndarray:
    """Residuals of `kind` at `fit`, one per observation; surrogate
    residuals need `rng`, a Generator."""
    return _entry(fit.family, kind).values(fit, data.y, rng)


def recreate(fit: FitResult, r_star: np.ndarray, kind: str) -> np.ndarray:
    """Invert resampled residuals into recreated responses: a vector (n,)
    into one response vector, a block (b x n) into b of them, row by row."""
    inverse = _entry(fit.family, kind).inverse
    if inverse is None:
        raise UnsupportedKind(f"{kind} residuals have no recreation rule")
    return inverse(fit, np.asarray(r_star, dtype=float))


def to_csv(values: np.ndarray, kind: str, path) -> None:
    """Export (index, residual, kind) rows for external plotting."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "residual", "kind"])
        for i, v in enumerate(values, start=1):
            writer.writerow([i, repr(float(v)), kind])
