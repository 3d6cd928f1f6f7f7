"""Bootstrap engines: local residual bootstrap, local response bootstrap,
classical residual bootstrap, and the parametric/pairwise/wild/multiplier
comparison methods.

Every method draws responses y* or weights w* on the one fitted design, so
`run` only supplies the draw of each block of replicates:
`glm.refit_blocks` asks for a block's rows at once and fits them, ordinal
models included, on the column products the design builds once. Replicate
i always consumes the substream (seed, i + 1), with its per-observation
draws in observation order (the local methods take theirs from
`NeighborhoodMap.picker`); a block stacks its replicates' draws and does
the arithmetic on them once, element by element, so each replicate keeps
the bits it would have drawn alone. The blocks do not depend on how many
worker processes run them, so outcomes are bit-identical for any thread
count.

The residual methods (lrb, classical) take their kind's values and inverse
from `residuals.KINDS`: a method needs a kind with an inverse, and `run`
checks that the kind applies to the model's family before it fits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import ndtri

from . import residuals as res
from .data import Dataset, ModelSpec
from .errors import (
    IncompatibleResidual,
    InvalidSize,
    TooFewReplicates,
    TooManyFailures,
    UnsupportedKind,
    UsageError,
)
from .glm import FitOptions, FitResult, family_for, fit_qmle, refit_blocks
from .neighborhood import NeighborhoodMap, build_neighborhoods
from .rng import substream

__all__ = [
    "BootstrapMethod",
    "BootstrapOutcome",
    "run",
    "require_replicates",
    "se_estimate",
    "ci_percentile",
    "p_value",
]

_FAILURE_SHARE = 0.2


@dataclass(frozen=True)
class BootstrapMethod:
    """A bootstrap method, and the one owner of the method grammar: `parse`
    reads a token, `label` prints one, and parse(m.label, l=m.l) == m."""

    kind: str
    residual_kind: str | None = None  # the pool lrb and classical_residual resample
    l: int | None = None  # the neighborhood size of the local methods

    # each kind's printed name; lrb and classical take a -<residual kind> suffix
    _NAMES = {
        "lrb": "lrb", "local_response": "local-response", "classical_residual": "classical",
        "parametric": "parametric", "pairwise": "pairwise", "wild": "wild",
        "multiplier": "multiplier",
    }
    _RESAMPLING = ("lrb", "classical_residual")
    _LOCAL = ("lrb", "local_response")

    def __post_init__(self):
        if self.kind not in self._NAMES:
            raise UnsupportedKind(f"unknown bootstrap method {self.kind!r}")
        entry = res.KINDS.get(self.residual_kind)
        if self.kind in self._RESAMPLING and (entry is None or entry.inverse is None):
            raise IncompatibleResidual(
                f"{self.kind} needs a recreatable residual kind, got {self.residual_kind!r}"
            )

    @classmethod
    def parse(cls, token: str, residual: str | None = None, l: int | None = None):
        """The method a token names, in any case: `lrb-<kind>`, `classical-<kind>`,
        bare `lrb` or `classical` (which take `residual`), `local-response` (or
        `local_response`), `parametric`, `pairwise`, `wild`, `multiplier`.
        Only the local methods keep l."""
        token = token.strip().lower()
        kinds = {name: kind for kind, name in cls._NAMES.items()}
        kinds["local_response"] = "local_response"
        name, dash, named = token.partition("-")
        kind = kinds.get(name)
        if kind in cls._RESAMPLING:
            residual = named if dash else residual
            if residual is None:
                raise UsageError(f"{name} needs --residual")
        else:
            kind, residual = kinds.get(token), None
            if kind is None:
                raise UsageError(f"unknown bootstrap method {token!r}")
        return cls(kind, residual, l if kind in cls._LOCAL else None)

    @staticmethod
    def _size(l) -> int:
        if l is None:
            raise InvalidSize("local methods need a neighborhood size l")
        return int(l)

    @classmethod
    def lrb(cls, residual_kind: str, l: int) -> "BootstrapMethod":
        return cls("lrb", residual_kind, cls._size(l))

    @classmethod
    def local_response(cls, l: int) -> "BootstrapMethod":
        return cls("local_response", l=cls._size(l))

    @classmethod
    def classical_residual(cls, residual_kind: str) -> "BootstrapMethod":
        return cls("classical_residual", residual_kind)

    @classmethod
    def parametric(cls) -> "BootstrapMethod":
        return cls("parametric")

    @classmethod
    def pairwise(cls) -> "BootstrapMethod":
        return cls("pairwise")

    @classmethod
    def wild(cls) -> "BootstrapMethod":
        return cls("wild")

    @classmethod
    def multiplier(cls) -> "BootstrapMethod":
        return cls("multiplier")

    @property
    def is_local(self) -> bool:
        """Whether replicates draw from the l nearest neighbors of each row."""
        return self.kind in self._LOCAL

    @property
    def recreates_responses(self) -> bool:
        return self.kind in self._LOCAL + ("classical_residual", "parametric")

    @property
    def label(self) -> str:
        name = self._NAMES[self.kind]
        return f"{name}-{self.residual_kind}" if self.kind in self._RESAMPLING else name


@dataclass
class BootstrapOutcome:
    """A run's replicates and summaries, a plain record: the CLI turns its
    fields and intervals into JSON. The intervals `ci_normal` and
    `ci_percentile` (q x 2) are computed on first read and kept, so a caller
    that reads only `se_hat` computes no quantile."""

    replicates: np.ndarray  # successful replicates only, B' x q
    se_hat: np.ndarray
    n_failed: int
    estimate: np.ndarray
    coef_names: tuple
    alpha: float
    provenance: dict
    responses: np.ndarray | None = None  # recreated y*, aligned with replicates

    @cached_property
    def ci_normal(self) -> np.ndarray:
        """estimate -/+ z se_hat, z the normal 1 - alpha/2 quantile."""
        z = ndtri(1.0 - self.alpha / 2.0)
        return np.column_stack([self.estimate - z * self.se_hat,
                                self.estimate + z * self.se_hat])

    @cached_property
    def ci_percentile(self) -> np.ndarray:
        """The replicates' alpha/2 and 1 - alpha/2 quantiles (`ci_percentile`)."""
        return ci_percentile(self.replicates, self.alpha)

    def summary_rows(self) -> list:
        """(coefficient, estimate, se, ci_nor, ci_per, two-sided p vs 0) rows."""
        rows = []
        for j, name in enumerate(self.coef_names):
            rows.append(
                {
                    "coefficient": name,
                    "estimate": float(self.estimate[j]),
                    "se_hat": float(self.se_hat[j]),
                    "ci_nor_lo": float(self.ci_normal[j, 0]),
                    "ci_nor_hi": float(self.ci_normal[j, 1]),
                    "ci_per_lo": float(self.ci_percentile[j, 0]),
                    "ci_per_hi": float(self.ci_percentile[j, 1]),
                    "p_two_sided": float(
                        p_value(self.replicates[:, j], 0.0, "two_sided")
                    ),
                }
            )
        return rows


def require_replicates(B: int) -> None:
    """Raise TooFewReplicates unless there are at least two replicates."""
    if B < 2:
        raise TooFewReplicates("need at least 2 bootstrap replicates")


def se_estimate(replicates: np.ndarray) -> np.ndarray:
    """Divisor-B standard deviation per coefficient column."""
    replicates = np.atleast_2d(np.asarray(replicates, dtype=float))
    require_replicates(replicates.shape[0])
    # shifting by a row is a mathematical no-op that keeps constant columns
    # at exactly zero (the plain mean can round an ulp away)
    return (replicates - replicates[0]).std(axis=0, ddof=0)


def ci_percentile(replicates: np.ndarray, alpha: float) -> np.ndarray:
    """Type-7 (linear interpolation) empirical alpha/2 and 1-alpha/2 quantiles."""
    replicates = np.atleast_2d(np.asarray(replicates, dtype=float))
    require_replicates(replicates.shape[0])
    return np.quantile(replicates, [alpha / 2.0, 1.0 - alpha / 2.0], axis=0,
                       method="linear").T


def p_value(replicates: np.ndarray, null_value: float, alternative: str = "two_sided"):
    """Bootstrap p-value by percentile-interval duality."""
    r = np.asarray(replicates, dtype=float).ravel()
    require_replicates(r.shape[0])
    mass_le = float(np.mean(r <= null_value))
    mass_ge = float(np.mean(r >= null_value))
    if alternative == "greater":
        return mass_le
    if alternative == "less":
        return mass_ge
    if alternative == "two_sided":
        return min(1.0, 2.0 * min(mass_le, mass_ge))
    raise UnsupportedKind(f"unknown alternative {alternative!r}")


def _validate(data: Dataset, spec: ModelSpec, method: BootstrapMethod) -> None:
    # the checks that need the data or the model; the method checks its fields
    if method.is_local and not (method.l is not None and 1 <= method.l <= data.n):
        raise InvalidSize(f"neighborhood size must lie in [1, {data.n}]")
    kind = method.residual_kind
    if kind is not None and not res.supports(family_for(spec), kind):
        raise IncompatibleResidual(f"{kind} residuals are not defined for {spec.family} models")
    if method.kind == "wild" and spec.is_ordinal:
        raise IncompatibleResidual("wild bootstrap is not defined for ordinal models")


def _sampler(data, method, fit, seed, neighborhoods):
    """The method's block draw, (first, stop) -> (Y*, W*): replicates
    first..stop-1 as (stop - first) x n arrays, replicate i drawn from the
    generator substream(seed, i + 1) alone.

    Every method refits on the same design: the resampling methods vary the
    responses y* (W* is None), the multiplier and pairwise methods vary only
    the weights w* (pairwise as the multinomial counts of its row draws).
    Each generator makes the calls a replicate drawn alone would make; the
    block stacks them and does the arithmetic once.
    """
    n = data.n
    y = data.y
    family = fit.family
    kind = method.kind

    def blocks(draw):
        return lambda first, stop: draw([substream(seed, i + 1) for i in range(first, stop)])

    def rows(rngs):
        return np.array([rng.integers(0, n, size=n) for rng in rngs])

    if kind == "pairwise":

        def draw(rngs):
            picks = rows(rngs)
            b = len(picks)
            # one bincount over the picks shifted to each replicate's own row
            counts = np.bincount((picks + n * np.arange(b)[:, None]).ravel(), minlength=b * n)
            return np.broadcast_to(y, picks.shape), counts.reshape(b, n)

        return blocks(draw)
    if kind == "multiplier":

        def draw(rngs):
            w = np.array([rng.standard_exponential(n) for rng in rngs])
            return np.broadcast_to(y, w.shape), w

        return blocks(draw)
    if kind == "parametric":
        dispersion = family.dispersion(y, fit)
        return blocks(lambda rngs: (family.simulate(rngs, fit.mu_hat, dispersion), None))
    if kind == "wild":
        wild_resid = y - fit.mu_hat

        def draw(rngs):
            w = np.array([rng.integers(0, 2, size=n) for rng in rngs]) * 2.0 - 1.0
            return family.clamp_response(fit.mu_hat + w * wild_resid), None

        return blocks(draw)
    if kind == "classical_residual":
        pool = res.compute(fit, data, method.residual_kind, rng=substream(seed, 0)).values
        return blocks(lambda rngs: (res.recreate(fit, pool[rows(rngs)], method.residual_kind),
                                    None))
    # lrb and local_response pick one neighbor per observation
    if neighborhoods is None:
        neighborhoods = build_neighborhoods(data, method.l)
    pick = neighborhoods.picker()
    if kind == "local_response":
        return blocks(lambda rngs: (y[pick(rngs)], None))
    pool = res.compute(fit, data, method.residual_kind, rng=substream(seed, 0)).values
    return blocks(lambda rngs: (res.recreate(fit, pool[pick(rngs)], method.residual_kind), None))


def run(
    data: Dataset,
    spec: ModelSpec,
    method: BootstrapMethod,
    B: int,
    alpha: float = 0.05,
    seed: int = 0,
    *,
    n_threads: int = 1,
    fit: FitResult | None = None,
    neighborhoods: NeighborhoodMap | None = None,
    options: FitOptions | None = None,
    keep_responses: bool = False,
) -> BootstrapOutcome:
    """Run B bootstrap replicates and assemble SE estimates; the outcome's
    intervals are computed when first read.

    Replicates are drawn a block at a time by the method's block draw and
    refit on the fitted design by `glm.refit_blocks`; up to n_threads
    worker processes (at most one per two blocks and one per core) take
    whole blocks. Failed replicate fits are dropped and counted; more than
    20% failures aborts. Identical inputs give bit-identical outcomes for
    any n_threads. B < 2 raises TooFewReplicates before any draw or fit.
    """
    require_replicates(B)
    _validate(data, spec, method)
    if keep_responses and not method.recreates_responses:
        raise UnsupportedKind(f"{method.label} does not recreate responses; none to keep")
    if fit is None:
        fit = fit_qmle(data, spec, options)
    draw = _sampler(data, method, fit, seed, neighborhoods)
    blocks = list(refit_blocks(fit.design, fit.family, draw, B, beta0=fit.coef,
                               options=options, n_threads=n_threads,
                               keep_responses=keep_responses))
    ok = np.concatenate([out.ok for out in blocks])
    n_failed = B - int(ok.sum())
    if n_failed > _FAILURE_SHARE * B:
        raise TooManyFailures(
            f"{n_failed}/{B} replicate fits failed "
            f"(method={method.label}, family={spec.family})"
        )
    replicates = np.vstack([out.beta for out in blocks])[ok]
    responses = np.vstack([out.responses for out in blocks])[ok] if keep_responses else None

    provenance = {
        "method": method.kind,
        "residual_kind": method.residual_kind,
        "l": method.l,
        "B": B,
        "alpha": alpha,
        "seed": seed,
        "first_slope": fit.first_slope,
    }
    return BootstrapOutcome(
        replicates=replicates,
        se_hat=se_estimate(replicates),
        n_failed=n_failed,
        estimate=fit.coef,
        coef_names=fit.coef_names,
        alpha=alpha,
        provenance=provenance,
        responses=responses,
    )
