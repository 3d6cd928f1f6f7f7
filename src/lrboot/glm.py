"""GLM families, the cumulative-link ordinal model, and QMLE fitting.

A family object owns what a (family, link) pair means: mean, variance,
log-likelihood, unit deviance, dispersion and response simulation, and for
binary and ordinal models the categorical view that SBS and surrogate
residuals use. `family_for(spec)` and `FitResult.family` return it.

Every fit runs one driver, `fit_design_batch`: Newton-type steps for a block
of response vectors on one `DesignInfo`, with step-halving, convergence
declared on the max-abs score component, and a failure class recorded per
row. `fit_qmle`, which fits every model, is a one-row call of it, and
`FitResult.at` builds the fit at any coefficient vector. The design owns
what fits derive from its matrix (the transpose, the column products of
X' diag(w) X, the constant-column flags and the rank), built once per design,
so every block fit on one design shares them. A family supplies what the
driver needs for a block: per-row screens and cold starts, log-likelihood
terms, and the score with a positive semi-definite information; its
`for_block` may hand a block to a variant that relies on what the block's
responses share, tested once per block. The probit family gives the exact
gradient and the observed information, so its steps are Newton's and
converge quadratically (McCullagh & Nelder 1989, sec. 2.5); on a block of
0/1 responses it reuses the log-likelihood terms of the accepted step, so an
iteration costs one `log_ndtr` pass. Every other GLM family has its
canonical link, where the Fisher information equals the observed one, so its
Fisher-scoring steps are Newton's too. The cumulative-probit model
(`CumulativeProbit`, McCullagh 1980, JRSS-B) is maximized over its own
coefficients (alpha, beta), where its log-likelihood is concave (Pratt
1981). It takes Newton steps too: the exact gradient and the observed
information, from each observation's own two category edges and the
accepted step's `loglik_terms`, each category probability taken on the
nearer tail of its edges. A step whose cutpoints do not strictly increase
leaves the model's domain and is halved, as a gamma step to eta <= 0 is.
Every block of a warm `refit_blocks` run starts at one coefficient vector
(a bootstrap's beta-hat, a pseudo-truth's pilot fit), and the run makes
that start once, before it forks (`_Start`): the coefficients, their eta
(one n-vector that every block copies into its rows) and, for a family
whose block responses take finitely many values (0/1 for binary probit,
the J codes for the ordinal model), a table of the log-likelihood terms
and the first score's per-observation factors, J x n each, at that eta.
Its blocks take each row's with `np.take`, at the bits of computing them
itself. A run from cold starts and a `fit_design_batch` call form and
evaluate each row's start row by row, as do families without a finite
response set.
The ordinal information is built only on a score where some row steps, its
category sums only for those rows. Every caller that fits many response
vectors runs `refit_blocks`, which fits them in blocks of `block_rows(n)`
rows, each drawn whole by one call of the caller's draw: max(1, 2**15 // n)
rows for every family (16 at n=2000), as every array of a block fit, the
ordinal model's included, is b x n. Asked for more than one worker, it forks worker
processes, which inherit the design, its products and the draw, so
nothing is shipped to them; each fits a fixed round-robin share of the
blocks and pickles its `BatchFit`s back over a pipe. Workers number at most
one per two blocks and one per core the process may run on; where
`os.fork` does not exist, the blocks run serially.

A block fit writes every b x n array (the gathered rows of Y, W, eta and the
log-likelihood terms, the candidate eta, the terms, and each family's score
temporaries) into a `Workspace` of named buffers, so its Newton loop
allocates no fresh pages. Each thread keeps one, sized by the cell budget
and reused by its later block fits on any design, and drops it when the
thread ends; a forked worker starts from a copy of its parent's. It holds at
most 17 slots of 256 KB (4.25 MB) per live thread, which a weighted ordinal
block fills; at n=2000 a warm 16-row block uses 10 (2.5 MB) for binary
probit responses and 16 (4 MB) for ordinal ones. A block above the
budget, such as `fit_qmle` at n > 32,768, gets a workspace for its call
alone.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import sys
import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import expit, log_ndtr, logit, ndtr, ndtri

from .data import Dataset, DesignInfo, ModelSpec, build_design
from .errors import (
    DimensionMismatch,
    EmptyCategory,
    FitError,
    NonConvergence,
    RankDeficient,
    SeparationDetected,
    UnsupportedKind,
)

__all__ = [
    "FitOptions",
    "FitResult",
    "BatchFit",
    "Workspace",
    "CumulativeProbit",
    "fit_qmle",
    "fit_design_batch",
    "refit_blocks",
    "block_rows",
    "predict_mean",
    "family_for",
    "ordinal_probs",
]

_LOG_SQRT2PI = np.log(np.sqrt(2.0 * np.pi))
_MU_EPS = 1e-12
_P_MIN = 1e-300  # floor of an ordinal category probability inside the log
_LOG_P_MIN = np.log(_P_MIN)

# Response cells (rows x observations) per refit block. Every working array
# of a block fit, in every family, is b x n, so a fixed budget keeps refit
# memory flat in n, while each block still spreads the driver's
# per-iteration Python work over many rows (16 at n=2000).
_REFIT_CELLS = 2**15


def block_rows(n: int) -> int:
    """Rows per refit block for n observations, within the cell budget: the
    same for every family, as every array of a block fit is b x n."""
    return max(1, _REFIT_CELLS // n)


class Workspace:
    """Named buffers for the b x n arrays of block fits, each of `cells`
    entries, allocated on first use. `floats` and `ints` view a slot in the
    shape asked for, so blocks of any row count on designs of any n share
    the slots while b * n <= cells. A view is valid until the next request
    for its slot."""

    def __init__(self, cells: int):
        self.cells = cells
        self._slots = {}

    def floats(self, name: str, shape) -> np.ndarray:
        return self._view(name, shape, np.float64)

    def ints(self, name: str, shape) -> np.ndarray:
        return self._view(name, shape, np.intp)

    def _view(self, name, shape, dtype):
        buf = self._slots.get((name, dtype))
        if buf is None:
            buf = self._slots[name, dtype] = np.empty(self.cells, dtype=dtype)
        return buf[: math.prod(shape)].reshape(shape)


_THREAD = threading.local()


def _workspace(cells: int) -> Workspace:
    """The calling thread's workspace, made on its first block fit and kept
    until the thread ends; a block above the cell budget gets a workspace
    for its call alone."""
    if cells > _REFIT_CELLS:
        return Workspace(cells)
    if not hasattr(_THREAD, "workspace"):
        _THREAD.workspace = Workspace(_REFIT_CELLS)
    return _THREAD.workspace


def _info(design, wk):
    """The information X' diag(wk) X of the rows a mask selects."""
    return lambda sel: design.gram(wk if sel.all() else wk[sel])


def _log_phi(x, out):
    """The standard normal log-density at x, written into out."""
    np.square(x, out=out)
    out *= -0.5
    out -= _LOG_SQRT2PI
    return out


def _ones(like, out):
    out = np.empty_like(like) if out is None else out
    out.fill(1.0)
    return out


def _xlogy(x, y):
    with np.errstate(divide="ignore", invalid="ignore"):
        out = x * np.log(y)
    return np.where(x == 0.0, 0.0, out)


@dataclass(frozen=True)
class FitOptions:
    tol: float = 1e-8
    max_iter: int = 100
    max_halvings: int = 30
    separation_bound: float = 1e4


@dataclass
class FitResult:
    """QMLE output; `coef` concatenates cutpoints (ordinal) and slopes."""

    beta_hat: np.ndarray
    alpha_hat: np.ndarray | None
    mu_hat: np.ndarray  # ordinal: n x J category-probability matrix
    var_hat: np.ndarray | None
    loglik: float
    iterations: int
    converged: bool
    grad_norm: float
    spec: ModelSpec
    design: DesignInfo

    @classmethod
    def at(cls, coef, spec: ModelSpec, design: DesignInfo, *, loglik=0.0,
           iterations=0, grad_norm=0.0) -> "FitResult":
        """The fit of `spec` on `design` at the coefficient vector `coef`
        (cutpoints, then slopes): its fitted means and variances, with the
        fit statistics given (zero by default)."""
        alpha, beta, mu, var = family_for(spec).fitted(design.matrix, coef)
        return cls(beta, alpha, mu, var, loglik, iterations, True, grad_norm,
                   spec, design)

    @property
    def coef(self) -> np.ndarray:
        if self.alpha_hat is None:
            return self.beta_hat
        return np.concatenate([self.alpha_hat, self.beta_hat])

    @property
    def coef_names(self) -> tuple[str, ...]:
        n_cut = 0 if self.alpha_hat is None else len(self.alpha_hat)
        return _coef_names(self.design, n_cut)

    @property
    def first_slope(self) -> int:
        """Index of the first covariate slope within `coef`."""
        if self.alpha_hat is None:
            return self.design.first_slope
        return len(self.alpha_hat)

    @cached_property
    def eta(self) -> np.ndarray:
        """The linear predictor X beta_hat, computed on first read and kept
        (read-only), so a bootstrap draw does not redo the product."""
        eta = self.design.matrix @ self.beta_hat
        eta.flags.writeable = False
        return eta

    @property
    def family(self):
        """The family object of `spec` (see `family_for`)."""
        return family_for(self.spec)


def _coef_names(design: DesignInfo, n_cut: int) -> tuple[str, ...]:
    """Names of (cutpoints, design coefficients) with n_cut cutpoints."""
    return tuple(f"alpha_{j + 1}" for j in range(n_cut)) + design.coef_names


# ---------------------------------------------------------------------------
# families


class _BaseFamily:
    """A GLM family: mean, variance and log-likelihood per observation, and
    the hooks `fit_design_batch` calls for a block of rows, each row a
    coefficient vector (cutpoints, then slopes): `for_block`, `screen`,
    `start`, `valid`, `loglik_terms`, `score` and `table_family`. A family
    with a finite set of response `values` also has `cells` and
    `score_cells` (see `score`). A family's
    `simulate(rngs, mu, dispersion)` draws a len(rngs) x n block of
    responses at the means mu, row r from rngs[r] alone."""

    name = ""
    link = ""
    check_separation = False
    n_cut = 0  # cutpoints ahead of the slopes in a coefficient vector
    values = None  # the finite response set, ascending consecutive integers
    free_dispersion = False  # simulate with a Pearson dispersion estimate

    def for_block(self, Y):
        """The family object that fits the response block Y: this one, or a
        variant that relies on what every response of the block shares,
        tested here once per block rather than in each hook call."""
        return self

    def screen(self, design, Y, W):
        """Per-row errors known before fitting; None where a row can be fit."""
        return [None] * Y.shape[0]

    def start(self, design, y, w):
        """Cold start for one response vector."""
        return np.zeros(design.q)

    def valid(self, coef, eta):
        """Whether each coefficient vector (last axis) and its linear
        predictor eta lie in the model's domain: a bool for 1-D arguments,
        one bool per row for 2-D ones."""
        return np.ones(np.shape(coef)[:-1], dtype=bool)

    def clamp_response(self, vals):
        return vals

    def table_family(self):
        """The family that fits this family's blocks whose responses lie in
        a finite set of `values`, and so takes a run's start table (see
        `_Start`), or None for a family without one."""
        return None if self.values is None else self

    def score(self, ws, design, Y, W, coef, eta, terms):
        """Quasi-score per row, and a function giving the Fisher information
        X' diag(w D^2 / V) X of the rows a mask selects. `terms` holds the
        `loglik_terms` at eta, for a family that can reuse them. The driver
        calls the information function at most once, before its next hook
        call, and only on a score where some row takes a step.

        Every hook writes its b x n arrays into the workspace `ws`: the
        scores into slots "s0", "s1", ..., `loglik_terms` its result into
        slot "loglik", which no score writes. A family with a finite set of
        response `values` scores in two hooks: `cells` leaves its
        per-observation factors in slots "s0", "s1", ... in order, and
        `score_cells` sums them, so that a `_Start` can hold the cells of a
        shared start."""
        shape = np.shape(eta)
        mu = self.mean(eta, out=ws.floats("s0", shape))
        D = self.mean_deriv(eta, out=ws.floats("s1", shape))
        V = self.variance(mu, out=ws.floats("s2", shape))
        u = np.divide(D, V, out=ws.floats("s3", shape))
        u *= np.subtract(Y, mu, out=mu)  # D / V * (Y - mu)
        g = (u if W is None else np.multiply(W, u, out=u)) @ design.matrix
        wk = D if W is None else np.multiply(W, D, out=mu)
        wk *= D
        wk /= V  # (w) D D / V
        return g, _info(design, wk)

    def fitted(self, Xd, coef):
        """(cutpoints, slopes, fitted means, variances) at one coefficient vector."""
        mu = self.mean(Xd @ coef)
        return None, coef, mu, self.variance(mu)

    def dispersion(self, y, fit):
        """Pearson chi^2 / (n - q) for a family with a free dispersion, else None."""
        if not self.free_dispersion:
            return None
        pearson = (y - fit.mu_hat) / np.sqrt(fit.var_hat)
        return float(np.sum(pearson**2) / max(len(y) - fit.design.q, 1))


class _Binomial(_BaseFamily):
    """What the binomial links share: variance, the separation screen,
    response simulation, the unit deviance and the categorical view."""

    name = "binomial"
    check_separation = True

    def variance(self, mu, out=None):
        return np.multiply(mu, np.subtract(1.0, mu, out=out), out=out)

    def screen(self, design, Y, W):
        # with a constant column, responses that are all 0 or all 1 are
        # fitted better by every larger intercept: no MLE exists
        errors = super().screen(design, Y, W)
        if design.constant_columns.any():
            dead = np.zeros(Y.shape, dtype=bool) if W is None else W <= 0.0
            constant = np.all((Y == 0.0) | dead, axis=1) | np.all((Y == 1.0) | dead, axis=1)
            for r in np.flatnonzero(constant):
                errors[r] = SeparationDetected(
                    "responses are all 0 or all 1; the data are separated"
                )
        return errors

    def clamp_response(self, vals):
        return np.clip(vals, 0.0, 1.0)

    def simulate(self, rngs, mu, dispersion=None):
        return (np.array([rng.random(mu.shape[0]) for rng in rngs]) < mu).astype(float)

    def half_deviance(self, y, mu):
        """Half the unit deviance d(y; mu) per observation."""
        return _xlogy(y, y / mu) + _xlogy(1.0 - y, (1.0 - y) / (1.0 - mu))

    # categorical view: code 2 (y = 1) where the latent variable exceeds 0;
    # each link sets `latent`, the cdf and ppf of its standard latent variable

    def category_probs(self, mu):
        return np.column_stack([1.0 - mu, mu])

    def codes(self, y):
        return (y > 0.5).astype(int) + 1

    def thresholds(self, fit):
        return np.array([0.0])

    def from_codes(self, codes):
        return (codes == 2).astype(float)


def _probit_score(design, W, u, h):
    """The score sum of w u x per row, and the information of the rows a
    mask selects from the per-observation information h."""
    g = (u if W is None else np.multiply(W, u, out=u)) @ design.matrix
    return g, _info(design, h if W is None else np.multiply(W, h, out=h))


class BinomialProbit(_Binomial):
    """The probit link for responses in [0, 1]. Its hooks take the two-term
    forms; a block of binary responses is fit by `_BinaryProbit`, whose
    one-term forms give the same bits at half the special-function cost."""

    link = "probit"
    latent = (ndtr, ndtri)

    def mean(self, eta):
        return np.clip(ndtr(eta), _MU_EPS, 1.0 - _MU_EPS)

    def for_block(self, Y):
        if np.all((Y == 0.0) | (Y == 1.0)):
            return _BINARY_PROBIT
        return _FAMILIES["binomial", "probit"]

    def table_family(self):
        return _BINARY_PROBIT

    def loglik_terms(self, ws, y, eta, coef=None):
        t = ws.floats("loglik", np.shape(eta))
        t = np.multiply(y, log_ndtr(eta, out=t), out=t)
        down = np.negative(eta, out=ws.floats("s0", t.shape))
        log_ndtr(down, out=down)
        down *= np.subtract(1.0, y, out=ws.floats("s1", t.shape))
        t += down  # y log Phi(eta) + (1 - y) log Phi(-eta)
        return t

    def score(self, ws, design, Y, W, coef, eta, terms):
        """Exact gradient of the probit log-likelihood and its observed
        information, with lam(z) = phi(z) / Phi(z) taken in log space: the
        score is Y lam(eta) - (1 - Y) lam(-eta), the information
        Y lam(eta) (lam(eta) + eta) + (1 - Y) lam(-eta) (lam(-eta) - eta).
        The information is positive because Phi is log-concave."""
        shape = np.shape(eta)
        log_phi = _log_phi(eta, ws.floats("s0", shape))
        up = log_ndtr(eta, out=ws.floats("s1", shape))
        np.subtract(log_phi, up, out=up)
        np.exp(up, out=up)
        down = np.negative(eta, out=ws.floats("s2", shape))
        log_ndtr(down, out=down)
        np.subtract(log_phi, down, out=down)
        np.exp(down, out=down)
        h = np.multiply(Y, up, out=ws.floats("s3", shape))  # Y up
        rest = np.multiply(np.subtract(1.0, Y, out=log_phi), down, out=log_phi)  # (1 - Y) down
        u = np.subtract(h, rest, out=ws.floats("s4", shape))
        h *= np.add(up, eta, out=up)
        rest *= np.subtract(down, eta, out=down)
        h += rest  # Y up (up + eta) + (1 - Y) down (down - eta)
        return _probit_score(design, W, u, h)


class _BinaryProbit(BinomialProbit):
    """The probit link on a block of 0/1 responses, where every term is one
    function of z = (2y - 1) eta."""

    values = np.array([0.0, 1.0])

    def loglik_terms(self, ws, y, eta, coef=None):
        # one log_ndtr per observation, at (2y - 1) eta: eta where y = 1 and
        # -eta where y = 0, exactly; bit-identical to the two-term form
        t = np.multiply(y, 2.0, out=ws.floats("loglik", np.shape(eta)))
        t -= 1.0
        t *= eta
        return log_ndtr(t, out=t)

    def score(self, ws, design, Y, W, coef, eta, terms):
        return self.score_cells(ws, design, Y, W, coef, self.cells(ws, Y, coef, eta, terms))

    def cells(self, ws, Y, coef, eta, terms):
        """The score factor (2y - 1) lam(z) and the information
        lam(z) (lam(z) + z) per observation, with `terms` already holding
        log Phi(z)."""
        shape = np.shape(eta)
        s = np.multiply(Y, 2.0, out=ws.floats("s0", shape))
        s -= 1.0
        z = np.multiply(s, eta, out=ws.floats("s1", shape))
        lam = _log_phi(z, ws.floats("s2", shape))
        lam -= terms
        np.exp(lam, out=lam)
        u = np.multiply(s, lam, out=s)  # s lam
        h = np.multiply(np.add(z, lam, out=z), lam, out=z)  # lam (lam + z)
        return u, h

    def score_cells(self, ws, design, Y, W, coef, cells):
        return _probit_score(design, W, *cells)


_BINARY_PROBIT = _BinaryProbit()


class BinomialLogit(_Binomial):
    link = "logit"
    latent = (expit, logit)  # the link is canonical: Fisher scoring is Newton's method

    def mean(self, eta, out=None):
        return np.clip(expit(eta, out=out), _MU_EPS, 1.0 - _MU_EPS, out=out)

    def mean_deriv(self, eta, out=None):
        mu = expit(eta)
        return np.multiply(mu, np.subtract(1.0, mu, out=out), out=out)

    def loglik_terms(self, ws, y, eta, coef=None):
        t = np.multiply(y, eta, out=ws.floats("loglik", np.shape(eta)))
        t -= np.logaddexp(0.0, eta, out=ws.floats("s0", t.shape))
        return t


class PoissonLog(_BaseFamily):
    name, link = "poisson", "log"

    def mean(self, eta, out=None):
        with np.errstate(over="ignore"):
            return np.exp(np.clip(eta, -700.0, 700.0, out=out), out=out)

    def mean_deriv(self, eta, out=None):
        return self.mean(eta, out=out)

    def variance(self, mu, out=None):
        return np.maximum(mu, _MU_EPS, out=out)

    def loglik_terms(self, ws, y, eta, coef=None):
        t = np.multiply(y, eta, out=ws.floats("loglik", np.shape(eta)))
        t -= self.mean(eta, out=ws.floats("s0", t.shape))
        return t

    def clamp_response(self, vals):
        return np.maximum(vals, 0.0)

    def simulate(self, rngs, mu, dispersion=None):
        return np.array([rng.poisson(mu) for rng in rngs]).astype(float)

    def half_deviance(self, y, mu):
        return _xlogy(y, y / mu) - (y - mu)


class GammaInverse(_BaseFamily):
    name, link = "gamma", "inverse"
    free_dispersion = True

    def mean(self, eta, out=None):
        return np.divide(1.0, np.maximum(eta, _MU_EPS, out=out), out=out)

    def mean_deriv(self, eta, out=None):
        m = np.maximum(eta, _MU_EPS, out=out)
        np.square(m, out=m)
        return np.divide(-1.0, m, out=m)

    def variance(self, mu, out=None):
        return np.square(mu, out=out)

    def loglik_terms(self, ws, y, eta, coef=None):
        t = np.negative(y, out=ws.floats("loglik", np.shape(eta)))
        with np.errstate(divide="ignore", invalid="ignore"):
            t *= eta
            t += np.log(eta, out=ws.floats("s0", t.shape))  # -y eta + log eta
        return t

    def valid(self, coef, eta):
        return np.all(eta > 0, axis=-1)

    def clamp_response(self, vals):
        return np.maximum(vals, 1e-12)

    def start(self, design, y, w):
        # eta must start positive; beta = 0 is inadmissible for this link
        Xd = design.matrix
        beta = np.zeros(design.q)
        if design.constant_columns[0]:
            beta[0] = 1.0 / (Xd[0, 0] * max(float(np.mean(y)), 1e-8))
            return beta
        target = 1.0 / np.clip(y, 1e-8, None)
        beta, *_ = np.linalg.lstsq(Xd, target, rcond=None)
        for _ in range(60):
            if np.all(Xd @ beta > 0):
                return beta
            beta *= 0.5
            beta += 0.5 * np.full_like(beta, 1e-3)
        raise NonConvergence("no admissible starting point for the inverse link")

    def simulate(self, rngs, mu, dispersion=None):
        shape = 1.0 if not dispersion else 1.0 / dispersion
        scale = mu / shape
        return np.array([rng.gamma(shape, scale) for rng in rngs])

    def half_deviance(self, y, mu):
        return -np.log(y / mu) + (y - mu) / mu


class GaussianIdentity(_BaseFamily):
    name, link = "gaussian", "identity"
    free_dispersion = True

    def mean(self, eta, out=None):
        return np.positive(eta, out=out)  # a copy, which callers may write into

    def mean_deriv(self, eta, out=None):
        return _ones(eta, out)

    def variance(self, mu, out=None):
        return _ones(mu, out)

    def loglik_terms(self, ws, y, eta, coef=None):
        t = np.subtract(y, eta, out=ws.floats("loglik", np.shape(eta)))
        np.square(t, out=t)
        t *= -0.5
        return t

    def simulate(self, rngs, mu, dispersion=None):
        sd = np.sqrt(dispersion) if dispersion else 1.0
        return mu + sd * np.array([rng.standard_normal(mu.shape[0]) for rng in rngs])

    def half_deviance(self, y, mu):
        return 0.5 * np.square(y - mu)


class CumulativeProbit(_BaseFamily):
    """Cumulative-link probit model for responses coded 1..J:
    P(Y <= j) = Phi(alpha_j - eta) with increasing cutpoints alpha.

    Coefficients are (alpha_1..alpha_{J-1}, beta), and fits take Newton
    steps in them with the observed information (see `score`). Cutpoints
    that do not strictly increase lie outside the model's domain (`valid`).
    """

    name, link = "ordinal", "probit"

    def __init__(self, J: int):
        self.J = J  # categories
        self.n_cut = J - 1
        self.values = np.arange(1.0, J + 1.0)

    def _counts(self, Y, W):
        """Weighted count of each category per row (b x J)."""
        return np.stack(
            [
                np.sum(Y == c, axis=1) if W is None else np.sum(W * (Y == c), axis=1)
                for c in range(1, self.J + 1)
            ],
            axis=1,
        )

    def screen(self, design, Y, W):
        J = self.J
        if not np.all((Y == np.round(Y)) & (Y >= 1) & (Y <= J)):
            raise UnsupportedKind(f"ordinal responses must be integer codes in 1..{J}")
        # a category whose rows all carry zero weight is empty too (a pairwise
        # resample expressed as multinomial counts)
        counts = self._counts(Y, W)
        errors = [None] * Y.shape[0]
        for r in np.flatnonzero(np.any(counts == 0, axis=1)):
            missing = int(np.argmin(counts[r])) + 1
            errors[r] = EmptyCategory(f"category {missing} has no observations")
        return errors

    def start(self, design, y, w):
        counts = self._counts(y[None], None if w is None else w[None])[0]
        cum = np.cumsum(counts)[: self.n_cut] / np.sum(counts)
        return np.concatenate([ndtri(cum), np.zeros(design.q)])

    def valid(self, coef, eta):
        return np.all(np.diff(coef[..., : self.n_cut], axis=-1) > 0, axis=-1)

    def _edges(self, ws, Y, eta, coef):
        """Each observation's own category edges less eta: u = alpha_k - eta
        and l = alpha_{k-1} - eta for Y = k, with alpha_0 = -inf and
        alpha_J = inf (b x n each, in slots "s0" and "s1")."""
        side = np.full((len(coef), 1), np.inf)
        edges = np.concatenate([-side, coef[:, : self.n_cut], side], axis=1)
        # flat index of edge k in each row of edges
        k = ws.ints("i0", np.shape(Y))
        np.copyto(k, Y, casting="unsafe")
        k += np.arange(0, edges.size, self.J + 1)[:, None]
        upper = np.take(edges, k, out=ws.floats("s0", k.shape), mode="clip")
        upper -= eta
        k -= 1
        lower = np.take(edges, k, out=ws.floats("s1", k.shape), mode="clip")
        lower -= eta
        return upper, lower

    def loglik_terms(self, ws, y, eta, coef):
        upper, lower = self._edges(ws, y, eta, coef)
        # take P = Phi(u) - Phi(l) on the nearer tail, as Phi(-l) - Phi(-u)
        # where l > 0: there both Phi terms round toward 1
        s = np.multiply(lower > 0.0, -2.0, out=ws.floats("loglik", upper.shape))
        s += 1.0  # -1 where l > 0, else 1
        ndtr(np.multiply(s, upper, out=upper), out=upper)
        ndtr(np.multiply(s, lower, out=lower), out=lower)
        s *= np.subtract(upper, lower, out=upper)
        np.maximum(s, _P_MIN, out=s)
        return np.log(s, out=s)

    def score(self, ws, design, Y, W, coef, eta, terms):
        """Exact gradient and observed information in (alpha, beta).

        An observation in category k touches only its own edges u and l (see
        `_edges`). With P = exp(terms), the accepted step's probability, take
        a = phi(u) / P and c = phi(l) / P. The information of log P is
        u a - l c + (a - c)^2 in eta, a (u + a) in alpha_k, c (c - l) in
        alpha_{k-1}, -a c between the two cutpoints, and -a (u + a - c) and
        c (l + a - c) between them and eta. It is positive semi-definite, as
        the log-likelihood is concave in (alpha, beta) (Pratt 1981).
        """
        return self.score_cells(ws, design, Y, W, coef, self.cells(ws, Y, coef, eta, terms))

    def cells(self, ws, Y, coef, eta, terms):
        """Each observation's edges u and l (0 where infinite), a, c and
        d = a - c (see `score`)."""
        shape = np.shape(Y)
        u, l = self._edges(ws, Y, eta, coef)
        # the log-likelihood is flat where loglik_terms clips P at _P_MIN,
        # so those cells add nothing
        inv = np.negative(terms, out=ws.floats("s4", shape))
        np.exp(inv, out=inv)
        inv[~(terms > _LOG_P_MIN)] = 0.0
        a, c = ws.floats("s2", shape), ws.floats("s3", shape)
        for v, edge in ((a, u), (c, l)):
            np.exp(_log_phi(edge, v), out=v)
            v *= inv  # phi(edge) / P
        # phi is 0 at an infinite edge, and so are u a and l c
        u[np.isinf(u)] = 0.0
        l[np.isinf(l)] = 0.0
        return u, l, a, c, np.subtract(a, c, out=inv)

    def score_cells(self, ws, design, Y, W, coef, cells):
        """The gradient from the cells, and the information of the rows a
        mask selects, built when asked for: its category sums and cross
        terms for those rows alone, its gram on every row, as BLAS bits
        depend on the row count. The information overwrites the cells."""
        u, l, a, c, d = cells
        K, J = self.n_cut, self.J
        b, shape = len(coef), np.shape(Y)
        slot = ws.ints("i0", shape)
        np.copyto(slot, Y, casting="unsafe")
        slot += (J * np.arange(b) - 1)[:, None]
        tmp, weighted = ws.floats("s5", shape), ws.floats("s6", shape)

        def by_cat(v, w=W):
            """Weighted sum of v over each row's observations in each
            category (rows x J), for the leading rows of the cells that v
            has. Category j + 1 (0-based j) has upper edge alpha_j and lower
            edge alpha_{j-1}, so [:, :K] sums terms of upper edges by
            cutpoint and [:, 1:] terms of lower edges."""
            m = len(v)
            v = v if w is None else np.multiply(w, v, out=weighted[:m])
            return np.bincount(slot[:m].ravel(), weights=v.ravel(),
                               minlength=m * J).reshape(m, J)

        g_beta = np.subtract(c, a, out=tmp)
        g_beta = (g_beta if W is None else np.multiply(W, g_beta, out=g_beta)) @ design.matrix
        g = np.concatenate([by_cat(a)[:, :K] - by_cat(c)[:, 1:], g_beta], axis=1)

        def info(sel):
            h_eta = np.multiply(u, a, out=ws.floats("s7", shape))
            h_eta -= np.multiply(l, c, out=tmp)
            h_eta += np.multiply(d, d, out=tmp)  # u a - l c + d d
            gram = design.gram(h_eta if W is None else np.multiply(W, h_eta, out=h_eta))
            rows = np.flatnonzero(sel)
            m, n = rows.size, shape[1]
            # the selected rows' cells move up to the first m rows, in order
            for i, r in enumerate(rows):
                if r > i:
                    for v in (u, l, a, c, d):
                        v[i] = v[r]
                    np.subtract(slot[r], J * (r - i), out=slot[i])
            cu, cl, ca, cc, cd = (v[:m] for v in (u, l, a, c, d))
            w = W if W is None or m == b else np.take(
                W, rows, axis=0, out=ws.floats("s7", (m, n)), mode="clip")
            up_eta = np.add(cu, cd, out=ws.floats("s8", (m, n)))
            up_eta *= ca
            np.negative(up_eta, out=up_eta)  # -a (u + d)
            xs = design.transpose
            h_up = [by_cat(np.multiply(up_eta, x, out=tmp[:m]), w)[:, :K] for x in xs]
            low_eta = np.add(cl, cd, out=up_eta)
            low_eta *= cc  # c (l + d)
            h_cross = np.stack(
                [up + by_cat(np.multiply(low_eta, x, out=tmp[:m]), w)[:, 1:]
                 for up, x in zip(h_up, xs)],
                axis=2,
            )
            p = design.q
            H = np.zeros((m, K + p, K + p))
            H[:, K:, K:] = gram if m == b else gram[rows]
            H[:, :K, K:] = h_cross
            H[:, K:, :K] = h_cross.transpose(0, 2, 1)
            i = np.arange(K)
            cu += ca
            cu *= ca  # a (u + a)
            np.subtract(cc, cl, out=cl)
            cl *= cc  # c (c - l)
            H[:, i, i] = by_cat(cu, w)[:, :K] + by_cat(cl, w)[:, 1:]
            H[:, i[:-1], i[1:]] = H[:, i[1:], i[:-1]] = -by_cat(
                np.multiply(ca, cc, out=tmp[:m]), w)[:, 1:K]
            return H

        return g, info

    def fitted(self, Xd, coef):
        alpha, beta = coef[: self.n_cut], coef[self.n_cut :]
        return alpha, beta, ordinal_probs(alpha, Xd @ beta), None

    def simulate(self, rngs, mu, dispersion=None):
        """Codes drawn from the n x J category probabilities mu, one row per
        generator: one plus the number of cumulative probabilities below u."""
        u = np.array([rng.random(mu.shape[0]) for rng in rngs])
        codes = np.ones(u.shape)
        for cum in np.cumsum(mu, axis=1).T:
            codes += u > cum
        return codes

    # categorical view: code j where alpha_{j-1} < latent <= alpha_j
    latent = (ndtr, ndtri)

    def category_probs(self, mu):
        return mu

    def codes(self, y):
        return y.astype(int)

    def thresholds(self, fit):
        return fit.alpha_hat

    def from_codes(self, codes):
        return codes.astype(float)


_FAMILIES = {
    ("binomial", "probit"): BinomialProbit(),
    ("binomial", "logit"): BinomialLogit(),
    ("poisson", "log"): PoissonLog(),
    ("gamma", "inverse"): GammaInverse(),
    ("gaussian", "identity"): GaussianIdentity(),
}


def family_for(spec: ModelSpec):
    """The family that fits `spec`: a GLM family or CumulativeProbit(J).
    Raises UnsupportedKind for a (family, link) pair no family implements."""
    pair = (spec.family, spec.link)
    if pair == (CumulativeProbit.name, CumulativeProbit.link):
        return CumulativeProbit(spec.n_categories)
    if pair not in _FAMILIES:
        raise UnsupportedKind(f"unsupported family/link pair ({spec.family}, {spec.link})")
    return _FAMILIES[pair]


def ordinal_probs(alpha: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """Category probabilities, n x J, under P(Y <= j) = Phi(alpha_j - eta)."""
    edges = ndtr(alpha[None, :] - eta[:, None])
    edges = np.concatenate(
        [np.zeros((eta.shape[0], 1)), edges, np.ones((eta.shape[0], 1))], axis=1
    )
    return np.diff(edges, axis=1)


class _Start:
    """The start every row of a `refit_blocks` run shares, made once per
    run: the coefficients `coef`, their eta, and the start table of
    `family` (the run family's `table_family`; None for a family without
    finite response `values`). `eta` is the first row of a `rows`-row
    product at `coef`. Every block copies it, so all blocks of a run, a
    one-row block included, start from its bits on any BLAS.

    The table holds the log-likelihood terms and the first score's `cells`
    for each response value (J of them) at each observation, from the
    family's own hooks on a J x n block whose row j holds values[j], each
    row at `coef` and `eta`. The hooks act cell by cell, so a row that
    takes its terms and cells from here with `np.take` gets the bits of
    computing them itself."""

    def __init__(self, family, design, coef, rows):
        self.coef = np.asarray(coef, dtype=float)
        eta = np.matmul(np.tile(self.coef, (rows, 1))[:, family.n_cut:], design.transpose)
        self.eta = eta[0].copy()
        self.family = family = family.table_family()
        if family is None:
            return
        values = family.values
        J, n = len(values), design.matrix.shape[0]
        V = np.repeat(values[:, None], n, axis=1)
        C = np.tile(self.coef, (J, 1))
        eta = np.tile(self.eta, (J, 1))
        # the thread's workspace, between block fits: terms and cells are
        # copied out of it
        ws = _workspace(J * n)
        terms = family.loglik_terms(ws, V, eta, C).copy()
        self.cells = [v.ravel().copy() for v in family.cells(ws, V, C, eta, terms)]
        self.terms = terms.ravel()
        self.first = int(values[0])
        self.observations = np.arange(n)

    def _index(self, ws, Y):
        """Each cell's flat index into a J x n table."""
        k = ws.ints("i0", Y.shape)
        np.copyto(k, Y, casting="unsafe")
        k -= self.first
        k *= Y.shape[1]
        k += self.observations
        return k

    def loglik_terms(self, ws, Y):
        """`family.loglik_terms` of the responses Y, every row at the start."""
        k = self._index(ws, Y)
        return np.take(self.terms, k, out=ws.floats("loglik", k.shape), mode="clip")

    def score(self, ws, design, Y, W, coef):
        """`family.score` of the responses Y, every row at the start."""
        k = self._index(ws, Y)
        cells = [np.take(v, k, out=ws.floats(f"s{i}", k.shape), mode="clip")
                 for i, v in enumerate(self.cells)]
        return self.family.score_cells(ws, design, Y, W, coef, cells)


# ---------------------------------------------------------------------------
# Newton driver


@dataclass
class BatchFit:
    """Row-wise result of `fit_design_batch`.

    `beta[r]` holds row r's coefficients (ordinal: cutpoints, then slopes).
    `errors[r]` is the FitError that row r failed with, or None when it
    converged; failed rows hold NaN coefficients.
    """

    beta: np.ndarray  # b x m
    iterations: np.ndarray  # b, accepted Newton steps
    grad_norm: np.ndarray  # b, max-abs score at exit
    errors: list
    loglik: np.ndarray  # b
    responses: np.ndarray | None = None  # b x n, when `refit_blocks` keeps them

    @property
    def ok(self) -> np.ndarray:
        return np.array([e is None for e in self.errors], dtype=bool)


def _newton_steps(H: np.ndarray, g: np.ndarray):
    """Solve H[r] s[r] = g[r] for a stack of systems; returns (steps, singular)."""
    try:
        return np.linalg.solve(H, g[:, :, None])[:, :, 0], np.zeros(len(g), dtype=bool)
    except np.linalg.LinAlgError:
        steps = np.zeros_like(g)
        singular = np.zeros(len(g), dtype=bool)
        for r in range(len(g)):
            try:
                steps[r] = np.linalg.solve(H[r], g[r])
            except np.linalg.LinAlgError:
                singular[r] = True
        return steps, singular


def fit_design_batch(
    design: DesignInfo,
    Y: np.ndarray,
    family,
    options: FitOptions | None = None,
    weights: np.ndarray | None = None,
    beta0: np.ndarray | None = None,
) -> BatchFit:
    """Newton-type fits of a block of response vectors on one design.

    Each step solves the family's information against its score: the
    observed information for probit and the ordinal model (exact Newton
    steps), the Fisher information for every other family. The driver keeps
    each row's log-likelihood terms at its accepted step and passes them to
    `family.score`, which may reuse them. The hooks are those of
    `family.for_block(Y)`. It forms each row's start eta and evaluates the
    start row by row; a block of a `refit_blocks` run instead copies the
    run's start eta and takes its start's terms and first score from the
    run's table (see `_Start`).
    Every b x n array of the fit lives in the calling thread's `Workspace`
    (see the module docstring).

    `Y` is b x n with one response vector per row; `weights` is None or
    b x n. `beta0` is one start for every row (m,) or one per row (b x m), in
    the family's coefficients; None starts each row at the family's cold
    start. Rows the family screens out (constant binary responses, an empty
    ordinal category) fail before any step, and so do rows whose start lies
    outside the model's domain (`family.valid`) or has a log-likelihood that
    is not finite (a NaN response). Every other row follows the same rules:
    the score test max|g| <= tol, step-halving with a few-ulp plateau slack,
    the domain check and, after each accepted step, the separation bound. A
    row that fails records its error (NonConvergence, SeparationDetected,
    EmptyCategory, or RankDeficient for a singular information matrix) and
    the other rows carry on. The design rank is not checked. The design's
    transpose and column products are built on its first fit and reused by
    every later one.

    The block stays row-major so that each row's log-likelihood is summed in
    the same pairwise order as a 1-D sum; summing an n x b block down its
    columns adds in sequence, and that rounding noise flips plateau
    acceptances.
    """
    return _fit_block(design, Y, family, options, weights, beta0)


def _fit_block(design, Y, family, options, weights, start) -> BatchFit:
    """`fit_design_batch` from `start`: its `beta0`, or the `_Start` of a
    `refit_blocks` run, whose coefficients and eta every row copies and
    whose table a block of the table's family takes."""
    opts = options or FitOptions()
    Y = np.ascontiguousarray(Y, dtype=float)
    n, q = design.matrix.shape
    if Y.ndim != 2 or Y.shape[1] != n:
        raise DimensionMismatch(f"expected a b x {n} response block, got {Y.shape}")
    W = None if weights is None else np.ascontiguousarray(weights, dtype=float)
    if W is not None and W.shape != Y.shape:
        raise DimensionMismatch(f"weights {W.shape} do not match responses {Y.shape}")
    b = Y.shape[0]
    family = family.for_block(Y)
    k = family.n_cut
    ws = _workspace(b * n)

    def gather(name, A, rows):
        """Rows `rows` (ascending) of A: A itself when they are all of its
        rows, else a copy in the workspace slot `name`."""
        if A is None or rows.size == len(A):
            return A
        return np.take(A, rows, axis=0, out=ws.floats(name, (rows.size, n)), mode="clip")

    def loglik(rows, coef, eta):
        """Summed log-likelihood per row, and its terms for `family.score`
        (a workspace view, valid until the next hook call); eta None takes
        them from the start table."""
        y = gather("Y_rows", Y, rows)
        terms = (table.loglik_terms(ws, y) if eta is None
                 else family.loglik_terms(ws, y, eta, coef))
        if W is None:
            s = np.sum(terms, axis=1)
        else:
            w_rows = gather("W_rows", W, rows)
            s = np.sum(np.multiply(w_rows, terms, out=ws.floats("terms_rows", terms.shape)),
                       axis=1)
        s[~np.isfinite(s)] = -np.inf
        return s, terms

    def score(rows):
        nonlocal table
        y, w = gather("Y_rows", Y, rows), gather("W_rows", W, rows)
        if table is not None:  # the first score, with every row at the start
            first, table = table, None
            return first.score(ws, design, y, w, coef[rows])
        return family.score(ws, design, y, w, coef[rows], gather("eta_rows", eta, rows),
                            gather("terms_rows", terms, rows))

    def not_converged(r):
        return NonConvergence(
            f"score norm {grad_norm[r]:.3e} above tolerance "
            f"after {iterations[r]} iterations"
        )

    errors = family.screen(design, Y, W)
    coef = np.zeros((b, k + q))
    eta = ws.floats("eta", Y.shape)
    shared = isinstance(start, _Start)
    if shared:
        coef[:], eta[:] = start.coef, start.eta
    elif start is not None:
        coef[:] = start
    else:
        for r in range(b):
            if errors[r] is None:
                try:
                    coef[r] = family.start(design, Y[r], None if W is None else W[r])
                except FitError as exc:
                    errors[r] = exc
    if not shared:
        np.matmul(coef[:, k:], design.transpose, out=eta)
    table = start if shared and start.family is family else None
    for r in np.flatnonzero(~family.valid(coef, eta)):
        if errors[r] is None:
            errors[r] = NonConvergence("starting point outside the model's domain")
    act = np.array([r for r in range(b) if errors[r] is None], dtype=int)
    ll = np.full(b, -np.inf)
    terms = ws.floats("terms", Y.shape)  # log-likelihood terms of each row's eta
    ll[act], terms[act] = loglik(act, coef[act],
                                 None if table is not None else gather("eta_rows", eta, act))
    # every candidate would pass the ascent test against a start at -inf
    for r in act[ll[act] == -np.inf]:
        errors[r] = NonConvergence("log-likelihood is not finite at the starting point")
    act = act[ll[act] > -np.inf]
    iterations = np.zeros(b, dtype=int)
    grad_norm = np.full(b, np.nan)
    eps4 = 4.0 * np.finfo(float).eps
    for _ in range(opts.max_iter):
        if not act.size:
            break
        g, info = score(act)
        grad_norm[act] = np.max(np.abs(g), axis=1)
        go = ~(grad_norm[act] <= opts.tol)
        act, g = act[go], g[go]
        if not act.size:
            break
        step, singular = _newton_steps(info(go), g)
        for r in act[singular]:
            errors[r] = RankDeficient("singular information matrix")
        act, step = act[~singular], step[~singular]

        # step-halving per row; `pend` indexes the rows still searching
        base, ll0 = coef[act], ll[act]
        bound = 1e-6 * (1.0 + np.max(np.abs(base), axis=1))
        plateau = eps4 * (1.0 + np.abs(ll0))
        t = np.ones(act.size)
        pend = np.arange(act.size)
        for _ in range(opts.max_halvings + 1):
            ts = t[pend, None] * step[pend]
            cand = base[pend] + ts
            # the score's gathered eta and terms are dead in the step search,
            # so the candidate eta and the weighted terms reuse their slots
            eta_c = np.matmul(cand[:, k:], design.transpose,
                              out=ws.floats("eta_rows", (pend.size, n)))
            rows = act[pend]
            ll_c, terms_c = loglik(rows, cand, eta_c)
            # near the optimum the objective sits on a float plateau; a
            # few-ulp slack lets the (tiny) final Newton step through
            tiny = np.max(np.abs(ts), axis=1) <= bound[pend]
            slack = np.where(tiny, plateau[pend], 0.0)
            acc = family.valid(cand, eta_c) & (ll_c >= ll0[pend] - slack)
            # a basic slice takes every row without a copy
            sel = slice(None) if acc.all() else acc
            hit = rows[sel]
            coef[hit], eta[hit], ll[hit] = cand[sel], eta_c[sel], ll_c[sel]
            terms[hit] = terms_c[sel]
            pend = pend[~acc]
            if not pend.size:
                break
            t[pend] *= 0.5
        for r in act[pend]:
            errors[r] = not_converged(r)
        act = np.delete(act, pend)
        iterations[act] += 1
        if family.check_separation:
            sep = np.max(np.abs(coef[act]), axis=1) > opts.separation_bound
            for r in act[sep]:
                errors[r] = SeparationDetected(
                    f"|beta| exceeded {opts.separation_bound:g}; data may be separated"
                )
            act = act[~sep]
    if act.size:
        # the iteration cap was reached: a final score test decides
        g, _ = score(act)
        grad_norm[act] = np.max(np.abs(g), axis=1)
        for r in act[~(grad_norm[act] <= opts.tol)]:
            errors[r] = not_converged(r)
    out = BatchFit(coef, iterations, grad_norm, errors, ll)
    out.beta[~out.ok] = np.nan
    return out


def refit_blocks(design, family, draw, count, *, beta0=None, options=None, n_threads=1,
                 keep_responses=False):
    """Fit `count` drawn response vectors on one design, in blocks of
    `block_rows(n)` rows, the same for every family: yields each
    block's `BatchFit`, in row order, with the block's responses in
    `responses` when `keep_responses`; a count below 1 yields none.

    `draw(first, stop) -> (Y, W or None)` draws rows first..stop-1 as
    (stop - first) x n blocks, called by the worker that fits them; every
    row starts at `beta0` (None: the family's cold start), whose `_Start`
    the run makes once. With
    n_threads > 1 and at least four blocks, `_worker_count` worker processes
    fit the blocks (see `_fork_shares`). The rows of a block do not depend
    on the worker count, so the fits are bit-identical for any n_threads.
    On one worker a block is drawn and fit only when it is asked for, so a
    caller that stops early fits no further block.
    """
    if count < 1:
        return
    rows = block_rows(design.matrix.shape[0])
    # every block starts at beta0, so its eta and table are made once,
    # before any fork
    start = None if beta0 is None else _Start(family, design, beta0, min(rows, count))

    def block(first):
        Y, W = draw(first, min(first + rows, count))
        out = _fit_block(design, Y, family, options, W, start)
        if keep_responses:
            out.responses = Y
        return out

    starts = range(0, count, rows)
    workers = _worker_count(n_threads, len(starts))
    if workers == 1:
        yield from map(block, starts)
        return
    # built here, once, so that every worker inherits them
    design.transpose, design.column_products, design.constant_columns
    shares = _fork_shares(block, starts, workers)
    for i in range(len(starts)):
        outcome = shares[i % workers][i // workers]
        if isinstance(outcome, BaseException):
            raise outcome
        yield outcome


def _worker_count(n_threads: int, blocks: int) -> int:
    """Processes that fit `blocks` blocks for n_threads: at most one per two
    blocks and one per core this process may run on; one where `os.fork`
    does not exist. A fork, the copy-on-write faults it brings on both
    sides and the child's exit cost about as much as a block fit, so a
    worker that would fit one block loses time."""
    if not hasattr(os, "fork"):
        return 1
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cores = os.cpu_count() or 1
    return max(1, min(n_threads, blocks // 2, cores))


def _share(block, starts) -> list:
    """`block(first)` for each of `starts` in turn, stopping at the first
    block that raises: its exception ends the list."""
    outcomes = []
    for first in starts:
        try:
            outcomes.append(block(first))
        except Exception as exc:
            outcomes.append(exc)
            break
    return outcomes


def _fork_shares(block, starts, workers) -> list:
    """Each worker's `_share` of the blocks at `starts`: worker k takes
    every `workers`-th block from the k-th. The caller is worker 0 and forks
    the others, which inherit everything `block` reads. A child pickles its
    share back over a pipe and ends with `os._exit`, so it runs none of the
    parent's exit handlers; the standard streams are flushed before the
    fork, so no buffered output is written twice. Every child is reaped
    before this returns or raises, and one still running when the caller
    fails is killed."""
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()
    children = {}  # pid -> the read end of its pipe, until the child is reaped
    try:
        for k in range(1, workers):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read)
                for fd in children.values():
                    os.close(fd)
                _child(block, starts[k::workers], write)
            os.close(write)
            children[pid] = read
        shares = [_share(block, starts[::workers])]
        for pid in list(children):
            with open(children[pid], "rb", closefd=False) as pipe:
                payload = pipe.read()
            _, status = os.waitpid(pid, 0)
            os.close(children.pop(pid))
            if not payload:
                raise RuntimeError(f"refit worker {pid} ended with no result "
                                   f"(wait status {status})")
            shares.append(pickle.loads(payload))
        return shares
    finally:
        for pid, read in children.items():
            os.close(read)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _child(block, starts, fd) -> None:
    """A forked worker: fit its share, write it pickled to the pipe `fd`
    and end the process. A share that cannot be written ends it with status
    1 and no result, which the parent raises."""
    code = 1
    try:
        payload = pickle.dumps(_share(block, starts), pickle.HIGHEST_PROTOCOL)
        with open(fd, "wb") as pipe:
            pipe.write(payload)
        code = 0
    finally:
        os._exit(code)


def _check_rank(family, design: DesignInfo) -> None:
    """Raise RankDeficient for a design whose coefficients are not
    identified: a GLM design X without full column rank, or an ordinal one
    where [1, X] lacks it, as the cutpoints act as the intercept."""
    if family.n_cut:
        if design.rank_with_ones <= design.q:
            raise RankDeficient("design matrix is rank deficient next to the cutpoints")
    elif design.rank < design.q:
        raise RankDeficient("design matrix is rank deficient")


def fit_qmle(
    data: Dataset,
    spec: ModelSpec,
    options: FitOptions | None = None,
    design: DesignInfo | None = None,
) -> FitResult:
    """QMLE of any supported model: one row of `fit_design_batch` after the
    design rank check; the row's fit error is raised.

    Accepts any response the quasi-score admits: binomial y in [0,1],
    poisson y >= 0, gamma y > 0, ordinal codes 1..J.
    """
    family = family_for(spec)
    design = design or build_design(data, spec)
    _check_rank(family, design)
    out = fit_design_batch(design, data.y[None, :], family, options)
    if out.errors[0] is not None:
        raise out.errors[0]
    return FitResult.at(
        out.beta[0],
        spec,
        design,
        loglik=float(out.loglik[0]),
        iterations=int(out.iterations[0]),
        grad_norm=float(out.grad_norm[0]),
    )


def predict_mean(fit: FitResult, X_new: np.ndarray) -> np.ndarray:
    """Fitted mean h(x'beta) of `fit`'s model per design row (ordinal: n x J
    probabilities)."""
    X_new = np.atleast_2d(np.asarray(X_new, dtype=float))
    if X_new.shape[1] != fit.design.q:
        raise DimensionMismatch(
            f"expected {fit.design.q} design columns, got {X_new.shape[1]}"
        )
    return fit.family.fitted(X_new, fit.coef)[2]
