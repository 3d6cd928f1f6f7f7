"""Quasi-maximum-likelihood fitting for GLM families and the cumulative-link
ordinal model.

The solver is Fisher-scoring Newton on the quasi-score with step-halving;
convergence is declared on the max-abs score component. `fit_design` fits one
response vector; `fit_design_batch` fits a block of response vectors on the
same design with one vectorized loop that applies the same rules row by row.
The ordinal model is maximized over (alpha_1, log-gaps, beta) so the
cutpoints stay increasing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit, log_ndtr, ndtr, ndtri

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
    "fit_qmle",
    "fit_ordinal",
    "fit_design",
    "fit_design_batch",
    "fit_ordinal_design",
    "predict_mean",
    "get_family",
    "ordinal_probs",
]

_SQRT2PI = np.sqrt(2.0 * np.pi)
_MU_EPS = 1e-12


def _npdf(z):
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.exp(-0.5 * np.square(z)) / _SQRT2PI
    return np.nan_to_num(out, nan=0.0, posinf=0.0)


@dataclass(frozen=True)
class FitOptions:
    tol: float = 1e-8
    max_iter: int = 100
    max_halvings: int = 30
    separation_bound: float = 1e4
    track_loglik: bool = False


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
    loglik_path: list | None = None

    @property
    def coef(self) -> np.ndarray:
        if self.alpha_hat is None:
            return self.beta_hat
        return np.concatenate([self.alpha_hat, self.beta_hat])

    @property
    def coef_names(self) -> tuple[str, ...]:
        if self.alpha_hat is None:
            return self.design.coef_names
        alphas = tuple(f"alpha_{j + 1}" for j in range(len(self.alpha_hat)))
        return alphas + self.design.coef_names

    @property
    def first_slope(self) -> int:
        """Index of the first covariate slope within `coef`."""
        if self.alpha_hat is None:
            return self.design.first_slope
        return len(self.alpha_hat)

    @property
    def eta(self) -> np.ndarray:
        return self.design.matrix @ self.beta_hat


# ---------------------------------------------------------------------------
# families


class _BaseFamily:
    name = ""
    link = ""
    check_separation = False

    def initial_beta(self, Xd, y):
        return np.zeros(Xd.shape[1])

    def valid_eta(self, eta):
        """Whether each linear-predictor vector (last axis) lies in the
        link's domain: a bool for 1-D eta, one bool per row for 2-D eta."""
        return np.ones(np.shape(eta)[:-1], dtype=bool)

    def clamp_response(self, vals):
        return vals


class BinomialProbit(_BaseFamily):
    name, link = "binomial", "probit"
    check_separation = True

    def mean(self, eta):
        return np.clip(ndtr(eta), _MU_EPS, 1.0 - _MU_EPS)

    def mean_deriv(self, eta):
        return _npdf(eta)

    def variance(self, mu):
        return mu * (1.0 - mu)

    def loglik_terms(self, y, eta):
        if np.all((y == 0.0) | (y == 1.0)):
            # one log_ndtr per observation; bit-identical to the two-term form
            return log_ndtr(np.where(y == 1.0, eta, -eta))
        return y * log_ndtr(eta) + (1.0 - y) * log_ndtr(-eta)

    def clamp_response(self, vals):
        return np.clip(vals, 0.0, 1.0)

    def simulate(self, rng, mu, dispersion=None):
        return (rng.random(mu.shape[0]) < mu).astype(float)


class BinomialLogit(BinomialProbit):
    name, link = "binomial", "logit"

    def mean(self, eta):
        return np.clip(expit(eta), _MU_EPS, 1.0 - _MU_EPS)

    def mean_deriv(self, eta):
        mu = expit(eta)
        return mu * (1.0 - mu)

    def loglik_terms(self, y, eta):
        return y * eta - np.logaddexp(0.0, eta)


class PoissonLog(_BaseFamily):
    name, link = "poisson", "log"

    def mean(self, eta):
        with np.errstate(over="ignore"):
            return np.exp(np.clip(eta, -700.0, 700.0))

    def mean_deriv(self, eta):
        return self.mean(eta)

    def variance(self, mu):
        return np.maximum(mu, _MU_EPS)

    def loglik_terms(self, y, eta):
        return y * eta - self.mean(eta)

    def clamp_response(self, vals):
        return np.maximum(vals, 0.0)

    def simulate(self, rng, mu, dispersion=None):
        return rng.poisson(mu).astype(float)


class GammaInverse(_BaseFamily):
    name, link = "gamma", "inverse"

    def mean(self, eta):
        return 1.0 / np.maximum(eta, _MU_EPS)

    def mean_deriv(self, eta):
        return -1.0 / np.square(np.maximum(eta, _MU_EPS))

    def variance(self, mu):
        return np.square(mu)

    def loglik_terms(self, y, eta):
        with np.errstate(divide="ignore", invalid="ignore"):
            return -y * eta + np.log(eta)

    def valid_eta(self, eta):
        return np.all(eta > 0, axis=-1)

    def clamp_response(self, vals):
        return np.maximum(vals, 1e-12)

    def initial_beta(self, Xd, y):
        # eta must start positive; beta = 0 is inadmissible for this link
        is_intercept = np.all(Xd == Xd[0:1], axis=0) & (Xd[0] != 0)
        beta = np.zeros(Xd.shape[1])
        if is_intercept[0]:
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

    def simulate(self, rng, mu, dispersion=None):
        shape = 1.0 if not dispersion else 1.0 / dispersion
        return rng.gamma(shape, mu / shape)


class GaussianIdentity(_BaseFamily):
    name, link = "gaussian", "identity"

    def mean(self, eta):
        return eta

    def mean_deriv(self, eta):
        return np.ones_like(eta)

    def variance(self, mu):
        return np.ones_like(mu)

    def loglik_terms(self, y, eta):
        return -0.5 * np.square(y - eta)

    def simulate(self, rng, mu, dispersion=None):
        sd = np.sqrt(dispersion) if dispersion else 1.0
        return mu + sd * rng.standard_normal(mu.shape[0])


_FAMILIES = {
    ("binomial", "probit"): BinomialProbit(),
    ("binomial", "logit"): BinomialLogit(),
    ("poisson", "log"): PoissonLog(),
    ("gamma", "inverse"): GammaInverse(),
    ("gaussian", "identity"): GaussianIdentity(),
}


def get_family(family: str, link: str):
    fam = _FAMILIES.get((family, link))
    if fam is None:
        raise UnsupportedKind(f"unsupported family/link pair ({family}, {link})")
    return fam


# ---------------------------------------------------------------------------
# Newton solver (non-ordinal)


def fit_design(
    Xd: np.ndarray,
    y: np.ndarray,
    family,
    options: FitOptions | None = None,
    weights: np.ndarray | None = None,
    check_rank: bool = True,
    beta0: np.ndarray | None = None,
):
    """Fisher-scoring Newton on the quasi-score for a prebuilt design.

    Returns (beta, mu, var, loglik, iterations, grad_norm, path).
    """
    opts = options or FitOptions()
    Xd = np.asarray(Xd, dtype=float)
    y = np.asarray(y, dtype=float)
    n, q = Xd.shape
    if check_rank and np.linalg.matrix_rank(Xd) < q:
        raise RankDeficient("design matrix is rank deficient")
    w = None if weights is None else np.asarray(weights, dtype=float)

    def total_ll(eta):
        terms = family.loglik_terms(y, eta)
        s = float(np.sum(terms) if w is None else np.sum(w * terms))
        return s if np.isfinite(s) else -np.inf

    beta = family.initial_beta(Xd, y) if beta0 is None else np.array(beta0, dtype=float)
    eta = Xd @ beta
    if not family.valid_eta(eta):
        raise NonConvergence("starting point outside the link's domain")
    ll = total_ll(eta)
    path = [ll] if opts.track_loglik else None
    iterations = 0
    for _ in range(opts.max_iter):
        mu = family.mean(eta)
        D = family.mean_deriv(eta)
        V = family.variance(mu)
        u = D / V * (y - mu)
        g = Xd.T @ (u if w is None else w * u)
        if np.max(np.abs(g)) <= opts.tol:
            break
        wk = D * D / V if w is None else w * D * D / V
        H = (Xd * wk[:, None]).T @ Xd
        try:
            step = np.linalg.solve(H, g)
        except np.linalg.LinAlgError as exc:
            raise RankDeficient("singular information matrix") from exc
        t = 1.0
        accepted = False
        for _ in range(opts.max_halvings + 1):
            cand = beta + t * step
            eta_c = Xd @ cand
            if family.valid_eta(eta_c):
                ll_c = total_ll(eta_c)
                # near the optimum the objective sits on a float plateau; a
                # few-ulp slack lets the (tiny) final Newton step through
                tiny = np.max(np.abs(t * step)) <= 1e-6 * (1.0 + np.max(np.abs(beta)))
                slack = 4.0 * np.finfo(float).eps * (1.0 + abs(ll)) if tiny else 0.0
                if ll_c >= ll - slack:
                    accepted = True
                    break
            t *= 0.5
        if not accepted:
            break
        beta, eta, ll = cand, eta_c, ll_c
        iterations += 1
        if path is not None:
            path.append(ll)
        if family.check_separation and np.max(np.abs(beta)) > opts.separation_bound:
            raise SeparationDetected(
                f"|beta| exceeded {opts.separation_bound:g}; data may be separated"
            )
    mu = family.mean(eta)
    D = family.mean_deriv(eta)
    V = family.variance(mu)
    u = D / V * (y - mu)
    g = Xd.T @ (u if w is None else w * u)
    grad_norm = float(np.max(np.abs(g)))
    if grad_norm > opts.tol:
        raise NonConvergence(
            f"score norm {grad_norm:.3e} above tolerance after {iterations} iterations"
        )
    return beta, mu, V, ll, iterations, grad_norm, path


@dataclass
class BatchFit:
    """Row-wise result of `fit_design_batch`.

    `errors[r]` is the FitError `fit_design` raises for row r, or None when
    the row converged; failed rows hold NaN coefficients.
    """

    beta: np.ndarray  # b x q
    iterations: np.ndarray  # b, accepted Newton steps
    grad_norm: np.ndarray  # b, max-abs score at exit
    errors: list

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
    Xd: np.ndarray,
    Y: np.ndarray,
    family,
    options: FitOptions | None = None,
    weights: np.ndarray | None = None,
    beta0: np.ndarray | None = None,
) -> BatchFit:
    """Fisher scoring for a block of response vectors on one prebuilt design.

    `Y` is b x n with one replicate per row; `weights` is None or b x n.
    `beta0` is one start for every row (q,) or one per row (b x q); None
    starts each row where `fit_design` would. Every row follows the rules of
    `fit_design`: the score test max|g| <= tol, step-halving with the
    few-ulp plateau slack, the link-domain check and, after each accepted
    step, the separation bound. A row that fails records the error
    `fit_design` raises (NonConvergence, SeparationDetected, or
    RankDeficient for a singular information matrix) and the other rows
    carry on. The design rank is not checked.

    The block stays row-major so that each row's log-likelihood is summed in
    the same pairwise order as `fit_design`'s 1-D sum; summing an n x b
    block down its columns adds in sequence, and that rounding noise flips
    plateau acceptances. The information matrices come from one product with
    the column products Xd[:, i] * Xd[:, j] (i <= j), so nothing of size
    n x b x q is allocated.
    """
    opts = options or FitOptions()
    Xd = np.asarray(Xd, dtype=float)
    Y = np.ascontiguousarray(Y, dtype=float)
    n, q = Xd.shape
    if Y.ndim != 2 or Y.shape[1] != n:
        raise DimensionMismatch(f"expected a b x {n} response block, got {Y.shape}")
    W = None if weights is None else np.ascontiguousarray(weights, dtype=float)
    if W is not None and W.shape != Y.shape:
        raise DimensionMismatch(f"weights {W.shape} do not match responses {Y.shape}")
    b = Y.shape[0]
    XdT = np.ascontiguousarray(Xd.T)
    iu, ju = np.triu_indices(q)
    Z = Xd[:, iu] * Xd[:, ju]

    def loglik(rows, eta):
        terms = family.loglik_terms(Y[rows], eta)
        s = np.sum(terms if W is None else W[rows] * terms, axis=1)
        s[~np.isfinite(s)] = -np.inf
        return s

    def score(rows, eta):
        mu = family.mean(eta)
        D = family.mean_deriv(eta)
        V = family.variance(mu)
        u = D / V * (Y[rows] - mu)
        return (u if W is None else W[rows] * u) @ Xd, D, V

    def not_converged(r):
        return NonConvergence(
            f"score norm {grad_norm[r]:.3e} above tolerance "
            f"after {iterations[r]} iterations"
        )

    errors: list = [None] * b
    beta = np.zeros((b, q))
    if beta0 is not None:
        beta[:] = beta0
    else:
        for r in range(b):
            try:
                beta[r] = family.initial_beta(Xd, Y[r])
            except FitError as exc:
                errors[r] = exc
    eta = beta @ XdT
    for r in np.flatnonzero(~family.valid_eta(eta)):
        if errors[r] is None:
            errors[r] = NonConvergence("starting point outside the link's domain")
    ll = loglik(np.arange(b), eta)
    iterations = np.zeros(b, dtype=int)
    grad_norm = np.full(b, np.nan)
    act = np.array([r for r in range(b) if errors[r] is None], dtype=int)
    eps4 = 4.0 * np.finfo(float).eps
    for _ in range(opts.max_iter):
        if not act.size:
            break
        g, D, V = score(act, eta[act])
        grad_norm[act] = np.max(np.abs(g), axis=1)
        go = ~(grad_norm[act] <= opts.tol)
        act, g, D, V = act[go], g[go], D[go], V[go]
        if not act.size:
            break
        wk = D * D / V if W is None else W[act] * D * D / V
        H = np.empty((act.size, q, q))
        H[:, iu, ju] = H[:, ju, iu] = wk @ Z
        step, singular = _newton_steps(H, g)
        for r in act[singular]:
            errors[r] = RankDeficient("singular information matrix")
        act, step = act[~singular], step[~singular]

        # step-halving per row; `pend` indexes the rows still searching
        base, ll0 = beta[act], ll[act]
        bound = 1e-6 * (1.0 + np.max(np.abs(base), axis=1))
        plateau = eps4 * (1.0 + np.abs(ll0))
        t = np.ones(act.size)
        pend = np.arange(act.size)
        for _ in range(opts.max_halvings + 1):
            ts = t[pend, None] * step[pend]
            cand = base[pend] + ts
            eta_c = cand @ XdT
            rows = act[pend]
            ll_c = loglik(rows, eta_c)
            tiny = np.max(np.abs(ts), axis=1) <= bound[pend]
            slack = np.where(tiny, plateau[pend], 0.0)
            acc = family.valid_eta(eta_c) & (ll_c >= ll0[pend] - slack)
            hit = rows[acc]
            beta[hit], eta[hit], ll[hit] = cand[acc], eta_c[acc], ll_c[acc]
            pend = pend[~acc]
            if not pend.size:
                break
            t[pend] *= 0.5
        for r in act[pend]:
            errors[r] = not_converged(r)
        act = np.delete(act, pend)
        iterations[act] += 1
        if family.check_separation:
            sep = np.max(np.abs(beta[act]), axis=1) > opts.separation_bound
            for r in act[sep]:
                errors[r] = SeparationDetected(
                    f"|beta| exceeded {opts.separation_bound:g}; data may be separated"
                )
            act = act[~sep]
    if act.size:
        # the iteration cap was reached: a final score test decides
        g, _, _ = score(act, eta[act])
        grad_norm[act] = np.max(np.abs(g), axis=1)
        for r in act[grad_norm[act] > opts.tol]:
            errors[r] = not_converged(r)
    out = BatchFit(beta, iterations, grad_norm, errors)
    beta[~out.ok] = np.nan
    return out


def fit_qmle(
    data: Dataset,
    spec: ModelSpec,
    options: FitOptions | None = None,
    design: DesignInfo | None = None,
) -> FitResult:
    """QMLE for binomial/poisson/gamma/gaussian models.

    Accepts any response the quasi-score admits: binomial y in [0,1],
    poisson y >= 0, gamma y > 0.
    """
    if spec.is_ordinal:
        return fit_ordinal(data, spec, options, design)
    family = get_family(spec.family, spec.link)
    design = design or build_design(data, spec)
    beta, mu, var, ll, iters, gnorm, path = fit_design(
        design.matrix, data.y, family, options
    )
    return FitResult(
        beta_hat=beta,
        alpha_hat=None,
        mu_hat=mu,
        var_hat=var,
        loglik=ll,
        iterations=iters,
        converged=True,
        grad_norm=gnorm,
        spec=spec,
        design=design,
        loglik_path=path,
    )


# ---------------------------------------------------------------------------
# ordinal cumulative-link (probit) model


def ordinal_probs(alpha: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """Category probabilities, n x J, under P(Y <= j) = Phi(alpha_j - eta)."""
    edges = ndtr(alpha[None, :] - eta[:, None])
    edges = np.concatenate(
        [np.zeros((eta.shape[0], 1)), edges, np.ones((eta.shape[0], 1))], axis=1
    )
    return np.diff(edges, axis=1)


def _ordinal_unpack(phi: np.ndarray, J: int):
    alpha1 = phi[0]
    gaps = np.exp(phi[1 : J - 1])
    alpha = alpha1 + np.concatenate([[0.0], np.cumsum(gaps)])
    return alpha, phi[J - 1 :]


def _ordinal_pack(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    gaps = np.diff(alpha)
    return np.concatenate([[alpha[0]], np.log(gaps), beta])


def _ordinal_ll_grad(phi, Xd, y_idx, J, w):
    """Log-likelihood and analytic gradient in the (alpha_1, log-gaps, beta)
    parameterization."""
    n, p = Xd.shape
    alpha, beta = _ordinal_unpack(phi, J)
    eta = Xd @ beta
    ext = np.concatenate([[-np.inf], alpha, [np.inf]])
    upper = ext[y_idx + 1] - eta
    lower = ext[y_idx] - eta
    P = np.clip(ndtr(upper) - ndtr(lower), 1e-300, None)
    wt = np.ones(n) if w is None else w
    ll = float(np.sum(wt * np.log(P)))
    dldu = _npdf(upper) / P * wt
    dldv = -_npdf(lower) / P * wt
    grad_alpha = np.zeros(J - 1)
    has_upper = y_idx <= J - 2  # upper bound is alpha_{y}
    np.add.at(grad_alpha, y_idx[has_upper], dldu[has_upper])
    has_lower = y_idx >= 1  # lower bound is alpha_{y-1}
    np.add.at(grad_alpha, y_idx[has_lower] - 1, dldv[has_lower])
    grad_beta = Xd.T @ (-(dldu + dldv))
    # chain rule: alpha_j = alpha_1 + sum_{k<=j} exp(g_k)
    grad_phi = np.empty(J - 1 + p)
    grad_phi[0] = grad_alpha.sum()
    if J > 2:
        gaps = np.exp(phi[1 : J - 1])
        tail = np.cumsum(grad_alpha[::-1])[::-1]  # sum_{j>=k} grad_alpha_j
        grad_phi[1 : J - 1] = gaps * tail[1:]
    grad_phi[J - 1 :] = grad_beta
    return ll, grad_phi


def fit_ordinal_design(
    Xd: np.ndarray,
    y_codes: np.ndarray,
    J: int,
    options: FitOptions | None = None,
    weights: np.ndarray | None = None,
    phi0: np.ndarray | None = None,
):
    """Newton with finite-difference Hessian of the analytic gradient.

    Returns (alpha, beta, probs, loglik, iterations, grad_norm, path).
    """
    opts = options or FitOptions()
    Xd = np.asarray(Xd, dtype=float)
    y_codes = np.asarray(y_codes)
    if not np.all(y_codes == np.round(y_codes)):
        raise UnsupportedKind("ordinal responses must be integer-coded 1..J")
    y_idx = y_codes.astype(int) - 1
    if y_idx.min() < 0 or y_idx.max() > J - 1:
        raise UnsupportedKind(f"ordinal responses must lie in 1..{J}")
    n, p = Xd.shape
    w = None if weights is None else np.asarray(weights, dtype=float)
    # a category whose rows all carry zero weight is empty too (a pairwise
    # resample expressed as multinomial counts)
    counts = np.bincount(y_idx, weights=w, minlength=J)
    if np.any(counts == 0):
        missing = int(np.argmin(counts)) + 1
        raise EmptyCategory(f"category {missing} has no observations")

    if phi0 is None:
        cum = np.cumsum(counts)[: J - 1] / np.sum(counts)
        phi = _ordinal_pack(ndtri(cum), np.zeros(p))
    else:
        phi = np.array(phi0, dtype=float)
    m = phi.shape[0]

    def ll_grad(ph):
        return _ordinal_ll_grad(ph, Xd, y_idx, J, w)

    ll, grad = ll_grad(phi)
    path = [ll] if opts.track_loglik else None
    iterations = 0
    for _ in range(opts.max_iter):
        if np.max(np.abs(grad)) <= opts.tol:
            break
        # central-difference Hessian of the analytic gradient (small m)
        H = np.empty((m, m))
        for k in range(m):
            h = 1e-6 * max(1.0, abs(phi[k]))
            up = phi.copy()
            up[k] += h
            dn = phi.copy()
            dn[k] -= h
            H[:, k] = (ll_grad(up)[1] - ll_grad(dn)[1]) / (2.0 * h)
        H = 0.5 * (H + H.T)
        ridge = 0.0
        step = None
        for _ in range(8):
            try:
                step = np.linalg.solve(-(H - ridge * np.eye(m)), grad)
            except np.linalg.LinAlgError:
                step = None
            if step is not None and grad @ step > 0:
                break
            ridge = 1e-8 if ridge == 0.0 else ridge * 100.0
        if step is None or grad @ step <= 0:
            step = grad  # gradient ascent fallback
        t = 1.0
        accepted = False
        for _ in range(opts.max_halvings + 1):
            cand = phi + t * step
            ll_c, grad_c = ll_grad(cand)
            tiny = np.max(np.abs(t * step)) <= 1e-6 * (1.0 + np.max(np.abs(phi)))
            slack = 4.0 * np.finfo(float).eps * (1.0 + abs(ll)) if tiny else 0.0
            if np.isfinite(ll_c) and ll_c >= ll - slack:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
        phi, ll, grad = cand, ll_c, grad_c
        iterations += 1
        if path is not None:
            path.append(ll)
    grad_norm = float(np.max(np.abs(grad)))
    if grad_norm > opts.tol:
        raise NonConvergence(
            f"ordinal score norm {grad_norm:.3e} above tolerance "
            f"after {iterations} iterations"
        )
    alpha, beta = _ordinal_unpack(phi, J)
    probs = ordinal_probs(alpha, Xd @ beta)
    return alpha, beta, probs, ll, iterations, grad_norm, path


def fit_ordinal(
    data: Dataset,
    spec: ModelSpec,
    options: FitOptions | None = None,
    design: DesignInfo | None = None,
) -> FitResult:
    """Cumulative-link probit fit over increasing cutpoints and slopes."""
    if not spec.is_ordinal:
        raise UnsupportedKind("fit_ordinal requires an ordinal ModelSpec")
    design = design or build_design(data, spec)
    alpha, beta, probs, ll, iters, gnorm, path = fit_ordinal_design(
        design.matrix, data.y, spec.n_categories, options
    )
    return FitResult(
        beta_hat=beta,
        alpha_hat=alpha,
        mu_hat=probs,
        var_hat=None,
        loglik=ll,
        iterations=iters,
        converged=True,
        grad_norm=gnorm,
        spec=spec,
        design=design,
        loglik_path=path,
    )


def predict_mean(fit: FitResult, spec: ModelSpec, X_new: np.ndarray) -> np.ndarray:
    """Fitted mean h(x'beta) per design row (ordinal: n x J probabilities)."""
    X_new = np.atleast_2d(np.asarray(X_new, dtype=float))
    if X_new.shape[1] != fit.design.q:
        raise DimensionMismatch(
            f"expected {fit.design.q} design columns, got {X_new.shape[1]}"
        )
    eta = X_new @ fit.beta_hat
    if spec.is_ordinal:
        return ordinal_probs(fit.alpha_hat, eta)
    return get_family(spec.family, spec.link).mean(eta)
