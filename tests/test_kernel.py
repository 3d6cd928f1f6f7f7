"""The Newton driver: row-by-row agreement with a scalar Newton loop and the
finite-difference ordinal fitter it replaced (both kept here as oracles), the
exact probit and ordinal scores and observed informations, failure classes
per row, and thread invariance and memory of the block refits for every
method."""

import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import log_ndtr
from scipy.stats import norm

import lrboot as lb
from lrboot import data as lrdata
from lrboot import glm
from lrboot import simlab as sl
from lrboot.bootstrap import BootstrapMethod, run
from lrboot.errors import (
    EmptyCategory,
    FitError,
    NonConvergence,
    RankDeficient,
    SeparationDetected,
)
from lrboot.glm import (
    CumulativeProbit,
    Workspace,
    block_rows,
    family_for,
    fit_design_batch,
)

FAMILIES = [
    ("binomial", "probit"),
    ("binomial", "logit"),
    ("poisson", "log"),
    ("gamma", "inverse"),
    ("gaussian", "identity"),
]


def _family(name, link):
    """The GLM family object of a (family, link) pair."""
    return family_for(lb.ModelSpec(name, link, ()))


def _design_of(Xd):
    """A DesignInfo around a bare design matrix."""
    Xd = np.asarray(Xd, dtype=float)
    q = Xd.shape[1]
    names = tuple(f"x{j}" for j in range(q))
    return lrdata.DesignInfo(Xd, names, np.zeros(q), np.ones(q), has_intercept=False)


# -- oracles: the scalar fitters the driver replaced ---------------------------


def _unit_score_info(family, y, eta):
    """d loglik / d eta and the information per observation: observed for
    the probit link, from scipy's log-space normal functions (a plain
    pdf / cdf is 0 / 0 far in the tails); expected elsewhere."""
    if (family.name, family.link) == ("binomial", "probit"):
        log_pdf = norm.logpdf(eta)
        up = np.exp(log_pdf - norm.logcdf(eta))
        down = np.exp(log_pdf - norm.logsf(eta))
        u = y * up - (1.0 - y) * down
        return u, y * up * (up + eta) + (1.0 - y) * down * (down - eta)
    mu = family.mean(eta)
    D = family.mean_deriv(eta)
    V = family.variance(mu)
    return D / V * (y - mu), D * D / V


def _scalar_fit(Xd, y, family, weights=None, beta0=None):
    """Scalar Newton with step-halving, on the information of
    `_unit_score_info`, under the `glm` settings; returns the
    coefficients."""
    w = weights

    def total_ll(eta):
        terms = family.loglik_terms(Workspace(y.size), y, eta)
        s = float(np.sum(terms) if w is None else np.sum(w * terms))
        return s if np.isfinite(s) else -np.inf

    if beta0 is None:
        beta = family.start(_design_of(Xd), y, None)
    else:
        beta = np.array(beta0, dtype=float)
    eta = Xd @ beta
    if not family.valid(beta, eta):
        raise NonConvergence("starting point outside the model's domain")
    ll = total_ll(eta)
    for _ in range(glm._MAX_ITER):
        u, h = _unit_score_info(family, y, eta)
        g = Xd.T @ (u if w is None else w * u)
        if np.max(np.abs(g)) <= glm._TOL:
            break
        wk = h if w is None else w * h
        H = (Xd * wk[:, None]).T @ Xd
        try:
            step = np.linalg.solve(H, g)
        except np.linalg.LinAlgError as exc:
            raise RankDeficient("singular information matrix") from exc
        t = 1.0
        accepted = False
        for _ in range(glm._MAX_HALVINGS + 1):
            cand = beta + t * step
            eta_c = Xd @ cand
            if family.valid(cand, eta_c):
                ll_c = total_ll(eta_c)
                tiny = np.max(np.abs(t * step)) <= 1e-6 * (1.0 + np.max(np.abs(beta)))
                slack = 4.0 * np.finfo(float).eps * (1.0 + abs(ll)) if tiny else 0.0
                if ll_c >= ll - slack:
                    accepted = True
                    break
            t *= 0.5
        if not accepted:
            break
        beta, eta, ll = cand, eta_c, ll_c
        if family.check_separation and np.max(np.abs(beta)) > glm._SEPARATION_BOUND:
            raise SeparationDetected("|beta| exceeded the separation bound")
    u, _ = _unit_score_info(family, y, eta)
    g = Xd.T @ (u if w is None else w * u)
    if np.max(np.abs(g)) > glm._TOL:
        raise NonConvergence("score norm above tolerance")
    return beta


def _ordinal_unpack(phi, J):
    gaps = np.exp(phi[1 : J - 1])
    return phi[0] + np.concatenate([[0.0], np.cumsum(gaps)]), phi[J - 1 :]


def _ordinal_pack(alpha, beta):
    return np.concatenate([[alpha[0]], np.log(np.diff(alpha)), beta])


def _ordinal_ll_grad(phi, Xd, y_idx, J, w):
    """Log-likelihood and analytic gradient in (alpha_1, log-gaps, beta)."""
    n, p = Xd.shape
    alpha, beta = _ordinal_unpack(phi, J)
    eta = Xd @ beta
    ext = np.concatenate([[-np.inf], alpha, [np.inf]])
    upper = ext[y_idx + 1] - eta
    lower = ext[y_idx] - eta
    P = np.clip(norm.cdf(upper) - norm.cdf(lower), 1e-300, None)
    wt = np.ones(n) if w is None else w
    ll = float(np.sum(wt * np.log(P)))
    dldu = norm.pdf(upper) / P * wt
    dldv = -norm.pdf(lower) / P * wt
    grad_alpha = np.zeros(J - 1)
    has_upper = y_idx <= J - 2
    np.add.at(grad_alpha, y_idx[has_upper], dldu[has_upper])
    has_lower = y_idx >= 1
    np.add.at(grad_alpha, y_idx[has_lower] - 1, dldv[has_lower])
    grad_phi = np.empty(J - 1 + p)
    grad_phi[0] = grad_alpha.sum()
    gaps = np.exp(phi[1 : J - 1])
    tail = np.cumsum(grad_alpha[::-1])[::-1]
    grad_phi[1 : J - 1] = gaps * tail[1:]
    grad_phi[J - 1 :] = Xd.T @ (-(dldu + dldv))
    return ll, grad_phi


def _fd_ordinal_fit(Xd, y, J, weights=None, phi0=None):
    """Newton on a central-difference Hessian of the analytic gradient, with
    a ridge loop and a gradient-ascent fallback, under the `glm`
    settings: returns (alpha, beta)."""
    y_idx = y.astype(int) - 1
    counts = np.bincount(y_idx, weights=weights, minlength=J)
    if np.any(counts == 0):
        raise EmptyCategory("empty category")
    if phi0 is None:
        cum = np.cumsum(counts)[: J - 1] / np.sum(counts)
        phi = _ordinal_pack(norm.ppf(cum), np.zeros(Xd.shape[1]))
    else:
        phi = np.array(phi0, dtype=float)
    m = phi.shape[0]

    def ll_grad(ph):
        return _ordinal_ll_grad(ph, Xd, y_idx, J, weights)

    ll, grad = ll_grad(phi)
    for _ in range(glm._MAX_ITER):
        if np.max(np.abs(grad)) <= glm._TOL:
            break
        H = np.empty((m, m))
        for k in range(m):
            h = 1e-6 * max(1.0, abs(phi[k]))
            up, dn = phi.copy(), phi.copy()
            up[k] += h
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
            step = grad
        t = 1.0
        accepted = False
        for _ in range(glm._MAX_HALVINGS + 1):
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
    if np.max(np.abs(grad)) > glm._TOL:
        raise NonConvergence("ordinal score norm above tolerance")
    return _ordinal_unpack(phi, J)


def _responses(family, eta, rng, b):
    n = eta.shape[0]
    if family == "binomial":
        return (rng.random((b, n)) < norm.cdf(eta)).astype(float)
    if family == "poisson":
        return rng.poisson(np.exp(eta), size=(b, n)).astype(float)
    if family == "gamma":
        return rng.gamma(2.0, 1.0 / (2.0 * eta), size=(b, n))
    return eta + rng.standard_normal((b, n))


def _design(rng, n):
    x = rng.uniform(-1.0, 1.0, size=(n, 2))
    return np.column_stack([np.ones(n), x])


def _scalar_rows(Xd, Y, family, W=None, beta0=None):
    """Per-row scalar oracle: (coefficients or None, error class or None)."""
    starts = None if beta0 is None else np.broadcast_to(beta0, (Y.shape[0], Xd.shape[1]))
    out = []
    for r in range(Y.shape[0]):
        try:
            beta = _scalar_fit(
                Xd, Y[r], family,
                weights=None if W is None else W[r],
                beta0=None if starts is None else starts[r],
            )
            out.append((beta, None))
        except FitError as exc:
            out.append((None, type(exc)))
    return out


def _block(family_name, weighted, seed):
    """An n=80 design with 9 response rows (and weights) of the family."""
    rng = np.random.default_rng(seed)
    n, b = 80, 9
    Xd = _design(rng, n)
    eta = Xd @ np.array([0.9, 0.3, -0.2]) if family_name == "gamma" else (
        Xd @ np.array([0.2, 0.6, -0.4])
    )
    Y = _responses(family_name, eta, rng, b)
    W = rng.standard_exponential((b, n)) if weighted else None
    return Xd, Y, W


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("family_name,link", FAMILIES)
@settings(max_examples=4, deadline=None, derandomize=True)
@given(st.booleans(), st.integers(min_value=0, max_value=10_000))
def test_batch_matches_scalar_per_row(family_name, link, weighted, warm, seed):
    family = _family(family_name, link)
    Xd, Y, W = _block(family_name, weighted, seed)
    beta0 = None
    if warm:
        beta0 = _scalar_fit(Xd, Y[0], family)
    out = fit_design_batch(_design_of(Xd), Y, family, weights=W, beta0=beta0)
    ref = _scalar_rows(Xd, Y, family, W=W, beta0=beta0)
    for r, (beta, err) in enumerate(ref):
        assert err is None, f"row {r}: scalar fit failed with {err.__name__}"
        assert out.errors[r] is None, f"row {r}: {out.errors[r]!r}"
        assert np.max(np.abs(out.beta[r] - beta)) <= 1e-10
    assert out.ok.all()


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
def test_probit_estimates_match_a_tight_tolerance_fit(weighted, monkeypatch):
    # Newton steps converge quadratically, so the step that passes the score
    # test mostly lands next to the optimum; the median gap under Fisher
    # scoring was about 1e-10. A last score just under the tolerance still
    # leaves a few rows some 1e-10 off.
    probit = _family("binomial", "probit")
    gaps = []
    for seed in range(8):
        Xd, Y, W = _block("binomial", weighted, seed)
        for beta0 in (None, _scalar_fit(Xd, Y[0], probit)):
            design = _design_of(Xd)
            out = fit_design_batch(design, Y, probit, weights=W, beta0=beta0)
            with monkeypatch.context() as m:
                m.setattr(glm, "_TOL", 1e-13)
                tight = fit_design_batch(design, Y, probit, weights=W, beta0=beta0)
            assert out.ok.all() and tight.ok.all()
            gaps.extend(np.max(np.abs(out.beta - tight.beta), axis=1))
    assert np.max(gaps) <= 1e-9
    assert np.median(gaps) <= 1e-12


def test_probit_score_and_information_are_exact_derivatives():
    # central differences of sum w * loglik_terms, and of the score, on
    # binary, fractional and weighted rows with |eta| up to 8
    rng = np.random.default_rng(12)
    n = 60
    x = np.linspace(-8.0, 8.0, n)
    Xd = np.column_stack([np.ones(n), x, np.sin(x)])
    design = _design_of(Xd)
    probit = _family("binomial", "probit")
    theta = np.array([[0.0, 1.0, 0.0]])
    binary = (rng.random((1, n)) < 0.5).astype(float)
    fractional = np.clip(rng.uniform(-0.2, 1.2, (1, n)), 0.0, 1.0)
    weights = rng.standard_exponential((1, n))

    def score(Y, W, th):
        # the hooks a block fit of Y runs: the one-term forms for binary Y
        family = probit.for_block(Y)
        eta = th @ Xd.T
        terms = family.loglik_terms(Workspace(Y.size), Y, eta)
        return family.score(Workspace(Y.size), design, Y, W, th, eta, terms)

    def total(Y, W, th):
        terms = probit.for_block(Y).loglik_terms(Workspace(Y.size), Y, th @ Xd.T)
        return float(np.sum(terms if W is None else W * terms))

    h = 1e-6
    for Y in (binary, fractional):
        for W in (None, weights):
            g, info = score(Y, W, theta)
            H = info(np.ones(1, dtype=bool))[0]
            fd_g = np.empty(3)
            fd_H = np.empty((3, 3))
            for j in range(3):
                e = np.zeros((1, 3))
                e[0, j] = h
                fd_g[j] = (total(Y, W, theta + e) - total(Y, W, theta - e)) / (2 * h)
                fd_H[:, j] = -(score(Y, W, theta + e)[0] - score(Y, W, theta - e)[0])[0] / (2 * h)
            assert np.max(np.abs(g[0] - fd_g)) <= 1e-6 * np.max(np.abs(fd_g))
            assert np.max(np.abs(H - fd_H)) <= 1e-6 * np.max(np.abs(fd_H))


def test_batch_failure_class_per_row(monkeypatch):
    rng = np.random.default_rng(5)
    n = 60
    x = np.concatenate([np.zeros(20), np.linspace(-2.0, 2.0, 40)])
    Xd = np.column_stack([np.ones(n), x])
    probit = _family("binomial", "probit")
    good = (rng.random(n) < norm.cdf(0.3 + 0.8 * x)).astype(float)
    separated = (x > 0).astype(float)
    separated[:20] = [0.0, 1.0] * 10
    Y = np.vstack([good, separated, good, good])
    W = np.ones_like(Y)
    # only the rows with x == 0 carry weight: the information matrix is singular
    W[2, 20:] = 0.0
    beta0 = np.array([0.1, 0.1])
    with monkeypatch.context() as m:
        m.setattr(glm, "_MAX_ITER", 500)
        m.setattr(glm, "_SEPARATION_BOUND", 50.0)
        out = fit_design_batch(_design_of(Xd), Y, probit, weights=W, beta0=beta0)
        ref = _scalar_rows(Xd, Y, probit, W=W, beta0=beta0)
    assert [type(e) if e else None for e in out.errors] == [e for _, e in ref]
    assert [type(e) if e else None for e in out.errors] == [
        None, SeparationDetected, RankDeficient, None,
    ]
    assert np.all(np.isnan(out.beta[1:3]))
    assert np.max(np.abs(out.beta[0] - ref[0][0])) <= 1e-10

    # an iteration cap fails the rows that start away from their optimum
    monkeypatch.setattr(glm, "_MAX_ITER", 1)
    starts = np.vstack([ref[0][0], beta0, beta0])
    Yc = np.vstack([good, good, separated])
    out = fit_design_batch(_design_of(Xd), Yc, probit, beta0=starts)
    errors = [type(e) if e else None for e in out.errors]
    assert errors == [e for _, e in _scalar_rows(Xd, Yc, probit, beta0=starts)]
    assert errors == [None, NonConvergence, NonConvergence]
    assert out.iterations[0] == 0


@pytest.mark.parametrize("family_name,link", [FAMILIES[0], FAMILIES[2], FAMILIES[4]])
def test_row_with_a_nan_response_fails_before_any_step(family_name, link):
    # every candidate step passes the ascent test against a start whose
    # log-likelihood is not finite, so such a row would run to the
    # iteration cap and be reported converged with NaN coefficients
    Xd, Y, _ = _block(family_name, False, 3)
    Y[1, 7] = np.nan
    out = fit_design_batch(_design_of(Xd), Y, _family(family_name, link))
    assert isinstance(out.errors[1], NonConvergence)
    assert out.iterations[1] == 0 and np.all(np.isnan(out.beta[1]))
    assert [e is None for e in out.errors] == [r != 1 for r in range(len(Y))]


def test_iteration_cap_fails_a_row_whose_final_score_is_nan(monkeypatch):
    # the final score test must read a NaN score norm as above tolerance
    class NaNScore(type(_family("gaussian", "identity"))):
        def score(self, *args):
            g, info = super().score(*args)
            return np.full_like(g, np.nan), info

    Xd, Y, _ = _block("gaussian", False, 3)
    monkeypatch.setattr(glm, "_MAX_ITER", 0)
    out = fit_design_batch(_design_of(Xd), Y[:2], NaNScore())
    assert all(isinstance(e, NonConvergence) for e in out.errors)


def test_binary_probit_loglik_single_log_ndtr_is_exact():
    rng = np.random.default_rng(8)
    eta = rng.standard_normal((4, 500)) * 4.0
    y = (rng.random((4, 500)) < 0.5).astype(float)
    two_term = y * log_ndtr(eta) + (1.0 - y) * log_ndtr(-eta)
    probit = _family("binomial", "probit")
    binary = probit.for_block(y)
    assert binary is not probit
    assert np.array_equal(binary.loglik_terms(Workspace(y.size), y, eta), two_term)
    assert np.array_equal(probit.loglik_terms(Workspace(y.size), y, eta), two_term)
    frac = np.clip(y + 0.25, 0.0, 1.0)
    assert probit.for_block(frac) is probit
    assert np.array_equal(
        probit.loglik_terms(Workspace(y.size), frac, eta),
        frac * log_ndtr(eta) + (1.0 - frac) * log_ndtr(-eta),
    )


def test_binary_probit_score_equals_the_two_term_form():
    # a block's family is chosen once per block: the one-term score of a
    # binary block gives the bits of the two-term one
    rng = np.random.default_rng(9)
    n = 300
    Xd = np.column_stack([np.ones(n), rng.uniform(-3.0, 3.0, n)])
    design = _design_of(Xd)
    probit = _family("binomial", "probit")
    coef = np.array([[0.2, 1.1], [-0.5, 2.0]])
    eta = coef @ Xd.T
    Y = (rng.random((2, n)) < 0.5).astype(float)
    W = rng.standard_exponential((2, n))
    sel = np.ones(2, dtype=bool)
    for w in (None, W):
        got = []
        for family in (probit.for_block(Y), probit):
            terms = family.loglik_terms(Workspace(Y.size), Y, eta)
            g, info = family.score(Workspace(Y.size), design, Y, w, coef, eta, terms)
            got.append((g, info(sel)))
        assert np.array_equal(got[0][0], got[1][0])
        assert np.array_equal(got[0][1], got[1][1])


@pytest.mark.parametrize(
    "kind", ["binary-probit", "fractional-probit", *[f"{f}-{l}" for f, l in FAMILIES[1:]],
             "ordinal"],
)
def test_shared_start_terms_equal_the_per_row_terms(kind):
    # the rows of a block at one start take their terms from the start table:
    # the bits of `loglik_terms` at that start in every row. A family without
    # a finite response set has no table and computes them per row, at the
    # bits of its terms on the start's eta copied into the block
    from lrboot import glm

    rng = np.random.default_rng(12)
    b, n = 6, 400
    x = rng.standard_normal(n) * 3.0
    x[:5] = [0.0, 8.0, -8.0, 38.0, -38.0]
    design = _design_of(x[:, None])
    coef = np.array([1.0])  # eta = x exactly
    if kind == "ordinal":
        family = CumulativeProbit(4)
        y = rng.integers(1, 5, size=(b, n)).astype(float)
        coef = np.array([-1.0, 0.2, 1.3, 1.0])
    else:
        name, link = kind.split("-")
        probit = name in ("binary", "fractional")
        family = _family("binomial" if probit else name, link)
        y = _responses("binomial" if probit else name, np.full(n, 0.4), rng, b)
        if name == "fractional":
            y[:, 1::2] = 0.3
        y[0, 0] = 0.0  # y = 0 at eta = 0
        family = family.for_block(y)
        assert (type(family).__name__ == "_BinaryProbit") == (name == "binary")
    coefs = np.tile(coef, (b, 1))
    eta = np.matmul(coefs[:, family.n_cut:], design.transpose)
    assert eta.tobytes() == np.tile(x, (b, 1)).tobytes()
    finite = kind in ("binary-probit", "ordinal")
    assert (family.values is not None) == finite
    start = glm._Start(family, design, coef, b)
    assert start.eta.tobytes() == x.tobytes()
    assert (start.family is family) == finite
    with np.errstate(all="ignore"):
        if finite:
            shared = start.loglik_terms(Workspace(y.size), y)
        else:
            shared = family.loglik_terms(Workspace(y.size), y,
                                         np.broadcast_to(start.eta, y.shape), coefs)
        per_row = family.loglik_terms(Workspace(y.size), y, eta, coefs)
    assert shared.tobytes() == per_row.tobytes()


def _score_bytes(g, info, sel):
    return g.tobytes(), info(sel).tobytes()


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("start", ["warm", "cold"])
@pytest.mark.parametrize("kind", ["binary-probit", "ordinal-3", "ordinal-4", "ordinal-5"])
def test_start_table_first_score_equals_the_per_row_score(kind, start, weighted):
    # a start table's terms, gradient and information (of every row, and of
    # a subset of rows) hold the bits of the per-row computation at the
    # table's eta, the first row of a block's product at the start
    from lrboot import glm

    rng = np.random.default_rng(len(kind) + 7 * weighted)
    b, n = 7, 300
    if kind == "binary-probit":
        Xd = _design(rng, n)
        Y = (rng.random((b, n)) < norm.cdf(Xd @ np.array([0.2, 0.6, -0.4]))).astype(float)
        family = _family("binomial", "probit").for_block(Y)
        coef = np.zeros(3)
        if start == "warm":
            coef = _scalar_fit(Xd, Y[0], _family("binomial", "probit"))
    else:
        J = int(kind[-1])
        Xd, Y = _ordinal_block(rng, J, n=n, b=b)
        family = CumulativeProbit(J)
        coef = family.start(_design_of(Xd), Y[0], None)  # zero slopes
        if start == "warm":
            alpha, beta = _fd_ordinal_fit(Xd, Y[0], J)
            coef = np.concatenate([alpha, beta])
    design = _design_of(Xd)
    W = rng.standard_exponential(Y.shape) if weighted else None
    coefs = np.tile(coef, (b, 1))
    table = glm._Start(family, design, coef, b)
    product = np.matmul(coefs[:, family.n_cut:], design.transpose)
    assert table.eta.tobytes() == product[0].tobytes()
    eta = np.tile(table.eta, (b, 1))
    assert eta.tobytes() == product.tobytes()
    ws = Workspace(Y.size)
    terms = family.loglik_terms(ws, Y, eta, coefs).copy()
    assert table.loglik_terms(Workspace(Y.size), Y).tobytes() == terms.tobytes()
    some = np.arange(b) % 3 == 1
    for sel in (np.ones(b, dtype=bool), some):
        per_row = _score_bytes(*family.score(Workspace(Y.size), design, Y, W, coefs, eta,
                                             terms), sel)
        shared = _score_bytes(*table.score(Workspace(Y.size), design, Y, W, coefs), sel)
        assert shared == per_row
    if kind != "binary-probit":
        # the ordinal information of a subset of rows is those rows of every
        # row's, as its gram runs on every row
        g, info = family.score(Workspace(Y.size), design, Y, W, coefs, eta, terms)
        full = info(np.ones(b, dtype=bool))
        g, info = family.score(Workspace(Y.size), design, Y, W, coefs, eta, terms)
        assert info(some).tobytes() == full[some].tobytes()


def _binary_probit_blocks():
    """(name, design, Y, W, beta0) blocks of binary probit responses whose
    rows start at one coefficient vector, with the rows a start table must
    cope with."""
    rng = np.random.default_rng(21)
    Xd, Y, _ = _block("binomial", False, 4)
    design = _design_of(Xd)
    n = Xd.shape[0]
    warm = _scalar_fit(Xd, Y[0], _family("binomial", "probit"))
    equal = np.broadcast_to(Y[1], Y.shape)
    counts = rng.multinomial(n, np.full(n, 1 / n), size=len(Y)).astype(float)
    constant = Y.copy()
    constant[2] = 1.0
    nan = Y.copy()
    nan[3, 5] = np.nan
    return [
        ("warm", design, Y, None, warm),
        ("cold", design, Y, None, None),
        ("weighted-equal-rows", design, equal, counts, warm),
        ("screened-constant-row", design, constant, None, warm),
        ("nan-response-row", design, nan, None, warm),
        ("per-row-starts", design, Y, None, np.outer(np.linspace(0.5, 1.5, len(Y)), warm)),
    ]


@pytest.mark.parametrize("case", range(6), ids=[
    "warm", "cold", "weighted-equal-rows", "screened-constant-row", "nan-response-row",
    "per-row-starts",
])
def test_shared_start_leaves_every_block_fit_unchanged(monkeypatch, case):
    # a block fit from its run's start, handed over as `refit_blocks` does,
    # changes no bit of the fit from its own start product and terms; a
    # cold block and rows that start apart have no run start, and a block
    # with a NaN response, which the two-term family fits, takes no table
    from lrboot import glm

    name, design, Y, W, beta0 = _binary_probit_blocks()[case]
    probit = _family("binomial", "probit")
    shared = beta0 is not None and np.ndim(beta0) == 1
    used = []
    real = glm._Start.loglik_terms

    def fit(start):
        return _fit_bytes(glm.fit_design_batch(design, Y, probit, W, start))

    def run_start():
        return glm._Start(probit, design, beta0, len(Y)) if shared else beta0

    with monkeypatch.context() as m:
        m.setattr(glm._Start, "loglik_terms",
                  lambda self, ws, y: used.append(True) or real(self, ws, y))
        got = fit(run_start())
        assert used == ([] if name in ("cold", "per-row-starts", "nan-response-row") else [True])
        m.setattr(glm.BinomialProbit, "table_family", lambda self: None)
        assert fit(run_start()) == got
        assert fit(beta0) == got
    assert fit_design_batch(design, Y, probit, weights=W, beta0=beta0).beta.tobytes() == got[0]
    # the screened row and the NaN row fail before any step, the others converge
    out = glm.fit_design_batch(design, Y, probit, W, run_start())
    failed = {"screened-constant-row": (2, SeparationDetected),
              "nan-response-row": (3, NonConvergence)}.get(name)
    ok = np.ones(len(Y), dtype=bool)
    if failed:
        r, cls = failed
        assert isinstance(out.errors[r], cls) and out.iterations[r] == 0
        ok[r] = False
    assert np.array_equal(out.ok, ok)


def _one_row_last_block_run():
    """(fit, Y, draw, count, rows): binary probit responses drawn at a QMLE
    for a warm run whose last block has one row."""
    ds, spec = _probit_data()
    fit = lb.fit_qmle(ds, spec)
    rows = block_rows(ds.n)
    count = 3 * rows + 1
    Y = (np.random.default_rng(3).random((count, ds.n)) < fit.mu_hat).astype(float)

    def draw(first, stop):
        return Y[first:stop], None

    return fit, Y, draw, count, rows


def test_refit_blocks_builds_one_start_table_per_run(monkeypatch):
    # a warm run makes its start once, before any worker forks, with a table
    # for a family with a finite response set; a cold run makes none
    from lrboot import glm

    built, blocks = [], []  # the starts made; the rows of each block this process fits
    real, real_fit = glm._Start.__init__, glm.fit_design_batch

    def counting(self, family, design, coef, rows):
        real(self, family, design, coef, rows)
        built.append((type(family).__name__, rows, type(self.family).__name__))

    def fit_block(design, Y, *args):
        blocks.append(len(Y))
        return real_fit(design, Y, *args)

    monkeypatch.setattr(glm._Start, "__init__", counting)
    fit, Y, draw, count, rows = _one_row_last_block_run()
    monkeypatch.setattr(glm, "fit_design_batch", fit_block)
    outs = []
    for threads in (1, 2):
        built.clear()
        blocks.clear()
        outs.append(glm.refit_blocks(fit.design, fit.family, draw, count,
                                     beta0=fit.coef, n_threads=threads))
        assert built == [("BinomialProbit", rows, "_BinaryProbit")]
        if threads == 1:
            assert blocks == [rows, rows, rows, 1]
    assert len(outs[0].errors) == count
    assert _fit_bytes(outs[0]) == _fit_bytes(outs[1])
    built.clear()
    glm.refit_blocks(fit.design, fit.family, draw, count)
    assert built == []
    logit = _family("binomial", "logit")
    glm.refit_blocks(fit.design, logit, draw, count, beta0=fit.coef)
    assert built == [("BinomialLogit", rows, "NoneType")]


def test_one_row_last_block_starts_from_the_runs_table(monkeypatch):
    # every block of a warm run, the one-row last block included, copies the
    # run's start eta and reads the run's table. BLAS forms a one-row
    # product with gemv, which may round otherwise than a larger product,
    # so the one-row block's later steps may differ in the last bits: its
    # fit matches row 0 of the same response fitted as a two-row block in
    # iterations and error, and in coefficients to rounding
    from lrboot import glm

    fit, Y, draw, count, rows = _one_row_last_block_run()
    starts, reads = [], []  # each block's start eta; the rows of each table read
    real_fit, real_valid = glm.fit_design_batch, glm._BaseFamily.valid
    real_read = glm._Start.loglik_terms

    def fit_block(*args):
        starts.append(None)
        return real_fit(*args)

    def valid(self, coef, eta):
        if starts[-1] is None:  # a block's first call: its start
            starts[-1] = eta.copy()
        return real_valid(self, coef, eta)

    def read(self, ws, y):
        reads.append((len(y), self))
        return real_read(self, ws, y)

    monkeypatch.setattr(glm, "fit_design_batch", fit_block)
    monkeypatch.setattr(glm._BaseFamily, "valid", valid)
    monkeypatch.setattr(glm._Start, "loglik_terms", read)
    out = glm.refit_blocks(fit.design, fit.family, draw, count, beta0=fit.coef)
    assert [b for b, _ in reads] == [rows, rows, rows, 1]
    start = reads[0][1]
    assert all(table is start for _, table in reads)
    assert [s.tobytes() for s in starts] == [
        np.tile(start.eta, (b, 1)).tobytes() for b in (rows, rows, rows, 1)]
    two = fit_block(fit.design, Y[[-1, 0]], fit.family, None, start)
    assert reads[-1] == (2, start) and starts[-1][0].tobytes() == starts[3][0].tobytes()
    assert out.ok[-1] and two.ok[0]
    assert out.iterations[-1] == two.iterations[0]
    np.testing.assert_allclose(out.beta[-1], two.beta[0], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("family", ["cold", "binomial-probit", "binomial-logit", "ordinal"])
def test_refit_blocks_of_no_rows_yield_nothing(monkeypatch, family):
    # a run asked for no rows draws nothing, fits nothing and makes no start:
    # its fit has no rows
    from lrboot import glm

    monkeypatch.setattr(glm._Start, "__init__", lambda *args: pytest.fail("start made"))
    fit, *_ = _one_row_last_block_run()
    fam, beta0 = fit.family, None if family == "cold" else fit.coef
    if family == "ordinal":
        fam, beta0 = CumulativeProbit(3), np.concatenate([[-0.5, 0.5], fit.coef])
    elif family != "cold":
        fam = _family(*family.split("-"))

    def draw(first, stop):
        pytest.fail("drawn")

    monkeypatch.setattr(glm, "fit_design_batch", lambda *args: pytest.fail("fitted"))
    for count in (0, -1):
        for keep in (False, True):
            out = glm.refit_blocks(fit.design, fam, draw, count, beta0=beta0,
                                   keep_responses=keep)
            assert out.errors == [] and out.beta.shape == (0, fam.n_cut + fit.design.q)
            assert out.iterations.shape == out.grad_norm.shape == out.loglik.shape == (0,)
            n = fit.design.matrix.shape[0]
            assert out.responses is None if not keep else out.responses.shape == (0, n)


def test_ordinal_information_sums_only_rows_that_step(monkeypatch):
    # the gradient takes two category sums per score call; the information's
    # 2p + 3 run only on a score where some row steps, over those rows alone
    from lrboot import glm

    with np.errstate(all="ignore"):
        ds = sl.generate("SC1_ordinal", n=400, seed=3)
    spec = sl.get_scenario("SC1_ordinal").assumed
    fit = lb.fit_qmle(ds, spec)
    J, p = spec.n_categories, fit.design.q
    Y = np.array([fit.family.simulate([np.random.default_rng(s)], fit.mu_hat)[0]
                  for s in range(6)])
    sums = []
    real_bincount = np.bincount

    def counting(x, weights=None, minlength=0):
        sums.append(minlength // J)
        return real_bincount(x, weights=weights, minlength=minlength)

    stepped = []
    real_score = glm.CumulativeProbit.score_cells

    def score_cells(self, *args):
        g, info = real_score(self, *args)
        return g, lambda sel: stepped.append(int(sel.sum())) or info(sel)

    monkeypatch.setattr(glm.np, "bincount", counting)
    monkeypatch.setattr(glm.CumulativeProbit, "score_cells", score_cells)
    out = fit_design_batch(fit.design, Y, fit.family, beta0=fit.coef)
    monkeypatch.undo()
    assert out.ok.all() and len(set(out.iterations)) > 1
    # a score call per iteration and a last one where no row steps
    calls = int(out.iterations.max()) + 1
    assert stepped == [int(np.sum(out.iterations > i)) for i in range(calls - 1)]
    expected = []
    for i in range(calls):
        rows = int(np.sum(out.iterations >= i))
        expected += [rows, rows]
        if i < calls - 1:
            expected += [stepped[i]] * (2 * p + 3)
    assert sums == expected


@pytest.mark.parametrize("n", [400, 2000])
def test_every_family_gets_the_same_block_rows(n):
    # one function of n sizes every family's blocks, the ordinal model's too
    assert block_rows(n) == {400: 81, 2000: 16}[n] == 2**15 // n


def test_ordinal_zero_weight_category_is_empty():
    # a pairwise resample is a weighted fit on multinomial counts; a category
    # none of whose rows was drawn is empty, as in the resampled data
    x = np.linspace(-1.0, 1.0, 30)
    y = np.repeat([1.0, 2.0, 3.0], 10)
    w = np.ones(30)
    w[10:20] = 0.0
    out = fit_design_batch(
        _design_of(x[:, None]), y[None], CumulativeProbit(3), weights=w[None]
    )
    assert isinstance(out.errors[0], EmptyCategory)
    assert out.iterations[0] == 0
    with pytest.raises(EmptyCategory):
        _fd_ordinal_fit(x[:, None], y, 3, weights=w)


def _ordinal_block(rng, J, n, b):
    """A design with two covariates and b response rows in 1..J, every
    category present in each row."""
    Xd = rng.uniform(-1.0, 1.0, size=(n, 2))
    eta = Xd @ np.array([0.8, -0.5])
    cuts = np.linspace(-1.0, 1.0, J - 1)
    while True:
        z = eta + rng.standard_normal((b, n))
        Y = 1.0 + (z[:, :, None] > cuts).sum(axis=2)
        if all(len(np.unique(row)) == J for row in Y):
            return Xd, Y


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@settings(max_examples=6, deadline=None, derandomize=True)
@given(st.sampled_from([3, 4, 5]), st.booleans(), st.integers(min_value=0, max_value=10_000))
def test_ordinal_driver_matches_finite_difference_oracle(weighted, J, warm, seed):
    rng = np.random.default_rng(seed)
    Xd, Y = _ordinal_block(rng, J, n=90, b=5)
    W = rng.standard_exponential(Y.shape) if weighted else None
    family = CumulativeProbit(J)
    beta0 = phi0 = None
    if warm:
        alpha, beta = _fd_ordinal_fit(Xd, Y[0], J)
        beta0, phi0 = np.concatenate([alpha, beta]), _ordinal_pack(alpha, beta)
    out = fit_design_batch(_design_of(Xd), Y, family, weights=W, beta0=beta0)
    assert out.ok.all(), out.errors
    for r in range(len(Y)):
        alpha, beta = _fd_ordinal_fit(
            Xd, Y[r], J, weights=None if W is None else W[r], phi0=phi0
        )
        assert np.max(np.abs(out.beta[r] - np.concatenate([alpha, beta]))) <= 1e-8


def test_ordinal_start_with_crossed_cutpoints_fails_before_any_step():
    # cutpoints that do not strictly increase lie outside the model's domain
    rng = np.random.default_rng(21)
    Xd, Y = _ordinal_block(rng, 3, n=90, b=2)
    out = fit_design_batch(_design_of(Xd[:, :1]), Y, CumulativeProbit(3),
                           beta0=[0.5, -0.5, 1.0])
    assert all(isinstance(e, NonConvergence) for e in out.errors)
    assert list(out.iterations) == [0, 0]


def test_ordinal_step_that_crosses_the_cutpoints_is_halved():
    # from this far start, with one observation in category 2, a Newton
    # step crosses the cutpoints. Taken, it leads on to a fit with
    # alpha_2 < alpha_1 that passes the score test, as the crossed cells'
    # probabilities are clipped flat
    rng = np.random.default_rng(3)
    x = rng.uniform(-1.0, 1.0, 60)
    z = 3.0 * x + rng.standard_normal(60)
    y = 1.0 + (z[:, None] > np.array([1.0, 1.3, 2.5])).sum(axis=1)
    assert np.sum(y == 2) == 1
    design, family = _design_of(x[:, None]), CumulativeProbit(4)
    out = fit_design_batch(design, y[None], family, beta0=[-4.6, -1.3, -0.3, -4.0])
    cold = fit_design_batch(design, y[None], family)
    assert out.ok.all() and cold.ok.all()
    assert np.all(np.diff(out.beta[0, :3]) > 0)
    assert np.max(np.abs(out.beta - cold.beta)) <= 1e-8


@pytest.mark.parametrize("J", [3, 4, 5])
def test_ordinal_score_and_information_are_exact_derivatives(J):
    # central differences of sum w * loglik_terms, and of the score, on
    # weighted and unweighted rows with |eta| up to 8
    rng = np.random.default_rng(J)
    n, K = 60, J - 1
    x = np.linspace(-8.0, 8.0, n)
    Xd = np.column_stack([x, np.sin(x)])
    design = _design_of(Xd)
    family = CumulativeProbit(J)
    phi = np.concatenate([[-0.6], rng.normal(-0.5, 0.3, J - 2), [1.0, 0.3]])
    alpha, beta = _ordinal_unpack(phi, J)
    coef = np.concatenate([alpha, beta])[None]
    # responses drawn from the model, so the rows at |eta| = 8 sit in the
    # first and last categories, at an infinite edge
    z = Xd @ beta + rng.standard_normal(n)
    Y = 1.0 + (z[:, None] > alpha).sum(axis=1)[None]
    weights = rng.standard_exponential((1, n))
    m = coef.shape[1]

    def score(W, c):
        eta = c[:, K:] @ Xd.T
        terms = family.loglik_terms(Workspace(Y.size), Y, eta, c)
        return family.score(Workspace(Y.size), design, Y, W, c, eta, terms)

    def total(W, c):
        terms = family.loglik_terms(Workspace(Y.size), Y, c[:, K:] @ Xd.T, c)
        return float(np.sum(terms if W is None else W * terms))

    h = 1e-6
    for W in (None, weights):
        g, info = score(W, coef)
        H = info(np.ones(1, dtype=bool))[0]
        fd_g = np.empty(m)
        fd_H = np.empty((m, m))
        for j in range(m):
            e = np.zeros((1, m))
            e[0, j] = h
            fd_g[j] = (total(W, coef + e) - total(W, coef - e)) / (2 * h)
            fd_H[:, j] = -(score(W, coef + e)[0] - score(W, coef - e)[0])[0] / (2 * h)
        assert np.max(np.abs(g[0] - fd_g)) <= 1e-6 * np.max(np.abs(fd_g))
        assert np.max(np.abs(H - fd_H)) <= 1e-6 * np.max(np.abs(fd_H))


def test_ordinal_score_at_infinite_edges_and_clipped_cells_is_finite():
    # observations in the first and last categories meet an infinite edge,
    # where u phi(u) is inf * 0. The lower edge of the next-to-last cell's
    # category lies 11 sd above its eta, where Phi rounds to 1: P is taken
    # on the upper tail, as Phi(-11). The last cell's lies 41 sd above,
    # where Phi(-41) underflows though phi does not: loglik_terms clips it
    # at _P_MIN, and it adds nothing
    n, J = 13, 4
    family = CumulativeProbit(J)
    x = np.linspace(-3.0, 3.0, n)
    x[-2:] = -10.0, -40.0
    Xd = x[:, None]
    Y = np.array([[1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4, 4]], dtype=float)
    coef = np.array([[-1.0, 0.0, 1.0, 1.0]])
    eta = coef[:, J - 1 :] @ Xd.T
    terms = family.loglik_terms(Workspace(Y.size), Y, eta, coef)
    assert np.isclose(terms[0, -2], log_ndtr(-11.0), rtol=1e-14, atol=0.0)
    assert terms[0, -1] == np.log(1e-300)
    alive = np.ones((1, n))
    alive[0, -1] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g, info = family.score(Workspace(Y.size), _design_of(Xd), Y, None, coef, eta, terms)
        H = info(np.ones(1, dtype=bool))
        g0, info0 = family.score(Workspace(Y.size), _design_of(Xd), Y, alive, coef, eta, terms)
        H0 = info0(np.ones(1, dtype=bool))
    assert np.all(np.isfinite(g)) and np.all(np.isfinite(H))
    assert np.allclose(g, g0, rtol=1e-14, atol=0.0)
    assert np.allclose(H, H0, rtol=1e-14, atol=0.0)


def test_constant_binary_rows_fail_before_fitting():
    # with an intercept, responses that are all 0 or all 1 (among rows of
    # positive weight) have no MLE: the row fails without a Newton step
    rng = np.random.default_rng(3)
    n = 50
    Xd = np.column_stack([np.ones(n), rng.uniform(-1.0, 1.0, n)])
    good = (rng.random(n) < 0.5).astype(float)
    mostly_ones = np.ones(n)
    mostly_ones[:5] = 0.0
    Y = np.vstack([good, np.ones(n), np.zeros(n), mostly_ones])
    W = np.ones_like(Y)
    W[3, :5] = 0.0  # the zeros of row 3 carry no weight
    for name, link in FAMILIES[:2]:
        out = fit_design_batch(_design_of(Xd), Y, _family(name, link), weights=W)
        assert [type(e) if e else None for e in out.errors] == [
            None, SeparationDetected, SeparationDetected, SeparationDetected,
        ]
        assert list(out.iterations[1:]) == [0, 0, 0]
    # without a constant column the screen does not apply
    out = fit_design_batch(_design_of(Xd[:, 1:]), Y[:1], _family("binomial", "probit"))
    assert out.ok.all()


def test_ordinal_block_refit_memory_is_bounded():
    # 64-row ordinal blocks peak near 19 MB traced here; the cell budget
    # keeps the blocks (16 rows at n=2000, as for every family) and this
    # peak small
    with np.errstate(all="ignore"):
        ds = sl.generate("SC1_ordinal", n=2000, seed=4)
    spec = sl.get_scenario("SC1_ordinal").assumed
    tracemalloc.start()
    try:
        out = run(ds, spec, BootstrapMethod("lrb", "surrogate", 10), B=100, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.n_failed == 0
    assert peak < 8 * 2**20, f"traced peak {peak / 2**20:.1f} MB"


def test_column_products_are_built_without_temporaries():
    # each column's block of products is written in place into Z; forming
    # X[:, iu] and X[:, ju] first would peak near three times Z's size
    rng = np.random.default_rng(9)
    design = _design_of(rng.standard_normal((3000, 20)))
    tracemalloc.start()
    try:
        iu, ju, Z = design.column_products
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * Z.nbytes, f"traced peak {peak / Z.nbytes:.2f} x Z"
    X = design.matrix
    assert np.array_equal(Z, X[:, iu] * X[:, ju])
    wk = rng.standard_exponential((3, 3000))
    assert np.allclose(design.gram(wk), np.einsum("rn,ni,nj->rij", wk, X, X), rtol=1e-12)


def _lrb_block(scenario, B):
    """(fit, B x n LRB responses) on the scenario at n=2000."""
    with np.errstate(all="ignore"):
        ds = sl.generate(scenario, n=2000, seed=4)
    spec = sl.get_scenario(scenario).assumed
    fit = lb.fit_qmle(ds, spec)
    out = run(ds, spec, BootstrapMethod("lrb", "surrogate", 10), B=B, seed=2, fit=fit,
              keep_responses=True)
    return fit, out.responses


@pytest.mark.parametrize(
    "scenario,rows,limit_mb",
    [("SC1_probit", 16, 1.5), ("SC1_ordinal", 16, 0.5)],
    ids=["probit", "ordinal"],
)
def test_warm_block_fit_allocates_no_block_sized_temporaries(scenario, rows, limit_mb):
    # a full block on the thread's workspace; fresh b x n temporaries in
    # every Newton step would peak above 3.4 MB (probit) and 3.4 MB (ordinal,
    # a fresh array for each workspace request)
    fit, Y = _lrb_block(scenario, B=rows)
    assert rows == block_rows(2000)
    fit_design_batch(fit.design, Y, fit.family, beta0=fit.coef)  # fills the workspace
    tracemalloc.start()
    try:
        out = fit_design_batch(fit.design, Y, fit.family, beta0=fit.coef)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.ok.all()
    assert peak <= limit_mb * 2**20, f"traced peak {peak / 2**20:.2f} MB"


def _in_fresh_thread(fn):
    """fn() run in a new thread, which starts with no workspace."""
    result = []
    worker = threading.Thread(target=lambda: result.append(fn()))
    worker.start()
    worker.join(timeout=120)
    assert not worker.is_alive() and len(result) == 1
    return result[0]


def _fit_bytes(out):
    return (out.beta.tobytes(), out.iterations.tobytes(), out.grad_norm.tobytes(),
            out.loglik.tobytes(), [repr(e) for e in out.errors])


def test_reused_workspace_leaks_no_state_between_blocks():
    # blocks of different row counts, weights, families and n fitted in turn
    # in one thread each equal the same fit in a thread of its own
    probit, Y16 = _lrb_block("SC1_probit", B=16)
    counts = np.random.default_rng(1).multinomial(2000, np.full(2000, 1 / 2000), size=16)
    ordinal, Y4 = _lrb_block("SC1_ordinal", B=4)
    Xd, Yn, Wn = _block("binomial", True, 0)
    first = (probit.design, Y16, probit.family, None, probit.coef)
    blocks = [
        first,
        (probit.design, Y16[4:8], probit.family, None, None),
        (probit.design, np.broadcast_to(Y16[0], (16, 2000)), probit.family,
         counts.astype(float), probit.coef),
        (ordinal.design, Y4, ordinal.family, None, ordinal.coef),
        (_design_of(Xd), Yn, probit.family, Wn, None),
        first,
    ]

    def fit(design, Y, family, W, beta0):
        return _fit_bytes(fit_design_batch(design, Y, family, weights=W, beta0=beta0))

    alone = [_in_fresh_thread(lambda blk=blk: fit(*blk)) for blk in blocks]
    in_turn = _in_fresh_thread(lambda: [fit(*blk) for blk in blocks])
    for r, (a, b) in enumerate(zip(alone, in_turn)):
        assert a == b, f"block {r} differs after the blocks before it"


def test_each_design_builds_its_column_products_once(monkeypatch):
    # every block of a run, a pseudo-truth and an experiment refits on one
    # design, which builds its products on the first fit only; the experiment
    # fits on the design of the truth's frozen draw, so it builds none
    builds = []
    real = lrdata._column_products

    def counting(X):
        builds.append(X.shape)
        return real(X)

    monkeypatch.setattr(lrdata, "_column_products", counting)
    ds = sl.generate("SC2", n=2000, seed=6)
    spec = sl.get_scenario("SC2").assumed
    assert -(-100 // block_rows(ds.n)) == 7
    outs = []
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # more workers than cores, switching often
    try:
        for threads in (1, 2, 4):
            builds.clear()
            outs.append(run(ds, spec, BootstrapMethod("parametric"), B=100, seed=4,
                            n_threads=threads))
            assert builds == [(2000, 11)]
    finally:
        sys.setswitchinterval(switch)
    for out in outs[1:]:
        assert np.array_equal(outs[0].replicates, out.replicates)

    builds.clear()
    truth = sl.pseudo_truth("SC2", n=2000, reps=100, seed=6)
    assert builds == [(2000, 11)]
    builds.clear()
    methods = [BootstrapMethod("parametric"), BootstrapMethod("pairwise")]
    sl.run_experiment(methods, truth, B=20, replications=2, seed=1)
    assert builds == []


def _probit_data(n=150, seed=7):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2, 2, n)
    y = (rng.random(n) < norm.cdf(0.3 + 0.9 * x - 0.2 * x**2)).astype(float)
    ds = lb.make_dataset(y, x[:, None])
    return ds, lb.ModelSpec("binomial", "probit", (lb.Term("raw", 0),))


@pytest.mark.parametrize(
    "method",
    [
        BootstrapMethod("lrb", "surrogate", 8),
        BootstrapMethod("local_response", l=8),
        BootstrapMethod("classical_residual", "pearson"),
        BootstrapMethod("parametric"),
        BootstrapMethod("pairwise"),
        BootstrapMethod("wild"),
        BootstrapMethod("multiplier"),
    ],
    ids=lambda m: m.label,
)
def test_blocks_are_thread_invariant_for_every_method(method):
    # 218 rows a block at n=150: B=700 makes four blocks, the last one short,
    # so a second worker process draws and fits blocks
    ds, spec = _probit_data()
    assert block_rows(ds.n) == 218
    a = run(ds, spec, method, B=700, seed=17, n_threads=1)
    b = run(ds, spec, method, B=700, seed=17, n_threads=2)
    assert a.n_failed == b.n_failed
    assert np.array_equal(a.replicates, b.replicates)


def test_ordinal_blocks_are_thread_invariant():
    rng = np.random.default_rng(15)
    n = 120
    x = rng.uniform(-1.5, 1.5, n)
    z = 1.1 * x + rng.standard_normal(n)
    y = 1.0 + (z[:, None] > np.array([-0.8, 0.5])[None, :]).sum(axis=1)
    ds = lb.make_dataset(y, x[:, None])
    spec = lb.ModelSpec(
        "ordinal", "probit", (lb.Term("raw", 0),), include_intercept=False, n_categories=3
    )
    m = BootstrapMethod("pairwise")
    # 273 rows a block at n=120: B=900 makes four blocks, the last one short
    assert block_rows(n) == 273
    a = run(ds, spec, m, B=900, seed=3, n_threads=1)
    b = run(ds, spec, m, B=900, seed=3, n_threads=2)
    assert np.array_equal(a.replicates, b.replicates)


def test_warm_probit_refits_converge_in_a_few_newton_steps():
    # exact Newton steps converge quadratically from the QMLE; Fisher scoring
    # on the non-canonical probit link took 5-8 steps for these rows
    ds = sl.generate("SC1_probit", n=2000, seed=4)
    spec = sl.get_scenario("SC1_probit").assumed
    fit = lb.fit_qmle(ds, spec)
    out = run(ds, spec, BootstrapMethod("lrb", "surrogate", 10), B=64, seed=2,
              fit=fit, keep_responses=True)
    assert out.n_failed == 0
    refit = fit_design_batch(fit.design, out.responses, fit.family, beta0=fit.coef)
    assert refit.ok.all()
    assert refit.iterations.max() <= 3, np.bincount(refit.iterations)


def test_warm_ordinal_refits_converge_in_a_few_newton_steps():
    # exact Newton steps converge quadratically; Fisher scoring took 6.49
    # steps on average for these rows, and 7 for the cold fit
    with np.errstate(all="ignore"):
        ds = sl.generate("SC1_ordinal", n=2000, seed=1)
    spec = sl.get_scenario("SC1_ordinal").assumed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = lb.fit_qmle(ds, spec)
        out = run(ds, spec, BootstrapMethod("lrb", "surrogate", 10), B=100, seed=1,
                  fit=fit, keep_responses=True)
        refit = fit_design_batch(fit.design, out.responses, fit.family, beta0=fit.coef)
    assert fit.iterations <= 4
    assert out.n_failed == 0 and refit.ok.all()
    assert refit.iterations.mean() <= 4.0, np.bincount(refit.iterations)
