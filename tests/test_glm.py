"""QMLE fitter tests: closed forms, an independent derivative-free oracle,
and the fit invariants."""

import warnings

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.stats import norm

import lrboot as lb
from lrboot.errors import (
    EmptyCategory,
    NonConvergence,
    RankDeficient,
    SeparationDetected,
)
from lrboot.glm import fit_design_batch


def _spec(family, link, n_terms=1, intercept=True, J=0):
    terms = tuple(lb.Term("raw", j) for j in range(n_terms))
    return lb.ModelSpec(
        family, link, terms, include_intercept=intercept,
        n_categories=J,
    )


def test_intercept_only_probit_balanced_is_zero():
    y = np.array([1.0, 0.0] * 25)
    ds = lb.make_dataset(y, np.zeros((50, 1)))
    spec = lb.ModelSpec("binomial", "probit", (), include_intercept=True)
    fit = lb.fit_qmle(ds, spec)
    assert fit.beta_hat[0] == 0.0
    assert fit.iterations == 0


def test_gaussian_identity_equals_ols():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((60, 3))
    y = X @ np.array([1.0, -2.0, 0.5]) + rng.standard_normal(60)
    ds = lb.make_dataset(y, X)
    fit = lb.fit_qmle(ds, _spec("gaussian", "identity", 3))
    ols = np.linalg.lstsq(fit.design.matrix, y, rcond=None)[0]
    assert np.allclose(fit.beta_hat, ols, atol=1e-12)


def _probit_loglik_oracle(beta, Xd, y):
    # independent formula: direct log CDF sums, no package code
    eta = Xd @ beta
    return float(np.sum(y * norm.logcdf(eta) + (1 - y) * norm.logcdf(-eta)))


def test_probit_matches_derivative_free_oracle():
    rng = np.random.default_rng(11)
    X = rng.uniform(-1.5, 1.5, size=(20, 2))
    eta = 0.3 + 0.9 * X[:, 0] - 0.7 * X[:, 1]
    y = (rng.random(20) < norm.cdf(eta)).astype(float)
    ds = lb.make_dataset(y, X)
    fit = lb.fit_qmle(ds, _spec("binomial", "probit", 2))
    Xd = fit.design.matrix
    opt = minimize(
        lambda b: -_probit_loglik_oracle(b, Xd, y),
        np.zeros(3),
        method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 20000, "maxfev": 20000},
    )
    assert np.abs(fit.beta_hat - opt.x).max() < 1e-6


def test_binomial_quasi_fit_accepts_fractional_responses():
    rng = np.random.default_rng(3)
    x = rng.uniform(0, 2, 120)
    mu = 1 / (1 + np.exp(2 - 2 * x))
    y = rng.binomial(10, mu) / 10.0
    ds = lb.make_dataset(y, x[:, None])
    fit = lb.fit_qmle(ds, _spec("binomial", "logit"))
    assert fit.converged and np.all((fit.mu_hat > 0) & (fit.mu_hat < 1))


def test_poisson_and_gamma_fit_converge_on_their_domains():
    rng = np.random.default_rng(5)
    x = rng.uniform(-1, 1, 150)
    y_pois = rng.poisson(np.exp(1.0 + 0.5 * x)).astype(float)
    ds = lb.make_dataset(y_pois, x[:, None])
    fit = lb.fit_qmle(ds, _spec("poisson", "log"))
    assert np.all(fit.mu_hat > 0)

    xg = rng.uniform(0, 1, 150)
    mu = 1.0 / (0.8 + 0.6 * xg)
    y_gam = rng.gamma(1.0, mu)
    dsg = lb.make_dataset(y_gam, xg[:, None])
    fitg = lb.fit_qmle(dsg, _spec("gamma", "inverse"))
    assert np.all(fitg.mu_hat > 0)
    assert fitg.grad_norm <= 1e-8


def test_score_zero_at_solution_every_family():
    rng = np.random.default_rng(17)
    x = rng.uniform(0.1, 1.5, 100)
    cases = [
        ("binomial", "probit", (rng.random(100) < 0.5).astype(float)),
        ("binomial", "logit", (rng.random(100) < 0.4).astype(float)),
        ("poisson", "log", rng.poisson(2.0, 100).astype(float)),
        ("gamma", "inverse", rng.gamma(1.0, 2.0, 100)),
        ("gaussian", "identity", rng.standard_normal(100)),
    ]
    for family, link, y in cases:
        ds = lb.make_dataset(y, x[:, None])
        fit = lb.fit_qmle(ds, _spec(family, link))
        assert fit.grad_norm <= 1e-8, (family, link)


def test_loglik_nondecreasing_with_step_halving():
    rng = np.random.default_rng(23)
    x = rng.uniform(-4, 4, 300)
    y = (rng.random(300) < norm.cdf(1.5 * x)).astype(float)
    ds = lb.make_dataset(y, x[:, None])
    fit = lb.fit_qmle(ds, _spec("binomial", "probit"))
    # the log-likelihood after k accepted steps is that of a fit capped at k
    path = np.array([
        fit_design_batch(fit.design, y[None], fit.family, lb.FitOptions(max_iter=k)).loglik[0]
        for k in range(fit.iterations + 1)
    ])
    # non-decreasing up to float plateau resolution near the optimum
    assert np.all(np.diff(path) >= -8 * np.finfo(float).eps * (1 + np.abs(path[:-1])))


def test_fit_invariant_to_row_permutation():
    rng = np.random.default_rng(29)
    x = rng.uniform(-2, 2, 200)
    y = (rng.random(200) < norm.cdf(0.5 + x)).astype(float)
    perm = rng.permutation(200)
    ds = lb.make_dataset(y, x[:, None])
    dsp = lb.make_dataset(y[perm], x[perm][:, None])
    spec = _spec("binomial", "probit")
    f1, f2 = lb.fit_qmle(ds, spec), lb.fit_qmle(dsp, spec)
    assert np.allclose(f1.beta_hat, f2.beta_hat, atol=1e-9)


def test_affine_equivariance_identity_and_log_links():
    rng = np.random.default_rng(31)
    X = rng.uniform(0.5, 2.0, size=(150, 2))
    for family, link, y in [
        ("gaussian", "identity", X @ [1.0, -1.0] + rng.standard_normal(150)),
        ("poisson", "log", rng.poisson(np.exp(0.2 + 0.3 * X[:, 0])).astype(float)),
    ]:
        c = 3.7
        Xs = X.copy()
        Xs[:, 0] *= c
        ds = lb.make_dataset(y, X, standardize=False)
        dss = lb.make_dataset(y, Xs, standardize=False)
        spec = _spec(family, link, 2)
        b0 = lb.fit_qmle(ds, spec).beta_hat
        b1 = lb.fit_qmle(dss, spec).beta_hat
        assert np.allclose(b1[1], b0[1] / c, rtol=1e-9)
        assert np.allclose(np.delete(b1, 1), np.delete(b0, 1), rtol=1e-8)


def test_estimator_consistency_under_correct_specification():
    beta_true = np.array([0.4, 0.8])
    errs = []
    for n in (500, 2000, 8000):
        devs = []
        for rep in range(20):
            rng = np.random.default_rng(1000 * n + rep)
            x = rng.uniform(-2, 2, n)
            y = (rng.random(n) < norm.cdf(beta_true[0] + beta_true[1] * x)).astype(float)
            ds = lb.make_dataset(y, x[:, None], standardize=False)
            fit = lb.fit_qmle(ds, _spec("binomial", "probit"))
            devs.append(np.abs(fit.beta_hat - beta_true).max())
        errs.append(np.median(devs))
    assert errs[0] > errs[1] > errs[2]


def test_rank_deficient_raises():
    rng = np.random.default_rng(37)
    x = rng.standard_normal(50)
    X = np.column_stack([x, x])  # duplicated column
    y = (rng.random(50) < 0.5).astype(float)
    ds = lb.make_dataset(y, X)
    with pytest.raises(RankDeficient):
        lb.fit_qmle(ds, _spec("binomial", "probit", 2))


def test_separation_detected():
    x = np.linspace(-2, 2, 40)
    y = (x > 0).astype(float)  # perfectly separated
    ds = lb.make_dataset(y, x[:, None])
    with pytest.raises(SeparationDetected):
        lb.fit_qmle(
            ds,
            _spec("binomial", "logit"),
            lb.FitOptions(max_iter=500, separation_bound=50.0),
        )


def test_constant_binary_responses_have_no_mle():
    # all-ones probit data: the score falls below tol long before |beta|
    # reaches the separation bound, so without the screen the fit would
    # report convergence
    x = np.linspace(-1.0, 1.0, 60)
    ds = lb.make_dataset(np.ones(60), x[:, None])
    with pytest.raises(SeparationDetected):
        lb.fit_qmle(ds, _spec("binomial", "probit"))


def test_nonconvergence_when_iteration_cap_hits():
    rng = np.random.default_rng(41)
    x = rng.uniform(-2, 2, 80)
    y = (rng.random(80) < norm.cdf(x)).astype(float)
    ds = lb.make_dataset(y, x[:, None])
    with pytest.raises(NonConvergence):
        lb.fit_qmle(ds, _spec("binomial", "probit"), lb.FitOptions(max_iter=0))


# -- ordinal ------------------------------------------------------------------


def test_ordinal_closed_form_from_marginal_proportions():
    # x takes 0 and 1 equally often within each category, so it carries no
    # information on y: the slope is 0 and the cutpoints follow the marginal
    # proportions
    y = np.array([1.0] * 12 + [2.0] * 12 + [3.0] * 12)
    ds = lb.make_dataset(y, np.tile([0.0, 1.0], 18)[:, None])
    spec = _spec("ordinal", "probit", 1, intercept=False, J=3)
    fit = lb.fit_qmle(ds, spec)
    expected = norm.ppf([1 / 3, 2 / 3])
    assert np.allclose(fit.alpha_hat, expected, atol=1e-8)
    assert np.allclose(fit.beta_hat, 0.0, atol=1e-8)


def test_ordinal_slope_of_a_constant_column_is_not_identified():
    # the cutpoints act as the intercept, so a zero or constant covariate
    # column leaves its slope free: [1, X] lacks full rank. Before the check,
    # the zero column returned its start slope as a converged fit
    y = np.array([1.0] * 12 + [2.0] * 12 + [3.0] * 12)
    spec = _spec("ordinal", "probit", 1, intercept=False, J=3)
    for x in (np.zeros(36), np.full(36, 2.5)):
        ds = lb.make_dataset(y, x[:, None], standardize=False)
        with pytest.raises(RankDeficient):
            lb.fit_qmle(ds, spec)


def _ordinal_loglik_oracle(params, x, y, J):
    # independent cumulative-probit likelihood over (alpha ascending, beta)
    alpha = np.sort(params[: J - 1])
    beta = params[J - 1 :]
    eta = x * beta[0]
    ext = np.concatenate([[-np.inf], alpha, [np.inf]])
    yi = y.astype(int)
    p = norm.cdf(ext[yi] - eta) - norm.cdf(ext[yi - 1] - eta)
    return float(np.sum(np.log(np.clip(p, 1e-300, None))))


def _draw_ordinal(n, rng):
    x = rng.uniform(1, 7, n)
    index = 8 * x - x**2
    alphas = np.array([-16.0, -12.0, -8.0])
    cum = norm.cdf(alphas[None, :] + index[:, None])
    u = rng.random(n)
    return x, 1.0 + (u[:, None] > cum).sum(axis=1)


def test_ordinal_matches_derivative_free_oracle():
    rng = np.random.default_rng(43)
    x, y = _draw_ordinal(200, rng)
    assert set(np.unique(y)) == {1.0, 2.0, 3.0, 4.0}
    ds = lb.make_dataset(y, x[:, None])
    spec = _spec("ordinal", "probit", 1, intercept=False, J=4)
    fit = lb.fit_qmle(ds, spec)
    xs = ds.X[:, 0]
    start = np.concatenate([fit.alpha_hat + 0.3, fit.beta_hat + 0.2])
    opt = minimize(
        lambda p: -_ordinal_loglik_oracle(p, xs, y, 4),
        start,
        method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 50000, "maxfev": 50000},
    )
    ours = np.concatenate([fit.alpha_hat, fit.beta_hat])
    theirs = np.concatenate([np.sort(opt.x[:3]), opt.x[3:]])
    assert np.abs(ours - theirs).max() < 1e-5


def test_ordinal_fit_invariant_to_row_permutation():
    rng = np.random.default_rng(47)
    x, y = _draw_ordinal(200, rng)
    perm = rng.permutation(200)
    spec = _spec("ordinal", "probit", 1, intercept=False, J=4)
    f1 = lb.fit_qmle(lb.make_dataset(y, x[:, None]), spec)
    f2 = lb.fit_qmle(lb.make_dataset(y[perm], x[perm][:, None]), spec)
    assert np.allclose(f1.coef, f2.coef, atol=1e-8)


def test_ordinal_cutpoints_strictly_increasing():
    rng = np.random.default_rng(53)
    x, y = _draw_ordinal(300, rng)
    spec = _spec("ordinal", "probit", 1, intercept=False, J=4)
    fit = lb.fit_qmle(lb.make_dataset(y, x[:, None]), spec)
    assert np.all(np.diff(fit.alpha_hat) > 0)


def test_ordinal_empty_category_raises():
    y = np.array([1.0, 1.0, 3.0, 3.0] * 10)
    ds = lb.make_dataset(y, np.linspace(0, 1, 40)[:, None])
    spec = _spec("ordinal", "probit", 1, intercept=False, J=3)
    with pytest.raises(EmptyCategory):
        lb.fit_qmle(ds, spec)


# -- predict ------------------------------------------------------------------


def test_predict_mean_closed_forms():
    ds = lb.make_dataset(np.array([0.0, 1.0, 1.0]), np.array([[0.0], [1.0], [2.0]]))
    spec = _spec("gaussian", "identity")
    fit = lb.fit_qmle(ds, spec)
    fit.beta_hat = np.array([1.0, 2.0])
    assert np.isclose(lb.predict_mean(fit, np.array([[1.0, 3.0]]))[0], 7.0)

    # the family follows fit.spec
    fit.spec = _spec("binomial", "probit")
    fit.beta_hat = np.array([0.0, 0.0])
    assert np.isclose(lb.predict_mean(fit, np.array([[1.0, 5.0]]))[0], 0.5)

    fit.spec = _spec("binomial", "logit")
    fit.beta_hat = np.array([0.0, np.log(3.0)])
    assert np.isclose(lb.predict_mean(fit, np.array([[1.0, 1.0]]))[0], 0.75)


def test_predict_mean_ordinal_returns_category_probabilities():
    rng = np.random.default_rng(67)
    x, y = _draw_ordinal(200, rng)
    spec = _spec("ordinal", "probit", 1, intercept=False, J=4)
    fit = lb.fit_qmle(lb.make_dataset(y, x[:, None]), spec)
    probs = lb.predict_mean(fit, fit.design.matrix[:5])
    assert probs.shape == (5, 4)
    assert np.allclose(probs.sum(axis=1), 1.0)
    assert np.all(probs >= 0)


def test_predict_mean_dimension_mismatch():
    ds = lb.make_dataset(np.array([0.0, 1.0, 1.0]), np.array([[0.0], [1.0], [2.0]]))
    spec = _spec("binomial", "probit")
    fit = lb.fit_qmle(ds, spec)
    from lrboot.errors import DimensionMismatch

    with pytest.raises(DimensionMismatch):
        lb.predict_mean(fit, np.ones((2, 5)))


# -- dataset / design ---------------------------------------------------------


def test_dataset_standardization_invariant():
    rng = np.random.default_rng(59)
    X = rng.uniform(3, 9, size=(80, 2))
    ds = lb.make_dataset(rng.standard_normal(80), X)
    assert np.all(np.abs(ds.X.mean(axis=0)) < 1e-9)
    assert np.all(np.abs(ds.X.std(axis=0) - 1) < 1e-9)


def test_back_transform_reproduces_linear_predictor():
    rng = np.random.default_rng(61)
    X = rng.uniform(1, 4, size=(100, 2))
    y = rng.standard_normal(100)
    ds = lb.make_dataset(y, X)
    spec = lb.ModelSpec(
        "gaussian",
        "identity",
        (
            lb.Term("raw", 0),
            lb.Term("raw", 1),
            lb.Term("power", 0, power=2),
            lb.Term("interaction", 0, col2=1),
            lb.Term("exp", 1),
        ),
    )
    fit = lb.fit_qmle(ds, spec)
    raw_coefs = lb.back_transform(fit.beta_hat.copy(), fit.design)
    terms_raw = np.column_stack(
        [
            np.ones(100),
            X[:, 0],
            X[:, 1],
            X[:, 0] ** 2,
            X[:, 0] * X[:, 1],
            np.exp(X[:, 1]),
        ]
    )
    eta_std = fit.design.matrix @ fit.beta_hat
    eta_raw = terms_raw @ raw_coefs
    assert np.allclose(eta_std, eta_raw, atol=1e-8)


def test_dataset_requires_enough_rows():
    with pytest.raises(ValueError):
        lb.make_dataset(np.zeros(3), np.ones((3, 3)))


def test_dataset_rejects_non_finite_covariates_before_standardizing():
    from lrboot.errors import InvalidData

    X = np.array([[0.0], [np.inf], [1.0], [2.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidData):
            lb.make_dataset(np.zeros(4), X)


def test_dataset_rejects_non_finite_responses():
    from lrboot.errors import InvalidData

    x = np.linspace(0.0, 1.0, 4)[:, None]
    ds = lb.make_dataset(np.array([0.0, 1.0, 1.0, 0.0]), x)
    for bad in (np.nan, np.inf):
        y = np.array([0.0, bad, 1.0, 1.0])
        with pytest.raises(InvalidData):
            lb.make_dataset(y, x)
        with pytest.raises(InvalidData, match="responses contain non-finite entries"):
            ds.with_response(y)


def test_family_registry_rejects_unknown_pairs():
    from lrboot.errors import UnsupportedKind

    with pytest.raises(UnsupportedKind):
        lb.ModelSpec("poisson", "identity", ())
    with pytest.raises(UnsupportedKind):
        lb.ModelSpec("binomial", "log", ())
    with pytest.raises(UnsupportedKind):
        lb.ModelSpec("ordinal", "logit", (), include_intercept=False, n_categories=3)
