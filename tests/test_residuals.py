"""Residual formulas, truncated-latent draws, and recreation rules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit
from scipy.stats import kstest, norm

import lrboot as lb
from lrboot import residuals as res
from lrboot.data import DesignInfo
from lrboot.errors import UnsupportedKind
from lrboot.glm import FitResult
from lrboot.rng import substream


def _manual_fit(family, link, eta, mu=None, var=None, alpha=None, J=0):
    """Hand-assembled FitResult so formulas can be checked pointwise."""
    eta = np.asarray(eta, dtype=float)
    spec = lb.ModelSpec(
        family,
        link,
        (lb.Term("raw", 0),),
        include_intercept=False,
        n_categories=J,
    )
    design = DesignInfo(
        matrix=eta[:, None],
        coef_names=("x1",),
        means=np.zeros(1),
        sds=np.ones(1),
        has_intercept=False,
    )
    return FitResult(
        beta_hat=np.array([1.0]),
        alpha_hat=alpha,
        mu_hat=mu if mu is not None else eta,
        var_hat=var,
        loglik=0.0,
        iterations=0,
        converged=True,
        grad_norm=0.0,
        spec=spec,
        design=design,
    )


def _ds(y, n=None):
    y = np.asarray(y, dtype=float)
    n = n or y.shape[0]
    return lb.make_dataset(y, np.linspace(0, 1, n)[:, None], standardize=False)


def test_pearson_pointwise():
    fit = _manual_fit(
        "binomial",
        "probit",
        eta=np.zeros(3),
        mu=np.array([0.5, 0.5, 0.5]),
        var=np.array([0.25, 0.25, 0.25]),
    )
    r = res.compute(fit, _ds([0.5, 1.0, 0.0]), "pearson").values
    assert np.allclose(r, [0.0, 1.0, -1.0])

    fit_p = _manual_fit(
        "poisson", "log", np.zeros(2), mu=np.array([4.0, 4.0]), var=np.array([4.0, 4.0])
    )
    assert np.allclose(res.compute(fit_p, _ds([6.0, 4.0]), "pearson").values, [1.0, 0.0])


def test_deviance_pointwise():
    fit_p = _manual_fit("poisson", "log", np.zeros(2), mu=np.array([2.0, 3.0]))
    r = res.compute(fit_p, _ds([0.0, 3.0]), "deviance").values
    assert np.isclose(r[0], -2.0)  # y=0, mu=2 with the 0*log0 = 0 convention
    assert r[1] == 0.0

    fit_g = _manual_fit("gaussian", "identity", np.array([1.0, 2.0]))
    dev = res.compute(fit_g, _ds([1.5, 1.0]), "deviance").values
    rawr = res.compute(fit_g, _ds([1.5, 1.0]), "raw").values
    assert np.allclose(dev, rawr)


def test_sbs_binary_and_ordinal():
    fit = _manual_fit(
        "binomial", "probit", np.zeros(2), mu=np.array([0.3, 0.3]), var=np.array([0.21, 0.21])
    )
    r = res.compute(fit, _ds([1.0, 0.0]), "sbs").values
    assert np.allclose(r, [0.7, -0.3])

    probs = np.array([[0.2, 0.5, 0.3], [0.2, 0.5, 0.3]])
    fit_o = _manual_fit(
        "ordinal", "probit", np.zeros(2), mu=probs, alpha=np.array([-0.5, 0.5]), J=3
    )
    r_o = res.compute(fit_o, _ds([2.0, 1.0]), "sbs").values
    assert np.isclose(r_o[0], -0.1)


def test_sbs_strictly_increasing_in_category():
    probs = np.tile([0.1, 0.25, 0.4, 0.25], (2, 1))
    fit = _manual_fit(
        "ordinal", "probit", np.zeros(2), mu=probs, alpha=np.array([-1.0, 0.0, 1.0]), J=4
    )
    vals = [res.compute(fit, _ds([float(j), 1.0]), "sbs").values[0] for j in (1, 2, 3, 4)]
    assert np.all(np.diff(vals) > 0)
    assert all(-1 < v < 1 for v in vals)


def test_surrogate_half_normal_mean():
    n = 100_000
    fit = _manual_fit(
        "binomial", "probit", np.zeros(n), mu=np.full(n, 0.5), var=np.full(n, 0.25)
    )
    r = res.compute(fit, _ds(np.ones(n)), "surrogate", rng=substream(123)).values
    assert np.all(r > 0)
    assert abs(r.mean() - np.sqrt(2 / np.pi)) < 0.01


def test_surrogate_respects_truncation_bounds_ordinal():
    rng = np.random.default_rng(5)
    n = 2000
    eta = rng.uniform(-1.5, 1.5, n)
    alpha = np.array([-0.8, 0.4, 1.1])
    z = eta + rng.standard_normal(n)
    y = 1.0 + (z[:, None] > alpha[None, :]).sum(axis=1)
    probs = np.ones((n, 4)) / 4
    fit = _manual_fit("ordinal", "probit", eta, mu=probs, alpha=alpha, J=4)
    rs = res.compute(fit, _ds(y), "surrogate", rng=substream(9)).values
    lo, hi = res.latent_intervals(fit, y)
    assert np.all(rs > lo) and np.all(rs <= hi)


def test_surrogate_standard_normal_under_correct_model():
    rng = np.random.default_rng(77)
    n = 5000
    x = rng.uniform(-2, 2, n)
    y = (rng.random(n) < norm.cdf(0.3 + 0.9 * x)).astype(float)
    ds = lb.make_dataset(y, x[:, None])
    spec = lb.ModelSpec("binomial", "probit", (lb.Term("raw", 0),))
    fit = lb.fit_qmle(ds, spec)
    r = res.compute(fit, ds, "surrogate", rng=substream(11)).values
    stat = kstest(r, "norm").statistic
    assert stat < 1.6276 / np.sqrt(n)  # 1% KS critical value


def test_surrogate_distribution_converges_with_n():
    med = []
    for n in (500, 2000, 8000):
        stats = []
        for rep in range(20):
            rng = np.random.default_rng(97 + 31 * rep)
            x = rng.uniform(-2, 2, n)
            y = (rng.random(n) < norm.cdf(0.4 + 0.8 * x)).astype(float)
            ds = lb.make_dataset(y, x[:, None])
            fit = lb.fit_qmle(ds, lb.ModelSpec("binomial", "probit", (lb.Term("raw", 0),)))
            r = res.compute(fit, ds, "surrogate", rng=substream(500 + rep)).values
            stats.append(kstest(r, "norm").statistic)
        med.append(np.median(stats))
    assert med[0] > med[1] > med[2]


def test_logit_surrogate_uses_logistic_latent():
    n = 200_000
    fit = _manual_fit(
        "binomial", "logit", np.zeros(n), mu=np.full(n, 0.5), var=np.full(n, 0.25)
    )
    r = res.compute(fit, _ds(np.ones(n)), "surrogate", rng=substream(21)).values
    # half-logistic mean is 2 log 2
    assert abs(r.mean() - 2 * np.log(2.0)) < 0.02


KINDS = ("pearson", "deviance", "sbs", "surrogate", "raw")

# which kinds each model has, in the order of KINDS
KIND_MATRIX = {
    ("binomial", "probit"): (True, True, True, True, False),
    ("binomial", "logit"): (True, True, True, True, False),
    ("poisson", "log"): (True, True, False, False, False),
    ("gamma", "inverse"): (True, True, False, False, False),
    ("gaussian", "identity"): (True, True, False, False, True),
    ("ordinal", "probit"): (False, False, True, True, False),
}


def _real_fit(family, link, n=120):
    """A fitted model of each (family, link) pair on data it can fit."""
    rng = np.random.default_rng(4)
    x = rng.uniform(-1.0, 1.0, n)
    J = 3 if family == "ordinal" else 0
    y = {
        "binomial": lambda: (rng.random(n) < norm.cdf(0.3 + 0.8 * x)).astype(float),
        "poisson": lambda: rng.poisson(np.exp(0.5 + 0.4 * x)).astype(float),
        "gamma": lambda: rng.gamma(2.0, 1.0 / (2.0 + 0.5 * x) / 2.0),
        "gaussian": lambda: 1.0 + x + rng.standard_normal(n),
        "ordinal": lambda: 1.0 + (x[:, None] + rng.standard_normal((n, 1)) > [-0.5, 0.5]).sum(1),
    }[family]()
    ds = lb.make_dataset(y, x[:, None])
    spec = lb.ModelSpec(family, link, (lb.Term("raw", 0),), include_intercept=not J,
                        n_categories=J)
    return lb.fit_qmle(ds, spec), ds


def test_supported_kind_matrix():
    # every model against every kind: a supported cell computes and, when the
    # kind has an inverse, recreates; an unsupported cell raises
    for (family, link), row in KIND_MATRIX.items():
        fit, ds = _real_fit(family, link)
        for kind, supported in zip(KINDS, row):
            cell = (family, link, kind)
            assert res.supports(fit.family, kind) is supported, cell
            if not supported:
                with pytest.raises(UnsupportedKind):
                    res.compute(fit, ds, kind, rng=1)
                with pytest.raises(UnsupportedKind):
                    res.recreate(fit, np.zeros(ds.n), kind)
                continue
            r = res.compute(fit, ds, kind, rng=1).values
            assert r.shape == (ds.n,) and np.all(np.isfinite(r)), cell
            if res.KINDS[kind].inverse is None:
                with pytest.raises(UnsupportedKind):
                    res.recreate(fit, r, kind)
            else:
                assert res.recreate(fit, r[::-1], kind).shape == (ds.n,), cell
        assert not res.supports(fit.family, "working")
        with pytest.raises(UnsupportedKind):
            res.compute(fit, ds, "working")


def test_recreate_surrogate_binary_sign_rule():
    eta = np.array([0.4, -0.2])
    fit = _manual_fit(
        "binomial", "probit", eta, mu=norm.cdf(eta), var=norm.cdf(eta) * (1 - norm.cdf(eta))
    )
    r_star = np.array([-0.3, 0.1])  # s* = 0.1 > 0 ; s* = -0.1 <= 0
    y_star = res.recreate(fit, r_star, "surrogate")
    assert np.allclose(y_star, [1.0, 0.0])


def test_recreate_pearson_clamps_to_support():
    fit = _manual_fit(
        "binomial", "probit", np.zeros(2), mu=np.array([0.5, 0.5]), var=np.array([0.25, 0.25])
    )
    y_star = res.recreate(fit, np.array([2.0, 0.0]), "pearson")
    assert y_star[0] == 1.0  # 0.5 + 0.5*2 = 1.5 clamps to 1

    fit_p = _manual_fit(
        "poisson", "log", np.zeros(2), mu=np.ones(2), var=np.ones(2)
    )
    assert res.recreate(fit_p, np.array([-5.0, 0.0]), "pearson")[0] == 0.0


def test_recreate_raw_round_trip_exact():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(100)
    y = 1 + 2 * x + rng.standard_normal(100)
    ds = lb.make_dataset(y, x[:, None])
    fit = lb.fit_qmle(ds, lb.ModelSpec("gaussian", "identity", (lb.Term("raw", 0),)))
    r = res.compute(fit, ds, "raw").values
    assert np.allclose(res.recreate(fit, r, "raw"), y, atol=1e-12)
    # pearson coincides for the gaussian family
    rp = res.compute(fit, ds, "pearson").values
    assert np.allclose(res.recreate(fit, rp, "pearson"), y, atol=1e-12)


def test_recreate_pearson_round_trip_where_no_clamp():
    rng = np.random.default_rng(13)
    x = rng.uniform(-1, 1, 300)
    y = rng.poisson(np.exp(0.5 + 0.4 * x)).astype(float)
    ds = lb.make_dataset(y, x[:, None])
    fit = lb.fit_qmle(ds, lb.ModelSpec("poisson", "log", (lb.Term("raw", 0),)))
    r = res.compute(fit, ds, "pearson").values
    back = res.recreate(fit, r, "pearson")
    no_clamp = back > 0
    assert np.allclose(back[no_clamp], y[no_clamp], atol=1e-10)


def _random_categorical_fit(rng, link, J, n, scale):
    """Hand-assembled binary (J=0) or J-category ordinal fit at random
    linear predictors, with a response drawn uniformly over the categories."""
    cdf = norm.cdf if link == "probit" else expit
    eta = rng.uniform(-scale, scale, n)
    if J == 0:
        mu = cdf(eta)
        fit = _manual_fit("binomial", link, eta, mu=mu, var=mu * (1 - mu))
        return fit, rng.integers(0, 2, n).astype(float)
    alpha = np.cumsum(rng.uniform(0.2, 1.5, J - 1)) - 0.7 * (J - 1)
    cum = cdf(alpha[None, :] - eta[:, None])
    probs = np.diff(np.column_stack([np.zeros(n), cum, np.ones(n)]), axis=1)
    fit = _manual_fit("ordinal", link, eta, mu=probs, alpha=alpha, J=J)
    return fit, rng.integers(1, J + 1, n).astype(float)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["surrogate", "sbs"]),
    st.sampled_from([("probit", 0), ("logit", 0), ("probit", 3), ("probit", 5)]),
    st.floats(min_value=0.1, max_value=8.0),
    st.integers(min_value=0, max_value=10_000),
)
def test_recreate_inverts_categorical_residuals(kind, link_J, scale, seed):
    link, J = link_J
    rng = np.random.default_rng(seed)
    fit, y = _random_categorical_fit(rng, link, J, 200, scale)
    ds = _ds(y)
    r = res.compute(fit, ds, kind, rng=substream(seed)).values
    back = res.recreate(fit, r, kind)
    keep = np.ones(y.shape[0], dtype=bool)
    if kind == "sbs" and J:
        # far in the tails two categories' SBS values round to the same
        # float: the values within about 1e-16 of -1 or 1 are one float, so
        # no formula tells those categories apart and no inverse recovers them
        cum = np.cumsum(np.column_stack([np.zeros(y.shape[0]), fit.mu_hat]), axis=1)
        keep = np.all(np.diff(cum[:, :-1] + cum[:, 1:] - 1.0, axis=1) > 0, axis=1)
    assert np.array_equal(back[keep], y[keep])


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["binomial", "poisson", "gamma", "gaussian"]),
    st.integers(min_value=0, max_value=10_000),
)
def test_recreate_inverts_pearson_where_no_clamp(family, seed):
    rng = np.random.default_rng(seed)
    n = 200
    mu = rng.uniform(0.05, 0.95, n) if family == "binomial" else rng.uniform(0.2, 8.0, n)
    if family == "binomial":
        y, var = rng.integers(0, 2, n).astype(float), mu * (1 - mu)
    elif family == "poisson":
        y, var = rng.poisson(mu).astype(float), mu
    elif family == "gamma":
        y, var = rng.gamma(2.0, mu / 2.0), mu**2
    else:
        y, var = mu + rng.standard_normal(n), np.ones(n)
    link = {"binomial": "probit", "poisson": "log", "gamma": "inverse"}.get(family, "identity")
    fit = _manual_fit(family, link, np.zeros(n), mu=mu, var=var)
    ds = _ds(y)
    back = res.recreate(fit, res.compute(fit, ds, "pearson").values, "pearson")
    # mu + sqrt(V) (y - mu) / sqrt(V) rounds twice; no clamp moves a value here
    assert np.allclose(back, y, rtol=1e-13, atol=1e-13)


def test_recreate_sbs_ordinal_monotone_pseudo_inverse():
    # dyadic probabilities so the SBS grid (-0.75, 0.0, 0.75) is float-exact
    probs = np.array([[0.25, 0.5, 0.25], [0.5, 0.25, 0.25]])
    fit = _manual_fit(
        "ordinal", "probit", np.zeros(2), mu=probs, alpha=np.array([-0.5, 0.9]), J=3
    )
    for r_star, expected in [(-0.9, 1.0), (-0.2, 2.0), (0.69, 3.0)]:
        y_star = res.recreate(fit, np.array([r_star, 0.0]), "sbs")
        assert y_star[0] == expected
    # tie exactly between categories 1 and 2 resolves to the smaller one
    assert res.recreate(fit, np.array([-0.375, 0.0]), "sbs")[0] == 1.0


def test_recreate_sbs_reduces_to_binary_rule():
    fit = _manual_fit(
        "binomial", "probit", np.zeros(3), mu=np.full(3, 0.4), var=np.full(3, 0.24)
    )
    y_star = res.recreate(fit, np.array([-0.1, 0.0, 0.2]), "sbs")
    assert np.allclose(y_star, [0.0, 0.0, 1.0])


def test_recreate_deviance_rejected():
    fit = _manual_fit("poisson", "log", np.zeros(2), mu=np.ones(2), var=np.ones(2))
    with pytest.raises(UnsupportedKind):
        res.recreate(fit, np.zeros(2), "deviance")


def test_residual_csv_export(tmp_path):
    fit = _manual_fit("gaussian", "identity", np.array([1.0, 2.0]))
    r = res.compute(fit, _ds([1.5, 1.0]), "raw")
    path = tmp_path / "resid.csv"
    res.to_csv(r, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "index,residual,kind"
    assert lines[1].startswith("1,0.5,raw")
    assert len(lines) == 3
