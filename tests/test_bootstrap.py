"""Bootstrap engine tests: statistics oracles, reduction and determinism
properties, and method semantics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri
from scipy.stats import norm

import lrboot as lb
from lrboot.bootstrap import (
    BootstrapMethod,
    _sampler,
    ci_percentile,
    p_value,
    run,
    se_estimate,
)
from lrboot.errors import (
    IncompatibleResidual,
    MethodCannotRecreate,
    TooFewReplicates,
    TooManyFailures,
    UnsupportedKind,
)
from lrboot import cli, residuals, simlab
from lrboot.neighborhood import build_neighborhoods, select_size
from lrboot.rng import substream

RESIDUAL_KINDS_BINARY = ("pearson", "sbs", "surrogate")


def _probit_data(n=300, seed=1, beta=(0.4, 0.9)):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2, 2, n)
    y = (rng.random(n) < norm.cdf(beta[0] + beta[1] * x)).astype(float)
    ds = lb.make_dataset(y, x[:, None])
    spec = lb.ModelSpec("binomial", "probit", (lb.Term("raw", 0),))
    return ds, spec


def _gaussian_data(n=200, seed=2, noise=1.0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, n)
    y = 1.0 + 2.0 * x + noise * rng.standard_normal(n)
    ds = lb.make_dataset(y, x[:, None])
    spec = lb.ModelSpec("gaussian", "identity", (lb.Term("raw", 0),))
    return ds, spec


# -- statistics oracles ---------------------------------------------------------


def test_se_estimate_divisor_b():
    assert np.isclose(se_estimate(np.array([[0.0], [2.0]]))[0], 1.0)
    assert se_estimate(np.full((5, 1), 3.3))[0] == 0.0


def test_se_estimate_matches_two_pass_oracle():
    rng = np.random.default_rng(10)
    reps = rng.standard_normal((100, 2))
    got = se_estimate(reps)
    for j in range(2):
        m = sum(reps[:, j]) / 100.0
        var = sum((v - m) ** 2 for v in reps[:, j]) / 100.0
        assert abs(got[j] - np.sqrt(var)) < 1e-12


def test_se_estimate_needs_two():
    with pytest.raises(TooFewReplicates):
        se_estimate(np.ones((1, 3)))


@pytest.mark.parametrize("B", [0, 1])
def test_run_needs_two_replicates_before_fitting(B, monkeypatch):
    ds, spec = _probit_data()

    def no_fit(*args, **kwargs):
        raise AssertionError("fitted before checking B")

    monkeypatch.setattr("lrboot.bootstrap.fit_qmle", no_fit)
    with pytest.raises(TooFewReplicates):
        run(ds, spec, BootstrapMethod.parametric(), B)


def test_ci_percentile_type7_interpolation():
    reps = (np.arange(1, 101) / 100.0)[:, None]
    ci = ci_percentile(reps, 0.10)
    assert np.isclose(ci[0, 0], 0.0595)
    assert np.isclose(ci[0, 1], 0.9505)


def test_ci_percentile_degenerate_and_full_alpha():
    reps = np.full((30, 1), 4.2)
    ci = ci_percentile(reps, 0.05)
    assert ci[0, 0] == ci[0, 1] == 4.2
    reps2 = np.arange(5.0)[:, None]
    ci2 = ci_percentile(reps2, 1.0)
    assert ci2[0, 0] == ci2[0, 1] == 2.0  # both endpoints hit the median


def test_p_value_examples():
    reps = np.array([0.5, 1.0, 2.0])
    assert p_value(reps, 0.0, "greater") == 0.0
    reps_sym = np.array([-2.0, -1.0, 1.0, 2.0])
    assert p_value(reps_sym, 0.0, "two_sided") == 1.0
    assert p_value(np.array([-1.0, 1.0, 2.0, 3.0]), 0.0, "two_sided") == 0.5


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(-50, 50), min_size=2, max_size=40),
    st.floats(-60, 60),
)
def test_p_value_bounds_and_duality(values, null):
    reps = np.array(values)
    for alt in ("two_sided", "less", "greater"):
        p = p_value(reps, null, alt)
        assert 0.0 <= p <= 1.0
    assert (
        p_value(reps, null, "greater") + p_value(reps, null, "less") >= 1.0 - 1e-12
    )  # overlap at ties


# -- reduction & determinism ----------------------------------------------------


@pytest.mark.parametrize("kind", RESIDUAL_KINDS_BINARY)
def test_lrb_full_size_reduces_to_classical(kind):
    ds, spec = _probit_data(n=120, seed=5)
    a = run(ds, spec, BootstrapMethod.lrb(kind, ds.n), B=40, seed=9)
    b = run(ds, spec, BootstrapMethod.classical_residual(kind), B=40, seed=9)
    assert np.array_equal(a.replicates, b.replicates)


def test_lrb_full_size_reduction_gaussian_raw():
    ds, spec = _gaussian_data(n=100, seed=6)
    a = run(ds, spec, BootstrapMethod.lrb("raw", ds.n), B=30, seed=4)
    b = run(ds, spec, BootstrapMethod.classical_residual("raw"), B=30, seed=4)
    assert np.array_equal(a.replicates, b.replicates)


def test_thread_count_does_not_change_outcome():
    # 218 rows a block at n=150: B=700 makes four blocks, the last one short
    ds, spec = _probit_data(n=150, seed=7)
    assert lb.glm.block_rows(ds.n) == 218
    m = BootstrapMethod.lrb("surrogate", 8)
    a = run(ds, spec, m, B=700, seed=13, n_threads=1)
    b = run(ds, spec, m, B=700, seed=13, n_threads=4)
    assert np.array_equal(a.replicates, b.replicates)
    assert np.array_equal(a.se_hat, b.se_hat)


def test_identical_inputs_identical_outcome():
    ds, spec = _gaussian_data()
    m = BootstrapMethod.wild()
    a = run(ds, spec, m, B=25, seed=3)
    b = run(ds, spec, m, B=25, seed=3)
    assert np.array_equal(a.replicates, b.replicates)


# -- degenerate and structural cases ---------------------------------------------


def test_zero_residuals_give_zero_se():
    x = np.linspace(-1, 1, 50)
    y = 1.0 + 2.0 * x  # exactly linear
    ds = lb.make_dataset(y, x[:, None])
    spec = lb.ModelSpec("gaussian", "identity", (lb.Term("raw", 0),))
    out = run(ds, spec, BootstrapMethod.lrb("raw", 10), B=25, seed=1)
    assert np.allclose(out.se_hat, 0.0, atol=1e-10)
    assert np.allclose(out.replicates - out.estimate, 0.0, atol=1e-9)


def test_lrb_size_one_reproduces_original_fit():
    ds, spec = _probit_data(n=100, seed=8)
    out = run(ds, spec, BootstrapMethod.lrb("surrogate", 1), B=10, seed=2)
    assert np.allclose(out.replicates, out.estimate[None, :], atol=1e-7)


def test_ci_normal_midpoint_and_width_exact():
    ds, spec = _probit_data(n=150, seed=9)
    out = run(ds, spec, BootstrapMethod.lrb("sbs", 10), B=60, seed=5, alpha=0.10)
    mid = out.ci_normal.mean(axis=1)
    assert np.allclose(mid, out.estimate, atol=1e-14)
    width = out.ci_normal[:, 1] - out.ci_normal[:, 0]
    z = norm.ppf(0.95)
    assert np.allclose(width, 2 * z * out.se_hat, atol=1e-12)


def _local_response_draw(X, meta, l):
    """The neighbor map, set lengths and local-response draw on rows whose
    distinct responses identify the drawn rows."""
    n = X.shape[0]
    ds = lb.make_dataset(np.arange(n, dtype=float), X, column_meta=meta)
    spec = lb.ModelSpec("gaussian", "identity", (lb.Term("raw", 0),))
    nb = build_neighborhoods(ds, l)
    draw = _sampler(ds, BootstrapMethod.local_response(l), lb.fit_qmle(ds, spec), 3, nb)
    return nb, np.array([len(s) for s in nb.sets]), draw


def test_unequal_neighbor_sets_draw_as_per_observation_loop():
    rng = np.random.default_rng(6)
    n = 90
    x = rng.uniform(-1, 1, n)
    g = (np.arange(n) >= 3).astype(float)
    cells = np.repeat([0.0, 1.0, 2.0], [5, 10, 75])
    rng.shuffle(cells)
    inputs = [
        # cells of 3 and n-3 rows cap l=7 in one cell
        (np.column_stack([x, g]), ("continuous", "categorical")),
        # without a continuous column every set is its whole cell
        (cells[:, None], ("categorical",)),
    ]
    for X, meta in inputs:
        nb, lengths, draw = _local_response_draw(X, meta, 7)
        assert np.unique(lengths).size > 1
        Y, W = draw(0, 39)  # replicate b draws from substream(3, b + 1)
        assert Y.shape == (39, n) and W is None
        for b in range(1, 40):
            k = np.floor(substream(3, b).random(n) * lengths).astype(int)
            expected = np.array([nb.sets[i][k[i]] for i in range(n)])
            assert np.array_equal(Y[b - 1], expected)


def test_equal_neighbor_sets_draw_as_per_observation_loop():
    rng = np.random.default_rng(7)
    n = 90
    inputs = [
        (rng.uniform(-1, 1, (n, 2)), None, 7),
        # two whole cells of 45 rows: each cell's rows share one start
        ((np.arange(n) % 2.0)[:, None], ("categorical",), 45),
    ]
    for X, meta, k in inputs:
        nb, lengths, draw = _local_response_draw(X, meta, 7)
        assert (lengths == k).all()
        Y, W = draw(0, 39)  # replicate b draws from substream(3, b + 1)
        assert Y.shape == (39, n) and W is None
        for b in range(1, 40):
            j = substream(3, b).integers(0, k, size=n)
            expected = np.array([nb.sets[i][j[i]] for i in range(n)])
            assert np.array_equal(Y[b - 1], expected)


def test_pairwise_never_fabricates_rows():
    ds, spec = _gaussian_data(n=80, seed=11)
    rows = {tuple(r) for r in np.column_stack([ds.y, ds.X_raw[:, 0]])}
    # replicate the pairwise draw directly and check membership
    from lrboot.rng import substream

    for b in (1, 2, 3):
        idx = substream(21, b).integers(0, ds.n, size=ds.n)
        for i in idx[:10]:
            assert (ds.y[i], ds.X_raw[i, 0]) in rows


def test_wild_bootstrap_mean_matches_fit():
    ds, spec = _gaussian_data(n=40, seed=12)
    fit = lb.fit_qmle(ds, spec)
    resid = ds.y - fit.mu_hat
    rng = np.random.default_rng(0)
    draws = np.empty((10_000, ds.n))
    for b in range(10_000):
        w = rng.integers(0, 2, ds.n) * 2.0 - 1.0
        draws[b] = fit.mu_hat + w * resid
    mc_mean = draws.mean(axis=0)
    se = np.abs(resid) / np.sqrt(10_000)
    assert np.all(np.abs(mc_mean - fit.mu_hat) <= 3 * se + 1e-12)


def test_local_response_resamples_observed_responses():
    ds, spec = _gaussian_data(n=80, seed=20)
    out = run(
        ds, spec, BootstrapMethod.local_response(6), B=15, seed=5,
        keep_responses=True,
    )
    observed = set(ds.y.tolist())
    assert all(v in observed for v in out.responses.ravel())
    # l=1 degenerates to the original sample exactly
    out1 = run(ds, spec, BootstrapMethod.local_response(1), B=5, seed=5,
               keep_responses=True)
    assert np.array_equal(out1.responses, np.tile(ds.y, (5, 1)))
    assert np.allclose(out1.replicates, out1.estimate[None, :], atol=1e-12)


def test_multiplier_and_parametric_run_on_poisson():
    rng = np.random.default_rng(14)
    x = rng.uniform(-1, 1, 150)
    y = rng.poisson(np.exp(1.0 + 0.4 * x)).astype(float)
    ds = lb.make_dataset(y, x[:, None])
    spec = lb.ModelSpec("poisson", "log", (lb.Term("raw", 0),))
    for m in (BootstrapMethod.multiplier(), BootstrapMethod.parametric()):
        out = run(ds, spec, m, B=40, seed=6)
        assert out.replicates.shape == (40, 2)
        assert np.all(out.se_hat > 0)


def test_ordinal_lrb_and_parametric():
    rng = np.random.default_rng(15)
    n = 250
    x = rng.uniform(-1.5, 1.5, n)
    z = 1.1 * x + rng.standard_normal(n)
    alpha = np.array([-0.8, 0.5])
    y = 1.0 + (z[:, None] > alpha[None, :]).sum(axis=1)
    ds = lb.make_dataset(y, x[:, None])
    spec = lb.ModelSpec(
        "ordinal", "probit", (lb.Term("raw", 0),), include_intercept=False, n_categories=3
    )
    for m in (
        BootstrapMethod.lrb("surrogate", 12),
        BootstrapMethod.lrb("sbs", 12),
        BootstrapMethod.parametric(),
        BootstrapMethod.multiplier(),
    ):
        out = run(ds, spec, m, B=25, seed=8)
        assert out.replicates.shape[1] == 3  # two cutpoints + slope
        assert out.coef_names[:2] == ("alpha_1", "alpha_2")


def test_incompatibilities_rejected():
    ds, spec = _probit_data(n=80, seed=16)
    with pytest.raises(IncompatibleResidual):
        run(ds, spec, BootstrapMethod.lrb("raw", 5), B=10, seed=1)
    with pytest.raises(IncompatibleResidual):
        run(ds, spec, BootstrapMethod.lrb("deviance", 5), B=10, seed=1)
    dso, speco = _gaussian_data()
    with pytest.raises(IncompatibleResidual):
        run(dso, speco, BootstrapMethod.lrb("surrogate", 5), B=10, seed=1)

    rng = np.random.default_rng(1)
    n = 150
    x = rng.uniform(-1, 1, n)
    z = x + rng.standard_normal(n)
    y = 1.0 + (z[:, None] > np.array([[-0.5, 0.5]])).sum(axis=1)
    dso2 = lb.make_dataset(y, x[:, None])
    spec_o = lb.ModelSpec(
        "ordinal", "probit", (lb.Term("raw", 0),), include_intercept=False, n_categories=3
    )
    with pytest.raises(IncompatibleResidual):
        run(dso2, spec_o, BootstrapMethod.wild(), B=10, seed=1)
    with pytest.raises(IncompatibleResidual):
        run(dso2, spec_o, BootstrapMethod.lrb("pearson", 5), B=10, seed=1)



@pytest.mark.parametrize(
    "family,link,token",
    [
        ("binomial", "probit", "lrb-raw"),
        ("poisson", "log", "lrb-sbs"),
        ("gamma", "inverse", "classical-surrogate"),
        ("gaussian", "identity", "lrb-surrogate"),
        ("ordinal", "probit", "classical-pearson"),
    ],
)
def test_run_rejects_unsupported_kind_before_fitting(family, link, token, monkeypatch):
    ds, _ = _probit_data(n=80, seed=16)
    J = 3 if family == "ordinal" else 0
    spec = lb.ModelSpec(family, link, (lb.Term("raw", 0),), include_intercept=not J,
                        n_categories=J)

    def no_fit(*args, **kwargs):
        raise AssertionError("fitted before checking the residual kind")

    monkeypatch.setattr("lrboot.bootstrap.fit_qmle", no_fit)
    with pytest.raises(IncompatibleResidual):
        run(ds, spec, BootstrapMethod.parse(token, l=5), B=10, seed=1)

def test_too_many_failures_aborts():
    ds, spec = _probit_data(n=80, seed=33)
    fit = lb.fit_qmle(ds, spec)
    with pytest.raises(TooManyFailures):
        # a zero-iteration cap fails every replicate refit
        run(
            ds,
            spec,
            BootstrapMethod.parametric(),
            B=20,
            seed=3,
            fit=fit,
            options=lb.FitOptions(max_iter=0),
        )


@pytest.mark.parametrize("scenario", ["SC10", "SC9", "SC1_ordinal"])
def test_parametric_draws_match_per_replicate_loop(scenario):
    # responses drawn by a loop over substream(seed, b): gaussian and gamma
    # with their dispersion estimates, ordinal by its cumulative draw
    ds = simlab.generate(scenario, n=300, seed=4)
    spec = simlab.get_scenario(scenario).assumed
    fit = lb.fit_qmle(ds, spec)
    out = run(ds, spec, BootstrapMethod.parametric(), B=24, seed=6, fit=fit,
              keep_responses=True)
    assert out.n_failed == 0
    n, mu = ds.n, fit.mu_hat
    dof = n - fit.design.q
    for b in range(1, 25):
        rng = substream(6, b)
        if scenario == "SC10":
            sd = np.sqrt(float(np.sum((ds.y - mu) ** 2) / dof))
            y_star = mu + sd * rng.standard_normal(n)
        elif scenario == "SC9":
            shape = 1.0 / float(np.sum(((ds.y - mu) / np.sqrt(fit.var_hat)) ** 2) / dof)
            y_star = rng.gamma(shape, mu / shape)
        else:
            u = rng.random(n)
            y_star = (1 + (u[:, None] > np.cumsum(mu, axis=1)).sum(axis=1)).astype(float)
        assert np.array_equal(out.responses[b - 1], y_star), b


def test_keep_responses_only_for_recreating_methods():
    ds, spec = _gaussian_data(n=60, seed=17)
    out = run(ds, spec, BootstrapMethod.lrb("raw", 8), B=15, seed=2, keep_responses=True)
    assert out.responses.shape == (15, 60)
    with pytest.raises(UnsupportedKind):
        run(ds, spec, BootstrapMethod.multiplier(), B=15, seed=2, keep_responses=True)


def test_summary_rows_layout():
    ds, spec = _gaussian_data(n=60, seed=18)
    out = run(ds, spec, BootstrapMethod.lrb("raw", 8), B=20, seed=2)
    rows = out.summary_rows()
    assert [r["coefficient"] for r in rows] == ["intercept", "x1"]
    assert set(rows[0]) == {
        "coefficient",
        "estimate",
        "se_hat",
        "ci_nor_lo",
        "ci_nor_hi",
        "ci_per_lo",
        "ci_per_hi",
        "p_two_sided",
    }


def test_lrb_surrogate_close_to_parametric_under_correct_model():
    # correctly specified probit: the two SEs agree within 15% relative
    rng = np.random.default_rng(19)
    n = 2000
    x = rng.uniform(-6, 6, n)
    y = (rng.random(n) < norm.cdf(12 + 2 * x + 0.0 * x**2)).astype(float)
    ds = lb.make_dataset(y, x[:, None])
    spec = lb.ModelSpec("binomial", "probit", (lb.Term("raw", 0),))
    slope = 1
    a = run(ds, spec, BootstrapMethod.lrb("surrogate", 10), B=500, seed=29)
    b = run(ds, spec, BootstrapMethod.parametric(), B=500, seed=31)
    ratio = a.se_hat[slope] / b.se_hat[slope]
    assert abs(ratio - 1.0) <= 0.15


# -- block draws against the per-replicate draw -----------------------------------


def _oracle_data(model, layout, n=60, seed=8):
    """Binary probit, 4-category ordinal or gaussian responses on x, with a
    categorical column of a 3-row cell (unequal neighbor sets at l=7) or
    without one (equal sets)."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.5, 1.5, n)
    z = 0.3 + 1.1 * x + rng.standard_normal(n)
    if model == "binary":
        y = (z > 0).astype(float)
        spec = lb.ModelSpec("binomial", "probit", (lb.Term("raw", 0),))
    elif model == "ordinal":
        y = 1.0 + (z[:, None] > np.array([-0.8, 0.3, 1.2])).sum(axis=1)
        spec = lb.ModelSpec("ordinal", "probit", (lb.Term("raw", 0),),
                            include_intercept=False, n_categories=4)
    else:
        y = z
        spec = lb.ModelSpec("gaussian", "identity", (lb.Term("raw", 0),))
    if layout == "equal":
        return lb.make_dataset(y, x[:, None]), spec
    g = (np.arange(n) % 20 >= 1).astype(float)  # rows 0, 20 and 40 form one cell
    return lb.make_dataset(y, np.column_stack([x, g]),
                           column_meta=("continuous", "categorical")), spec


def _inverse_one(fit, r, kind):
    """One replicate's recreated responses, by the per-vector rules."""
    family = fit.family
    if kind == "surrogate":
        codes = np.searchsorted(family.thresholds(fit), r + fit.eta, side="left") + 1
        return family.from_codes(codes)
    if kind == "sbs":
        if family.n_cut == 0:
            return family.from_codes((r > 0.0).astype(int) + 1)
        probs = family.category_probs(fit.mu_hat)
        cum = np.concatenate([np.zeros((len(r), 1)), np.cumsum(probs, axis=1)], axis=1)
        grid = cum[:, :-1] + cum[:, 1:] - 1.0
        return family.from_codes(np.argmin(np.abs(grid - r[:, None]), axis=1) + 1)
    if kind == "pearson":
        return family.clamp_response(fit.mu_hat + np.sqrt(fit.var_hat) * r)
    return fit.eta + r  # raw


def _replicate_draw(ds, method, fit, seed, nb, i):
    """Replicate i's (y*, w*) drawn alone from substream(seed, i + 1)."""
    rng = substream(seed, i + 1)
    n, y, mu, family = ds.n, ds.y, fit.mu_hat, fit.family
    kind = method.kind
    if kind == "pairwise":
        return y, np.bincount(rng.integers(0, n, size=n), minlength=n)
    if kind == "multiplier":
        return y, rng.standard_exponential(n)
    if kind == "parametric":
        if family.n_cut:
            u = rng.random(n)
            return (1 + (u[:, None] > np.cumsum(mu, axis=1)).sum(axis=1)).astype(float), None
        if family.name == "binomial":
            return (rng.random(n) < mu).astype(float), None
        return mu + np.sqrt(family.dispersion(y, fit)) * rng.standard_normal(n), None
    if kind == "wild":
        w = rng.integers(0, 2, size=n) * 2.0 - 1.0
        return family.clamp_response(mu + w * (y - mu)), None
    if kind == "classical_residual":
        picks = rng.integers(0, n, size=n)
    else:
        lengths = np.array([len(s) for s in nb.sets])
        if (lengths == lengths[0]).all():
            k = rng.integers(0, lengths[0], size=n)
        else:
            k = np.floor(rng.random(n) * lengths).astype(int)
        picks = np.array([nb.sets[j][k[j]] for j in range(n)])
        if kind == "local_response":
            return y[picks], None
    pool = residuals.compute(fit, ds, method.residual_kind, rng=substream(seed, 0)).values
    return _inverse_one(fit, pool[picks], method.residual_kind), None


_ORACLE_KINDS = {
    "binary": ("surrogate", "sbs", "pearson"),
    "ordinal": ("surrogate", "sbs"),
    "gaussian": ("pearson", "raw"),
}


@pytest.mark.parametrize("layout", ["equal", "unequal"])
@pytest.mark.parametrize("model", ["binary", "ordinal", "gaussian"])
def test_block_draw_equals_the_per_replicate_draw(model, layout):
    # a full block of the refit size and a short last block after it
    ds, spec = _oracle_data(model, layout)
    fit = lb.fit_qmle(ds, spec)
    nb = build_neighborhoods(ds, 7)
    lengths = np.array([len(s) for s in nb.sets])
    assert (np.unique(lengths).size > 1) == (layout == "unequal")
    rows = lb.glm.block_rows(ds.n)
    methods = [BootstrapMethod.local_response(7), BootstrapMethod.parametric(),
               BootstrapMethod.pairwise(), BootstrapMethod.multiplier()]
    if model != "ordinal":
        methods.append(BootstrapMethod.wild())
    for kind in _ORACLE_KINDS[model]:
        methods += [BootstrapMethod.lrb(kind, 7), BootstrapMethod.classical_residual(kind)]
    for method in methods:
        draw = _sampler(ds, method, fit, 5, nb)
        for first, stop in ((0, rows), (rows, rows + 5)):
            Y, W = draw(first, stop)
            assert Y.shape == (stop - first, ds.n), method.label
            for b, i in enumerate(range(first, stop)):
                y_i, w_i = _replicate_draw(ds, method, fit, 5, nb, i)
                assert np.array_equal(Y[b], y_i), (method.label, i)
                assert (W is None) == (w_i is None), method.label
                if w_i is not None:
                    assert np.array_equal(W[b], w_i), (method.label, i)


# -- intervals are computed when read ---------------------------------------------


def test_select_size_computes_no_interval(monkeypatch):
    ds, spec = _gaussian_data(n=120, seed=21)
    kwargs = dict(grid=(2, 4), K=2, m=100, B_inner=20, seed=4)
    plain = select_size(ds, spec, "raw", **kwargs)

    def no_interval(*args, **kw):
        raise AssertionError("an interval was computed")

    monkeypatch.setattr("lrboot.bootstrap.ci_percentile", no_interval)
    patched = select_size(ds, spec, "raw", **kwargs)
    assert cli._json_data(patched) == cli._json_data(plain)


def test_outcome_intervals_read_as_the_formulas():
    ds, spec = _probit_data(n=120, seed=9)
    alpha = 0.1
    out = run(ds, spec, BootstrapMethod.lrb("surrogate", 8), B=40, alpha=alpha, seed=3)
    r, est, se = out.replicates, out.estimate, out.se_hat
    z = ndtri(1.0 - alpha / 2.0)
    assert np.array_equal(out.ci_normal, np.column_stack([est - z * se, est + z * se]))
    lo = np.quantile(r, alpha / 2.0, axis=0, method="linear")
    hi = np.quantile(r, 1.0 - alpha / 2.0, axis=0, method="linear")
    assert np.array_equal(out.ci_percentile, np.column_stack([lo, hi]))
    assert out.ci_percentile is out.ci_percentile  # kept after the first read
