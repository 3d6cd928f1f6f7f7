"""Batched refit kernel: row-by-row agreement with the scalar fitter, failure
classes per row, and thread invariance of the block driver for every method."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import log_ndtr
from scipy.stats import norm

import lrboot as lb
from lrboot.bootstrap import BootstrapMethod, run
from lrboot.errors import (
    EmptyCategory,
    FitError,
    NonConvergence,
    RankDeficient,
    SeparationDetected,
)
from lrboot.glm import fit_design, fit_design_batch, fit_ordinal_design, get_family

FAMILIES = [
    ("binomial", "probit"),
    ("binomial", "logit"),
    ("poisson", "log"),
    ("gamma", "inverse"),
    ("gaussian", "identity"),
]


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


def _scalar_rows(Xd, Y, family, options=None, W=None, beta0=None):
    """Per-row fit_design: (coefficients or None, error class or None)."""
    starts = None if beta0 is None else np.broadcast_to(beta0, (Y.shape[0], Xd.shape[1]))
    out = []
    for r in range(Y.shape[0]):
        try:
            beta, *_ = fit_design(
                Xd, Y[r], family, options,
                weights=None if W is None else W[r],
                check_rank=False,
                beta0=None if starts is None else starts[r],
            )
            out.append((beta, None))
        except FitError as exc:
            out.append((None, type(exc)))
    return out


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("family_name,link", FAMILIES)
@settings(max_examples=4, deadline=None, derandomize=True)
@given(st.booleans(), st.integers(min_value=0, max_value=10_000))
def test_batch_matches_scalar_per_row(family_name, link, weighted, warm, seed):
    family = get_family(family_name, link)
    rng = np.random.default_rng(seed)
    n, b = 80, 9
    Xd = _design(rng, n)
    eta = Xd @ np.array([0.9, 0.3, -0.2]) if family_name == "gamma" else (
        Xd @ np.array([0.2, 0.6, -0.4])
    )
    Y = _responses(family_name, eta, rng, b)
    W = rng.standard_exponential((b, n)) if weighted else None
    beta0 = None
    if warm:
        beta0, *_ = fit_design(Xd, Y[0], family, check_rank=False)
    out = fit_design_batch(Xd, Y, family, weights=W, beta0=beta0)
    ref = _scalar_rows(Xd, Y, family, W=W, beta0=beta0)
    for r, (beta, err) in enumerate(ref):
        assert err is None, f"row {r}: scalar fit failed with {err.__name__}"
        assert out.errors[r] is None, f"row {r}: {out.errors[r]!r}"
        assert np.max(np.abs(out.beta[r] - beta)) <= 1e-10
    assert out.ok.all()


def test_batch_failure_class_per_row():
    rng = np.random.default_rng(5)
    n = 60
    x = np.concatenate([np.zeros(20), np.linspace(-2.0, 2.0, 40)])
    Xd = np.column_stack([np.ones(n), x])
    probit = get_family("binomial", "probit")
    good = (rng.random(n) < norm.cdf(0.3 + 0.8 * x)).astype(float)
    separated = (x > 0).astype(float)
    separated[:20] = [0.0, 1.0] * 10
    Y = np.vstack([good, separated, good, good])
    W = np.ones_like(Y)
    # only the rows with x == 0 carry weight: the information matrix is singular
    W[2, 20:] = 0.0
    opts = lb.FitOptions(max_iter=500, separation_bound=50.0)
    beta0 = np.array([0.1, 0.1])
    out = fit_design_batch(Xd, Y, probit, opts, weights=W, beta0=beta0)
    ref = _scalar_rows(Xd, Y, probit, opts, W=W, beta0=beta0)
    assert [type(e) if e else None for e in out.errors] == [e for _, e in ref]
    assert [type(e) if e else None for e in out.errors] == [
        None, SeparationDetected, RankDeficient, None,
    ]
    assert np.all(np.isnan(out.beta[1:3]))
    assert np.max(np.abs(out.beta[0] - ref[0][0])) <= 1e-10

    # an iteration cap fails the rows that start away from their optimum
    capped = lb.FitOptions(max_iter=1)
    starts = np.vstack([ref[0][0], beta0, beta0])
    Yc = np.vstack([good, good, separated])
    out = fit_design_batch(Xd, Yc, probit, capped, beta0=starts)
    errors = [type(e) if e else None for e in out.errors]
    assert errors == [e for _, e in _scalar_rows(Xd, Yc, probit, capped, beta0=starts)]
    assert errors == [None, NonConvergence, NonConvergence]
    assert out.iterations[0] == 0


def test_binary_probit_loglik_single_log_ndtr_is_exact():
    rng = np.random.default_rng(8)
    eta = rng.standard_normal((4, 500)) * 4.0
    y = (rng.random((4, 500)) < 0.5).astype(float)
    two_term = y * log_ndtr(eta) + (1.0 - y) * log_ndtr(-eta)
    probit = get_family("binomial", "probit")
    assert np.array_equal(probit.loglik_terms(y, eta), two_term)
    frac = np.clip(y + 0.25, 0.0, 1.0)
    assert np.array_equal(
        probit.loglik_terms(frac, eta),
        frac * log_ndtr(eta) + (1.0 - frac) * log_ndtr(-eta),
    )


def test_ordinal_zero_weight_category_is_empty():
    # a pairwise resample is a weighted fit on multinomial counts; a category
    # none of whose rows was drawn is empty, as in the resampled data
    x = np.linspace(-1.0, 1.0, 30)
    y = np.repeat([1.0, 2.0, 3.0], 10)
    w = np.ones(30)
    w[10:20] = 0.0
    with pytest.raises(EmptyCategory):
        fit_ordinal_design(x[:, None], y, 3, weights=w)


def _probit_data(n=150, seed=7):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2, 2, n)
    y = (rng.random(n) < norm.cdf(0.3 + 0.9 * x - 0.2 * x**2)).astype(float)
    ds = lb.make_dataset(y, x[:, None])
    return ds, lb.ModelSpec("binomial", "probit", (lb.Term("raw", 0),))


@pytest.mark.parametrize(
    "method",
    [
        BootstrapMethod.lrb("surrogate", 8),
        BootstrapMethod.local_response(8),
        BootstrapMethod.classical_residual("pearson"),
        BootstrapMethod.parametric(),
        BootstrapMethod.pairwise(),
        BootstrapMethod.wild(),
        BootstrapMethod.multiplier(),
    ],
    ids=lambda m: m.label,
)
def test_blocks_are_thread_invariant_for_every_method(method):
    # B=130 is not a multiple of the block size, so the last block is short
    ds, spec = _probit_data()
    a = run(ds, spec, method, B=130, seed=17, n_threads=1)
    b = run(ds, spec, method, B=130, seed=17, n_threads=2)
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
    m = BootstrapMethod.pairwise()
    a = run(ds, spec, m, B=70, seed=3, n_threads=1)
    b = run(ds, spec, m, B=70, seed=3, n_threads=2)
    assert np.array_equal(a.replicates, b.replicates)
