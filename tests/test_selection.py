"""Model-selection criteria, ranking, and rank-accuracy scores."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lrboot as lb
from lrboot import cli
from lrboot import selection as sel
from lrboot import simlab as sl
from lrboot.bootstrap import BootstrapMethod
from lrboot.errors import (
    LengthMismatch,
    MethodCannotRecreate,
    NotAPermutation,
    UnsupportedKind,
)
from lrboot.rng import derive_seed


def _saturated_gaussian(n=40):
    x = np.linspace(-1, 1, n)
    y = 2.0 - 0.5 * x  # exactly linear: residuals are identically zero
    ds = lb.make_dataset(y, x[:, None])
    spec = lb.ModelSpec("gaussian", "identity", (lb.Term("raw", 0),))
    return ds, spec


def test_saturated_gaussian_zero_loss_and_error():
    ds, spec = _saturated_gaussian()
    m = BootstrapMethod("lrb", "raw", 5)
    assert sel.in_sample_loss(ds, spec, m, B=20, seed=1) < 1e-20
    assert abs(sel.prediction_error(ds, spec, m, B=20, seed=1)) < 1e-20


def test_loss_reduces_to_mse_with_identity_replicate():
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, 60)
    y = 1 + x + rng.standard_normal(60)
    ds = lb.make_dataset(y, x[:, None])
    spec = lb.ModelSpec("gaussian", "identity", (lb.Term("raw", 0),))
    fit = lb.fit_qmle(ds, spec)
    got = sel.loss_from_replicates(ds, fit, fit.beta_hat[None, :])
    mse = float(np.mean((y - fit.mu_hat) ** 2))
    assert np.isclose(got, mse, rtol=1e-12)  # V=1 for the gaussian family


def test_loss_monte_carlo_stability_across_seeds():
    rng = np.random.default_rng(5)
    x = rng.uniform(-1, 1, 100)
    y = 1 + x + rng.standard_normal(100)
    ds = lb.make_dataset(y, x[:, None])
    spec = lb.ModelSpec("gaussian", "identity", (lb.Term("raw", 0),))
    m = BootstrapMethod("lrb", "raw", 10)
    a = sel.in_sample_loss(ds, spec, m, B=2000, seed=1)
    b = sel.in_sample_loss(ds, spec, m, B=2000, seed=2)
    assert abs(a - b) / a < 0.02


def _three_terms(ds, spec, method, B, seed):
    from lrboot.bootstrap import run

    fit = lb.fit_qmle(ds, spec)
    out = run(ds, spec, method, B=B, seed=seed, fit=fit, keep_responses=True)
    fam = fit.family
    mu_star = fam.mean(fit.design.matrix @ out.replicates.T)
    denom = ds.n * fit.var_hat
    t1 = float(((ds.y - fit.mu_hat) ** 2 / denom).sum())
    t2 = ((ds.y[:, None] - mu_star) ** 2 / denom[:, None]).sum(axis=0)
    t3 = ((out.responses.T - mu_star) ** 2 / (ds.n * fam.variance(mu_star))).sum(axis=0)
    return t1, t2, t3


def test_term2_dominates_term1_on_sc1():
    ds = sl.generate("SC1_probit", n=2000, seed=4)
    spec = lb.ModelSpec("binomial", "probit", (lb.Term("raw", 0),))
    t1, t2, _ = _three_terms(ds, spec, BootstrapMethod("lrb", "surrogate", 10), 2000, 9)
    assert float((t2 - t1).mean()) > 0


def test_optimism_correction_positive_for_least_squares_refits():
    # the refit minimizes term 3's loss for the gaussian family, so the
    # optimism term2 - term3 is positive on average there
    ds = sl.generate("SC11", n=2000, seed=4)
    spec = sl.get_scenario("SC11").assumed
    t1, t2, t3 = _three_terms(ds, spec, BootstrapMethod("lrb", "raw", 13), 2000, 9)
    assert float((t2 - t3).mean()) > 0
    assert float((t2 - t1).mean()) > 0


def test_prediction_error_rejects_non_recreating_methods():
    ds, spec = _saturated_gaussian()
    for m in (BootstrapMethod("pairwise"), BootstrapMethod("wild"), BootstrapMethod("multiplier")):
        with pytest.raises(MethodCannotRecreate):
            sel.prediction_error(ds, spec, m, B=10, seed=1)
    # but the in-sample loss accepts them
    val = sel.in_sample_loss(ds, spec, BootstrapMethod("multiplier"), B=10, seed=1)
    assert np.isfinite(val)


def test_ordinal_models_excluded():
    rng = np.random.default_rng(11)
    x = rng.uniform(-1, 1, 120)
    z = x + rng.standard_normal(120)
    y = 1.0 + (z[:, None] > np.array([[-0.5, 0.5]])).sum(axis=1)
    ds = lb.make_dataset(y, x[:, None])
    spec = lb.ModelSpec(
        "ordinal", "probit", (lb.Term("raw", 0),), include_intercept=False, n_categories=3
    )
    with pytest.raises(UnsupportedKind):
        sel.in_sample_loss(ds, spec, BootstrapMethod("lrb", "surrogate", 5), B=10)


def test_tie_break_by_label_order():
    # identical criterion values: ascending-label order decides
    assert list(sel.assign_ranks([0.5, 0.5], ["A", "B"])) == [1, 2]
    assert list(sel.assign_ranks([0.5, 0.5], ["B", "A"])) == [2, 1]
    assert list(sel.assign_ranks([0.3, 0.1, 0.2], ["a", "b", "c"])) == [3, 1, 2]


def test_rank_models_order_invariance_noisy_data():
    rng = np.random.default_rng(13)
    x = rng.uniform(-1, 1, 80)
    y = 1 + x + 0.2 * x**2 + rng.standard_normal(80)
    ds = lb.make_dataset(y, x[:, None])
    a = lb.ModelSpec("gaussian", "identity", (lb.Term("raw", 0),), label="linear")
    b = lb.ModelSpec(
        "gaussian", "identity", (lb.Term("raw", 0), lb.Term("power", 0, power=2)),
        label="quadratic",
    )
    r1 = sel.rank_models(
        sel.CandidateSet((a, b), ds, BootstrapMethod("lrb", "raw", 8), B=80), "L", seed=3
    )
    r2 = sel.rank_models(
        sel.CandidateSet((b, a), ds, BootstrapMethod("lrb", "raw", 8), B=80), "L", seed=3
    )
    v1 = dict(zip(r1.labels, r1.values))
    v2 = dict(zip(r2.labels, r2.values))
    assert v1 == v2  # label-keyed substreams make values order-invariant


def test_rank_models_values_to_ranks():
    # criterion values (0.3, 0.1, 0.2) -> ranks (3, 1, 2)
    vals = np.array([0.3, 0.1, 0.2])
    order = sorted(range(3), key=lambda i: (vals[i], str(i)))
    ranks = np.empty(3, dtype=int)
    for pos, i in enumerate(order, start=1):
        ranks[i] = pos
    assert list(ranks) == [3, 1, 2]


def test_cr_metrics_enumerated():
    assert sel.cr1([1, 2, 3], [1, 2, 3]) == 1.0
    assert sel.cr2([1, 2, 3], [1, 2, 3]) == 1.0
    assert sel.cr1([3, 2, 1], [1, 2, 3]) == pytest.approx(1 / 3)
    assert sel.cr2([3, 2, 1], [1, 2, 3]) == 0.0
    assert sel.cr1([1, 2, 3], [1, 3, 2]) == pytest.approx(1 / 3)
    assert sel.cr2([1, 2, 3], [1, 3, 2]) == pytest.approx(2 / 3)


def test_cr_metrics_validation():
    with pytest.raises(LengthMismatch):
        sel.cr1([1, 2], [1, 2, 3])
    with pytest.raises(NotAPermutation):
        sel.cr2([1, 1, 3], [1, 2, 3])


@pytest.mark.parametrize("score", [sel.cr1, sel.cr2])
@pytest.mark.parametrize("ranks", [[], [1]])
def test_cr_metrics_need_two_models(score, ranks):
    # as CandidateSet needs two candidates; no bare ZeroDivisionError or nan
    with pytest.raises(UnsupportedKind):
        score(ranks, ranks)


@settings(max_examples=40, deadline=None)
@given(st.permutations(list(range(1, 6))), st.permutations(list(range(1, 6))))
def test_cr2_invariant_to_common_relabeling(t, e):
    base = sel.cr2(t, e)
    perm = np.random.default_rng(0).permutation(5)
    t2 = [t[perm[i]] for i in range(5)]
    e2 = [e[perm[i]] for i in range(5)]
    assert sel.cr2(t2, e2) == pytest.approx(base)


def test_case2_in_sample_rank_recovers_truth():
    ds = sl.generate("CaseII", seed=3)
    cands = sel.CandidateSet(
        sl.case2_candidates(), ds, BootstrapMethod("lrb", "surrogate", 13), B=500
    )
    rep = sel.rank_models(cands, "L", seed=11)
    true_ranks = {
        "probit-(x1,x2)": 4,
        "logit-(x1,x2,x1^2)": 3,
        "logit-(x1,x2,x1x2)": 2,
        "probit-(x1,x2,x1x2)": 1,
    }
    est = dict(zip(rep.labels, rep.ranks))
    assert sel.cr1(
        [true_ranks[k] for k in rep.labels], [est[k] for k in rep.labels]
    ) == 1.0
    assert rep.chosen == "probit-(x1,x2,x1x2)"


@pytest.mark.xfail(
    strict=False,
    reason="exp-vs-cubic tie-break direction depends on transform-scale and "
    "variance-floor conventions that are not pinned down; near-tie either way",
)
def test_case1_prediction_error_mean_ranks():
    true_order = ["probit-(x)", "probit-(x,exp(x))", "probit-(x,x^2,x^3)"]
    want = np.array([3.0, 2.0, 1.0])
    ranks = []
    for r in range(20):
        ds = sl.generate("CaseI", seed=100 + r)
        cands = sel.CandidateSet(
            sl.case1_candidates(), ds, BootstrapMethod("lrb", "surrogate", 6), B=500
        )
        rep = sel.rank_models(cands, "Gamma", seed=derive_seed(50, r))
        d = dict(zip(rep.labels, rep.ranks))
        ranks.append([d[k] for k in true_order])
    means = np.mean(ranks, axis=0)
    assert np.all(np.abs(means - want) <= 0.5)


def test_selection_report_serialization():
    ds, spec = _saturated_gaussian()
    spec2 = lb.ModelSpec(
        "gaussian", "identity", (lb.Term("raw", 0), lb.Term("power", 0, power=2)),
        label="quadratic",
    )
    cands = sel.CandidateSet(
        (lb.ModelSpec("gaussian", "identity", (lb.Term("raw", 0),), label="linear"), spec2),
        ds,
        BootstrapMethod("lrb", "raw", 5),
        B=30,
    )
    rep = sel.rank_models(cands, "L", seed=2)
    loaded = json.loads(json.dumps(cli._json_data(rep)))
    assert loaded["criterion"] == "L"
    assert set(loaded["labels"]) == {"linear", "quadratic"}
    table = rep.to_table()
    assert "linear" in table and "rank" in table
