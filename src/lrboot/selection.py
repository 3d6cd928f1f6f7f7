"""Bootstrap model selection: in-sample average loss, out-of-sample
prediction error with optimism correction, candidate ranking, and the CR1/CR2
rank-accuracy scores."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bootstrap import BootstrapMethod, run
from .data import Dataset, ModelSpec
from .errors import (
    LengthMismatch,
    MethodCannotRecreate,
    NotAPermutation,
    UnsupportedKind,
)
from .glm import FitResult, fit_qmle
from .neighborhood import build_neighborhoods
from .rng import derive_seed

__all__ = [
    "CandidateSet",
    "SelectionReport",
    "in_sample_loss",
    "prediction_error",
    "loss_from_replicates",
    "prediction_error_from_replicates",
    "rank_models",
    "cr1",
    "cr2",
]


@dataclass(frozen=True)
class CandidateSet:
    models: tuple
    data: Dataset
    method: BootstrapMethod
    B: int

    def __post_init__(self):
        if len(self.models) < 2:
            raise UnsupportedKind("need at least two candidate models")
        labels = [m.display() for m in self.models]
        if len(set(labels)) != len(labels):
            raise UnsupportedKind(f"candidate labels must be distinct: {labels}")


@dataclass
class SelectionReport:
    """A ranking of candidate models, a plain record whose fields the CLI
    writes as JSON; `to_table` prints it for a terminal."""

    criterion: str  # "L" or "Gamma"
    labels: tuple
    values: np.ndarray
    ranks: np.ndarray  # permutation of 1..M, rank 1 = smallest value
    chosen: str
    provenance: dict

    def to_table(self) -> str:
        head = f"{'model':<32} {self.criterion:>12} {'rank':>5} {'chosen':>7}"
        lines = [head, "-" * len(head)]
        for label, v, r in zip(self.labels, self.values, self.ranks):
            mark = "*" if label == self.chosen else ""
            lines.append(f"{label:<32} {v:>12.6f} {int(r):>5} {mark:>7}")
        return "\n".join(lines)


def _check_scalar_family(spec: ModelSpec) -> None:
    if spec.is_ordinal:
        raise UnsupportedKind(
            "ordinal models have no scalar mean/variance; selection criteria "
            "require a mean-variance representable family"
        )


def _replicate_losses(data: Dataset, fit: FitResult, betas: np.ndarray):
    """(mu_star, losses): the n x B fitted means of the replicate
    coefficients and each replicate's in-sample loss against the observed
    responses, sum_i (y_i - mu*_i)^2 / (n var_hat_i)."""
    _check_scalar_family(fit.spec)
    mu_star = fit.family.mean(fit.design.matrix @ np.atleast_2d(betas).T)  # n x B
    denom = data.n * fit.var_hat
    return mu_star, ((data.y[:, None] - mu_star) ** 2 / denom[:, None]).sum(axis=0)


def loss_from_replicates(
    data: Dataset, fit: FitResult, betas: np.ndarray
) -> float:
    """Monte Carlo in-sample average loss given replicate coefficients."""
    return float(_replicate_losses(data, fit, betas)[1].mean())


def prediction_error_from_replicates(
    data: Dataset, fit: FitResult, betas: np.ndarray, ystars: np.ndarray
) -> float:
    """Three-term optimism-corrected prediction error given replicates:
    the original fit's loss, plus each replicate's in-sample loss, minus
    that replicate's loss against its own responses y*."""
    mu_star, term2 = _replicate_losses(data, fit, betas)
    n = data.n
    term1 = float(((data.y - fit.mu_hat) ** 2 / (n * fit.var_hat)).sum())
    var_star = fit.family.variance(mu_star)
    term3 = ((ystars.T - mu_star) ** 2 / (n * var_star)).sum(axis=0)
    return float(np.mean(term1 + term2 - term3))


def in_sample_loss(
    data: Dataset,
    spec: ModelSpec,
    method: BootstrapMethod,
    B: int,
    seed: int = 0,
    *,
    fit: FitResult | None = None,
    neighborhoods=None,
    n_threads: int = 1,
) -> float:
    """Bootstrap estimate of the in-sample average loss.

    Any bootstrap method qualifies: only the replicate coefficients enter.
    """
    _check_scalar_family(spec)
    fit = fit or fit_qmle(data, spec)
    out = run(
        data, spec, method, B, seed=seed,
        fit=fit, neighborhoods=neighborhoods, n_threads=n_threads,
    )
    return loss_from_replicates(data, fit, out.replicates)


def prediction_error(
    data: Dataset,
    spec: ModelSpec,
    method: BootstrapMethod,
    B: int,
    seed: int = 0,
    *,
    fit: FitResult | None = None,
    neighborhoods=None,
    n_threads: int = 1,
) -> float:
    """Bootstrap estimate of the out-of-sample prediction error.

    Needs recreated responses, so only response-regenerating methods qualify;
    terms 2 and 3 use the same replicate's (y*, beta*) in a single pass.
    """
    _check_scalar_family(spec)
    if not method.recreates_responses:
        raise MethodCannotRecreate(
            f"{method.label} does not recreate responses; "
            "the prediction-error criterion requires y*"
        )
    fit = fit or fit_qmle(data, spec)
    out = run(
        data, spec, method, B, seed=seed,
        fit=fit, neighborhoods=neighborhoods, n_threads=n_threads,
        keep_responses=True,
    )
    return prediction_error_from_replicates(data, fit, out.replicates, out.responses)


def assign_ranks(values, labels) -> np.ndarray:
    """Ascending ranks (1 = smallest); exact ties broken by label order."""
    values = np.asarray(values, dtype=float)
    order = sorted(range(len(labels)), key=lambda i: (values[i], labels[i]))
    ranks = np.empty(len(labels), dtype=int)
    for pos, i in enumerate(order, start=1):
        ranks[i] = pos
    return ranks


def rank_models(
    cands: CandidateSet,
    criterion: str,
    seed: int = 0,
    *,
    n_threads: int = 1,
) -> SelectionReport:
    """Evaluate the criterion per model (substream keyed by label, so the
    result is invariant to model order) and rank ascending, ties by label."""
    if criterion not in ("L", "Gamma"):
        raise UnsupportedKind(f"criterion must be 'L' or 'Gamma', got {criterion!r}")
    evaluate = in_sample_loss if criterion == "L" else prediction_error
    data, method = cands.data, cands.method
    neighborhoods = None
    if method.is_local:
        neighborhoods = build_neighborhoods(data, method.l)
    labels, values = [], []
    for spec in cands.models:
        label = spec.display()
        labels.append(label)
        values.append(
            evaluate(
                data,
                spec,
                method,
                cands.B,
                seed=derive_seed(seed, label),
                neighborhoods=neighborhoods,
                n_threads=n_threads,
            )
        )
    values = np.asarray(values)
    ranks = assign_ranks(values, labels)
    chosen = labels[int(np.argmin(ranks))]
    return SelectionReport(
        criterion=criterion,
        labels=tuple(labels),
        values=values,
        ranks=ranks,
        chosen=chosen,
        provenance={
            "method": method.label,
            "l": method.l,
            "B": cands.B,
            "seed": seed,
        },
    )


def _check_ranks(true_ranks, est_ranks):
    t = np.asarray(true_ranks, dtype=int)
    e = np.asarray(est_ranks, dtype=int)
    if t.shape != e.shape:
        raise LengthMismatch("rank vectors differ in length")
    want = set(range(1, t.shape[0] + 1))
    if set(t.tolist()) != want or set(e.tolist()) != want:
        raise NotAPermutation("rank vectors must each be a permutation of 1..M")
    return t, e


def cr1(true_ranks, est_ranks) -> float:
    """Share of models whose rank is exactly recovered."""
    t, e = _check_ranks(true_ranks, est_ranks)
    return float(np.mean(t == e))


def cr2(true_ranks, est_ranks) -> float:
    """Share of ordered pairs whose relative order is recovered (C-index style)."""
    t, e = _check_ranks(true_ranks, est_ranks)
    m = t.shape[0]
    agree = 0
    for i in range(m):
        for j in range(m):
            if i != j and (t[i] - t[j]) * (e[i] - e[j]) > 0:
                agree += 1
    return agree / (m * (m - 1))
