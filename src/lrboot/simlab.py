"""Simulation lab: misspecification scenarios, Monte Carlo pseudo-true
parameters and standard errors, and coverage/ratio experiments.

Fixed-design semantics: for a given (scenario, n, seed, params) the
covariates are frozen and only the response is redrawn across Monte Carlo
replicates, so the pseudo-true standard error measures response randomness
alone. A scenario is a mean plus a noise draw (`ScenarioDef`): a frozen draw
computes the mean once, and a block of redraws is one `noise` call on the
redraws' own substreams, as the parametric bootstrap draws its block. The
frozen draw (covariates, observed-column dataset, the assumed model's design
and the mean) is made once, by `pseudo_truth`, which fits its redraws from
one pilot fit's coefficients, not from cold starts; the `PseudoTruth` carries
it: `run_experiment` and `theorem1_ks` take the truth alone and fit on its
design, so they cannot be scored against another scenario's truth. Nothing is
cached on disk; a pseudo-truth is recomputed per process.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np
from scipy.special import expit, ndtr, ndtri

from .bootstrap import ci_percentile, run
from .data import Dataset, DesignInfo, ModelSpec, Term, back_transform, build_design, make_dataset
from .errors import InvalidSize, TooManyFailures, UnknownScenario
from .glm import BinomialProbit, FitResult, GammaInverse, GaussianIdentity, PoissonLog
from .glm import _check_rank, _coef_names, family_for, fit_design_batch, fit_qmle, refit_blocks
from .neighborhood import build_neighborhoods, default_size
from .residuals import surrogate_values
from .rng import derive_seed, stable_int, substream

__all__ = [
    "ScenarioDef",
    "PseudoTruth",
    "ExperimentReport",
    "scenario_ids",
    "get_scenario",
    "generate",
    "pseudo_truth",
    "run_experiment",
    "sweep_param",
    "theorem1_ks",
    "case1_candidates",
    "case2_candidates",
    "default_neighborhood_size",
    "report_to_csv",
    "sweep_to_csv",
]

# y-substream purposes keep pseudo-truth, experiment, and ad-hoc draws disjoint
_PURPOSE_PSEUDO = 1
_PURPOSE_EXPERIMENT = 2
_PURPOSE_ADHOC = 3


def _terms(k):
    return tuple(Term("raw", j) for j in range(k))


@dataclass(frozen=True)
class ScenarioDef:
    """Registered data-generating process plus its (misspecified) assumed model.

    A scenario is a mean plus a noise draw. `mean(X_full, params)` is what a
    response is drawn around, computed once per frozen draw; `noise(rngs,
    mean)` draws one response row per generator, len(rngs) x n. The noise is
    a family's `simulate` (binomial by default; SC8, SC9, SC12 and
    GaussianCheck name theirs), except where no family draws the process:
    SC1_ordinal (mean = the n x 3 cumulative probabilities), SC7
    (beta-binomial), SC10 (a normal mixture) and SC11 (mean = the mean and
    the noise scale as two columns). Unless stated, a scenario has n = 2000
    and observes one continuous column `x`, the first of X_full."""

    id: str
    make_x: callable  # (rng, n, params) -> X_full
    mean: callable  # (X_full, params) -> mean
    assumed: ModelSpec
    noise: callable = BinomialProbit().simulate  # the link does not enter the draw
    default_n: int = 2000
    observed: tuple = ((0,), ("continuous",), ("x",))  # (col indices, meta, names) into X_full
    defaults: dict = field(default_factory=dict)
    x_param_names: tuple = ()  # params that alter the covariate draw
    paper_l: int | None = None  # neighborhood size when the source states one


_REGISTRY: dict[str, ScenarioDef] = {}


def _register(scn: ScenarioDef) -> None:
    _REGISTRY[scn.id] = scn


def scenario_ids() -> tuple:
    return tuple(sorted(_REGISTRY))


def get_scenario(scenario_id: str) -> ScenarioDef:
    scn = _REGISTRY.get(scenario_id)
    if scn is None:
        raise UnknownScenario(
            f"unknown scenario {scenario_id!r}; known: {', '.join(scenario_ids())}"
        )
    return scn


def default_neighborhood_size(scenario_id: str, n: int) -> int:
    scn = get_scenario(scenario_id)
    if scn.paper_l is not None:
        return scn.paper_l
    return default_size(n)


# ---------------------------------------------------------------------------
# scenario registry


def _obs_all(k):
    names = tuple(f"x{j + 1}" for j in range(k))
    return list(range(k)), tuple("continuous" for _ in range(k)), names


def _sc1_make_x(rng, n, params):
    return rng.uniform(-6.0, 6.0, size=(n, 1))


def _sc1_index(X, params):
    b0, b1 = 12.0, 2.0
    b2 = params["beta2"]
    x = X[:, 0]
    return b0 + b1 * x + b2 * x**2


_register(
    ScenarioDef(
        id="SC1_probit",
        make_x=_sc1_make_x,
        mean=lambda X, p: ndtr(_sc1_index(X, p)),
        assumed=ModelSpec("binomial", "probit", _terms(1)),
        defaults={"beta2": -2.0},
        paper_l=10,
    )
)

_register(
    ScenarioDef(
        id="SC1_logit",
        make_x=_sc1_make_x,
        mean=lambda X, p: expit(_sc1_index(X, p)),
        assumed=ModelSpec("binomial", "logit", _terms(1)),
        defaults={"beta2": -2.0},
        paper_l=10,
    )
)


def _sc1_ordinal_cum(X, params):
    """P(Y <= j) for j = 1..3, n x 3."""
    x = X[:, 0]
    alphas = np.array([-16.0, -12.0, -8.0])
    index = 8.0 * x + params["beta2"] * x**2
    return ndtr(alphas[None, :] + index[:, None])


def _sc1_ordinal_noise(rngs, cum):
    u = np.array([rng.random(cum.shape[0]) for rng in rngs])
    y = np.ones(u.shape)
    for c in cum.T:
        y += u > c
    for row in y:
        counts = np.bincount(row.astype(int), minlength=5)[1:]
        if np.any(counts == 0):
            warnings.warn(
                f"SC1_ordinal draw left category {int(np.argmin(counts)) + 1} empty",
                stacklevel=2,
            )
    return y


_register(
    ScenarioDef(
        id="SC1_ordinal",
        make_x=lambda rng, n, p: rng.uniform(1.0, 7.0, size=(n, 1)),
        mean=_sc1_ordinal_cum,
        noise=_sc1_ordinal_noise,
        assumed=ModelSpec(
            "ordinal", "probit", _terms(1), include_intercept=False, n_categories=4
        ),
        defaults={"beta2": -1.0},
        paper_l=10,
    )
)


def _sc2_make_x(rng, n, params):
    p = 10
    if params["correlated"]:
        cov = 0.5 ** np.abs(np.subtract.outer(np.arange(p), np.arange(p)))
        L = np.linalg.cholesky(cov)
        return rng.standard_normal((n, p)) @ L.T
    return rng.standard_normal((n, p))


def _sc2_mean(X, params):
    signs = np.array([(-1.0) ** j for j in range(1, 11)])
    return ndtr(1.0 + X @ signs - X[:, 0] * X[:, 9] + X[:, 1] * X[:, 8])


_register(
    ScenarioDef(
        id="SC2",
        make_x=_sc2_make_x,
        mean=_sc2_mean,
        assumed=ModelSpec("binomial", "probit", _terms(10)),
        observed=_obs_all(10),
        defaults={"correlated": False},
        x_param_names=("correlated",),
    )
)


def _sc3_make_x(rng, n, params):
    rho = 0.7 if params["correlated"] else 0.0
    z = rng.standard_normal((n, 2))
    x1 = z[:, 0]
    v = rho * z[:, 0] + np.sqrt(1.0 - rho**2) * z[:, 1]
    return np.column_stack([x1, np.exp(v)])


_register(
    ScenarioDef(
        id="SC3",
        make_x=_sc3_make_x,
        mean=lambda X, p: ndtr(-1.0 + 2.0 * X[:, 0] + 2.0 * X[:, 1]),
        assumed=ModelSpec("binomial", "probit", _terms(1)),
        observed=([0], ("continuous",), ("x1",)),  # x2 unobserved
        defaults={"correlated": False},
        x_param_names=("correlated",),
    )
)

_register(
    ScenarioDef(
        id="SC4_exp",
        make_x=_sc1_make_x,
        mean=lambda X, p: ndtr(-2.0 + 4.0 * np.exp(X[:, 0])),
        assumed=ModelSpec("binomial", "probit", _terms(1)),
    )
)

_register(
    ScenarioDef(
        id="SC4_sine",
        make_x=_sc1_make_x,
        mean=lambda X, p: ndtr(5.0 * np.sin(X[:, 0])),
        assumed=ModelSpec("binomial", "probit", _terms(1)),
    )
)


def _sc5_make_x(rng, n, params):
    x = rng.uniform(-6.0, 6.0, n)
    u = (rng.random(n) < 0.5).astype(float)
    return np.column_stack([x, u])


def _sc5_mean(X, params):
    x, u = X[:, 0], X[:, 1]
    if params["shift_intercept"]:
        index = np.where(u == 0.0, -1.0 + x, 1.0 - x)
    else:
        index = np.where(u == 0.0, -2.0 + x, -2.0 - x)
    return ndtr(index)


_register(
    ScenarioDef(
        id="SC5_slope",
        make_x=_sc5_make_x,
        mean=_sc5_mean,
        assumed=ModelSpec("binomial", "probit", _terms(2)),
        observed=([0, 1], ("continuous", "categorical"), ("x", "u")),
        defaults={"shift_intercept": False},
    )
)

_register(
    ScenarioDef(
        id="SC5_both",
        make_x=_sc5_make_x,
        mean=_sc5_mean,
        assumed=ModelSpec("binomial", "probit", _terms(2)),
        observed=([0, 1], ("continuous", "categorical"), ("x", "u")),
        defaults={"shift_intercept": True},
    )
)

_register(
    ScenarioDef(
        id="SC6",
        make_x=lambda rng, n, p: np.column_stack(
            [
                (rng.random(n) < 0.2).astype(float),
                (rng.random(n) < 0.8).astype(float),
            ]
        ),
        mean=lambda X, p: ndtr(1.0 + X[:, 0] - X[:, 1] - 4.0 * X[:, 0] * X[:, 1]),
        assumed=ModelSpec("binomial", "probit", _terms(2)),
        observed=([0, 1], ("categorical", "categorical"), ("x1", "x2")),
    )
)


def _sc7_noise(rngs, mu):
    """Beta-binomial: a success probability per observation, then 10 trials."""
    a, b = 2.0 * mu, 2.0 * (1.0 - mu)
    return np.array([rng.binomial(10, rng.beta(a, b)) for rng in rngs]) / 10.0


_register(
    ScenarioDef(
        id="SC7",
        default_n=200,
        make_x=lambda rng, n, p: rng.uniform(0.0, 2.0, size=(n, 1)),
        mean=lambda X, p: expit(-2.0 + 2.0 * X[:, 0]),
        noise=_sc7_noise,
        assumed=ModelSpec("binomial", "logit", _terms(1)),
    )
)

_register(
    ScenarioDef(
        id="SC8",
        make_x=_sc1_make_x,
        mean=lambda X, p: np.exp(4.0 + 2.0 * X[:, 0] - X[:, 0] ** 2),
        noise=PoissonLog().simulate,
        assumed=ModelSpec("poisson", "log", _terms(1)),
    )
)

_register(
    ScenarioDef(
        id="SC9",
        make_x=lambda rng, n, p: rng.uniform(0.0, 1.0, size=(n, 1)),
        mean=lambda X, p: np.exp(2.0 + X[:, 0] - X[:, 0] ** 2),
        noise=GammaInverse().simulate,  # shape 1: exponential
        assumed=ModelSpec("gamma", "inverse", _terms(1)),
    )
)


def _sc10_make_x(rng, n, params):
    cov = np.full((3, 3), 0.2)
    np.fill_diagonal(cov, 1.0)
    L = np.linalg.cholesky(cov)
    vxx = rng.standard_normal((n, 3)) @ L.T
    v, x2, x3 = vxx[:, 0], vxx[:, 1], vxx[:, 2]
    # lognormal moments in closed form
    x1 = (np.exp(v) - np.exp(0.5)) / np.sqrt((np.e - 1.0) * np.e)
    return np.column_stack([x1, x2, x3])


def _sc10_noise(rngs, mean):
    """A zero-mean normal mixture: N(-1/9, 1) w.p. 0.9, N(1, 4) w.p. 0.1."""
    n = mean.shape[0]
    eps = []
    for rng in rngs:
        eps_scale = np.where(rng.random(n) < 0.9, 1.0, 2.0)
        eps_mean = np.where(eps_scale == 1.0, -1.0 / 9.0, 1.0)
        eps.append(eps_mean + eps_scale * rng.standard_normal(n))
    return mean + np.array(eps)


_register(
    ScenarioDef(
        id="SC10",
        make_x=_sc10_make_x,
        mean=lambda X, p: X[:, 0] + X[:, 1] + X[:, 2] + 0.5 * X[:, 0] * X[:, 1],
        noise=_sc10_noise,
        assumed=ModelSpec("gaussian", "identity", _terms(3)),
        observed=_obs_all(3),
    )
)


def _sc11_noise(rngs, m):
    """Normal noise scaled by (x - 0.5)^2; m holds the mean and that scale."""
    z = np.array([rng.standard_normal(m.shape[0]) for rng in rngs])
    return m[:, 0] + m[:, 1] * z


_register(
    ScenarioDef(
        id="SC11",
        make_x=lambda rng, n, p: rng.uniform(0.0, 1.0, size=(n, 1)),
        mean=lambda X, p: np.column_stack(
            [1.0 + X[:, 0] + X[:, 0] ** 2, (X[:, 0] - 0.5) ** 2]
        ),
        noise=_sc11_noise,
        assumed=ModelSpec(
            "gaussian", "identity", (Term("raw", 0), Term("power", 0, power=2))
        ),
    )
)


def _sc12_mean(X, params):
    x, u = X[:, 0], X[:, 1]
    return np.where(u == 0.0, -2.0 + 2.0 * x, -2.0 - 2.0 * x)


_register(
    ScenarioDef(
        id="SC12",
        make_x=lambda rng, n, p: np.column_stack(
            [rng.standard_normal(n), (rng.random(n) < 0.5).astype(float)]
        ),
        mean=_sc12_mean,
        noise=GaussianIdentity().simulate,
        assumed=ModelSpec("gaussian", "identity", _terms(2)),
        observed=([0, 1], ("continuous", "categorical"), ("x", "u")),
    )
)


def _irregular_index(x):
    return np.sin(2.0 * x - 1.0) + 0.1 * np.exp(x) + 0.5 * x**3


_register(
    ScenarioDef(
        id="CaseI",
        make_x=_sc1_make_x,
        mean=lambda X, p: ndtr(_irregular_index(X[:, 0])),
        assumed=ModelSpec("binomial", "probit", _terms(1)),
    )
)

_register(
    ScenarioDef(
        id="CaseII",
        make_x=lambda rng, n, p: rng.uniform(-6.0, 6.0, size=(n, 2)),
        mean=lambda X, p: ndtr(
            1.0
            + 2.0 * X[:, 0]
            - 1.5 * X[:, 1]
            + X[:, 0] * X[:, 1]
            - (X[:, 0] - X[:, 1]) ** 2
        ),
        assumed=ModelSpec("binomial", "probit", _terms(2)),
        observed=_obs_all(2),
    )
)

_register(
    ScenarioDef(
        id="Example1",
        default_n=500,
        make_x=_sc1_make_x,
        mean=lambda X, p: ndtr(_irregular_index(X[:, 0])),
        assumed=ModelSpec("binomial", "probit", _terms(1)),
        paper_l=4,
    )
)


# correctly specified homoscedastic linear model; closed-form SE available
_register(
    ScenarioDef(
        id="GaussianCheck",
        default_n=500,
        make_x=lambda rng, n, p: rng.uniform(0.0, 1.0, size=(n, 1)),
        mean=lambda X, p: 1.0 + 2.0 * X[:, 0],
        noise=partial(GaussianIdentity().simulate, dispersion=0.25),
        assumed=ModelSpec("gaussian", "identity", _terms(1)),
    )
)


def case1_candidates() -> tuple:
    """Probit candidates with misspecified predictor sets for CaseI data."""
    return (
        ModelSpec("binomial", "probit", (Term("raw", 0),), label="probit-(x)"),
        ModelSpec(
            "binomial",
            "probit",
            (Term("raw", 0), Term("exp", 0)),
            label="probit-(x,exp(x))",
        ),
        ModelSpec(
            "binomial",
            "probit",
            (Term("raw", 0), Term("power", 0, power=2), Term("power", 0, power=3)),
            label="probit-(x,x^2,x^3)",
        ),
    )


def case2_candidates() -> tuple:
    """Candidates with link/mean misspecification for CaseII data."""
    base = (Term("raw", 0), Term("raw", 1))
    inter = base + (Term("interaction", 0, col2=1),)
    quad = base + (Term("power", 0, power=2),)
    return (
        ModelSpec("binomial", "probit", base, label="probit-(x1,x2)"),
        ModelSpec("binomial", "logit", quad, label="logit-(x1,x2,x1^2)"),
        ModelSpec("binomial", "logit", inter, label="logit-(x1,x2,x1x2)"),
        ModelSpec("binomial", "probit", inter, label="probit-(x1,x2,x1x2)"),
    )


# ---------------------------------------------------------------------------
# generation


@dataclass(frozen=True, eq=False)
class _Frame:
    """The frozen draw of one (scenario, n, seed, params): the covariates and
    everything built from them alone. `data` is the observed-column Dataset;
    its response is a placeholder that nothing fits. Response redraw i comes
    from the substream (scenario, n, seed, 1, purpose, i)."""

    scn: ScenarioDef
    n: int
    seed: int
    params: dict
    X_full: np.ndarray
    data: Dataset

    @cached_property
    def mean(self) -> np.ndarray:
        """The scenario's mean on the frozen X, shared by every redraw."""
        return self.scn.mean(self.X_full, self.params)

    def responses(self, purpose: int, first: int, stop: int) -> np.ndarray:
        """Redraws first..stop - 1, one row each, drawn as one block."""
        key = stable_int(self.scn.id)
        rngs = [substream(key, self.n, self.seed, 1, purpose, i) for i in range(first, stop)]
        return self.scn.noise(rngs, self.mean)

    def response(self, purpose: int, index: int) -> np.ndarray:
        return self.responses(purpose, index, index + 1)[0]

    def dataset(self, purpose: int, index: int) -> Dataset:
        return self.data.with_response(self.response(purpose, index))

    @cached_property
    def design(self) -> DesignInfo:
        """The assumed model's design, shared by every fit on this draw."""
        return build_design(self.data, self.scn.assumed)


def _frame(scenario_id: str, n: int | None, seed: int, params: dict | None) -> _Frame:
    """Check the params against the scenario's defaults, then draw X from the
    substream (scenario, n, seed, 0, key of the params that alter X)."""
    scn = get_scenario(scenario_id)
    n = n or scn.default_n
    merged = dict(scn.defaults)
    if params:
        unknown = set(params) - set(scn.defaults)
        if unknown:
            raise UnknownScenario(
                f"scenario {scn.id} has no parameters {sorted(unknown)}"
            )
        merged.update(params)
    relevant = {k: merged[k] for k in scn.x_param_names}
    x_key = stable_int(repr(sorted(relevant.items())))
    X_full = scn.make_x(substream(stable_int(scn.id), n, seed, 0, x_key), n, merged)
    cols, meta, names = scn.observed
    data = make_dataset(np.zeros(n), X_full[:, cols], column_meta=meta, column_names=names)
    return _Frame(scn, n, seed, merged, X_full, data)


def generate(
    scenario_id: str,
    n: int | None = None,
    seed: int = 0,
    params: dict | None = None,
    y_index: int = 0,
) -> Dataset:
    """One dataset draw; X is frozen per (scenario, n, seed) and y_index picks
    the response redraw."""
    return _frame(scenario_id, n, seed, params).dataset(_PURPOSE_ADHOC, y_index)


# ---------------------------------------------------------------------------
# pseudo-truth


@dataclass
class PseudoTruth:
    scenario: str
    n: int
    reps: int
    seed: int
    params: dict
    coef_names: tuple
    beta_dagger: np.ndarray  # standardized-design scale
    psi: np.ndarray
    beta_dagger_raw: np.ndarray
    psi_raw: np.ndarray
    n_failed: int
    first_slope: int
    frame: _Frame = field(repr=False, compare=False)  # the frozen draw scored against


def _raw_coefs(coefs: np.ndarray, design, n_cut: int) -> np.ndarray:
    """Coefficient rows on the raw predictor scale; the n_cut leading
    cutpoints (ordinal) are shifted by the centering of the slopes."""
    if not n_cut:
        return back_transform(coefs, design)
    beta = coefs[:, n_cut:]
    shift = np.sum(beta * design.means / design.sds, axis=1)
    return np.concatenate([coefs[:, :n_cut] + shift[:, None], beta / design.sds], axis=1)


def pseudo_truth(
    scenario_id: str,
    n: int | None = None,
    reps: int = 10_000,
    seed: int = 0,
    params: dict | None = None,
    n_threads: int = 1,
) -> PseudoTruth:
    """Monte Carlo pseudo-true parameter (mean of QMLE fits over response
    redraws on frozen X) and pseudo-true SE (divisor-reps standard deviation).

    A pilot fits redraw 0 from its cold start. The redraws are then drawn a
    block at a time and fit by `glm.refit_blocks` on `n_threads` workers,
    every one from the pilot's coefficients, or from its own cold start
    where the pilot failed. More than 5% failed fits raises TooManyFailures
    after the first block over the cap, taken in block order; with workers,
    every share is fit before that check. The truth keeps its frozen draw,
    which `run_experiment` and `theorem1_ks` score against."""
    if reps < 100:
        raise InvalidSize(f"pseudo_truth needs reps >= 100, got {reps}")
    frame = _frame(scenario_id, n, seed, params)
    design = frame.design
    family = family_for(frame.scn.assumed)
    _check_rank(family, design)

    def redraw(first, stop):
        return frame.responses(_PURPOSE_PSEUDO, first, stop), None

    # one start for every redraw lets the run share one start table, and a
    # warm redraw converges in about half the steps of a cold one
    pilot = fit_design_batch(design, redraw(0, 1)[0], family)
    beta0 = pilot.beta[0] if pilot.ok[0] else None
    coefs = []
    n_failed = n_fit = 0
    for out in refit_blocks(design, family, redraw, reps, beta0=beta0, n_threads=n_threads):
        ok = out.ok
        n_fit += ok.size
        n_failed += int(np.sum(~ok))
        if n_failed > 0.05 * reps:
            cause = next(e for e in out.errors if e is not None)
            raise TooManyFailures(
                f"{n_failed} pseudo-truth fits failed out of {n_fit}"
            ) from cause
        coefs.append(out.beta[ok])
    coefs = np.vstack(coefs)
    n_cut = family.n_cut
    coefs_raw = _raw_coefs(coefs, design, n_cut)
    return PseudoTruth(
        scenario=scenario_id,
        n=frame.n,
        reps=reps,
        seed=seed,
        params=frame.params,
        coef_names=_coef_names(design, n_cut),
        beta_dagger=coefs.mean(axis=0),
        psi=coefs.std(axis=0, ddof=0),
        beta_dagger_raw=coefs_raw.mean(axis=0),
        psi_raw=coefs_raw.std(axis=0, ddof=0),
        n_failed=n_failed,
        first_slope=n_cut + design.first_slope,
        frame=frame,
    )


# ---------------------------------------------------------------------------
# coverage / ratio experiments


@dataclass
class MethodStats:
    label: str
    se_hats: np.ndarray  # per replication, target coefficient
    coverage: dict  # (ci_type, level) -> rate
    width_mean: dict  # (ci_type, level) -> mean width
    width_se: dict  # (ci_type, level) -> SE of the mean width
    n_failed_total: int
    psi: float

    @property
    def mean_se(self) -> float:
        return float(self.se_hats.mean())

    @property
    def se_ratio(self) -> float:
        """mean(se_hat) / psi; identical to the mean of per-replication ratios."""
        return self.mean_se / self.psi


@dataclass
class ExperimentReport:
    scenario: str
    n: int
    B: int
    replications: int
    levels: tuple
    seed: int
    target_name: str
    psi: float
    beta_dagger_target: float
    methods: dict  # label -> MethodStats


def run_experiment(
    methods: list,
    truth: PseudoTruth,
    B: int = 500,
    replications: int = 100,
    levels: tuple = (0.95, 0.90, 0.75),
    seed: int = 0,
    n_threads: int = 1,
) -> ExperimentReport:
    """Coverage and SE-ratio experiment on the frozen draw of `truth`.

    Per replication: a fresh response draw, one fit on the truth's design,
    one BootstrapOutcome per method. Each method fills an array of the
    target coefficient's SE per replication and, for the normal and the
    percentile interval, one of its bounds (replications x levels x 2);
    coverage of the pseudo-true target, mean width and the width's SE come
    from those arrays.
    """
    if replications < 1:
        raise InvalidSize(f"run_experiment needs replications >= 1, got {replications}")
    frame = truth.frame
    spec = frame.scn.assumed
    t = truth.first_slope
    beta_target = float(truth.beta_dagger[t])
    psi_target = float(truth.psi[t])

    nb_cache: dict[int, object] = {}

    def neighborhoods_for(method):
        if not method.is_local:
            return None
        if method.l not in nb_cache:
            nb_cache[method.l] = build_neighborhoods(frame.data, method.l)
        return nb_cache[method.l]

    labels = [m.label for m in methods]
    z = ndtri(0.5 + np.asarray(levels) / 2.0)
    # per method: the target's SE in each replication, and its normal and
    # percentile bounds (lo, hi) at each level
    se_hats = {lab: np.empty(replications) for lab in labels}
    shape = (replications, len(levels), 2)
    bounds = {lab: {"nor": np.empty(shape), "per": np.empty(shape)} for lab in labels}
    failed = dict.fromkeys(labels, 0)

    for r in range(replications):
        ds = frame.dataset(_PURPOSE_EXPERIMENT, r)
        fit = fit_qmle(ds, spec, design=frame.design)
        for method in methods:
            lab = method.label
            out = run(
                ds,
                spec,
                method,
                B,
                seed=derive_seed(seed, r, lab),
                fit=fit,
                neighborhoods=neighborhoods_for(method),
                n_threads=n_threads,
            )
            se_t, est = out.se_hat[t], out.estimate[t]
            se_hats[lab][r] = se_t
            failed[lab] += out.n_failed
            nor, per = bounds[lab]["nor"][r], bounds[lab]["per"][r]
            nor[:, 0], nor[:, 1] = est - z * se_t, est + z * se_t
            for k, level in enumerate(levels):
                per[k] = ci_percentile(out.replicates[:, [t]], 1.0 - level)[0]

    stats = {}
    for lab in labels:
        coverage, wmean, wse = {}, {}, {}
        for k, level in enumerate(levels):
            for ci in ("nor", "per"):
                # each tally reduces one 1-D column, which numpy sums
                # pairwise; a reduction over axis 0 of the whole array sums
                # in another order, which can change the last bits
                lo, hi = bounds[lab][ci][:, k].T
                width = hi - lo
                coverage[ci, level] = float(np.mean((lo <= beta_target) & (beta_target <= hi)))
                wmean[ci, level] = float(width.mean())
                wse[ci, level] = float(width.std(ddof=1) / np.sqrt(replications))
        stats[lab] = MethodStats(
            label=lab,
            se_hats=se_hats[lab],
            coverage=coverage,
            width_mean=wmean,
            width_se=wse,
            n_failed_total=failed[lab],
            psi=psi_target,
        )
    return ExperimentReport(
        scenario=truth.scenario,
        n=truth.n,
        B=B,
        replications=replications,
        levels=tuple(levels),
        seed=seed,
        target_name=truth.coef_names[t],
        psi=psi_target,
        beta_dagger_target=beta_target,
        methods=stats,
    )


def report_to_csv(report: ExperimentReport, path, extra: dict | None = None) -> None:
    """Coverage/width table, one row per method x CI type x level.

    The fixed columns are, in order: scenario, n, B, replications, target,
    method, ci_type, level, coverage, width, width_se, mean_se_hat, psi,
    se_ratio. The keys of `extra` follow them as constant provenance columns
    (seed, tool version, ...), each row holding the key's value."""
    extra = extra or {}
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            [
                "scenario", "n", "B", "replications", "target", "method",
                "ci_type", "level", "coverage", "width", "width_se",
                "mean_se_hat", "psi", "se_ratio",
            ]
            + list(extra)
        )
        for lab, st in report.methods.items():
            for ci in ("nor", "per"):
                for level in report.levels:
                    w.writerow(
                        [
                            report.scenario, report.n, report.B,
                            report.replications, report.target_name, lab,
                            ci, level,
                            repr(st.coverage[(ci, level)]),
                            repr(st.width_mean[(ci, level)]),
                            repr(st.width_se[(ci, level)]),
                            repr(st.mean_se), repr(st.psi), repr(st.se_ratio),
                        ]
                        + [extra[k] for k in extra]
                    )


def sweep_param(
    scenario_id: str,
    param_name: str,
    values,
    methods: list,
    n: int | None = None,
    B: int = 200,
    replications: int = 30,
    reps_truth: int = 3000,
    seed: int = 0,
    n_threads: int = 1,
) -> dict:
    """SE ratios as a function of one generator parameter (misspecification
    sweeps); returns {value: {method label: ratio}}."""
    out = {}
    for v in values:
        params = {param_name: v}
        truth = pseudo_truth(
            scenario_id, n=n, reps=reps_truth, seed=seed, params=params,
            n_threads=n_threads,
        )
        report = run_experiment(
            methods,
            truth,
            B=B,
            replications=replications,
            levels=(0.95,),
            seed=derive_seed(seed, repr(v)),
            n_threads=n_threads,
        )
        out[v] = {lab: st.se_ratio for lab, st in report.methods.items()}
    return out


def sweep_to_csv(sweep: dict, param_name: str, path) -> None:
    labels = sorted(next(iter(sweep.values())))
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([param_name] + labels)
        for v, ratios in sweep.items():
            w.writerow([v] + [repr(ratios[lab]) for lab in labels])


# ---------------------------------------------------------------------------
# residual-distribution property (bootstrap validity at desk scale)


def theorem1_ks(truth: PseudoTruth, l: int, rep: int = 0, seed: int = 0) -> float:
    """Two-sample KS distance between one round of locally resampled
    surrogate residuals and surrogate residuals drawn under the pseudo-true
    parameters (fresh response from the true process), on the truth's
    frozen draw."""
    from scipy.stats import ks_2samp  # scipy.stats alone takes most of a CLI import

    frame = truth.frame
    spec = frame.scn.assumed
    ds = frame.dataset(_PURPOSE_ADHOC, 1000 + rep)
    fit = fit_qmle(ds, spec, design=frame.design)
    r_hat = surrogate_values(fit, ds.y, substream(seed, rep, 0))
    pick = build_neighborhoods(frame.data, l).picker()
    r_star = r_hat[pick([substream(seed, rep, 1)])[0]]

    # oracle side: fresh truth draw, surrogate at the pseudo-true coefficients
    y_dagger = frame.response(_PURPOSE_ADHOC, 2000 + rep)
    fit_dagger = FitResult.at(truth.beta_dagger, spec, frame.design)
    r_dagger = surrogate_values(fit_dagger, y_dagger, substream(seed, rep, 2))
    return float(ks_2samp(r_star, r_dagger).statistic)
