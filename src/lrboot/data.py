"""Datasets, model specifications, and design-matrix construction.

A :class:`Dataset` keeps the covariates both raw and standardized; model
terms (powers, interactions, exponentials) are computed on the raw scale and
the resulting design columns are standardized again, so every coefficient has
an exact per-column back-transform to the raw predictor scale.

A :class:`DesignInfo` is the one owner of what fits derive from its matrix:
the transpose, the column products that give X' diag(w) X, the
constant-column flags and the column rank. Each is built on first use and
lives as long as the design, so every refit on one design (bootstrap
replicates, pseudo-truth redraws, one experiment's replications) shares a
single build.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, InvalidData, UnsupportedKind

__all__ = [
    "Dataset",
    "Term",
    "ModelSpec",
    "DesignInfo",
    "make_dataset",
    "build_design",
    "back_transform",
]

CONTINUOUS = "continuous"
CATEGORICAL = "categorical"

_STD_TOL = 1e-9


@dataclass(frozen=True)
class Term:
    """One design column: a transform of one or two covariate columns."""

    kind: str  # raw | power | interaction | exp
    col: int
    power: int = 1
    col2: int = -1

    def __post_init__(self):
        if self.kind not in ("raw", "power", "interaction", "exp"):
            raise UnsupportedKind(f"unknown term kind {self.kind!r}")
        if self.kind == "interaction" and self.col2 < 0:
            raise UnsupportedKind("interaction term needs a second column")
        if self.kind == "power" and self.power < 2:
            raise UnsupportedKind("power term needs power >= 2")

    def values(self, X_raw: np.ndarray) -> np.ndarray:
        x = X_raw[:, self.col]
        if self.kind == "raw":
            return x
        if self.kind == "power":
            return x**self.power
        if self.kind == "interaction":
            return x * X_raw[:, self.col2]
        return np.exp(x)

    def name(self, columns: tuple[str, ...]) -> str:
        c = columns[self.col]
        if self.kind == "raw":
            return c
        if self.kind == "power":
            return f"{c}^{self.power}"
        if self.kind == "interaction":
            return f"{c}*{columns[self.col2]}"
        return f"exp({c})"

    def involves_continuous(self, column_meta: tuple[str, ...]) -> bool:
        if column_meta[self.col] == CONTINUOUS:
            return True
        return self.kind == "interaction" and column_meta[self.col2] == CONTINUOUS


@dataclass(frozen=True)
class Dataset:
    """Fixed-design data: response plus covariates (standardized and raw),
    and the neighbor maps built on the covariates, {l: map}, which
    `with_response` shares and `with_rows` and `make_dataset` start without."""

    y: np.ndarray
    X: np.ndarray  # standardized covariates, n x p
    X_raw: np.ndarray
    column_names: tuple[str, ...]
    column_meta: tuple[str, ...]  # continuous | categorical per column
    standardized: bool = True
    neighbor_maps: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    def continuous_columns(self) -> np.ndarray:
        return np.array([m == CONTINUOUS for m in self.column_meta])

    def with_rows(self, idx: np.ndarray) -> "Dataset":
        """Row subset; the parent's standardization carries over (subsample
        column stats drift by O(1/sqrt(m)), which downstream design building
        absorbs), so fits stay on a scale comparable to the parent's."""
        return replace(
            self,
            y=self.y[idx],
            X=self.X[idx],
            X_raw=self.X_raw[idx],
        )

    def with_response(self, y: np.ndarray) -> "Dataset":
        y = np.asarray(y, dtype=float)
        if y.shape[0] != self.n:
            raise DimensionMismatch("response length does not match the design")
        if not np.all(np.isfinite(y)):
            raise InvalidData("responses contain non-finite entries")
        out = replace(self, y=y)
        object.__setattr__(out, "neighbor_maps", self.neighbor_maps)  # same covariates
        return out

    def validate(self) -> None:
        if not np.all(np.isfinite(self.X)):
            raise InvalidData("covariates contain non-finite entries")
        if self.n < self.p + 1:
            raise InvalidData(f"need n >= p + 1, got n={self.n}, p={self.p}")
        if self.standardized:
            for j, meta in enumerate(self.column_meta):
                if meta != CONTINUOUS:
                    continue
                col = self.X[:, j]
                if abs(col.mean()) > _STD_TOL:
                    raise InvalidData(f"column {j} not centered")
                if abs(col.std() - 1.0) > _STD_TOL and col.std() > _STD_TOL:
                    raise InvalidData(f"column {j} not scaled to unit sd")


def make_dataset(
    y,
    X_raw,
    column_meta=None,
    column_names=None,
    standardize: bool = True,
) -> Dataset:
    """Build a Dataset, standardizing continuous columns (mean 0, sd 1).

    Zero-variance continuous columns are centered only (sd left at 1), so
    constant predictors stay representable.
    """
    y = np.asarray(y, dtype=float)
    X_raw = np.atleast_2d(np.asarray(X_raw, dtype=float))
    if X_raw.shape[0] != y.shape[0]:
        raise DimensionMismatch("y and X row counts differ")
    if not np.all(np.isfinite(y)):
        raise InvalidData("responses contain non-finite entries")
    if not np.all(np.isfinite(X_raw)):
        raise InvalidData("covariates contain non-finite entries")
    n, p = X_raw.shape
    if column_meta is None:
        column_meta = tuple(CONTINUOUS for _ in range(p))
    if column_names is None:
        column_names = tuple(f"x{j + 1}" for j in range(p))
    X = X_raw.copy()
    if standardize:
        for j, meta in enumerate(column_meta):
            if meta != CONTINUOUS:
                continue
            m = X_raw[:, j].mean()
            s = X_raw[:, j].std()
            if s < _STD_TOL:
                s = 1.0
            X[:, j] = (X_raw[:, j] - m) / s
    ds = Dataset(
        y=y,
        X=X,
        X_raw=X_raw,
        column_names=tuple(column_names),
        column_meta=tuple(column_meta),
        standardized=standardize,
    )
    ds.validate()
    return ds


@dataclass(frozen=True)
class ModelSpec:
    """Family, link, and predictor terms for one candidate model."""

    family: str
    link: str
    predictor_terms: tuple[Term, ...]
    include_intercept: bool = True
    n_categories: int = 0  # ordinal only
    label: str = ""

    def __post_init__(self):
        from .glm import family_for  # glm imports this module

        family_for(self)  # raises UnsupportedKind for an unknown (family, link)
        if self.family == "ordinal":
            if self.n_categories < 3:
                raise UnsupportedKind("ordinal models need n_categories >= 3")
            if self.include_intercept:
                raise UnsupportedKind(
                    "ordinal models carry no free intercept (absorbed by cutpoints)"
                )

    @property
    def is_ordinal(self) -> bool:
        return self.family == "ordinal"

    def display(self) -> str:
        return self.label or f"{self.family}-{self.link}"


def _column_products(X: np.ndarray) -> np.ndarray:
    """The n x q(q+1)/2 products X[:, i] * X[:, j] for i <= j, in the order of
    np.triu_indices(q). Each block of products of one column i is written in
    place, so nothing beyond Z itself is allocated. Z is column-major: each
    product is one contiguous column."""
    n, q = X.shape
    Z = np.empty((n, q * (q + 1) // 2), order="F")
    k = 0
    for i in range(q):
        np.multiply(X[:, i : i + 1], X[:, i:], out=Z[:, k : k + q - i])
        k += q - i
    return Z


@dataclass(frozen=True)
class DesignInfo:
    """Built design matrix with per-column standardization records, and what
    fits derive from the matrix, each built once on first use."""

    matrix: np.ndarray
    coef_names: tuple[str, ...]
    means: np.ndarray
    sds: np.ndarray
    has_intercept: bool

    @property
    def q(self) -> int:
        return self.matrix.shape[1]

    @property
    def first_slope(self) -> int:
        return 1 if self.has_intercept else 0

    @cached_property
    def transpose(self) -> np.ndarray:
        """The matrix transposed, C-contiguous: a block's eta is its slopes @ transpose."""
        return np.ascontiguousarray(self.matrix.T)

    @cached_property
    def column_products(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(iu, ju, Z): the upper-triangle index pair of a q x q matrix and the
        products Z[:, k] = X[:, iu[k]] * X[:, ju[k]] that `gram` reads."""
        iu, ju = np.triu_indices(self.q)
        return iu, ju, _column_products(self.matrix)

    def gram(self, wk: np.ndarray) -> np.ndarray:
        """X' diag(wk[r]) X for each row r of wk, from one product with the
        column products: nothing of size b x n x q is allocated."""
        iu, ju, Z = self.column_products
        H = np.empty((wk.shape[0], self.q, self.q))
        H[:, iu, ju] = H[:, ju, iu] = wk @ Z
        return H

    @cached_property
    def constant_columns(self) -> np.ndarray:
        """Whether each column holds one nonzero value throughout."""
        X = self.matrix
        return np.all(X == X[0:1], axis=0) & (X[0] != 0)

    @cached_property
    def rank(self) -> int:
        """Column rank of the matrix."""
        return int(np.linalg.matrix_rank(self.matrix))

    @cached_property
    def rank_with_ones(self) -> int:
        """Column rank of [1, matrix]: the design an ordinal model's
        cutpoints extend, as they act as its intercept."""
        ones = np.ones((self.matrix.shape[0], 1))
        return int(np.linalg.matrix_rank(np.hstack([ones, self.matrix])))


def build_design(data: Dataset, spec: ModelSpec) -> DesignInfo:
    """Assemble the design: terms on raw covariates, then standardize columns.

    Columns derived purely from categorical covariates are left untouched
    (0/1 dummies stay interpretable); everything else is centered and scaled.
    """
    n = data.n
    cols, names = [], []
    means, sds = [], []
    if spec.include_intercept:
        cols.append(np.ones(n))
        names.append("intercept")
        means.append(0.0)
        sds.append(1.0)
    for term in spec.predictor_terms:
        if term.col >= data.p or (term.kind == "interaction" and term.col2 >= data.p):
            raise DimensionMismatch("term references a missing covariate column")
        v = term.values(data.X_raw).astype(float)
        m, s = 0.0, 1.0
        if data.standardized and term.involves_continuous(data.column_meta):
            m = v.mean()
            s = v.std()
            if s < _STD_TOL:
                s = 1.0
            v = (v - m) / s
        cols.append(v)
        names.append(term.name(data.column_names))
        means.append(m)
        sds.append(s)
    if not cols:
        raise UnsupportedKind("model has no predictor terms and no intercept")
    return DesignInfo(
        matrix=np.column_stack(cols),
        coef_names=tuple(names),
        means=np.asarray(means),
        sds=np.asarray(sds),
        has_intercept=spec.include_intercept,
    )


def back_transform(coefs: np.ndarray, design: DesignInfo) -> np.ndarray:
    """Map standardized-design coefficients to the raw predictor scale."""
    coefs = np.asarray(coefs, dtype=float)
    if coefs.shape[-1] != design.q:
        raise DimensionMismatch("coefficient length does not match the design")
    raw = coefs / design.sds
    if design.has_intercept:
        raw[..., 0] = coefs[..., 0] - (
            coefs[..., 1:] * design.means[1:] / design.sds[1:]
        ).sum(axis=-1)
    return raw
