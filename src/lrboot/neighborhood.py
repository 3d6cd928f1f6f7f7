"""Covariate neighborhoods: distances, k-nearest-neighbor index sets, exact
categorical cells, and iterative neighborhood-size selection.

Ties are broken deterministically: the observation itself ranks first among
equal distances (so i is always in N_i), then ascending index.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .errors import InvalidSize
from .rng import derive_seed, substream

__all__ = [
    "NeighborhoodMap",
    "SizeSelectionTrace",
    "distance_matrix",
    "linear_predictor_distances",
    "knn_sets",
    "categorical_sets",
    "select_size",
]

TIE_RULE = "self_first_then_index"

# full distance matrices above this row count are replaced by streaming rows
_DENSE_LIMIT = 20000


@dataclass
class NeighborhoodMap:
    """Per-observation neighbor index lists (sorted ascending)."""

    sets: list
    l: int | None
    metric: str
    tie_rule: str = TIE_RULE
    warnings: list = field(default_factory=list)

    @property
    def n(self) -> int:
        return len(self.sets)

    def uniform_length(self) -> int | None:
        lengths = {len(s) for s in self.sets}
        return lengths.pop() if len(lengths) == 1 else None

    def as_matrix(self) -> np.ndarray | None:
        k = self.uniform_length()
        if k is None:
            return None
        return np.vstack(self.sets)


def _pairwise_sq(A: np.ndarray) -> np.ndarray:
    sq = np.einsum("ij,ij->i", A, A)
    G = A @ A.T
    D2 = sq[:, None] + sq[None, :] - 2.0 * G
    np.maximum(D2, 0.0, out=D2)
    np.fill_diagonal(D2, 0.0)
    return D2


def distance_matrix(data: Dataset) -> np.ndarray:
    """Euclidean distances over the continuous covariate columns."""
    mask = data.continuous_columns()
    A = data.X[:, mask] if mask.any() else np.zeros((data.n, 1))
    D2 = _pairwise_sq(A)
    D = np.sqrt(0.5 * (D2 + D2.T))
    np.fill_diagonal(D, 0.0)
    return D


def linear_predictor_distances(eta: np.ndarray) -> np.ndarray:
    """|eta_i - eta_j| distances for the fitted-index metric."""
    eta = np.asarray(eta, dtype=float)
    return np.abs(eta[:, None] - eta[None, :])


def _smallest_l(d_row: np.ndarray, i: int, l: int) -> np.ndarray:
    n = d_row.shape[0]
    idx = np.arange(n)
    not_self = idx != i
    order = np.lexsort((idx, not_self, d_row))
    chosen = order[:l]
    chosen.sort()
    return chosen


# rows of a distance matrix partitioned at once by _knn_rows
_CHUNK = 256


def _knn_rows(D: np.ndarray, ls: list) -> dict:
    """{l: l nearest indices per row of D} for each size in ls, equal to
    `_smallest_l` row by row.

    A row whose l-th smallest distance bounds exactly l entries has one
    nearest set whatever the tie rule; only rows with a tie at that boundary
    fall back to the full (distance, self, index) sort.
    """
    n = D.shape[0]
    L = max(ls)
    out: dict = {l: [] for l in ls}
    for start in range(0, n, _CHUNK):
        Dc = D[start : start + _CHUNK]
        # the L smallest entries of each row hold every untied nearest set
        cand = np.argpartition(Dc, L - 1, axis=1)[:, :L]
        cand_d = np.take_along_axis(Dc, cand, axis=1)
        head = np.sort(cand_d, axis=1)
        for l in ls:
            kth = head[:, l - 1 : l]
            untied = np.count_nonzero(Dc <= kth, axis=1) == l
            chosen = cand[untied][cand_d[untied] <= kth[untied]].reshape(-1, l)
            picks = iter(np.sort(chosen, axis=1))
            out[l].extend(
                next(picks) if untied[r] else _smallest_l(Dc[r], start + r, l)
                for r in range(Dc.shape[0])
            )
    return out


def knn_sets(D: np.ndarray, l: int, metric: str = "euclidean") -> NeighborhoodMap:
    """l nearest indices per row of a distance matrix (self always included)."""
    n = D.shape[0]
    if not 1 <= l <= n:
        raise InvalidSize(f"neighborhood size {l} outside [1, {n}]")
    return NeighborhoodMap(sets=_knn_rows(D, [l])[l], l=l, metric=metric)


def knn_sets_multi(D: np.ndarray, ls, metric: str = "euclidean") -> dict:
    """knn_sets for several sizes at once, partitioning each row only once."""
    n = D.shape[0]
    ls = sorted(set(int(l) for l in ls))
    if not (1 <= ls[0] and ls[-1] <= n):
        raise InvalidSize(f"neighborhood sizes {ls} outside [1, {n}]")
    per_l = _knn_rows(D, ls)
    return {
        l: NeighborhoodMap(sets=per_l[l], l=l, metric=metric) for l in ls
    }


def knn_sets_from_data(data: Dataset, l: int) -> NeighborhoodMap:
    """Like knn_sets but streams rows when n is too large for a dense matrix."""
    if data.n <= _DENSE_LIMIT:
        return knn_sets(distance_matrix(data), l)
    n = data.n
    if not 1 <= l <= n:
        raise InvalidSize(f"neighborhood size {l} outside [1, {n}]")
    mask = data.continuous_columns()
    A = data.X[:, mask] if mask.any() else np.zeros((n, 1))
    sq = np.einsum("ij,ij->i", A, A)
    sets = []
    for i in range(n):
        d2 = np.maximum(sq + sq[i] - 2.0 * (A @ A[i]), 0.0)
        d2[i] = 0.0
        sets.append(_smallest_l(np.sqrt(d2), i, l))
    return NeighborhoodMap(sets=sets, l=l, metric="euclidean")


def categorical_sets(data: Dataset, l: int | None = None) -> NeighborhoodMap:
    """Exact-match cells on categorical columns; optionally intersected with
    Euclidean k-NN on the continuous columns inside each cell.

    Cell size caps l (a warning records each cap); singleton cells make the
    local resampling degenerate and are surfaced as warnings too.
    """
    cat = np.array([m == "categorical" for m in data.column_meta])
    if not cat.any():
        raise InvalidSize("categorical_sets requires at least one categorical column")
    cont = data.continuous_columns()
    keys = [tuple(row) for row in data.X_raw[:, cat]]
    cells: dict[tuple, list[int]] = {}
    for i, key in enumerate(keys):
        cells.setdefault(key, []).append(i)
    warnings = []
    for key, members in cells.items():
        if len(members) == 1:
            warnings.append(f"singleton cell {key}: local resampling is degenerate")
    sets: list = [None] * data.n
    for key, members in cells.items():
        members_arr = np.array(members)
        size = members_arr.shape[0]
        if l is None or not cont.any():
            for i in members:
                sets[i] = members_arr.copy()
            continue
        l_eff = min(l, size)
        if l_eff < l:
            warnings.append(f"cell {key} has {size} rows; l capped at {l_eff}")
        A = data.X[np.ix_(members_arr, np.flatnonzero(cont))]
        D = np.sqrt(np.maximum(_pairwise_sq(A), 0.0))
        for i, chosen in zip(members, _knn_rows(D, [l_eff])[l_eff]):
            sets[i] = np.sort(members_arr[chosen])
    return NeighborhoodMap(sets=sets, l=l, metric="categorical_exact", warnings=warnings)


def build_neighborhoods(data: Dataset, l: int) -> NeighborhoodMap:
    """Default neighborhood construction: categorical cells when categorical
    columns exist, otherwise Euclidean k-NN."""
    if any(m == "categorical" for m in data.column_meta):
        return categorical_sets(data, l)
    return knn_sets_from_data(data, l)


# ---------------------------------------------------------------------------
# neighborhood-size selection


@dataclass
class SizeSelectionTrace:
    """Full record of the iterative subsample-matching size search."""

    grid: tuple
    K: int
    m: int
    B_inner: int
    delta: float
    seed: int
    subsample_se: np.ndarray  # K x Q matrix of psi_hat_{kq}
    per_iteration: list  # dicts: l_hat, psi_hat, mse (per grid), chosen_grid, l_next
    final_l: int
    converged: bool
    target_coef: int

    def to_json_dict(self) -> dict:
        return {
            "grid": list(self.grid),
            "K": self.K,
            "m": self.m,
            "B_inner": self.B_inner,
            "delta": self.delta,
            "seed": self.seed,
            "subsample_se": [[float(v) for v in row] for row in self.subsample_se],
            "per_iteration": [
                {
                    "l_hat": it["l_hat"],
                    "psi_hat": float(it["psi_hat"]),
                    "mse": [float(v) for v in it["mse"]],
                    "chosen_grid": it["chosen_grid"],
                    "l_next": it["l_next"],
                }
                for it in self.per_iteration
            ],
            "final_l": self.final_l,
            "converged": self.converged,
            "target_coef": self.target_coef,
        }

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)


def _scaled(l_sub: float, n: int, m: int) -> int:
    return max(2, int(round((n / m) ** (1.0 / 3.0) * l_sub)))


def select_size(
    data: Dataset,
    spec,
    residual_kind: str,
    grid: tuple = (2, 4, 6, 8, 10, 12, 14, 16),
    K: int = 20,
    m: int | None = None,
    B_inner: int = 200,
    delta: float = 0.5,
    seed: int = 0,
    max_iterations: int = 20,
    target_coef: int | None = None,
    n_threads: int = 1,
    options=None,
) -> SizeSelectionTrace:
    """Pick the neighborhood size whose subsample standard-error estimates
    best match the full-data estimate, iterating the n^(1/3) rescaling until
    the selected size stabilizes (change <= delta) or the iteration cap.

    Hitting the cap is not an error: the trace returns flagged unconverged.
    """
    from .bootstrap import BootstrapMethod, run  # local import to avoid a cycle

    n = data.n
    if m is None:
        m = int(np.ceil(0.9 * n))
    if not grid:
        raise InvalidSize("grid of candidate sizes is empty")
    if not (1 < m < n):
        raise InvalidSize("subsample size m must satisfy 1 < m < n")
    if K < 2:
        raise InvalidSize("need at least K=2 subsamples")
    grid = tuple(int(g) for g in grid)
    Q = len(grid)

    fit0 = _fit_for(data, spec, options)
    if target_coef is None:
        target_coef = fit0.first_slope

    D_full = distance_matrix(data)
    subsample_se = np.empty((K, Q))
    for k in range(K):
        rows = substream(seed, k).choice(n, size=m, replace=False)
        rows.sort()
        sub = data.with_rows(rows)
        D_sub = D_full[np.ix_(rows, rows)]
        fit_k = _fit_for(sub, spec, options)
        nb_by_l = knn_sets_multi(D_sub, [min(l_q, m) for l_q in grid])
        for q, l_q in enumerate(grid):
            out = run(
                sub,
                spec,
                BootstrapMethod.lrb(residual_kind, min(l_q, m)),
                B=B_inner,
                seed=derive_seed(seed, k, q),
                fit=fit_k,
                neighborhoods=nb_by_l[min(l_q, m)],
                n_threads=n_threads,
                options=options,
            )
            subsample_se[k, q] = out.se_hat[target_coef]

    full_cache: dict[int, float] = {}

    def full_psi(l_val: int) -> float:
        if l_val not in full_cache:
            nb = knn_sets(D_full, min(l_val, n))
            out = run(
                data,
                spec,
                BootstrapMethod.lrb(residual_kind, min(l_val, n)),
                B=B_inner,
                seed=derive_seed(seed, "full", l_val),
                fit=fit0,
                neighborhoods=nb,
                n_threads=n_threads,
                options=options,
            )
            full_cache[l_val] = float(out.se_hat[target_coef])
        return full_cache[l_val]

    l_hat = int(np.ceil(n ** (1.0 / 3.0)))
    per_iteration = []
    converged = False
    for _ in range(max_iterations):
        psi_hat = full_psi(l_hat)
        mse = np.mean((subsample_se - psi_hat) ** 2, axis=0)
        q_star = int(np.argmin(mse))
        l_next = _scaled(grid[q_star], n, m)
        per_iteration.append(
            {
                "l_hat": l_hat,
                "psi_hat": psi_hat,
                "mse": mse.copy(),
                "chosen_grid": grid[q_star],
                "l_next": l_next,
            }
        )
        if abs(l_next - l_hat) <= delta or Q == 1:
            # a single-candidate grid is decided after one update
            l_hat = l_next
            converged = True
            break
        l_hat = l_next
    return SizeSelectionTrace(
        grid=grid,
        K=K,
        m=m,
        B_inner=B_inner,
        delta=delta,
        seed=seed,
        subsample_se=subsample_se,
        per_iteration=per_iteration,
        final_l=int(l_hat),
        converged=converged,
        target_coef=target_coef,
    )


def _fit_for(data, spec, options):
    from .glm import fit_ordinal, fit_qmle

    if spec.is_ordinal:
        return fit_ordinal(data, spec, options)
    return fit_qmle(data, spec, options)
