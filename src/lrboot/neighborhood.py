"""Covariate neighborhoods and iterative neighborhood-size selection.

One rule defines every neighborhood, whoever asks for it (`run`,
`select_size`, `simulate`):

1. Rows are grouped into exact cells on the categorical columns; without a
   categorical column all rows form one cell.
2. Inside a cell, N_i holds the l rows nearest to i in Euclidean distance
   over the continuous columns. A cell smaller than l caps l at its size
   (a warning records each cap). A cell on data without a continuous column
   is the whole cell, whatever l.
3. Ties are broken deterministically: the observation itself ranks first
   among equal distances (so i is always in N_i), then ascending index.

The nearest rows come from one k-d tree query per cell (Friedman, Bentley &
Finkel 1977), so memory is O(n·l). Only rows whose l-th and (l+1)-th tree
distances tie are re-ranked, by brute-force distances to the rows inside
that distance. Tied rows at one point share that ball and its distances, so
each distinct tied point is ranked once and the self-first rule is applied
to its duplicates together.

A `NeighborhoodMap` keeps all sets in one flat index array, cell by cell:
row i's sorted set is `index[starts[i] : starts[i] + lengths[i]]`. A k-NN
cell writes its s x l block; any other cell is every member's set, so it
writes its rows once and they all start there. Memory is O(n·l) either way.
The map also owns the draw (`picker`), so no caller reads its layout.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .errors import InvalidSize
from .glm import fit_qmle
from .rng import derive_seed, substream

__all__ = [
    "NeighborhoodMap",
    "SizeSelectionTrace",
    "build_neighborhoods",
    "default_size",
    "select_size",
]

# The tree sums squared differences in another order than the brute-force row
# (for p >= 4), so distances can differ by a few ulps: boundary gaps this
# small are sent to the repair too, which keeps the sets equal to the rule.
_TIE_RTOL = 1e-10


class _RowSlices(Sequence):
    """Read-only sequence of a map's sets: item i is row i's slice."""

    def __init__(self, index: np.ndarray, starts: np.ndarray, lengths: np.ndarray):
        self._index = index
        self._starts = starts
        self._lengths = lengths

    def __len__(self) -> int:
        return self._starts.size

    def __getitem__(self, i) -> np.ndarray:
        n = len(self)
        i = operator.index(i)
        if not -n <= i < n:
            raise IndexError(f"row {i} outside a map of {n} rows")
        a = self._starts[i]
        return self._index[a : a + self._lengths[i]]


@dataclass(eq=False)
class NeighborhoodMap:
    """Every observation's neighbor indices, sorted ascending, in one flat
    array: row i's set is index[starts[i] : starts[i] + lengths[i]]. The rows
    of a whole-cell neighborhood share one copy of it."""

    index: np.ndarray  # intp, each cell's sets back to back
    starts: np.ndarray  # intp, n
    lengths: np.ndarray  # intp, n
    l: int | None
    warnings: list = field(default_factory=list)

    def __post_init__(self):
        # maps are shared between runs; nothing may edit them in place
        for a in (self.index, self.starts, self.lengths):
            a.flags.writeable = False

    @property
    def n(self) -> int:
        return self.starts.size

    @property
    def sets(self) -> Sequence:
        """Row i's set as sets[i], a view into `index`."""
        return _RowSlices(self.index, self.starts, self.lengths)

    def picker(self):
        """rngs -> a len(rngs) x n array of neighbor indices: row r holds one
        uniformly drawn neighbor per observation from rngs[r] alone,
        consuming that stream in observation order."""
        n, index, starts, lengths = self.n, self.index, self.starts, self.lengths
        k = int(lengths[0])
        if (lengths == k).all():
            return lambda rngs: index[starts + np.array([rng.integers(0, k, size=n)
                                                         for rng in rngs])]
        return lambda rngs: index[
            starts + np.floor(np.array([rng.random(n) for rng in rngs]) * lengths).astype(int)
        ]


def _ranked(cand: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The candidates in (distance, index) order."""
    return cand[np.lexsort((cand, d))]


def _cell_sets(A: np.ndarray, ls: list) -> dict:
    """{l: s x l sorted within-cell indices} for the s rows of A, each l < s."""
    from scipy.spatial import cKDTree  # kept out of a cold `import lrboot.cli`

    s = A.shape[0]
    k = ls[-1] + 1
    tree = cKDTree(A)
    d, nn = tree.query(A, k=k)
    d, nn = d.reshape(s, k), nn.reshape(s, k)
    out = {}
    for l in ls:
        chosen = nn[:, :l].copy()
        radius = d[:, l - 1] * (1.0 + _TIE_RTOL)
        tied = np.flatnonzero(d[:, l] <= radius)
        if tied.size:
            # the rule picks only rows inside the ball of the l-th tree distance;
            # rows at one point share that ball and its distances
            _, first, point = np.unique(
                A[tied], axis=0, return_index=True, return_inverse=True
            )
            by_point = np.argsort(point, kind="stable")
            bounds = np.cumsum(np.bincount(point))
            centers = tied[first]
            balls = tree.query_ball_point(A[centers], radius[centers])
            for c, ball, dups in zip(centers, balls, np.split(tied[by_point], bounds[:-1])):
                cand = np.array(ball)
                order = _ranked(cand, np.sqrt(((A[cand] - A[c]) ** 2).sum(axis=1)))
                # self first: a duplicate among the first l keeps them,
                # any other takes itself and the first l - 1
                inside = np.isin(dups, order[:l])
                chosen[dups[inside]] = order[:l]
                chosen[dups[~inside], 0] = dups[~inside]
                chosen[dups[~inside], 1:] = order[: l - 1]
        chosen.sort(axis=1)
        out[l] = chosen
    return out


def _neighbor_sets(data: Dataset, ls) -> dict:
    """{l: NeighborhoodMap} for each size in ls, all from one query per cell."""
    n = data.n
    ls = sorted({int(l) for l in ls})
    if not (1 <= ls[0] and ls[-1] <= n):
        raise InvalidSize(f"neighborhood sizes {ls} outside [1, {n}]")
    cat = np.array([m == "categorical" for m in data.column_meta])
    cont = np.flatnonzero(data.continuous_columns())
    keys, first, cell = np.unique(
        data.X_raw[:, cat], axis=0, return_index=True, return_inverse=True
    )
    # cells in order of their first row, each row list ascending
    appearance = np.argsort(first)
    keys = [tuple(key) for key in keys[appearance].tolist()]
    cell = np.argsort(appearance)[cell]
    sizes = np.bincount(cell)
    cells = np.split(np.argsort(cell, kind="stable"), np.cumsum(sizes)[:-1])
    singletons = [
        f"singleton cell {key}: local resampling is degenerate"
        for key, size in zip(keys, sizes)
        if cat.any() and size == 1
    ]
    warnings = {l: list(singletons) for l in ls}
    # a cell stores s x l k-NN entries when it has a continuous column and
    # more than l rows, else its s rows once
    knn = {l: (sizes > l) & (cont.size > 0) for l in ls}
    bases, index, starts = {}, {}, {}
    for l in ls:
        stored = np.where(knn[l], sizes * l, sizes)
        bases[l] = np.cumsum(stored) - stored
        index[l] = np.empty(stored.sum(), dtype=np.intp)
        starts[l] = np.empty(n, dtype=np.intp)
    for c, (key, rows) in enumerate(zip(keys, cells)):
        size = rows.size
        inner = [l for l in ls if knn[l][c]]
        per_l = _cell_sets(data.X[np.ix_(rows, cont)], inner) if inner else {}
        for l in ls:
            if cont.size and l > size:
                warnings[l].append(f"cell {key} has {size} rows; l capped at {size}")
            a = bases[l][c]
            if l in per_l:
                np.take(rows, per_l[l], out=index[l][a : a + size * l].reshape(size, l))
                starts[l][rows] = a + l * np.arange(size)
            else:
                index[l][a : a + size] = rows
                starts[l][rows] = a
    return {
        l: NeighborhoodMap(
            index=index[l],
            starts=starts[l],
            lengths=np.where(knn[l], l, sizes)[cell],
            l=l,
            warnings=warnings[l],
        )
        for l in ls
    }


def build_neighborhoods(data: Dataset, l: int) -> NeighborhoodMap:
    """The l-nearest-neighbor sets of every observation under the module's
    one rule: exact categorical cells, then Euclidean k-NN on the continuous
    columns inside each cell."""
    return _neighbor_sets(data, [l])[l]


# ---------------------------------------------------------------------------
# neighborhood-size selection


@dataclass
class SizeSelectionTrace:
    """Full record of the iterative subsample-matching size search, a plain
    record whose fields the CLI writes as JSON."""

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


def default_size(n: int) -> int:
    """The default neighborhood size ceil(n^(1/3)), at least 2."""
    return max(2, int(np.ceil(n ** (1.0 / 3.0))))


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
) -> SizeSelectionTrace:
    """Pick the neighborhood size whose subsample standard-error estimates
    best match the full-data estimate, iterating the n^(1/3) rescaling until
    the selected size stabilizes (change <= delta) or the iteration cap.

    Subsample and full-data runs use the neighborhoods `run` builds itself
    (`build_neighborhoods`). Data without a continuous column is rejected:
    its neighborhoods are whole categorical cells for every l. Hitting the
    cap is not an error: the trace returns flagged unconverged.
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
    if not data.continuous_columns().any():
        raise InvalidSize(
            "size selection needs a continuous column: without one every "
            "neighborhood is a whole categorical cell, whatever l"
        )
    grid = tuple(int(g) for g in grid)
    Q = len(grid)

    fit0 = fit_qmle(data, spec)
    if target_coef is None:
        target_coef = fit0.first_slope

    subsample_se = np.empty((K, Q))
    for k in range(K):
        rows = substream(seed, k).choice(n, size=m, replace=False)
        rows.sort()
        sub = data.with_rows(rows)
        fit_k = fit_qmle(sub, spec)
        nb_by_l = _neighbor_sets(sub, [min(l_q, m) for l_q in grid])
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
            )
            subsample_se[k, q] = out.se_hat[target_coef]

    full_cache: dict[int, float] = {}

    def full_psi(l_val: int) -> float:
        if l_val not in full_cache:
            out = run(
                data,
                spec,
                BootstrapMethod.lrb(residual_kind, min(l_val, n)),
                B=B_inner,
                seed=derive_seed(seed, "full", l_val),
                fit=fit0,
                n_threads=n_threads,
            )
            full_cache[l_val] = float(out.se_hat[target_coef])
        return full_cache[l_val]

    l_hat = default_size(n)
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

