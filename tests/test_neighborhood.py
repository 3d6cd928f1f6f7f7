"""Distance structures, k-NN sets, categorical cells, size selection."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lrboot as lb
from lrboot.errors import InvalidSize
from lrboot.neighborhood import (
    build_neighborhoods,
    categorical_sets,
    distance_matrix,
    knn_sets,
    knn_sets_multi,
    linear_predictor_distances,
    select_size,
)


def _data(X, meta=None, y=None):
    n = X.shape[0]
    return lb.make_dataset(
        y if y is not None else np.zeros(n), X, column_meta=meta
    )


def test_distance_simple():
    X = np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 1.0]])
    ds = _data(X)
    ds = lb.make_dataset(np.zeros(3), X, standardize=False)
    D = distance_matrix(ds)
    assert np.isclose(D[0, 1], 5.0)
    assert np.allclose(D, D.T)
    assert np.all(np.diag(D) == 0)


def test_distance_duplicate_rows():
    X = np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]])
    D = distance_matrix(lb.make_dataset(np.zeros(3), X, standardize=False))
    assert D[0, 1] == 0.0


def test_distance_matches_double_loop_oracle():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((10, 3))
    ds = lb.make_dataset(np.zeros(10), X, standardize=False)
    D = distance_matrix(ds)
    brute = np.zeros((10, 10))
    for i in range(10):
        for j in range(10):
            brute[i, j] = np.sqrt(np.sum((X[i] - X[j]) ** 2))
    assert np.abs(D - brute).max() < 1e-12


def test_distance_translation_invariant():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((15, 2))
    d1 = distance_matrix(lb.make_dataset(np.zeros(15), X, standardize=False))
    d2 = distance_matrix(lb.make_dataset(np.zeros(15), X + 7.3, standardize=False))
    assert np.allclose(d1, d2, atol=1e-12)
    nb1 = knn_sets(d1, 4)
    nb2 = knn_sets(d2, 4)
    for a, b in zip(nb1.sets, nb2.sets):
        assert np.array_equal(a, b)


def test_knn_full_size_is_everyone():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((12, 2))
    D = distance_matrix(lb.make_dataset(np.zeros(12), X, standardize=False))
    nb = knn_sets(D, 12)
    for s in nb.sets:
        assert np.array_equal(s, np.arange(12))


def test_knn_size_one_is_self():
    X = np.array([[0.0], [0.0], [1.0]])  # duplicate rows: self must still win
    D = distance_matrix(lb.make_dataset(np.zeros(3), X, standardize=False))
    nb = knn_sets(D, 1)
    for i, s in enumerate(nb.sets):
        assert np.array_equal(s, [i])


def test_knn_tie_rule_ascending_index():
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    D = distance_matrix(lb.make_dataset(np.zeros(5), x[:, None], standardize=False))
    nb = knn_sets(D, 2)
    # row 3 (0-based 2) ties between neighbors 2 and 4; ascending index wins
    assert np.array_equal(nb.sets[2], [1, 2])


def test_knn_exhaustive_tiny_instance():
    x = np.array([0.0, 1.0, 3.0, 6.0])
    D = distance_matrix(lb.make_dataset(np.zeros(4), x[:, None], standardize=False))
    nb = knn_sets(D, 2)
    expected = [[0, 1], [0, 1], [1, 2], [2, 3]]
    for s, e in zip(nb.sets, expected):
        assert np.array_equal(s, e)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=3, max_value=12),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=10_000),
)
def test_knn_always_contains_self(n, l, seed):
    l = min(l, n)
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 3, size=(n, 2)).astype(float)  # many exact ties
    D = distance_matrix(lb.make_dataset(np.zeros(n), X, standardize=False))
    nb = knn_sets(D, l)
    for i, s in enumerate(nb.sets):
        assert i in s
        assert len(s) == l == len(set(s.tolist()))


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=3, max_value=300),
    st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=4),
    st.integers(min_value=0, max_value=10_000),
)
@example(n=300, ls=[1, 10, 37], seed=1)  # spans two row chunks
def test_knn_matches_tie_rule_oracle(n, ls, seed):
    # coordinates on a 0.1 grid force distance ties and duplicate rows
    rng = np.random.default_rng(seed)
    X = np.round(rng.uniform(-1.0, 1.0, size=(n, 2)), 1)
    D = distance_matrix(lb.make_dataset(np.zeros(n), X, standardize=False))
    ls = [min(l, n) for l in ls]
    multi = knn_sets_multi(D, ls)
    idx = np.arange(n)
    for l in ls:
        single = knn_sets(D, l)
        for i in range(n):
            # (distance, self first, index) order
            expected = np.sort(np.lexsort((idx, idx != i, D[i]))[:l])
            assert np.array_equal(single.sets[i], expected)
            assert np.array_equal(multi[l].sets[i], expected)


def test_streaming_knn_matches_dense(monkeypatch):
    import lrboot.neighborhood as nb_mod

    rng = np.random.default_rng(12)
    X = rng.standard_normal((60, 2))
    ds = lb.make_dataset(np.zeros(60), X)
    dense = nb_mod.knn_sets(distance_matrix(ds), 7)
    monkeypatch.setattr(nb_mod, "_DENSE_LIMIT", 10)  # force the streaming path
    streamed = nb_mod.knn_sets_from_data(ds, 7)
    for a, b in zip(dense.sets, streamed.sets):
        assert np.array_equal(a, b)


def test_knn_invalid_size():
    D = np.zeros((3, 3))
    with pytest.raises(InvalidSize):
        knn_sets(D, 0)
    with pytest.raises(InvalidSize):
        knn_sets(D, 4)
    with pytest.raises(InvalidSize):
        knn_sets_multi(D, [0])
    with pytest.raises(InvalidSize):
        knn_sets_multi(D, [4])


def test_linear_predictor_metric():
    eta = np.array([0.0, 1.0, -2.0])
    D = linear_predictor_distances(eta)
    assert D[1, 2] == 3.0 and D[0, 1] == 1.0


def test_categorical_cells_partition():
    rng = np.random.default_rng(8)
    X = np.column_stack(
        [rng.integers(0, 2, 40), rng.integers(0, 2, 40)]
    ).astype(float)
    ds = lb.make_dataset(np.zeros(40), X, column_meta=("categorical", "categorical"))
    nb = categorical_sets(ds)
    keys = {tuple(X[i]) for i in range(40)}
    assert len(keys) == 4
    for i, s in enumerate(nb.sets):
        members = {j for j in range(40) if tuple(X[j]) == tuple(X[i])}
        assert set(s.tolist()) == members


def test_categorical_cell_caps_l_with_warning():
    X_cat = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    X_cont = np.linspace(0, 1, 8)
    ds = lb.make_dataset(
        np.zeros(8),
        np.column_stack([X_cat, X_cont]),
        column_meta=("categorical", "continuous"),
    )
    nb = categorical_sets(ds, l=5)
    assert len(nb.sets[0]) == 3  # cell of size 3 caps requested l=5
    assert any("capped" in w for w in nb.warnings)


def test_categorical_singleton_cell_warns():
    X = np.array([[0.0], [1.0], [1.0], [1.0]])
    ds = lb.make_dataset(np.zeros(4), X, column_meta=("categorical",))
    nb = categorical_sets(ds)
    assert any("singleton" in w for w in nb.warnings)
    assert np.array_equal(nb.sets[0], [0])


def test_build_neighborhoods_routes_by_meta():
    rng = np.random.default_rng(9)
    Xc = rng.standard_normal((30, 2))
    ds = lb.make_dataset(np.zeros(30), Xc)
    assert build_neighborhoods(ds, 5).metric == "euclidean"
    Xm = np.column_stack([rng.integers(0, 2, 30).astype(float), Xc[:, 0]])
    dsm = lb.make_dataset(
        np.zeros(30), Xm, column_meta=("categorical", "continuous")
    )
    assert build_neighborhoods(dsm, 5).metric == "categorical_exact"


def _gaussian_instance(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, n)
    y = 1.0 + x + rng.standard_normal(n) * (0.1 + 0.5 * x)
    ds = lb.make_dataset(y, x[:, None])
    spec = lb.ModelSpec("gaussian", "identity", (lb.Term("raw", 0),))
    return ds, spec


def test_select_size_single_candidate_grid():
    ds, spec = _gaussian_instance(120, 31)
    trace = select_size(
        ds, spec, "raw", grid=(4,), K=3, m=100, B_inner=60, seed=5
    )
    assert trace.final_l == max(2, round((120 / 100) ** (1 / 3) * 4))
    assert len(trace.per_iteration) == 1
    assert trace.converged


def test_select_size_trace_is_deterministic_and_recomputable():
    ds, spec = _gaussian_instance(150, 77)
    kwargs = dict(grid=(2, 4, 8), K=4, m=130, B_inner=50, seed=11)
    t1 = select_size(ds, spec, "raw", **kwargs)
    t2 = select_size(ds, spec, "raw", **kwargs)
    assert np.array_equal(t1.subsample_se, t2.subsample_se)
    assert t1.final_l == t2.final_l
    # chosen grid index minimizes the stated MSE expression exactly
    for it in t1.per_iteration:
        mse = np.mean((t1.subsample_se - it["psi_hat"]) ** 2, axis=0)
        assert np.allclose(mse, it["mse"])
        assert t1.grid[int(np.argmin(mse))] == it["chosen_grid"]


def test_select_size_scaled_membership():
    ds, spec = _gaussian_instance(150, 78)
    trace = select_size(ds, spec, "raw", grid=(2, 4, 8), K=3, m=130, B_inner=40, seed=3)
    scale = (150 / 130) ** (1 / 3)
    allowed = {max(2, round(scale * g)) for g in trace.grid}
    assert trace.final_l in allowed
