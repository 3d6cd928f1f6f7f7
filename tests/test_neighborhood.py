"""Neighbor sets under the one rule (categorical cells, then Euclidean k-NN
with self-first/index tie-breaking), and size selection."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lrboot as lb
from lrboot.bootstrap import BootstrapMethod, run
from lrboot.errors import InvalidSize
from lrboot.neighborhood import _dataset_map, _neighbor_sets, build_neighborhoods, select_size
from lrboot.rng import derive_seed, substream
from lrboot.simlab import default_neighborhood_size, generate


def _raw(X, meta=None):
    X = np.asarray(X, dtype=float)
    X = X[:, None] if X.ndim == 1 else X
    return lb.make_dataset(np.zeros(X.shape[0]), X, column_meta=meta, standardize=False)


def _oracle_sets(X, l, cells=None):
    """Brute-force rule: inside i's cell, the l rows first in (distance,
    self first, index) order."""
    n = X.shape[0]
    idx = np.arange(n)
    cells = np.zeros(n) if cells is None else cells
    out = []
    for i in range(n):
        d = np.sqrt(((X - X[i]) ** 2).sum(axis=1))
        d[cells != cells[i]] = np.inf
        m = min(l, int(np.sum(cells == cells[i])))
        out.append(np.sort(np.lexsort((idx, idx != i, d))[:m]))
    return out


def test_distance_simple():
    ds = _raw([[0.0, 0.0], [3.0, 4.0], [1.0, 1.0]])
    nb = build_neighborhoods(ds, 2)
    # |x1 - x0| = 5 and |x1 - x2| = sqrt(13): row 2 is everyone's nearest
    for s, e in zip(nb.sets, [[0, 2], [1, 2], [0, 2]]):
        assert np.array_equal(s, e)


def test_distance_duplicate_rows():
    ds = _raw([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]])
    pair = build_neighborhoods(ds, 2)
    assert np.array_equal(pair.sets[0], [0, 1])
    assert np.array_equal(pair.sets[1], [0, 1])


def test_distance_matches_double_loop_oracle():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((10, 3))
    brute = np.zeros((10, 10))
    for i in range(10):
        for j in range(10):
            brute[i, j] = np.sqrt(np.sum((X[i] - X[j]) ** 2))
    for l in range(1, 11):
        nb = build_neighborhoods(_raw(X), l)
        for i in range(10):
            assert np.array_equal(nb.sets[i], np.sort(np.argsort(brute[i])[:l]))


def test_distance_translation_invariant():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((15, 2))
    nb1 = build_neighborhoods(_raw(X), 4)
    nb2 = build_neighborhoods(_raw(X + 7.3), 4)
    for a, b in zip(nb1.sets, nb2.sets):
        assert np.array_equal(a, b)


def test_knn_full_size_is_everyone():
    rng = np.random.default_rng(4)
    nb = build_neighborhoods(_raw(rng.standard_normal((12, 2))), 12)
    for s in nb.sets:
        assert np.array_equal(s, np.arange(12))


def test_knn_size_one_is_self():
    nb = build_neighborhoods(_raw([0.0, 0.0, 1.0]), 1)  # duplicates: self still wins
    for i, s in enumerate(nb.sets):
        assert np.array_equal(s, [i])


def test_knn_tie_rule_ascending_index():
    nb = build_neighborhoods(_raw([1.0, 2.0, 3.0, 4.0, 5.0]), 2)
    # row 3 (0-based 2) ties between neighbors 2 and 4; ascending index wins
    assert np.array_equal(nb.sets[2], [1, 2])


def test_knn_exhaustive_tiny_instance():
    nb = build_neighborhoods(_raw([0.0, 1.0, 3.0, 6.0]), 2)
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
    nb = build_neighborhoods(_raw(X), l)
    for i, s in enumerate(nb.sets):
        assert i in s
        assert len(s) == l == len(set(s.tolist()))


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=5, max_value=300),
    st.integers(min_value=1, max_value=3),
    st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=4),
    st.booleans(),
    st.integers(min_value=0, max_value=10_000),
)
@example(n=300, p=2, ls=[1, 10, 37], with_cells=False, seed=1)
@example(n=300, p=1, ls=[1, 10, 37], with_cells=True, seed=2)
def test_knn_matches_tie_rule_oracle(n, p, ls, with_cells, seed):
    # coordinates on a 0.1 grid force distance ties and duplicate rows
    rng = np.random.default_rng(seed)
    X = np.round(rng.uniform(-1.0, 1.0, size=(n, p)), 1)
    cells = rng.integers(0, 3, size=n).astype(float) if with_cells else None
    if with_cells:
        ds = _raw(np.column_stack([cells, X]), ("categorical",) + ("continuous",) * p)
    else:
        ds = _raw(X)
    ls = [min(l, n) for l in ls]
    multi = _neighbor_sets(ds, ls)
    for l in ls:
        single = build_neighborhoods(ds, l)
        for i, expected in enumerate(_oracle_sets(X, l, cells)):
            assert np.array_equal(single.sets[i], expected)
            assert np.array_equal(multi[l].sets[i], expected)


def test_knn_invalid_size():
    ds = _raw([0.0, 1.0, 2.0])
    for bad in (0, 4):
        with pytest.raises(InvalidSize):
            build_neighborhoods(ds, bad)
        with pytest.raises(InvalidSize):
            _neighbor_sets(ds, [2, bad])


def test_build_neighborhoods_scales_to_20000_rows():
    rng = np.random.default_rng(20)
    ds = lb.make_dataset(np.zeros(20_000), rng.standard_normal((20_000, 2)))
    tracemalloc.start()
    try:
        nb = build_neighborhoods(ds, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20  # a dense 20,000 x 20,000 distance matrix is 3.2 GB
    assert nb.index.size == 200_000 and (nb.lengths == 10).all()
    assert np.array_equal(nb.starts, 10 * np.arange(20_000))


def test_whole_cell_sets_are_stored_once_per_cell():
    # SC6 has only categorical columns: every set is its whole cell, and a
    # copy per member row would take 16.5 M entries at n=6000
    ds = generate("SC6", n=6000, seed=0)
    tracemalloc.start()
    try:
        nb = build_neighborhoods(ds, default_neighborhood_size("SC6", 6000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert nb.index.size == 6000


def test_categorical_cells_partition():
    rng = np.random.default_rng(8)
    X = np.column_stack(
        [rng.integers(0, 2, 40), rng.integers(0, 2, 40)]
    ).astype(float)
    ds = lb.make_dataset(np.zeros(40), X, column_meta=("categorical", "categorical"))
    keys = {tuple(X[i]) for i in range(40)}
    assert len(keys) == 4
    for l in (1, 5, 40):  # without a continuous column a cell ignores l
        nb = build_neighborhoods(ds, l)
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
    nb = build_neighborhoods(ds, 5)
    assert len(nb.sets[0]) == 3  # cell of size 3 caps requested l=5
    assert any("capped" in w for w in nb.warnings)


def test_categorical_singleton_cell_warns():
    X = np.array([[0.0], [1.0], [1.0], [1.0]])
    ds = lb.make_dataset(np.zeros(4), X, column_meta=("categorical",))
    nb = build_neighborhoods(ds, 2)
    assert any("singleton" in w for w in nb.warnings)
    assert np.array_equal(nb.sets[0], [0])


def test_neighborhood_warnings_name_cells_as_plain_tuples():
    # cells appear as (1, 0), (0, 0), (1, 1), (0, 1); warnings follow that order
    X_cat = np.array([[1, 0], [0, 0], [1, 0], [1, 1], [0, 1], [1, 0], [0, 0], [0, 0]])
    x = np.linspace(0.0, 1.0, 8)
    ds = lb.make_dataset(
        np.zeros(8),
        np.column_stack([X_cat, x]),
        column_meta=("categorical", "categorical", "continuous"),
    )
    assert build_neighborhoods(ds, 3).warnings == [
        "singleton cell (1.0, 1.0): local resampling is degenerate",
        "singleton cell (0.0, 1.0): local resampling is degenerate",
        "cell (1.0, 1.0) has 1 rows; l capped at 1",
        "cell (0.0, 1.0) has 1 rows; l capped at 1",
    ]
    assert build_neighborhoods(ds, 4).warnings[2:] == [
        "cell (1.0, 0.0) has 3 rows; l capped at 3",
        "cell (0.0, 0.0) has 3 rows; l capped at 3",
        "cell (1.0, 1.0) has 1 rows; l capped at 1",
        "cell (0.0, 1.0) has 1 rows; l capped at 1",
    ]


def test_build_neighborhoods_routes_by_meta():
    rng = np.random.default_rng(9)
    Xc = rng.standard_normal((30, 2))
    nb = build_neighborhoods(_raw(Xc), 5)
    for i, expected in enumerate(_oracle_sets(Xc, 5)):
        assert np.array_equal(nb.sets[i], expected)
    g = rng.integers(0, 2, 30).astype(float)
    nbm = build_neighborhoods(
        _raw(np.column_stack([g, Xc[:, 0]]), ("categorical", "continuous")), 5
    )
    for i, s in enumerate(nbm.sets):
        assert (g[s] == g[i]).all()  # categorical cells never mix
    for i, expected in enumerate(_oracle_sets(Xc[:, :1], 5, g)):
        assert np.array_equal(nbm.sets[i], expected)


def _heavily_tied(n, distinct, with_cells, seed):
    rng = np.random.default_rng(seed)
    x = rng.integers(0, distinct, n).astype(float)
    if not with_cells:
        return x[:, None], None, _raw(x)
    cells = rng.integers(0, 3, n).astype(float)
    ds = _raw(np.column_stack([cells, x]), ("categorical", "continuous"))
    return x[:, None], cells, ds


@pytest.mark.parametrize("with_cells", [False, True])
def test_grouped_tie_repair_matches_oracle_on_heavy_duplicates(with_cells):
    # about 15 distinct values over 2000 rows: every row is tied
    X, cells, ds = _heavily_tied(2000, 15, with_cells, seed=12)
    ls = [1, 10, 150, 700]
    maps = _neighbor_sets(ds, ls)
    for l in ls:
        for i, expected in enumerate(_oracle_sets(X, l, cells)):
            assert np.array_equal(maps[l].sets[i], expected)


def test_grouped_tie_repair_ranks_each_tied_point_once(monkeypatch):
    import lrboot.neighborhood as nbm

    ranked, calls = nbm._ranked, []

    def counting(cand, d):
        calls.append(cand.size)
        return ranked(cand, d)

    monkeypatch.setattr(nbm, "_ranked", counting)
    X, _, ds = _heavily_tied(2000, 15, False, seed=13)
    build_neighborhoods(ds, 10)
    assert 0 < len(calls) <= np.unique(X).size
    calls.clear()
    build_neighborhoods(_raw(np.arange(40.0) % 8), 3)  # 8 distinct points
    assert 0 < len(calls) <= 8


def test_flat_layout_offsets_views_and_matrix():
    rng = np.random.default_rng(14)
    ds = _raw(rng.standard_normal((50, 2)))
    nb = build_neighborhoods(ds, 6)
    assert nb.index.size == 300 and (nb.lengths == 6).all()
    assert np.array_equal(nb.starts, 6 * np.arange(50))  # one k-NN block
    assert len(nb.sets) == nb.n == 50
    for i in range(50):
        assert np.array_equal(nb.sets[i], nb.index[nb.starts[i] : nb.starts[i] + 6])
        assert np.shares_memory(nb.sets[i], nb.index)
    assert np.array_equal(nb.sets[-1], nb.sets[49])
    with pytest.raises(IndexError):
        nb.sets[50]
    for array in (nb.index, nb.starts, nb.lengths):
        with pytest.raises(ValueError):
            array[0] = 1  # maps are shared between runs: read-only


def test_multi_size_lengths_are_capped_per_cell():
    rng = np.random.default_rng(15)
    g = np.repeat([0.0, 1.0, 2.0], [3, 9, 28])
    rng.shuffle(g)
    ds = _raw(np.column_stack([g, rng.standard_normal(40)]), ("categorical", "continuous"))
    sizes = np.bincount(g.astype(int))
    size = sizes[g.astype(int)]
    maps = _neighbor_sets(ds, [2, 5, 12, 30])
    for l, nb in maps.items():
        assert np.array_equal(nb.lengths, np.minimum(l, size))
        # a cell of at most l rows is stored once, and its rows share that start
        assert nb.index.size == np.where(sizes > l, sizes * l, sizes).sum()
        for c in np.flatnonzero(sizes <= l):
            assert np.unique(nb.starts[g == c]).size == 1
        for i, s in enumerate(nb.sets):
            assert np.array_equal(s, nb.index[nb.starts[i] : nb.starts[i] + nb.lengths[i]])


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


def test_select_size_uses_the_neighborhoods_run_builds():
    rng = np.random.default_rng(41)
    n = 120
    x = rng.uniform(0, 1, n)
    g = rng.integers(0, 2, n).astype(float)
    y = 1.0 + x + g + rng.standard_normal(n) * (0.1 + 0.5 * x)
    ds = lb.make_dataset(y, np.column_stack([x, g]), column_meta=("continuous", "categorical"))
    spec = lb.ModelSpec("gaussian", "identity", (lb.Term("raw", 0), lb.Term("raw", 1)))
    seed, grid, m, B_inner = 4, (2, 6), 100, 30
    trace = select_size(ds, spec, "raw", grid=grid, K=2, m=m, B_inner=B_inner, seed=seed)
    for k in range(2):
        rows = substream(seed, k).choice(n, size=m, replace=False)
        rows.sort()
        sub = ds.with_rows(rows)
        fit_k = lb.fit_qmle(sub, spec)
        for q, l_q in enumerate(grid):
            out = run(
                sub, spec, BootstrapMethod("lrb", "raw", l_q), B=B_inner,
                seed=derive_seed(seed, k, q), fit=fit_k,
            )
            assert trace.subsample_se[k, q] == out.se_hat[trace.target_coef]


def test_select_size_needs_a_continuous_column():
    rng = np.random.default_rng(42)
    g = rng.integers(0, 2, (60, 1)).astype(float)
    ds = lb.make_dataset(g[:, 0] + rng.standard_normal(60), g, column_meta=("categorical",))
    spec = lb.ModelSpec("gaussian", "identity", (lb.Term("raw", 0),))
    with pytest.raises(InvalidSize):
        select_size(ds, spec, "raw", grid=(2, 4), K=2, m=50, B_inner=20)


# -- a dataset owns its maps --------------------------------------------------


@pytest.fixture()
def builds(monkeypatch):
    """(n, sizes, maps) of every `_neighbor_sets` query, in call order."""
    from lrboot import neighborhood

    seen = []

    def counted(data, ls):
        out = _neighbor_sets(data, ls)
        seen.append((data.n, sorted(out), list(out.values())))
        return out

    monkeypatch.setattr(neighborhood, "_neighbor_sets", counted)
    return seen


def test_with_response_shares_maps_and_with_rows_and_make_dataset_do_not(builds):
    ds = generate("SC1_probit", n=150, seed=2)
    assert ds.neighbor_maps == {}
    nb = _dataset_map(ds, 5)
    assert _dataset_map(ds, 5) is nb and len(builds) == 1
    assert [np.array_equal(a, b) for a, b in zip(nb.sets, build_neighborhoods(ds, 5).sets)] \
        == [True] * ds.n
    builds.clear()
    redrawn = ds.with_response(1.0 - ds.y)
    assert redrawn.neighbor_maps is ds.neighbor_maps
    assert _dataset_map(redrawn, 5) is nb and builds == []
    # a row subset has other covariates, a new dataset has its own
    subset = ds.with_rows(np.arange(ds.n))
    fresh = lb.make_dataset(ds.y, ds.X_raw)
    for other in (subset, fresh):
        assert other.neighbor_maps == {}
        assert _dataset_map(other, 5) is not nb
    assert len(builds) == 2 and ds.neighbor_maps.keys() == {5}


def test_auto_l_builds_each_full_data_size_once(tmp_path, builds, monkeypatch):
    from lrboot import bootstrap, cli

    drawn = []

    def recorded(data, l):
        drawn.append(_dataset_map(data, l))
        return drawn[-1]

    monkeypatch.setattr(bootstrap, "_dataset_map", recorded)
    ds = generate("SC1_probit", n=300, seed=3)
    path, out = tmp_path / "sc1.csv", tmp_path / "auto.json"
    cli.emit_csv(ds, "y", path)
    assert cli.main(["bootstrap", "--input", str(path), "--response", "y", "--predictors", "x",
                     "--method", "lrb-surrogate", "--l", "auto", "--B", "50", "--seed", "3",
                     "--threads", "1", "--output", str(out)]) == 0
    final_l = json.loads(out.read_text())["size_selection"]["final_l"]
    full = [(ls, maps) for n, ls, maps in builds if n == ds.n]
    sizes = [l for ls, _ in full for l in ls]
    assert sorted(sizes) == sorted(set(sizes)) and final_l in sizes
    # the final run draws from the very map the size search built
    built = {ls[0]: maps[0] for ls, maps in full}
    assert drawn[-1] is built[final_l]


def test_run_experiment_builds_one_map_per_size(builds):
    from lrboot import simlab as sl

    truth = sl.pseudo_truth("GaussianCheck", n=60, reps=100, seed=3)
    methods = [BootstrapMethod("lrb", "raw", 5), BootstrapMethod("local_response", l=5)]
    sl.run_experiment(methods, truth, B=10, replications=2, seed=1)
    assert [(n, ls) for n, ls, _ in builds] == [(60, [5])]


def test_rank_models_builds_one_map(builds):
    from lrboot import selection as sel

    rng = np.random.default_rng(8)
    x = rng.uniform(-1, 1, 80)
    ds = lb.make_dataset(1 + x + x**2 + rng.standard_normal(80), x[:, None])
    models = tuple(
        lb.ModelSpec("gaussian", "identity", terms, label=label)
        for label, terms in (
            ("x", (lb.Term("raw", 0),)),
            ("x,x^2", (lb.Term("raw", 0), lb.Term("power", 0, 2))),
            ("x,x^2,x^3", (lb.Term("raw", 0), lb.Term("power", 0, 2), lb.Term("power", 0, 3))),
        )
    )
    cands = sel.CandidateSet(models, ds, BootstrapMethod("lrb", "raw", 6), B=20)
    sel.rank_models(cands, "Gamma", seed=2)
    assert [(n, ls) for n, ls, _ in builds] == [(80, [6])]
