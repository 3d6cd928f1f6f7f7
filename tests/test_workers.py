"""Refit blocks in forked worker processes: the worker cap, results that
equal a serial run bit for bit (kept responses included), failures raised
in the caller, and no child left running."""

import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.stats import norm

import lrboot as lb
from lrboot import bootstrap, cli, glm
from lrboot import selection as sel
from lrboot.bootstrap import BootstrapMethod, run
from lrboot.errors import InvalidSize, NonConvergence, TooManyFailures

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")


@pytest.fixture()
def two_cores(monkeypatch):
    """A process that may run on two cores, whatever the machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.fixture()
def forks(monkeypatch):
    """The list of pids each `os.fork` in this process returned."""
    real = os.fork
    pids = []

    def counting():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    return pids


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _probit_data(n=400, seed=7):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2, 2, n)
    y = (rng.random(n) < norm.cdf(0.3 + 0.9 * x - 0.2 * x**2)).astype(float)
    spec = lb.ModelSpec("binomial", "probit", (lb.Term("raw", 0),))
    return lb.make_dataset(y, x[:, None]), spec


def _gaussian_data(n=400, seed=5):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, n)
    y = 1 + x + 0.5 * x**2 + rng.standard_normal(n)
    spec = lb.ModelSpec("gaussian", "identity", (lb.Term("raw", 0),))
    return lb.make_dataset(y, x[:, None]), spec


def test_worker_count_is_capped_by_blocks_and_cores(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(3)), raising=False)
    assert glm._worker_count(1, 10) == 1
    assert glm._worker_count(2, 10) == 2
    assert glm._worker_count(64, 10) == 3
    assert glm._worker_count(64, 5) == 2
    assert glm._worker_count(64, 3) == 1
    assert glm._worker_count(64, 1) == 1
    assert glm._worker_count(0, 10) == 1
    monkeypatch.delattr(os, "fork")
    assert glm._worker_count(64, 10) == 1


def test_no_fork_runs_the_blocks_serially(monkeypatch):
    ds, spec = _probit_data()
    m = BootstrapMethod("lrb", "surrogate", 8)
    a = run(ds, spec, m, B=300, seed=17, n_threads=1)
    monkeypatch.delattr(os, "fork")
    b = run(ds, spec, m, B=300, seed=17, n_threads=2)
    assert np.array_equal(a.replicates, b.replicates)


def test_runs_of_fewer_than_four_blocks_do_not_fork(two_cores, forks):
    ds, spec = _probit_data()
    run(ds, spec, BootstrapMethod("parametric"), B=243, seed=1, n_threads=2)
    assert forks == []
    run(ds, spec, BootstrapMethod("parametric"), B=244, seed=1, n_threads=2)
    assert len(forks) == 1


def test_threads_64_forks_one_child_per_extra_core(two_cores, forks, binary_csv_400, tmp_path,
                                                   monkeypatch):
    argv = ["bootstrap", "--input", str(binary_csv_400), "--response", "y",
            "--predictors", "x1", "--method", "lrb-surrogate", "--l", "8", "--B", "400",
            "--seed", "3"]
    assert cli.main(argv + ["--threads", "64", "--output", str(tmp_path / "a.json")]) == 0
    assert len(forks) == 1
    monkeypatch.setenv("LRB_THREADS", "64")
    assert cli.main(argv + ["--output", str(tmp_path / "b.json")]) == 0
    assert len(forks) == 2
    assert cli.main(argv + ["--threads", "1", "--output", str(tmp_path / "c.json")]) == 0
    assert len(forks) == 2
    out = [(tmp_path / f"{tag}.json").read_bytes() for tag in "abc"]
    assert out[0] == out[1] == out[2]
    _no_child_left()


@pytest.fixture()
def binary_csv_400(tmp_path):
    ds, _ = _probit_data()
    path = tmp_path / "data.csv"
    cli.emit_csv(ds, "y", path)
    return path


@pytest.mark.parametrize(
    "method",
    [
        BootstrapMethod("lrb", "surrogate", 8),
        BootstrapMethod("local_response", l=8),
        BootstrapMethod("classical_residual", "pearson"),
        BootstrapMethod("parametric"),
        BootstrapMethod("pairwise"),
        BootstrapMethod("wild"),
        BootstrapMethod("multiplier"),
    ],
    ids=lambda m: m.label,
)
def test_forked_blocks_equal_serial_ones_for_every_method(method, two_cores, forks):
    # 81 rows a block at n=400: B=300 makes four blocks, the last one short
    ds, spec = _probit_data()
    assert glm.block_rows(ds.n) == 81
    a = run(ds, spec, method, B=300, seed=17, n_threads=1)
    b = run(ds, spec, method, B=300, seed=17, n_threads=2)
    assert len(forks) == 1
    assert a.n_failed == b.n_failed
    assert np.array_equal(a.replicates, b.replicates)
    _no_child_left()


def test_kept_responses_come_back_from_the_children(two_cores, forks):
    ds, spec = _gaussian_data()
    fit = lb.fit_qmle(ds, spec)
    m = BootstrapMethod("lrb", "raw", 10)
    a = run(ds, spec, m, B=330, seed=4, fit=fit, keep_responses=True, n_threads=1)
    b = run(ds, spec, m, B=330, seed=4, fit=fit, keep_responses=True, n_threads=2)
    assert len(forks) == 1
    assert a.responses.shape == (330, ds.n)
    assert np.array_equal(a.replicates, b.replicates)
    assert np.array_equal(a.responses, b.responses)
    one = sel.prediction_error(ds, spec, m, B=330, seed=4, n_threads=1)
    two = sel.prediction_error(ds, spec, m, B=330, seed=4, n_threads=2)
    assert len(forks) == 2
    assert one == two
    _no_child_left()


def _observed(ds, first, stop):
    """A block of copies of the observed responses, rows first..stop-1."""
    return np.tile(ds.y, (stop - first, 1)), None


def _raising_draw(ds, bad_row):
    def draw(first, stop):
        if first <= bad_row < stop:
            raise InvalidSize(f"row {bad_row} cannot be drawn")
        return _observed(ds, first, stop)

    return draw


@pytest.mark.parametrize("bad_row", [5, 100], ids=["parent-share", "child-share"])
def test_a_failing_draw_raises_in_the_caller(bad_row, two_cores, forks):
    # rows 0-80 are the caller's block 0, rows 81-161 the child's block 1
    ds, spec = _probit_data()
    fit = lb.fit_qmle(ds, spec)
    with pytest.raises(InvalidSize, match=f"row {bad_row} "):
        glm.refit_blocks(fit.design, fit.family, _raising_draw(ds, bad_row), 300,
                         beta0=fit.coef, n_threads=2)
    assert len(forks) == 1
    _no_child_left()


def test_a_child_that_dies_raises_in_the_caller(two_cores, forks):
    ds, spec = _probit_data()
    fit = lb.fit_qmle(ds, spec)
    parent = os.getpid()

    def draw(first, stop):
        if first <= 100 < stop and os.getpid() != parent:
            os._exit(3)
        return _observed(ds, first, stop)

    with pytest.raises(RuntimeError, match="no result"):
        glm.refit_blocks(fit.design, fit.family, draw, 300, beta0=fit.coef, n_threads=2)
    _no_child_left()


def test_blocks_come_in_row_order(two_cores, monkeypatch):
    # a spy marks each row with its block's row count, in whichever process
    # fits the block
    ds, spec = _probit_data()
    fit = lb.fit_qmle(ds, spec)
    real = glm.fit_design_batch

    def fit_block(design, Y, *args):
        out = real(design, Y, *args)
        out.iterations[:] = len(Y)
        return out

    monkeypatch.setattr(glm, "fit_design_batch", fit_block)
    out = glm.refit_blocks(fit.design, fit.family, lambda a, b: _observed(ds, a, b), 300,
                           beta0=fit.coef, n_threads=2, keep_responses=True)
    assert out.iterations.tolist() == [81] * 243 + [57] * 57
    assert np.array_equal(out.responses, np.broadcast_to(ds.y, (300, ds.n)))
    _no_child_left()


def test_a_run_past_its_failure_cap_stops_at_the_crossing_block(two_cores, forks, monkeypatch):
    # 30 failed rows in each block of 81: the 20% cap of 300 replicates (60)
    # is first passed at the third block (90 failures), whichever process
    # fits it; on one worker the fourth block is never drawn
    ds, spec = _probit_data()
    fit = lb.fit_qmle(ds, spec)
    real_fit, real_sampler = glm.fit_design_batch, bootstrap._sampler
    drawn = []  # the first row of each block the calling process draws

    def fit_block(*args):
        out = real_fit(*args)
        out.errors[:30] = [NonConvergence("injected")] * 30
        return out

    def sampler(*args):
        draw = real_sampler(*args)
        return lambda first, stop: drawn.append(first) or draw(first, stop)

    monkeypatch.setattr(glm, "fit_design_batch", fit_block)
    monkeypatch.setattr(bootstrap, "_sampler", sampler)
    texts = []
    for k in (1, 2):
        drawn.clear()
        with pytest.raises(TooManyFailures) as info:
            run(ds, spec, BootstrapMethod("parametric"), B=300, seed=5, fit=fit, n_threads=k)
        texts.append(str(info.value))
        if k == 1:
            assert drawn == [0, 81, 162]
    assert len(forks) == 1
    assert texts == ["90 of the first 243 replicate fits failed, over 20% of B=300 "
                     "(method=parametric, family=binomial)"] * 2
    _no_child_left()


def test_pseudo_truth_blocks_equal_serial_ones(two_cores, forks):
    # 81 rows a block at n=400: 400 redraws make five blocks. A truth that
    # cannot be fit (every SC1 probit response is 1 at beta2 = +2) raises
    # at the same block, though the child fits its whole share first
    from lrboot import simlab as sl
    from lrboot.errors import TooManyFailures

    truths = [sl.pseudo_truth("SC1_probit", n=400, reps=400, seed=8, n_threads=k)
              for k in (1, 2)]
    assert len(forks) == 1
    assert truths[0].n_failed == truths[1].n_failed
    assert truths[0].beta_dagger.tobytes() == truths[1].beta_dagger.tobytes()
    assert truths[0].psi.tobytes() == truths[1].psi.tobytes()
    _no_child_left()
    for k in (1, 2):
        with pytest.raises(TooManyFailures, match="^81 pseudo-truth fits failed out of 81$"):
            sl.pseudo_truth("SC1_probit", n=400, reps=400, seed=8, params={"beta2": 2.0},
                            n_threads=k)
    assert len(forks) == 2
    _no_child_left()


def test_simulate_threads_reach_the_pseudo_truth(two_cores, forks, tmp_path):
    # each experiment run is one block of 10 replicates, run serially, so
    # the one fork is the truth's
    argv = ["simulate", "--scenario", "SC1_probit", "--n", "400", "--truth-reps", "400",
            "--methods", "parametric", "--B", "10", "--reps", "2", "--seed", "2"]
    for k in (1, 2):
        assert cli.main(argv + ["--threads", str(k), "--output", str(tmp_path / f"{k}.csv")]) == 0
    assert len(forks) == 1
    assert (tmp_path / "1.csv").read_bytes() == (tmp_path / "2.csv").read_bytes()
    _no_child_left()


def test_cli_at_two_threads_prints_its_stdout_once(binary_csv_400):
    # a line printed before the fork sits in the stdout buffer of a piped,
    # buffered process; a child must not write it out again
    probe = (
        "import sys; from lrboot import cli; print('before'); "
        f"sys.exit(cli.main(['bootstrap', '--input', {str(binary_csv_400)!r}, "
        "'--response', 'y', '--predictors', 'x1', '--method', 'lrb-surrogate', "
        "'--l', '8', '--B', '400', '--seed', '3', '--threads', '2']))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"},
             "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.stdout.count("before") == 1
    assert out.stdout.count('"se_hat"') == 1
    assert out.stderr == ""
