"""The tracer's self-time arithmetic, its layer metrics and its patching."""

import sys
import types

import pytest

import tracer as tracing
from tracer import Span, Tracer, layer_metrics, self_times


def span(sid, parent, t0, t1, thread=1, cpu=None, layer="glm", name=None, **kw):
    cpu = t1 - t0 if cpu is None else cpu
    return Span(sid=sid, call=0, name=name or f"{layer}.f{sid}", layer=layer,
                parent=parent, thread=thread, t0=t0, c0=0.0, t1=t1, c1=cpu, **kw)


def test_self_time_is_wall_minus_children_on_one_thread():
    spans = [
        span(0, None, 0.0, 10.0),
        span(1, 0, 1.0, 4.0),
        span(2, 1, 2.0, 3.0),
        span(3, 0, 5.0, 6.0),
    ]
    walls = {sid: w for sid, (w, _) in self_times(spans).items()}
    assert walls == pytest.approx({0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0})
    assert sum(walls.values()) == pytest.approx(10.0)


def test_concurrent_children_split_the_time_they_share():
    # two worker-thread children of one span overlap on [3, 5]
    spans = [
        span(0, None, 0.0, 10.0, thread=1, cpu=1.0),
        span(1, 0, 1.0, 5.0, thread=2, cpu=4.0),
        span(2, 0, 3.0, 7.0, thread=3, cpu=2.0),
    ]
    times = self_times(spans)
    assert times[1][0] == pytest.approx(3.0)
    assert times[2][0] == pytest.approx(3.0)
    assert times[0][0] == pytest.approx(4.0)
    assert sum(w for w, _ in times.values()) == pytest.approx(10.0)
    # CPU scales with the share of raw self wall each span was given
    assert times[1][1] == pytest.approx(3.0)
    assert times[2][1] == pytest.approx(1.5)
    # the parent's own thread had no same-thread children: 1 s CPU of 10 s,
    # 4 s of wall attributed
    assert times[0][1] == pytest.approx(0.4)


def test_layer_metrics_add_up_to_the_traced_wall():
    spans = [
        span(0, None, 0.0, 10.0, layer="cli", name="cli.main"),
        span(1, 0, 0.5, 9.5, layer="bootstrap", name="bootstrap.run", B=4, n_failed=1),
        span(2, 1, 1.0, 2.0, layer="neighborhood", name="neighborhood.build_neighborhoods",
             maps=[(77, 2000, 1)]),
        span(3, 2, 1.1, 1.9, layer="neighborhood", name="neighborhood.knn_sets",
             maps=[(77, 2000, 1)]),
        span(4, 1, 3.0, 4.0, name="glm.fit_qmle", iterations=5),
        span(5, 4, 3.2, 3.8, name="glm.fit_design", iterations=5),
        span(6, 1, 5.0, 6.0, name="glm.fit_design", error="NonConvergence"),
        span(7, 1, 6.0, 6.5, name="glm.get_family"),
    ]
    m = layer_metrics(spans, n_calls=1, traced_wall_s=10.25)
    total = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert total + m["trace.unattributed_s"] == pytest.approx(10.25)
    assert m["trace.unattributed_s"] == pytest.approx(0.25)
    assert m["glm.fits"] == 2  # fit_design inside fit_qmle is not outermost
    assert m["glm.calls"] == 4
    assert m["glm.newton_iters_mean"] == pytest.approx(5.0)
    assert m["glm.fail_share"] == pytest.approx(0.5)
    assert m["glm.fail_share.NonConvergence"] == pytest.approx(0.5)
    assert m["glm.fail_share.RankDeficient"] == 0.0
    assert m["neighborhood.rows_built"] == 2000  # one map handed up once
    assert m["neighborhood.warnings"] == 1
    assert m["bootstrap.replicates"] == 4
    assert m["bootstrap.fail_share"] == pytest.approx(0.25)
    assert m["neighborhood.us_per_row"] == pytest.approx(1e6 * 1.0 / 2000)
    assert {name for name, _, _ in tracing.METRICS} == set(m) | {"trace.overhead_share"}


def test_means_are_per_traced_call():
    spans = [span(0, None, 0.0, 1.0, name="glm.fit_design"),
             span(1, None, 2.0, 3.0, name="glm.fit_design")]
    m = layer_metrics(spans, n_calls=2, traced_wall_s=2.0)
    assert m["glm.calls"] == 1.0 and m["glm.self_s"] == pytest.approx(1.0)
    assert m["glm.ms_per_fit"] == pytest.approx(1000.0)


@pytest.fixture
def fakepkg():
    """A package with a glm layer only; its second module re-binds a function
    the way `from .glm import fit` does."""
    pkg = types.ModuleType("fakepkg")
    glm = types.ModuleType("fakepkg.glm")
    exec("def fit(x):\n    return x + 1\n\ndef _private(x):\n    return x\n",
         glm.__dict__)
    cli = types.ModuleType("fakepkg.cli")
    cli.fit = glm.fit
    exec("def main(x):\n    return fit(x) * 2\n", cli.__dict__)
    mods = {"fakepkg": pkg, "fakepkg.glm": glm, "fakepkg.cli": cli}
    sys.modules.update(mods)
    yield mods
    for name in mods:
        del sys.modules[name]


def test_tracer_sees_rebound_names_and_restores_every_binding(fakepkg):
    before = {name: dict(vars(m)) for name, m in fakepkg.items()}
    tr = Tracer("fakepkg")
    with tr:
        assert fakepkg["fakepkg.cli"].fit is not before["fakepkg.cli"]["fit"]
        assert fakepkg["fakepkg.glm"]._private is before["fakepkg.glm"]["_private"]
        assert fakepkg["fakepkg.cli"].main(1) == 4
    assert [s.name for s in sorted(tr.spans, key=lambda s: s.t0)] == ["cli.main", "glm.fit"]
    inner = next(s for s in tr.spans if s.name == "glm.fit")
    outer = next(s for s in tr.spans if s.name == "cli.main")
    assert inner.parent == outer.sid
    for name, module in fakepkg.items():
        for attr, value in before[name].items():
            assert vars(module)[attr] is value, f"{name}.{attr} not restored"


def test_a_function_that_is_gone_is_skipped(fakepkg):
    del fakepkg["fakepkg.glm"].fit
    del fakepkg["fakepkg.cli"].fit
    tr = Tracer("fakepkg")
    with tr:
        pass
    assert set(tr.targets().values()) == {("cli", "cli.main")}


def test_worker_thread_spans_belong_to_the_blocked_call(fakepkg):
    from concurrent.futures import ThreadPoolExecutor

    glm = fakepkg["fakepkg.glm"]

    def main(x):
        with ThreadPoolExecutor(max_workers=2) as ex:
            return sum(ex.map(glm.fit, range(x)))

    fakepkg["fakepkg.cli"].main = main
    main.__module__ = "fakepkg.cli"
    tr = Tracer("fakepkg")
    with tr:
        assert fakepkg["fakepkg.cli"].main(4) == 10
    root = next(s for s in tr.spans if s.name == "cli.main")
    workers = [s for s in tr.spans if s.name == "glm.fit"]
    assert len(workers) == 4
    assert all(s.parent == root.sid for s in workers)
