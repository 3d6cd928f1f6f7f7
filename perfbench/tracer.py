"""Outside-in tracer for the lrboot package.

A layer is a module of ``lrboot``. The tracer wraps every module-level public
function (defined in that module, name without a leading ``_``) at every
attribute binding inside ``lrboot.*``, so calls through ``from .glm import
fit_design`` are seen as well as calls through ``glm.fit_design``. Functions
that no longer exist are simply not wrapped. Spans stay in memory; the
harness writes them out when the run ends.

Self time partitions wall time: at each instant the time of a span is passed
down to its open children, split evenly among them when several run at once
(worker threads), and kept as self time when none is open. With one thread
this is the span's wall time minus the time its children cover, and the self
times of a call always add up to the wall time of its root spans.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from dataclasses import dataclass, field

LAYERS = (
    "cli",
    "data",
    "glm",
    "residuals",
    "neighborhood",
    "bootstrap",
    "selection",
    "simlab",
    "rng",
)

FIT_ERROR_CLASSES = (
    "RankDeficient",
    "SeparationDetected",
    "NonConvergence",
    "EmptyCategory",
)


@dataclass
class Span:
    sid: int
    call: int
    name: str
    layer: str
    parent: int | None
    thread: int
    t0: float
    c0: float
    t1: float = 0.0
    c1: float = 0.0
    error: str | None = None  # class name of a FitError raised out of the span
    iterations: int | None = None
    maps: list = field(default_factory=list)  # (id, rows, warnings) per returned map
    B: int | None = None
    n_failed: int | None = None


def _returned_maps(result):
    """(id, rows, warnings) of each neighborhood map a call returned."""
    values = result.values() if isinstance(result, dict) else (result,)
    return [
        (id(v), len(v.sets), len(v.warnings))
        for v in values
        if hasattr(v, "sets") and hasattr(v, "warnings")
    ]


def _returned_iterations(result):
    """Newton iteration count: FitResult.iterations, or the fifth element of
    the (…, iterations, grad_norm, path) tuples the design-level fitters return."""
    it = getattr(result, "iterations", None)
    if it is None and isinstance(result, tuple) and len(result) >= 5:
        it = result[4]
    return it if isinstance(it, int) else None


class Tracer:
    """Patch lrboot's public functions while installed; record one Span per call."""

    def __init__(self, package: str = "lrboot"):
        self.package = package
        self.spans: list[Span] = []
        self.call = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._home = threading.get_ident()
        self._home_stack: list[Span] = []
        self._patched: list[tuple] = []  # (module, attribute, original)
        self._fit_error = None

    # -- installation ---------------------------------------------------

    def _modules(self):
        return [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None
            and (name == self.package or name.startswith(self.package + "."))
        ]

    def targets(self) -> dict:
        """{original function: (layer, qualified name)} for every public
        module-level function of each layer module."""
        out = {}
        for layer in LAYERS:
            module = sys.modules.get(f"{self.package}.{layer}")
            if module is None:
                continue
            for name, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and not name.startswith("_")
                    and obj.__module__ == module.__name__
                ):
                    out[obj] = (layer, f"{layer}.{name}")
        return out

    def install(self) -> "Tracer":
        if self._patched:
            raise RuntimeError("tracer already installed")
        errors = sys.modules.get(f"{self.package}.errors")
        self._fit_error = getattr(errors, "FitError", None)
        targets = self.targets()
        wrappers = {f: self._wrap(f, *info) for f, info in targets.items()}
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        return self

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- recording ------------------------------------------------------

    def _stack(self) -> list:
        if threading.get_ident() == self._home:
            return self._home_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, func, layer: str, name: str):
        tracer = self
        is_fit = layer == "glm" and func.__name__.startswith("fit")
        sig = inspect.signature(func)
        takes_B = layer == "bootstrap" and "B" in sig.parameters

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                # a worker thread: its spans belong to the call the harness
                # thread is blocked in (bootstrap.run's replicate pool)
                home = tracer._home_stack
                parent = home[-1] if home else None
            span = Span(
                sid=next(tracer._ids),
                call=tracer.call,
                name=name,
                layer=layer,
                parent=None if parent is None else parent.sid,
                thread=threading.get_ident(),
                t0=time.perf_counter(),
                c0=time.thread_time(),
            )
            if takes_B:
                span.B = sig.bind(*args, **kwargs).arguments.get("B")
            stack.append(span)
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                if tracer._fit_error is not None and isinstance(exc, tracer._fit_error):
                    span.error = type(exc).__name__
                raise
            finally:
                span.t1 = time.perf_counter()
                span.c1 = time.thread_time()
                stack.pop()
                tracer.spans.append(span)
            if is_fit:
                span.iterations = _returned_iterations(result)
            elif layer == "neighborhood":
                span.maps = _returned_maps(result)
            elif layer == "bootstrap":
                span.n_failed = getattr(result, "n_failed", None)
            return result

        return wrapper


# ---------------------------------------------------------------------------
# self-time arithmetic


def _children(spans):
    kids: dict = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(s.parent, []).append(s)
    return kids


def self_times(spans) -> dict:
    """{sid: (self_wall, self_cpu)}; the self walls of each call's spans sum
    to the wall time of its root spans.

    Self CPU is the span's thread-CPU time minus that of its same-thread
    children, scaled by the share of its raw self wall it was attributed."""
    by_id = {s.sid: s for s in spans}
    kids = _children(spans)
    out = {}
    pending = [(s, [(s.t0, s.t1, 1.0)]) for s in spans if s.parent not in by_id]
    while pending:
        span, pieces = pending.pop()
        children = sorted(kids.get(span.sid, ()), key=lambda c: c.t0)
        self_wall, child_pieces = _split(span, pieces, children)
        raw_wall = span.t1 - span.t0
        raw_cpu = span.c1 - span.c0
        for c in children:
            if c.thread == span.thread:
                raw_wall -= c.t1 - c.t0
                raw_cpu -= c.c1 - c.c0
        cpu = raw_cpu * self_wall / raw_wall if raw_wall > 0 else 0.0
        out[span.sid] = (self_wall, cpu)
        for c in children:
            pending.append((c, child_pieces[c.sid]))
    return out


def _split(span, pieces, children):
    """Hand each elementary interval's weight to the open children, evenly,
    or keep it as self time; returns (self time, {child sid: pieces})."""
    cuts = {span.t0, span.t1}
    for a, b, _ in pieces:
        cuts.update((a, b))
    for c in children:
        cuts.update((max(c.t0, span.t0), min(c.t1, span.t1)))
    cuts = sorted(x for x in cuts if span.t0 <= x <= span.t1)
    out = {c.sid: [] for c in children}
    self_time = 0.0
    active: list = []
    nxt = 0
    p = 0
    for a, b in zip(cuts, cuts[1:]):
        mid = 0.5 * (a + b)
        while p < len(pieces) and pieces[p][1] <= mid:
            p += 1
        w = pieces[p][2] if p < len(pieces) and pieces[p][0] <= mid else 0.0
        while nxt < len(children) and children[nxt].t0 <= mid:
            active.append(children[nxt])
            nxt += 1
        active = [c for c in active if c.t1 > mid]
        if w == 0.0:
            continue
        if not active:
            self_time += w * (b - a)
            continue
        share = w / len(active)
        for c in active:
            got = out[c.sid]
            if got and got[-1][1] == a and got[-1][2] == share:
                got[-1] = (got[-1][0], b, share)
            else:
                got.append((a, b, share))
    return self_time, out


# ---------------------------------------------------------------------------
# per-layer metrics


def _metric_table() -> tuple:
    rows = []
    for layer in LAYERS:
        rows += [(f"{layer}.calls", "count", "lower"),
                 (f"{layer}.self_s", "s", "lower"),
                 (f"{layer}.wait_s", "s", "lower")]
    rows += [("glm.fits", "count", "lower"),
             ("glm.ms_per_fit", "ms", "lower"),
             ("glm.newton_iters_mean", "count", "lower"),
             ("glm.fail_share", "ratio", "lower")]
    rows += [(f"glm.fail_share.{c}", "ratio", "lower") for c in FIT_ERROR_CLASSES]
    rows += [("neighborhood.rows_built", "count", "lower"),
             ("neighborhood.us_per_row", "us", "lower"),
             ("neighborhood.warnings", "count", "lower"),
             ("bootstrap.replicates", "count", "higher"),
             ("bootstrap.fail_share", "ratio", "lower"),
             ("bootstrap.self_ms_per_replicate", "ms", "lower"),
             ("trace.overhead_share", "ratio", "lower"),
             ("trace.unattributed_s", "s", "lower")]
    return tuple(rows)


# (name, unit, better) of every per-layer metric, in reporting order
METRICS = _metric_table()


def layer_metrics(spans, n_calls: int, traced_wall_s: float) -> dict:
    """Per-layer numbers over the traced calls: counts and times as means per
    call, ratios over all calls. traced_wall_s is the harness-measured wall
    time of those calls; the part no span covers is trace.unattributed_s.
    (trace.overhead_share needs the untraced calls and is left to the caller.)"""
    times = self_times(spans)
    by_id = {s.sid: s for s in spans}
    t: dict = {}
    for layer in LAYERS:
        t[f"{layer}.calls"] = t[f"{layer}.self_s"] = t[f"{layer}.wait_s"] = 0.0
    for s in spans:
        wall, cpu = times[s.sid]
        t[f"{s.layer}.calls"] += 1
        t[f"{s.layer}.self_s"] += wall
        t[f"{s.layer}.wait_s"] += wall - cpu

    def outermost(s, pred):
        p = by_id.get(s.parent)
        while p is not None:
            if pred(p):
                return False
            p = by_id.get(p.parent)
        return True

    def is_fit(s):
        return s.layer == "glm" and s.name.split(".", 1)[1].startswith("fit")

    fits = [s for s in spans if is_fit(s) and outermost(s, is_fit)]
    iters = [s.iterations for s in fits if s.iterations is not None]
    errors = [s.error for s in fits if s.error is not None]
    t["glm.fits"] = len(fits)

    # a map handed up through nested builders counts once, where it was built
    t["neighborhood.rows_built"] = t["neighborhood.warnings"] = 0
    for s in spans:
        parent = by_id.get(s.parent)
        handed_up = set()
        if parent is not None and parent.layer == "neighborhood":
            handed_up = {mid for mid, _, _ in parent.maps}
        for mid, rows, warnings in s.maps:
            if mid not in handed_up:
                t["neighborhood.rows_built"] += rows
                t["neighborhood.warnings"] += warnings

    def is_run(s):
        return s.layer == "bootstrap" and s.B is not None

    runs = [s for s in spans if is_run(s) and outermost(s, is_run)]
    t["bootstrap.replicates"] = sum(s.B for s in runs)
    t["trace.unattributed_s"] = traced_wall_s - sum(
        s.t1 - s.t0 for s in spans if s.parent not in by_id
    )

    def per(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    n_fits, reps = len(fits), t["bootstrap.replicates"]
    m = {k: v / max(n_calls, 1) for k, v in t.items()}
    m["glm.ms_per_fit"] = per(t["glm.self_s"], n_fits, 1e3)
    m["glm.newton_iters_mean"] = per(sum(iters), len(iters))
    m["glm.fail_share"] = per(len(errors), n_fits)
    for cls in FIT_ERROR_CLASSES:
        m[f"glm.fail_share.{cls}"] = per(errors.count(cls), n_fits)
    m["neighborhood.us_per_row"] = per(
        t["neighborhood.self_s"], t["neighborhood.rows_built"], 1e6
    )
    m["bootstrap.fail_share"] = per(sum(s.n_failed or 0 for s in runs), reps)
    m["bootstrap.self_ms_per_replicate"] = per(t["bootstrap.self_s"], reps, 1e3)
    return m
