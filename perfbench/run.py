"""Benchmark of the lrboot CLI: one closed-loop client calling
``lrboot.cli.main(argv)`` in-process, each call sent after the previous one
returned.

    python3 perfbench/run.py --workload boot-sc1 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run it from the root of a checkout: it imports lrboot from ``src/`` and keeps
its work files in ``.perfbench_work/``. Inputs are generated from --seed
during set-up. The last line of standard output is one JSON object with the
end-to-end metrics (--trace 0) or the per-layer metrics of a traced run
(--trace 1); the line before it holds the run's metadata and sample counts.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_ROUNDS = 3

sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402

# name, unit, better
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("call_s_p50", "s", "lower"),
    ("replicates_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("pass_share", "ratio", "higher"),
)


def import_lrboot():
    """Import the package under test from this checkout's src/ and time it."""
    if not (SRC / "lrboot" / "__init__.py").is_file():
        sys.exit(f"perfbench: no lrboot sources under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import lrboot.cli
    import lrboot.simlab

    elapsed = time.perf_counter() - t0
    if Path(lrboot.__file__).resolve().parent != SRC / "lrboot":
        sys.exit(f"perfbench: imported lrboot from {lrboot.__file__}, not {SRC}")
    return lrboot, elapsed


# calibration kernel time that call times are scaled to (about its time on
# a quiet 2-core VM)
KERNEL_NOMINAL_S = 0.02


def calibration_kernel() -> float:
    """Seconds for a fixed piece of work that does not touch lrboot: a
    Python loop, small numpy operations, a lexsort and a small matmul, the
    mix lrboot's calls are made of. Run next to each call, it tracks the
    machine's speed, which on a shared VM drifts by 20% over minutes."""
    import numpy as np

    rng = np.random.default_rng(12345)
    v, a = rng.standard_normal(2000), rng.standard_normal((100, 100))
    idx = np.arange(v.shape[0])
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(20000):
        acc += i * 0.5
    for _ in range(100):
        order = np.lexsort((idx, v))
        acc += float(np.sum(np.exp(-0.5 * v[order[:200]] ** 2)))
        acc += float((a @ a)[0, 0])
    return time.perf_counter() - t0


class Run:
    """Set-up, output checks and the timed loop of one workload."""

    def __init__(self, w: wl.Workload, seed: int, lrboot, reference: dict,
                 toy: bool = False):
        self.w = w
        self.seed = seed
        self.toy = toy  # time the toy-size call: a quick smoke run
        self.lrboot = lrboot
        self.reference = reference
        self.csv = f"{WORK.name}/{w.name}.csv"
        self.toy_csv = f"{WORK.name}/{w.name}-toy.csv"
        self.out = WORK / f"{w.name}-out.{w.artifact}"
        self.expected: bytes | None = None  # the run's first full-size artifact
        self.replicates = 0
        self.peak_rss_mb = 0.0
        self.threads1_s = None  # wall of the --threads 1 reference call
        self.kernel_s: list[float] = []  # before the first call, after each
        self.attempted = 0
        self.failures: list[str] = []

    def argv(self, warm_up: bool = False, threads: int | None = None):
        toy = warm_up or self.toy
        seed, csv = (wl.TOY_SEED, self.toy_csv) if toy else (self.seed, self.csv)
        return self.w.argv(seed, str(self.out), csv, toy=toy, threads=threads)

    def call(self, argv, check, tracer=None) -> float:
        """One CLI call; it fails when it raises, returns non-zero or its
        artifact fails `check`. Returns its wall time."""
        self.attempted += 1
        self.out.unlink(missing_ok=True)
        with tracer if tracer is not None else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                # looked up on every call, so that an installed tracer sees it
                rc = self.lrboot.cli.main(argv)
                why = f"exit code {rc}" if rc != 0 else None
            except Exception as exc:  # a raising call is counted, not fatal
                why = f"raised {exc!r}"
            wall = time.perf_counter() - t0
        if why is None:
            try:
                problems = check(self.out.read_bytes())
            except Exception as exc:  # a missing or malformed artifact
                problems = [f"artifact unreadable: {exc!r}"]
        else:
            problems = [why]
        if problems:
            self.failures.append(f"{argv[0]}: {problems[:3]}")
        return wall

    def check_toy(self, data: bytes) -> list:
        return self.compare(self.reference["toy"], data)

    def compare(self, stored: str, data: bytes) -> list:
        kind = self.w.artifact
        return wl.compare(wl.parse(kind, stored.encode()), wl.parse(kind, data))

    def check_full(self, data: bytes) -> list:
        """Every full-size artifact of a run equals its first byte for byte;
        the first passes the invariants and, where the benchmark stores one
        for this seed, matches the stored reference."""
        if self.expected is not None:
            return [] if data == self.expected else ["differs from the run's first artifact"]
        self.expected = data
        # peak memory is read after set-up and the first full-size call: over
        # repeated calls the heap's high-water mark wanders by up to 40% as
        # the allocator reuses freed blocks, and the arenas of worker threads
        # add 0 or 16 MB at random
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        art = wl.parse(self.w.artifact, data)
        self.replicates = self.w.replicates(art, self.toy)
        stored = (self.reference["toy"] if self.toy
                  else self.reference["seeds"].get(str(self.seed)))
        return wl.invariants(self.w, art, self.toy) + (
            self.compare(stored, data) if stored is not None else []
        )

    def write_inputs(self) -> None:
        """The full-size input from the run's seed and the toy-size input."""
        if not self.w.csv_input:
            return
        simlab, cli = self.lrboot.simlab, self.lrboot.cli
        for n, seed, path in ((wl.N, self.seed, self.csv),
                              (wl.TOY_N, wl.TOY_SEED, self.toy_csv)):
            cli.emit_csv(simlab.generate(self.w.scenario, n=n, seed=seed), "y", path)

    def setup(self) -> list:
        """Input generation, CSV writing and the toy-size warm-up call, which
        is checked against the stored reference; returns each round's time."""
        rounds = []
        for _ in range(SETUP_ROUNDS):
            t0 = time.perf_counter()
            self.write_inputs()
            self.call(self.argv(warm_up=True), self.check_toy)
            rounds.append(time.perf_counter() - t0)
        if self.w.threads > 1:
            # the --threads 1 artifact becomes the run's reference, so every
            # timed multi-threaded call is checked for thread invariance and
            # for same-seed rerun identity
            self.threads1_s = self.call(self.argv(threads=1), self.check_full)
        return rounds

    def timed(self, seconds: float, tracer=None):
        """The closed loop for `seconds`. With a tracer every second call is
        traced and the others give the untraced baseline. The calibration
        kernel runs before the first call and after each one."""
        argv = self.argv()
        plain, traced = [], []
        self.kernel_s.append(calibration_kernel())
        deadline = time.perf_counter() + seconds
        i = 0
        while True:
            on = tracer is not None and i % 2 == 1
            if on:
                tracer.call = i
            wall = self.call(argv, self.check_full, tracer if on else None)
            (traced if on else plain).append(wall)
            self.kernel_s.append(calibration_kernel())
            i += 1
            if time.perf_counter() >= deadline and (tracer is None or i >= 2):
                return plain, traced


# ---------------------------------------------------------------------------
# metadata


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def _openblas(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {"name": blas.get("name"), "version": blas.get("version"),
           "env": {k: os.environ.get(k) for k in
                   ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ}}
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                out["threads"] = fn()
                return out
    return out


def metadata(w: wl.Workload, seed: int, lrboot) -> dict:
    import numpy as np
    import scipy

    return {
        "workload": w.name,
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "lrboot": lrboot.__version__,
        "openblas": _openblas(np),
        "inputs": w.inputs(seed),
        "argv": w.argv(seed, "<out>", "<csv>"),
    }


# ---------------------------------------------------------------------------
# metrics


def end_to_end(run: Run, setup_s: float, walls) -> dict:
    # each call's wall time at the kernel's nominal speed, the kernel time
    # taken as the mean of the runs just before and after the call
    k = run.kernel_s
    scaled = [
        w * KERNEL_NOMINAL_S / (0.5 * (k[i] + k[i + 1])) for i, w in enumerate(walls)
    ]
    values = {
        "setup_s": (setup_s, SETUP_ROUNDS),
        "call_s_p50": (statistics.median(scaled), len(walls)),
        # replicates per call are fixed by the workload and the artifact, so
        # the rate moves only with time
        "replicates_per_s": (
            statistics.median(run.replicates / w for w in scaled), len(walls)
        ),
        "peak_rss_mb": (run.peak_rss_mb, 1),
        "pass_share": (1.0 - len(run.failures) / run.attempted, run.attempted),
    }
    return {name: (*values[name], unit) for name, unit, _ in END_TO_END}


def per_layer(plain, traced, tracer) -> dict:
    m = tracing.layer_metrics(tracer.spans, len(traced), sum(traced))
    m["trace.overhead_share"] = statistics.median(traced) / statistics.median(plain) - 1.0
    return {name: (m[name], len(traced), unit) for name, unit, _ in tracing.METRICS}


def run_one(args) -> int:
    lrboot, import_s = import_lrboot()
    WORK.mkdir(exist_ok=True)
    os.chdir(ROOT)  # the artifacts embed the relative input path
    w = wl.workloads(os.cpu_count() or 1)[args.workload]
    run = Run(w, args.seed, lrboot, wl.load_reference(w.name), args.toy)
    setup_s = import_s + statistics.median(run.setup())
    tracer = tracing.Tracer() if args.trace else None
    plain, traced = run.timed(args.seconds, tracer)
    if tracer is None:
        metrics = end_to_end(run, setup_s, plain)
    else:
        metrics = per_layer(plain, traced, tracer)
        spans = WORK / f"{w.name}-seed{args.seed}-spans.json"
        spans.write_text(json.dumps([asdict(s) for s in tracer.spans]))
        total = sum(v for k, (v, _, _) in metrics.items() if k.endswith(".self_s"))
        total += metrics["trace.unattributed_s"][0]
        if abs(total - sum(traced) / len(traced)) > 1e-6:
            run.failures.append(f"self times add up to {total}, not the traced wall")
    meta = metadata(w, args.seed, lrboot)
    meta.update(
        toy=args.toy,
        setup={"import_s": import_s, "rounds": SETUP_ROUNDS,
               "threads1_call_s": run.threads1_s},
        samples={k: n for k, (_, n, _) in metrics.items()},
        walls={"untraced": plain, "traced": traced},
        kernel_s=run.kernel_s,
        failures=run.failures,
    )
    for name, (value, n, unit) in metrics.items():
        print(f"{w.name:14s} {name:36s} {value:14.6g} {unit:6s} n={n}")
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, _, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    names = list(wl.workloads(os.cpu_count() or 1))
    status = 0
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), *(["--toy"] if args.toy else [])]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}")
            status = 1
            continue
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            summary["metrics"][f"{name}/{k}"] = v
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*wl.workloads(os.cpu_count() or 1), "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true",
                    help="time the toy-size call instead (smoke run)")
    args = ap.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
