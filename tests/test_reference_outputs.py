"""The benchmark's stored outputs: each workload's toy-size call and its
seed-0 full-size call, made in-process at one thread, match the artifacts
stored in perfbench/reference/ (integers exactly, floats within the stated
tolerance of perfbench/workloads.py)."""

import importlib.util
import sys
from pathlib import Path

import pytest

from lrboot import cli
from lrboot import simlab as sl

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


wl = _load_workloads()
WORKLOADS = wl.workloads(1)


@pytest.mark.parametrize("toy", [True, False], ids=["toy", "seed0"])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_call_matches_the_stored_reference(name, toy, tmp_path, monkeypatch):
    w = WORKLOADS[name]
    ref = wl.load_reference(name)
    seed, n = (wl.TOY_SEED, wl.TOY_N) if toy else (0, wl.N)
    # the artifacts record the input path relative to the benchmark's root
    monkeypatch.chdir(tmp_path)
    csv = f".perfbench_work/{name}{'-toy' if toy else ''}.csv"
    (tmp_path / ".perfbench_work").mkdir()
    if w.csv_input:
        cli.emit_csv(sl.generate(w.scenario, n=n, seed=seed), "y", csv)
    out = tmp_path / f"out.{w.artifact}"
    assert cli.main(w.argv(seed, str(out), csv, toy=toy, threads=1)) == 0
    stored = ref["toy"] if toy else ref["seeds"][str(seed)]
    expected = wl.parse(w.artifact, stored.encode())
    assert wl.compare(expected, wl.parse(w.artifact, out.read_bytes())) == []
