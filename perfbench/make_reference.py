"""Regenerate the reference artifacts stored with the benchmark.

    python3 perfbench/make_reference.py [first_seed last_seed]

For each workload this stores the toy-size artifact (the warm-up call of every
run) and the full-size artifact of each seed in the range (default 0..12).
Run it only when the program's outputs are meant to change.
"""

from __future__ import annotations

import json
import os
import sys

import run
import workloads as wl


def produce(r: run.Run, argv, full: bool):
    rc = r.lrboot.cli.main(argv)
    if rc != 0:
        sys.exit(f"{r.w.name}: {argv} exited with {rc}")
    data = r.out.read_bytes()
    bad = wl.invariants(r.w, wl.parse(r.w.artifact, data)) if full else []
    if bad:
        sys.exit(f"{r.w.name} seed {r.seed}: {bad}")
    return data.decode("utf-8")


def main(argv) -> int:
    first, last = (int(argv[0]), int(argv[1])) if argv else (0, 12)
    lrboot, _ = run.import_lrboot()
    run.WORK.mkdir(exist_ok=True)
    os.chdir(run.ROOT)
    for w in wl.workloads(os.cpu_count() or 1).values():
        ref = {"toy_seed": wl.TOY_SEED, "toy": None, "seeds": {}}
        for seed in range(first, last + 1):
            r = run.Run(w, seed, lrboot, ref)
            r.write_inputs()
            if ref["toy"] is None:
                ref["toy"] = produce(r, r.argv(warm_up=True), full=False)
            ref["seeds"][str(seed)] = produce(r, r.argv(), full=True)
            print(w.name, seed, flush=True)
        path = wl.REFERENCE_DIR / f"{w.name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
