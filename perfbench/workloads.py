"""Workload definitions and output checks for the lrboot benchmark.

Every workload is one ``lrboot`` CLI call at n=2000, repeated in a closed
loop. ``README.md`` in this directory gives the reason for each one.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

N = 2000
TOY_N = 200
TOY_SEED = 7
METHODS = "lrb-surrogate,classical-surrogate,parametric,pairwise,multiplier"

# FitOptions.tol=1e-8 bounds the score norm of every converged fit, so a
# coefficient moves by at most about tol/n between two converged fits of the
# same data (another BLAS, reordered sums). 1e-6 relative leaves a wide margin
# for that, while a real change (another neighbor pick, another replicate
# draw) moves these values by 1e-3 or more.
RTOL = 1e-6
ATOL = 1e-9

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def flag(args, name: str) -> str:
    return args[args.index(name) + 1]


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    csv_input: bool  # simulate draws its own data and reads no CSV
    args: tuple  # subcommand and its flags, without data, seed and threads
    toy_args: tuple  # the same call at toy size: the warm-up and stored check
    threads: int
    p: int  # covariates
    q: int  # coefficients reported (ordinal: 3 cutpoints and 1 slope)
    artifact: str = "json"

    def call_args(self, toy: bool) -> tuple:
        return self.toy_args if toy else self.args

    def argv(self, seed: int, out: str, csv_path: str, toy: bool = False,
             threads: int | None = None):
        args = self.call_args(toy)
        threads = self.threads if threads is None else threads
        data = (
            ["--input", csv_path, "--response", "y", "--predictors", "x"]
            if self.csv_input
            else []
        )
        return [
            args[0], *data, *args[1:],
            "--threads", str(threads), "--seed", str(seed), "--output", out,
        ]

    def replicates(self, artifact, toy: bool = False) -> int:
        """Bootstrap replicates one call attempts."""
        a = self.call_args(toy)
        if a[0] == "bootstrap":
            return int(flag(a, "--B"))
        if a[0] == "select-l":
            b_inner = int(flag(a, "--B-inner"))
            full_runs = len({it["l_hat"] for it in artifact["per_iteration"]})
            return (int(flag(a, "--K")) * len(artifact["grid"]) + full_runs) * b_inner
        return int(flag(a, "--reps")) * len(flag(a, "--methods").split(",")) * int(
            flag(a, "--B")
        )

    def inputs(self, seed: int) -> dict:
        a = self.args
        out = {"scenario": self.scenario, "n": N, "p": self.p, "q": self.q}
        for key in ("--B", "--K", "--B-inner", "--reps", "--truth-reps"):
            if key in a:
                out[key.lstrip("-")] = int(flag(a, key))
        out.update(threads=self.threads, seed=seed)
        return out


def workloads(nproc: int) -> dict:
    threads = max(1, min(2, nproc))
    table = [
        Workload(
            "boot-sc1", "SC1_probit", True,
            ("bootstrap", "--method", "lrb-surrogate", "--l", "10", "--B", "500"),
            ("bootstrap", "--method", "lrb-surrogate", "--l", "10", "--B", "50"),
            threads=threads, p=1, q=2,
        ),
        # --delta 1000 accepts the first update: one full-size build per call
        # whatever the seed, where the default delta iterates 2 to 20 times
        Workload(
            "select-l-sc1", "SC1_probit", True,
            ("select-l", "--residual", "surrogate", "--K", "3", "--B-inner", "10",
             "--delta", "1000"),
            ("select-l", "--residual", "surrogate", "--K", "3", "--B-inner", "10",
             "--delta", "1000"),
            threads=1, p=1, q=2,
        ),
        Workload(
            "simulate-sc2", "SC2", False,
            ("simulate", "--scenario", "SC2", "--n", str(N), "--methods", METHODS,
             "--B", "20", "--reps", "2", "--truth-reps", "200"),
            ("simulate", "--scenario", "SC2", "--n", str(TOY_N), "--methods",
             METHODS, "--B", "10", "--reps", "2", "--truth-reps", "100"),
            threads=1, p=10, q=11, artifact="csv",
        ),
        Workload(
            "boot-ordinal", "SC1_ordinal", True,
            ("bootstrap", "--ordinal-categories", "4", "--method", "lrb-surrogate",
             "--l", "10", "--B", "100"),
            ("bootstrap", "--ordinal-categories", "4", "--method", "lrb-surrogate",
             "--l", "10", "--B", "20"),
            threads=1, p=1, q=4,
        ),
    ]
    return {w.name: w for w in table}


# ---------------------------------------------------------------------------
# artifacts


def _cell(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def parse(kind: str, data: bytes):
    """An artifact as plain data whose fields are addressed by name: JSON as
    is; the simulate CSV keyed by method/ci_type/level, its columns by header."""
    text = data.decode("utf-8")
    if kind == "json":
        return json.loads(text)
    rows = {}
    for row in csv.DictReader(io.StringIO(text)):
        key = f"{row['method']}|{row['ci_type']}|{row['level']}"
        rows[key] = {k: _cell(v) for k, v in row.items()}
    return rows


def compare(expected, actual, where: str = "") -> list:
    """Differences between two parsed artifacts: integers, booleans and
    strings exactly, floats within RTOL/ATOL."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        out = []
        for key in sorted(set(expected) | set(actual)):
            if key not in actual or key not in expected:
                out.append(f"{where}/{key}: present on one side only")
            else:
                out += compare(expected[key], actual[key], f"{where}/{key}")
        return out
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{where}: length {len(actual)} != {len(expected)}"]
        out = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            out += compare(e, a, f"{where}/{i}")
        return out
    if isinstance(expected, float) and isinstance(actual, float):
        if math.isnan(expected) and math.isnan(actual):
            return []
        if math.isclose(expected, actual, rel_tol=RTOL, abs_tol=ATOL):
            return []
        return [f"{where}: {actual!r} != {expected!r}"]
    if type(expected) is not type(actual) or expected != actual:
        return [f"{where}: {actual!r} != {expected!r}"]
    return []


def invariants(w: Workload, art, toy: bool = False) -> list:
    """Checks an artifact must pass whatever the seed."""
    bad = []
    args = w.call_args(toy)
    if args[0] == "bootstrap":
        B = int(flag(args, "--B"))
        if not 0 <= art["n_failed"] <= 0.2 * B:
            bad.append(f"n_failed={art['n_failed']} outside [0, 0.2*B]")
        if len(art["coef_names"]) != w.q:
            bad.append(f"{len(art['coef_names'])} coefficients, expected {w.q}")
        if not all(math.isfinite(s) and s > 0 for s in art["se_hat"]):
            bad.append(f"se_hat not finite and positive: {art['se_hat']}")
        for lo, hi in art["ci_normal"] + art["ci_percentile"]:
            if not lo < hi:
                bad.append(f"empty interval [{lo}, {hi}]")
    elif args[0] == "select-l":
        if art["converged"] is not True or len(art["per_iteration"]) != 1:
            bad.append("select-l did not stop after its first update")
        if not 2 <= art["final_l"] <= (TOY_N if toy else N):
            bad.append(f"final_l={art['final_l']} outside [2, n]")
    else:
        methods = flag(args, "--methods").split(",")
        if len(art) != 2 * 3 * len(methods):
            bad.append(f"{len(art)} rows, expected {2 * 3 * len(methods)}")
        for key, row in art.items():
            if not 0.0 <= row["coverage"] <= 1.0 or not row["se_ratio"] > 0:
                bad.append(f"{key}: coverage or se_ratio out of range")
    return bad


def load_reference(name: str) -> dict:
    """{"toy": artifact text, "seeds": {seed: artifact text}}"""
    with open(REFERENCE_DIR / f"{name}.json") as fh:
        return json.load(fh)
