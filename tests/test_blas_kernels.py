"""The bit contracts under a second BLAS kernel.

numpy's bundled OpenBLAS picks its kernel at run time, and
`OPENBLAS_CORETYPE` chooses one for a process. Byte identity holds per
machine and kernel, not across kernels, so each contract is checked again in
a process of its own under another kernel: thread invariance of a warm run
with a one-row last block, which reads the run's start table in every
block; the start table's first score against the per-row score; a toy
`lrboot bootstrap` call rerun; and the scenario draws' pinned digests, SC10
and correlated SC2 among them, which correlate their covariates without a
BLAS product.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).parent
_PROBE = "import numpy; numpy.ones((2, 2)) @ numpy.ones((2, 2))"
_CHECKS = [
    "test_kernel.py::test_refit_blocks_builds_one_start_table_per_run",
    "test_kernel.py::test_one_row_last_block_starts_from_the_runs_table",
    "test_kernel.py::test_start_table_first_score_equals_the_per_row_score",
    "test_cli.py::test_byte_identical_reruns_across_threads",
    "test_simlab.py::test_generate_matches_pinned_digests",
]


def _core(env) -> str | None:
    """The OpenBLAS core a process with `env` runs on, or None where the
    BLAS reports none."""
    out = subprocess.run([sys.executable, "-c", _PROBE], capture_output=True, text=True,
                         env={**env, "OPENBLAS_VERBOSE": "2"}, check=True, timeout=120)
    found = re.search(r"^Core: (\w+)$", out.stdout + out.stderr, re.MULTILINE)
    return found and found.group(1)


def test_bit_contracts_hold_under_a_second_blas_kernel():
    other = "Haswell" if _core(os.environ) == "Sandybridge" else "Sandybridge"
    env = {**os.environ, "OPENBLAS_CORETYPE": other,
           "PYTHONPATH": os.pathsep.join(sys.path)}
    if _core(env) != other:
        pytest.skip(f"the BLAS does not run the {other} kernel on request")
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *(str(TESTS / check) for check in _CHECKS)],
        capture_output=True, text=True, env=env, cwd=TESTS.parent, timeout=600,
    )
    assert out.returncode == 0, out.stdout[-4000:] + out.stderr[-2000:]
    assert re.search(r"\b20 passed\b", out.stdout), out.stdout[-2000:]
