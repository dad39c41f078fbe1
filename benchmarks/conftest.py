"""Benchmark configuration.

Each benchmark runs one paper experiment end-to-end (once — these are
seconds-long macro-benchmarks, not micro-benchmarks) and asserts the
qualitative shape the paper reports.  Set ``REPRO_SCALE=default`` or
``paper`` for higher-fidelity runs.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# One BLAS thread per process, set before numpy first loads: a pool of
# fork workers that each start a full BLAS thread pool oversubscribes
# the cores and the serial-vs-parallel floors measure the scheduler.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")

import pytest  # noqa: E402

# Benchmark modules share helpers via ``benchmarks_shared``; under
# --import-mode=importlib (the repo default) test directories are not put
# on sys.path automatically, so do it here (conftests load first).
sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.experiments.scale import resolve_scale  # noqa: E402


@pytest.fixture(scope="session")
def scale():
    return resolve_scale()
