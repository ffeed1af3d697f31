"""Benchmark harness for qcoremap: workloads, layer tracing and output checks.

The harness drives the package from its source tree (``src/``), never from
an installed copy, so a checkout without the source fails instead of
measuring something else.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
SOURCE = ROOT / "src"

# thread pools of the numeric libraries; pinned so one run uses one thread
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class MissingSource(RuntimeError):
    pass


def pin_threads() -> None:
    """Pin library thread pools to one thread; call before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def use_source_tree():
    """Import qcoremap from ``<root>/src`` and return the package module."""
    if not (SOURCE / "qcoremap" / "__init__.py").is_file():
        raise MissingSource(f"no qcoremap source under {SOURCE}")
    if str(SOURCE) not in sys.path:
        sys.path.insert(0, str(SOURCE))
    import qcoremap

    if Path(qcoremap.__file__).resolve().parent != SOURCE / "qcoremap":
        raise MissingSource(f"qcoremap was imported from {qcoremap.__file__}, not {SOURCE}")
    return qcoremap
