"""Process set-up shared by the benchmark's entry points.

``prepare()`` pins BLAS to one thread and puts the checkout's ``src`` on
``sys.path``.  Call it before anything imports numpy: BLAS reads its thread
count when it loads.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"


class SetupError(RuntimeError):
    """The checkout does not hold a usable modred source tree."""


def prepare() -> None:
    """Pin BLAS threads, then import modred from this checkout's ``src``."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    package = SRC / "modred"
    if not (package / "__init__.py").is_file():
        raise SetupError(f"no modred sources at {package}")
    sys.path.insert(0, str(SRC))
    import modred

    found = Path(modred.__file__).resolve().parent
    if found != package.resolve():
        raise SetupError(f"modred imported from {found}, expected {package}")
