"""Process set-up shared by the benchmark and its set-up probe.

BLAS threads are pinned to one before numpy is first imported, and sepvol is
imported from the checkout's own ``src/`` directory, never from an installed
copy, so the benchmark always measures the tree it sits in.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class MissingProgram(RuntimeError):
    """The checkout holds no sepvol sources to measure."""


def prepare() -> None:
    """Pin BLAS threads and put the checkout's src/ first on the import path."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "sepvol" / "__init__.py").is_file():
        raise MissingProgram(f"no sepvol package under {SRC}")
    sys.path.insert(0, str(SRC))
    import sepvol
    if Path(sepvol.__file__).resolve().parent != (SRC / "sepvol").resolve():
        raise MissingProgram(f"sepvol imported from {sepvol.__file__}, not from {SRC}")


def git_commit() -> str:
    """``git rev-parse HEAD`` of the checkout; 'unknown' outside git or without git.

    The search for a repository stops at the checkout's root, so nothing
    above it is read.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    """Versions, core count, commit and seed recorded with every result."""
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "commit": git_commit(),
        "seed": seed,
    }
