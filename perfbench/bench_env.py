"""Where the benchmark finds rpsim, how it pins BLAS threads, what it records.

`pin_blas_threads` must run before numpy is first imported in the process;
run.py calls it first thing.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent  # the checkout being measured
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"  # run records, spans, CLI scratch

# BLAS threads for every run, on both sides of a comparison. One thread keeps
# op times steady on a shared 2-core box, where two threads varied 25% run to run.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


def pin_blas_threads() -> int:
    threads = max(1, min(BLAS_THREADS, available_cpus()))
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def import_rpsim():
    """Import rpsim from this checkout's src/ and nowhere else.

    Raises:
        SystemExit: the checkout holds no rpsim sources, or another copy
        of rpsim shadows them (exit status 1, message on stderr).
    """
    if not (SRC / "rpsim" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no rpsim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import rpsim

    if Path(rpsim.__file__).resolve().parent != (SRC / "rpsim").resolve():
        raise SystemExit(f"perfbench: imported rpsim from {rpsim.__file__}, not {SRC}")
    return rpsim


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def _source_sha256() -> str:
    """Hash of rpsim's sources, which identifies the code without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "rpsim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _blas_info() -> dict:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy older than 1.25
        return {}
    return {
        "name": blas.get("name"),
        "version": blas.get("version"),
        "configuration": blas.get("openblas configuration"),
    }


def environment(seed: int, blas_threads: int) -> dict:
    import numpy as np

    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_info(),
        "cpu_count": os.cpu_count(),
        "available_cpus": available_cpus(),
        "blas_threads": blas_threads,
        **{var: os.environ.get(var) for var in THREAD_VARS},
        "platform": platform.platform(),
        "seed": seed,
    }
