"""Thread pinning, the symcov import from the checkout, set-up timing and the
environment record written with every run.

Nothing here imports numpy at module level: ``pin_threads`` must run before
numpy loads its BLAS.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One BLAS thread: every matrix here is at most 243 x 243 (4096 x 4096 only in
# the oracle checks outside timing), and a single thread gave steadier
# validate-theorem times than the two-thread default on a 2-core machine.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pin_threads() -> int:
    """Fix the BLAS/OpenMP thread count, never above nproc; call before numpy loads."""
    threads = max(1, min(BLAS_THREADS, nproc()))
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def have_sources() -> bool:
    return (SRC / "symcov" / "__init__.py").is_file()


def import_symcov() -> Any:
    """Import symcov from the checkout's src/, refusing any other installed copy."""
    if not have_sources():
        raise RuntimeError(f"no symcov sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import symcov
    import symcov.cli  # noqa: F401  (binds symcov.cli and symcov.oracle)

    where = Path(symcov.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise RuntimeError(f"imported symcov from {where}, not from {SRC}")
    return symcov


# Set-up is import plus the first-call cache fills of the Pauli-string stacks
# (k <= 5) and Dicke embeddings (order <= 10) that the timed operations would
# otherwise pay on first use.  A renamed fill function fails the benchmark
# rather than shrinking set-up unseen.
CACHE_FILLS = (("pauli_string_stack", range(1, 6)), ("dicke_basis_matrix", range(1, 11)))


def fill_caches() -> None:
    """Make the first-call cache fills in this process."""
    from symcov import _pauli

    for name, args in CACHE_FILLS:
        fn = getattr(_pauli, name)
        for arg in args:
            fn(arg)


def _setup_child() -> None:
    t0 = time.perf_counter()
    import_symcov()
    t1 = time.perf_counter()
    fill_caches()
    t2 = time.perf_counter()
    import probe

    print(json.dumps({"import_s": t1 - t0, "fill_s": t2 - t1, "probe_s": probe.probe_s()}))


def measure_setup(repeats: int) -> dict[str, Any]:
    """Median over fresh interpreters of import plus first-call cache fills.

    Each interpreter times the calibration probe (probe.py) once its imports
    are done, and its set-up time is scaled to the reference speed by it.
    """
    import probe

    samples = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve())],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    totals = [s["import_s"] + s["fill_s"] for s in samples]
    scaled = [probe.scale(t, [s["probe_s"]]) for t, s in zip(totals, samples)]
    return {
        "setup_s": statistics.median(scaled),
        "samples_s": scaled,
        "unscaled_s": totals,
        "probe_s": [s["probe_s"] for s in samples],
        "import_s": [s["import_s"] for s in samples],
        "fill_s": [s["fill_s"] for s in samples],
    }


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def _git_commit() -> str | None:
    head = _read(ROOT / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read(ROOT / ".git" / ref)
    if direct:
        return direct
    for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "symcov").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _caches() -> list[dict[str, str]]:
    out = []
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        out.append(
            {key: _read(index / key) or "?" for key in ("level", "type", "size")}
        )
    return out


def _blas() -> Any:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        return config.get("Build Dependencies", {}).get("blas", config)
    except (TypeError, ValueError):
        return "unknown"


def describe(seed: int, threads: int) -> dict[str, Any]:
    """Everything needed to compare two runs: software, hardware, seed, source."""
    import numpy as np
    import scipy

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "blas_threads": threads,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "nproc": nproc(),
        "platform": platform.platform(),
        "seed": seed,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


if __name__ == "__main__":
    _setup_child()
