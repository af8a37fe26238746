"""Shared plumbing of the repository benchmark.

Paths inside the checkout, the environment header, order statistics and the
failure type that turns a wrong answer into a non-zero exit.  Everything the
benchmark writes lives under ``.bench_build/perfbench`` of the checkout.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
SPEC_PATH = ROOT / "examples" / "specs" / "quickstart.json"


class BenchmarkFailure(Exception):
    """A wrong answer or a missing program: the run reports no speed."""


def require_program() -> None:
    """Fail unless the checkout holds the program and the quickstart spec."""
    missing = [
        str(path.relative_to(ROOT))
        for path in (SRC / "repro" / "__init__.py", SPEC_PATH)
        if not path.is_file()
    ]
    if missing:
        raise BenchmarkFailure(
            f"the checkout at {ROOT} lacks {missing}; run the benchmark from a "
            "full checkout of the repository"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def work_dir(*parts: str) -> Path:
    path = WORK.joinpath(*parts)
    path.mkdir(parents=True, exist_ok=True)
    return path


def child_env() -> Dict[str, str]:
    """Environment for child interpreters: the program on the path, scratch
    files inside the checkout, BLAS threads left at their default."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(work_dir("tmp"))
    env.pop("PYTHONHASHSEED", None)
    return env


def run_child(argv: Sequence[str], timeout: float) -> Dict[str, object]:
    """Run a benchmark helper script and return the JSON of its last line."""
    proc = subprocess.run(
        [sys.executable, *argv],
        cwd=str(work_dir()),
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise BenchmarkFailure(
            f"{' '.join(argv[:1])} exited with {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    return last_json_line(proc.stdout)


def last_json_line(text: str) -> Dict[str, object]:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise BenchmarkFailure("a benchmark helper printed nothing")
    return json.loads(lines[-1])


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def median(values: Sequence[float]) -> float:
    """Midpoint median (the mean of the middle two for an even count)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def peak_rss_mb() -> float:
    """This process's peak resident set size (MiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_times() -> Optional[List[int]]:
    """The machine's aggregate CPU time counters (``/proc/stat``), if any."""
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
    except OSError:
        return None
    return [int(value) for value in fields[1:]] if fields and fields[0] == "cpu" else None


def steal_pct(before: Optional[List[int]], after: Optional[List[int]]) -> Optional[float]:
    """Share of CPU time the host took from this machine between two
    ``cpu_times()`` readings (the 8th counter is steal); None if unknown."""
    if before is None or after is None or len(before) < 8 or len(after) < 8:
        return None
    total = sum(after) - sum(before)
    return 100.0 * (after[7] - before[7]) / total if total > 0 else None


# ----------------------------------------------------------------------
# Environment header
# ----------------------------------------------------------------------
def _blas() -> Dict[str, object]:
    """The BLAS numpy links and its thread count, read from the loaded
    library (threads are recorded, never pinned)."""
    import ctypes

    import numpy as np

    info: Dict[str, object] = {"library": None, "version": None, "threads": None}
    try:
        build = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
        info["library"] = build.get("name")
        info["version"] = build.get("version")
    except (TypeError, AttributeError):
        pass
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted(
                {line.split()[-1] for line in maps if "blas" in line.lower() and "/" in line}
            )
    except OSError:
        libs = []
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                info["threads"] = int(getter())
                return info
    return info


def source_digest() -> str:
    """Content hash of the program's sources (the checkout need not be a
    git repository, so this identifies the code when no commit is known)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def environment() -> Dict[str, object]:
    import numpy as np

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "nproc": usable,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "git_commit": _git_commit(),
        "src_digest": source_digest(),
        "machine": platform.machine(),
    }
