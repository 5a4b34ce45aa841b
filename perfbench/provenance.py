"""Hardware and provenance record stored with every run's artifact.

Recorded only: nothing here skips, scales or relaxes a bound.  The
parallelism probe times a raw ``pow`` loop serially and in two processes at
once, because a core count alone does not say how much parallel work the
machine delivers.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, Optional

#: Modular exponentiations per probe chunk (about 0.1 s of CPU each).
POW_CHUNK = 1500
POW_MODULUS = (1 << 1024) - 105
PROBE_WORKERS = 2

#: Iterations of the plain-Python calibration loop.
CALIBRATION_LOOP = 2_000_000


def pow_chunk(base: int) -> int:
    """One probe chunk: repeated 1024-bit modular exponentiation."""
    acc = base
    for _ in range(POW_CHUNK):
        acc = pow(acc, 65537, POW_MODULUS)
    return acc


#: A probe worker: imports, says so, waits for the go line, then computes.
_WORKER = (
    "import sys; sys.path.insert(0, sys.argv[1]); from provenance import pow_chunk; "
    "print('ready', flush=True); sys.stdin.readline(); "
    "print(pow_chunk(int(sys.argv[2])), flush=True)"
)


def parallelism_probe() -> Dict[str, float]:
    """Serial vs parallel time for the same ``PROBE_WORKERS`` chunks.

    The parallel side runs one chunk per child process; the children are
    started and have imported before the clock starts, and every child is
    waited for.
    """
    bases = [3 + i for i in range(PROBE_WORKERS)]
    start = perf_counter()
    serial = [pow_chunk(b) for b in bases]
    serial_s = perf_counter() - start
    here = str(Path(__file__).resolve().parent)
    children = [
        subprocess.Popen(
            [sys.executable, "-c", _WORKER, here, str(b)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        for b in bases
    ]
    try:
        for child in children:
            child.stdout.readline()
        start = perf_counter()
        for child in children:
            child.stdin.write("go\n")
            child.stdin.flush()
        parallel = [int(child.stdout.readline()) for child in children]
        parallel_s = perf_counter() - start
    finally:
        for child in children:
            child.stdin.close()
            child.stdout.close()
            child.wait()
    if parallel != serial:
        raise RuntimeError("parallelism probe: parallel and serial results differ")
    return {
        "workers": PROBE_WORKERS,
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "speedup": serial_s / parallel_s,
    }


def calibration_s() -> float:
    """Seconds for a fixed plain-Python loop (machine speed at run time)."""
    start = perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOP):
        total += i & 7
    return perf_counter() - start


def git_head(root: Path) -> Optional[str]:
    """The checkout's commit, or None outside a git work tree."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None if done.returncode == 0 else None


def record(root: Path, seed: int) -> Dict[str, Any]:
    """Everything that says where and on what a run was measured."""
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "parallelism_probe": parallelism_probe(),
        "calibration_loop_s": calibration_s(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_head": git_head(root),
        "seed": seed,
    }
