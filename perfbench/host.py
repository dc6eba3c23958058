"""Host fingerprint and Ray process hygiene."""

from __future__ import annotations

import contextlib
import glob
import io
import os
import platform
import shutil
import subprocess
import time


def nproc() -> int:
    """CPUs this process may use, as coreutils ``nproc`` reports them:
    it honours OMP_NUM_THREADS / OMP_THREAD_LIMIT, unlike
    ``os.cpu_count()``."""
    exe = shutil.which("nproc")
    if exe:
        out = subprocess.run([exe], capture_output=True, text=True,
                             timeout=10)
        if out.returncode == 0 and out.stdout.strip().isdigit():
            return int(out.stdout.strip())
    n = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OMP_THREAD_LIMIT"):
        v = os.environ.get(var, "").split(",")[0]
        if v.isdigit() and int(v) > 0:
            n = min(n, int(v))
    return max(n, 1)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _llc_mib() -> float:
    """Size of cpu0's highest cache level, in MiB (0 when unknown)."""
    best = (0, 0.0)
    for base in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            with open(os.path.join(base, "level")) as f:
                level = int(f.read())
            with open(os.path.join(base, "size")) as f:
                size = f.read().strip()  # e.g. "107520K"
        except (OSError, ValueError):
            continue
        scale = {"K": 1 / 1024, "M": 1.0, "G": 1024.0}.get(size[-1:])
        mib = float(size[:-1]) * scale if scale else float(size) / 2**20
        best = max(best, (level, mib))
    return best[1]


def yardstick_s(n: int = 2_000_000) -> float:
    """Seconds for a fixed pure-Python loop: the host's single-core
    speed at this moment, to tell host slowness from engine slowness."""
    t0 = time.perf_counter()
    x = 0
    for i in range(n):
        x += i * i
    return time.perf_counter() - t0


def fingerprint(loadavg_1m: float) -> dict:
    import numpy
    import pyarrow
    import ray

    return {
        "nproc": nproc(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "llc_mib": _llc_mib(),
        "python": platform.python_version(),
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "numpy": numpy.__version__,
        "loadavg_1m_before": loadavg_1m,
        "yardstick_s": yardstick_s(),
    }


def ray_stop_force() -> None:
    """``ray stop --force``: clear Ray processes a crashed run left."""
    from ray.scripts.scripts import stop

    with contextlib.redirect_stdout(io.StringIO()):
        try:
            stop.main(args=["--force"], standalone_mode=False)
        except SystemExit:
            pass


def tree_cpu_s() -> float:
    """CPU seconds (user + system) used so far by this process and every
    live process it started, the Ray session's included, with what each
    has collected from its own exited children.  Unlike wall time it
    does not grow while other tenants of the host hold the CPUs."""
    import psutil

    me = psutil.Process()
    total = 0.0
    for p in [me, *me.children(recursive=True)]:
        with contextlib.suppress(psutil.Error):
            t = p.cpu_times()
            total += t.user + t.system + t.children_user + t.children_system
    return total


def reap_children(timeout: float = 10.0) -> int:
    """Terminate every process this one started that is still alive
    (or a zombie), and wait for each; returns how many there were."""
    import psutil

    kids = psutil.Process().children(recursive=True)
    for p in kids:
        with contextlib.suppress(psutil.Error):
            p.terminate()
    _, alive = psutil.wait_procs(kids, timeout=timeout)
    for p in alive:
        with contextlib.suppress(psutil.Error):
            p.kill()
    psutil.wait_procs(alive, timeout=timeout)
    return len(kids)
