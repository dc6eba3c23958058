#!/usr/bin/env python3
"""proj_ray benchmark: one seeded workload, end-to-end or per-layer.

    python3 perfbench/run.py --workload flagship --seed 1 --seconds 30 \
        --trace 0

Run from the repository root.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; with
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones (BENCHMARK.json lists both).  The line before it,
and ``.bench_out/<workload>-seed<seed>-trace<t>.json``, hold the host
fingerprint, every sample, every check and, when tracing, the spans,
their self times and the per-operator Ray Data stats.

An untraced run imports Ray Data and proj_ray on the driver once, then
sets up twice, each time in a fresh Ray session; setup_s is the import
time plus the median of the two session set-ups (wall time).  It then
repeats the job for ``--seconds`` seconds and reports medians over the
repetitions.  docs_per_cpu_s and coords_per_cpu_s are inputs over the
CPU seconds that the driver and every Ray process used from job
submission to the last output row consumed: on a shared host the wall
time of a job also counts the time other tenants held the CPUs, the
CPU time does not.  The wall-time rates are in the detail output.
driver_peak_rss_mb is the driver's peak RSS while a job runs.  A
traced run sets up once, repeats the untraced job for ``--seconds``
seconds, runs the job once more with tracing, then measures each layer
on one pre-generated batch.

Ray gets ``num_cpus`` = ``nproc``.  All load comes from this driver
process; the harness stops every process it started before it prints.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPEATS = 2
MAX_REPS = 50
OBJECT_STORE_BYTES = 512 * 2**20
# Ray puts unix sockets under its temp dir: keep the session inside the
# checkout only when the socket paths fit the 107-byte limit
RAY_SOCKET_SUFFIX = 72


def _parse(argv):
    from perfbench.workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs and one set-up, for tests")
    return ap.parse_args(argv)


def reset_peak_rss() -> bool:
    """Reset this process's peak-RSS mark (Linux ``clear_refs`` 5);
    False when the kernel refuses, so the peak then covers set-up too."""
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
        return True
    except OSError:
        return False


def peak_rss_mb() -> float:
    """Peak RSS of this process since the last reset (VmHWM), in MiB."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return 0.0


class RaySession:
    """Fresh local Ray sessions with ``num_cpus`` = nproc."""

    def __init__(self, num_cpus: int, tmp: str):
        self.num_cpus = num_cpus
        self.temp_dir = tmp if len(tmp) + RAY_SOCKET_SUFFIX <= 107 else None
        self.session_dirs = []

    def start(self):
        import ray
        import ray.data

        ray.init(address="local", num_cpus=self.num_cpus, num_gpus=0,
                 include_dashboard=False, log_to_driver=False,
                 logging_level="ERROR",
                 object_store_memory=OBJECT_STORE_BYTES,
                 _temp_dir=self.temp_dir)
        node = ray._private.worker._global_node
        self.session_dirs.append(node.get_session_dir_path())
        ctx = ray.data.DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.execution_options.verbose_progress = False

    def stop(self):
        import ray

        from perfbench.host import reap_children

        ray.shutdown()
        reap_children()
        for d in self.session_dirs:
            shutil.rmtree(d, ignore_errors=True)
        self.session_dirs.clear()


def _median(xs):
    # 0 only when every job failed, which the result reports as incorrect
    return statistics.median(xs) if xs else 0.0


def main(argv=None) -> int:
    loadavg_1m = os.getloadavg()[0]  # before any work of our own
    if not os.path.isfile(os.path.join(ROOT, "proj_ray", "__init__.py")):
        print(f"perfbench: proj_ray not found under {ROOT}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    os.environ.setdefault("RAY_USAGE_STATS_ENABLED", "0")
    # driver-side imports happen once per process: they count once in
    # setup_s, and every session set-up sample after them is alike
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import pyarrow  # noqa: F401
    import ray.data  # noqa: F401

    import proj_ray.pipelines.flagship  # noqa: F401
    import_s = time.perf_counter() - t0
    args = _parse(argv)

    from perfbench import host, layers, trace
    from perfbench.workloads import WORKLOADS

    fp = host.fingerprint(loadavg_1m)
    host.ray_stop_force()
    tmp_root = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="r", dir=tmp_root)
    session = RaySession(fp["nproc"], tmp)
    wl = WORKLOADS[args.workload](args.seed, args.smoke, tmp)
    repeats = 1 if (args.trace or args.smoke) else SETUP_REPEATS

    setups, reps, checks, errors = [], [], [], []
    attempted = failed = 0
    metrics, info = {}, {"driver_import_s": import_s}
    try:
        for i in range(repeats):
            if i:
                session.stop()
            t0 = time.perf_counter()
            session.start()
            wl.prepare()
            wl.warm()
            setups.append(time.perf_counter() - t0)
        with trace.PlanCapture() as loaded:
            wl.load()

        def attempt(fn, *a):
            nonlocal attempted, failed
            attempted += 1
            try:
                return fn(*a)
            except Exception:
                failed += 1
                errors.append(traceback.format_exc())
                print(errors[-1], file=sys.stderr)
                return None

        def run_checks(results):
            nonlocal attempted, failed
            for name, ok, detail in results or []:
                attempted += 1
                failed += 0 if ok else 1
                checks.append({"check": name, "ok": bool(ok),
                               "detail": detail})

        rss = []
        deadline = time.perf_counter() + args.seconds
        while len(reps) < MAX_REPS:
            info["peak_rss_reset"] = reset_peak_rss()
            r = attempt(wl.run)
            rss.append(peak_rss_mb())
            if r is not None:
                run_checks(attempt(wl.check, r))
                # drop the output: its blocks stay pinned in the object
                # store while referenced
                r.pop("out", None)
                reps.append(r)
            if time.perf_counter() >= deadline:
                break
        run_checks(attempt(wl.check_once))

        walls = [r["wall_s"] for r in reps]
        info["reps"] = [{"wall_s": r["wall_s"], "cpu_s": r["cpu_s"],
                         "docs": r["docs"],
                         "coords": r["coords"], **r.get("layers", {})}
                        for r in reps]
        if args.trace:
            span_dir = os.path.join(tmp, "spans")
            tracer = trace.Tracer(span_dir)
            with trace.PlanCapture() as cap:
                r = attempt(wl.run, tracer)
            if r is not None:
                run_checks(attempt(wl.check, r))
                r.pop("out", None)
                ops = trace.operator_metrics(cap.dataset_stats(),
                                             r["wall_s"],
                                             loaded.dataset_stats())
                metrics.update(ops["totals"])
                info["operators"] = ops["operators"]
                info["job_layers"] = r.get("layers", {})
                metrics["trace.overhead_s"] = r["wall_s"] - _median(walls)
                metrics["trace.job_wall_s"] = r["wall_s"]
            layer_rates, info["layer_batches"] = layers.measure(
                args.seed, tracer)
            metrics.update(layer_rates)
            spans = tracer.spans()
            metrics["trace.spans"] = len(spans)
            info["spans"] = spans
            info["self_times"] = trace.self_times(spans)
        else:
            metrics["setup_s"] = info["driver_import_s"] + _median(setups)
            metrics["docs_per_cpu_s"] = _median(
                [r["docs"] / r["cpu_s"] for r in reps])
            metrics["coords_per_cpu_s"] = _median(
                [r["coords"] / r["cpu_s"] for r in reps])
            info["docs_per_s"] = _median(
                [r["docs"] / r["wall_s"] for r in reps])
            info["coords_per_s"] = _median(
                [r["coords"] / r["wall_s"] for r in reps])
            metrics["driver_peak_rss_mb"] = _median(rss)
    finally:
        session.stop()
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(tmp_root)  # only when no other run is using it

    if not args.trace:
        metrics["ops_ok_frac"] = 1.0 - failed / max(attempted, 1)
    correct = failed == 0 and bool(reps)
    units = _units()
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units.get(k, "")}
                          for k, v in metrics.items()}}
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "smoke": args.smoke, "host": fp, "setup_samples_s": setups,
              "ops_failed_frac": failed / max(attempted, 1),
              "ray_temp_dir": session.temp_dir or "ray default",
              "checks": checks, "errors": errors, **info}
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{args.workload}-seed{args.seed}-"
                           f"trace{args.trace}.json"), "w") as f:
        json.dump({**detail, "result": result}, f, indent=1, default=str)
    detail.pop("spans", None)
    print(json.dumps(detail, default=str))
    print(json.dumps(result))
    return 0


def _units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"]
            for m in bench["end_to_end"] + bench["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
