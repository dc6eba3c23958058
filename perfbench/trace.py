"""Tracing for the benchmark's traced run, measured from outside proj_ray.

Three sources, none of which changes program code:

* ``Tracer`` spans recorded by the harness around its calls into each
  layer.  A span has a name, start, end and parent; worker-side spans
  come from ``traced_udf`` wrappers the harness puts around the UDFs it
  hands to Ray Data, and reach the driver through one JSON-lines file
  per worker process.
* ``PlanCapture`` wraps Ray Data's plan execution so that every dataset
  executed during a traced job, including the ones proj_ray builds
  internally, is kept, and then reads each one's ``DatasetStats``.
* Self time: a span's duration minus the part of it covered by its
  children.
"""

from __future__ import annotations

import functools
import glob
import itertools
import json
import os
import re
import time
from typing import Dict, List, Optional

_SPAN_IDS = itertools.count(1)


class Tracer:
    """Driver-side span recorder; spans stay in memory until ``spans``."""

    def __init__(self, span_dir: str):
        self.span_dir = span_dir
        self._spans: List[dict] = []
        self._stack: List[str] = []
        os.makedirs(span_dir, exist_ok=True)

    @property
    def current(self) -> Optional[str]:
        return self._stack[-1] if self._stack else None

    def span(self, name: str):
        return _Span(self, name)

    def spans(self) -> List[dict]:
        """Driver spans plus every span the workers wrote."""
        out = list(self._spans)
        for path in sorted(glob.glob(os.path.join(self.span_dir, "*.jsonl"))):
            with open(path) as f:
                out.extend(json.loads(line) for line in f if line.strip())
        return out


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name
        self.id = f"d{next(_SPAN_IDS)}"

    def __enter__(self):
        self.parent = self.tracer.current
        self.tracer._stack.append(self.id)
        self.start = time.time()
        return self

    def __exit__(self, *exc):
        end = time.time()
        self.tracer._stack.pop()
        self.tracer._spans.append({
            "id": self.id, "name": self.name, "parent": self.parent,
            "start": self.start, "end": end, "pid": os.getpid()})
        return False


def traced_udf(fn, name: str, parent: Optional[str], span_dir: str):
    """Wrap a map_batches UDF so each call records a worker-side span.

    The wrapper keeps ``fn``'s name, so Ray Data names the operator the
    same in traced and untraced runs."""

    @functools.wraps(fn)
    def wrapper(batch, *args, **kwargs):
        start = time.time()
        out = fn(batch, *args, **kwargs)
        end = time.time()
        pid = os.getpid()
        rec = {"id": f"w{pid}-{start!r}", "name": name, "parent": parent,
               "start": start, "end": end, "pid": pid}
        with open(os.path.join(span_dir, f"{pid}.jsonl"), "a") as f:
            f.write(json.dumps(rec) + "\n")
        return out

    return wrapper


def self_times(spans: List[dict]) -> Dict[str, dict]:
    """Per span name: count, total duration and total self time (s)."""
    children: Dict[str, List[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out: Dict[str, dict] = {}
    for s in spans:
        lo, hi = s["start"], s["end"]
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start"]):
            a, b = max(c["start"], lo), min(c["end"], hi)
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        agg = out.setdefault(s["name"], {"count": 0, "total_s": 0.0,
                                         "self_s": 0.0})
        agg["count"] += 1
        agg["total_s"] += hi - lo
        agg["self_s"] += (hi - lo) - covered
    return out


class PlanCapture:
    """Record every Ray Data plan executed while active."""

    def __init__(self):
        self.records: List[tuple] = []

    def __enter__(self):
        from ray.data._internal.plan import ExecutionPlan

        self._cls = ExecutionPlan
        self._execute = ExecutionPlan.execute
        self._execute_to_iterator = ExecutionPlan.execute_to_iterator
        records = self.records
        orig_execute = self._execute
        orig_iter = self._execute_to_iterator

        def execute(plan, *args, **kwargs):
            out = orig_execute(plan, *args, **kwargs)
            records.append((plan, None))
            return out

        def execute_to_iterator(plan, *args, **kwargs):
            out = orig_iter(plan, *args, **kwargs)
            records.append((plan, out[2]))
            return out

        ExecutionPlan.execute = execute
        ExecutionPlan.execute_to_iterator = execute_to_iterator
        return self

    def __exit__(self, *exc):
        self._cls.execute = self._execute
        self._cls.execute_to_iterator = self._execute_to_iterator
        return False

    def dataset_stats(self) -> list:
        out = []
        for plan, executor in self.records:
            out.append(executor.get_stats() if executor is not None
                       else plan.stats())
        return out


def _norm(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", name).strip("_") or "op"


def operator_metrics(all_stats: list, wall_s: float,
                     before: list = ()) -> dict:
    """Per-operator stage/exchange figures from captured DatasetStats.
    Datasets in ``before`` (inputs materialized ahead of the job) and
    their tasks are not counted when the job's stats repeat them.

    A DatasetStats with one metadata entry is a stage (read or fused
    map); one with several is an all-to-all exchange whose entries are
    its sub-operators.  Each task's exec stats are counted once, at the
    first operator that reports them: Ray Data repeats the upstream
    task stats under some sub-operators and every downstream dataset
    repeats its parents."""
    seen_ds = set()
    seen_tasks = set()
    stages: Dict[str, dict] = {}
    exchanges: Dict[str, dict] = {}

    def key(st):
        return id(st) if st.dataset_uuid == "unknown_uuid" \
            else st.dataset_uuid

    def mark(st):
        seen_ds.add(key(st))
        for p in st.parents:
            mark(p)
        for blocks in st.metadata.values():
            for b in blocks:
                e = b.exec_stats
                if e is not None and e.start_time_s is not None:
                    seen_tasks.add((e.start_time_s, e.end_time_s,
                                    e.wall_time_s))

    def visit(st):
        if key(st) in seen_ds:
            return
        seen_ds.add(key(st))
        for p in st.parents:
            visit(p)
        if not st.metadata:
            return
        exchange = len(st.metadata) > 1
        name = _norm(st.base_name if exchange else next(iter(st.metadata)))
        table = exchanges if exchange else stages
        rec = table.setdefault(name, {
            "wall_s": 0.0, "cpu_s": 0.0, "udf_s": 0.0, "rows_out": 0,
            "bytes_out": 0, "peak_heap_mb": 0.0, "tasks": 0})
        entries = list(st.metadata.values())
        for i, blocks in enumerate(entries):
            last = i == len(entries) - 1
            for b in blocks:
                e = b.exec_stats
                if e is None or e.start_time_s is None:
                    continue
                if not exchange or last:
                    rec["rows_out"] += b.num_rows or 0
                    rec["bytes_out"] += b.size_bytes or 0
                tkey = (e.start_time_s, e.end_time_s, e.wall_time_s)
                if tkey in seen_tasks:
                    continue
                seen_tasks.add(tkey)
                rec["tasks"] += 1
                rec["wall_s"] += e.wall_time_s or 0.0
                rec["cpu_s"] += e.cpu_time_s or 0.0
                rec["udf_s"] += e.udf_time_s or 0.0
                rec["peak_heap_mb"] = max(
                    rec["peak_heap_mb"], (e.max_uss_bytes or 0) / 2**20)

    for st in before:
        mark(st)
    for st in all_stats:
        visit(st)
    remote = sum(r["wall_s"] for r in itertools.chain(
        stages.values(), exchanges.values()))
    totals = {
        "stage.tasks": sum(r["tasks"] for r in itertools.chain(
            stages.values(), exchanges.values())),
        # one Ray CPU runs one task at a time, so the job's wall time
        # not covered by remote task time is scheduling, object
        # transfer and driver-side work
        "stage.ray_overhead_s": wall_s - remote,
        "stage.wall_s": sum(r["wall_s"] for r in stages.values()),
        "stage.cpu_s": sum(r["cpu_s"] for r in stages.values()),
        "stage.udf_s": sum(r["udf_s"] for r in stages.values()),
        "stage.rows_out": sum(r["rows_out"] for r in stages.values()),
        "stage.bytes_out": sum(r["bytes_out"] for r in stages.values()),
        "stage.peak_heap_mb": max(
            [r["peak_heap_mb"] for r in stages.values()] or [0.0]),
    }
    detail = {}
    for name, r in stages.items():
        for k, v in r.items():
            detail[f"stage.{name}.{k}"] = v
    for name, r in exchanges.items():
        for k in ("wall_s", "rows_out", "bytes_out"):
            detail[f"exchange.{name}.{k}"] = r[k]
    return {"totals": totals, "operators": detail}
