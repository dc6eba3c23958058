"""`ray job submit`-style entrypoint: python -m proj_ray.job ...

The production launch shape the north rule names: submit THIS module
as the job script on a cluster (`ray job submit -- python -m
proj_ray.job flagship --n-docs ... --root ...`); in the sandbox it
runs against the local cluster the same way.  Ray is initialised only
if the job runner didn't already provide a session, so the module also
works under a driver that owns ray.init.

Subcommands
-----------
query     run any registered pipeline from queries() over an sf dir
          and write the result as partitioned parquet (one file per
          block — a failed run re-submits and overwrites only its own
          output dir).
flagship  run the resumable sharded flagship: doc-id-range partitions
          through per-partition checkpoint manifests (lineage +
          metrics); re-submitting after a failure recomputes ONLY
          shards without a valid manifest.  --shards sets only the
          checkpoint granularity; the task count comes from the
          cluster (min(pending shards, cluster CPUs) Ray tasks, each
          working through a contiguous group of pending shards).
"""

from __future__ import annotations

import argparse
import json
import sys


def _ensure_ray():
    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False,
                 logging_level="ERROR")


def _run_query(args) -> dict:
    import pandas as pd
    import pyarrow as pa

    from proj_ray.pipelines.queries import build_queries

    _ensure_ray()
    fn = build_queries()[args.name]
    res = fn(args.sf_dir)
    if isinstance(res, pd.DataFrame):
        res = __import__("ray").data.from_pandas(res)
    elif isinstance(res, pa.Table):
        res = __import__("ray").data.from_arrow(res)
    n = res.count()
    res.write_parquet(args.output)
    return {"query": args.name, "rows": int(n), "output": args.output}


def _run_flagship(args) -> dict:
    from proj_ray.pipelines.flagship import resumable_flagship

    _ensure_ray()
    tiles, computed, skipped = resumable_flagship(
        args.n_docs, args.shards, args.root)
    return {"pipeline": "flagship", "tiles": tiles.num_rows,
            "shards_computed": computed, "shards_skipped": skipped,
            "root": args.root}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="proj_ray.job")
    sub = p.add_subparsers(dest="cmd", required=True)

    q = sub.add_parser("query")
    q.add_argument("--name", required=True)
    q.add_argument("--sf-dir", required=True)
    q.add_argument("--output", required=True)

    f = sub.add_parser("flagship")
    f.add_argument("--n-docs", type=int, required=True)
    f.add_argument("--shards", type=int, default=8)
    f.add_argument("--root", required=True)

    args = p.parse_args(argv)
    out = _run_query(args) if args.cmd == "query" else _run_flagship(args)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
