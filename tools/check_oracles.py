#!/usr/bin/env python
"""Local stand-in for the driver's correctness gate: run every
queries() entry and its oracle_sql() twin on the same sf dir, compare
row count, schema width, order-insensitive values AND dtype kinds
(the driver's value-hash is byte-exact, so an engine int64 vs an
oracle HUGEINT->float64 fails there even when values match — r4's two
red rows; the local gate must be at least as strict).

Usage: python tools/check_oracles.py [--json OUT.json] [sf_dir] [query ...]

A query name that is not in build_queries() exits 1 before anything runs.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

import duckdb  # noqa: E402
import numpy as np  # noqa: E402
import pandas as pd  # noqa: E402

TABLES = ("region nation customer supplier part orders lineitem events "
          "documents embeddings").split()


def to_pandas(res):
    import pyarrow as pa

    if isinstance(res, pd.DataFrame):
        return res
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res.to_pandas()  # ray Dataset


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def compare(name, mine: pd.DataFrame, want: pd.DataFrame) -> str:
    if len(mine) != len(want):
        return f"ROWCOUNT {len(mine)} vs {len(want)}"
    if sorted(mine.columns) != sorted(want.columns):
        return f"SCHEMA {sorted(mine.columns)} vs {sorted(want.columns)}"
    a = canon(mine)
    b = canon(want)
    for c in a.columns:
        av, bv = a[c].to_numpy(), b[c].to_numpy()
        if av.dtype.kind != bv.dtype.kind:
            return (f"DTYPE col {c}: {av.dtype} vs {bv.dtype} "
                    f"(driver value-hash is byte-exact — cast the "
                    f"oracle or the engine output)")
        if av.dtype.kind == "f" or bv.dtype.kind == "f":
            ok = np.allclose(av.astype(float), bv.astype(float),
                             atol=0, rtol=0, equal_nan=True)
        else:
            ok = (av == bv).all()
        if not ok:
            idx = int(np.argmax(~(av == bv)) if av.dtype.kind != "f" else
                      np.argmax(~np.isclose(av.astype(float),
                                            bv.astype(float), atol=0,
                                            rtol=0, equal_nan=True)))
            return (f"VALUES col {c} row {idx}: {av[idx]!r} vs {bv[idx]!r}")
    return "OK"


def main():
    argv = sys.argv[1:]
    json_out = None
    if argv and argv[0] == "--json":
        json_out = argv[1]
        argv = argv[2:]
    sf_dir = argv[0] if argv else "/root/testdata/sf0.001"
    only = set(argv[1:])

    from proj_ray.pipelines.queries import build_oracles, build_queries

    queries = build_queries()
    oracles = build_oracles()
    unknown = sorted(only - set(queries))
    if unknown:
        print(f"unknown queries: {', '.join(unknown)}")
        sys.exit(1)

    import ray

    ray.init(address="local",
             num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "8")),
             include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False

    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM "
            f"read_parquet('{sf_dir}/{t}.parquet')")

    failures = 0
    results = {}
    for name, fn in queries.items():
        if only and name not in only:
            continue
        try:
            mine = to_pandas(fn(sf_dir))
        except Exception as e:
            print(f"{name:24s} ENGINE ERROR: {type(e).__name__}: {e}")
            failures += 1
            results[name] = {"rows_match": None, "schema_match": None,
                             "hash_match": None, "engine_rows": None,
                             "oracle_rows": None,
                             "err": f"engine: {type(e).__name__}: {e}"}
            continue
        if name not in oracles:
            print(f"{name:24s} rows-only ({len(mine)} rows)")
            results[name] = {"rows_match": None, "schema_match": None,
                             "hash_match": None,
                             "engine_rows": int(len(mine)),
                             "oracle_rows": None, "err": "no_oracle"}
            continue
        try:
            want = con.execute(oracles[name]).df()
        except Exception as e:
            print(f"{name:24s} ORACLE ERROR: {type(e).__name__}: {e}")
            failures += 1
            results[name] = {"rows_match": None, "schema_match": None,
                             "hash_match": None,
                             "engine_rows": int(len(mine)),
                             "oracle_rows": None,
                             "err": f"oracle: {type(e).__name__}: {e}"}
            continue
        verdict = compare(name, mine, want)
        status = "ok" if verdict == "OK" else "FAIL"
        if verdict != "OK":
            failures += 1
        results[name] = {
            "rows_match": len(mine) == len(want),
            "schema_match": sorted(mine.columns) == sorted(want.columns),
            "hash_match": verdict == "OK",
            "engine_rows": int(len(mine)), "oracle_rows": int(len(want)),
            "err": None if verdict == "OK" else verdict}
        print(f"{name:24s} {status}  ({len(mine)} rows)"
              + ("" if verdict == "OK" else f"  {verdict}"))
    if json_out:
        import json

        with open(json_out, "w") as f:
            json.dump({"sf_dir": sf_dir,
                       "num_queries": len(results),
                       "failures": failures,
                       "results": results}, f, indent=1)
        print(f"wrote {json_out} ({len(results)} queries, "
              f"{failures} failures)")
    ray.shutdown()
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
