"""Distributed quantiles: a mergeable histogram sketch for corpus-scale
approximate quantiles, and exact per-group quantiles for keyed use.

Quantile is a holistic aggregate — no bounded partial exists — so the
scale path is a SKETCH: each batch reduces to a fixed-size histogram
(counts over `bins` equal-width cells between the global min/max),
histograms add, and quantiles interpolate from the merged counts.
Error is bounded by one cell width ((max-min)/bins) in VALUE space,
deterministic, and the reduction is a pure sum — it runs as a
tree/streaming aggregate with O(bins) state no matter the corpus size.
Two passes over the data (min/max, then counts); both stream.

For keyed quantiles over BOUNDED key cardinality (priorities, status
codes, languages) the exact path hash-shuffles each key's values to one
partition and computes numpy linear-interpolation quantiles — the same
semantics as SQL quantile_cont, which is the oracle.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

_MIX = np.uint64(0x9E3779B97F4A7C15)


def approx_quantiles(ds, col: str, qs, bins: int = 4096):
    """Approximate quantiles of `col` with value-space error at most
    (max - min) / bins.  Returns a dict {q: value}.  Deterministic."""
    import ray

    def minmax(t: pa.Table) -> pa.Table:
        v = t.column(col).to_numpy(zero_copy_only=False)
        v = v[np.isfinite(v)]
        if len(v) == 0:
            return pa.table({"lo": pa.array([], type=pa.float64()),
                             "hi": pa.array([], type=pa.float64())})
        return pa.table({"lo": pa.array([float(v.min())]),
                         "hi": pa.array([float(v.max())])})

    def minmax_fold(t: pa.Table) -> pa.Table:
        lo_ = t.column("lo").to_numpy(zero_copy_only=False)
        hi_ = t.column("hi").to_numpy(zero_copy_only=False)
        if len(lo_) == 0:
            return t
        return pa.table({"lo": pa.array([float(lo_.min())]),
                         "hi": pa.array([float(hi_.max())])})

    # fan-in before the driver fold: the driver sees O(fanout)
    # partials, not O(n_blocks) (the bloom_build exchange shape)
    parts = ds.map_batches(minmax, batch_format="pyarrow") \
        .repartition(8).map_batches(minmax_fold,
                                    batch_format="pyarrow",
                                    batch_size=None).take_all()
    if not parts:
        return {float(q): float("nan") for q in np.atleast_1d(qs)}
    lo = min(p["lo"] for p in parts)
    hi = max(p["hi"] for p in parts)
    if hi <= lo:
        return {float(q): lo for q in np.atleast_1d(qs)}
    width = (hi - lo) / bins

    def hist(t: pa.Table) -> pa.Table:
        v = t.column(col).to_numpy(zero_copy_only=False)
        v = v[np.isfinite(v)]
        idx = np.minimum(((v - lo) / width).astype(np.int64), bins - 1)
        counts = np.bincount(idx, minlength=bins)
        return pa.table({"h": pa.array([counts.tobytes()],
                                       type=pa.binary())})

    def hist_fold(t: pa.Table) -> pa.Table:
        acc = np.zeros(bins, dtype=np.int64)
        for b in t.column("h"):
            acc += np.frombuffer(b.as_py(), dtype=np.int64)
        return pa.table({"h": pa.array([acc.tobytes()],
                                       type=pa.binary())})

    total = np.zeros(bins, dtype=np.int64)
    folded = ds.map_batches(hist, batch_format="pyarrow") \
        .repartition(8).map_batches(hist_fold, batch_format="pyarrow",
                                    batch_size=None)
    for row in folded.take_all():
        total += np.frombuffer(row["h"], dtype=np.int64)
    cum = np.cumsum(total)
    n = cum[-1]
    out = {}
    for q in np.atleast_1d(qs):
        target = q * n
        cell = int(np.searchsorted(cum, target, side="left"))
        cell = min(cell, bins - 1)
        # interpolate within the cell by rank
        prev = cum[cell - 1] if cell else 0
        in_cell = total[cell]
        frac = ((target - prev) / in_cell) if in_cell else 0.0
        out[float(q)] = lo + width * (cell + frac)
    return out


def group_quantiles(ds, key: str, col: str, qs,
                    out_names=None, num_partitions: int = 8,
                    round_to: int | None = 6):
    """EXACT per-key quantiles (numpy linear interpolation — SQL
    quantile_cont semantics).  Holistic: each key's values co-locate
    via one hash shuffle, so this is for BOUNDED key cardinality
    (statuses, priorities, languages); unbounded keys or single huge
    keys should use approx_quantiles per slice instead."""
    from proj_ray.stages.partitioning import keyed_apply

    qs = [float(q) for q in np.atleast_1d(qs)]
    if out_names is None:
        out_names = [f"q{int(q * 100)}" for q in qs]

    def resolve(t: pa.Table) -> pa.Table:
        import pandas as pd

        kv = t.column(key).to_pandas()
        v = t.column(col).to_numpy(zero_copy_only=False)
        df = pd.DataFrame({key: kv, "__v": v})
        rows = {key: [], **{n: [] for n in out_names}}
        for g, sub in df.groupby(key, sort=True):
            vals = np.sort(sub["__v"].to_numpy())
            res = np.quantile(vals, qs, method="linear")
            rows[key].append(g)
            for n, r in zip(out_names, res):
                rows[n].append(round(float(r), round_to)
                               if round_to is not None else float(r))
        return pa.table(rows)

    return keyed_apply(ds, key, resolve, num_partitions)
