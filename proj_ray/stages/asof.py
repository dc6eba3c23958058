"""Distributed backward as-of join (the temporal lookup Ray Data lacks).

For every left row, attach the right row with the SAME key and the
GREATEST time at-or-before the left row's time (DuckDB `ASOF LEFT JOIN
ON l.key = r.key AND l.ts >= r.ts` semantics, which is the oracle).

Shape: both sides hash-partition by key into one __part space (all rows
of a key co-locate — the partitioning assumption this operator relies
on); one groupby(__part).map_groups resolves each partition fully
vectorized:

  sort by (key, time, side) with right rows first at equal times
  -> running maximum.accumulate over right-row positions
  -> a left row's candidate is the latest right position before it;
     it matches iff that candidate carries the same key (positions are
     monotone in the key-major order, so a candidate from the previous
     key means "no right row for this key at-or-before t").

No per-row Python, no per-key loop, no Acero joins.  Skew: a
pathologically hot key would land in one partition; pass `hot_keys`
(detected via `detect_hot_keys`, the groupby-count-sampling shape) and
those keys are SECONDARILY partitioned by coarse time bucket, with one
"carry" right row per (hot key, bucket) — the latest right row before
the bucket's start — injected so every bucket resolves locally with
unchanged semantics.  Carry volume is bounded by hot_keys x buckets.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

def _time_i64(arr: np.ndarray) -> np.ndarray:
    if arr.dtype.kind == "M":
        return arr.astype("datetime64[us]").view(np.int64)
    return arr.astype(np.int64)


def detect_hot_keys(ds, key: str, min_frac: float = 0.05) -> np.ndarray:
    """Keys carrying at least `min_frac` of the dataset's rows — the
    groupby-count-sampling skew probe.  The count reduction is
    hash-partitioned (key universe is unbounded) and only the filtered
    result (at most 1/min_frac keys by construction) reaches the
    driver."""
    from proj_ray.stages.agg import hash_shuffle_aggregate

    counts = hash_shuffle_aggregate(ds, [key],
                                    [("__n", "count")]).materialize()
    total = sum(r["__n"] for r in
                counts.map_batches(
                    lambda t: pa.table({"__n": pa.array(
                        [t.column("__n").to_numpy(
                            zero_copy_only=False).sum()])}),
                    batch_format="pyarrow", batch_size=None).take_all())
    cut = max(1, int(min_frac * total))

    def over(t: pa.Table) -> pa.Table:
        n = t.column("__n").to_numpy(zero_copy_only=False)
        return t.filter(pa.array(n >= cut))

    hot = counts.map_batches(over, batch_format="pyarrow").take_all()
    return np.sort(np.array([r[key] for r in hot], dtype=np.int64))


def asof_join(left_ds, right_ds, key: str, time: str,
              num_partitions: int | None = None,
              hot_keys=None, time_buckets: int = 8):
    """Backward (inclusive) as-of join of two Datasets on integer `key`
    and orderable `time` (timestamps or numerics).  Returns the left
    rows with the matched right row's payload columns appended (nulls
    where no right row is at-or-before).  Right payload column names
    must not collide with left columns — rename before joining.

    `num_partitions` defaults to a size-derived count (one partition
    per ~256 MB of input, VERDICT r3 finding #4) so large corpora
    don't silently funnel through 32 tasks.

    `hot_keys` (from `detect_hot_keys`, or known a priori) breaks key
    skew: each hot key's rows spread over `time_buckets` dedicated
    partitions by equal-width time bucket, and per (hot key, bucket)
    one carry row — the latest right row strictly before the bucket
    start — is injected, so the in-bucket backward scan sees exactly
    what the whole-key scan would have."""
    from proj_ray.stages.partitioning import (derive_num_partitions,
                                              key_partition)

    if num_partitions is None:
        num_partitions = derive_num_partitions(left_ds, right_ds,
                                               default=32)
    lsch = left_ds.schema()
    rsch = right_ds.schema()
    left_cols = list(lsch.names)
    right_payload = [c for c in rsch.names if c not in (key, time)]
    clash = set(left_cols) & set(right_payload)
    if clash:
        raise ValueError(f"asof_join: right payload columns collide with "
                         f"left columns: {sorted(clash)}; rename first")
    all_cols = left_cols + right_payload
    union_types = dict(zip(lsch.names, lsch.types))
    union_types.update(zip(rsch.names, rsch.types))

    hot = None
    tmin = tmax = 0
    if hot_keys is not None:
        hot = np.unique(np.asarray(list(hot_keys), dtype=np.int64))
        if len(hot) == 0:
            hot = None
    if hot is not None:
        # equal-width bucket boundaries need the hot rows' time range:
        # one cheap (min, max) partial pass over each side's hot rows
        def minmax(t: pa.Table) -> pa.Table:
            k = t.column(key).to_numpy(zero_copy_only=False)
            pos = np.minimum(np.searchsorted(hot, k), len(hot) - 1)
            tm = _time_i64(t.column(time)
                           .to_numpy(zero_copy_only=False))[hot[pos] == k]
            if len(tm) == 0:
                return pa.table({"lo": pa.array([], type=pa.int64()),
                                 "hi": pa.array([], type=pa.int64())})
            return pa.table({"lo": pa.array([tm.min()]),
                             "hi": pa.array([tm.max()])})

        def minmax_fold(t: pa.Table) -> pa.Table:
            lo_ = t.column("lo").to_numpy(zero_copy_only=False)
            hi_ = t.column("hi").to_numpy(zero_copy_only=False)
            if len(lo_) == 0:
                return t
            return pa.table({"lo": pa.array([int(lo_.min())]),
                             "hi": pa.array([int(hi_.max())])})

        # fan-in before the driver fold (bloom_build exchange shape)
        rows = (left_ds.map_batches(minmax, batch_format="pyarrow")
                .union(right_ds.map_batches(minmax,
                                            batch_format="pyarrow"))
                .repartition(8)
                .map_batches(minmax_fold, batch_format="pyarrow",
                             batch_size=None)
                .take_all())
        if rows:
            tmin = min(r["lo"] for r in rows)
            tmax = max(r["hi"] for r in rows)
        else:
            hot = None  # no hot rows anywhere: plain path

    def _hot_parts(k: np.ndarray, tm: np.ndarray) -> np.ndarray:
        """Partition ids with hot keys remapped to their dedicated
        (key rank, time bucket) slots above the hash space."""
        part = key_partition(pa.array(k), num_partitions)
        if hot is None:
            return part
        pos = np.minimum(np.searchsorted(hot, k), len(hot) - 1)
        is_hot = hot[pos] == k
        span = max(tmax - tmin, 1)
        bkt = np.clip((tm - tmin) * time_buckets // span, 0,
                      time_buckets - 1)
        return np.where(is_hot,
                        num_partitions + pos * time_buckets + bkt,
                        part)

    def widen(side: int):
        def fn(t: pa.Table) -> pa.Table:
            n = len(t)
            cols = {}
            for c in all_cols:
                if c in t.column_names:
                    cols[c] = t.column(c)
                else:
                    cols[c] = pa.nulls(n, type=union_types[c])
            cols["__side"] = pa.array(np.full(n, side, dtype=np.int8))
            k = t.column(key).to_numpy(zero_copy_only=False)
            tm = _time_i64(t.column(time).to_numpy(zero_copy_only=False))
            cols["__part"] = pa.array(_hot_parts(k, tm))
            return pa.table(cols)

        return fn

    both = left_ds.map_batches(widen(1), batch_format="pyarrow").union(
        right_ds.map_batches(widen(0), batch_format="pyarrow"))

    if hot is not None:
        # one carry right row per (hot key, bucket): the latest right
        # row strictly BEFORE the bucket start.  Per (key, bucket)
        # latest rows reduce distributed (bounded: hot x buckets
        # groups); the forward fill across buckets is driver-side over
        # that bounded set.
        import ray.data as rd

        def right_hot_latest(t: pa.Table) -> pa.Table:
            k = t.column(key).to_numpy(zero_copy_only=False)
            pos = np.minimum(np.searchsorted(hot, k), len(hot) - 1)
            sel = hot[pos] == k
            t = t.filter(pa.array(sel))
            if len(t) == 0:
                return t.append_column(
                    "__bkt", pa.array([], type=pa.int64()))
            k = k[sel]
            tm = _time_i64(t.column(time).to_numpy(zero_copy_only=False))
            span = max(tmax - tmin, 1)
            bkt = np.clip((tm - tmin) * time_buckets // span, 0,
                          time_buckets - 1)
            t = t.append_column("__bkt", pa.array(bkt))
            # per-batch combiner: keep only the latest row per
            # (key, bucket) before the bounded group reduce
            order = np.lexsort((tm, bkt, k))
            ks, bs = k[order], bkt[order]
            last = np.empty(len(order), dtype=bool)
            last[-1] = True
            last[:-1] = (ks[1:] != ks[:-1]) | (bs[1:] != bs[:-1])
            return t.take(pa.array(np.sort(order[last])))

        def group_latest(t: pa.Table) -> pa.Table:
            tm = _time_i64(t.column(time).to_numpy(zero_copy_only=False))
            return t.take(pa.array([int(np.argmax(tm))]))

        latest = (right_ds.map_batches(right_hot_latest,
                                       batch_format="pyarrow")
                  .groupby([key, "__bkt"])
                  .map_groups(group_latest, batch_format="pyarrow")
                  .take_all())
        if latest:
            carry_src = []   # source row index in `latest`
            carry_bkt = []   # destination bucket
            by_key: dict = {}
            for i, r in enumerate(latest):
                by_key.setdefault(int(r[key]), []).append(
                    (int(r["__bkt"]), i))
            for _k, lst in by_key.items():
                lst.sort()
                run = None
                nxt = 0
                for b in range(time_buckets):
                    if run is not None:
                        carry_src.append(run)
                        carry_bkt.append(b)
                    while nxt < len(lst) and lst[nxt][0] == b:
                        run = lst[nxt][1]
                        nxt += 1
            if carry_src:
                n = len(carry_src)
                cols = {}
                for c in all_cols:
                    if c in rsch.names:
                        vals = [latest[i][c] for i in carry_src]
                        cols[c] = pa.array(vals, type=union_types[c])
                    else:
                        cols[c] = pa.nulls(n, type=union_types[c])
                cols["__side"] = pa.array(
                    np.zeros(n, dtype=np.int8))
                kk = np.array([int(latest[i][key]) for i in carry_src],
                              dtype=np.int64)
                rank = np.searchsorted(hot, kk)
                cols["__part"] = pa.array(
                    num_partitions + rank * time_buckets
                    + np.asarray(carry_bkt, dtype=np.int64))
                both = both.union(rd.from_arrow(pa.table(cols)))

    def resolve(t: pa.Table) -> pa.Table:
        side = t.column("__side").to_numpy(zero_copy_only=False)
        k = t.column(key).to_numpy(zero_copy_only=False)
        tm = t.column(time).to_numpy(zero_copy_only=False)
        if tm.dtype.kind == "M":
            tm = tm.view(np.int64)
        # right rows (side 0) first at equal (key, time) -> inclusive >=
        order = np.lexsort((side, tm, k))
        ks, ss = k[order], side[order]
        n = len(order)
        marker = np.where(ss == 0, np.arange(n, dtype=np.int64), -1)
        latest_right = np.maximum.accumulate(marker)
        sel = ss == 1
        cand = latest_right[sel]
        valid = cand >= 0
        valid[valid] &= ks[cand[valid]] == ks[sel][valid]
        left_idx = pa.array(order[sel])
        ridx = order[np.maximum(cand, 0)]
        right_take = pa.array(np.where(valid, ridx, 0).astype(np.int64),
                              type=pa.int64(), mask=~valid)
        import pyarrow.compute as pc

        cols = {}
        for c in left_cols:
            cols[c] = pc.take(t.column(c), left_idx)
        for c in right_payload:
            cols[c] = pc.take(t.column(c), right_take)
        return pa.table(cols)

    return both.groupby("__part").map_groups(resolve,
                                             batch_format="pyarrow")
