"""Event-time windowing beyond tumbling windows: gap-based
sessionization and grouped top-k.

Sessionization (the classic streaming "session window"): consecutive
events of one key belong to the same session while the gap between
them stays under `gap`; a longer silence starts a new session.  Batch
shape: all rows of a key co-locate via ONE hash-partition shuffle, then
each partition resolves vectorized — sort by (key, time), session
starts are `new-key OR gap-exceeded`, session ids are a cumsum.  The
same result a stateful stream processor computes with watermarks falls
out of a sort within each partition (event-time processing over a
bounded slice); late data is simply part of the sort.

Grouped top-k: per-batch C++ selection first (every batch emits at most
k rows per key it contains), then one hash-partition shuffle of the
bounded partials and an exact per-partition refine — the combiner
pattern the kNN/ANN stages use, generalized to any (key, score)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from proj_ray.stages.partitioning import key_spans, keyed_apply


def _np(t: pa.Table, col: str) -> np.ndarray:
    return t.column(col).to_numpy(zero_copy_only=False)


def _by(col: str, tiebreak: str | None) -> tuple:
    return (col,) if tiebreak is None else (col, tiebreak)


def _new_value(v: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Mask of rows that start a key run or change the sorted value."""
    new = np.ones(len(v), dtype=bool)
    new[1:] = v[1:] != v[:-1]
    new[starts] = True
    return new


def sessionize(ds, key: str, time: str, gap_s: float,
               num_partitions: int | None = None, tiebreak: str | None = None):
    """Assign (session_id, session_seq) to every row: session_id counts
    a key's sessions in time order starting at 0; session_seq is the
    row's position within its session.  Gap semantics: a row starts a
    NEW session iff its distance to the previous row of the same key
    is STRICTLY greater than `gap_s` seconds (ties stay in-session),
    matching `ts - lag(ts) > INTERVAL gap` in SQL.  `tiebreak` names a
    column ordering equal-time rows (session_seq is otherwise
    nondeterministic under timestamp ties)."""
    def resolve(t: pa.Table) -> pa.Table:
        tm = _np(t, time)
        if tm.dtype.kind == "M":
            unit = np.datetime_data(tm.dtype)[0]
            per_s = {"s": 1, "ms": 10**3, "us": 10**6, "ns": 10**9}[unit]
            tv = tm.view(np.int64)
            gap = gap_s * per_s
        else:
            tv = tm.astype(np.float64)
            gap = gap_s
        starts, counts = key_spans(_np(t, key))
        n = len(t)
        new_sess = np.zeros(n, dtype=bool)
        new_sess[1:] = (tv[1:] - tv[:-1]) > gap
        new_sess[starts] = True
        # session_id restarts at 0 per key: global count of session
        # starts minus the key's first session number
        sess_global = np.cumsum(new_sess) - 1
        session_id = sess_global - np.repeat(sess_global[starts], counts)
        row = np.arange(n, dtype=np.int64)
        session_seq = row - np.maximum.accumulate(
            np.where(new_sess, row, -1))
        return t.append_column("session_id",
                               pa.array(session_id, type=pa.int64())) \
            .append_column("session_seq",
                           pa.array(session_seq, type=pa.int64()))

    return keyed_apply(ds, key, resolve, num_partitions,
                       sort_by=_by(time, tiebreak))


def grouped_top_k(ds, key: str, score: str, k: int,
                  num_partitions: int | None = None, descending: bool = True,
                  tiebreak: str | None = None):
    """Exact per-key top-k by score.  Every batch first reduces to at
    most k rows per key it contains (bounded partial), so the shuffle
    moves O(keys * k), never the corpus; the same reduction then runs
    once per partition.  `tiebreak` orders equal scores (ascending);
    without it, equal-score selection follows block order and is
    nondeterministic across runs."""
    def partial(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return t
        kv = _np(t, key)
        sv = _np(t, score)
        keys = [-sv if descending else sv, kv]
        if tiebreak is not None:
            keys.insert(0, _np(t, tiebreak))
        order = np.lexsort(tuple(keys))
        starts, counts = key_spans(kv[order])
        rank = np.arange(len(order)) - np.repeat(starts, counts)
        return t.take(pa.array(np.sort(order[rank < k])))

    return keyed_apply(ds.map_batches(partial, batch_format="pyarrow"),
                       key, partial, num_partitions)


def assign_sliding_windows(ds, time_col: str, width_s: int, hop_s: int,
                           out_col: str = "window_start"):
    """Hopping (sliding) window fan-out: each row replicates into the
    width/hop epoch-aligned windows containing its event time, tagged
    with the window's start as timestamp[us]; aggregate downstream on
    (out_col, ...).  The fan-out is a stateless vectorized map — the
    stream never sorts or shuffles here, and the blow-up factor is
    exactly width/hop (keep it small at scale; for large ratios use a
    tumbling pre-aggregate at hop granularity and combine hops
    per window instead)."""
    if width_s % hop_s:
        raise ValueError("sliding window: width must be a multiple of hop")
    nwin = width_s // hop_s
    hop_us = hop_s * 1_000_000

    def fan(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ts = t.column(time_col).to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").view(np.int64)
        base = (ts // hop_us) * hop_us
        starts = (base[:, None]
                  - np.arange(nwin, dtype=np.int64)[None, :] * hop_us)
        idx = pa.array(np.repeat(np.arange(len(t), dtype=np.int64), nwin))
        cols = {c: pc.take(t.column(c), idx) for c in t.column_names}
        cols[out_col] = pa.array(starts.ravel().astype("datetime64[us]"))
        return pa.table(cols)

    return ds.map_batches(fan, batch_format="pyarrow")


def keyed_lag(ds, key: str, time: str, value_cols: list[str],
              num_partitions: int | None = None, tiebreak: str | None = None):
    """Row-level window function: for each row, attach the previous
    row's `value_cols` within its key in time order (`{c}_lag`
    columns, null on each key's first row) — SQL's
    ``LAG(c) OVER (PARTITION BY key ORDER BY time)``.  Same shape as
    sessionize: one hash-partition shuffle co-locates each key, then
    every partition resolves with shifted gathers over its sorted
    rows."""
    def resolve(t: pa.Table) -> pa.Table:
        n = len(t)
        first = np.zeros(n, dtype=bool)
        first[key_spans(_np(t, key))[0]] = True
        idx = pa.array(np.maximum(np.arange(n) - 1, 0), type=pa.int64(),
                       mask=first)
        for c in value_cols:
            t = t.append_column(f"{c}_lag", t.column(c).take(idx))
        return t

    return keyed_apply(ds, key, resolve, num_partitions,
                       sort_by=_by(time, tiebreak))


def keyed_dense_rank(ds, key: str, order_col: str,
                     out_col: str = "drank",
                     num_partitions: int | None = None):
    """SQL ``DENSE_RANK() OVER (PARTITION BY key ORDER BY order_col)``:
    rows with equal order values share a rank and ranks are gapless.
    One hash-partition shuffle co-locates each key; every partition
    resolves with a cumulative new-value counter over its sorted rows
    — no per-key loop, no global sort."""
    def resolve(t: pa.Table) -> pa.Table:
        starts, counts = key_spans(_np(t, key))
        # dense rank = count of distinct values seen within the key
        bump = np.cumsum(_new_value(_np(t, order_col), starts))
        rank = bump - np.repeat(bump[starts], counts) + 1
        return t.append_column(out_col, pa.array(rank, type=pa.int64()))

    return keyed_apply(ds, key, resolve, num_partitions,
                       sort_by=(order_col,))


def keyed_cumsum(ds, key: str, time: str, value_cols: list[str],
                 num_partitions: int | None = None, tiebreak: str | None = None):
    """Running totals: SQL's ``SUM(c) OVER (PARTITION BY key ORDER BY
    time ROWS UNBOUNDED PRECEDING)`` — each row gets the cumulative sum
    of `value_cols` over its key's history up to and including itself
    (`{c}_cum` columns).  One key-hash shuffle, then a cumsum per key
    run of the sorted partition."""
    def resolve(t: pa.Table) -> pa.Table:
        starts, counts = key_spans(_np(t, key))
        # the loop is over KEY RUNS (bounded by the partition's
        # distinct keys), each iteration a vectorized cumsum whose
        # sequential-add order matches SQL's running sum bit-for-bit
        # (a global-cumsum-minus-prefix trick would drag other keys'
        # magnitudes into the floats)
        for c in value_cols:
            v = _np(t, c).astype(np.float64)
            cum = np.empty(len(t), dtype=np.float64)
            for s, e in zip(starts, starts + counts):
                cum[s:e] = np.cumsum(v[s:e])
            t = t.append_column(f"{c}_cum", pa.array(cum))
        return t

    return keyed_apply(ds, key, resolve, num_partitions,
                       sort_by=_by(time, tiebreak))


def keyed_ntile(ds, key: str, order_col: str, n_tiles: int,
                num_partitions: int | None = None, tiebreak: str | None = None,
                out_col: str = "tile_no"):
    """SQL NTILE(n) OVER (PARTITION BY key ORDER BY order_col):
    each key's rows split into n rank buckets whose sizes differ by at
    most one (larger buckets first), 1-based like SQL.  Same shape as
    the other keyed window functions: one key-hash shuffle, then
    vectorized rank -> bucket arithmetic over the sorted partition."""
    def resolve(t: pa.Table) -> pa.Table:
        starts, counts = key_spans(_np(t, key))
        rank = np.arange(len(t)) - np.repeat(starts, counts)
        run_len = np.repeat(counts, counts)
        # SQL NTILE: q, rem = divmod(len, n_tiles); buckets 1..rem have
        # q+1 rows, the rest have q
        q, rem = run_len // n_tiles, run_len % n_tiles
        big = rem * (q + 1)
        bucket = np.where(
            rank < big,
            rank // np.maximum(q + 1, 1),
            rem + (rank - big) // np.maximum(q, 1),
        ) + 1
        return t.append_column(out_col, pa.array(bucket, type=pa.int64()))

    return keyed_apply(ds, key, resolve, num_partitions,
                       sort_by=_by(order_col, tiebreak))


def keyed_string_agg(ds, key: str, time: str, value_col: str,
                     sep: str = ",", num_partitions: int | None = None,
                     tiebreak: str | None = None,
                     out_col: str = "agg"):
    """Order-sensitive aggregation: SQL's
    ``string_agg(value, sep ORDER BY time)`` per key.  One key-hash
    shuffle; the join loop is over KEY RUNS (bounded by the
    partition's distinct keys), not rows."""
    def resolve(t: pa.Table) -> pa.Table:
        starts, counts = key_spans(_np(t, key))
        vals = np.asarray(t.column(value_col))
        return pa.table({
            key: t.column(key).take(pa.array(starts, type=pa.int64())),
            out_col: pa.array([sep.join(vals[s:s + c])
                               for s, c in zip(starts, counts)],
                              type=pa.string()),
        })

    return keyed_apply(ds, key, resolve, num_partitions,
                       sort_by=_by(time, tiebreak))


def keyed_lead(ds, key: str, time: str, value_cols: list[str],
               num_partitions: int | None = None, tiebreak: str | None = None):
    """Row-level window function: attach the NEXT row's `value_cols`
    within the key in time order (`{c}_lead` columns, null on each
    key's last row) — SQL's ``LEAD(c) OVER (PARTITION BY key ORDER BY
    time)``.  Mirror image of keyed_lag: one hash-partition shuffle,
    shifted gathers over the sorted partition."""
    def resolve(t: pa.Table) -> pa.Table:
        n = len(t)
        starts, counts = key_spans(_np(t, key))
        last = np.zeros(n, dtype=bool)
        last[starts + counts - 1] = True
        idx = pa.array(np.minimum(np.arange(n) + 1, max(n - 1, 0)),
                       type=pa.int64(), mask=last)
        for c in value_cols:
            t = t.append_column(f"{c}_lead", t.column(c).take(idx))
        return t

    return keyed_apply(ds, key, resolve, num_partitions,
                       sort_by=_by(time, tiebreak))


def keyed_percent_rank(ds, key: str, order_col: str,
                       out_col: str = "prank",
                       num_partitions: int | None = None):
    """SQL ``PERCENT_RANK() OVER (PARTITION BY key ORDER BY
    order_col)`` = (rank - 1) / (key_count - 1), rank with ties
    sharing the first position.  Single-row keys get 0 (SQL's
    convention).  Same shuffle shape as keyed_dense_rank."""
    def resolve(t: pa.Table) -> pa.Table:
        starts, counts = key_spans(_np(t, key))
        pos = np.arange(len(t), dtype=np.int64)
        # rank = first index of the tie run within the key, 1-based
        new_val = _new_value(_np(t, order_col), starts)
        run_first = np.maximum.accumulate(np.where(new_val, pos, 0))
        rank = run_first - np.repeat(starts, counts) + 1
        size = np.repeat(counts, counts)
        with np.errstate(invalid="ignore", divide="ignore"):
            pr = np.where(size > 1, (rank - 1) / (size - 1), 0.0)
        return t.append_column(out_col, pa.array(pr, type=pa.float64()))

    return keyed_apply(ds, key, resolve, num_partitions,
                       sort_by=(order_col,))


def keyed_funnel(ds, key: str, time: str, type_col: str,
                 stages: list[str], num_partitions: int | None = None):
    """Ordered funnel analysis: per key, how many of `stages` were
    completed in strict time order (stage k+1 must first occur
    STRICTLY AFTER the key's first completion of stage k).

    One hash-partition shuffle on the key; each sorted partition
    resolves every stage with one vectorized masked minimum.reduceat
    pass — no per-user loop.  Output: one row per key, ``(key, depth,
    t_complete)`` where depth in [0, len(stages)] and t_complete is
    the completion time of the deepest stage (int64 microseconds; -1
    when depth == 0).
    """
    def resolve(t: pa.Table) -> pa.Table:
        starts, counts = key_spans(_np(t, key))
        tm = _np(t, time)
        ts_ = tm.view(np.int64) if tm.dtype.kind == "M" \
            else tm.astype(np.int64)
        typs = _np(t, type_col)
        n_keys = len(starts)
        seg = np.repeat(np.arange(n_keys), counts)   # key index per row
        INF = np.iinfo(np.int64).max
        prev_t = np.full(n_keys, np.iinfo(np.int64).min)
        depth = np.zeros(n_keys, dtype=np.int64)
        t_complete = np.full(n_keys, -1, dtype=np.int64)
        alive = np.ones(n_keys, dtype=bool)
        for s_name in stages:
            if not alive.any():
                break
            cand = np.where((typs == s_name)
                            & (ts_ > prev_t[seg])
                            & alive[seg], ts_, INF)
            first_t = np.minimum.reduceat(cand, starts)
            hit = (first_t != INF) & alive
            prev_t = np.where(hit, first_t, prev_t)
            depth += hit.astype(np.int64)
            t_complete = np.where(hit, first_t, t_complete)
            alive = hit
        return pa.table({
            key: t.column(key).take(pa.array(starts, type=pa.int64())),
            "depth": pa.array(depth),
            "t_complete": pa.array(t_complete)})

    return keyed_apply(ds, key, resolve, num_partitions, sort_by=(time,))


def keyed_rolling_mean(ds, key: str, time: str, value_col: str,
                       window_rows: int, out_col: str = "rmean",
                       num_partitions: int | None = None,
                       tiebreak: str | None = None):
    """Rows-frame moving average — SQL's ``AVG(v) OVER (PARTITION BY
    key ORDER BY time ROWS BETWEEN window_rows-1 PRECEDING AND CURRENT
    ROW)``.  One shuffle; over the sorted partition each window is
    summed from its own rows, one vectorized add per window offset
    (current row first), so a mean depends only on its window's values
    and never on other rows of the partition."""
    if window_rows < 1:
        raise ValueError("window_rows must be >= 1")

    def resolve(t: pa.Table) -> pa.Table:
        starts, counts = key_spans(_np(t, key))
        v = _np(t, value_col).astype(np.float64)
        # rows in each row's window: clamped at its key's first row
        n_win = np.minimum(np.arange(len(t)) - np.repeat(starts, counts) + 1,
                           window_rows)
        total = v.copy()
        for k in range(1, min(window_rows, int(counts.max(initial=0)))):
            np.add(total[k:], v[:-k], out=total[k:], where=n_win[k:] > k)
        return t.append_column(out_col,
                               pa.array(total / n_win, type=pa.float64()))

    return keyed_apply(ds, key, resolve, num_partitions,
                       sort_by=_by(time, tiebreak))
