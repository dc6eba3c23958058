"""Arrow-native aggregation helpers.

Ray Data's built-in `groupby().aggregate(...)` is a full sort-based
shuffle with per-row Python overhead.  `tree_aggregate` replaces it
with the classic combiner tree, and both helpers here take ROWS: the
first combine is a per-block C++ `pyarrow.Table.group_by` that fuses
into the caller's map, so callers never pre-group.  With `fanout=0`
(the default) the tree is that per-block combine plus one final
combine task; `fanout=N` inserts an N-way fan-in level between them
(the two wide-vocabulary callers, `text.corpus_token_freq_broadcast`
and the dedup df table, pass 8).

An agg spec is a list of `(col, fn)` with fn in {"sum", "min", "max",
"count"}; the result column keeps the name `col`.  `(col, "count")` is
SQL count(*): the first combine counts rows into `col` and every later
combine sums those counts, so `col` need not exist in the input.

Scale note: the tree's final level sees at most (distinct keys) rows —
the right tool when key cardinality is bounded (tiles, cells, hour
windows, flag pairs).  For unbounded cardinality (e.g. content hashes
over 10^12 docs) use `hash_shuffle_aggregate`, which hash-partitions
keys into independent buckets first, then runs one combine per bucket
(no single-task bottleneck).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def crc_bucket(col, num_buckets: int) -> np.ndarray:
    """Vectorized crc32(str(value)) % num_buckets over an Arrow column
    (the shuffle-bucket key) — replaces a per-value Python loop."""
    from proj_ray.stages.hashing import arrow_string_bytes, crc32_segments

    if not (pa.types.is_string(col.type)
            or pa.types.is_large_string(col.type)):
        col = pc.cast(col, pa.string())
    data, off = arrow_string_bytes(col)
    return (crc32_segments(data, off) % num_buckets).astype(np.int64)


def combine_block(batch: pa.Table, keys: Sequence[str],
                  aggs: Sequence[Tuple[str, str]]) -> pa.Table:
    """One C++ hash-aggregate over a block, preserving column names
    (`(col, "count")` counts the block's rows into `col`).  No keys
    gives the block's grand total."""
    out = batch.group_by(list(keys)).aggregate(
        [([], "count_all") if f == "count" else (c, f) for c, f in aggs])
    # keys come first, then one column per spec entry in order
    return out.rename_columns(list(keys) + [c for c, _ in aggs])


def _merge_aggs(aggs: Sequence[Tuple[str, str]]) -> List[Tuple[str, str]]:
    """The spec every combine after the first runs: counts are summed."""
    return [(c, "sum" if f == "count" else f) for c, f in aggs]


def tree_aggregate(ds, keys: Sequence[str],
                   aggs: Sequence[Tuple[str, str]], fanout: int = 0,
                   max_keys: int | None = 4_000_000):
    """Combine-tree aggregation of rows: per-block combine ->
    [fan-in ->] final.

    With fanout=0 (default) the tree is two levels: per-block combine,
    then one final combine task — right when (blocks x keys) partial
    volume is modest.  Set fanout>0 to insert a middle fan-in level for
    very wide jobs (thousands of blocks).

    `max_keys` is the scale contract made executable (VERDICT r3): the
    final single-task combine raises if its OUTPUT exceeds this bound,
    because a corpus-cardinality key set funneled through one task is
    exactly the 100-TB bottleneck this module's docstring warns about —
    those reductions belong in `hash_shuffle_aggregate`.  Pass
    max_keys=None only when the bound is externally guaranteed."""
    k = list(keys)
    a = list(aggs)
    merge = _merge_aggs(a)

    def combine(batch: pa.Table) -> pa.Table:
        return combine_block(batch, k, a)

    def combine_merge(batch: pa.Table) -> pa.Table:
        return combine_block(batch, k, merge)

    def combine_final(batch: pa.Table) -> pa.Table:
        out = combine_block(batch, k, merge)
        if max_keys is not None and out.num_rows > max_keys:
            raise ValueError(
                f"tree_aggregate: final combine produced {out.num_rows} "
                f"keys > max_keys={max_keys}; this key set is unbounded "
                f"— use hash_shuffle_aggregate instead")
        return out

    partial = ds.map_batches(combine, batch_format="pyarrow")
    if fanout:
        partial = partial.repartition(fanout).map_batches(
            combine_merge, batch_format="pyarrow", batch_size=None)
    return partial.repartition(1).map_batches(
        combine_final, batch_format="pyarrow", batch_size=None)


def hash_distinct(ds, col: str, num_buckets: int = 64):
    """DISTINCT values of one column at unbounded cardinality: a
    hash-partitioned aggregate with no aggregations — the per-batch
    combine is the batch's distinct values, so the shuffle moves at
    most one row per (batch, distinct value) and no single task ever
    sees the whole key universe.  Returns a Dataset with the single
    column `col`."""
    return hash_shuffle_aggregate(ds, [col], [], num_buckets=num_buckets)


def hash_shuffle_aggregate(ds, keys: Sequence[str],
                           aggs: Sequence[Tuple[str, str]],
                           num_buckets: int = 64):
    """Hash-partitioned aggregate of rows for unbounded key
    cardinality: combine per block, bucket by the first key's hash
    (the shuffle key), then one exact combine per bucket.  Empty
    `aggs` gives the DISTINCT key tuples."""
    from proj_ray.stages.partitioning import keyed_apply

    k = list(keys)
    a = list(aggs)
    merge = _merge_aggs(a)

    def combine(batch: pa.Table) -> pa.Table:
        return combine_block(batch, k, a)

    def combine_merge(batch: pa.Table) -> pa.Table:
        return combine_block(batch, k, merge)

    return keyed_apply(ds.map_batches(combine, batch_format="pyarrow"),
                       k[0], combine_merge, num_buckets)


def grouping_sets_from_finest(finest_ds, all_keys, sets, agg_cols,
                              sentinel="ALL"):
    """Arbitrary SQL GROUPING SETS (ROLLUP and CUBE among them) from
    the finest-level aggregate: each requested set re-aggregates the
    (tiny, bounded-key) finest result with `combine_block` — sums and
    counts are re-aggregable, so no extra corpus pass regardless of
    how many sets are asked for; the empty set `()` is the grand
    total.  Dropped key columns carry the `sentinel` value."""
    all_keys = list(all_keys)
    agg_cols = list(agg_cols)
    norm_sets = [list(s) for s in sets]
    for s in norm_sets:
        unknown = set(s) - set(all_keys)
        if unknown:
            raise ValueError(f"grouping_sets: unknown keys {unknown}")
    sums = [(c, "sum") for c in agg_cols]

    def expand(t: pa.Table) -> pa.Table:
        outs = []
        for keys in norm_sets:
            g = combine_block(t, keys, sums)
            for d in all_keys:
                if d not in keys:
                    g = g.append_column(d, pa.repeat(
                        pa.scalar(sentinel, t.schema.field(d).type),
                        g.num_rows))
            outs.append(g.select(all_keys + agg_cols))
        return pa.concat_tables(outs)

    return finest_ds.map_batches(expand, batch_format="pyarrow",
                                 batch_size=None)
