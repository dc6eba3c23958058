"""Size-derived shuffle partition counts.

Round-3 verdict finding #4: fixed `num_partitions=32` defaults on the
hash-partitioned operators cap usable parallelism AND per-task memory
at corpus/32 regardless of input size — each hash partition is one
task holding its whole slice.  This helper derives the count from the
input's byte size instead: one partition per `target_bytes` of input,
floored at the cluster's CPU count (so small inputs still use every
core) and capped only at a generous task-count bound (tasks queue —
more partitions than cores is fine and is exactly what 100 TB needs).

Lazy Datasets whose size Ray cannot know yet (post-map_batches) fall
back to `default`, so callers should pass the UPSTREAM dataset (the
parquet read, whose metadata carries sizes) when they can.

The one-sided keyed exchange lives here too: `keyed_apply(ds, key,
kernel)` hash-partitions `ds` on `key` (`key_partition`) and calls
`kernel` once per partition.  Its contract:
- every row of a key reaches the same, single kernel call;
- one call may hold many keys (use `key_spans` on the sorted key
  column, or on several sorted columns for a composite key, to find
  each key's rows);
- the order of the output rows is unspecified.

The two-input keyed exchange is `keyed_cogroup(left, right, key,
kernel, right_key=None)`: both Datasets hash-partition on their join
keys into one partition space and `kernel(left_tbl, right_tbl)` runs
once per partition.  Its contract:
- rows from both sides with equal keys reach the same, single kernel
  call;
- one call may hold many keys;
- a partition with rows from only one side still gets its call, with
  a 0-row table of the other side's schema (left, full and anti joins
  need it);
- each table carries its own side's column names and no tag columns;
  the right key is cast to the left key's type before hashing and
  arrives so cast, so int32/int64 and string/other-type key pairs
  meet;
- row order within each table and of the output is unspecified.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

# One hash-partition task per this much input: big enough to amortize
# task overhead, small enough that a partition (plus its group-by
# working set) fits a worker heap comfortably.
TARGET_PARTITION_BYTES = 256 << 20

# Runaway backstop, far above any sane single-job fan-out.
MAX_PARTITIONS = 65536

_MIX = np.uint64(0x9E3779B97F4A7C15)
_PART = "__part"
_SIDE = "__side"


def _cluster_cpus(default: int = 4) -> int:
    import ray

    try:
        return max(1, int(ray.cluster_resources().get("CPU", default)))
    except Exception:
        return default


def _safe_size_bytes(ds) -> int | None:
    """`Dataset.size_bytes()` EXECUTES lazy plans (measured: a bare
    map_batches runs end-to-end when asked its size), so only ask when
    the answer is metadata-free: a materialized dataset, or a plan
    that is still a pure read (parquet footer sizes)."""
    try:
        from ray.data.dataset import MaterializedDataset

        if isinstance(ds, MaterializedDataset):
            return ds.size_bytes()
    except Exception:
        pass
    try:
        from ray.data._internal.logical.operators.read_operator import \
            Read

        if isinstance(ds._plan._logical_plan.dag, Read):
            return ds.size_bytes()
    except Exception:
        pass
    return None


def dataset_size_bytes(*datasets) -> int | None:
    """Total known byte size of the given Datasets, or None when no
    execution-free estimate exists for any of them."""
    total = 0
    known = False
    for ds in datasets:
        if ds is None:
            continue
        sz = _safe_size_bytes(ds)
        if sz:
            total += int(sz)
            known = True
    return total if known else None


def derive_num_partitions(*datasets, size_bytes: int | None = None,
                          target_bytes: int = TARGET_PARTITION_BYTES,
                          default: int = 32,
                          cap: int = MAX_PARTITIONS) -> int:
    """clamp(size/target, cpus, cap) — scales UP with input size.

    `datasets` are inspected for known sizes when `size_bytes` is not
    given; unknown sizes fall back to max(default, cpus) so today's
    behavior is preserved for fully lazy inputs.
    """
    cpus = _cluster_cpus()
    floor = min(max(2, cpus), default) if default else max(2, cpus)
    if size_bytes is None:
        size_bytes = dataset_size_bytes(*datasets)
    if not size_bytes:
        return max(default, floor)
    derived = math.ceil(size_bytes / max(1, target_bytes))
    return int(min(cap, max(default, floor, derived)))


def key_partition(col, n: int) -> np.ndarray:
    """Partition id in [0, n) for every value of an Arrow key column,
    the same for equal values in every batch and worker.  Integer and
    timestamp keys take the top 16 bits of a multiplicative hash (the
    low bits would put keys that share trailing zero bits into one
    partition); every other type hashes its string form
    (`agg.crc_bucket`).  Null keys share one partition."""
    if pa.types.is_timestamp(col.type):
        col = col.cast(pa.int64())
    elif not pa.types.is_integer(col.type):
        from proj_ray.stages.agg import crc_bucket

        return crc_bucket(col, n)
    v = col.fill_null(0).to_numpy(zero_copy_only=False).astype(np.uint64)
    h = (v * _MIX) >> np.uint64(48)
    return (h % np.uint64(n)).astype(np.int64)


def key_spans(*keys: np.ndarray):
    """(start index, length) of each run of equal values in sorted,
    equal-length key arrays; a run breaks where any of them changes."""
    n = len(keys[0])
    if n == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    first = np.empty(n, dtype=bool)
    first[0] = True
    first[1:] = keys[0][1:] != keys[0][:-1]
    for k in keys[1:]:
        first[1:] |= k[1:] != k[:-1]
    starts = np.flatnonzero(first)
    return starts, np.diff(np.append(starts, n))


def keyed_apply(ds, key: str, kernel, num_partitions: int | None = None,
                sort_by=()):
    """One hash exchange on `key`, then `kernel(table) -> table` once
    per partition (see the module docstring for the contract).  The
    kernel never sees the partition column.  A non-empty `sort_by`
    hands the kernel its partition stably sorted by `[key, *sort_by]`;
    an empty one leaves rows in arrival order.  `num_partitions=None`
    derives the count from `ds` (`derive_num_partitions`)."""
    n = num_partitions or derive_num_partitions(ds, default=32)
    order = [(c, "ascending") for c in (key, *sort_by)] if sort_by else None

    def tag(t: pa.Table) -> pa.Table:
        return t.append_column(_PART,
                               pa.array(key_partition(t.column(key), n)))

    def run(t: pa.Table) -> pa.Table:
        t = t.drop_columns([_PART])
        return kernel(t.sort_by(order) if order else t)

    return ds.map_batches(tag, batch_format="pyarrow") \
        .groupby(_PART).map_groups(run, batch_format="pyarrow")


def _arrow_schema(ds) -> pa.Schema:
    """`ds`'s Arrow schema.  A pandas-block column of object dtype has
    no Arrow type until data is seen, so then one row is converted."""
    s = ds.schema()
    if all(isinstance(t, pa.DataType) for t in s.types):
        return pa.schema(list(zip(s.names, s.types)))
    return next(iter(ds.limit(1).iter_batches(batch_format="pyarrow"))).schema


def keyed_cogroup(left, right, key: str, kernel,
                  num_partitions: int | None = None,
                  right_key: str | None = None):
    """One hash exchange of `left` on `key` and `right` on `right_key`
    (default `key`), then `kernel(left_tbl, right_tbl) -> table` once
    per partition (see the module docstring for the contract).
    `num_partitions=None` derives the count from both inputs
    (`derive_num_partitions`)."""
    right_key = right_key or key
    n = num_partitions or derive_num_partitions(left, right, default=32)
    lsch, rsch = _arrow_schema(left), _arrow_schema(right)
    key_type = lsch.field(key).type
    rsch = rsch.set(rsch.get_field_index(right_key),
                    pa.field(right_key, key_type))
    # positional names keep a column name present on both sides apart
    nl = len(lsch)
    wide = [f"__l{i}" for i in range(nl)] + \
        [f"__r{i}" for i in range(len(rsch))]
    types = [f.type for f in lsch] + [f.type for f in rsch]

    def tag(side: int):
        own, first, k = (lsch, 0, key) if side == 0 \
            else (rsch, nl, right_key)

        def fn(t: pa.Table) -> pa.Table:
            cols = [pa.nulls(len(t), type=ty) for ty in types]
            for i, name in enumerate(own.names):
                cols[first + i] = t.column(name).cast(own.field(i).type)
            kv = cols[first + own.get_field_index(k)]
            cols += [pa.array(np.full(len(t), side, dtype=np.int8)),
                     pa.array(key_partition(kv, n))]
            return pa.Table.from_arrays(cols, names=wide + [_SIDE, _PART])

        return fn

    def run(t: pa.Table) -> pa.Table:
        is_l = t.column(_SIDE).to_numpy(zero_copy_only=False) == 0
        lt = t.filter(pa.array(is_l)).select(wide[:nl])
        rt = t.filter(pa.array(~is_l)).select(wide[nl:])
        return kernel(lt.rename_columns(lsch.names),
                      rt.rename_columns(rsch.names))

    return left.map_batches(tag(0), batch_format="pyarrow") \
        .union(right.map_batches(tag(1), batch_format="pyarrow")) \
        .groupby(_PART).map_groups(run, batch_format="pyarrow")
