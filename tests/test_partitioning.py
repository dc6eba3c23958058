"""The keyed exchanges: key_partition ids, keyed_apply's contract (one
kernel call per key, no partition column, sorted input) and
keyed_cogroup's (both sides of a key in one call, each with its own
columns, a 0-row table for a missing side)."""

import numpy as np
import pyarrow as pa
import pytest

from proj_ray.stages.partitioning import (key_partition, key_spans,
                                          keyed_apply, keyed_cogroup)

_N = 13


def _keys(kind: str) -> pa.Array:
    rng = np.random.default_rng(5)
    v = rng.integers(-50, 50, 300)
    if kind == "int32":
        return pa.array(v, type=pa.int32())
    if kind == "int64":
        return pa.array(v, type=pa.int64())
    if kind == "timestamp":
        return pa.array(v * 3_600_000_000, type=pa.timestamp("us"))
    return pa.array([f"key-{x}" for x in v])


@pytest.mark.parametrize("kind", ["int32", "int64", "timestamp", "string"])
def test_key_partition_same_id_in_every_layout(kind):
    arr = _keys(kind)
    whole = key_partition(arr, _N)
    assert whole.dtype == np.int64
    assert ((whole >= 0) & (whole < _N)).all()
    # equal values -> equal ids
    vals = np.asarray(arr.to_pylist(), dtype=object)
    for v in set(vals):
        assert len(np.unique(whole[vals == v])) == 1
    chunked = key_partition(pa.chunked_array([arr[:70], arr[70:]]), _N)
    np.testing.assert_array_equal(chunked, whole)
    np.testing.assert_array_equal(key_partition(arr.slice(50, 100), _N),
                                  whole[50:150])
    t = pa.table({"k": arr})
    batches = np.concatenate([key_partition(t.slice(i, 40).column("k"), _N)
                              for i in range(0, len(t), 40)])
    np.testing.assert_array_equal(batches, whole)


def test_key_partition_int32_matches_int64():
    np.testing.assert_array_equal(key_partition(_keys("int32"), _N),
                                  key_partition(_keys("int64"), _N))


def test_key_partition_spreads_keys_with_shared_low_bits():
    """Multiples of 64 share six trailing zero bits; a hash that keeps
    the low bits of key * constant puts them all in one of 32
    partitions."""
    ids = key_partition(pa.array(np.arange(1000, dtype=np.int64) * 64), 32)
    assert len(np.unique(ids)) >= 30


def test_key_spans():
    starts, counts = key_spans(np.array([3, 3, 5, 7, 7, 7]))
    assert starts.tolist() == [0, 2, 3] and counts.tolist() == [2, 1, 3]
    starts, counts = key_spans(np.array([], dtype=np.int64))
    assert len(starts) == 0 and len(counts) == 0
    # several arrays: a run breaks where any of them changes
    starts, counts = key_spans(np.array([3, 3, 5, 7, 7, 7]),
                               np.array([1, 1, 1, 0, 2, 2]))
    assert starts.tolist() == [0, 2, 3, 4] \
        and counts.tolist() == [2, 1, 1, 2]
    starts, counts = key_spans(np.array([], dtype=np.int64),
                               np.array([], dtype=np.uint64))
    assert len(starts) == 0 and len(counts) == 0


def _call_kernel():
    """Kernel for keyed_apply.  Built inside a function so that Ray
    pickles it by value (workers cannot import this test module)."""
    def calls(t: pa.Table) -> pa.Table:
        """One row per key of the call: the key, its row count, whether
        the call's rows came sorted and whether it saw __part."""
        k = t.column("k").to_numpy()
        s = t.column("s").to_numpy()
        in_order = bool(np.all((k[1:] > k[:-1])
                               | ((k[1:] == k[:-1]) & (s[1:] >= s[:-1]))))
        starts, counts = key_spans(k)
        n = len(starts)
        return pa.table({
            "k": pa.array(k[starts], type=pa.int64()),
            "rows": pa.array(counts, type=pa.int64()),
            "sorted": pa.array([in_order] * n, type=pa.bool_()),
            "saw_part": pa.array(["__part" in t.column_names] * n),
        })

    return calls


def test_keyed_apply_one_call_per_key(ray_session):
    """More partitions than distinct keys: every key's rows reach
    exactly one kernel call, sorted by (key, sort_by), and the kernel
    never sees the partition column."""
    import ray.data as rd

    rng = np.random.default_rng(9)
    n = 2_000
    k = rng.integers(0, 12, n) * 64
    s = rng.integers(0, 100, n)
    ds = rd.from_arrow(pa.table({"k": k, "s": s})).repartition(6)
    out = keyed_apply(ds, "k", _call_kernel(), num_partitions=40,
                      sort_by=("s",)).to_pandas()
    assert sorted(out["k"]) == sorted(set(k.tolist()))   # one row per key
    want = dict(zip(*np.unique(k, return_counts=True)))
    assert all(want[r.k] == r.rows for r in out.itertuples())
    assert out["sorted"].all()
    assert not out["saw_part"].any()


def test_keyed_apply_empty_input(ray_session):
    import ray.data as rd

    ds = rd.from_arrow(pa.table({"k": pa.array([], type=pa.int64()),
                                 "s": pa.array([], type=pa.int64())}))
    assert keyed_apply(ds, "k", _call_kernel(), num_partitions=4,
                       sort_by=("s",)).count() == 0


def _cogroup_kernel():
    """Kernel for keyed_cogroup (built in a function, as above).  One
    row per key of the call, keyed on each table's first column: its
    left and right row counts, an id of the call, and each table's
    schema as "name:type|..."."""
    def calls(lt: pa.Table, rt: pa.Table) -> pa.Table:
        import uuid

        lk = lt.column(0).to_numpy()
        rk = rt.column(0).to_numpy()
        keys = np.unique(np.concatenate([lk, rk]))
        n = len(keys)

        def sig(t):
            return "|".join(f"{f.name}:{f.type}" for f in t.schema)

        return pa.table({
            "k": pa.array(keys, type=pa.int64()),
            "n_left": pa.array([int((lk == k).sum()) for k in keys]),
            "n_right": pa.array([int((rk == k).sum()) for k in keys]),
            "call": pa.array([uuid.uuid4().hex] * n),
            "lsig": pa.array([sig(lt)] * n),
            "rsig": pa.array([sig(rt)] * n),
        })

    return calls


def _counts(a: np.ndarray) -> dict:
    return dict(zip(*np.unique(a, return_counts=True)))


def test_keyed_cogroup_one_call_per_key(ray_session):
    """More partitions than keys: each key's rows from both sides reach
    exactly one kernel call; each table holds only its own columns, so
    `v` (a double on the left, a string on the right) does not collide;
    a partition with left rows only still gets its call, with a 0-row
    right table of the right schema."""
    import ray.data as rd

    rng = np.random.default_rng(11)
    lk = rng.integers(0, 12, 2_000) * 64
    rk = rng.integers(0, 8, 300) * 64       # keys 8..11: left only
    left = rd.from_arrow(pa.table({"k": lk, "v": rng.normal(size=len(lk))}))
    right = rd.from_arrow(pa.table({
        "k": rk, "v": [f"r{x}" for x in rk],
        "w": rng.integers(0, 9, len(rk))})).repartition(3)
    out = keyed_cogroup(left.repartition(5), right, "k", _cogroup_kernel(),
                        num_partitions=40).to_pandas()
    assert sorted(out["k"]) == sorted(set(lk.tolist()))  # one row per key
    nl, nr = _counts(lk), _counts(rk)
    assert all(r.n_left == nl[r.k] and r.n_right == nr.get(r.k, 0)
               for r in out.itertuples())
    assert set(out["lsig"]) == {"k:int64|v:double"}
    assert set(out["rsig"]) == {"k:int64|v:string|w:int64"}
    left_only = out.groupby("call")["n_right"].sum()
    assert (left_only == 0).any()


def test_keyed_cogroup_right_key_of_other_width(ray_session):
    """An int32 right key under its own name meets its int64 left
    match, and arrives cast to int64."""
    import ray.data as rd

    rng = np.random.default_rng(12)
    lk = rng.integers(0, 30, 500)
    rk = rng.integers(0, 30, 200)
    left = rd.from_arrow(pa.table({"k": pa.array(lk, type=pa.int64())}))
    right = rd.from_arrow(pa.table({"rk": pa.array(rk, type=pa.int32())}))
    out = keyed_cogroup(left, right, "k", _cogroup_kernel(),
                        num_partitions=7, right_key="rk").to_pandas()
    assert sorted(out["k"]) == sorted(set(lk.tolist()) | set(rk.tolist()))
    nl, nr = _counts(lk), _counts(rk)
    assert all(r.n_left == nl.get(r.k, 0) and r.n_right == nr.get(r.k, 0)
               for r in out.itertuples())
    assert set(out["rsig"]) == {"rk:int64"}


def test_keyed_cogroup_empty_right(ray_session):
    import ray.data as rd

    lk = np.arange(10, dtype=np.int64)
    left = rd.from_arrow(pa.table({"k": lk}))
    right = rd.from_arrow(pa.table({"k": pa.array([], type=pa.int64()),
                                    "s": pa.array([], type=pa.string())}))
    out = keyed_cogroup(left, right, "k", _cogroup_kernel(),
                        num_partitions=3).to_pandas()
    assert sorted(out["k"]) == lk.tolist()
    assert (out["n_left"] == 1).all() and (out["n_right"] == 0).all()
    assert set(out["rsig"]) == {"k:int64|s:string"}
