"""Distinct counting: exact keyed COUNT(DISTINCT) and a mergeable
HyperLogLog sketch.

Exact path: a hash aggregate keyed by the (key, value) pair gives the
distinct pairs (its per-block combine bounds the shuffle at one row
per block and distinct pair, never the corpus), then a small count
per key.
Right when the distinct-pair universe fits the cluster (it usually
does: it is the answer's support).

Approx path (HyperLogLog, Flajolet et al. 2007): each batch reduces to
sparse (key, register, rho) rows; registers merge with MAX through the
same keyed shuffle, and the estimator (with the standard small-range
linear-counting correction) runs over the 2^p register rows per key.
Relative error ~= 1.04 / sqrt(2^p) (~1.6% at p=12).  Use it when
values-per-key is unbounded at corpus scale and a few-percent answer
is acceptable; registers are tiny (2^p rows/key worst case) and
mergeable across partitions, checkpoints and days.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def _hash64(vals: np.ndarray) -> np.ndarray:
    """Deterministic 64-bit avalanche hash (splitmix64 finalizer)."""
    x = vals.astype(np.uint64, copy=True)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def exact_distinct_count(ds, key: str, value: str,
                         num_buckets: int = 64,
                         out_col: str = "n_distinct",
                         bounded_keys: bool = True):
    """Exact COUNT(DISTINCT value) per key.  `bounded_keys=True`
    finishes the per-key count through the combine tree (right for
    dimension-like keys: event types, categories); pass False when the
    key universe scales with the corpus (per-user, per-document) so
    the finish stays hash-partitioned — the module contract
    tree_aggregate enforces with max_keys."""
    from proj_ray.stages.agg import hash_shuffle_aggregate, tree_aggregate

    pairs = hash_shuffle_aggregate(ds, [key, value], [],
                                   num_buckets=num_buckets)
    if bounded_keys:
        return tree_aggregate(pairs, [key], [(out_col, "count")])
    return hash_shuffle_aggregate(pairs, [key], [(out_col, "count")],
                                  num_buckets=num_buckets)


def approx_distinct(ds, key: str, value: str, p: int = 12,
                    num_buckets: int = 32,
                    out_col: str = "n_distinct_approx"):
    """HyperLogLog COUNT(DISTINCT value) per key, ±~1.04/sqrt(2^p)."""
    from proj_ray.stages.agg import hash_shuffle_aggregate

    m = 1 << p

    def batch_registers(t: pa.Table) -> pa.Table:
        kv = t.column(key)
        hv = _hash64(t.column(value).to_numpy(zero_copy_only=False)
                     .astype(np.int64).view(np.uint64))
        reg = (hv >> np.uint64(64 - p)).astype(np.int64)
        rest = (hv << np.uint64(p)) | np.uint64((1 << p) - 1)
        # rho = 1 + leading zeros of the remaining bits; the OR'd
        # low 1-bits keep `rest` nonzero so w == 0 lands on nbits + 1
        nbits = 64 - p
        lz = 63 - np.floor(np.log2(rest.astype(np.float64))) \
            .astype(np.int64)
        rho = np.clip(lz + 1, 1, nbits + 1)
        return pa.table({key: kv, "__reg": pa.array(reg),
                         "__rho": pa.array(rho)})

    regs = hash_shuffle_aggregate(
        ds.map_batches(batch_registers, batch_format="pyarrow"),
        [key, "__reg"], [("__rho", "max")], num_buckets=num_buckets)

    # finish per key WHERE THE KEY ALREADY LIVES: one more key-hash
    # partition pass and a fully vectorized per-partition estimate
    # (sorted partition + reduceat) — no repartition(1) single task,
    # no per-key Python loop (both were the round-3 scale-shape
    # finding class)
    from proj_ray.stages.partitioning import key_spans, keyed_apply

    alpha = 0.7213 / (1 + 1.079 / m)

    def estimate_part(t: pa.Table) -> pa.Table:
        starts, counts = key_spans(
            t.column(key).to_numpy(zero_copy_only=False))
        if len(starts) == 0:
            return pa.table({key: t.column(key),
                             out_col: pa.array([], type=pa.int64())})
        pw = np.exp2(-t.column("__rho").to_numpy(zero_copy_only=False)
                     .astype(np.float64))
        zeros = m - counts
        s = zeros + np.add.reduceat(pw, starts)
        est = alpha * m * m / s
        small = (est <= 2.5 * m) & (zeros > 0)
        with np.errstate(divide="ignore"):
            lin = m * np.log(np.where(zeros > 0, m / zeros, 1.0))
        est = np.where(small, lin, est)
        return pa.table({key: t.column(key).take(pa.array(starts)),
                         out_col: pa.array(np.round(est)
                                           .astype(np.int64))})

    return keyed_apply(regs, key, estimate_part, num_buckets,
                       sort_by=("__reg",))


def hll_estimate_batches(ds, values_fn, p: int = 14) -> int:
    """Corpus-wide distinct-count estimate over arbitrary uint64
    values: `values_fn(batch) -> np.ndarray` extracts the values per
    batch; (register, rho) rows max-merge through the combine tree
    (at most 2^p rows per block after its first combine), so the
    driver sees <= 2^p rows regardless of corpus size.  The cheap
    gate for size-gated broadcast-vs-shuffle regime choices
    (stages/text.py, dedup.py)."""
    from proj_ray.stages.agg import tree_aggregate

    m = 1 << p

    def regs(t: pa.Table) -> pa.Table:
        h = _hash64(np.asarray(values_fn(t)).astype(np.uint64))
        reg = (h >> np.uint64(64 - p)).astype(np.int64)
        rest = (h << np.uint64(p)) | np.uint64((1 << p) - 1)
        lz = 63 - np.floor(np.log2(rest.astype(np.float64))) \
            .astype(np.int64)
        rho = np.clip(lz + 1, 1, 64 - p + 1)
        return pa.table({"__reg": pa.array(reg), "__rho": pa.array(rho)})

    tbl = pa.concat_tables(
        tree_aggregate(ds.map_batches(regs, batch_format="pyarrow"),
                       ["__reg"], [("__rho", "max")])
        .iter_batches(batch_format="pyarrow"),
        promote_options="default")
    rho = np.zeros(m)
    rho[tbl.column("__reg").to_numpy(zero_copy_only=False)] = \
        tbl.column("__rho").to_numpy(zero_copy_only=False)
    zeros = int((rho == 0).sum())
    alpha_m = 0.7213 / (1 + 1.079 / m)
    est = alpha_m * m * m / np.exp2(-rho).sum()
    if est <= 2.5 * m and zeros > 0:
        est = m * np.log(m / zeros)
    return int(round(est))
