"""Distributed connected components over a near-duplicate pair graph.

A near-dup pipeline doesn't stop at PAIRS: the corpus filter keeps one
representative per duplicate CLUSTER, and clusters are the connected
components of the pair graph (a~b, b~c => {a,b,c} is one group even if
a~c was never emitted).  At 10^12 docs the pair stream is itself
corpus-scale, so the labeling must be a distributed fixpoint, not a
driver-side union-find.

Algorithm: hash-min label propagation (the classic Pregel/CC-MR shape
— e.g. Kiveris et al., "Connected Components in MapReduce and Beyond",
SoCC 2014, whose large-star/small-star variants optimize the same
fixpoint).  Every node starts labeled with itself; each round every
node takes the min of its own label and its neighbors' labels; the
fixpoint labels every node with the smallest node id in its component.
Rounds needed = graph diameter — near-dup clusters are dense and
shallow (a template cluster is one hop; chains of boundary pairs are
short), so this converges in a handful of rounds.

Ray Data shape per round (NO Acero joins — immune to the
empty-hash-partition ArrowInvalid that tiny streams split too many
ways produce, cf. the round-2 minhash_pairs crash):

1. `partitioning.keyed_cogroup` co-partitions the edges (static,
   symmetrized, materialized once) on src with the current labels on
   node;
2. each partition resolves, vectorized: the labels build a sorted
   (node -> label) view, every edge emits (dst, label[src]), and every
   label re-emits itself;
3. hash_shuffle_aggregate min(label) by node produces next labels.

Convergence check is O(1) on the driver: labels only ever decrease,
so the uint64 SUM of all labels strictly decreases until the fixpoint
— one scalar comparison per round, nothing corpus-sized pulled back.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

def _empty_labels() -> pa.Table:
    return pa.table({"node": pa.array([], type=pa.int64()),
                     "component": pa.array([], type=pa.int64())})


def _label_sum(labels_ds) -> int:
    """Commutative uint64 checksum of the label vector (sum mod 2^64):
    labels only ever decrease under hash-min, so the TRUE sum is
    strictly decreasing until the fixpoint and equality between rounds
    is the fixpoint test.  Caveat: the sum is taken mod 2^64, so a
    round that decreases the true sum by an exact multiple of 2^64
    would collide — astronomically unlikely (it needs >= 2^64/max_id
    labels to move in one round in an exactly cancelling way); callers
    needing belt-and-braces can additionally compare label min/count."""
    def partial(t: pa.Table) -> pa.Table:
        lab = t.column("label").to_numpy(zero_copy_only=False) \
            .astype(np.uint64)
        return pa.table({"s": pa.array([int(lab.sum(dtype=np.uint64))],
                                       type=pa.uint64())})

    total = np.uint64(0)
    for row in labels_ds.map_batches(partial,
                                     batch_format="pyarrow").take_all():
        total += np.uint64(row["s"])
    return int(total)


# Below this many pairs the edge list fits the driver comfortably
# (16 bytes/pair) and an exact union-find beats paying 2 shuffles x
# O(diameter) rounds of fixed Ray overhead — the same size-gated
# broadcast-vs-shuffle split dedup._verify_pairs uses.  The distributed
# fixpoint below remains the default for anything larger.
_DRIVER_UF_LIMIT = 2_000_000


def _driver_union_find(a: np.ndarray, b: np.ndarray) -> pa.Table:
    """Exact min-label union-find over a driver-resident edge list,
    vectorized around np.unique (path compression via repeated
    gather until fixpoint — O(E * log-ish) with no Python-per-edge)."""
    nodes, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
    ea, eb = inv[:len(a)], inv[len(a):]
    label = np.arange(len(nodes), dtype=np.int64)
    while True:
        # propagate: each edge pulls both endpoints to the smaller label
        m = np.minimum(label[ea], label[eb])
        nxt = label.copy()
        np.minimum.at(nxt, ea, m)
        np.minimum.at(nxt, eb, m)
        # compress: labels point at nodes, so chase one hop
        nxt = nxt[nxt]
        if (nxt == label).all():
            break
        label = nxt
    return pa.table({"node": pa.array(nodes),
                     "component": pa.array(nodes[label])})


def connected_components(pairs, col_a: str = "doc_a",
                         col_b: str = "doc_b",
                         num_buckets: int | None = None,
                         max_iters: int = 50,
                         driver_limit: int = _DRIVER_UF_LIMIT):
    """(node, component) labeling of the undirected pair graph, where
    component = the smallest node id in the node's connected component.
    Only nodes that appear in some pair are labeled (isolated documents
    are trivially their own component and never enter the graph).

    `pairs` is a Dataset or pandas DataFrame with integer id columns
    `col_a`/`col_b`.  Returns a Ray Dataset of (node: int64,
    component: int64).  Pair streams at or under `driver_limit` rows
    take an exact driver-side union-find (they fit trivially and skip
    O(diameter) shuffle rounds); larger streams run the distributed
    hash-min fixpoint.  Pass driver_limit=0 to force the distributed
    path.
    """
    import ray
    import ray.data as rd

    from proj_ray.stages.agg import hash_shuffle_aggregate
    from proj_ray.stages.partitioning import keyed_cogroup

    if isinstance(pairs, pd.DataFrame):
        if pairs.empty:
            return rd.from_arrow(_empty_labels())
        if len(pairs) <= driver_limit:
            return rd.from_arrow(_driver_union_find(
                pairs[col_a].to_numpy().astype(np.int64),
                pairs[col_b].to_numpy().astype(np.int64)))
        pairs = rd.from_pandas(pairs[[col_a, col_b]])
    elif driver_limit:
        pairs = pairs.materialize()
        if pairs.count() <= driver_limit:
            tbl = pa.concat_tables(ray.get(pairs.to_arrow_refs()),
                                   promote_options="default")
            if tbl.num_rows == 0:
                return rd.from_arrow(_empty_labels())
            return rd.from_arrow(_driver_union_find(
                tbl.column(col_a).to_numpy(zero_copy_only=False)
                .astype(np.int64),
                tbl.column(col_b).to_numpy(zero_copy_only=False)
                .astype(np.int64)))

    if num_buckets is None:
        from proj_ray.stages.partitioning import derive_num_partitions

        # pairs is a Dataset here (the DataFrame path converted above);
        # under the driver gate it is already materialized, so the size
        # estimate is execution-free
        num_buckets = derive_num_partitions(pairs, default=32)

    def edge_batch(t: pa.Table) -> pa.Table:
        a = t.column(col_a).to_numpy(zero_copy_only=False).astype(np.int64)
        b = t.column(col_b).to_numpy(zero_copy_only=False).astype(np.int64)
        src = np.concatenate([a, b])
        dst = np.concatenate([b, a])
        return pa.table({"src": pa.array(src), "dst": pa.array(dst)})

    edges = pairs.map_batches(edge_batch,
                              batch_format="pyarrow").materialize()
    if edges.count() == 0:
        return rd.from_arrow(_empty_labels())

    # round 0 is the first propagation fused with initialization:
    # every endpoint proposes itself AND its neighbor as a label
    def init_msgs(t: pa.Table) -> pa.Table:
        src = t.column("src").to_numpy(zero_copy_only=False)
        dst = t.column("dst").to_numpy(zero_copy_only=False)
        return pa.table({"node": pa.array(src),
                         "label": pa.array(np.minimum(src, dst))})

    labels = hash_shuffle_aggregate(
        edges.map_batches(init_msgs, batch_format="pyarrow"),
        ["node"], [("label", "min")], num_buckets=num_buckets
    ).materialize()
    prev_sum = _label_sum(labels)

    def resolve(e: pa.Table, lab: pa.Table) -> pa.Table:
        """One co-partitioned propagation step: every edge looks up its
        src's current label and proposes it to dst; labels re-propose
        themselves (keeps min sticky)."""
        lnode = lab.column("node").to_numpy(zero_copy_only=False)
        lval = lab.column("label").to_numpy(zero_copy_only=False)
        order = np.argsort(lnode)
        lnode, lval = lnode[order], lval[order]
        esrc = e.column("src").to_numpy(zero_copy_only=False)
        edst = e.column("dst").to_numpy(zero_copy_only=False)
        if len(lnode) == 0:
            src_lab = esrc
        else:
            # every edge src has a label in THIS partition (labels and
            # edges bucket by the same hash of the same id); guard so a
            # malformed stream degrades to self-labels, not OOB reads
            pos = np.minimum(np.searchsorted(lnode, esrc),
                             len(lnode) - 1)
            src_lab = np.where(lnode[pos] == esrc, lval[pos], esrc)
        return pa.table({
            "node": pa.array(np.concatenate([edst, lnode])),
            "label": pa.array(np.concatenate([src_lab, lval])),
        })

    converged = False
    for _ in range(max_iters):
        labels = hash_shuffle_aggregate(
            keyed_cogroup(edges, labels, "src", resolve,
                          num_partitions=num_buckets, right_key="node"),
            ["node"], [("label", "min")], num_buckets=num_buckets
        ).materialize()
        cur_sum = _label_sum(labels)
        if cur_sum == prev_sum:
            converged = True
            break
        prev_sum = cur_sum
    if not converged:
        # diameter > max_iters: silently returning partial labels would
        # hand callers WRONG components (ADVICE r3) — make it loud
        import warnings

        warnings.warn(
            f"connected_components: label propagation did not converge "
            f"within max_iters={max_iters} (graph diameter exceeds the "
            f"round budget); returned labels may merge incompletely — "
            f"raise max_iters", RuntimeWarning, stacklevel=2)

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({"node": t.column("node"),
                         "component": t.column("label")})

    return labels.map_batches(finish, batch_format="pyarrow")


def near_dup_filter(docs_ds, pairs, id_col: str = "doc_id",
                    num_buckets: int | None = None):
    """Corpus-scale near-duplicate filter: keep every document except
    non-representative members of a duplicate cluster (the kept
    representative is the smallest doc_id of each connected component
    of the pair graph).

    Shape: components label only docs that appear in pairs; victims
    (component != node) are co-partitioned with the corpus on the id
    (`partitioning.keyed_cogroup`) and dropped there — one corpus pass,
    no driver-side id set, no Acero join."""
    from proj_ray.stages.partitioning import (derive_num_partitions,
                                              keyed_cogroup)

    if num_buckets is None:
        num_buckets = derive_num_partitions(docs_ds, default=32)
    labels = connected_components(pairs, num_buckets=num_buckets)

    def victims_batch(t: pa.Table) -> pa.Table:
        node = t.column("node").to_numpy(zero_copy_only=False)
        comp = t.column("component").to_numpy(zero_copy_only=False)
        return pa.table({id_col: pa.array(node[comp != node])})

    def drop(docs: pa.Table, victims: pa.Table) -> pa.Table:
        bad = np.unique(victims.column(id_col).to_numpy(
            zero_copy_only=False))
        if len(bad) == 0:
            return docs
        ids = docs.column(id_col).to_numpy(zero_copy_only=False)
        pos = np.minimum(np.searchsorted(bad, ids), len(bad) - 1)
        return docs.filter(pa.array(bad[pos] != ids))

    # bounded by the pair graph's nodes; a Dataset with no victims has
    # no schema to co-partition with, and nothing to drop
    victims = labels.map_batches(victims_batch,
                                 batch_format="pyarrow").materialize()
    if victims.count() == 0:
        return docs_ds
    return keyed_cogroup(docs_ds, victims, id_col, drop,
                         num_partitions=num_buckets)
