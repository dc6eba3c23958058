"""Resumable corpus curation (VERDICT r4 ask #5).

`q_corpus_curation` (pipelines/queries.py) is the one-shot streaming
form.  This module is the form a 100-TB user actually operates: the
expensive per-document pass — tokenization, Gopher repetition metrics,
benchmark contamination — runs once per doc-id shard and CHECKPOINTS
through `state/checkpoint.py` manifests, so a killed run resumes by
recomputing only the shards without a valid manifest.  The cheap
corpus-wide tail (token-count shuffle, NLL join, split, final
aggregate) re-runs on resume but reads ONLY the checkpointed parquet,
never the raw corpus.

Per-shard checkpoint contents (all bounded by the shard, written
atomically, one manifest each):

  tokc/    (tok uint64, c int64)          shard token counts, ALL docs
  doctok/  (doc_id, tok uint64, m int64)  per-doc token partials for
                                          docs passing the
                                          dup/contamination prefilter
  kept/    (doc_id, lang, n_chars)        the prefiltered doc stream

The shard key is `doc_id % n_shards` — a pure function of the row, so
shard membership is stable across re-runs and block layouts (the same
property `hash_split` relies on).

Scale shape (round-5 revision): ALL pending shards are produced by ONE
streaming read of the corpus — the per-document pass emits shard-tagged
partial rows, a `groupby(__shard).map_groups` shuffle brings each
shard's rows to one task, and that task combines and CHECKPOINTS the
three tables from inside the worker (shards run in parallel; `root`
must be shared storage on a multi-node cluster, like any distributed
checkpoint dir).  The earlier form read the whole corpus once per
shard and combined on the driver — N-fold read amplification and a
serial driver loop at scale.  Each shard's combined tables must fit a
worker: size `n_shards` so a shard is a few hundred MB, exactly the
sizing `hash_split` shards already need.  `max_shards_per_run` bounds
one invocation (process K pending shards, then raise
`IncompleteRunError`) — the operational form of a mid-run kill, and
what the resume tests use to avoid monkeypatching worker processes.

The tail keeps the vocabulary distributed: global token counts resolve
in a token-hash shuffle (`hash_shuffle_aggregate`), the per-doc NLL
contributions resolve by unioning the (tok, c) table with the doctok
stream inside the same token-hash partitioning, and only per-bucket
scalars (T, V) reach the driver.  Output is identical to
`q_corpus_curation` — the regression test asserts the 15-row summary
matches after a mid-run kill.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

_ALPHA = 1.0


class IncompleteRunError(RuntimeError):
    """Raised when `max_shards_per_run` left pending shards
    unprocessed.  Every checkpoint written before the raise is valid —
    re-invoking with the same root continues from them."""


_EMPTY_SHARD_TABLES = {
    "tokc": {"tok": "uint64", "c": "int64"},
    "doctok": {"doc_id": "int64", "tok": "uint64", "m": "int64"},
    "kept": {"doc_id": "int64", "lang": "string", "n_chars": "int64"},
}


def _empty_shard_table(name: str) -> pa.Table:
    return pa.table({col: pa.array([], type=getattr(pa, typ)())
                     for col, typ in _EMPTY_SHARD_TABLES[name].items()})


def _tagged_shard_rows(sf_dir: str, pending, n_shards: int, bench_ref):
    """ONE streaming read of the corpus producing shard-tagged partial
    rows for every PENDING shard (columns pruned at the read; the
    shard filter is a pure row-level predicate).  Row kinds:

      kind 0: per-doc token partials over ALL docs of the shard
              (benchmark included — the oracle's freq CTE is over the
              whole table); `kept` marks docs surviving the
              dup/contamination prefilter, so the shard task derives
              BOTH tokc (aggregate all) and doctok (filter kept) from
              one row stream instead of shipping the tokens twice.
      kind 2: the prefiltered doc stream (doc_id, lang, n_chars).
    """
    import ray.data as rd

    from proj_ray.stages.text import (contamination_hits_batch,
                                      doc_token_partials,
                                      repetition_stats_batch)
    from proj_ray.stages.worker_cache import get_broadcast

    pending_arr = np.asarray(sorted(pending), dtype=np.int64)
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text", "lang", "n_chars"])

    def per_batch(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        t = t.filter(pa.array(np.isin(ids % n_shards, pending_arr)))
        if len(t) == 0:
            return pa.table({
                "kind": pa.array([], type=pa.int8()),
                "doc_id": pa.array([], type=pa.int64()),
                "tok": pa.array([], type=pa.uint64()),
                "m": pa.array([], type=pa.int64()),
                "kept": pa.array([], type=pa.bool_()),
                "lang": pa.array([], type=pa.string()),
                "n_chars": pa.array([], type=pa.int64()),
                "__shard": pa.array([], type=pa.int64())})
        # (a) per-doc token partials over ALL docs
        dt_all = doc_token_partials(t, "text", "doc_id")
        dt_ids = dt_all.column("doc_id").to_numpy(zero_copy_only=False)
        # (b) prefilter: drop benchmark rows, repeated-token docs and
        # contaminated docs BEFORE anything shuffles
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        corpus = t.filter(pa.array(ids % 97 != 0))
        if len(corpus):
            from proj_ray.pipelines.queries import _CURATE_DUP_MAX

            rep = repetition_stats_batch(corpus)
            dup = rep.column("dup_token_frac") \
                .to_numpy(zero_copy_only=False)
            hits = contamination_hits_batch(
                corpus, get_broadcast(bench_ref), 3)
            corpus = corpus.filter(
                pa.array((dup <= _CURATE_DUP_MAX) & (hits == 0)))
        kept_ids = corpus.column("doc_id").to_numpy(zero_copy_only=False)
        n_tok, n_kept = len(dt_all), len(corpus)
        none_s = pa.nulls(n_tok, type=pa.string())
        none_i = pa.nulls(n_tok, type=pa.int64())
        return pa.table({
            "kind": pa.array(np.repeat(
                np.array([0, 2], dtype=np.int8), [n_tok, n_kept])),
            "doc_id": pa.concat_arrays([
                dt_all.column("doc_id").combine_chunks().cast(
                    pa.int64()),
                corpus.column("doc_id").combine_chunks().cast(
                    pa.int64())]),
            "tok": pa.concat_arrays([
                dt_all.column("tok").combine_chunks(),
                pa.array(np.zeros(n_kept, dtype=np.uint64))]),
            "m": pa.concat_arrays([
                dt_all.column("m").combine_chunks().cast(pa.int64()),
                pa.array(np.zeros(n_kept, dtype=np.int64))]),
            "kept": pa.array(np.concatenate([
                np.isin(dt_ids, kept_ids),
                np.ones(n_kept, dtype=bool)])),
            "lang": pa.concat_arrays([
                none_s, corpus.column("lang").combine_chunks()]),
            "n_chars": pa.concat_arrays([
                none_i, corpus.column("n_chars").combine_chunks()
                .cast(pa.int64())]),
            "__shard": pa.array(np.concatenate([
                dt_ids % n_shards, kept_ids % n_shards])
                .astype(np.int64)),
        })

    return ds.map_batches(per_batch, batch_format="pyarrow")


def _write_shard_group(t: pa.Table, root: str, config: dict) -> pa.Table:
    """map_groups body: combine ONE shard's tagged rows into the three
    checkpoint tables and write them (atomically, manifest last) from
    inside the worker — shards checkpoint in parallel, nothing reaches
    the driver but a one-row ack."""
    from proj_ray.state.checkpoint import CheckpointWriter

    shard = int(t.column("__shard")[0].as_py())
    pid = f"shard-{shard:05d}"
    kind = t.column("kind").to_numpy(zero_copy_only=False)
    tokrows = t.filter(pa.array(kind == 0))
    tokc = tokrows.select(["tok", "m"]).group_by(["tok"]) \
        .aggregate([("m", "sum")]).rename_columns(["tok", "c"])
    keptmask = tokrows.column("kept").to_numpy(zero_copy_only=False)
    doctok = tokrows.filter(pa.array(keptmask)) \
        .select(["doc_id", "tok", "m"])
    kept = t.filter(pa.array(kind == 2)) \
        .select(["doc_id", "lang", "n_chars"])
    tables = {"tokc": tokc, "doctok": doctok, "kept": kept}
    for name, tbl in tables.items():
        if tbl.num_rows == 0:
            tbl = _empty_shard_table(name)
        CheckpointWriter(f"{root}/{name}", config).write_partition(
            pid, tbl,
            lineage={"partition": pid,
                     "shard_mod": [shard, config["n_shards"]]},
            metrics={"rows": tbl.num_rows})
    return pa.table({"shard": pa.array([shard], type=pa.int64()),
                     "kept_rows": pa.array([kept.num_rows],
                                           type=pa.int64())})



def resumable_corpus_curation(sf_dir: str, root: str,
                              n_shards: int = 8,
                              num_buckets: int = 32,
                              max_shards_per_run=None):
    """Run (or resume) the curation pipeline; returns
    (summary_table, n_shards_computed, n_shards_skipped).  The summary
    is identical to `q_corpus_curation(sf_dir)` regardless of where a
    previous run was killed.  `max_shards_per_run` caps how many
    pending shards ONE invocation checkpoints; when shards remain
    after the cap, the run raises IncompleteRunError (the written
    checkpoints stay valid — re-invoke to continue)."""
    import ray
    import ray.data as rd

    from proj_ray.pipelines.queries import (_CURATE_NLL_MAX,
                                            _CURATE_SPLITS)
    from proj_ray.stages.agg import (hash_shuffle_aggregate,
                                     tree_aggregate)
    from proj_ray.stages.relational import copartition_agg_join
    from proj_ray.stages.sampling import hash_split
    from proj_ray.stages.partitioning import keyed_apply
    from proj_ray.stages.text import benchmark_ngram_set
    from proj_ray.state.checkpoint import CheckpointWriter

    # benchmark n-gram set: bounded driver pull, gated exactly like
    # q_corpus_curation (deterministic, so identical across resumes)
    bench_ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def pick_bench(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        return t.filter(pa.array(ids % 97 == 0))

    bench_rows = bench_ds.map_batches(
        pick_bench, batch_format="pyarrow").take_all()
    if len(bench_rows) > 100_000:
        raise ValueError("resumable_corpus_curation: benchmark "
                         "selection is not bounded")
    bench_ref = ray.put(benchmark_ngram_set(
        [r["text"] for r in bench_rows], n=3))

    config = {"sf_dir": sf_dir, "n_shards": n_shards, "v": 1}
    writers = {name: CheckpointWriter(f"{root}/{name}", config)
               for name in ("tokc", "doctok", "kept")}
    pids = [f"shard-{i:05d}" for i in range(n_shards)]
    pending = [int(p.split("-")[1]) for p in pids
               if not all(w.is_done(p) for w in writers.values())]
    run_now, remaining = pending, []
    if max_shards_per_run is not None \
            and len(pending) > max_shards_per_run:
        run_now = pending[:max_shards_per_run]
        remaining = pending[max_shards_per_run:]
    if run_now:
        # one corpus read for ALL shards being processed; each shard
        # combines and checkpoints inside its own map_groups task
        acks = _tagged_shard_rows(sf_dir, run_now, n_shards, bench_ref) \
            .groupby("__shard").map_groups(
                lambda t: _write_shard_group(t, root, config),
                batch_format="pyarrow").take_all()
        written = {int(a["shard"]) for a in acks}
        for i in run_now:
            if i not in written:  # shard with zero rows: no group ran
                for name, w in writers.items():
                    w.write_partition(
                        f"shard-{i:05d}", _empty_shard_table(name),
                        lineage={"partition": f"shard-{i:05d}",
                                 "shard_mod": [i, n_shards]},
                        metrics={"rows": 0})
    if remaining:
        raise IncompleteRunError(
            f"{len(remaining)} of {len(pending)} pending shards remain "
            f"after max_shards_per_run={max_shards_per_run}; re-invoke "
            f"to continue")

    def _paths(name: str):
        return [f"{root}/{name}/part={p}/data.parquet" for p in pids]

    # ---- tail: reads ONLY checkpointed parquet, vocabulary stays
    # distributed (one token-hash shuffle resolves global counts) ----
    tokc = rd.read_parquet(_paths("tokc"))
    freq = hash_shuffle_aggregate(tokc, ["tok"], [("c", "sum")],
                                  num_buckets=num_buckets) \
        .materialize()

    def stats(t: pa.Table) -> pa.Table:
        c = t.column("c").to_numpy(zero_copy_only=False)
        return pa.table({"V": pa.array([len(t)], type=pa.int64()),
                         "T": pa.array([int(c.sum())],
                                       type=pa.int64())})

    agg = freq.map_batches(stats, batch_format="pyarrow") \
        .sum(["V", "T"])
    T, V = int(agg["sum(T)"]), int(agg["sum(V)"])
    ln_denom = float(np.log(T + _ALPHA * V)) if T + V > 0 else 0.0

    # union the global (tok, c) rows (doc_id = -1) with the doctok
    # stream, co-partition by token hash, resolve contributions in
    # the partition — the count side is vocab-sized, never broadcast
    def as_count_rows(t: pa.Table) -> pa.Table:
        n = len(t)
        return pa.table({
            "tok": t.column("tok"),
            "doc_id": pa.array(np.full(n, -1, dtype=np.int64)),
            "m": t.column("c")})

    count_rows = freq.map_batches(as_count_rows,
                                  batch_format="pyarrow")
    doc_rows = rd.read_parquet(_paths("doctok")) \
        .select_columns(["tok", "doc_id", "m"])

    def resolve(t: pa.Table) -> pa.Table:
        doc = t.column("doc_id").to_numpy(zero_copy_only=False)
        tok = t.column("tok").to_numpy(zero_copy_only=False)
        m = t.column("m").to_numpy(zero_copy_only=False)
        is_c = doc == -1
        u, inv = np.unique(tok, return_inverse=True)
        c = np.bincount(inv, weights=np.where(is_c, m, 0),
                        minlength=len(u))
        dmask = ~is_c
        s = m[dmask] * np.log(c[inv[dmask]] + _ALPHA)
        out = pa.table({"doc_id": pa.array(doc[dmask]),
                        "s": pa.array(s),
                        "n": pa.array(m[dmask])})
        from proj_ray.stages.agg import combine_block

        return combine_block(out, ["doc_id"],
                             [("s", "sum"), ("n", "sum")])

    partials = keyed_apply(count_rows.union(doc_rows), "tok", resolve,
                           num_buckets)

    kept_ds = rd.read_parquet(_paths("kept"))
    joined = copartition_agg_join(kept_ds, partials, on="doc_id",
                                  agg_cols=("s", "n"), how="inner",
                                  num_partitions=num_buckets)

    def nll_filter(t: pa.Table) -> pa.Table:
        s = t.column("s").to_numpy(zero_copy_only=False)
        n = t.column("n").to_numpy(zero_copy_only=False)
        with np.errstate(invalid="ignore", divide="ignore"):
            nll = np.where(n > 0, ln_denom - s / n, 0.0)
        return t.filter(pa.array(nll <= _CURATE_NLL_MAX)).select(
            ["doc_id", "lang", "n_chars"])

    final = hash_split(joined.map_batches(nll_filter,
                                          batch_format="pyarrow"),
                       _CURATE_SPLITS, id_col="doc_id", seed=29)

    summary = tree_aggregate(
        final, ["split", "lang"], [("n_docs", "count"), ("n_chars", "sum")])
    tbl = pa.concat_tables(summary.iter_batches(batch_format="pyarrow"),
                           promote_options="default")
    return tbl, len(run_now), n_shards - len(run_now)
