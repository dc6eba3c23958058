"""Round-5 scale-shape rewrites (r4 VERDICT asks #2/#3/#4): the
token/shingle vocabulary stays distributed (no driver pull, no
broadcast) and the ANN/kNN merges fan in — each asserted for value
equality against the simple reference at a FORCED high partition /
block count, so the new shuffle paths are actually exercised."""

import numpy as np
import pyarrow as pa


def _docs_table(n_docs: int = 200, vocab: int = 500, seed: int = 3):
    """Synthetic corpus with a vocabulary much larger than the number
    of shuffle partitions (the forced-high-vocab shape)."""
    rng = np.random.default_rng(seed)
    texts = []
    for i in range(n_docs):
        n = int(rng.integers(1, 40))
        words = rng.integers(0, vocab, n)
        texts.append(" ".join(f"w{w:04d}" for w in words))
    return pa.table({"doc_id": pa.array(np.arange(n_docs,
                                                  dtype=np.int64)),
                     "text": texts})


# ------------------- token-shuffled unigram NLL -------------------------


def test_corpus_token_scalars_exact(ray_session):
    import ray.data as rd

    from proj_ray.stages.text import corpus_token_scalars

    t = _docs_table(100, vocab=300)
    T, V = corpus_token_scalars(rd.from_arrow(t).repartition(9),
                                "text", num_buckets=16)
    toks = [w for s in t.column("text").to_pylist() for w in s.split(" ")]
    assert T == len(toks)
    assert V == len(set(toks))


def test_unigram_logprob_shuffled_matches_broadcast(ray_session):
    """The distributed-vocab path must reproduce the broadcast path
    byte-for-byte (same rounding), at a partition count far above the
    vocabulary-per-partition comfort zone."""
    import ray
    import ray.data as rd

    from proj_ray.stages.hashing import rolling_hash_batch
    from proj_ray.stages.text import (unigram_logprob,
                                      unigram_logprob_shuffled)

    t = _docs_table(150, vocab=400)
    ds = rd.from_arrow(t).repartition(11)

    # broadcast reference (the old path, kept for small corpora)
    toks = pa.array([w for s in t.column("text").to_pylist()
                     for w in s.split(" ")])
    h = rolling_hash_batch(toks)
    vocab, cnts = np.unique(h, return_counts=True)
    total = int(cnts.sum())
    freq_ref = ray.put((vocab.astype(np.uint64),
                        cnts.astype(np.int64)))
    want = unigram_logprob(ds, freq_ref, total_tokens=total,
                           alpha=1.0, vocab_size=len(vocab)) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)

    got = unigram_logprob_shuffled(ds, alpha=1.0, num_partitions=32) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)

    assert list(got.columns) == list(want.columns)
    np.testing.assert_array_equal(got["n_tok"], want["n_tok"])
    np.testing.assert_allclose(got["mean_nll"], want["mean_nll"],
                               rtol=0, atol=1e-9)


def test_unigram_nll_partials_never_pulls_vocab(ray_session):
    """Shape assertion: the per-doc partial stream carries at most one
    row per (doc, token-partition) and sums to the exact per-doc token
    counts — the driver only ever sees doc-keyed rows."""
    import ray.data as rd

    from proj_ray.stages.text import unigram_nll_partials

    t = _docs_table(60, vocab=200)
    nparts = 16
    out = unigram_nll_partials(rd.from_arrow(t).repartition(7),
                               "text", "doc_id",
                               num_partitions=nparts).to_pandas()
    per_doc = out.groupby("doc_id").agg(n=("n", "sum"),
                                        rows=("n", "size"))
    want_n = {i: len(s.split(" ")) if s else 0
              for i, s in enumerate(t.column("text").to_pylist())}
    for doc_id, row in per_doc.iterrows():
        assert row["n"] == want_n[doc_id]
        assert row["rows"] <= nparts


# --------------------------- TF-IDF ---------------------------------------


def test_tfidf_shuffled_matches_reference(ray_session):
    """Term-partitioned df (no driver vocab table) must equal the
    naive in-memory TF-IDF at a forced-high partition count."""
    import collections

    import ray.data as rd

    from proj_ray.stages.frequent import tfidf_terms

    t = _docs_table(120, vocab=250, seed=11)
    got = tfidf_terms(rd.from_arrow(t).repartition(9), "doc_id",
                      "text", min_tf=2, num_partitions=32) \
        .to_pandas().sort_values(["doc_id", "tok"]) \
        .reset_index(drop=True)

    texts = t.column("text").to_pylist()
    n_docs = len(texts)
    df = collections.Counter()
    tfs = []
    for i, s in enumerate(texts):
        c = collections.Counter(s.split(" ") if s else [])
        df.update(c.keys())
        tfs.append((i, c))
    rows = []
    for i, c in tfs:
        for tok, tf in c.items():
            if tf >= 2:
                rows.append((i, tok, tf,
                             round(tf * np.log(n_docs / df[tok]), 6)))
    rows.sort()
    assert len(got) == len(rows)
    for (doc, tok, tf, score), (_, r) in zip(rows, got.iterrows()):
        assert r["doc_id"] == doc and r["tok"] == tok
        assert r["tf"] == tf
        assert abs(r["tfidf"] - score) < 1e-9


# ------------------------ fan-in top-k merge ------------------------------


def test_fanin_topk_matches_pandas_merge_many_blocks(ray_session):
    """fanin_topk at a forced high block count must equal the driver-
    side pandas merge it replaced (deterministic tie-breaks)."""
    import pandas as pd
    import ray.data as rd

    from proj_ray.stages.ann import fanin_topk

    rng = np.random.default_rng(5)
    n = 5000
    t = pa.table({
        "query_id": pa.array(rng.integers(0, 37, n).astype(np.int64)),
        "vec_id": pa.array(rng.permutation(n).astype(np.int64)),
        "cosine": pa.array(np.round(rng.uniform(-1, 1, n), 3))})
    k = 5
    got = fanin_topk(rd.from_arrow(t).repartition(64), k) \
        .to_pandas().sort_values(["query_id", "rank"]) \
        .reset_index(drop=True)

    df = t.to_pandas()

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["cosine", "vec_id"],
                          ascending=[False, True]).head(k).copy()
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g

    want = df.groupby("query_id", group_keys=False)[df.columns] \
        .apply(lambda g: merge(g)).sort_values(["query_id", "rank"]) \
        .reset_index(drop=True)
    assert len(got) == len(want)
    np.testing.assert_array_equal(got["query_id"], want["query_id"])
    np.testing.assert_array_equal(got["vec_id"], want["vec_id"])
    np.testing.assert_array_equal(got["rank"], want["rank"])
    np.testing.assert_allclose(got["cosine"], want["cosine"])


def test_ann_brute_topk_many_blocks(ray_session):
    """End-to-end ANN over many small blocks: the fan-in merge must
    yield the exact brute-force top-k."""
    import ray.data as rd

    from proj_ray.stages.ann import ann_brute_topk

    rng = np.random.default_rng(9)
    n, d = 400, 16
    emb = rng.normal(size=(n, d))
    ds = rd.from_arrow(pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64)),
        "embedding": pa.array(list(emb))})).repartition(23)
    nq = 7
    qmat = rng.normal(size=(nq, d))
    queries = {"query_id": np.arange(nq, dtype=np.int64),
               "embedding": qmat}
    got = ann_brute_topk(ds, queries, k=3).to_pandas() \
        .sort_values(["query_id", "rank"]).reset_index(drop=True)

    qn = qmat / np.linalg.norm(qmat, axis=1, keepdims=True)
    en = emb / np.linalg.norm(emb, axis=1, keepdims=True)
    sims = np.round(qn @ en.T, 9)
    for q in range(nq):
        sub = got[got["query_id"] == q]
        assert len(sub) == 3
        order = np.lexsort((np.arange(n), -sims[q]))[:3]
        np.testing.assert_array_equal(sub["vec_id"].to_numpy(),
                                      order)


# ------------------- HLL-gated regime selection ---------------------------


def test_estimate_vocab_within_hll_error(ray_session):
    import ray.data as rd

    from proj_ray.stages.text import estimate_vocab

    t = _docs_table(300, vocab=800, seed=21)
    true_v = len({w for s in t.column("text").to_pylist()
                  for w in s.split(" ")})
    est = estimate_vocab(rd.from_arrow(t).repartition(7))
    assert abs(est - true_v) / true_v < 0.1


def test_unigram_logprob_auto_regimes_identical(ray_session):
    """The broadcast and shuffled regimes must give identical rounded
    values — forced each way through the gate threshold."""
    import ray.data as rd

    from proj_ray.stages.text import unigram_logprob_auto

    t = _docs_table(120, vocab=300, seed=31)
    ds = rd.from_arrow(t).repartition(6)
    a = unigram_logprob_auto(ds, broadcast_max_vocab=10_000_000) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    b = unigram_logprob_auto(ds, broadcast_max_vocab=1) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    np.testing.assert_array_equal(a["n_tok"], b["n_tok"])
    np.testing.assert_allclose(a["mean_nll"], b["mean_nll"],
                               rtol=0, atol=0)


def test_corpus_curation_regimes_identical(ray_session, monkeypatch):
    """q_corpus_curation's two vocabulary regimes must produce the
    same (split, lang) summary — forced via the gate constant."""
    import proj_ray.pipelines.queries as Q
    import proj_ray.stages.text as T

    sf = "/root/testdata/sf0.001"
    a = Q.q_corpus_curation(sf).to_pandas() \
        .sort_values(["split", "lang"]).reset_index(drop=True)
    monkeypatch.setattr(T, "_BROADCAST_MAX_VOCAB", 1)
    b = Q.q_corpus_curation(sf).to_pandas() \
        .sort_values(["split", "lang"]).reset_index(drop=True)
    import pandas as pd

    pd.testing.assert_frame_equal(a, b)
