"""Round-4 second-wave operators: repetition quality signals,
contamination flags, embedding centroids."""

import numpy as np
import pyarrow as pa
import pytest


def test_repetition_stats_edges():
    from proj_ray.stages.text import repetition_stats_batch

    t = pa.table({
        "doc_id": [1, 2, 3, 4],
        "text": ["a b a b a b",          # top 2-gram "a b" x3 of 5
                 "x",                     # single token
                 "",                      # empty -> [''] one token
                 "p q r"],                # all distinct
    })
    out = repetition_stats_batch(t).to_pydict()
    assert out["n_tok"] == [6, 1, 1, 3]
    assert out["n_distinct"] == [2, 1, 1, 3]
    assert out["top2gram_count"] == [3, 0, 0, 1]
    assert out["dup_token_frac"][0] == pytest.approx(1 - 2 / 6)
    assert out["top2gram_frac"][0] == pytest.approx(3 / 5)
    assert out["top2gram_frac"][1] == 0.0
    assert out["dup_token_frac"][3] == 0.0


def test_embedding_centroids_end_to_end(ray_session):
    """Run the actual query at sf0.001 and check one label's centroid
    against a direct numpy mean over the raw parquet."""
    import pyarrow.parquet as pq

    from proj_ray.pipelines.queries import q_embedding_centroids

    sf = "/root/testdata/sf0.001"
    got = q_embedding_centroids(sf).to_pandas()
    raw = pq.read_table(f"{sf}/embeddings.parquet").to_pandas()
    lab0 = int(raw["label"].iloc[0])
    mat = np.stack(raw.loc[raw["label"] == lab0, "embedding"]
                   .to_numpy()).astype(np.float64)
    want = np.round(mat.mean(axis=0), 6)
    g0 = got[got["label"] == lab0].sort_values("dim")
    np.testing.assert_allclose(g0["mean_v"].to_numpy(), want,
                               atol=1e-9)
    assert (g0["n_vecs"] == len(mat)).all()


def test_contamination_flags_hand_case(ray_session):
    import ray
    import ray.data as rd

    from proj_ray.stages.text import (benchmark_ngram_set,
                                      contamination_flags)

    bench = benchmark_ngram_set(["the quick brown fox jumps"], n=3)
    corpus = pa.table({
        "doc_id": [1, 2, 3],
        "text": ["a quick brown fox here",       # "quick brown fox"
                 "the quick red fox jumps",      # no shared 3-gram
                 "brown fox jumps high"],        # "brown fox jumps"
    })
    out = {r["doc_id"]: (r["contaminated"], r["n_hits"])
           for r in contamination_flags(
               rd.from_arrow(corpus), ray.put(bench),
               n=3).take_all()}
    assert out[1] == (True, 1)
    assert out[2] == (False, 0)
    assert out[3] == (True, 1)


def test_contamination_no_cross_doc_grams(ray_session):
    """An n-gram spanning two documents in the same batch must NOT
    count (boundary invalidation)."""
    import ray

    from proj_ray.stages.text import (benchmark_ngram_set,
                                      contamination_flags)

    # bench gram "x y z"; doc 1 ends with "x y", doc 2 starts with "z"
    bench = benchmark_ngram_set(["x y z"], n=3)
    corpus = pa.table({"doc_id": [1, 2],
                       "text": ["a x y", "z b c"]})
    import ray.data as rd

    out = {r["doc_id"]: r["n_hits"]
           for r in contamination_flags(
               rd.from_arrow(corpus), ray.put(bench),
               n=3).take_all()}
    assert out == {1: 0, 2: 0}


