"""Round-4 second-wave operators: full-outer copartition_join,
repetition quality signals."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def test_copartition_join_full_outer_both_sides(ray_session):
    import ray.data as rd

    from proj_ray.stages.relational import copartition_join

    left = pd.DataFrame({"k": [1, 2, 2, 5], "lv": [10, 20, 21, 50]})
    right = pd.DataFrame({"rk": [2, 3, 3, 7], "rv": ["a", "b", "c",
                                                     "d"]})
    out = copartition_join(rd.from_arrow(pa.Table.from_pandas(left)),
                           rd.from_arrow(pa.Table.from_pandas(right)),
                           on="k", right_on="rk",
                           how="full").to_pandas()
    want = left.merge(right, how="outer", left_on="k", right_on="rk")
    want["k"] = want["k"].fillna(want["rk"])
    want = want.drop(columns=["rk"])
    o = out.sort_values(["k", "lv", "rv"], na_position="first") \
        .reset_index(drop=True)
    w = want.sort_values(["k", "lv", "rv"], na_position="first") \
        .reset_index(drop=True)
    assert len(o) == len(w) == 7
    np.testing.assert_array_equal(o["k"].to_numpy(dtype=float),
                                  w["k"].to_numpy(dtype=float))
    np.testing.assert_array_equal(
        o["lv"].fillna(-1).to_numpy(dtype=float),
        w["lv"].fillna(-1).to_numpy(dtype=float))
    assert list(o["rv"].fillna("")) == list(w["rv"].fillna(""))


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


def test_copartition_agg_join_modes(ray_session):
    import ray.data as rd

    from proj_ray.stages.relational import copartition_agg_join

    left = pa.table({"k": pa.array([1, 2, 5], type=pa.int64()),
                     "name": ["a", "b", "e"]})
    # right partials: key 2 split across rows (partial aggregation),
    # key 7 has no left row
    right = pa.table({"rk": pa.array([2, 2, 7], type=pa.int64()),
                      "s": [10.0, 5.0, 3.0],
                      "n": pa.array([2, 1, 4], type=pa.int64())})
    for how, want_rows in (("inner", 1), ("left", 3), ("full", 4)):
        out = copartition_agg_join(
            rd.from_arrow(left), rd.from_arrow(right), on="k",
            right_on="rk", agg_cols=("s", "n"), how=how).to_pandas()
        assert len(out) == want_rows, how
        row2 = out[out["k"] == 2].iloc[0]
        assert row2["s"] == 15.0 and row2["n"] == 3
        if how != "inner":
            row1 = out[out["k"] == 1].iloc[0]
            assert pd.isna(row1["s"]) and pd.isna(row1["n"])
        if how == "full":
            row7 = out[out["k"] == 7].iloc[0]
            assert row7["s"] == 3.0 and row7["n"] == 4
            assert pd.isna(row7["name"])


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


def test_copartition_agg_join_property_random(ray_session):
    """Property check: fused agg-join == pandas groupby-sum + merge on
    randomized inputs across all three modes (hypothesis-style sweep
    with fixed seeds for determinism)."""
    import ray.data as rd

    rng = np.random.default_rng(21)
    from proj_ray.stages.relational import copartition_agg_join

    for trial in range(6):
        nl = int(rng.integers(0, 40))
        nr = int(rng.integers(0, 120))
        left = pd.DataFrame({
            "k": rng.integers(0, 12, nl).astype("int64"),
            "payload": rng.normal(size=nl),
        }).drop_duplicates("k")
        right = pd.DataFrame({
            "rk": rng.integers(0, 15, nr).astype("int64"),
            "s": rng.normal(size=nr),
            "n": rng.integers(1, 5, nr).astype("int64"),
        })
        want_agg = right.groupby("rk", as_index=False)[["s", "n"]].sum()
        for how in ("inner", "left", "full"):
            got = copartition_agg_join(
                rd.from_arrow(pa.Table.from_pandas(left)),
                rd.from_arrow(pa.Table.from_pandas(right)),
                on="k", right_on="rk", agg_cols=("s", "n"),
                how=how, num_partitions=3).to_pandas()
            pd_how = {"inner": "inner", "left": "left",
                      "full": "outer"}[how]
            want = left.merge(want_agg, how=pd_how, left_on="k",
                              right_on="rk")
            want["k"] = want["k"].fillna(want["rk"])
            want = want.drop(columns=["rk"])
            assert len(got) == len(want), (trial, how)
            g = got.sort_values("k").reset_index(drop=True)
            w = want.sort_values("k").reset_index(drop=True)
            np.testing.assert_allclose(
                g["k"].to_numpy(dtype=float),
                w["k"].to_numpy(dtype=float), err_msg=f"{trial}/{how}")
            np.testing.assert_allclose(
                g["s"].fillna(np.inf), w["s"].fillna(np.inf),
                atol=1e-12, err_msg=f"{trial}/{how}")
            np.testing.assert_allclose(
                g["n"].fillna(-1).astype(float),
                w["n"].fillna(-1).astype(float),
                err_msg=f"{trial}/{how}")
