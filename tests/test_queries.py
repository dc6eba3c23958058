"""Driver-gate mirror: a subset of queries vs their DuckDB oracles, plus
rows-only sanity for the rest (full sweep in tools/check_oracles.py)."""

import duckdb
import numpy as np
import pytest

from tools.check_oracles import compare, to_pandas

SF = "/root/testdata/sf0.001"
TABLES = ("region nation customer supplier part orders lineitem events "
          "documents embeddings").split()


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                  f"read_parquet('{SF}/{t}.parquet')")
    return c


@pytest.mark.parametrize("name", [
    "span_coords", "span_sequence", "webmerc_project", "cell_assign", "tile_assign",
    "rect_join", "knn_haversine", "cart_helmert", "text_stats",
    "hgridshift_synth", "vgridshift_synth", "pip_polygons", "utm_project",
    "exact_dedup", "ngram_jaccard", "dedup_clusters", "near_dup_keep",
    "events_window", "lineitem_agg",
    # the aggregate queries (combine-tree / hash aggregate, grouping sets)
    "lineitem_rollup", "lineitem_cube", "orders_gsets", "orders_quartiles",
    "lineitem_corr", "brand_supplier_revenue", "order_revenue",
    "events_promo", "events_sliding", "events_pivot", "events_resample",
    "tile_histogram", "cell_histogram", "tile_regions", "tile_pyramid",
    "doc_split", "doc_regex", "corpus_curation", "zonal_stats",
    "idle_customers", "active_customers", "urgent_orders",
    "customer_region", "embedding_centroids", "media_manifest",
    "frequent_tokens",
])
def test_query_matches_oracle(ray_session, con, name):
    from proj_ray.pipelines.queries import build_oracles, build_queries

    mine = to_pandas(build_queries()[name](SF))
    want = con.execute(build_oracles()[name]).df()
    assert compare(name, mine, want) == "OK", name


def test_rows_only_queries_run(ray_session):
    from proj_ray.pipelines.queries import build_queries

    q = build_queries()
    for name in ("geodesic_pairs",
                 "minhash_pairs", "simhash_pairs", "media_features",
                 "lang_quality", "ann_ivf"):
        res = to_pandas(q[name](SF))
        assert len(res) >= 0


def test_ann_ivf_recall(ray_session):
    """IVF recall vs brute force must be high on the test corpus."""
    import ray.data as rd

    from proj_ray.stages.ann import ann_brute_topk, ann_ivf_topk

    ds = rd.read_parquet(f"{SF}/embeddings.parquet")
    qdf = ds.to_pandas().head(8)
    queries = {"query_id": qdf["vec_id"].to_numpy(),
               "embedding": np.vstack(qdf["embedding"].to_numpy())}
    brute = ann_brute_topk(ds, queries, k=5).to_pandas()
    ivf = ann_ivf_topk(ds, queries, k=5, n_centroids=8,
                       nprobe=4).to_pandas()
    b = set(zip(brute["query_id"], brute["vec_id"]))
    v = set(zip(ivf["query_id"], ivf["vec_id"]))
    recall = len(b & v) / len(b)
    assert recall >= 0.7, recall


def test_lang_id_runs(ray_session):
    """The synthetic corpus text is English-ish word salad for every
    `lang` label (labels are random), so accuracy against the label is
    meaningless; assert the heuristic is deterministic and sane."""
    from proj_ray.pipelines.queries import build_queries

    df = to_pandas(build_queries()["lang_quality"](SF))
    assert set(df["lang_pred"]) <= {"en", "de", "fr", "es", "zh", "unknown"}
    known = df[df["lang_pred"] != "unknown"]
    # texts contain 'the' throughout -> overwhelmingly classified en
    assert (known["lang_pred"] == "en").mean() > 0.9
    df2 = to_pandas(build_queries()["lang_quality"](SF))
    assert (df.sort_values("doc_id")["lang_pred"].to_numpy()
            == df2.sort_values("doc_id")["lang_pred"].to_numpy()).all()
