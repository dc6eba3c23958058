"""Round-5 fixes (ADVICE r4): deterministic geometry partitioning,
WKT1 GEOGCS angle units, empty-vocab NLL."""

import numpy as np
import pyarrow as pa


# ------------- geometry: deterministic string-key buckets --------------


def test_geometry_bucket_key_is_process_independent():
    """Non-integer keys must bucket via crc32, not Python hash() —
    hash() is salted per worker process, so the same polygon_id could
    land in different __part values in different batches and split
    one ring across groupby groups."""
    from proj_ray.stages.agg import crc_bucket
    from proj_ray.stages.partitioning import key_partition

    keys = pa.array([f"poly-{i:06d}" for i in range(64)])
    t = pa.table({"k": keys})
    got = key_partition(t.column("k"), 16)
    want = crc_bucket(keys, 16)
    np.testing.assert_array_equal(got, want)
    # integer keys keep the multiplicative-hash fast path
    ti = pa.table({"k": pa.array(np.arange(64, dtype=np.int64))})
    gi = key_partition(ti.column("k"), 16)
    assert gi.dtype == np.int64 and (gi >= 0).all() and (gi < 16).all()


def test_polygon_area_string_keys_one_row_per_key(ray_session):
    """End-to-end over many blocks: every string polygon key resolves
    to exactly ONE output row (the r4 bug emitted split partials)."""
    import ray.data as rd

    from proj_ray.spatial.geometry import polygon_area_centroid

    rng = np.random.default_rng(7)
    n_polys, n_vert = 40, 8
    keys, seqs, xs, ys = [], [], [], []
    for i in range(n_polys):
        cx, cy = rng.uniform(-50, 50, 2)
        ang = np.sort(rng.uniform(0, 2 * np.pi, n_vert))
        keys += [f"poly-{i:06d}"] * n_vert
        seqs += list(range(n_vert))
        xs += list(cx + np.cos(ang))
        ys += list(cy + np.sin(ang))
    t = pa.table({"polygon_id": keys, "seq": seqs,
                  "x": xs, "y": ys})
    out = polygon_area_centroid(
        rd.from_arrow(t).repartition(13), key="polygon_id",
        num_partitions=8).to_pandas()
    assert len(out) == n_polys
    assert out["polygon_id"].is_unique
    assert (out["n_vertices"] == n_vert).all()


# ---------------- WKT1: GEOGCS angular unit on parameters ---------------


def test_wkt1_grad_geogcs_scales_angle_parameters():
    """NTF Paris Lambert-style WKT1: the GEOGCS UNIT is grad, so flat
    PARAMETER angles are grads too (52 gr = 46.8 deg); linear and
    scale parameters must NOT be scaled."""
    from proj_ray.crs import CRS

    wkt = (
        'PROJCS["NTF (Paris) / Lambert zone II",'
        'GEOGCS["NTF (Paris)",'
        'DATUM["Nouvelle_Triangulation_Francaise_Paris",'
        'SPHEROID["Clarke 1880 (IGN)",6378249.2,293.4660212936269]],'
        'PRIMEM["Paris",2.33722917],'
        'UNIT["grad",0.01570796326794897]],'
        'PROJECTION["Lambert_Conformal_Conic_1SP"],'
        'PARAMETER["latitude_of_origin",52],'
        'PARAMETER["central_meridian",0],'
        'PARAMETER["scale_factor",0.99987742],'
        'PARAMETER["false_easting",600000],'
        'PARAMETER["false_northing",2200000],'
        'UNIT["metre",1]]')
    crs = CRS.from_wkt(wkt)
    p = crs.conversion.params
    assert abs(p["lat_0"] - 46.8) < 1e-9
    assert p["lon_0"] == 0.0
    assert abs(p["k_0"] - 0.99987742) < 1e-15
    assert p["x_0"] == 600000 and p["y_0"] == 2200000


def test_wkt1_degree_geogcs_unchanged():
    from proj_ray.crs import CRS

    wkt = (
        'PROJCS["UTM 31N",GEOGCS["WGS 84",'
        'DATUM["WGS_1984",SPHEROID["WGS 84",6378137,298.257223563]],'
        'PRIMEM["Greenwich",0],UNIT["degree",0.0174532925199433]],'
        'PROJECTION["Transverse_Mercator"],'
        'PARAMETER["latitude_of_origin",0],'
        'PARAMETER["central_meridian",3],'
        'PARAMETER["scale_factor",0.9996],'
        'PARAMETER["false_easting",500000],'
        'PARAMETER["false_northing",0],UNIT["metre",1]]')
    crs = CRS.from_wkt(wkt)
    assert crs.conversion.params["lon_0"] == 3.0


# ---------------------- empty-vocab unigram NLL --------------------------


def test_unigram_nll_empty_vocab_no_raise():
    from proj_ray.stages.text import unigram_nll_batch

    t = pa.table({"text": ["hello world", "", "one two three"]})
    vocab = np.zeros(0, dtype=np.uint64)
    cnts = np.zeros(0, dtype=np.int64)
    counts, mean = unigram_nll_batch(t, vocab, cnts, total_tokens=0,
                                     alpha=1.0, vocab_size=100)
    assert list(counts) == [2, 1, 3]
    # every token unseen -> NLL = -log(alpha / (0 + alpha*V)) = log(V)
    want = np.log(100.0)
    assert abs(mean[0] - want) < 1e-12
    assert abs(mean[2] - want) < 1e-12
