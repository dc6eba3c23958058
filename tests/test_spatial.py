"""Spatial core correctness: span extraction, PIP joins (broadcast vs
shuffle vs brute force, salted vs unsalted), rect join + tiles + cells +
kNN against DuckDB oracles."""

import duckdb
import numpy as np
import pyarrow as pa
import pytest

import ray.data as rd

from proj_ray.docs.synth import (
    make_doc_batch,
    span_layout,
    sql_coords_cte,
    doc_dataset,
)
from proj_ray.docs.spans import extract_coords_batch, verify_span_invariant
from proj_ray.spatial.cells import grid_cell, s2_cell, s2_parent, \
    sql_grid_cell_expr
from proj_ray.spatial.join import (
    broadcast_pip_join,
    detect_hot_cells,
    rect_join_batch,
    shuffle_pip_join,
)
from proj_ray.spatial.knn import (
    haversine_m,
    knn_brute,
    knn_cell_ring,
    make_queries,
)
from proj_ray.spatial import pip
from proj_ray.spatial.pip import PolygonIndex, make_polygons, make_rects, \
    points_in_polygon, sql_rects_cte
from proj_ray.spatial.tiles import sql_tile_exprs, tile_xy

N_DOCS = 2000
IDS = np.arange(N_DOCS, dtype=np.int64)


@pytest.fixture(scope="module")
def coords():
    lay = span_layout(IDS)
    mask = lay["kind_code"] == 1
    return {
        "doc_id": np.array([f"doc-{d:012d}" for d in lay["doc_idx"][mask]]),
        "offset": lay["offset"][mask],
        "lon": lay["lon"][mask],
        "lat": lay["lat"][mask],
    }


@pytest.fixture(scope="module")
def coords_ds(ray_session, coords):
    t = pa.table({
        "doc_id": coords["doc_id"],
        "offset": pa.array(coords["offset"], type=pa.int32()),
        "lon": coords["lon"],
        "lat": coords["lat"],
    })
    return rd.from_arrow(t)


def test_extract_matches_layout(coords):
    batch = make_doc_batch(IDS)
    flat = extract_coords_batch(batch)
    assert flat.num_rows == len(coords["lon"])
    assert np.array_equal(flat.column("lon").to_numpy(), coords["lon"])
    assert np.array_equal(flat.column("lat").to_numpy(), coords["lat"])
    assert flat.column("doc_id").to_pylist() == list(coords["doc_id"])


def test_span_invariant_roundtrip(ray_session):
    before = doc_dataset(500, parallelism=4)
    after = doc_dataset(500, parallelism=8)  # different partitioning
    assert verify_span_invariant(before, after)


def test_span_invariant_detects_mutation(ray_session):
    """A single mutated span text must flip the streaming checksum."""
    import pyarrow as pa

    before = doc_dataset(200, parallelism=4)

    def corrupt(t: pa.Table) -> pa.Table:
        spans = t.column("spans")
        if isinstance(spans, pa.ChunkedArray):
            spans = spans.combine_chunks()
        flat = spans.flatten()
        texts = flat.field("text").to_pylist()
        texts[0] = texts[0] + "!"
        off = spans.offsets
        fixed = pa.StructArray.from_arrays(
            [flat.field("kind"), pa.array(texts),
             flat.field("media_ref"), flat.field("offset")],
            names=["kind", "text", "media_ref", "offset"])
        newspans = pa.ListArray.from_arrays(off, fixed)
        return t.set_column(t.schema.get_field_index("spans"), "spans",
                            newspans)

    after = doc_dataset(200, parallelism=4) \
        .map_batches(corrupt, batch_format="pyarrow")
    assert not verify_span_invariant(before, after)


def test_grid_cell_sql(coords):
    con = duckdb.connect()
    con.execute("CREATE TABLE documents AS SELECT * FROM range(%d) t(doc_id)"
                % N_DOCS)
    expr = sql_grid_cell_expr("lon", "lat", 5.0)
    q = "WITH " + sql_coords_cte() + \
        f" SELECT doc_id, off, {expr} AS cell FROM coords ORDER BY doc_id, off"
    rows = con.execute(q).fetchnumpy()
    mine = grid_cell(coords["lon"], coords["lat"], 5.0)
    assert np.array_equal(rows["cell"], mine)


def test_s2_cell_hierarchy():
    lon = np.array([-122.42, 2.35, 139.69, 0.0, 179.99, -179.99])
    lat = np.array([37.77, 48.86, 35.69, -89.9, 0.0, 0.0])
    c8 = s2_cell(lon, lat, 8)
    c12 = s2_cell(lon, lat, 12)
    assert np.array_equal(s2_parent(c12, 12, 8), c8)
    # nearby points share a parent cell at coarse level
    c4a = s2_cell(np.array([10.0]), np.array([50.0]), 4)
    c4b = s2_cell(np.array([10.01]), np.array([50.01]), 4)
    assert c4a[0] == c4b[0]


def test_uv_to_st_matches_two_branch_form():
    from proj_ray.spatial.cells import _uv_to_st

    u = np.concatenate([np.linspace(-1.0, 1.0, 200001),
                        [-0.0, 0.0, -1 / 3, 1 / 3]])
    with np.errstate(invalid="ignore"):
        two_branch = np.where(u >= 0,
                              0.5 * np.sqrt(1 + 3 * u),
                              1 - 0.5 * np.sqrt(1 - 3 * u))
    assert np.array_equal(_uv_to_st(u), two_branch)


def test_s2_cell_is_silent():
    import warnings

    lon = np.linspace(-180.0, 180.0, 721)
    lat = np.linspace(-89.9, 89.9, 721)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s2_cell(lon, lat, 12)


def test_tiles_sql(coords):
    con = duckdb.connect()
    con.execute("CREATE TABLE documents AS SELECT * FROM range(%d) t(doc_id)"
                % N_DOCS)
    for zoom in (2, 8, 12):
        txs, tys = sql_tile_exprs("lon", "lat", zoom)
        q = "WITH " + sql_coords_cte() + \
            f" SELECT {txs} AS tx, {tys} AS ty FROM coords ORDER BY doc_id, off"
        rows = con.execute(q).fetchnumpy()
        tx, ty = tile_xy(coords["lon"], coords["lat"], zoom)
        assert np.array_equal(rows["tx"], tx), f"zoom {zoom} tx"
        assert np.array_equal(rows["ty"], ty), f"zoom {zoom} ty"


def test_tile_edge_cases():
    tx, ty = tile_xy(np.array([-180.0, 180.0, 0.0]),
                     np.array([85.05112878, -85.05112878, 0.0]), 2)
    assert list(tx) == [0, 3, 2]
    assert list(ty) == [0, 3, 2]


def _brute_pip(coords, polygons):
    rows = set()
    for pi, ring in enumerate(polygons["rings"]):
        hit = points_in_polygon(coords["lon"], coords["lat"], ring)
        for i in np.flatnonzero(hit):
            rows.add((coords["doc_id"][i], int(coords["offset"][i]),
                      polygons["polygon_id"][pi]))
    return rows


def test_broadcast_pip_join_vs_brute(ray_session, coords_ds, coords):
    polys = make_polygons(48)
    out = broadcast_pip_join(coords_ds, polys).to_pandas()
    got = set(zip(out["doc_id"], out["offset"], out["polygon_id"]))
    want = _brute_pip(coords, polys)
    assert got == want
    assert len(want) > 50  # fixture actually exercises the join


def test_shuffle_pip_join_matches_broadcast(ray_session, coords_ds, coords):
    polys = make_polygons(48)
    want = _brute_pip(coords, polys)
    out = shuffle_pip_join(coords_ds, polys).to_pandas()
    got = set(zip(out["doc_id"], out["offset"], out["polygon_id"]))
    assert got == want
    assert len(out) == len(want)  # no match emitted twice
    # salted variant must produce identical rows
    salt = {int(c): 4 for c in
            np.unique(grid_cell(coords["lon"], coords["lat"], 5.0))[:5]}
    out2 = shuffle_pip_join(coords_ds, polys, salt=salt).to_pandas()
    got2 = set(zip(out2["doc_id"], out2["offset"], out2["polygon_id"]))
    assert got2 == want
    assert len(out2) == len(want)
    # every cell salted 40 ways, more sub-keys than the 32 partitions:
    # sub-keys of one cell share partitions
    salt = {int(c): 40 for c in
            np.unique(grid_cell(coords["lon"], coords["lat"], 5.0))}
    out3 = shuffle_pip_join(coords_ds, polys, salt=salt).to_pandas()
    assert set(zip(out3["doc_id"], out3["offset"],
                   out3["polygon_id"])) == want
    assert len(out3) == len(want)


# ---- PolygonIndex.query_batch against brute force over every polygon ----


def _probe_pairs(index, lon, lat):
    pts, polys = index.query_batch(lon, lat)
    got = list(zip(pts.tolist(), polys.tolist()))
    assert len(got) == len(set(got))  # each pair once
    return set(got)


def _brute_pairs(lon, lat, polygons):
    # horizontal edges divide by zero in the scalar test (masked out)
    with np.errstate(divide="ignore", invalid="ignore"):
        return {(int(i), pi) for pi, ring in enumerate(polygons["rings"])
                for i in np.flatnonzero(points_in_polygon(lon, lat, ring))}


@pytest.mark.parametrize("n_poly", [48, 64])
def test_probe_matches_brute_on_corpus(coords, n_poly):
    polys = make_polygons(n_poly)
    assert {len(r) for r in polys["rings"]} == set(range(5, 13))
    want = _brute_pairs(coords["lon"], coords["lat"], polys)
    got = _probe_pairs(PolygonIndex(polys, 5.0), coords["lon"],
                       coords["lat"])
    assert got == want
    assert len(want) > 50


def test_probe_matches_brute_on_vertices_and_edges():
    """Points exactly on vertices, on horizontal edges and on edge
    midpoints take the same side of the half-open rule as the scalar
    test."""
    rings = [
        np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [0.0, 10.0]]),
        # non-convex U with horizontal edges at three heights
        np.array([[20.0, 0.0], [35.0, 0.0], [35.0, 12.0], [30.0, 12.0],
                  [30.0, 5.0], [25.0, 5.0], [25.0, 12.0], [20.0, 12.0]]),
        np.array([[-40.0, -20.0], [-5.0, -20.0], [-22.5, 15.0]]),
    ] + make_polygons(16, seed=99)["rings"]
    polys = {"polygon_id": [f"p{i}" for i in range(len(rings))],
             "rings": rings}
    lon, lat = [], []
    for ring in rings:
        nxt = np.roll(ring, -1, axis=0)
        for t in (0.0, 0.25, 0.5, 0.75):
            pt = ring + t * (nxt - ring)
            lon.extend(pt[:, 0])
            lat.extend(pt[:, 1])
        # every vertex abscissa at every vertex ordinate, and one ulp
        # to either side in each axis
        gx, gy = np.meshgrid(ring[:, 0], ring[:, 1])
        for dx in (-np.inf, 0.0, np.inf):
            for dy in (-np.inf, 0.0, np.inf):
                lon.extend(np.nextafter(gx.ravel(), gx.ravel() + dx))
                lat.extend(np.nextafter(gy.ravel(), gy.ravel() + dy))
    lon, lat = np.array(lon), np.array(lat)
    index = PolygonIndex(polys, 5.0)
    want = _brute_pairs(lon, lat, polys)
    assert _probe_pairs(index, lon, lat) == want
    # the fixture has boundary points on both sides of the rule
    on_square = {i for i, p in want if p == 0}
    assert on_square and len(on_square) < np.sum(
        (lon >= 0) & (lon <= 10) & (lat >= 0) & (lat <= 10))


def test_probe_matches_brute_past_antimeridian():
    polys = make_polygons(64)
    wrap = [r for r in polys["rings"]
            if r[:, 0].max() > 180.0 or r[:, 0].min() < -180.0]
    assert wrap  # make_polygons does emit rings past +-180
    rng = np.random.default_rng(5)
    lon, lat = [], []
    for r in wrap:
        x = rng.uniform(r[:, 0].min(), r[:, 0].max(), 2000)
        y = rng.uniform(r[:, 1].min(), r[:, 1].max(), 2000)
        # points on the ring's side of the antimeridian and their images
        x = np.concatenate([x, x - 360.0, x + 360.0])
        y = np.tile(y, 3)
        ok = (x >= -180.0) & (x <= 180.0)
        lon.extend(x[ok])
        lat.extend(y[ok])
    lon, lat = np.array(lon), np.array(lat)
    want = _brute_pairs(lon, lat, polys)
    assert _probe_pairs(PolygonIndex(polys, 5.0), lon, lat) == want
    assert want


def test_probe_empty_batch_and_no_candidate_cells():
    index = PolygonIndex(make_polygons(48), 5.0)
    pts, polys = index.query_batch(np.empty(0), np.empty(0))
    assert len(pts) == len(polys) == 0
    assert pts.dtype == polys.dtype == np.int64
    small = {"polygon_id": ["only"],
             "rings": [np.array([[1.0, 1.0], [2.0, 1.0], [1.5, 2.0]])]}
    lon = np.array([-120.0, 60.0, 150.0, 1.5])
    lat = np.array([40.0, -30.0, 80.0, -60.0])
    pts, polys = PolygonIndex(small, 5.0).query_batch(lon, lat)
    assert len(pts) == len(polys) == 0


def test_probe_matches_brute_across_chunks(coords, monkeypatch):
    """A batch with many more candidate pairs than one chunk holds."""
    polys = make_polygons(64)
    want = _brute_pairs(coords["lon"], coords["lat"], polys)
    chunks = []
    real = pip._point_chunks

    def counted(cnt):
        for lo_hi in real(cnt):
            chunks.append(lo_hi)
            yield lo_hi

    monkeypatch.setattr(pip, "_PAIR_CHUNK", 31)
    monkeypatch.setattr(pip, "_point_chunks", counted)
    got = _probe_pairs(PolygonIndex(polys, 5.0), coords["lon"],
                       coords["lat"])
    assert got == want
    assert len(chunks) > 10


def test_skew_detection(ray_session, coords_ds):
    hot = detect_hot_cells(coords_ds, sample_fraction=0.5, hot_factor=4.0)
    # the synthetic hotspots guarantee at least one hot cell
    assert len(hot) >= 1
    assert all(v >= 2 for v in hot.values())


def test_rect_join_vs_duckdb(coords):
    rects = make_rects(64)
    batch = pa.table({
        "doc_id": coords["doc_id"],
        "offset": pa.array(coords["offset"], type=pa.int32()),
        "lon": coords["lon"],
        "lat": coords["lat"],
    })
    out = rect_join_batch(batch, rects)
    got = set(zip(out.column("doc_id").to_pylist(),
                  out.column("off").to_pylist(),
                  out.column("rect_id").to_pylist()))
    con = duckdb.connect()
    con.execute("CREATE TABLE documents AS SELECT * FROM range(%d) t(doc_id)"
                % N_DOCS)
    q = ("WITH " + sql_coords_cte() + ", " + sql_rects_cte()
         + """ SELECT printf('doc-%012d', c.doc_id) AS doc_id, c.off,
                      r.rect_id
               FROM coords c JOIN rects r
                 ON c.lon >= r.lon_min AND c.lon < r.lon_max
                AND c.lat >= r.lat_min AND c.lat < r.lat_max""")
    want = set(map(tuple, con.execute(q).fetchall()))
    assert got == want
    assert len(want) > 50


def test_knn_brute_vs_cell_ring(ray_session, coords_ds, coords):
    queries = make_queries(20)
    brute = knn_brute(coords_ds, queries, k=5).to_pandas()
    ring = knn_cell_ring(coords_ds, queries, k=5, res_deg=5.0).to_pandas()
    b = brute.sort_values(["query_id", "rank"]).reset_index(drop=True)
    r = ring.sort_values(["query_id", "rank"]).reset_index(drop=True)
    # karney vs haversine metrics differ; compare ring against a direct
    # karney brute force instead
    brute_k = knn_brute(coords_ds, queries, k=5,
                        metric="karney").to_pandas()
    bk = brute_k.sort_values(["query_id", "rank"]).reset_index(drop=True)
    assert len(r) == len(bk)
    assert (r["doc_id"].values == bk["doc_id"].values).all()
    assert np.allclose(r["dist_m"].values, bk["dist_m"].values)
    assert len(b) == 20 * 5


def test_isea_hex_cells_equal_area_and_containment(ray_session):
    """Hex DGGS cells: every point within one circumradius of its cell
    center in the ISEA plane; occupancy flat across latitude bands
    (equal-area, unlike the lon/lat grid)."""
    import numpy as np

    from proj_ray.pipeline import transform_arrays
    from proj_ray.spatial.cells import (_HEX_BASE_M, _SQRT3, _isea,
                                        isea_hex_cell,
                                        isea_hex_center_plane)

    rng = np.random.default_rng(3)
    lon = rng.uniform(-179, 179, 5000)
    lat = rng.uniform(-85, 85, 5000)
    res = 6
    cells = isea_hex_cell(lon, lat, resolution=res)
    cx, cy = isea_hex_center_plane(cells)
    c = transform_arrays(_isea(), lon, lat)
    size = _HEX_BASE_M / (_SQRT3 ** res)
    assert (np.hypot(c.x - cx, c.y - cy) <= size * 1.0000001).all()
    # determinism + hierarchy: coarser resolution has fewer cells
    assert (isea_hex_cell(lon, lat, resolution=res) == cells).all()
    coarse = isea_hex_cell(lon, lat, resolution=res - 2)
    assert len(np.unique(coarse)) < len(np.unique(cells))
    # equal-area: points-per-cell flat across latitude bands
    import collections
    rates = []
    for b in ((-85, -45), (-45, 0), (0, 45), (45, 85)):
        m = (lat >= b[0]) & (lat < b[1])
        cc = collections.Counter(cells[m])
        rates.append(np.mean(list(cc.values())))
    assert max(rates) / min(rates) < 1.4


def test_points_in_polygon_horizontal_edge_is_silent():
    """A horizontal edge divides by zero in the crossing test; the
    result must not change and no RuntimeWarning may escape."""
    import warnings

    from proj_ray.spatial.pip import points_in_polygon

    ring = np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 3.0], [2.0, 3.0],
                     [0.0, 2.0]])
    lon = np.array([1.0, 2.0, 3.0, 5.0, 2.0, 0.0, 3.9])
    lat = np.array([1.0, 0.0, 3.0, 1.0, -1.0, 0.0, 2.9])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = points_in_polygon(lon, lat, ring)
    assert np.array_equal(got, points_in_polygon(lon, lat, ring))
    assert got.tolist() == [True, True, False, False, False, True, True]
