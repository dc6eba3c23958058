"""The fused flagship kernel: coord-span parsing, sort-free tile
partials, and the bounded doc slices it runs on."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from proj_ray.docs.spans import extract_coords_batch
from proj_ray.docs.synth import make_doc_batch, span_layout
from proj_ray.pipelines.flagship import (_DOC_SLICE, _TILE_AGGS,
                                         _polygon_index, _tile_partials,
                                         doc_tile_partials)
from proj_ray.spatial.pip import make_polygons, points_in_polygon
from proj_ray.spatial.tiles import tile_xy

ZOOM = 8


def take_extract(batch: pa.Table) -> pa.Table:
    """Reference coord-span explode: whole-struct take, then lon and lat
    picked from the parsed pieces with two takes."""
    spans = batch.column("spans").combine_chunks()
    doc_ids = batch.column("doc_id").combine_chunks()
    flat = spans.flatten()
    parent = pc.list_parent_indices(spans)
    idx = pc.indices_nonzero(pc.equal(flat.field("kind"), "coord"))
    rows = flat.take(idx)
    lonlat = pc.split_pattern(rows.field("text"), " ").flatten() \
        .cast(pa.float64())
    return pa.table({
        "doc_id": doc_ids.take(parent.take(idx)),
        "offset": rows.field("offset"),
        "lon": lonlat.take(pa.array(np.arange(0, len(lonlat), 2))),
        "lat": lonlat.take(pa.array(np.arange(1, len(lonlat), 2))),
    })


def no_coord_ids(n: int) -> np.ndarray:
    """The first n doc ids from 0 on that have no coord span."""
    ids = np.arange(20 * n, dtype=np.int64)
    lay = span_layout(ids)
    has = np.zeros(len(ids), dtype=bool)
    has[lay["doc_idx"][lay["kind_code"] == 1]] = True
    return ids[~has][:n]


def test_extract_coords_batch_matches_take_reference():
    ids = np.arange(70_001, 76_001, dtype=np.int64)
    whole = make_doc_batch(ids)
    two_chunks = pa.concat_tables([whole.slice(0, 2500),
                                   whole.slice(2500)])
    assert two_chunks.column("spans").num_chunks == 2
    bare = make_doc_batch(no_coord_ids(50))
    mixed = pa.concat_tables([bare, make_doc_batch(ids[:40])])
    cases = {"whole": whole, "two_chunks": two_chunks,
             "slice": whole.slice(1234, 777), "no_coords": bare,
             "mixed": mixed, "empty": whole.slice(0, 0)}
    for name, batch in cases.items():
        got, want = extract_coords_batch(batch), take_extract(batch)
        assert got.schema == want.schema, name
        assert got.equals(want), name
    assert extract_coords_batch(bare).num_rows == 0
    assert extract_coords_batch(mixed).num_rows > 0


def coord_frame(ids: np.ndarray) -> pd.DataFrame:
    """Per coord span: tile, PIP match count, webmerc x/y and UTM x,
    computed from span_layout's numbers without the doc text."""
    from proj_ray.pipeline import create_operation, transform_arrays

    lay = span_layout(ids)
    m = lay["kind_code"] == 1
    lon, lat = lay["lon"][m], lay["lat"][m]
    tx, ty = tile_xy(lon, lat, ZOOM)
    pts, _ = _polygon_index(64).query_batch(lon, lat)
    c = transform_arrays(create_operation("+proj=webmerc +ellps=WGS84"),
                         lon, lat)
    u = transform_arrays(
        create_operation("+proj=utm +zone=32 +ellps=WGS84"), lon, lat)
    return pd.DataFrame({
        "tile": ty * (1 << ZOOM) + tx,
        "joined": np.bincount(pts, minlength=len(lon)),
        "x": c.x, "y": c.y, "ux": np.where(np.isfinite(u.x), u.x, 0.0)})


def test_doc_tile_partials_match_pandas_groupby():
    ids = np.arange(5_000, 9_000, dtype=np.int64)
    got = doc_tile_partials(make_doc_batch(ids), _polygon_index(64), ZOOM)
    want = coord_frame(ids).groupby("tile").agg(
        n_points=("x", "size"), n_joined=("joined", "sum"),
        x_sum=("x", "sum"), y_sum=("y", "sum"),
        utmx_sum=("ux", "sum")).reset_index()
    assert got.column_names == ["tile"] + [c for c, _ in _TILE_AGGS]
    g = got.to_pandas()
    for c in ("tile", "n_points", "n_joined"):
        assert g[c].dtype == np.int64, c
        np.testing.assert_array_equal(g[c], want[c], err_msg=c)
    assert g["n_joined"].sum() > 0
    for c in ("x_sum", "y_sum", "utmx_sum"):
        np.testing.assert_allclose(g[c], want[c], rtol=1e-12, err_msg=c)

    # a batch without coords gives a typed 0-row table
    empty = doc_tile_partials(make_doc_batch(no_coord_ids(30)),
                              _polygon_index(64), ZOOM)
    assert empty.num_rows == 0 and empty.schema == got.schema


def brute_tiles(n_docs: int):
    """(tiles, points per tile, PIP match total) of doc ids 0..n_docs-1
    by testing every polygon against every point (bbox-prefiltered)."""
    lay = span_layout(np.arange(n_docs, dtype=np.int64))
    m = lay["kind_code"] == 1
    lon, lat = lay["lon"][m], lay["lat"][m]
    tx, ty = tile_xy(lon, lat, ZOOM)
    tiles, counts = np.unique(ty * (1 << ZOOM) + tx, return_counts=True)
    joined = 0
    for ring in make_polygons(64)["rings"]:
        ring = np.asarray(ring, dtype=np.float64)
        s = ((lon >= ring[:, 0].min()) & (lon <= ring[:, 0].max())
             & (lat >= ring[:, 1].min()) & (lat <= ring[:, 1].max()))
        if s.any():
            joined += int(points_in_polygon(lon[s], lat[s], ring).sum())
    return tiles, counts, joined


N_DOCS = 2 * _DOC_SLICE + 7


def test_flagship_across_slice_boundaries_matches_brute_force(
        ray_session):
    from proj_ray.pipelines.flagship import flagship

    tiles, counts, joined = brute_tiles(N_DOCS)
    for parallelism in (1, 3):
        got = flagship(n_docs=N_DOCS, parallelism=parallelism) \
            .to_pandas().sort_values("tile")
        np.testing.assert_array_equal(got["tile"], tiles)
        np.testing.assert_array_equal(got["n_points"], counts)
        assert int(got["n_joined"].sum()) == joined


def test_kernel_fuses_with_doc_source_on_bounded_slices(ray_session):
    """One block of N_DOCS docs: the doc source's map and the kernel run
    as one fused operator, and the kernel is called once per slice of
    _DOC_SLICE docs (its partial rows are the per-slice tile counts)."""
    from proj_ray.docs.synth import doc_dataset

    ds = _tile_partials(doc_dataset(N_DOCS, parallelism=1), ZOOM, 64) \
        .materialize()
    assert "MapBatches(<lambda>)->MapBatches(doc_tile_partials)" \
        in ds.stats()
    lay = span_layout(np.arange(N_DOCS, dtype=np.int64))
    m = lay["kind_code"] == 1
    tx, ty = tile_xy(lay["lon"][m], lay["lat"][m], ZOOM)
    tile = ty * (1 << ZOOM) + tx
    doc = lay["doc_idx"][m]
    per_slice = sum(
        len(np.unique(tile[(doc >= s) & (doc < s + _DOC_SLICE)]))
        for s in range(0, N_DOCS, _DOC_SLICE))
    assert ds.count() == per_slice


@pytest.mark.parametrize("n_shards", [1, 3])
def test_resumable_flagship_across_slice_boundaries(tmp_path, ray_session,
                                                    n_shards):
    """Shards longer than one slice checkpoint the same tiles as the
    one-shot pipeline."""
    from test_checkpoint import assert_tiles_match_oneshot

    from proj_ray.pipelines.flagship import resumable_flagship

    tiles, computed, _ = resumable_flagship(N_DOCS, n_shards,
                                            str(tmp_path / "ckpt"))
    assert computed == n_shards
    assert_tiles_match_oneshot(tiles, N_DOCS)
