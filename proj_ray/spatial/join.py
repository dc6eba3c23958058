"""Distributed spatial joins over Ray Data.

Three strategies, picked by build-side size (SURVEY.md §2.8/§7):

* broadcast_pip_join — small polygon side: the PolygonIndex is built once
  on the driver, `ray.put` once, and probed vectorized inside
  map_batches tasks.  No shuffle at all; this is the default for
  dimension-table-sized polygon sets and scales to any point count.

* shuffle_pip_join — large build side: polygons replicate to every
  covering cell, points key by their cell, one two-input keyed exchange
  (`keyed_cogroup`) co-locates both, and each partition refines
  exactly.  Skewed cells are salted:
  a `groupby(cell).count()` over a sample detects hot cells
  (detect_hot_cells), hot points get `cell*S + hash%S` sub-keys and hot
  polygons replicate to all S sub-keys — join output is row-identical
  with and without salting (tested).

* rect_join_batch — rectangle (bbox) joins against a broadcast rect
  table, the SQL-oracle-checkable variant.

All joins emit (doc_id, offset/span key, polygon_id) rows sorted by a
deterministic tie-break so exact row-set equality against brute force
holds under any parallelism.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np
import pyarrow as pa

from proj_ray.spatial.cells import grid_cell
from proj_ray.spatial.pip import PolygonEdges, PolygonIndex, \
    polygon_covering_cells


# ---------------------------------------------------------------------------
# broadcast join
# ---------------------------------------------------------------------------


class BroadcastPIPJoiner:
    """map_batches callable-class stage holding the polygon index
    (fetched from the object store once per worker process through
    `stages.ann._cached_fn`)."""

    def __init__(self, index_ref):
        from proj_ray.stages.worker_cache import get_broadcast

        self.index: PolygonIndex = get_broadcast(index_ref)
        self.ids = np.asarray(self.index.polygon_id, dtype=object)

    def __call__(self, batch: pa.Table) -> pa.Table:
        lon = batch.column("lon").to_numpy(zero_copy_only=False)
        lat = batch.column("lat").to_numpy(zero_copy_only=False)
        pts, polys = self.index.query_batch(lon, lat)
        return pa.table({
            "doc_id": batch.column("doc_id").take(pa.array(pts)),
            "offset": batch.column("offset").take(pa.array(pts)),
            "polygon_id": pa.array(self.ids[polys], type=pa.string()),
        })


def broadcast_pip_join(coords_ds, polygons: Dict, res_deg: float = 5.0):
    """coords_ds: Dataset with (doc_id, offset, lon, lat).  The probe
    runs as stateless tasks, each worker process building its joiner
    once."""
    import ray

    from proj_ray.stages.ann import _cached_fn

    index = PolygonIndex(polygons, res_deg)
    ref = ray.put(index)
    return coords_ds.map_batches(
        _cached_fn(BroadcastPIPJoiner, ref),
        batch_format="pyarrow",
        batch_size=65536,
    )


# ---------------------------------------------------------------------------
# skew detection + salting
# ---------------------------------------------------------------------------


def detect_hot_cells(coords_ds, res_deg: float = 5.0,
                     sample_fraction: float = 0.05,
                     hot_factor: float = 8.0, seed: int = 7):
    """groupby(cell).count() over a sample; a cell is hot when its count
    exceeds hot_factor * mean.  Returns {cell_id: salt_buckets}."""
    sample = coords_ds.random_sample(sample_fraction, seed=seed)

    def add_cell(batch: pa.Table) -> pa.Table:
        cell = grid_cell(batch.column("lon").to_numpy(zero_copy_only=False),
                         batch.column("lat").to_numpy(zero_copy_only=False),
                         res_deg)
        return pa.table({"cell": pa.array(cell)})

    counts = (sample.map_batches(add_cell, batch_format="pyarrow")
              .groupby("cell").count().to_pandas())
    if len(counts) == 0:
        return {}
    mean = counts["count()"].mean()
    hot = counts[counts["count()"] > hot_factor * mean]
    out = {}
    for _, row in hot.iterrows():
        factor = row["count()"] / mean
        out[int(row["cell"])] = int(min(32, max(2, round(factor / 4))))
    return out


# ---------------------------------------------------------------------------
# shuffle join
# ---------------------------------------------------------------------------


def shuffle_pip_join(coords_ds, polygons: Dict, res_deg: float = 5.0,
                     salt: Optional[Dict[int, int]] = None):
    """Keyed-exchange spatial join for large build sides.

    Points map to salted cell keys; polygons replicate to every covering
    cell (all salt sub-keys for hot cells); one keyed exchange
    co-locates and refines.  Key = cell * 64 + salt_bucket.
    """
    import ray.data as rd

    from proj_ray.stages.partitioning import keyed_cogroup

    salt = salt or {}
    SALT_MAX = 64

    # polygon side: replicate to covering cells (+ salt replicas)
    keys, poly_idx = [], []
    rings = [np.asarray(r) for r in polygons["rings"]]
    for pi, ring in enumerate(rings):
        for cell in np.unique(polygon_covering_cells(ring, res_deg)):
            buckets = salt.get(int(cell), 1)
            keys.extend(int(cell) * SALT_MAX + b for b in range(buckets))
            poly_idx.extend([pi] * buckets)
    poly_table = pa.table({"key": pa.array(keys, type=pa.int64()),
                           "poly_idx": pa.array(poly_idx, type=pa.int64())})

    def key_points(batch: pa.Table) -> pa.Table:
        lon = batch.column("lon").to_numpy(zero_copy_only=False)
        lat = batch.column("lat").to_numpy(zero_copy_only=False)
        cell = grid_cell(lon, lat, res_deg)
        bucket = np.zeros(len(cell), dtype=np.int64)
        if salt:
            # salt hot cells by a STABLE doc hash -> sub-bucket
            # (vectorized crc over the Arrow buffer, no per-row Python)
            from proj_ray.stages.agg import crc_bucket

            h = crc_bucket(batch.column("doc_id"), 1 << 31)
            for c, s in salt.items():
                mask = cell == c
                bucket = np.where(mask, h % s, bucket)
        return pa.table({
            "key": pa.array(cell * SALT_MAX + bucket),
            "doc_id": batch.column("doc_id"),
            "offset": batch.column("offset"),
            "lon": batch.column("lon"),
            "lat": batch.column("lat"),
        })

    edges = PolygonEdges(rings)
    ids_arr = np.asarray(list(polygons["polygon_id"]), dtype=object)

    def refine(pts: pa.Table, cells: pa.Table) -> pa.Table:
        # (first, cnt, cand) CSR: each point's candidates are the
        # polygon rows of its own key
        ck = cells.column("key").to_numpy(zero_copy_only=False)
        order = np.argsort(ck, kind="stable")
        ck = ck[order]
        cand = cells.column("poly_idx").to_numpy(zero_copy_only=False)[order]
        pk = pts.column("key").to_numpy(zero_copy_only=False)
        first = np.searchsorted(ck, pk, side="left")
        cnt = np.searchsorted(ck, pk, side="right") - first
        p, hit = edges.match(
            pts.column("lon").to_numpy(zero_copy_only=False),
            pts.column("lat").to_numpy(zero_copy_only=False),
            first, cnt, cand)
        sel = pa.array(p)
        return pa.table({
            "doc_id": pts.column("doc_id").take(sel),
            "offset": pts.column("offset").take(sel),
            "polygon_id": pa.array(ids_arr[hit], type=pa.string()),
        })

    return keyed_cogroup(
        coords_ds.map_batches(key_points, batch_format="pyarrow"),
        rd.from_arrow(poly_table), "key", refine)


# ---------------------------------------------------------------------------
# rectangle join (oracle-checkable)
# ---------------------------------------------------------------------------


def rect_join_batch(batch: pa.Table, rects: Dict) -> pa.Table:
    """Vectorized point-in-rect join of one coord batch against the
    broadcast rect table (half-open [min, max) on both axes)."""
    lon = batch.column("lon").to_numpy(zero_copy_only=False)
    lat = batch.column("lat").to_numpy(zero_copy_only=False)
    hits_p = []
    hits_r = []
    for i in range(len(rects["rect_id"])):
        sel = ((lon >= rects["lon_min"][i]) & (lon < rects["lon_max"][i])
               & (lat >= rects["lat_min"][i]) & (lat < rects["lat_max"][i]))
        if sel.any():
            idx = np.flatnonzero(sel)
            hits_p.append(idx)
            hits_r.append(np.full(len(idx), rects["rect_id"][i],
                                  dtype=np.int64))
    if not hits_p:
        # derive empty-column types from the INPUT batch: a hard-coded
        # schema here diverges from non-empty blocks mid-stream the
        # first time a batch has no hits (latent r2 bug)
        none = pa.array([], type=pa.int64())
        return pa.table({"doc_id": batch.column("doc_id").take(none),
                         "off": batch.column("offset").take(none),
                         "rect_id": pa.array([], type=pa.int64())})
    pts = pa.array(np.concatenate(hits_p))
    return pa.table({
        "doc_id": batch.column("doc_id").take(pts),
        "off": batch.column("offset").take(pts),
        "rect_id": pa.array(np.concatenate(hits_r)),
    })
