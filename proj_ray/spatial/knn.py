"""k-nearest-neighbor search over the coordinate stream.

Scale path (`knn_cell_ring`): candidate generation by expanding grid-cell
rings around each query until >= k candidates are guaranteed, then exact
Karney-geodesic refinement and top-k with deterministic tie-break
(distance, doc_id, offset) — SURVEY.md §2.8.

Oracle path (`knn_brute_haversine`): exhaustive haversine distances,
mirrored exactly in SQL (sql_haversine_expr) so the driver can verify
against DuckDB.
"""

from __future__ import annotations

from typing import Dict

import numpy as np
import pyarrow as pa

from proj_ray.functions.geodesic import geodesic
from proj_ray.spatial.cells import grid_cell, grid_cell_neighbors

EARTH_R = 6371000.0


def haversine_m(lon1, lat1, lon2, lat2):
    """Great-circle distance (meters, sphere R=6371000) — operation order
    matches sql_haversine_expr bit-for-bit-ish (ulp-level)."""
    p1 = np.radians(lat1)
    p2 = np.radians(lat2)
    dphi = np.radians(lat2 - lat1)
    dlam = np.radians(lon2 - lon1)
    a = (np.sin(dphi / 2.0) ** 2
         + np.cos(p1) * np.cos(p2) * np.sin(dlam / 2.0) ** 2)
    return 2.0 * EARTH_R * np.arcsin(np.sqrt(a))


def sql_haversine_expr(lon1, lat1, lon2, lat2) -> str:
    return (
        f"2.0 * {EARTH_R!r} * asin(sqrt("
        f"pow(sin(radians({lat2} - {lat1}) / 2.0), 2) + "
        f"cos(radians({lat1})) * cos(radians({lat2})) * "
        f"pow(sin(radians({lon2} - {lon1}) / 2.0), 2)))"
    )


class BruteKNNJoiner:
    """Callable-class stage (one per worker process through
    `stages.ann._cached_fn`): holds the (small) query matrix, scores each
    coordinate batch against all queries vectorized, emits partial
    top-k per query per batch (combiner); a final small groupby merges."""

    def __init__(self, queries_ref, k: int, metric: str = "haversine"):
        from proj_ray.stages.worker_cache import get_broadcast

        q = get_broadcast(queries_ref)
        self.qlon = np.asarray(q["lon"], dtype=np.float64)
        self.qlat = np.asarray(q["lat"], dtype=np.float64)
        self.qid = np.asarray(q["query_id"], dtype=np.int64)
        self.k = k
        self.metric = metric
        self.geod = geodesic()  # WGS84

    def __call__(self, batch: pa.Table) -> pa.Table:
        lon = batch.column("lon").to_numpy(zero_copy_only=False)
        lat = batch.column("lat").to_numpy(zero_copy_only=False)
        if len(lon) == 0:
            # empty-column types must match non-empty blocks (take with
            # an empty index list preserves the input column types)
            none = pa.array([], type=pa.int64())
            return pa.table({"query_id": pa.array([], type=pa.int64()),
                             "doc_id": batch.column("doc_id").take(none),
                             "off": batch.column("offset").take(none),
                             "dist_m": pa.array([], type=pa.float64())})
        out_q = []
        out_idx = []
        out_d = []
        for qi in range(len(self.qid)):
            if self.metric == "haversine":
                d = haversine_m(lon, lat, self.qlon[qi], self.qlat[qi])
            else:
                d, _, _ = self.geod.inverse(self.qlat[qi], self.qlon[qi],
                                            lat, lon)
            k = min(self.k, len(d))
            # keep k smallest PLUS all ties at the k-th distance: a row
            # dropped here has d strictly above the batch boundary, so at
            # least k batch rows beat it under the global lexicographic
            # (dist_m, doc_id, off) tie-break — block layout can't change
            # the merged result even with duplicate coordinates
            kth = np.partition(d, k - 1)[k - 1]
            part = np.flatnonzero(d <= kth)
            out_q.append(np.full(len(part), self.qid[qi], dtype=np.int64))
            out_idx.append(part)
            out_d.append(d[part])
        qcol = np.concatenate(out_q)
        icol = pa.array(np.concatenate(out_idx))
        return pa.table({
            "query_id": pa.array(qcol),
            "doc_id": batch.column("doc_id").take(icol),
            "off": batch.column("offset").take(icol),
            "dist_m": pa.array(np.concatenate(out_d)),
        })


def _merge_topk(group, k: int):
    import pandas as pd

    g = group.sort_values(["dist_m", "doc_id", "off"]).head(k).copy()
    g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
    return g


def knn_brute(coords_ds, queries: Dict, k: int = 5,
              metric: str = "haversine"):
    """Distributed brute-force kNN: per-batch partial top-k in
    stateless tasks (combiner pattern); the partial stream is tiny
    (n_queries * k * n_blocks), so the final merge runs on the driver."""
    import pandas as pd
    import ray
    import ray.data as rd

    from proj_ray.stages.ann import _cached_fn

    qref = ray.put(queries)
    partial = coords_ds.map_batches(
        _cached_fn(BruteKNNJoiner, qref, k, metric),
        batch_format="pyarrow",
        batch_size=65536,
    )
    df = partial.to_pandas()
    if len(df) == 0:
        return rd.from_pandas(df)
    merged = df.groupby("query_id", group_keys=False)[df.columns].apply(
        lambda g: _merge_topk(g, k)).reset_index(drop=True)
    return rd.from_pandas(merged)


# conservative meters-per-degree bounds for exact cap pruning
_M_PER_DEG_LAT_MIN = 110000.0  # true meridian degree is >= 110567 m
_M_PER_DEG_LON_EQ = 111320.0


def _cap_cells(qlon: float, qlat: float, radius_m: float,
               res_deg: float) -> np.ndarray:
    """All grid cells intersecting the (conservatively boxed) spherical
    cap of radius_m around the query — exact containment guarantee."""
    from proj_ray.spatial.cells import grid_dims

    nx, ny = grid_dims(res_deg)
    dlat = radius_m / _M_PER_DEG_LAT_MIN
    lat_lo = qlat - dlat
    lat_hi = qlat + dlat
    max_abs_lat = min(89.999, max(abs(lat_lo), abs(lat_hi)))
    if lat_hi >= 89.0 or lat_lo <= -89.0:
        dlon = 360.0  # cap touches a pole: take all longitudes
    else:
        dlon = radius_m / (_M_PER_DEG_LON_EQ
                           * np.cos(np.radians(max_abs_lat)))
    lo_y = max(int(np.floor((max(lat_lo, -90.0) + 90.0) / res_deg)), 0)
    hi_y = min(int(np.floor((min(lat_hi, 89.999) + 90.0) / res_deg)), ny - 1)
    if dlon >= 180.0:
        xs = np.arange(nx)
    else:
        lo_x = int(np.floor((qlon - dlon + 180.0) / res_deg))
        hi_x = int(np.floor((qlon + dlon + 180.0) / res_deg))
        xs = np.arange(lo_x, hi_x + 1) % nx
    ys = np.arange(lo_y, hi_y + 1)
    gx, gy = np.meshgrid(xs, ys)
    return (gy.ravel() * nx + gx.ravel()).astype(np.int64)


def knn_cell_ring(coords_ds, queries: Dict, k: int = 5,
                  res_deg: float = 5.0):
    """Exact kNN via cell-ring candidate generation + geodesic refine.

    Two-round exact algorithm (SURVEY.md §2.8):
      1. cell histogram (tiny groupby) -> per-query ring expansion until
         >= k candidates; provisional top-k over the pruned stream gives
         an upper bound d_k on the k-th neighbor distance;
      2. final prune to every cell intersecting the radius-d_k cap
         (conservative lat/lon boxing) -> exact top-k.
    Both scoring passes run on pruned streams; the full stream is only
    ever scanned by the cheap cell-filter map_batches.
    """
    import ray

    qlon = np.asarray(queries["lon"], dtype=np.float64)
    qlat = np.asarray(queries["lat"], dtype=np.float64)

    def add_cell(batch: pa.Table) -> pa.Table:
        cell = grid_cell(batch.column("lon").to_numpy(zero_copy_only=False),
                         batch.column("lat").to_numpy(zero_copy_only=False),
                         res_deg)
        return pa.table({"cell": pa.array(cell)})

    hist = (coords_ds.map_batches(add_cell, batch_format="pyarrow")
            .groupby("cell").count().to_pandas())
    counts = dict(zip(hist["cell"].astype(np.int64), hist["count()"]))

    qcell = grid_cell(qlon, qlat, res_deg)
    cand: set = set()
    for qi in range(len(qcell)):
        ring = 1
        while True:
            cells = grid_cell_neighbors(qcell[qi:qi + 1], res_deg, ring)[0]
            total = sum(counts.get(int(c), 0) for c in set(cells))
            if total >= k or ring * res_deg >= 180:
                cand.update(int(c) for c in cells)
                break
            ring += 1

    def make_prune(cell_set):
        arr = np.fromiter(cell_set, dtype=np.int64)

        def prune(batch: pa.Table) -> pa.Table:
            cells = grid_cell(
                batch.column("lon").to_numpy(zero_copy_only=False),
                batch.column("lat").to_numpy(zero_copy_only=False), res_deg)
            return batch.filter(pa.array(np.isin(cells, arr)))

        return prune

    provisional = knn_brute(
        coords_ds.map_batches(make_prune(cand), batch_format="pyarrow"),
        queries, k, metric="karney").to_pandas()
    dk = provisional.groupby("query_id")["dist_m"].max()

    final_cells: set = set()
    for qi, qid in enumerate(np.asarray(queries["query_id"])):
        radius = float(dk.get(qid, 2.0e7)) * 1.001  # safety margin
        final_cells.update(
            int(c) for c in _cap_cells(qlon[qi], qlat[qi], radius, res_deg))

    pruned = coords_ds.map_batches(make_prune(final_cells),
                                   batch_format="pyarrow")
    return knn_brute(pruned, queries, k, metric="karney")


def make_queries(n_queries: int = 100, seed: int = 4242) -> Dict:
    """Deterministic query points (LCG, SQL-mirrorable via
    sql_queries_cte)."""
    q = np.arange(n_queries, dtype=np.int64)
    s1 = (48271 * ((seed + q * 2 + 1) % 2147483647)) % 2147483647
    s2 = (48271 * s1) % 2147483647
    lon = (s1 % 3600000) / 10000.0 - 180.0
    lat = (s2 % 1600000) / 10000.0 - 80.0
    return {"query_id": q, "lon": lon, "lat": lat}


def sql_queries_cte(n_queries: int = 100, seed: int = 4242) -> str:
    return f"""
qq AS (
    SELECT q, (48271 * (({seed} + q * 2 + 1) % 2147483647)) % 2147483647 AS s1
    FROM (SELECT UNNEST(range(0, {n_queries})) AS q)
),
queries AS (
    SELECT q AS query_id,
           (s1 % 3600000) / 10000.0 - 180.0 AS qlon,
           ((48271 * s1) % 2147483647 % 1600000) / 10000.0 - 80.0 AS qlat
    FROM qq
)"""


def radius_join(coords_ds, queries: Dict, radius_m: float,
                res_deg: float = 5.0):
    """All (query, point) pairs within `radius_m` metres — the
    fixed-radius twin of knn_cell_ring.  One cheap cell-filter pass
    prunes the stream to the union of every query's conservative cap
    covering (`_cap_cells` — exact containment guarantee), then each
    surviving batch scores the full query matrix vectorized (points x
    queries haversine broadcast) and emits only in-radius pairs.  The
    corpus is scanned once and never shuffles."""
    import ray

    from proj_ray.stages.worker_cache import get_broadcast

    qlon = np.asarray(queries["lon"], dtype=np.float64)
    qlat = np.asarray(queries["lat"], dtype=np.float64)
    qid = np.asarray(queries["query_id"])
    cells: set = set()
    for qi in range(len(qid)):
        cells.update(int(c) for c in _cap_cells(
            float(qlon[qi]), float(qlat[qi]), radius_m * 1.001,
            res_deg))
    cell_arr = np.sort(np.fromiter(cells, dtype=np.int64))
    qref = ray.put((qlon, qlat, qid))

    def pairs(batch: pa.Table) -> pa.Table:
        from proj_ray.spatial.cells import grid_cell

        ql, qb, qids = get_broadcast(qref)
        lon = batch.column("lon").to_numpy(zero_copy_only=False)
        lat = batch.column("lat").to_numpy(zero_copy_only=False)
        # membership via searchsorted on the pre-sorted covering (an
        # np.isin here would re-sort the cell set in every batch)
        c = grid_cell(lon, lat, res_deg)
        pos = np.minimum(np.searchsorted(cell_arr, c),
                         max(len(cell_arr) - 1, 0))
        keep = (cell_arr[pos] == c) if len(cell_arr) \
            else np.zeros(len(c), dtype=bool)
        if not keep.any():
            return pa.table({
                "query_id": pa.array([], type=pa.int64()),
                "doc_id": pa.array([], type=pa.int64()),
                "offset": pa.array([], type=pa.int64()),
                "dist_r": pa.array([], type=pa.float64())})
        f = batch.filter(pa.array(keep))
        lon = lon[keep]
        lat = lat[keep]
        d = haversine_m(lon[:, None], lat[:, None],
                        ql[None, :], qb[None, :])
        rows, qs = np.nonzero(d <= radius_m)
        return pa.table({
            "query_id": pa.array(qids[qs]),
            "doc_id": f.column("doc_id").take(pa.array(rows)),
            "offset": f.column("offset").take(pa.array(rows)),
            "dist_r": pa.array(np.round(d[rows, qs], 6)),
        })

    return coords_ds.map_batches(pairs, batch_format="pyarrow")
