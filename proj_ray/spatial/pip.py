"""Point-in-polygon machinery + deterministic polygon/rect fixtures.

Polygons (FIXTURES.md F4): convex rings around seeded centers, 10%
continent-scale to force multi-cell replication.  The membership test is
a crossing-number test — the engine's generalization of the reference's
point-in-triangle lookup (src/transformations/tinshift_impl.hpp,
src/quadtree.hpp:85-247), with a cell-bucket index replacing the
quadtree:

* `points_in_polygon` is the scalar reference: one ring against a point
  array, edge by edge.
* `PolygonIndex` keeps the buckets in CSR form (sorted cell keys, start
  offsets, flat candidate polygon ids).  A probe expands every
  (point, candidate polygon) pair of a batch with one searchsorted and
  one `np.repeat`, in chunks of at most `_PAIR_CHUNK` pairs so that a
  block of any size has bounded temporaries.
* `PolygonEdges` refines (point, polygon) pairs: a bbox prefilter, then
  the crossing test over an edge-major `(vmax, n_poly)` edge table, one
  vectorized step per edge slot.  It evaluates `points_in_polygon`'s
  exact expression, so both give bit-identical answers, boundary
  points included.  The shuffle join refines with it too.

Rectangles (`make_rects` / `sql_rects_cte`) are the SQL-expressible
variant used for the DuckDB-oracle spatial-join queries.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from proj_ray.spatial.cells import grid_cell, grid_dims

M31 = 2147483647
A_LCG = 48271


def _lcg_stream(seed: int, n: int) -> np.ndarray:
    out = np.empty(n, dtype=np.int64)
    x = (seed % M31) or 1
    for i in range(n):
        x = (A_LCG * x) % M31
        out[i] = x
    return out


def make_polygons(n_poly: int = 64, seed: int = 1234):
    """Deterministic convex polygons.

    Returns dict: polygon_id (list[str]), rings (list of (k,2) float64
    lon/lat arrays, closed CCW).
    """
    ids = []
    rings = []
    for p in range(n_poly):
        s = _lcg_stream(seed + 17 * p + 1, 8)
        nv = 5 + int(s[0] % 8)  # 5..12 vertices
        clon = (s[1] % 3400000) / 10000.0 - 170.0
        clat = (s[2] % 1500000) / 10000.0 - 75.0
        big = (s[3] % 10) == 0  # 10% continent-scale
        radius = (20.0 + (s[4] % 200000) / 10000.0) if big else \
            (0.05 + (s[4] % 49500) / 10000.0)
        phase = (s[5] % 62832) / 10000.0
        angles = phase + np.linspace(0, 2 * np.pi, nv, endpoint=False)
        rr = radius * (0.6 + 0.4 * ((s[6] % 1000) / 1000.0))
        lon = clon + rr * np.cos(angles)
        lat = np.clip(clat + rr * 0.7 * np.sin(angles), -89.9, 89.9)
        ring = np.column_stack([lon, lat])
        ids.append(f"poly-{p:06d}")
        rings.append(ring)
    return {"polygon_id": ids, "rings": rings}


def points_in_polygon(lon, lat, ring: np.ndarray) -> np.ndarray:
    """Vectorized crossing-number test; boundary points count as inside
    on the lower/left edges (half-open rule, deterministic)."""
    x = np.asarray(lon, dtype=np.float64)
    y = np.asarray(lat, dtype=np.float64)
    vx = ring[:, 0]
    vy = ring[:, 1]
    n = len(ring)
    inside = np.zeros(x.shape, dtype=bool)
    j = n - 1
    # a horizontal edge divides by zero; its straddle test is False, so
    # the inf/nan it yields never reaches `inside`
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(n):
            xi, yi = vx[i], vy[i]
            xj, yj = vx[j], vy[j]
            cond = ((yi > y) != (yj > y)) & (
                x < (xj - xi) * (y - yi) / (yj - yi) + xi)
            inside ^= cond
            j = i
    return inside


def polygon_covering_cells(ring: np.ndarray, res_deg: float) -> np.ndarray:
    """Grid cells overlapped by the ring's bbox (cheap, conservative)."""
    nx, ny = grid_dims(res_deg)
    lo_x = int(np.floor((ring[:, 0].min() + 180.0) / res_deg))
    hi_x = int(np.floor((ring[:, 0].max() + 180.0) / res_deg))
    lo_y = int(np.floor((ring[:, 1].min() + 90.0) / res_deg))
    hi_y = int(np.floor((ring[:, 1].max() + 90.0) / res_deg))
    lo_y = max(lo_y, 0)
    hi_y = min(hi_y, ny - 1)
    xs = np.arange(lo_x, hi_x + 1) % nx
    ys = np.arange(lo_y, hi_y + 1)
    gx, gy = np.meshgrid(xs, ys)
    return (gy.ravel() * nx + gx.ravel()).astype(np.int64)


# (point, polygon) pairs expanded per probe chunk: bounds the pair
# temporaries (a few dozen bytes a pair each) for a block of any size
_PAIR_CHUNK = 1 << 16


def _point_chunks(cnt: np.ndarray):
    """(lo, hi) point ranges holding about _PAIR_CHUNK candidate pairs
    each, from per-point candidate counts (a point with more candidates
    than that is a chunk of its own)."""
    ends = np.cumsum(cnt)
    lo, n = 0, len(cnt)
    while lo < n:
        base = ends[lo - 1] if lo else 0
        hi = int(np.searchsorted(ends, base + _PAIR_CHUNK, side="right"))
        hi = max(hi, lo + 1)
        yield lo, hi
        lo = hi


class PolygonEdges:
    """Polygon set as an edge-major crossing-test table.

    Edge e of polygon p runs from vertex e to vertex e-1 (vertex -1 is
    the last), exactly as :func:`points_in_polygon` walks a ring.  The
    arrays ``xi, yi, xj, yj`` are ``(vmax, n_poly)``: rings with fewer
    than ``vmax`` vertices are padded with zero-length edges at their
    first vertex, which can never cross.  Bboxes are widened by a
    relative 1e-9 in x, far above the rounding of the crossing
    abscissa, so the prefilter never drops a pair the exact test keeps.
    """

    def __init__(self, rings):
        rings = [np.asarray(r, dtype=np.float64) for r in rings]
        vmax = max((len(r) for r in rings), default=0)
        vi = np.empty((vmax, len(rings), 2))
        vj = np.empty((vmax, len(rings), 2))
        for p, ring in enumerate(rings):
            k = len(ring)
            vi[:k, p] = ring
            vj[:k, p] = np.roll(ring, 1, axis=0)
            vi[k:, p] = vj[k:, p] = ring[0]
        self.xi, self.yi = vi[..., 0].copy(), vi[..., 1].copy()
        self.xj, self.yj = vj[..., 0].copy(), vj[..., 1].copy()
        lo = np.array([r.min(axis=0) for r in rings]).reshape(-1, 2)
        hi = np.array([r.max(axis=0) for r in rings]).reshape(-1, 2)
        pad = 1e-9 * (1.0 + np.maximum(np.abs(lo[:, 0]), np.abs(hi[:, 0])))
        self.x0, self.x1 = lo[:, 0] - pad, hi[:, 0] + pad
        self.y0, self.y1 = lo[:, 1], hi[:, 1]

    def match(self, x, y, first, cnt, cand):
        """(point_idx, poly_idx) pairs for points (x, y) whose candidate
        polygons are ``cand[first[i]:first[i] + cnt[i]]``, expanded in
        chunks of about ``_PAIR_CHUNK`` pairs."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        pt_of = np.flatnonzero(cnt)
        first, cnt = first[pt_of], cnt[pt_of]
        out_pts, out_polys = [], []
        for lo, hi in _point_chunks(cnt):
            c = cnt[lo:hi]
            pts = np.repeat(pt_of[lo:hi], c)
            # position in cand: the point's first candidate plus the
            # pair's rank among that point's candidates
            run = np.cumsum(c) - c
            poly = cand[np.repeat(first[lo:hi] - run, c)
                        + np.arange(len(pts))]
            k = self._inside(x[pts], y[pts], poly)
            out_pts.append(pts[k])
            out_polys.append(poly[k])
        if not out_pts:
            return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        return np.concatenate(out_pts), np.concatenate(out_polys)

    def _inside(self, x, y, poly) -> np.ndarray:
        """Indices k of the pairs whose point (x[k], y[k]) lies in
        polygon poly[k], bit-identical to :func:`points_in_polygon`."""
        keep = np.flatnonzero((x >= self.x0[poly]) & (x <= self.x1[poly])
                              & (y >= self.y0[poly]) & (y <= self.y1[poly]))
        x, y, poly = x[keep], y[keep], poly[keep]
        inside = np.zeros(len(keep), dtype=bool)
        with np.errstate(divide="ignore", invalid="ignore"):
            for e in range(len(self.xi)):
                xi, yi = self.xi[e][poly], self.yi[e][poly]
                xj, yj = self.xj[e][poly], self.yj[e][poly]
                inside ^= ((yi > y) != (yj > y)) & (
                    x < (xj - xi) * (y - yi) / (yj - yi) + xi)
        return keep[inside]


class PolygonIndex:
    """Cell-bucketed polygon index: build once on the driver, broadcast
    via ray.put, probe vectorized inside map_batches workers.

    The buckets (every grid cell a polygon's bbox covers) are stored in
    CSR form: sorted ``cell_keys``, ``cell_start`` offsets into a flat
    ``cell_poly`` array of candidate polygon ids.  With the polygons'
    :class:`PolygonEdges` table, everything a probe needs travels in
    the one broadcast object.

    A probe looks each point's cell up in ``cell_keys`` (one
    searchsorted) and hands the candidate ranges to
    :meth:`PolygonEdges.match`, which expands the (point, candidate
    polygon) pairs with ``np.repeat`` in chunks of about
    ``_PAIR_CHUNK`` pairs and runs the bbox prefilter and the
    edge-major crossing test over each chunk.  There is no Python loop
    over cells or polygons.
    """

    def __init__(self, polygons: Dict, res_deg: float = 5.0):
        self.res_deg = res_deg
        self.polygon_id = list(polygons["polygon_id"])
        rings = [np.asarray(r, dtype=np.float64) for r in polygons["rings"]]
        n_poly = max(len(rings), 1)
        cover = [polygon_covering_cells(r, res_deg) for r in rings]
        key = np.unique(np.concatenate(
            [c * n_poly + pi for pi, c in enumerate(cover)]
            or [np.empty(0, dtype=np.int64)]))
        cells, self.cell_poly = key // n_poly, key % n_poly
        keys, starts = np.unique(cells, return_index=True)
        # a sentinel key past the last grid cell closes the table, so
        # every searchsorted slot of a probe indexes cell_keys
        nx, ny = grid_dims(res_deg)
        self.cell_keys = np.append(keys, nx * ny)
        self.cell_start = np.append(starts, [len(cells)] * 2) \
            .astype(np.int64)
        self.edges = PolygonEdges(rings)

    def query_batch(self, lon, lat):
        """Return (point_idx, poly_idx) match pairs for a coordinate batch."""
        cells = grid_cell(lon, lat, self.res_deg)
        slot = np.searchsorted(self.cell_keys, cells)
        first = self.cell_start[slot]
        cnt = np.where(self.cell_keys[slot] == cells,
                       self.cell_start[slot + 1] - first, 0)
        return self.edges.match(lon, lat, first, cnt, self.cell_poly)


# ---------------------------------------------------------------------------
# Rectangles: the SQL-checkable spatial-join side
# ---------------------------------------------------------------------------


def make_rects(n_rects: int = 64, seed: int = 7777):
    """Deterministic rectangles, exactly reproducible in SQL
    (sql_rects_cte).  Returns arrays rect_id, lon_min, lon_max, lat_min,
    lat_max."""
    r = np.arange(n_rects, dtype=np.int64)
    s1 = (A_LCG * ((seed + r * 4 + 1) % M31)) % M31
    s2 = (A_LCG * s1) % M31
    s3 = (A_LCG * s2) % M31
    s4 = (A_LCG * s3) % M31
    lon_min = (s1 % 3200000) / 10000.0 - 180.0
    lon_max = lon_min + 2.0 + (s2 % 200000) / 10000.0
    lat_min = (s3 % 1400000) / 10000.0 - 85.0
    lat_max = lat_min + 2.0 + (s4 % 150000) / 10000.0
    return {
        "rect_id": r,
        "lon_min": lon_min,
        "lon_max": lon_max,
        "lat_min": lat_min,
        "lat_max": lat_max,
    }


def sql_rects_cte(n_rects: int = 64, seed: int = 7777) -> str:
    """DuckDB CTE `rects` mirroring make_rects bit-for-bit."""
    return f"""
rr AS (
    SELECT r, (48271 * (({seed} + r * 4 + 1) % 2147483647)) % 2147483647 AS s1
    FROM (SELECT UNNEST(range(0, {n_rects})) AS r)
),
rr2 AS (SELECT *, (48271 * s1) % 2147483647 AS s2 FROM rr),
rr3 AS (SELECT *, (48271 * s2) % 2147483647 AS s3 FROM rr2),
rr4 AS (SELECT *, (48271 * s3) % 2147483647 AS s4 FROM rr3),
rects AS (
    SELECT r AS rect_id,
           (s1 % 3200000) / 10000.0 - 180.0 AS lon_min,
           (s1 % 3200000) / 10000.0 - 180.0 + 2.0 + (s2 % 200000) / 10000.0
               AS lon_max,
           (s3 % 1400000) / 10000.0 - 85.0 AS lat_min,
           (s3 % 1400000) / 10000.0 - 85.0 + 2.0 + (s4 % 150000) / 10000.0
               AS lat_max
    FROM rr4
)"""
