"""Distributed geometry measures over vertex streams.

A polygon/track is a set of rows ``(key, seq, x, y)`` — one vertex per
row, ordered by ``seq`` within the key.  This is the layout a 100-TB
geometry corpus actually has (vertices sharded across files), so every
operator here is a hash-partition shuffle on the key followed by one
vectorized per-partition resolve: no driver materialization, no
per-ring Python loop over vertices.

Partitioning assumption (documented per the operator rules): ONE
geometry's vertices fit one task — rings/tracks are bounded (10^6
vertices is ~16 MB), the corpus is not.

Ops: planar shoelace area/centroid (Gauss's formula), spherical-excess
area on the authalic sphere (Chamberlain-Duquette line integral —
published identity; ~0.3% of the ellipsoidal truth, the cheap path),
EXACT ellipsoidal area/perimeter (Karney C4 series via
functions/geodesic.py — geodesic_polygon_area, matching the
reference's geod_polygonarea on its own pinned planimeter cases),
haversine ring perimeter, Douglas-Peucker track simplification (stack
form of the published algorithm).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from proj_ray.stages.partitioning import key_spans, keyed_apply

# authalic (equal-area) sphere radius for WGS84 — published constant
R_AUTHALIC_WGS84 = 6371007.1809


def _np(t: pa.Table, col: str) -> np.ndarray:
    return t.column(col).to_numpy(zero_copy_only=False)


def _per_ring(t: pa.Table, key: str, starts, counts, **cols) -> pa.Table:
    """One output row per key run: the key, `cols` (float64) and the
    run length as n_vertices."""
    return pa.table({
        key: t.column(key).take(pa.array(starts, type=pa.int64())),
        **{c: pa.array(v, type=pa.float64()) for c, v in cols.items()},
        "n_vertices": pa.array(counts, type=pa.int64())})


def shoelace_area_centroid(x: np.ndarray, y: np.ndarray,
                           starts: np.ndarray, counts: np.ndarray):
    """Vectorized Gauss shoelace for MANY rings stored back-to-back.

    x/y hold all rings' vertices (each ring's vertices contiguous,
    ring NOT closed — the wrap edge is added here).  Returns
    (signed_area, cx, cy) per ring.  Degenerate rings (area 0) get
    the vertex mean as centroid so output stays finite.
    """
    n = len(x)
    # the "next vertex" index with per-ring wraparound
    nxt = np.arange(1, n + 1, dtype=np.int64)
    ends = starts + counts - 1
    nxt[ends] = starts
    cross = x * y[nxt] - x[nxt] * y
    ring_id = np.repeat(np.arange(len(starts)), counts)
    area2 = np.bincount(ring_id, weights=cross,
                        minlength=len(starts))
    cx6 = np.bincount(ring_id, weights=(x + x[nxt]) * cross,
                      minlength=len(starts))
    cy6 = np.bincount(ring_id, weights=(y + y[nxt]) * cross,
                      minlength=len(starts))
    area = area2 / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        cx = cx6 / (6.0 * area)
        cy = cy6 / (6.0 * area)
    bad = area == 0
    if np.any(bad):
        mx = np.bincount(ring_id, weights=x, minlength=len(starts))
        my = np.bincount(ring_id, weights=y, minlength=len(starts))
        cx = np.where(bad, mx / counts, cx)
        cy = np.where(bad, my / counts, cy)
    return area, cx, cy


def polygon_area_centroid(ds, key: str = "polygon_id",
                          seq: str = "seq", x_col: str = "x",
                          y_col: str = "y",
                          num_partitions: int | None = None):
    """Planar polygon area + centroid from a vertex Dataset.

    One hash-partition shuffle on the key; each partition, sorted by
    (key, seq), runs the multi-ring shoelace above.  Output: one row
    per polygon ``(key, area, cx, cy, n_vertices)`` with area SIGNED
    (positive = counter-clockwise ring, the Gauss convention).
    """
    def resolve(t: pa.Table) -> pa.Table:
        starts, counts = key_spans(_np(t, key))
        area, cx, cy = shoelace_area_centroid(_np(t, x_col), _np(t, y_col),
                                              starts, counts)
        return _per_ring(t, key, starts, counts, area=area, cx=cx, cy=cy)

    return keyed_apply(ds, key, resolve, num_partitions, sort_by=(seq,))


# ---------------------------------------------------------------------------
# Spherical-excess area (lon/lat rings)
# ---------------------------------------------------------------------------


def spherical_ring_area(lon_deg: np.ndarray, lat_deg: np.ndarray,
                        starts: np.ndarray, counts: np.ndarray,
                        radius: float = R_AUTHALIC_WGS84) -> np.ndarray:
    """Signed spherical area per ring (m^2) via the published
    Chamberlain-Duquette line-integral formula (JPL Publication 07-3,
    "Some Algorithms for Polygons on a Sphere"):

        A = -R^2 / 2 * sum_edges (lam_j - lam_i)
                                 * (2 + sin(phi_i) + sin(phi_j))

    with lon differences wrapped to (-pi, pi] so rings crossing the
    antimeridian integrate correctly.  Positive = counter-clockwise.
    Per-edge trapezoidal in sin(phi): exact as edge spans -> 0;
    sub-degree vertex spacing keeps relative error < 1e-6.  Verified
    against the analytic limit A ~ 2 R^2 d_lon d_lat for a small
    equatorial square and the exact quarter-wedge R^2 pi/2.
    """
    n = len(lon_deg)
    nxt = np.arange(1, n + 1, dtype=np.int64)
    ends = starts + counts - 1
    nxt[ends] = starts
    lam = np.radians(lon_deg)
    phi = np.radians(lat_deg)
    dlam = lam[nxt] - lam
    dlam = (dlam + np.pi) % (2 * np.pi) - np.pi
    contrib = dlam * (2.0 + np.sin(phi) + np.sin(phi[nxt]))
    ring_id = np.repeat(np.arange(len(starts)), counts)
    tot = np.bincount(ring_id, weights=contrib, minlength=len(starts))
    return -tot * radius * radius / 2.0


def spherical_polygon_area(ds, key: str = "polygon_id",
                           seq: str = "seq", lon_col: str = "lon",
                           lat_col: str = "lat",
                           radius: float = R_AUTHALIC_WGS84,
                           num_partitions: int | None = None):
    """Spherical-excess polygon area over a lon/lat vertex Dataset —
    same shuffle shape as polygon_area_centroid.  Output: one row per
    polygon ``(key, area_m2, n_vertices)`` with area_m2 UNSIGNED."""
    def resolve(t: pa.Table) -> pa.Table:
        starts, counts = key_spans(_np(t, key))
        area = spherical_ring_area(_np(t, lon_col), _np(t, lat_col),
                                   starts, counts, radius)
        return _per_ring(t, key, starts, counts, area_m2=np.abs(area))

    return keyed_apply(ds, key, resolve, num_partitions, sort_by=(seq,))


# ---------------------------------------------------------------------------
# Douglas-Peucker simplification
# ---------------------------------------------------------------------------


def douglas_peucker_mask(x: np.ndarray, y: np.ndarray,
                         tol: float) -> np.ndarray:
    """Keep-mask for ONE polyline: the published Douglas-Peucker
    recursion in explicit-stack form.  Distances for a whole span are
    computed vectorized (one numpy expression per split), so cost is
    O(n log n) numpy work for typical tracks, worst case O(n^2) on
    pathological zigzags — the classic bound."""
    n = len(x)
    keep = np.zeros(n, dtype=bool)
    if n == 0:
        return keep
    keep[0] = keep[-1] = True
    if n <= 2:
        return keep
    stack = [(0, n - 1)]
    tol2 = tol * tol
    while stack:
        i, j = stack.pop()
        if j - i < 2:
            continue
        xi, yi, xj, yj = x[i], y[i], x[j], y[j]
        dx, dy = xj - xi, yj - yi
        seg2 = dx * dx + dy * dy
        px = x[i + 1:j] - xi
        py = y[i + 1:j] - yi
        if seg2 == 0.0:
            d2 = px * px + py * py
        else:
            # squared perpendicular distance to the (infinite) chord —
            # the classic DP criterion
            cross = px * dy - py * dx
            d2 = cross * cross / seg2
        kmax = int(np.argmax(d2))
        if d2[kmax] > tol2:
            mid = i + 1 + kmax
            keep[mid] = True
            stack.append((i, mid))
            stack.append((mid, j))
    return keep


def simplify_tracks(ds, key: str = "doc_id", seq: str = "offset",
                    x_col: str = "lon", y_col: str = "lat",
                    tol: float = 0.01,
                    num_partitions: int | None = None):
    """Douglas-Peucker per key over a vertex Dataset; returns the kept
    vertices (same schema).  Shuffle shape as above; the per-key DP
    runs inside the partition task (keys bounded, corpus not)."""
    def resolve(t: pa.Table) -> pa.Table:
        starts, counts = key_spans(_np(t, key))
        x, y = _np(t, x_col), _np(t, y_col)
        keep = np.zeros(len(t), dtype=bool)
        # trivial tracks (<= 2 vertices) keep everything — resolved
        # vectorized so the per-key Python loop below only visits
        # tracks with actual simplification work (its cost amortizes
        # over vertices, not keys)
        triv = counts <= 2
        keep[np.repeat(triv, counts)] = True
        for st, ct in zip(starts[~triv], counts[~triv]):
            keep[st:st + ct] = douglas_peucker_mask(
                x[st:st + ct], y[st:st + ct], tol)
        return t.filter(pa.array(keep))

    return keyed_apply(ds, key, resolve, num_partitions, sort_by=(seq,))


def polygon_perimeter(ds, key: str = "polygon_id", seq: str = "seq",
                      lon_col: str = "lon", lat_col: str = "lat",
                      num_partitions: int | None = None):
    """Haversine perimeter of each closed lon/lat ring (metres) — same
    one-shuffle vertex-stream shape as polygon_area_centroid; the wrap
    edge closes the ring."""
    from proj_ray.spatial.knn import haversine_m

    def resolve(t: pa.Table) -> pa.Table:
        starts, counts = key_spans(_np(t, key))
        lon, lat = _np(t, lon_col), _np(t, lat_col)
        nxt = np.arange(1, len(t) + 1, dtype=np.int64)
        nxt[starts + counts - 1] = starts
        d = haversine_m(lon, lat, lon[nxt], lat[nxt])
        ring_id = np.repeat(np.arange(len(starts)), counts)
        per = np.bincount(ring_id, weights=d, minlength=len(starts))
        return _per_ring(t, key, starts, counts, perimeter_m=per)

    return keyed_apply(ds, key, resolve, num_partitions, sort_by=(seq,))


def geodesic_ring_areas(lon_deg, lat_deg, starts, counts, geod=None):
    """EXACT ellipsoidal (Karney) signed area + perimeter per ring:
    one batched geodesic inverse solve over ALL edges (S12 per edge
    from the C4 series, functions/geodesic.py), segment sums per ring,
    then the transit-parity reduction into the counter-clockwise-
    positive representative — the vectorized multi-ring form of
    geod_polygonarea."""
    from proj_ray.functions.geodesic import _transit, geodesic

    g = geod or geodesic()
    n = len(lon_deg)
    nxt = np.arange(1, n + 1, dtype=np.int64)
    ends = starts + counts - 1
    nxt[ends] = starts
    with np.errstate(invalid="ignore", divide="ignore"):
        s12, _, _, S12 = g.inverse(lat_deg, lon_deg,
                                   lat_deg[nxt], lon_deg[nxt],
                                   area=True)
    ring_id = np.repeat(np.arange(len(starts)), counts)
    per = np.bincount(ring_id, weights=s12, minlength=len(starts))
    area = np.bincount(ring_id, weights=S12, minlength=len(starts))
    cross = np.bincount(ring_id,
                        weights=_transit(lon_deg, lon_deg[nxt]),
                        minlength=len(starts)).astype(np.int64)
    area0 = 4 * np.pi * g.c2
    area = area - area0 * np.round(area / area0)
    odd = (cross & 1) == 1
    area = np.where(odd,
                    area + np.where(area < 0, area0 / 2, -area0 / 2),
                    area)
    area = -area
    area = np.where(area > area0 / 2, area - area0,
                    np.where(area <= -area0 / 2, area + area0, area))
    return area, per


def geodesic_polygon_area(ds, key: str = "polygon_id", seq: str = "seq",
                          lon_col: str = "lon", lat_col: str = "lat",
                          num_partitions: int | None = None):
    """Exact ellipsoidal polygon area/perimeter over a vertex Dataset
    — same one-shuffle shape as polygon_area_centroid; each partition
    runs ONE batched inverse solve for all its rings' edges.  Output:
    ``(key, area_m2, perimeter_m, n_vertices)``, area signed
    (counter-clockwise positive)."""
    def resolve(t: pa.Table) -> pa.Table:
        starts, counts = key_spans(_np(t, key))
        area, per = geodesic_ring_areas(_np(t, lon_col), _np(t, lat_col),
                                        starts, counts)
        return _per_ring(t, key, starts, counts, area_m2=area,
                         perimeter_m=per)

    return keyed_apply(ds, key, resolve, num_partitions, sort_by=(seq,))