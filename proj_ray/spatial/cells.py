"""Spatial cell indexing.

Two complementary cell systems, both pure NumPy over coordinate columns:

* `grid_cell` — equirectangular lon/lat grid at a resolution in degrees.
  SQL-expressible (oracle-checkable) and the default shuffle key for
  joins/skew handling.  cell id = row-major index over the grid.
* `s2_cell` — S2-style cube-face cell: ellipsoid-agnostic unit-sphere
  projection onto 6 cube faces, quadratic UV->ST transform (the same
  transform family as reference src/projections/s2.cpp:336-404), then a
  level-L Morton (Z-order) index within the face.  Hierarchical: parent
  cell = child >> 2.  This is the scale path (uniform cell areas vs the
  lat/lon grid's pole distortion).

Neighbor enumeration (`grid_cell_neighbors`) supports kNN ring expansion
and boundary replication for the shuffle join.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# lon/lat grid cells
# ---------------------------------------------------------------------------


def grid_dims(res_deg: float):
    nx = int(round(360.0 / res_deg))
    ny = int(round(180.0 / res_deg))
    return nx, ny


def grid_cell(lon, lat, res_deg: float = 5.0):
    """Row-major cell index of the lon/lat grid (SQL mirror:
    sql_grid_cell_expr)."""
    nx, ny = grid_dims(res_deg)
    ix = np.floor((np.asarray(lon) + 180.0) / res_deg).astype(np.int64)
    iy = np.floor((np.asarray(lat) + 90.0) / res_deg).astype(np.int64)
    ix = np.clip(ix, 0, nx - 1)
    iy = np.clip(iy, 0, ny - 1)
    return iy * nx + ix


def sql_grid_cell_expr(lon_expr: str, lat_expr: str,
                       res_deg: float = 5.0) -> str:
    nx, ny = grid_dims(res_deg)
    return (
        f"(LEAST(GREATEST(CAST(FLOOR(({lat_expr} + 90.0) / {res_deg}) AS "
        f"BIGINT), 0), {ny - 1}) * {nx} + "
        f"LEAST(GREATEST(CAST(FLOOR(({lon_expr} + 180.0) / {res_deg}) AS "
        f"BIGINT), 0), {nx - 1}))"
    )


def grid_cell_neighbors(cells, res_deg: float = 5.0, ring: int = 1):
    """(n, k) array of neighbor cell ids within `ring` Chebyshev steps,
    with longitude wraparound and latitude clamping."""
    nx, ny = grid_dims(res_deg)
    cells = np.asarray(cells, dtype=np.int64)
    iy = cells // nx
    ix = cells % nx
    offs = [(dx, dy) for dy in range(-ring, ring + 1)
            for dx in range(-ring, ring + 1)]
    out = np.empty((len(cells), len(offs)), dtype=np.int64)
    for k, (dx, dy) in enumerate(offs):
        nxx = (ix + dx) % nx
        nyy = np.clip(iy + dy, 0, ny - 1)
        out[:, k] = nyy * nx + nxx
    return out


# ---------------------------------------------------------------------------
# S2-style cube-face Morton cells
# ---------------------------------------------------------------------------

_MAX_LEVEL = 30


def _uv_to_st(u):
    """Quadratic UV->ST (the standard S2 quadratic transform; same family
    as reference s2.cpp:92-130).  One sqrt of 1 + 3|u| serves both
    branches, so neither takes a negative argument."""
    r = 0.5 * np.sqrt(1 + 3 * np.abs(u))
    return np.where(u >= 0, r, 1 - r)


def _st_to_uv(s):
    return np.where(s >= 0.5,
                    (1.0 / 3) * (4 * s * s - 1),
                    (1.0 / 3) * (1 - 4 * (1 - s) * (1 - s)))


def _face_xyz(lon_rad, lat_rad):
    x = np.cos(lat_rad) * np.cos(lon_rad)
    y = np.cos(lat_rad) * np.sin(lon_rad)
    z = np.sin(lat_rad)
    ax = np.abs(x)
    ay = np.abs(y)
    az = np.abs(z)
    face = np.where(
        (ax >= ay) & (ax >= az), np.where(x >= 0, 0, 3),
        np.where(ay >= az, np.where(y >= 0, 1, 4),
                 np.where(z >= 0, 2, 5)))
    return x, y, z, face


_FACE_UV = {
    # face -> (u_num, v_num, denom) component selectors
    0: lambda x, y, z: (y, z, x),
    1: lambda x, y, z: (-x, z, y),
    2: lambda x, y, z: (-x, -y, z),
    3: lambda x, y, z: (z, y, -x),
    4: lambda x, y, z: (z, -x, -y),
    5: lambda x, y, z: (-y, -x, -z),
}


def _interleave_bits(i, j, level):
    """Morton interleave of two level-bit integers (vectorized)."""
    code = np.zeros_like(i)
    for b in range(level):
        code |= ((i >> b) & 1) << (2 * b + 1)
        code |= ((j >> b) & 1) << (2 * b)
    return code


def s2_cell(lon_deg, lat_deg, level: int = 8):
    """S2-style cell id: face (3 bits) then 2*level Morton bits."""
    lon = np.radians(np.asarray(lon_deg, dtype=np.float64))
    lat = np.radians(np.asarray(lat_deg, dtype=np.float64))
    x, y, z, face = _face_xyz(lon, lat)
    u = np.empty_like(x)
    v = np.empty_like(x)
    for f, sel in _FACE_UV.items():
        mfc = face == f
        if not np.any(mfc):
            continue
        un, vn, dn = sel(x[mfc], y[mfc], z[mfc])
        u[mfc] = un / dn
        v[mfc] = vn / dn
    s = _uv_to_st(u)
    t = _uv_to_st(v)
    n = 1 << level
    i = np.clip((s * n).astype(np.int64), 0, n - 1)
    j = np.clip((t * n).astype(np.int64), 0, n - 1)
    code = _interleave_bits(i, j, level)
    return (face.astype(np.int64) << np.int64(2 * level)) | code


def s2_parent(cell, level_from: int, level_to: int):
    """Parent cell id at a coarser level."""
    shift = 2 * (level_from - level_to)
    cells = np.asarray(cell, dtype=np.int64)
    face = cells >> np.int64(2 * level_from)
    code = cells & ((np.int64(1) << np.int64(2 * level_from)) - 1)
    return (face << np.int64(2 * level_to)) | (code >> np.int64(shift))


# ---------------------------------------------------------------------------
# ISEA hexagonal DGGS cells (the engine's H3-style index)
# ---------------------------------------------------------------------------

_ISEA_PIPELINE = None


def _isea():
    """Module-cached ISEA projection (icosahedral Snyder equal-area,
    ops/isea.py — gie-conformant).  Built once per worker process."""
    global _ISEA_PIPELINE
    if _ISEA_PIPELINE is None:
        from proj_ray.pipeline import create_operation

        _ISEA_PIPELINE = create_operation("+proj=isea +ellps=WGS84")
    return _ISEA_PIPELINE


# base hex circumradius in ISEA plane meters; resolution r shrinks the
# hexagon by sqrt(3) per step (aperture-3 DGGS, Sahr et al. 2003:
# "Geodesic discrete global grid systems")
_HEX_BASE_M = 1_000_000.0
_SQRT3 = 1.7320508075688772


def isea_hex_cell(lon_deg, lat_deg, resolution: int = 4):
    """Hexagonal cell ids over the ISEA equal-area plane.

    Points project with the icosahedral Snyder equal-area map (so cell
    areas are uniform across the globe, unlike lat/lon grid cells),
    then snap to the nearest center of a pointy-top hex lattice whose
    size shrinks by sqrt(3) per resolution (aperture 3).  Returns
    int64 ids encoding (resolution, axial q, axial r); hierarchical
    coarsening = re-binning at a smaller resolution.

    Caveat: the ISEA plane is an interrupted icosahedral net, so cells
    that straddle a face boundary are split (a true H3 keeps per-face
    grids with 12 pentagons instead).  Fine as a shuffle/aggregation
    key — the use here — since membership is still deterministic and
    cell areas stay uniform; do not use raw cell adjacency across face
    edges.
    """
    import numpy as np

    from proj_ray.pipeline import transform_arrays

    c = transform_arrays(_isea(), np.asarray(lon_deg, dtype=np.float64),
                         np.asarray(lat_deg, dtype=np.float64))
    size = _HEX_BASE_M / (_SQRT3 ** resolution)
    # axial coordinates of a pointy-top hex lattice
    q = (_SQRT3 / 3.0 * c.x - 1.0 / 3.0 * c.y) / size
    r = (2.0 / 3.0 * c.y) / size
    qi, ri = _hex_round(q, r)
    # pack: 5 bits resolution | 29 bits q | 29 bits r (offset-binary)
    off = np.int64(1 << 28)
    return ((np.int64(resolution) << np.int64(58))
            | ((qi + off) << np.int64(29)) | (ri + off))


def _hex_round(q, r):
    """Cube-coordinate rounding to the nearest hex center."""
    import numpy as np

    x = q
    z = r
    y = -x - z
    rx = np.round(x)
    ry = np.round(y)
    rz = np.round(z)
    dx = np.abs(rx - x)
    dy = np.abs(ry - y)
    dz = np.abs(rz - z)
    fix_x = (dx > dy) & (dx > dz)
    fix_z = ~fix_x & (dz > dy)
    rx = np.where(fix_x, -ry - rz, rx)
    rz = np.where(fix_z, -rx - ry, rz)
    return rx.astype(np.int64), rz.astype(np.int64)


def isea_hex_center_plane(cell):
    """Cell id -> hex center in ISEA plane meters.  (The reference's
    isea projection has no inverse — src/projections/isea.cpp defines
    only a forward — so centers are exposed in plane space; binning
    correctness is testable there: every point lies within one
    circumradius of its cell center.)"""
    import numpy as np

    cell = np.asarray(cell, dtype=np.int64)
    resolution = (cell >> np.int64(58)).astype(np.int64)
    off = np.int64(1 << 28)
    qi = ((cell >> np.int64(29)) & np.int64((1 << 29) - 1)) - off
    ri = (cell & np.int64((1 << 29) - 1)) - off
    size = _HEX_BASE_M / (_SQRT3 ** resolution.astype(np.float64))
    x = size * (_SQRT3 * qi + _SQRT3 / 2.0 * ri)
    y = size * (1.5 * ri)
    return x, y
