"""Triangulation-based transformation (tinshift) —
reference src/transformations/tinshift.cpp + tinshift_impl.hpp.

The JSON model is parsed once per operation (per-actor state in a Ray
pipeline); the point-in-triangle search is vectorized as a masked sweep
over the triangle list in file order (the reference walks a quadtree
but keeps first-match-wins semantics in array order for overlapping
candidates; at typical model sizes the O(points x triangles) vector
sweep is batch-friendly and deterministic).
"""

from __future__ import annotations

import json
import os

import numpy as np

from proj_ray.core.coords import Coords, ERR_OUTSIDE_DOMAIN
from proj_ray.ops.base import (Operation, Params, ProjError, WHATEVER,
                               register)
from proj_ray.ops.gridshift import data_dirs

EPS = 1e-10


def _resolve_model(name: str):
    cands = [name]
    for d in data_dirs():
        cands += [os.path.join(d, name), os.path.join(d, "tests", name)]
    for cand in cands:
        if os.path.isfile(cand):
            return cand
    return None


class TinModel:
    """Parsed tinshift JSON (tinshift_impl.hpp TINShiftFile::parse)."""

    def __init__(self, text: str):
        j = json.loads(text)
        if not isinstance(j, dict):
            raise ProjError("tinshift: not an object")
        for key in ("file_type", "format_version", "transformed_components",
                    "vertices_columns", "triangles_columns", "vertices",
                    "triangles"):
            if key not in j:
                raise ProjError(f"tinshift: missing \"{key}\" key")
        self.fallback = "none"
        if "fallback_strategy" in j:
            if j["format_version"] != "1.1":
                raise ProjError(
                    "tinshift: fallback_strategy needs format_version 1.1")
            self.fallback = j["fallback_strategy"]
            if self.fallback not in ("nearest_side", "nearest_centroid",
                                     "none"):
                raise ProjError("tinshift: invalid fallback_strategy")
        comps = j["transformed_components"]
        self.horizontal = "horizontal" in comps
        self.vertical = "vertical" in comps
        cols = j["vertices_columns"]
        idx = {name: i for i, name in enumerate(cols)}
        if "source_x" not in idx or "source_y" not in idx:
            raise ProjError("tinshift: source_x/source_y required")
        if self.horizontal and ("target_x" not in idx
                                or "target_y" not in idx):
            raise ProjError("tinshift: target_x/target_y required")
        if self.vertical and "offset_z" not in idx and (
                "source_z" not in idx or "target_z" not in idx):
            raise ProjError("tinshift: source_z/target_z required")
        verts = np.asarray(j["vertices"], dtype=np.float64)
        out_cols = [verts[:, idx["source_x"]], verts[:, idx["source_y"]]]
        if self.horizontal:
            out_cols += [verts[:, idx["target_x"]], verts[:, idx["target_y"]]]
        if self.vertical:
            if "offset_z" in idx:
                out_cols.append(verts[:, idx["offset_z"]])
            else:
                out_cols.append(verts[:, idx["target_z"]]
                                - verts[:, idx["source_z"]])
        self.v = np.stack(out_cols, axis=1)  # (nv, 2[+2][+1])
        tcols = j["triangles_columns"]
        tidx = {name: i for i, name in enumerate(tcols)}
        for req in ("idx_vertex1", "idx_vertex2", "idx_vertex3"):
            if req not in tidx:
                raise ProjError(f"tinshift: {req} required")
        tri = np.asarray(j["triangles"], dtype=np.int64)
        self.tri = tri[:, [tidx["idx_vertex1"], tidx["idx_vertex2"],
                           tidx["idx_vertex3"]]]
        if (self.tri < 0).any() or (self.tri >= len(verts)).any():
            raise ProjError("tinshift: invalid vertex index")

    def _source_xy(self, forward: bool):
        """Triangle corner coords in the search plane."""
        ix, iy = (2, 3) if (self.horizontal and not forward) else (0, 1)
        xs = self.v[:, ix][self.tri]  # (nt, 3)
        ys = self.v[:, iy][self.tri]
        return xs, ys

    def find(self, x, y, forward: bool):
        """Vectorized FindTriangle: returns (tri_index, l1, l2, l3, found)."""
        xs, ys = self._source_xy(forward)
        n = x.shape[0]
        tri_idx = np.full(n, -1, dtype=np.int64)
        l1 = np.zeros(n)
        l2 = np.zeros(n)
        l3 = np.zeros(n)
        found = np.zeros(n, dtype=bool)
        with np.errstate(all="ignore"):
            for t in range(len(self.tri)):
                if found.all():
                    break
                x1, y1 = xs[t, 0], ys[t, 0]
                x2, y2 = xs[t, 1], ys[t, 1]
                x3, y3 = xs[t, 2], ys[t, 2]
                det = (y2 - y3) * (x1 - x3) + (x3 - x2) * (y1 - y3)
                a = ((y2 - y3) * (x - x3) + (x3 - x2) * (y - y3)) / det
                b = ((y3 - y1) * (x - x3) + (x1 - x3) * (y - y3)) / det
                cc = 1.0 - a - b
                hit = (~found & (a >= -EPS) & (a <= 1 + EPS)
                       & (b >= -EPS) & (b <= 1 + EPS) & (cc >= 0))
                tri_idx = np.where(hit, t, tri_idx)
                l1 = np.where(hit, a, l1)
                l2 = np.where(hit, b, l2)
                l3 = np.where(hit, cc, l3)
                found |= hit
            if not found.all() and self.fallback != "none":
                tri_idx, l1, l2, l3, found = self._fallback(
                    x, y, xs, ys, tri_idx, l1, l2, l3, found)
        return tri_idx, l1, l2, l3, found

    def _fallback(self, x, y, xs, ys, tri_idx, l1, l2, l3, found):
        """Nearest-side / nearest-centroid fallback
        (tinshift_impl.hpp FindTriangle fallback path)."""
        miss = ~found
        xm = x[miss]
        ym = y[miss]
        x1, y1 = xs[:, 0][:, None], ys[:, 0][:, None]  # (nt, 1)
        x2, y2 = xs[:, 1][:, None], ys[:, 1][:, None]
        x3, y3 = xs[:, 2][:, None], ys[:, 2][:, None]
        d12 = (x1 - x2) ** 2 + (y1 - y2) ** 2
        d23 = (x2 - x3) ** 2 + (y2 - y3) ** 2
        d13 = (x1 - x3) ** 2 + (y1 - y3) ** 2
        degen = (d12 < EPS) | (d23 < EPS) | (d13 < EPS)
        if self.fallback == "nearest_centroid":
            cx = (x1 + x2 + x3) / 3.0
            cy = (y1 + y2 + y3) / 3.0
            dist = (xm - cx) ** 2 + (ym - cy) ** 2  # (nt, nm)
        else:  # nearest_side

            def seg(px, py, qx, qy, dpq):
                t = ((xm - px) * (qx - px) + (ym - py) * (qy - py)) / dpq
                t = np.clip(t, 0.0, 1.0)
                return (xm - (px + t * (qx - px))) ** 2 \
                    + (ym - (py + t * (qy - py))) ** 2

            dist = np.minimum(seg(x1, y1, x2, y2, d12),
                              np.minimum(seg(x2, y2, x3, y3, d23),
                                         seg(x1, y1, x3, y3, d13)))
        dist = np.where(degen, np.inf, dist)
        best = np.argmin(dist, axis=0)  # first minimal index, as reference
        ok = np.isfinite(dist[best, np.arange(dist.shape[1])])
        bx1, by1 = xs[best, 0], ys[best, 0]
        bx2, by2 = xs[best, 1], ys[best, 1]
        bx3, by3 = xs[best, 2], ys[best, 2]
        det = (by2 - by3) * (bx1 - bx3) + (bx3 - bx2) * (by1 - by3)
        ok = ok & (np.abs(det) >= EPS)
        det = np.where(det == 0, 1.0, det)
        a = ((by2 - by3) * (xm - bx3) + (bx3 - bx2) * (ym - by3)) / det
        b = ((by3 - by1) * (xm - bx3) + (bx1 - bx3) * (ym - by3)) / det
        cc = 1.0 - a - b
        midx = np.flatnonzero(miss)
        tri_idx[midx] = np.where(ok, best, -1)
        l1[midx] = a
        l2[midx] = b
        l3[midx] = cc
        found[midx] = ok
        return tri_idx, l1, l2, l3, found

    def apply(self, x, y, z, forward: bool):
        tri_idx, l1, l2, l3, found = self.find(x, y, forward)
        ti = np.where(found, tri_idx, 0)
        i1 = self.tri[ti, 0]
        i2 = self.tri[ti, 1]
        i3 = self.tri[ti, 2]
        if self.horizontal:
            tx, ty = (0, 1) if not forward else (2, 3)
            xo = (self.v[i1, tx] * l1 + self.v[i2, tx] * l2
                  + self.v[i3, tx] * l3)
            yo = (self.v[i1, ty] * l1 + self.v[i2, ty] * l2
                  + self.v[i3, ty] * l3)
        else:
            xo, yo = x, y
        if self.vertical:
            zc = 4 if self.horizontal else 2
            dz = (self.v[i1, zc] * l1 + self.v[i2, zc] * l2
                  + self.v[i3, zc] * l3)
            zo = z + dz if forward else z - dz
        else:
            zo = z
        return xo, yo, zo, found


@register
class Tinshift(Operation):
    name = "tinshift"

    def setup(self, params: Params) -> None:
        self.left = WHATEVER
        self.right = WHATEVER
        fname = params.s("file")
        if not fname:
            raise ProjError("tinshift: +file= should be specified")
        path = _resolve_model(fname)
        if path is None:
            raise ProjError(f"tinshift: cannot open {fname}")
        try:
            with open(path) as f:
                self.model = TinModel(f.read())
        except (json.JSONDecodeError, UnicodeDecodeError, ValueError) as e:
            raise ProjError(f"tinshift: invalid model: {e}")

    def _apply(self, c: Coords, forward: bool) -> None:
        xo, yo, zo, found = self.model.apply(c.x, c.y, c.z, forward)
        bad = ~found
        c.set_error(bad, ERR_OUTSIDE_DOMAIN)
        c.x = np.where(bad, np.nan, xo)
        c.y = np.where(bad, np.nan, yo)
        c.z = np.where(bad, np.nan, zo)

    def _fwd(self, c: Coords) -> None:
        self._apply(c, True)

    def _inv(self, c: Coords) -> None:
        self._apply(c, False)
