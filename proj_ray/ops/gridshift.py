"""Grid-based datum shifts: hgridshift / vgridshift / generic gridshift
(reference src/transformations/{hgridshift,vgridshift,gridshift}.cpp;
bilinear interpolation and iterative inverse per
src/grids.cpp:3314-3497).

Grid sources:

* ``synth:<seed>,<west_deg>,<south_deg>,<res_deg>,<nx>,<ny>`` —
  deterministic synthetic displacement field (FIXTURES.md F5) for tests
  and benchmarks with full coverage (points outside pass through).
* ``<name>.gsb`` — NTv2 horizontal shift grid (binary reader mirroring
  src/grids.cpp NTv2 parsing: arc-second shifts, longitude positive
  west, columns stored east-to-west).
* ``<name>.gtx`` — GTX vertical shift grid (big-endian header of four
  doubles + two int32, float32 undulations, nodata -88.8888).
* ``null`` — the reference's whole-world zero grid.
* ``<file>.npz`` — local numpy archive (legacy test format).

File names resolve against each ``PROJ_DATA`` directory, then the
reference's data directory (`data_dirs`), with the same renames the
reference's CMake applies for its test suite
(data/CMakeLists.txt:100-101: egm96_15_downsampled.gtx -> egm96_15.gtx,
ntv2_0_downsampled.gsb -> ntv2_0.gsb).

Comma-separated lists try each grid in order per point (grids.cpp
grid-collection semantics); points covered by no grid (or interpolating
across nodata cells) raise the outside-grid error for file grids, and
pass through unchanged for synthetic grids.
"""

from __future__ import annotations

import os
from typing import List, Optional

import numpy as np

from proj_ray.core import mathops as m
from proj_ray.core.coords import Coords, ERR_OUTSIDE_DOMAIN
from proj_ray.ops.base import RADIANS, Operation, Params, ProjError, register

ARCSEC_TO_RAD = m.DEG_TO_RAD / 3600.0
MAX_ITER = 10
TOL = 1e-12
GTX_NODATA = float(np.float32(-88.8888))

_DATA_DIR = "/root/reference/data"
_RENAMES = {
    "egm96_15.gtx": "tests/egm96_15_downsampled.gtx",
    "ntv2_0.gsb": "tests/ntv2_0_downsampled.gsb",
    # NKG velocity grid: only the test extract ships with the reference
    # (covers the nkg.gie 2008 station points)
    "eur_nkg_nkgrf03vel_realigned.tif":
        "tests/nkgrf03vel_realigned_extract.tif",
}


_NOW_DECIMAL_YEAR: float = 0.0


def _now_decimal_year() -> float:
    """Decimal year for +t_final=now (vgridshift.cpp:186-192: 1900 +
    tm_year + tm_yday/365 with C's 0-based tm_yday; Python's tm_yday is
    1-based).  Resolved once per process and cached so every pipeline
    built in this process — and every worker a built operator is pickled
    to — shares one epoch even across a midnight boundary."""
    global _NOW_DECIMAL_YEAR
    if _NOW_DECIMAL_YEAR == 0.0:
        import time

        now = time.localtime()
        _NOW_DECIMAL_YEAR = now.tm_year + (now.tm_yday - 1) / 365.0
    return _NOW_DECIMAL_YEAR


def data_dirs() -> List[str]:
    """Directories searched for grid, model and TIN files, in order:
    each entry of ``PROJ_DATA`` (PROJ's own variable, ``os.pathsep``
    separated), then the reference's data tree."""
    env = os.environ.get("PROJ_DATA", "").split(os.pathsep)
    return [d for d in env if d] + [_DATA_DIR]


def resolve_grid_path(name: str):
    """Path of a grid file on this host, or None when it cannot be found.

    An absolute name is tried as is; then, in every directory of
    :func:`data_dirs`, the test-suite rename, the name, and the name
    under ``tests/``."""
    cands = [name] if os.path.isabs(name) else []
    for d in data_dirs():
        if name in _RENAMES:
            cands.append(os.path.join(d, _RENAMES[name]))
        cands.append(os.path.join(d, name))
        cands.append(os.path.join(d, "tests", name))
    for c in cands:
        if os.path.exists(c):
            return c
    return None


# operation parameters that name grid, model or TIN files
_FILE_PARAMS = ("grids", "nadgrids", "geoidgrids", "xy_grids", "z_grids",
                "model", "file")


def missing_files(defn: str) -> List[str]:
    """Files named by an operation that this host cannot find.

    The operation is read after its URN, init and datum expansion (so
    ``+datum=potsdam`` names BETA2007.gsb).  Every name in the
    ``grids``/``nadgrids``/``geoidgrids``/``xy_grids``/``z_grids``/
    ``model``/``file`` values counts, optional ``@`` grids included;
    ``null`` and ``synth:`` specs are not files.  Names are resolved as
    the operations resolve them: grids with :func:`resolve_grid_path`
    (``.npz`` archives as plain paths), deformation models and tinshift
    files with ``tinshift._resolve_model``.  Used by the gie runner to
    skip a case whose files are absent, as gie's ``require_grid`` does.
    """
    from proj_ray.ops.tinshift import _resolve_model
    from proj_ray.pipeline import expand_definition

    missing = []
    for tok in expand_definition(defn).split():
        key, _, value = tok.lstrip("+").partition("=")
        if key not in _FILE_PARAMS or value.startswith("synth:"):
            continue
        for name in value.split(","):
            name = name.strip().lstrip("@")
            if not name or name == "null" or name in missing:
                continue
            if key in ("model", "file"):
                found = _resolve_model(name)
            elif name.endswith(".npz"):
                found = os.path.exists(name)
            else:
                found = resolve_grid_path(name)
            if not found:
                missing.append(name)
    return missing


class ShiftGrid:
    """A lon/lat-regular displacement grid with bilinear sampling.

    Loaded once per worker (the stateful part of the actor-pool stage);
    mirrors the deferred-open semantics of hgridshift.cpp:55-58.
    """

    def __init__(self, west, south, res_lon, res_lat, values, nodata=None):
        self.west = float(west)   # radians
        self.south = float(south)
        self.res_lon = float(res_lon)
        self.res_lat = float(res_lat)
        self.values = np.asarray(values, dtype=np.float64)  # (ny, nx, k)
        self.ny, self.nx = self.values.shape[:2]
        self.nodata = nodata

    @staticmethod
    def synth(seed: int, west_deg: float, south_deg: float, res_deg: float,
              nx: int, ny: int, vertical: bool = False) -> "ShiftGrid":
        """Deterministic smooth displacement field, <= 2 arcsec / 2 m."""
        jj, ii = np.meshgrid(np.arange(ny), np.arange(nx), indexing="ij")
        ph1 = (seed % 97) / 97.0 * 2 * np.pi
        ph2 = (seed % 89) / 89.0 * 2 * np.pi
        a = 2.0 * np.sin(2 * np.pi * ii / nx + ph1) \
            * np.cos(2 * np.pi * jj / ny + ph2)
        b = 2.0 * np.cos(2 * np.pi * ii / (nx * 0.5 + 1) + ph2) \
            * np.sin(2 * np.pi * jj / (ny * 0.7 + 1) + ph1)
        if vertical:
            values = a[:, :, None]
        else:
            values = np.stack([a, b], axis=-1)
        res = res_deg * m.DEG_TO_RAD
        return ShiftGrid(west_deg * m.DEG_TO_RAD, south_deg * m.DEG_TO_RAD,
                         res, res, values)

    @staticmethod
    def null(k: int) -> "ShiftGrid":
        """Whole-world zero grid (the reference's 'null' grid)."""
        return ShiftGrid(-np.pi, -m.M_HALFPI, 2 * np.pi, np.pi,
                         np.zeros((2, 2, k)))

    def _norm_lon(self, lam):
        """Wrap longitude into [west, west + 2pi) (grids.cpp extent
        normalization for grids crossing the antimeridian)."""
        lam = np.asarray(lam, dtype=np.float64)
        return lam - 2 * np.pi * np.floor((lam - self.west) / (2 * np.pi))

    @property
    def full_world_lon(self):
        return self.res_lon * self.nx >= 2 * np.pi - 1e-9

    def interp(self, lam, phi):
        """Bilinear interpolation mirroring read_vgrid_value
        (grids.cpp:3696-3793): full-world grids wrap the east column to
        column 0; cells with 1-3 nodata corners renormalize over the
        valid corners; all-nodata cells (or out-of-extent points) are
        invalid.  Returns (values (n,k), valid (n,))."""
        lam = self._norm_lon(lam)
        fx = (lam - self.west) / self.res_lon
        fy = (np.asarray(phi) - self.south) / self.res_lat
        eps = 1e-9
        if self.full_world_lon:
            inside_x = np.ones(np.shape(fx), dtype=bool)
            fx = np.mod(fx, self.nx)
            ix = np.floor(fx).astype(np.int64) % self.nx
            ix2 = (ix + 1) % self.nx
        else:
            inside_x = (fx >= -eps) & (fx <= self.nx - 1 + eps)
            fx = np.clip(fx, 0, self.nx - 1)
            ix = np.clip(np.floor(fx).astype(np.int64), 0, self.nx - 2)
            ix2 = ix + 1
        inside = inside_x & (fy >= -eps) & (fy <= self.ny - 1 + eps)
        fy = np.clip(fy, 0, self.ny - 1)
        iy = np.clip(np.floor(fy).astype(np.int64), 0, self.ny - 2)
        tx = fx - ix
        ty = fy - iy
        corners = (self.values[iy, ix], self.values[iy, ix2],
                   self.values[iy + 1, ix], self.values[iy + 1, ix2])
        weights = ((1 - tx) * (1 - ty), tx * (1 - ty),
                   (1 - tx) * ty, tx * ty)
        if self.nodata is None:
            out = sum(v * w[..., None] for v, w in zip(corners, weights))
            valid = inside
        else:
            total_w = 0.0
            out = 0.0
            any_valid = np.zeros(np.shape(fx), dtype=bool)
            for v, w in zip(corners, weights):
                ok = ~((np.isnan(v) | (v == self.nodata)
                        | (np.abs(v) > 1e7)).any(axis=-1))
                any_valid |= ok
                wv = np.where(ok, w, 0.0)
                total_w = total_w + wv
                # zero invalid values too: 0 * NaN would poison the sum
                out = out + np.where(ok[..., None], v, 0.0) * wv[..., None]
            out = out / np.where(total_w == 0, 1.0, total_w)[..., None]
            valid = inside & any_valid
        out = np.where(valid[..., None], out, 0.0)
        return out, valid

    def sample(self, lam, phi):
        """Bilinear interpolation; (n, k) shifts, zeros outside."""
        return self.interp(lam, phi)[0]

    def contains(self, lam, phi):
        return self.interp(lam, phi)[1]


def read_gtx(path: str) -> ShiftGrid:
    """GTX vertical grid: 40-byte big-endian header (south, west, dlat,
    dlon doubles; nrows, ncols int32), float32 rows south to north."""
    with open(path, "rb") as f:
        raw = f.read()
    south, west, dlat, dlon = np.frombuffer(raw, dtype=">f8", count=4)
    nrows, ncols = np.frombuffer(raw, dtype=">i4", count=2, offset=32)
    vals = np.frombuffer(raw, dtype=">f4", count=int(nrows) * int(ncols),
                         offset=40).astype(np.float64)
    values = vals.reshape(int(nrows), int(ncols))[:, :, None]
    return ShiftGrid(west * m.DEG_TO_RAD, south * m.DEG_TO_RAD,
                     dlon * m.DEG_TO_RAD, dlat * m.DEG_TO_RAD,
                     values, nodata=GTX_NODATA)


def read_ntv2(path: str):
    """NTv2 .gsb horizontal grids: 16-byte records, auto-detected
    endianness, arc-second shifts with longitude positive WEST stored
    east-to-west (grids.cpp NTv2 parsing).  Returns a list of subgrids,
    finest resolution first."""
    with open(path, "rb") as f:
        raw = f.read()
    le = int.from_bytes(raw[8:12], "little") == 11
    i4 = "<i4" if le else ">i4"
    f8 = "<f8" if le else ">f8"
    f4 = "<f4" if le else ">f4"

    def ival(off):
        return int(np.frombuffer(raw, dtype=i4, count=1, offset=off + 8)[0])

    def dval(off):
        return float(np.frombuffer(raw, dtype=f8, count=1, offset=off + 8)[0])

    num_file = ival(2 * 16)
    off = 11 * 16
    grids = []
    for _ in range(max(num_file, 1)):
        s_lat = dval(off + 4 * 16)
        w_long = dval(off + 7 * 16)
        e_long = dval(off + 6 * 16)
        lat_inc = dval(off + 8 * 16)
        long_inc = dval(off + 9 * 16)
        gs_count = ival(off + 10 * 16)
        ncols = int(round((w_long - e_long) / long_inc)) + 1
        nrows = gs_count // ncols
        rec = np.frombuffer(raw, dtype=f4, count=gs_count * 4,
                            offset=off + 11 * 16).astype(np.float64)
        rec = rec.reshape(nrows, ncols, 4)
        # lat shift arcsec; lon shift positive west -> negate for east;
        # columns run east->west -> flip so index increases eastward
        dlat = rec[:, ::-1, 0]
        dlon = -rec[:, ::-1, 1]
        values = np.stack([dlon, dlat], axis=-1)
        grids.append(ShiftGrid(-(w_long / 3600.0) * m.DEG_TO_RAD,
                               (s_lat / 3600.0) * m.DEG_TO_RAD,
                               (long_inc / 3600.0) * m.DEG_TO_RAD,
                               (lat_inc / 3600.0) * m.DEG_TO_RAD,
                               values))
        off += 11 * 16 + gs_count * 16
    grids.sort(key=lambda g: g.res_lon)
    return grids


def load_grids(spec: str, vertical: bool = False):
    """Resolve a +grids= spec (possibly comma-separated) to a list of
    ShiftGrids plus a strictness flag (True = error outside coverage)."""
    if spec.startswith("synth:"):  # synth specs embed commas: no list
        fields = spec[6:].split(",")
        if len(fields) != 6:
            raise ProjError("gridshift: synth spec needs 6 fields")
        seed, west, south, res, nx, ny = fields
        return [ShiftGrid.synth(int(seed), float(west), float(south),
                                float(res), int(nx), int(ny),
                                vertical=vertical)], False
    grids = []
    strict = False
    for part in spec.split(","):
        part = part.strip()
        optional = part.startswith("@")
        if optional:
            part = part[1:]
        if not part:
            continue
        if part == "null":
            grids.append(ShiftGrid.null(1 if vertical else 2))
            continue
        if part.endswith(".npz"):
            if not os.path.exists(part):
                raise ProjError(f"gridshift: grid file not found: {part}")
            data = np.load(part)
            west, south, res = (float(v) * m.DEG_TO_RAD
                                for v in data["meta"][:3])
            values = data["values"]
            if values.ndim == 2:
                values = values[:, :, None]
            grids.append(ShiftGrid(west, south, res, res, values))
            continue
        path = resolve_grid_path(part)
        if path is None:
            if optional:
                continue
            raise ProjError(f"unknown or unsupported grid format: {part!r} "
                            "(grid file not found)")
        strict = True
        kind = sniff_grid_format(path)
        if kind == "gtx":
            grids.append(read_gtx(path))
        elif kind == "ntv2":
            grids.extend(read_ntv2(path))
        elif kind == "ctable2":
            grids.append(read_ctable2_hgrid(path))
        elif kind == "gtiff":
            from proj_ray.ops.geotiff import TiffError

            try:
                grids.extend(read_geotiff_vgrids(path) if vertical
                             else read_geotiff_hgrids(path))
            except TiffError as exc:
                raise ProjError("unknown or unsupported grid format: "
                                f"{part!r} ({exc})") from exc
        else:
            raise ProjError(
                f"unknown or unsupported grid format: {part!r}")
    # an empty list (every grid optional and absent) is not an error:
    # the operation passes coordinates through unchanged (pj_hgrid_init
    # drops missing optional grids; hgridshift.cpp/vgridshift.cpp apply
    # the shift only when at least one grid is loaded)
    return grids, strict


def validate_grid_spec_shallow(spec: str) -> bool:
    """Existence + format sniff only (the pipeline-level gate); the
    operation's own setup does the semantic validation so that e.g. a
    vertical grid spec isn't judged by horizontal channel rules."""
    if spec.startswith("synth:"):
        return True
    for part in spec.split(","):
        opt = part.strip().startswith("@")
        part = part.strip().lstrip("@")
        if not part or part == "null":
            continue
        if part.endswith(".npz"):
            if not os.path.exists(part):
                return False
            continue
        path = resolve_grid_path(part)
        if path is None:
            if opt:
                continue
            return False
        if sniff_grid_format(path) is None:
            return False
    return True


def validate_grid_spec(spec: str, vertical: bool = False) -> bool:
    """True if every part of the spec is loadable (used by
    create_operation to gate nadgrids=/geoidgrids=); TIFF grids are
    fully opened so channel/metadata errors surface at setup, as the
    reference's non-deferred init does."""
    if spec.startswith("synth:"):
        return True
    for part in spec.split(","):
        opt = part.strip().startswith("@")
        part = part.strip().lstrip("@")
        if not part or part == "null":
            continue
        if part.endswith(".npz"):
            if not os.path.exists(part):
                return False
            continue
        path = resolve_grid_path(part)
        if path is None:
            if opt:
                continue
            return False
        kind = sniff_grid_format(path)
        if kind in ("gtx", "ntv2", "ctable2"):
            continue
        if kind == "gtiff":
            try:
                if vertical:
                    read_geotiff_vgrids(path)
                else:
                    read_geotiff_hgrids(path)
            except Exception:
                return False
            continue
        return False
    return True


class _GridList:
    """Per-point first-covering-grid sampler over an ordered grid list."""

    def __init__(self, grids, k):
        self.grids = grids
        self.k = k

    def sample(self, lam, phi):
        n = np.shape(lam)[0] if np.ndim(lam) else 1
        out = np.zeros((n, self.k))
        found = np.zeros(n, dtype=bool)
        for g in self.grids:
            vals, valid = g.interp(lam, phi)
            take = valid & ~found
            if np.any(take):
                kk = min(self.k, vals.shape[-1])
                out[take, :kk] = vals[take, :kk]
            found |= valid
            if found.all():
                break
        return out, found


class _GridShiftBase(Operation):
    vertical = False

    def setup(self, params: Params) -> None:
        self.left = RADIANS
        self.right = RADIANS
        spec = params.s("grids")
        if not spec:
            raise ProjError("gridshift: +grids parameter missing")
        # deferred load: the grid opens on first use in each worker
        # (mirrors defer_grid_opening, hgridshift.cpp:55-58)
        self._spec = spec
        self._glist = None
        self._strict = None
        self.mult = params.f("multiplier", 1.0)
        # vertical: historical forward ADDS multiplier*N with default
        # multiplier -1 (vgridshift.cpp:199-204)
        self.fm = params.f("multiplier", -1.0)
        # time bracket (vgridshift.cpp:176-199, hgridshift.cpp identical):
        # when both +t_epoch and +t_final are set (nonzero), the shift is
        # applied only where t < t_epoch and t_final > t_epoch.
        self.t_epoch = params.f("t_epoch", 0.0)
        self.t_final = 0.0
        if params.has("t_final"):
            raw = params.s("t_final", "")
            try:
                self.t_final = float(raw)
            except (TypeError, ValueError):
                if raw == "now":
                    self.t_final = _now_decimal_year()
        # fail fast on unresolvable specs (reference errors at init too)
        if not validate_grid_spec(spec, vertical=self.vertical):
            raise ProjError(f"unknown or unsupported grid format: {spec!r} "
                            "(grid file not found)")

    @property
    def glist(self) -> _GridList:
        if self._glist is None:
            grids, strict = load_grids(self._spec, vertical=self.vertical)
            k = 1 if self.vertical else 2
            self._glist = _GridList(grids, k)
            self._strict = strict
        return self._glist

    def _miss(self, c: Coords, found) -> None:
        if self._strict:
            bad = ~found
            c.set_error(bad, ERR_OUTSIDE_DOMAIN)
            c.x = np.where(bad, np.nan, c.x)
            c.y = np.where(bad, np.nan, c.y)
            c.z = np.where(bad, np.nan, c.z)

    def _time_mask(self, c: Coords):
        """Per-point application mask for the +t_epoch/+t_final bracket
        (vgridshift.cpp:102-151): with both set, shift only points with
        t < t_epoch, and only if t_final > t_epoch."""
        if self.t_final == 0.0 or self.t_epoch == 0.0:
            return None
        if not (self.t_final > self.t_epoch):
            return np.zeros(c.x.shape, dtype=bool)
        return c.t < self.t_epoch

    def _apply(self, c: Coords, direction: int) -> None:
        mask = self._time_mask(c)
        if mask is not None:
            if not np.any(mask):
                return
            keep = c.copy()
            self._apply_all(c, direction)
            off = ~mask
            c.x = np.where(off, keep.x, c.x)
            c.y = np.where(off, keep.y, c.y)
            c.z = np.where(off, keep.z, c.z)
            c.err = np.where(off, keep.err, c.err).astype(keep.err.dtype)
            return
        self._apply_all(c, direction)

    def _apply_all(self, c: Coords, direction: int) -> None:
        gl = self.glist
        if not gl.grids:
            return
        lam, phi, z = c.x, c.y, c.z
        if self.vertical:
            s, found = gl.sample(lam, phi)
            c.z = z + direction * s[:, 0] * self.fm
            self._miss(c, found)
            return
        if direction > 0:
            s, found = gl.sample(lam, phi)
            c.x = lam + s[:, 0] * (ARCSEC_TO_RAD * self.mult)
            c.y = phi + s[:, 1] * (ARCSEC_TO_RAD * self.mult)
            self._miss(c, found)
            return
        # inverse: fixed point x_{k+1} = target - shift(x_k)
        lam_c = lam.copy()
        phi_c = phi.copy()
        found = np.ones(lam.shape, dtype=bool)
        for _ in range(MAX_ITER):
            s, found = gl.sample(lam_c, phi_c)
            lam_n = lam - s[:, 0] * (ARCSEC_TO_RAD * self.mult)
            phi_n = phi - s[:, 1] * (ARCSEC_TO_RAD * self.mult)
            done = (np.abs(lam_n - lam_c) < TOL) \
                & (np.abs(phi_n - phi_c) < TOL)
            lam_c = lam_n
            phi_c = phi_n
            if np.all(done):
                break
        c.x = lam_c
        c.y = phi_c
        self._miss(c, found)


@register
class HGridShift(_GridShiftBase):
    name = "hgridshift"
    vertical = False

    def _fwd(self, c: Coords) -> None:
        self._apply(c, +1)

    def _inv(self, c: Coords) -> None:
        self._apply(c, -1)


@register
class VGridShift(_GridShiftBase):
    name = "vgridshift"
    vertical = True

    def _fwd(self, c: Coords) -> None:
        self._apply(c, +1)

    def _inv(self, c: Coords) -> None:
        self._apply(c, -1)


# The generic +proj=gridshift operation (TYPE-metadata-driven GTG
# shifts, bilinear/biquadratic) lives in proj_ray/ops/gridshift_generic.py.


def sniff_grid_format(path: str) -> Optional[str]:
    """Detect a grid file's format by content magic (grids.cpp opens by
    header, not extension): CTable2, NTv2, GeoTIFF; GTX (headerless) by
    extension."""
    try:
        with open(path, "rb") as f:
            head = f.read(16)
    except OSError:
        return None
    if head[:11] == b"CTABLE V2.0":
        return "ctable2"
    if head[:8] == b"NUM_OREC":
        return "ntv2"
    if head[:2] in (b"II", b"MM") and len(head) >= 4 \
            and head[2:4] in (b"*\x00", b"\x00*", b"+\x00", b"\x00+"):
        return "gtiff"
    if path.endswith((".gtx", ".GTX")):
        return "gtx"
    return None


def read_ctable2_hgrid(path: str) -> ShiftGrid:
    """CTable2 as a horizontal shift grid: values are radians with the
    west-longitude-positive convention (CTable2Grid::valueAt negates
    when compensateNTConvention) — converted here to the east-positive
    arc-second convention the hgridshift kernel uses."""
    raw = read_ctable2(path)
    vals = np.empty_like(raw.values)
    vals[:, :, 0] = -raw.values[:, :, 0] / ARCSEC_TO_RAD
    vals[:, :, 1] = raw.values[:, :, 1] / ARCSEC_TO_RAD
    return ShiftGrid(raw.west, raw.south, raw.res_lon, raw.res_lat, vals)


_HGRID_UNIT_TO_RAD = {"": ARCSEC_TO_RAD, "arc-second": ARCSEC_TO_RAD,
                      "arc-seconds per year": ARCSEC_TO_RAD,
                      "radian": 1.0, "degree": m.DEG_TO_RAD}


def read_geotiff_hgrids(path: str):
    """GTG horizontal grids -> ShiftGrids in east-positive arc-seconds
    (channel roles/units/sign per grids.cpp GTiffHGridShiftSet::open:
    defaults lat=0, lon=1, arc-second, positive east)."""
    from proj_ray.ops.geotiff import read_geotiff

    out = []
    for g in read_geotiff(path):
        if g.spp < 2:
            if g.ifd_index > 0:
                continue
            raise ProjError("unknown or unsupported grid format: "
                            "hgrid needs >= 2 samples")
        idx_lat, idx_lon = 0, 1
        found_any = found_lat = found_lon = False
        for i in range(g.spp):
            d = g.description(i)
            if d:
                found_any = True
            if d == "latitude_offset":
                idx_lat, found_lat = i, True
            elif d == "longitude_offset":
                idx_lon, found_lon = i, True
        if found_any and not (found_lat or found_lon):
            if g.ifd_index > 0:
                continue
            raise ProjError("unknown or unsupported grid format: no "
                            "longitude_offset/latitude_offset channel")
        positive_east = g.item("positive_value", idx_lon) != "west"
        unit = g.unit(idx_lat)
        if unit not in _HGRID_UNIT_TO_RAD:
            raise ProjError(f"unknown or unsupported grid format: "
                            f"unsupported unit {unit!r}")
        conv = _HGRID_UNIT_TO_RAD[unit] / ARCSEC_TO_RAD
        vals = np.empty((g.ny, g.nx, 2))
        sign = 1.0 if positive_east else -1.0
        vals[:, :, 0] = g.values[:, :, idx_lon] * conv * sign
        vals[:, :, 1] = g.values[:, :, idx_lat] * conv
        out.append(ShiftGrid(g.west, g.south, g.res_x, g.res_y, vals))
    if not out:
        raise ProjError("unknown or unsupported grid format: no usable "
                        "horizontal grid IFD")
    out.sort(key=lambda s: (s.res_lon * s.nx) * (s.res_lat * s.ny))
    return out


def read_geotiff_vgrids(path: str):
    """GTG vertical grids -> ShiftGrids (metres, NaN nodata with
    valid-corner renormalization like GTX); channel per grids.cpp
    GTiffVGridShiftSet::open (default sample 0, else the channel whose
    description names a vertical offset)."""
    from proj_ray.ops.geotiff import read_geotiff

    vert_descs = ("geoid_undulation", "vertical_offset", "hydroid_height",
                  "ellipsoidal_height_offset")
    out = []
    for g in read_geotiff(path):
        idx = 0
        found_any = found_shift = False
        for i in range(g.spp):
            d = g.description(i)
            if d:
                found_any = True
            if d in vert_descs:
                idx, found_shift = i, True
        if found_any and not found_shift:
            if g.ifd_index > 0:
                continue
            raise ProjError("unknown or unsupported grid format: no "
                            "vertical offset channel")
        unit = g.unit(idx)
        if unit not in ("", "metre"):
            raise ProjError(f"unknown or unsupported grid format: "
                            f"unsupported unit {unit!r}")
        vals = g.values[:, :, idx:idx + 1]
        out.append(ShiftGrid(g.west, g.south, g.res_x, g.res_y, vals,
                             nodata=np.nan))
    if not out:
        raise ProjError("unknown or unsupported grid format: no usable "
                        "vertical grid IFD")
    out.sort(key=lambda s: (s.res_lon * s.nx) * (s.res_lat * s.ny))
    return out


def load_generic_gridsets(spec: str):
    """Gridsets for the generic gridshift op: one list per comma entry;
    each entry is GTiffGrid objects (file order) or [None] for 'null'."""
    from proj_ray.ops.geotiff import TiffError, read_geotiff

    sets = []
    for part in spec.split(","):
        part = part.strip()
        optional = part.startswith("@")
        if optional:
            part = part[1:]
        if not part:
            continue
        if part == "null":
            sets.append([None])
            continue
        path = resolve_grid_path(part)
        if path is None:
            if optional:
                continue
            raise ProjError("gridshift: could not find required grid(s): "
                            f"{part!r} (grid file not found)")
        if sniff_grid_format(path) != "gtiff":
            raise ProjError(f"unknown or unsupported grid format: {part!r}")
        try:
            grids = read_geotiff(path)
        except TiffError as exc:
            raise ProjError(f"unknown or unsupported grid format: {part!r} "
                            f"({exc})") from exc
        # subgrid IFDs may omit TYPE: inherit from the first typed grid
        # (GTiffGenericGrid::setFirstGrid, grids.cpp:3034-3037)
        first_typed = next((g for g in grids if g.item("TYPE")), None)
        for g in grids:
            if not g.item("TYPE") and first_typed is not None:
                g.inherited_type = first_typed.item("TYPE")
        sets.append(_build_hierarchy(grids))
    if not sets:
        raise ProjError(f"gridshift: no usable grid in {spec!r}")
    return sets


def _extent_contains(a, b, eps: float = 1e-11) -> bool:
    return (a.west <= b.west + eps and a.east >= b.east - eps
            and a.south <= b.south + eps and a.north >= b.north - eps)


def _insert_grid(parent, g) -> None:
    """GridType::insertGrid — descend into the first child whose extent
    contains the new grid, else attach directly."""
    for c in parent.children:
        if _extent_contains(c, g):
            _insert_grid(c, g)
            return
    parent.children.append(g)


def _build_hierarchy(grids):
    """insertIntoHierarchy (grids.cpp:1360-1430): named parents first,
    named orphans become top-level, anonymous grids nest by extent
    containment.  Returns the top-level list (file order); each grid
    gains a .children list."""
    tops = []
    by_name = {}
    for g in grids:
        g.children = []
        gname = g.item("grid_name")
        pname = g.item("parent_grid_name")
        placed = False
        if pname:
            p = by_name.get(pname)
            if p is not None and _extent_contains(p, g):
                p.children.append(g)
                placed = True
        elif gname:
            tops.append(g)
            placed = True
        if not placed:
            t = g.item("TYPE")
            for cand in tops:
                if t and cand.item("TYPE") != t:
                    continue
                if _extent_contains(cand, g):
                    _insert_grid(cand, g)
                    placed = True
                    break
            if not placed:
                tops.append(g)
        if gname:
            by_name[gname] = g
    return tops


def read_ctable2(path: str) -> ShiftGrid:
    """CTable2 horizontal grid: 160-byte little-endian header with west,
    south, resX, resY doubles (radians) at offset 96 and width/height
    int32 at 128; float32 (longShift, latShift) pairs west-to-east,
    south-to-north, stored raw (grids.cpp CTable2Grid::open/valueAt —
    no NTv2 sign convention)."""
    with open(path, "rb") as f:
        raw = f.read()
    west, south, res_x, res_y = np.frombuffer(raw, dtype="<f8", count=4,
                                              offset=96)
    width, height = np.frombuffer(raw, dtype="<i4", count=2, offset=128)
    vals = np.frombuffer(raw, dtype="<f4", count=int(width) * int(height) * 2,
                         offset=160).astype(np.float64)
    values = vals.reshape(int(height), int(width), 2)
    return ShiftGrid(west, south, res_x, res_y, values)
