"""FIXTURES.md F5: synthetic hgridshift/vgridshift checks — bilinear
exactness at nodes, fixed-point inverse roundtrip <= 1e-12 rad."""

import numpy as np
import pytest

from proj_ray.core import mathops as m
from proj_ray.ops.gridshift import ARCSEC_TO_RAD, ShiftGrid
from proj_ray.pipeline import create_operation, transform_arrays

SPEC = "synth:42,-10,40,0.5,41,21"  # west=-10E..10E, south=40N..50N


def test_bilinear_at_nodes():
    g = ShiftGrid.synth(42, -10, 40, 0.5, 41, 21)
    # at grid nodes the interpolation must reproduce node values exactly
    lam = (-10 + 0.5 * np.arange(41)) * m.DEG_TO_RAD
    phi = (40 + 0.5 * 7) * m.DEG_TO_RAD
    s = g.sample(lam, np.full_like(lam, phi))
    assert np.allclose(s[:, 0], g.values[7, :, 0], atol=1e-9, rtol=0)
    assert np.allclose(s[:, 1], g.values[7, :, 1], atol=1e-9, rtol=0)


def test_hgridshift_roundtrip():
    p = create_operation(f"+proj=hgridshift +grids={SPEC} +ellps=GRS80")
    rng = np.random.default_rng(7)
    lon = rng.uniform(-9.9, 9.9, 500)
    lat = rng.uniform(40.1, 49.9, 500)
    c = transform_arrays(p, lon, lat)
    # shift magnitude sane (<= ~2.83 arcsec diag)
    assert np.max(np.abs(c.x - lon)) * 3600 <= 3.0
    assert np.any(np.abs(c.x - lon) > 0)
    ci = transform_arrays(p, c.x, c.y, direction="inverse")
    assert np.allclose(ci.x, lon, atol=1e-12 / m.DEG_TO_RAD * 1e-3)
    assert np.allclose(ci.y, lat, atol=1e-12 / m.DEG_TO_RAD * 1e-3)


def test_vgridshift_sign_and_roundtrip():
    p = create_operation(
        f"+proj=vgridshift +grids={SPEC} +ellps=GRS80")
    c = transform_arrays(p, [0.0], [45.0], [100.0])
    g = ShiftGrid.synth(42, -10, 40, 0.5, 41, 21, vertical=True)
    dz = g.sample(np.array([0.0]), np.array([45.0 * m.DEG_TO_RAD]))[0, 0]
    assert abs((100.0 - dz) - c.z[0]) < 1e-9
    ci = transform_arrays(p, c.x, c.y, c.z, direction="inverse")
    assert abs(ci.z[0] - 100.0) < 1e-9


def test_outside_grid_passthrough():
    p = create_operation(f"+proj=hgridshift +grids={SPEC} +ellps=GRS80")
    c = transform_arrays(p, [100.0], [0.0])
    assert abs(c.x[0] - 100.0) < 1e-12
    assert abs(c.y[0] - 0.0) < 1e-12


def test_pipeline_with_gridshift():
    defn = (f"+proj=pipeline +ellps=GRS80 "
            f"+step +proj=hgridshift +grids={SPEC} "
            f"+step +proj=utm +zone=31")
    p = create_operation(defn)
    c = transform_arrays(p, [3.0], [45.0])
    assert np.isfinite(c.x[0]) and c.err[0] == 0
    ci = transform_arrays(p, c.x, c.y, direction="inverse")
    assert abs(ci.x[0] - 3.0) < 1e-9
    assert abs(ci.y[0] - 45.0) < 1e-9


# ------------- BETA2007-shaped NTv2 grid (VERDICT r4 ask #9) ---------------


def _write_beta2007_shaped_gsb(path, dlat_sec, dlon_sec):
    """A synthetic .gsb with the published BETA2007 geometry (DHDN ->
    ETRS89, whole Germany: 5.5E-15.5E x 47N-55N at 0.1 deg, one
    subgrid, big-endian) and caller-supplied shift fields — the 32
    dropped DHDN_ETRS89.gie cases need the real grid VALUES, but the
    reader/interp path is exercised at the same shape and tolerances."""
    import numpy as np

    nrows, ncols = dlat_sec.shape
    # NTv2 longitudes are positive WEST; columns run east -> west
    s_lat, n_lat = 47.0 * 3600, 55.0 * 3600
    e_long, w_long = -15.5 * 3600, -5.5 * 3600
    inc = 0.1 * 3600

    def rec(key, val, fmt):
        k = key.ljust(8).encode()
        if fmt == "i":
            return k + np.int32(val).newbyteorder(">").tobytes() + b"\0" * 4
        if fmt == "d":
            return k + np.float64(val).newbyteorder(">").tobytes()
        return k + val.ljust(8).encode()

    hdr = b"".join([
        rec("NUM_OREC", 11, "i"), rec("NUM_SREC", 11, "i"),
        rec("NUM_FILE", 1, "i"), rec("GS_TYPE", "SECONDS", "s"),
        rec("VERSION", "NTv2.0", "s"), rec("SYSTEM_F", "DHDN", "s"),
        rec("SYSTEM_T", "ETRS89", "s"), rec("MAJOR_F", 6377397.155, "d"),
        rec("MINOR_F", 6356078.963, "d"), rec("MAJOR_T", 6378137.0, "d"),
        rec("MINOR_T", 6356752.314, "d")])
    sub = b"".join([
        rec("SUB_NAME", "DEUTSCHL", "s"), rec("PARENT", "NONE", "s"),
        rec("CREATED", "SYNTH", "s"), rec("UPDATED", "SYNTH", "s"),
        rec("S_LAT", s_lat, "d"), rec("N_LAT", n_lat, "d"),
        rec("E_LONG", e_long, "d"), rec("W_LONG", w_long, "d"),
        rec("LAT_INC", inc, "d"), rec("LONG_INC", inc, "d"),
        rec("GS_COUNT", nrows * ncols, "i")])
    # records run south->north, east->west, 4 x f4 each
    recs = np.zeros((nrows, ncols, 4), dtype=">f4")
    recs[:, :, 0] = dlat_sec[:, ::-1]
    recs[:, :, 1] = dlon_sec[:, ::-1]   # positive west
    with open(path, "wb") as f:
        f.write(hdr + sub + recs.tobytes())


def test_beta2007_shaped_ntv2_reader_and_interp(tmp_path):
    """The NTv2 reader must reproduce the BETA2007 grid geometry
    exactly and bilinear-interpolate the synthetic field to the
    gie-level tolerance (DHDN_ETRS89.gie runs at 0.5 mm ~= 1.6e-8
    deg; the interp here is checked at 1e-10 deg)."""
    import numpy as np

    from proj_ray.ops.gridshift import read_ntv2
    from proj_ray.pipeline import create_operation, transform_arrays

    nrows, ncols = 81, 101
    lat_ax = 47.0 + 0.1 * np.arange(nrows)
    lon_ax = 5.5 + 0.1 * np.arange(ncols)
    lon_g, lat_g = np.meshgrid(lon_ax, lat_ax)
    # smooth synthetic fields, arcsec (BETA2007 magnitudes ~ 1-3")
    dlat = 2.0 + 0.5 * np.sin(np.radians(lat_g * 3))
    dlon = -1.5 + 0.4 * np.cos(np.radians(lon_g * 2))
    path = str(tmp_path / "BETA2007_synth.gsb")
    _write_beta2007_shaped_gsb(path, dlat, dlon)

    grids = read_ntv2(path)
    assert len(grids) == 1
    g = grids[0]
    np.testing.assert_allclose(np.degrees(g.west), 5.5, atol=1e-12)
    np.testing.assert_allclose(np.degrees(g.south), 47.0, atol=1e-12)
    np.testing.assert_allclose(np.degrees(g.res_lon), 0.1, atol=1e-12)
    assert g.values.shape == (nrows, ncols, 2)
    # stored east->west + positive-west got unflipped / negated:
    # values[..., 0] is the EAST-positive lon shift = -stored
    np.testing.assert_allclose(g.values[:, :, 1], dlat, atol=1e-6)
    np.testing.assert_allclose(g.values[:, :, 0], -dlon, atol=1e-6)

    # pipeline interp at off-node points vs direct bilinear
    op = create_operation(f"+proj=hgridshift +grids={path}")
    rng = np.random.default_rng(3)
    lon = rng.uniform(6.0, 15.0, 50)
    lat = rng.uniform(47.5, 54.5, 50)
    out = transform_arrays(op, lon.copy(), lat.copy())
    assert (out.err == 0).all()

    def bilin(f, x, y):
        ix = (x - 5.5) / 0.1
        iy = (y - 47.0) / 0.1
        i0 = np.floor(ix).astype(int)
        j0 = np.floor(iy).astype(int)
        fx, fy = ix - i0, iy - j0
        return (f[j0, i0] * (1 - fx) * (1 - fy)
                + f[j0, i0 + 1] * fx * (1 - fy)
                + f[j0 + 1, i0] * (1 - fx) * fy
                + f[j0 + 1, i0 + 1] * fx * fy)

    want_lat = lat + bilin(dlat, lon, lat) / 3600.0
    want_lon = lon + (-bilin(dlon, lon, lat)) / 3600.0  # west-positive
    np.testing.assert_allclose(out.y, want_lat, atol=1e-10)
    np.testing.assert_allclose(out.x, want_lon, atol=1e-10)

    # forward/inverse closure at DHDN gie tolerance (0.5 mm ~ 5e-9 deg)
    back = transform_arrays(op, out.x.copy(), out.y.copy(),
                            direction="inverse")
    np.testing.assert_allclose(back.x, lon, atol=5e-9)
    np.testing.assert_allclose(back.y, lat, atol=5e-9)


# ------------- missing grid files --------------------------------------


def test_missing_optional_grid_passes_through():
    """An absent '@' grid is dropped at load and the operation passes
    coordinates through unchanged (hgridshift.cpp/vgridshift.cpp apply
    the shift only when a grid is loaded)."""
    lon, lat, h = np.array([7.5, -120.0]), np.array([53.5, 40.0]), \
        np.array([100.0, -5.0])
    for defn in ("+proj=hgridshift +grids=@no_such.gsb",
                 "+proj=vgridshift +grids=@no_such.gtx"):
        p = create_operation(defn)
        for direction in ("forward", "inverse"):
            c = transform_arrays(p, lon, lat, h, direction=direction)
            assert (c.err == 0).all(), (defn, direction)
            # deg -> rad -> deg at the API boundary costs ~1 ulp
            np.testing.assert_allclose(c.x, lon, rtol=0, atol=1e-12)
            np.testing.assert_allclose(c.y, lat, rtol=0, atol=1e-12)
            np.testing.assert_array_equal(c.z, h)


def test_missing_required_grid_raises_at_setup():
    from proj_ray.ops.base import ProjError

    for defn in ("+proj=hgridshift +grids=no_such.gsb",
                 "+proj=vgridshift +grids=no_such.gtx",
                 "+proj=hgridshift +grids=@no_such.gsb,no_such_2.gsb"):
        with pytest.raises(ProjError):
            create_operation(defn)


def test_missing_files_names_only_absent_files(tmp_path):
    from proj_ray.ops.gridshift import missing_files, resolve_grid_path

    npz = tmp_path / "g.npz"
    np.savez(npz, meta=np.array([-10.0, 40.0, 0.5]),
             values=np.zeros((3, 3, 2)))
    assert missing_files(f"+proj=hgridshift +grids={SPEC}") == []
    assert missing_files(f"+proj=hgridshift +grids=@null,{npz}") == []
    assert missing_files("+proj=merc +ellps=GRS80") == []
    assert missing_files(
        "+proj=pipeline +step +proj=hgridshift +grids=@no_such.gsb,null "
        "+step +proj=vgridshift +grids=no_such.gtx "
        "+step +proj=tinshift +file=no_such.json") == [
            "no_such.gsb", "no_such.gtx", "no_such.json"]
    # datum expansion: +datum=potsdam names @BETA2007.gsb
    beta = [] if resolve_grid_path("BETA2007.gsb") else ["BETA2007.gsb"]
    assert missing_files("+proj=longlat +datum=potsdam") == beta


def test_proj_data_search_path(tmp_path, monkeypatch):
    """PROJ_DATA directories are searched before the reference's data
    tree, with the test-suite renames and the ``tests/`` subdirectory
    in each of them."""
    import os

    from proj_ray.ops.base import ProjError
    from proj_ray.ops.gridshift import (data_dirs, missing_files,
                                        resolve_grid_path)

    defn = "+proj=hgridshift +grids=BETA2007.gsb"
    monkeypatch.delenv("PROJ_DATA", raising=False)
    if resolve_grid_path("BETA2007.gsb") is None:
        assert missing_files(defn) == ["BETA2007.gsb"]
        with pytest.raises(ProjError):
            create_operation(defn)

    lat_g, lon_g = np.meshgrid(47.0 + 0.1 * np.arange(81),
                               5.5 + 0.1 * np.arange(101), indexing="ij")
    _write_beta2007_shaped_gsb(
        str(tmp_path / "BETA2007.gsb"),
        2.0 + 0.5 * np.sin(np.radians(lat_g * 3)),
        -1.5 + 0.4 * np.cos(np.radians(lon_g * 2)))
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "egm96_15_downsampled.gtx").write_bytes(b"")
    (tmp_path / "tests" / "model.json").write_text("{}")
    empty = tmp_path / "empty"
    empty.mkdir()
    monkeypatch.setenv("PROJ_DATA",
                       os.pathsep.join([str(empty), str(tmp_path)]))
    assert data_dirs()[:2] == [str(empty), str(tmp_path)]
    assert missing_files(defn) == []
    assert missing_files("+proj=longlat +datum=potsdam") == []
    assert missing_files("+proj=tinshift +file=model.json") == []
    assert resolve_grid_path("egm96_15.gtx") == str(
        tmp_path / "tests" / "egm96_15_downsampled.gtx")

    rng = np.random.default_rng(11)
    lon = rng.uniform(6.0, 15.0, 20)
    lat = rng.uniform(47.5, 54.5, 20)
    out = transform_arrays(create_operation(defn), lon, lat)
    assert (out.err == 0).all()
    shift = np.hypot(out.x - lon, out.y - lat) * 3600.0
    assert (shift > 0.5).all() and (shift < 4.0).all()
