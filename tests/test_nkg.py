"""NKG URN shim (nkg.gie surface): the reference resolves
urn:ogc:def:coordinateOperation:NKG::<code> through proj.db rows built
from data/sql/nkg.sql; our shim expands the NKG2008 family to explicit
pipelines.  The gie station points all fall outside the shipped extract
grid (tests/nkgrf03vel_realigned_extract.tif covers 21-21.7E 62.8-63.2N
only), so the corpus extractor drops them with logged reasons — these
tests pin the shim's behavior on points INSIDE the extract."""

import json
import os

import numpy as np
import pytest

from proj_ray.epsg_init import NKG_URN, expand_urn
from proj_ray.ops.gridshift import missing_files
from proj_ray.pipeline import create_operation, transform_arrays

URN = "urn:ogc:def:coordinateOperation:NKG::"


def _needs_files_of(*codes):
    """Skip unless every grid the URN operations name is on this host."""
    missing = sorted({f for c in codes for f in missing_files(URN + c)})
    return pytest.mark.skipif(bool(missing),
                              reason=f"grid file not found: {missing}")


def _xyz(lon_deg, lat_deg, h=50.0):
    a, es = 6378137.0, 0.00669438002290
    lat, lon = np.radians(lat_deg), np.radians(lon_deg)
    n = a / np.sqrt(1 - es * np.sin(lat) ** 2)
    return ((n + h) * np.cos(lat) * np.cos(lon),
            (n + h) * np.cos(lat) * np.sin(lon),
            (n * (1 - es) + h) * np.sin(lat))


def test_urn_table_covers_2008_family():
    codes = set(NKG_URN)
    assert "ITRF2000_TO_NKG_ETRF00" in codes
    for cc in ("DK", "EE", "FI", "LV", "LT", "NO", "SE"):
        assert f"ETRF00_TO_{cc}" in codes
        assert f"ITRF2000_TO_{cc}" in codes
    # 2020 family needs eur_nkg_nkgrf17vel.tif (not shipped): unexpanded
    assert expand_urn(URN + "ITRF2014_TO_NKG_ETRF14") \
        == URN + "ITRF2014_TO_NKG_ETRF14"


@_needs_files_of("ITRF2000_TO_NKG_ETRF00", "ITRF2000_TO_SE", "ETRF00_TO_FI")
def test_urn_pipelines_run_and_roundtrip_inside_extract():
    x, y, z = _xyz(21.3, 63.0)
    t = np.array([2020.5])
    for code in ("ITRF2000_TO_NKG_ETRF00", "ITRF2000_TO_SE",
                 "ETRF00_TO_FI"):
        p = create_operation(URN + code)
        r = transform_arrays(p, np.array([x]), np.array([y]),
                             np.array([z]), t)
        assert r.err[0] == 0
        # plate-motion-scale shift, not identity and not garbage
        d = np.hypot(np.hypot(r.x[0] - x, r.y[0] - y), r.z[0] - z)
        assert 1e-3 < d < 2.0
        ri = transform_arrays(p, r.x, r.y, r.z, t, direction="inverse")
        rt = np.hypot(np.hypot(ri.x[0] - x, ri.y[0] - y), ri.z[0] - z)
        assert rt < 5e-6  # sub-micrometre closure


@_needs_files_of("ITRF2000_TO_SE", "ITRF2000_TO_NKG_ETRF00",
                "ETRF00_TO_SE")
def test_itrf_to_country_composes_common_then_national():
    """ITRF2000_TO_SE must equal ITRF2000_TO_NKG_ETRF00 then
    ETRF00_TO_SE (concatenated_operation_step rows, nkg.sql)."""
    x, y, z = _xyz(21.2, 63.1)
    t = np.array([2015.0])
    whole = create_operation(URN + "ITRF2000_TO_SE")
    a = create_operation(URN + "ITRF2000_TO_NKG_ETRF00")
    b = create_operation(URN + "ETRF00_TO_SE")
    rw = transform_arrays(whole, np.array([x]), np.array([y]),
                          np.array([z]), t)
    ra = transform_arrays(a, np.array([x]), np.array([y]),
                          np.array([z]), t)
    rb = transform_arrays(b, ra.x, ra.y, ra.z, t)
    assert rw.x[0] == pytest.approx(rb.x[0], abs=1e-9)
    assert rw.y[0] == pytest.approx(rb.y[0], abs=1e-9)
    assert rw.z[0] == pytest.approx(rb.z[0], abs=1e-9)


@_needs_files_of("ITRF2000_TO_DK")
def test_outside_extract_reports_domain_error():
    """The real nkg.gie station points are outside the extract grid:
    the pipeline must flag them, mirroring why the extractor drops
    those cases rather than silently passing wrong numbers."""
    p = create_operation(URN + "ITRF2000_TO_DK")
    r = transform_arrays(p, np.array([3541657.3778]),
                         np.array([948984.2343]),
                         np.array([5201383.5231]), np.array([2020.5]))
    assert r.err[0] != 0


def test_dropped_case_accounting_written():
    path = os.path.join(os.path.dirname(__file__), "data",
                        "gie_dropped.json")
    with open(path) as f:
        drops = json.load(f)
    # DHDN_ETRS89.gie no longer drops anything: its require_grid gate
    # names BETA2007.gsb, which ships in data/tests/, so both halves of
    # the file (NTv2 grid path AND the deprecated 7-param Helmert at
    # 3 m) are vendored and green.
    assert "gie/DHDN_ETRS89.gie" not in drops
    nkg = drops["gie/nkg.gie"]
    assert nkg["urn_unsupported"] == 16  # need eur_nkg_nkgrf17vel.tif
    assert nkg["grid_coverage"] == 15   # 2008 points outside the extract
