"""Per-point alternative-operation selection (4D_api.cpp:217-533
semantics): bbox masks, accuracy ranking, grid-miss retry, gridless
fallback — all vectorized over batches."""

import numpy as np
import pytest

from proj_ray.core.coords import Coords
from proj_ray.ops.gridshift import missing_files
from proj_ray.opselect import ERR_NO_OPERATION, create_crs_pipeline
from proj_ray.pipeline import create_operation, transform_arrays


def _run(alt, lon, lat, inverse=False):
    c = Coords(np.radians(np.asarray(lon, dtype=np.float64)),
               np.radians(np.asarray(lat, dtype=np.float64)))
    out = alt.inv(c) if inverse else alt.fwd(c)
    return np.degrees(out.x), np.degrees(out.y), out.err


WEST_GRID = "synth:5,-180,-90,2,90,91"
EAST_GRID = "synth:9,-180,-90,2,90,91"

_ALASKA_MISSING = missing_files("+proj=hgridshift +grids=alaska")
needs_alaska = pytest.mark.skipif(
    bool(_ALASKA_MISSING), reason=f"grid file not found: {_ALASKA_MISSING}")


def test_per_point_bbox_selection():
    """Points straddling two candidate bboxes pick different ops."""
    alt = create_crs_pipeline([
        {"defn": f"+proj=hgridshift +grids={WEST_GRID}",
         "bbox_src": (-180, -90, 0, 90), "accuracy": 1.0},
        {"defn": f"+proj=hgridshift +grids={EAST_GRID}",
         "bbox_src": (0, -90, 180, 90), "accuracy": 1.0},
    ])
    lon = [-100.0, 100.0]
    lat = [40.0, 40.0]
    x, y, err = _run(alt, lon, lat)
    assert (err == 0).all()
    # each point must match its own grid's standalone result
    for i, spec in ((0, WEST_GRID), (1, EAST_GRID)):
        p = create_operation(f"+proj=hgridshift +grids={spec}")
        ref = transform_arrays(p, np.array([lon[i]]), np.array([lat[i]]))
        assert x[i] == pytest.approx(ref.x[0], abs=1e-12)
        assert y[i] == pytest.approx(ref.y[0], abs=1e-12)
    # and the two picks genuinely differ
    assert abs((x[0] - lon[0]) - (x[1] - lon[1])) > 1e-8


def test_accuracy_ranking_and_area_tiebreak():
    """Overlapping bboxes: best accuracy wins; equal accuracy -> the
    smaller area wins."""
    alt = create_crs_pipeline([
        {"defn": f"+proj=hgridshift +grids={WEST_GRID}",
         "bbox_src": (-180, -90, 180, 90), "accuracy": 5.0},
        {"defn": f"+proj=hgridshift +grids={EAST_GRID}",
         "bbox_src": (-120, 20, -80, 60), "accuracy": 1.0},
    ])
    x, y, err = _run(alt, [-100.0], [40.0])
    p = create_operation(f"+proj=hgridshift +grids={EAST_GRID}")
    ref = transform_arrays(p, np.array([-100.0]), np.array([40.0]))
    assert x[0] == pytest.approx(ref.x[0], abs=1e-12)

    # equal accuracy: smaller area preferred
    alt2 = create_crs_pipeline([
        {"defn": f"+proj=hgridshift +grids={WEST_GRID}",
         "bbox_src": (-180, -90, 180, 90), "accuracy": 1.0},
        {"defn": f"+proj=hgridshift +grids={EAST_GRID}",
         "bbox_src": (-120, 20, -80, 60), "accuracy": 1.0},
    ])
    x2, _, _ = _run(alt2, [-100.0], [40.0])
    assert x2[0] == pytest.approx(ref.x[0], abs=1e-12)


@needs_alaska
def test_grid_miss_retries_next_candidate():
    """A candidate whose bbox contains the point but whose grid does
    not (the reference's ntv2-bbox-but-conus-point case) retries the
    next candidate."""
    # alaska CTable2 grid: bbox claims all of North America
    alt = create_crs_pipeline([
        {"defn": "+proj=hgridshift +grids=alaska",
         "bbox_src": (-180, 10, -60, 80), "accuracy": 1.0},
        {"defn": f"+proj=hgridshift +grids={WEST_GRID}",
         "bbox_src": (-180, -90, 0, 90), "accuracy": 5.0},
    ])
    # point in CONUS: inside the claimed bbox, far outside the alaska grid
    x, y, err = _run(alt, [-100.0, -150.0], [40.0, 62.0])
    assert (err == 0).all()
    ref_conus = transform_arrays(
        create_operation(f"+proj=hgridshift +grids={WEST_GRID}"),
        np.array([-100.0]), np.array([40.0]))
    assert x[0] == pytest.approx(ref_conus.x[0], abs=1e-12)
    ref_ak = transform_arrays(
        create_operation("+proj=hgridshift +grids=alaska"),
        np.array([-150.0]), np.array([62.0]))
    assert x[1] == pytest.approx(ref_ak.x[0], abs=1e-12)
    assert abs(x[1] - ref_conus.x[0]) > 1e-9  # genuinely different ops


@needs_alaska
def test_gridless_fallback_and_no_operation():
    """Outside every bbox: first gridless candidate runs; with no
    gridless candidate the point errors with no-operation."""
    alt = create_crs_pipeline([
        {"defn": "+proj=hgridshift +grids=alaska",
         "bbox_src": (-180, 50, -120, 80), "accuracy": 1.0},
        {"defn": "+proj=noop", "accuracy": -1.0,
         "bbox_src": (0, 0, 1, 1)},
    ])
    x, y, err = _run(alt, [100.0], [-40.0])
    assert err[0] == 0
    assert x[0] == pytest.approx(100.0)  # noop fallback passthrough

    alt2 = create_crs_pipeline([
        {"defn": "+proj=hgridshift +grids=alaska",
         "bbox_src": (-180, 50, -120, 80), "accuracy": 1.0},
    ])
    x2, _, err2 = _run(alt2, [100.0], [-40.0])
    assert err2[0] == ERR_NO_OPERATION
    assert np.isnan(x2[0])


def test_offshore_deprioritized():
    """Onshore candidate preferred over offshore at equal rank
    (the carthage bug-245 rule)."""
    alt = create_crs_pipeline([
        {"defn": f"+proj=hgridshift +grids={EAST_GRID}",
         "bbox_src": (-180, -90, 180, 90), "accuracy": 1.0,
         "offshore": True},
        {"defn": f"+proj=hgridshift +grids={WEST_GRID}",
         "bbox_src": (-180, -90, 180, 90), "accuracy": 1.0},
    ])
    # offshore listed first becomes initial best, but the equally
    # accurate smaller-or-equal-area onshore one cannot be REPLACED by
    # an offshore op; with equal areas the first stays -> verify the
    # offshore op never displaces an onshore best when later
    alt2 = create_crs_pipeline([
        {"defn": f"+proj=hgridshift +grids={WEST_GRID}",
         "bbox_src": (-180, -90, 180, 90), "accuracy": 1.0},
        {"defn": f"+proj=hgridshift +grids={EAST_GRID}",
         "bbox_src": (-170, -90, 170, 90), "accuracy": 1.0,
         "offshore": True},
    ])
    x, _, _ = _run(alt2, [-100.0], [40.0])
    ref = transform_arrays(
        create_operation(f"+proj=hgridshift +grids={WEST_GRID}"),
        np.array([-100.0]), np.array([40.0]))
    assert x[0] == pytest.approx(ref.x[0], abs=1e-12)


def test_ray_data_integration(ray_session):
    """The ladder runs as a single map_batches stage."""
    import pyarrow as pa
    import ray

    from proj_ray.pipeline import transform

    alt = create_crs_pipeline([
        {"defn": f"+proj=hgridshift +grids={WEST_GRID}",
         "bbox_src": (-180, -90, 0, 90), "accuracy": 1.0},
        {"defn": f"+proj=hgridshift +grids={EAST_GRID}",
         "bbox_src": (0, -90, 180, 90), "accuracy": 1.0},
    ])
    ds = ray.data.from_arrow(pa.table({
        "lon": [-100.0, 100.0, -30.0], "lat": [40.0, 40.0, 10.0]}))
    out = transform(ds, alt, in_cols=("lon", "lat")).take_all()
    assert all(r["trans_err"] == 0 for r in out)
    ref = transform_arrays(
        create_operation(f"+proj=hgridshift +grids={EAST_GRID}"),
        np.array([100.0]), np.array([40.0]))
    got = [r for r in out if abs(r["lat"] - 40) < 1 and r["lon"] > 0][0]
    assert got["lon"] == pytest.approx(ref.x[0], abs=1e-12)


def test_antimeridian_crossing_bbox():
    """An area of use with west > east (Fiji-style) matches points on
    BOTH sides of the antimeridian, and its pseudo-area wraps +360
    (4D_api.cpp:1714-1716) instead of going negative."""
    from proj_ray.opselect import Candidate

    fiji = Candidate(f"+proj=hgridshift +grids={EAST_GRID}",
                     bbox_src=(177.0, -25.0, -178.0, -12.0))
    assert fiji.pseudo_area == pytest.approx(5.0 * 13.0)

    alt = create_crs_pipeline([
        {"defn": f"+proj=hgridshift +grids={WEST_GRID}",
         "bbox_src": (-180, -90, 180, 90), "accuracy": 5.0},
        {"defn": f"+proj=hgridshift +grids={EAST_GRID}",
         "bbox_src": (177.0, -25.0, -178.0, -12.0), "accuracy": 1.0},
    ])
    # both sides of the wrap select the better (Fiji) candidate
    ref = create_operation(f"+proj=hgridshift +grids={EAST_GRID}")
    for lon in (179.5, -179.5):
        x, _, err = _run(alt, [lon], [-18.0])
        r = transform_arrays(ref, np.array([lon]), np.array([-18.0]))
        assert err[0] == 0
        assert x[0] == pytest.approx(r.x[0], abs=1e-12)
    # a point clearly outside the wrapped box falls back to global
    refw = create_operation(f"+proj=hgridshift +grids={WEST_GRID}")
    x, _, err = _run(alt, [100.0], [-18.0])
    r = transform_arrays(refw, np.array([100.0]), np.array([-18.0]))
    assert x[0] == pytest.approx(r.x[0], abs=1e-12)
