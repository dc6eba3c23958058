"""WKT1/WKT2/PROJJSON CRS layer (proj_ray/crs.py).

Every parse test checks NUMERIC equality: the parsed CRS's pipeline
must project sample points identically (sub-mm) to the hand-written
proj-string operation it should be equivalent to.  WKT strings below
are written from the published ISO 19162 / EPSG dataset definitions.
"""

import json

import numpy as np
import pytest

from proj_ray.crs import CRS, crs_to_crs, parse_wkt_tree
from proj_ray.ops.base import ProjError
from proj_ray.ops.gridshift import missing_files
from proj_ray.pipeline import create_operation, transform_arrays

LON = np.array([9.0, 12.5, 7.43, 10.2, 8.0])
LAT = np.array([52.0, 48.2, 60.0, 45.0, 51.5])


def _assert_same(defn_a: str, defn_b, tol=1e-4,
                 lon=LON, lat=LAT):
    """Project sample points through both definitions; require agreement
    to `tol` metres."""
    pa_ = create_operation(defn_a)
    pb = defn_b if not isinstance(defn_b, str) else create_operation(
        defn_b)
    ca = transform_arrays(pa_, lon.copy(), lat.copy())
    cb = transform_arrays(pb, lon.copy(), lat.copy())
    assert np.all(ca.err == 0) and np.all(cb.err == 0)
    np.testing.assert_allclose(ca.x, cb.x, atol=tol, rtol=0)
    np.testing.assert_allclose(ca.y, cb.y, atol=tol, rtol=0)


# ---------------------------------------------------------------------------
# WKT grammar
# ---------------------------------------------------------------------------


def test_tokenizer_quoted_escapes_and_parens():
    node = parse_wkt_tree('FOO("a""b",1.5,BAR[2],baz)')
    assert node.name == "FOO"
    assert node.values[0] == 'a"b'
    assert node.values[1] == 1.5
    assert node.values[2].name == "BAR"
    assert node.values[3] == "baz"


def test_parse_error_is_loud():
    with pytest.raises(ProjError):
        parse_wkt_tree("PROJCRS[!!]")
    with pytest.raises(ProjError):
        CRS.from_wkt('VERTCRS["x",VDATUM["y"],CS[vertical,1],'
                     'AXIS["up",up]]')


# ---------------------------------------------------------------------------
# WKT2 projected CRS
# ---------------------------------------------------------------------------

WKT2_UTM32 = """
PROJCRS["WGS 84 / UTM zone 32N",
  BASEGEOGCRS["WGS 84",
    DATUM["World Geodetic System 1984",
      ELLIPSOID["WGS 84",6378137,298.257223563,LENGTHUNIT["metre",1]]],
    PRIMEM["Greenwich",0,ANGLEUNIT["degree",0.0174532925199433]]],
  CONVERSION["UTM zone 32N",
    METHOD["Transverse Mercator",ID["EPSG",9807]],
    PARAMETER["Latitude of natural origin",0,
      ANGLEUNIT["degree",0.0174532925199433]],
    PARAMETER["Longitude of natural origin",9,
      ANGLEUNIT["degree",0.0174532925199433]],
    PARAMETER["Scale factor at natural origin",0.9996,
      SCALEUNIT["unity",1]],
    PARAMETER["False easting",500000,LENGTHUNIT["metre",1]],
    PARAMETER["False northing",0,LENGTHUNIT["metre",1]]],
  CS[Cartesian,2],
    AXIS["(E)",east,ORDER[1],LENGTHUNIT["metre",1]],
    AXIS["(N)",north,ORDER[2],LENGTHUNIT["metre",1]],
  ID["EPSG",32632]]
"""


def test_wkt2_utm32():
    crs = CRS.from_wkt(WKT2_UTM32)
    assert crs.kind == "projected"
    assert crs.conversion.proj == "tmerc"
    _assert_same("+proj=utm +zone=32 +ellps=WGS84",
                 crs.to_proj_string())


WKT2_WEBMERC = """
PROJCRS["WGS 84 / Pseudo-Mercator",
  BASEGEOGCRS["WGS 84",
    ENSEMBLE["World Geodetic System 1984 ensemble",
      MEMBER["World Geodetic System 1984 (G2296)"],
      ELLIPSOID["WGS 84",6378137,298.257223563,LENGTHUNIT["metre",1]],
      ENSEMBLEACCURACY[2.0]]],
  CONVERSION["Popular Visualisation Pseudo-Mercator",
    METHOD["Popular Visualisation Pseudo Mercator",ID["EPSG",1024]],
    PARAMETER["Latitude of natural origin",0,
      ANGLEUNIT["degree",0.0174532925199433]],
    PARAMETER["Longitude of natural origin",0,
      ANGLEUNIT["degree",0.0174532925199433]],
    PARAMETER["False easting",0,LENGTHUNIT["metre",1]],
    PARAMETER["False northing",0,LENGTHUNIT["metre",1]]],
  CS[Cartesian,2],
    AXIS["easting (X)",east],AXIS["northing (Y)",north],
    LENGTHUNIT["metre",1],
  ID["EPSG",3857]]
"""


def test_wkt2_webmerc_with_datum_ensemble():
    crs = CRS.from_wkt(WKT2_WEBMERC)
    assert crs.conversion.proj == "webmerc"
    _assert_same("+proj=webmerc +ellps=WGS84", crs.to_proj_string())


WKT2_LAMBERT93 = """
PROJCRS["RGF93 v1 / Lambert-93",
  BASEGEOGCRS["RGF93 v1",
    DATUM["Reseau Geodesique Francais 1993 v1",
      ELLIPSOID["GRS 1980",6378137,298.257222101,
        LENGTHUNIT["metre",1]]]],
  CONVERSION["Lambert-93",
    METHOD["Lambert Conic Conformal (2SP)",ID["EPSG",9802]],
    PARAMETER["Latitude of false origin",46.5,
      ANGLEUNIT["degree",0.0174532925199433]],
    PARAMETER["Longitude of false origin",3,
      ANGLEUNIT["degree",0.0174532925199433]],
    PARAMETER["Latitude of 1st standard parallel",49,
      ANGLEUNIT["degree",0.0174532925199433]],
    PARAMETER["Latitude of 2nd standard parallel",44,
      ANGLEUNIT["degree",0.0174532925199433]],
    PARAMETER["Easting at false origin",700000,LENGTHUNIT["metre",1]],
    PARAMETER["Northing at false origin",6600000,
      LENGTHUNIT["metre",1]]],
  CS[Cartesian,2],AXIS["(E)",east],AXIS["(N)",north],
  LENGTHUNIT["metre",1]]
"""


def test_wkt2_lcc2sp_lambert93():
    crs = CRS.from_wkt(WKT2_LAMBERT93)
    _assert_same("+proj=lcc +lat_0=46.5 +lon_0=3 +lat_1=49 +lat_2=44 "
                 "+x_0=700000 +y_0=6600000 +ellps=GRS80",
                 crs.to_proj_string(),
                 lon=np.array([2.35, -1.5, 5.4]),
                 lat=np.array([48.85, 47.2, 43.3]))


WKT2_POLAR_B = """
PROJCRS["WGS 84 / Antarctic Polar Stereographic",
  BASEGEOGCRS["WGS 84",
    DATUM["World Geodetic System 1984",
      ELLIPSOID["WGS 84",6378137,298.257223563]]],
  CONVERSION["Antarctic Polar Stereographic",
    METHOD["Polar Stereographic (variant B)",ID["EPSG",9829]],
    PARAMETER["Latitude of standard parallel",-71,
      ANGLEUNIT["degree",0.0174532925199433]],
    PARAMETER["Longitude of origin",0,
      ANGLEUNIT["degree",0.0174532925199433]],
    PARAMETER["False easting",0,LENGTHUNIT["metre",1]],
    PARAMETER["False northing",0,LENGTHUNIT["metre",1]]],
  CS[Cartesian,2],AXIS["(E)",east],AXIS["(N)",north],
  LENGTHUNIT["metre",1],ID["EPSG",3031]]
"""


def test_wkt2_polar_stereographic_variant_b():
    crs = CRS.from_wkt(WKT2_POLAR_B)
    _assert_same("+proj=stere +lat_0=-90 +lat_ts=-71 +lon_0=0 "
                 "+ellps=WGS84",
                 crs.to_proj_string(),
                 lon=np.array([10.0, -45.0, 170.0]),
                 lat=np.array([-75.0, -80.0, -71.0]))


WKT2_POLAR_A = """
PROJCRS["WGS 84 / UPS North",
  BASEGEOGCRS["WGS 84",
    DATUM["World Geodetic System 1984",
      ELLIPSOID["WGS 84",6378137,298.257223563]]],
  CONVERSION["Universal Polar Stereographic North",
    METHOD["Polar Stereographic (variant A)",ID["EPSG",9810]],
    PARAMETER["Latitude of natural origin",90,
      ANGLEUNIT["degree",0.0174532925199433]],
    PARAMETER["Longitude of natural origin",0,
      ANGLEUNIT["degree",0.0174532925199433]],
    PARAMETER["Scale factor at natural origin",0.994,
      SCALEUNIT["unity",1]],
    PARAMETER["False easting",2000000,LENGTHUNIT["metre",1]],
    PARAMETER["False northing",2000000,LENGTHUNIT["metre",1]]],
  CS[Cartesian,2],AXIS["(E)",east],AXIS["(N)",north],
  LENGTHUNIT["metre",1],ID["EPSG",5041]]
"""


def test_wkt2_polar_stereographic_variant_a_ups():
    crs = CRS.from_wkt(WKT2_POLAR_A)
    _assert_same("+proj=stere +lat_0=90 +k_0=0.994 +x_0=2000000 "
                 "+y_0=2000000 +ellps=WGS84",
                 crs.to_proj_string(),
                 lon=np.array([10.0, -45.0, 170.0]),
                 lat=np.array([75.0, 80.0, 88.0]))


def test_wkt2_lcc_1sp_duplicates_parallel():
    wkt = """
PROJCRS["x",
  BASEGEOGCRS["NAD27",
    DATUM["North American Datum 1927",
      ELLIPSOID["Clarke 1866",6378206.4,294.978698213898]]],
  CONVERSION["c",METHOD["Lambert Conic Conformal (1SP)"],
    PARAMETER["Latitude of natural origin",18,
      ANGLEUNIT["degree",0.0174532925199433]],
    PARAMETER["Longitude of natural origin",-77,
      ANGLEUNIT["degree",0.0174532925199433]],
    PARAMETER["Scale factor at natural origin",1,
      SCALEUNIT["unity",1]],
    PARAMETER["False easting",250000,LENGTHUNIT["metre",1]],
    PARAMETER["False northing",150000,LENGTHUNIT["metre",1]]],
  CS[Cartesian,2],AXIS["(E)",east],AXIS["(N)",north],
  LENGTHUNIT["metre",1]]
"""
    crs = CRS.from_wkt(wkt)
    _assert_same("+proj=lcc +lat_1=18 +lat_0=18 +lon_0=-77 +k_0=1 "
                 "+x_0=250000 +y_0=150000 +ellps=clrk66",
                 crs.to_proj_string(),
                 lon=np.array([-76.9, -77.5, -78.0]),
                 lat=np.array([17.9, 18.2, 18.5]))


def test_wkt2_grad_parameter_units():
    # NTF Paris / Lambert Nord France-ish: params in grads + Paris PM
    wkt = """
PROJCRS["NTF (Paris) / Lambert Nord France",
  BASEGEOGCRS["NTF (Paris)",
    DATUM["Nouvelle Triangulation Francaise (Paris)",
      ELLIPSOID["Clarke 1880 (IGN)",6378249.2,293.466021293627]],
    PRIMEM["Paris",2.5969213,ANGLEUNIT["grad",0.0157079632679489]]],
  CONVERSION["Lambert Nord France",
    METHOD["Lambert Conic Conformal (1SP)"],
    PARAMETER["Latitude of natural origin",55,
      ANGLEUNIT["grad",0.0157079632679489]],
    PARAMETER["Longitude of natural origin",0,
      ANGLEUNIT["grad",0.0157079632679489]],
    PARAMETER["Scale factor at natural origin",0.999877341,
      SCALEUNIT["unity",1]],
    PARAMETER["False easting",600000,LENGTHUNIT["metre",1]],
    PARAMETER["False northing",200000,LENGTHUNIT["metre",1]]],
  CS[Cartesian,2],AXIS["(E)",east],AXIS["(N)",north],
  LENGTHUNIT["metre",1]]
"""
    crs = CRS.from_wkt(wkt)
    # 55 grad = 49.5 deg; Paris PM = 2.33722917 deg
    _assert_same("+proj=lcc +lat_1=49.5 +lat_0=49.5 +lon_0=0 "
                 "+k_0=0.999877341 +x_0=600000 +y_0=200000 "
                 "+ellps=clrk80ign +pm=2.33722917",
                 crs.to_proj_string(),
                 lon=np.array([2.35, 3.0, 1.2]),
                 lat=np.array([48.85, 50.0, 49.0]), tol=1e-3)


def test_wkt2_unit_feet():
    wkt = """
PROJCRS["ft grid",
  BASEGEOGCRS["WGS 84",
    DATUM["World Geodetic System 1984",
      ELLIPSOID["WGS 84",6378137,298.257223563]]],
  CONVERSION["c",METHOD["Transverse Mercator"],
    PARAMETER["Latitude of natural origin",0,
      ANGLEUNIT["degree",0.0174532925199433]],
    PARAMETER["Longitude of natural origin",9,
      ANGLEUNIT["degree",0.0174532925199433]],
    PARAMETER["Scale factor at natural origin",0.9996,
      SCALEUNIT["unity",1]],
    PARAMETER["False easting",500000,LENGTHUNIT["metre",1]],
    PARAMETER["False northing",0,LENGTHUNIT["metre",1]]],
  CS[Cartesian,2],AXIS["(E)",east],AXIS["(N)",north],
  LENGTHUNIT["US survey foot",0.304800609601219]]
"""
    crs = CRS.from_wkt(wkt)
    op = create_operation(crs.to_proj_string())
    ref = create_operation("+proj=utm +zone=32 +ellps=WGS84")
    ca = transform_arrays(op, LON.copy(), LAT.copy())
    cb = transform_arrays(ref, LON.copy(), LAT.copy())
    np.testing.assert_allclose(ca.x * 0.304800609601219, cb.x, atol=1e-4)


# ---------------------------------------------------------------------------
# WKT1-GDAL
# ---------------------------------------------------------------------------

WKT1_UTM32 = """
PROJCS["WGS 84 / UTM zone 32N",
  GEOGCS["WGS 84",
    DATUM["WGS_1984",
      SPHEROID["WGS 84",6378137,298.257223563]],
    PRIMEM["Greenwich",0],
    UNIT["degree",0.0174532925199433]],
  PROJECTION["Transverse_Mercator"],
  PARAMETER["latitude_of_origin",0],
  PARAMETER["central_meridian",9],
  PARAMETER["scale_factor",0.9996],
  PARAMETER["false_easting",500000],
  PARAMETER["false_northing",0],
  UNIT["metre",1],
  AUTHORITY["EPSG","32632"]]
"""


def test_wkt1_gdal_utm32():
    crs = CRS.from_wkt(WKT1_UTM32)
    assert crs.kind == "projected"
    _assert_same("+proj=utm +zone=32 +ellps=WGS84",
                 crs.to_proj_string())


def test_wkt1_towgs84_roundtrips_through_crs_to_crs():
    wkt = """
PROJCS["DHDN / 3-degree Gauss-Kruger zone 3",
  GEOGCS["DHDN",
    DATUM["Deutsches_Hauptdreiecksnetz",
      SPHEROID["Bessel 1841",6377397.155,299.1528128],
      TOWGS84[598.1,73.7,418.2,0.202,0.045,-2.455,6.7]],
    PRIMEM["Greenwich",0],
    UNIT["degree",0.0174532925199433]],
  PROJECTION["Transverse_Mercator"],
  PARAMETER["latitude_of_origin",0],
  PARAMETER["central_meridian",9],
  PARAMETER["scale_factor",1],
  PARAMETER["false_easting",3500000],
  PARAMETER["false_northing",0],
  UNIT["metre",1]]
"""
    crs = CRS.from_wkt(wkt)
    assert crs.datum.towgs84 == [598.1, 73.7, 418.2, 0.202, 0.045,
                                 -2.455, 6.7]
    # crs_to_crs against plain WGS84 longlat must match the manual
    # classic-pipeline composition
    p = crs_to_crs(crs, "+proj=longlat +ellps=WGS84 +towgs84=0,0,0")
    manual = create_operation(
        "+proj=pipeline "
        "+step +inv +proj=tmerc +lat_0=0 +lon_0=9 +k_0=1 +x_0=3500000 "
        "+y_0=0 +ellps=bessel "
        "+towgs84=598.1,73.7,418.2,0.202,0.045,-2.455,6.7 "
        "+step +proj=longlat +ellps=WGS84 +towgs84=0,0,0")
    x = np.array([3512000.0, 3488000.0])
    y = np.array([5750000.0, 5650000.0])
    ca = transform_arrays(p, x.copy(), y.copy())
    cb = transform_arrays(manual, x.copy(), y.copy())
    np.testing.assert_allclose(ca.x, cb.x, atol=1e-9)
    np.testing.assert_allclose(ca.y, cb.y, atol=1e-9)
    # and the shift is real: skipping towgs84 moves the answer ~arcsec
    noshift = create_operation(
        "+proj=pipeline +step +inv +proj=tmerc +lat_0=0 +lon_0=9 "
        "+k_0=1 +x_0=3500000 +y_0=0 +ellps=bessel +step +proj=longlat "
        "+ellps=WGS84")
    cn = transform_arrays(noshift, x.copy(), y.copy())
    assert np.max(np.abs(cn.x - ca.x)) > 1e-5


# ---------------------------------------------------------------------------
# BOUNDCRS (WKT2)
# ---------------------------------------------------------------------------


def test_wkt2_boundcrs_abridged_transformation():
    wkt = """
BOUNDCRS[
  SOURCECRS[GEOGCRS["GGRS87",
    DATUM["Greek Geodetic Reference System 1987",
      ELLIPSOID["GRS 1980",6378137,298.257222101]],
    CS[ellipsoidal,2],
    AXIS["latitude",north],AXIS["longitude",east],
    ANGLEUNIT["degree",0.0174532925199433]]],
  TARGETCRS[GEOGCRS["WGS 84",
    DATUM["World Geodetic System 1984",
      ELLIPSOID["WGS 84",6378137,298.257223563]],
    CS[ellipsoidal,2],
    AXIS["latitude",north],AXIS["longitude",east],
    ANGLEUNIT["degree",0.0174532925199433]]],
  ABRIDGEDTRANSFORMATION["GGRS87 to WGS 84 (1)",
    METHOD["Geocentric translations (geog2D domain)",ID["EPSG",9603]],
    PARAMETER["X-axis translation",-199.87,ID["EPSG",8605]],
    PARAMETER["Y-axis translation",74.79,ID["EPSG",8606]],
    PARAMETER["Z-axis translation",246.62,ID["EPSG",8607]]]]
"""
    crs = CRS.from_wkt(wkt)
    assert crs.kind == "geographic"
    assert crs.datum.towgs84[:3] == [-199.87, 74.79, 246.62]
    s = crs.to_proj_string()
    assert "towgs84=-199.87,74.79,246.62" in s


# ---------------------------------------------------------------------------
# PROJJSON
# ---------------------------------------------------------------------------


def test_projjson_roundtrip_utm32():
    crs = CRS.from_wkt(WKT2_UTM32)
    j = crs.to_projjson()
    assert j["type"] == "ProjectedCRS"
    back = CRS.from_projjson(json.dumps(j))
    assert back.to_proj_string() == crs.to_proj_string()


def test_projjson_parse_external_shape():
    # hand-written in the published PROJJSON schema shape
    j = {
        "type": "ProjectedCRS",
        "name": "WGS 84 / UTM zone 31N",
        "base_crs": {
            "type": "GeographicCRS",
            "name": "WGS 84",
            "datum": {
                "type": "GeodeticReferenceFrame",
                "name": "World Geodetic System 1984",
                "ellipsoid": {"name": "WGS 84",
                              "semi_major_axis": 6378137,
                              "inverse_flattening": 298.257223563}},
            "coordinate_system": {
                "subtype": "ellipsoidal",
                "axis": [
                    {"name": "Geodetic latitude", "abbreviation": "Lat",
                     "direction": "north", "unit": "degree"},
                    {"name": "Geodetic longitude", "abbreviation": "Lon",
                     "direction": "east", "unit": "degree"}]},
        },
        "conversion": {
            "name": "UTM zone 31N",
            "method": {"name": "Transverse Mercator",
                       "id": {"authority": "EPSG", "code": 9807}},
            "parameters": [
                {"name": "Latitude of natural origin", "value": 0,
                 "unit": "degree"},
                {"name": "Longitude of natural origin", "value": 3,
                 "unit": "degree"},
                {"name": "Scale factor at natural origin",
                 "value": 0.9996, "unit": "unity"},
                {"name": "False easting", "value": 500000,
                 "unit": "metre"},
                {"name": "False northing", "value": 0, "unit": "metre"}],
        },
        "coordinate_system": {
            "subtype": "Cartesian",
            "axis": [{"name": "Easting", "abbreviation": "E",
                      "direction": "east", "unit": "metre"},
                     {"name": "Northing", "abbreviation": "N",
                      "direction": "north", "unit": "metre"}]},
        "id": {"authority": "EPSG", "code": 32631},
    }
    crs = CRS.from_projjson(j)
    _assert_same("+proj=utm +zone=31 +ellps=WGS84", crs.to_proj_string(),
                 lon=np.array([3.0, 4.5, 1.2]),
                 lat=np.array([48.0, 52.0, 41.0]))


def test_projjson_boundcrs_towgs84():
    crs = CRS.from_wkt(WKT1_UTM32)
    crs.datum.towgs84 = [1.0, 2.0, 3.0]
    j = crs.to_projjson()
    assert j["type"] == "BoundCRS"
    back = CRS.from_projjson(j)
    assert back.datum.towgs84[:3] == [1.0, 2.0, 3.0]


# ---------------------------------------------------------------------------
# WKT2 export
# ---------------------------------------------------------------------------


def test_to_wkt_roundtrip():
    for wkt in (WKT2_UTM32, WKT2_LAMBERT93, WKT2_POLAR_B, WKT1_UTM32):
        crs = CRS.from_wkt(wkt)
        back = CRS.from_wkt(crs.to_wkt())
        assert back.to_proj_string() == crs.to_proj_string(), wkt[:60]


def test_to_wkt_roundtrip_boundcrs():
    crs = CRS.from_wkt(WKT1_UTM32)
    crs.datum.towgs84 = [598.1, 73.7, 418.2, 0.202, 0.045, -2.455, 6.7]
    back = CRS.from_wkt(crs.to_wkt())
    assert back.datum.towgs84 == crs.datum.towgs84
    assert back.to_proj_string() == crs.to_proj_string()


# ---------------------------------------------------------------------------
# from_user_input + crs_to_crs
# ---------------------------------------------------------------------------


def test_from_user_input_epsg_shim():
    crs = CRS.from_user_input("EPSG:4326")
    assert crs.kind == "geographic"
    with pytest.raises(ProjError):
        CRS.from_user_input("EPSG:999999")


def test_crs_to_crs_wkt_pair_matches_cs2cs_composition():
    p = crs_to_crs(WKT2_UTM32, WKT2_WEBMERC)
    manual = create_operation(
        "+proj=pipeline +step +inv +proj=utm +zone=32 +ellps=WGS84 "
        "+step +proj=webmerc +ellps=WGS84")
    x = np.array([500000.0, 650000.0])
    y = np.array([5760000.0, 5300000.0])
    ca = transform_arrays(p, x.copy(), y.copy())
    cb = transform_arrays(manual, x.copy(), y.copy())
    np.testing.assert_allclose(ca.x, cb.x, atol=1e-6)
    np.testing.assert_allclose(ca.y, cb.y, atol=1e-6)


def test_geographic_axis_order_detected():
    assert CRS.from_wkt(WKT2_WEBMERC).kind == "projected"
    g = CRS.from_wkt("""
GEOGCRS["WGS 84",
  DATUM["World Geodetic System 1984",
    ELLIPSOID["WGS 84",6378137,298.257223563]],
  CS[ellipsoidal,2],
  AXIS["geodetic latitude (Lat)",north],
  AXIS["geodetic longitude (Lon)",east],
  ANGLEUNIT["degree",0.0174532925199433],ID["EPSG",4326]]
""")
    assert g.axis_lat_first
    g2 = CRS.from_wkt(WKT1_UTM32).datum
    assert g2.ellipsoid.a == 6378137


def test_unsupported_method_is_loud():
    wkt = WKT2_UTM32.replace("Transverse Mercator",
                             "Space Oblique Nonsense")
    with pytest.raises(ProjError, match="unsupported projection method"):
        CRS.from_wkt(wkt)


def test_compound_crs_vertical_unit():
    wkt = """
COMPOUNDCRS["UTM32 + NAVD88-ish height (ftUS)",
""" + WKT2_UTM32.strip() + """,
  VERTCRS["height (ftUS)",
    VDATUM["Some vertical datum"],
    CS[vertical,1],AXIS["gravity-related height (H)",up],
    LENGTHUNIT["US survey foot",0.304800609601219]]]
"""
    crs = CRS.from_wkt(wkt)
    s = crs.to_proj_string()
    assert "vto_meter=0.304800609601219" in s
    # z scaling is live (PROJ semantics: the PROJECTED side carries
    # vunits, so a 100 m geodetic height comes out in ftUS)
    op = create_operation(s)
    c = transform_arrays(op, np.array([9.0]), np.array([52.0]),
                         z=np.array([100.0]))
    ref = create_operation("+proj=utm +zone=32 +ellps=WGS84")
    cr = transform_arrays(ref, np.array([9.0]), np.array([52.0]),
                          z=np.array([100.0]))
    np.testing.assert_allclose(c.x, cr.x, atol=1e-6)
    np.testing.assert_allclose(c.z * 0.304800609601219, cr.z,
                               atol=1e-9)


def test_compound_projjson():
    base = CRS.from_wkt(WKT2_UTM32).to_projjson()
    j = {"type": "CompoundCRS", "name": "utm + height",
         "components": [base, {
             "type": "VerticalCRS", "name": "height",
             "datum": {"type": "VerticalReferenceFrame", "name": "x"},
             "coordinate_system": {
                 "subtype": "vertical",
                 "axis": [{"name": "Gravity-related height",
                           "abbreviation": "H", "direction": "up",
                           "unit": {"type": "LinearUnit",
                                    "name": "foot",
                                    "conversion_factor": 0.3048}}]}}]}
    crs = CRS.from_projjson(j)
    assert crs.vert_to_meter == 0.3048
    assert "vto_meter=0.3048" in crs.to_proj_string()


# ---------------- prepared operations: CRS pair -> bbox ladder -------------


WKT1_UTM32_WGS84 = (
    'PROJCS["WGS 84 / UTM zone 32N",GEOGCS["WGS 84",'
    'DATUM["WGS_1984",SPHEROID["WGS 84",6378137,298.257223563]],'
    'PRIMEM["Greenwich",0],UNIT["degree",0.0174532925199433]],'
    'PROJECTION["Transverse_Mercator"],'
    'PARAMETER["latitude_of_origin",0],'
    'PARAMETER["central_meridian",9],'
    'PARAMETER["scale_factor",0.9996],'
    'PARAMETER["false_easting",500000],'
    'PARAMETER["false_northing",0],UNIT["metre",1]]')


def test_prepared_crs_to_crs_bbox_ladder_selects_per_point():
    """Two candidate datum operations with different areas of use: a
    point inside the accurate candidate's bbox must use its Helmert
    shift; a point outside must fall through to the whole-world
    ballpark candidate — the cs2cs candidate-ladder path
    (pj_create_prepared_operations, 4D_api.cpp:1953-2046)."""
    from proj_ray.crs import prepared_crs_to_crs

    src = "+proj=longlat +ellps=intl"
    alt = prepared_crs_to_crs(
        src, WKT1_UTM32_WGS84,
        datum_ops=[
            {"towgs84": [-87, -98, -121], "bbox": (5, 45, 15, 55),
             "accuracy": 5.0, "name": "ED50 Europe"},
            {"towgs84": [0, 0, 0], "accuracy": 50.0,
             "name": "whole-world"},
        ])
    lon = np.array([9.0, 100.0])   # inside Europe bbox / far outside
    lat = np.array([52.0, 10.0])
    c = transform_arrays(alt, lon, lat)
    assert (c.err == 0).all()

    shifted = create_operation(
        "+proj=pipeline +step +inv proj=longlat ellps=intl "
        "towgs84=-87,-98,-121 +step +proj=utm +zone=32 +ellps=WGS84")
    plain = create_operation(
        "+proj=pipeline +step +inv proj=longlat ellps=intl "
        "towgs84=0,0,0 +step +proj=utm +zone=32 +ellps=WGS84")
    want_in = transform_arrays(shifted, lon[:1], lat[:1])
    want_out = transform_arrays(plain, lon[1:], lat[1:])
    np.testing.assert_allclose(c.x[0], want_in.x[0], atol=1e-6)
    np.testing.assert_allclose(c.y[0], want_in.y[0], atol=1e-6)
    np.testing.assert_allclose(c.x[1], want_out.x[0], atol=1e-6)
    np.testing.assert_allclose(c.y[1], want_out.y[0], atol=1e-6)
    # the two candidates produced measurably different answers for the
    # Europe point (the shift is ~150 m) — the ladder really selected
    check = transform_arrays(plain, lon[:1], lat[:1])
    assert abs(c.x[0] - check.x[0]) > 10


def test_prepared_crs_to_crs_projected_source_bbox():
    """A projected SOURCE CRS: the candidate's lon/lat area of use must
    be reprojected into projected coordinates for selection
    (reproject_bbox, 4D_api.cpp:1645-1692)."""
    from proj_ray.crs import prepared_crs_to_crs

    alt = prepared_crs_to_crs(
        WKT1_UTM32_WGS84, "+proj=longlat +ellps=WGS84",
        datum_ops=[{"towgs84": [0, 0, 0], "bbox": (6, 47, 12, 55),
                    "accuracy": 1.0, "name": "zone core"}])
    cand = alt.candidates[0]
    # bbox is now in metres, not degrees
    assert cand.bbox_src[0] > 180.0
    assert cand.bbox_src[3] > 1_000_000.0
    x = np.array([500000.0])
    y = np.array([5760000.0])  # ~52N on the central meridian
    c = transform_arrays(alt, x, y)
    assert c.err[0] == 0
    np.testing.assert_allclose(c.x[0], 9.0, atol=1e-9)


def test_prepared_crs_to_crs_antimeridian_split():
    """west > east areas of use split into two candidates (the
    reference's op_clone branch, 4D_api.cpp:2023-2040)."""
    from proj_ray.crs import prepared_crs_to_crs

    alt = prepared_crs_to_crs(
        "+proj=longlat +ellps=WGS84", "+proj=longlat +ellps=WGS84",
        datum_ops=[{"towgs84": [10, 0, 0], "bbox": (170, -30, -170, 10),
                    "accuracy": 2.0, "name": "fiji-ish"},
                   {"towgs84": [0, 0, 0], "accuracy": 50.0}])
    names = [c.name for c in alt.candidates]
    assert names.count("fiji-ish") == 2
    # both sides of the antimeridian select the split candidate
    c = transform_arrays(alt, np.array([175.0, -175.0, 0.0]),
                         np.array([-10.0, -10.0, 0.0]))
    assert (c.err == 0).all()
    np.testing.assert_allclose(c.x[:2], [175.0, -175.0], atol=1e-4)
    np.testing.assert_allclose(c.x[2], 0.0, atol=1e-9)


def test_prepared_crs_to_crs_ballpark_fallback():
    """No datum_ops -> one whole-world unknown-area candidate, same
    values as crs_to_crs."""
    from proj_ray.crs import prepared_crs_to_crs

    alt = prepared_crs_to_crs("+proj=longlat +ellps=WGS84",
                              WKT1_UTM32_WGS84)
    assert len(alt.candidates) == 1
    assert alt.candidates[0].unknown_area
    ref = crs_to_crs("+proj=longlat +ellps=WGS84", WKT1_UTM32_WGS84)
    lon, lat = np.array([9.3]), np.array([51.2])
    got = transform_arrays(alt, lon, lat)
    want = transform_arrays(ref, lon, lat)
    np.testing.assert_allclose(got.x, want.x, atol=1e-9)
    np.testing.assert_allclose(got.y, want.y, atol=1e-9)


# ---------------------------------------------------------------------------
# BOUNDCRS with a grid-based transformation (NTv2 PARAMETERFILE)
# ---------------------------------------------------------------------------

BOUNDCRS_DHDN_NTV2 = """
BOUNDCRS[
  SOURCECRS[GEOGCRS["DHDN",
    DATUM["Deutsches Hauptdreiecksnetz",
      ELLIPSOID["Bessel 1841",6377397.155,299.1528128]],
    CS[ellipsoidal,2],
    AXIS["latitude",north],AXIS["longitude",east],
    ANGLEUNIT["degree",0.0174532925199433]]],
  TARGETCRS[GEOGCRS["WGS 84",
    DATUM["World Geodetic System 1984",
      ELLIPSOID["WGS 84",6378137,298.257223563]],
    CS[ellipsoidal,2],
    AXIS["latitude",north],AXIS["longitude",east],
    ANGLEUNIT["degree",0.0174532925199433]]],
  ABRIDGEDTRANSFORMATION["DHDN to WGS 84 (BeTA2007)",
    METHOD["NTv2",ID["EPSG",9615]],
    PARAMETERFILE["Latitude and longitude difference file",
                  "BETA2007.gsb"]]]
"""


def test_boundcrs_ntv2_parameterfile_parses():
    crs = CRS.from_wkt(BOUNDCRS_DHDN_NTV2)
    assert crs.kind == "geographic"
    assert crs.datum.towgs84 is None
    assert crs.datum.nadgrids == "BETA2007.gsb"
    assert "nadgrids=BETA2007.gsb" in crs.to_proj_string()


_BETA2007_MISSING = missing_files(
    CRS.from_wkt(BOUNDCRS_DHDN_NTV2).to_proj_string())


@pytest.mark.skipif(bool(_BETA2007_MISSING),
                    reason=f"grid file not found: {_BETA2007_MISSING}")
def test_boundcrs_ntv2_matches_gie_expectations():
    """crs_to_crs over the grid-bound DHDN CRS must reproduce the
    reference's DHDN_ETRS89.gie values (real BETA2007.gsb, 1 mm):
    gie inverse case at DHDN_ETRS89.gie:16."""
    crs = CRS.from_wkt(BOUNDCRS_DHDN_NTV2)
    p = crs_to_crs(crs, "+proj=longlat +ellps=WGS84 +towgs84=0,0,0")
    r = transform_arrays(p, np.array([7.483333333333]),
                         np.array([53.5]))
    assert r.err[0] == 0
    # 1 mm ~ 9e-9 deg latitude at this latitude
    np.testing.assert_allclose(r.x, [7.482506019176], atol=1.5e-8)
    np.testing.assert_allclose(r.y, [53.498461143331], atol=1.0e-8)


def test_boundcrs_ntv2_roundtrips_wkt_and_projjson():
    crs = CRS.from_wkt(BOUNDCRS_DHDN_NTV2)
    back = CRS.from_wkt(crs.to_wkt())
    assert back.datum.nadgrids == "BETA2007.gsb"
    import json as _json

    back2 = CRS.from_projjson(_json.dumps(crs.to_projjson()))
    assert back2.datum.nadgrids == "BETA2007.gsb"
    # proj-string round-trip too (from_user_input rejects proj
    # strings by design; the parser is the internal entry)
    from proj_ray.crs import _crs_from_proj_string

    back3 = _crs_from_proj_string(crs.to_proj_string())
    assert back3.datum.nadgrids == "BETA2007.gsb"


TOWGS84_AND_NADGRIDS = ("+proj=longlat +ellps=GRS80 +towgs84=100,200,300 "
                        "+nadgrids=@foo.gsb")


def test_nadgrids_takes_precedence_over_towgs84_in_every_export():
    """The operation layer applies a datum's grid, not its towgs84, when
    both are given; every export must carry the grid so a round trip
    keeps the transform."""
    from proj_ray.crs import _crs_from_proj_string

    crs = _crs_from_proj_string(TOWGS84_AND_NADGRIDS)
    proj = crs.to_proj_string()
    assert "nadgrids=@foo.gsb" in proj and "towgs84" not in proj
    pj = crs.to_projjson()
    assert pj["type"] == "BoundCRS"
    assert pj["transformation"]["method"]["name"] == "NTv2"
    assert pj["transformation"]["parameters"][0]["value"] == "@foo.gsb"
    wkt = crs.to_wkt()
    assert 'METHOD["NTv2"' in wkt and '"@foo.gsb"' in wkt
    assert "Position Vector" not in wkt
    for back in (_crs_from_proj_string(proj), CRS.from_projjson(pj),
                 CRS.from_wkt(wkt)):
        assert back.datum.shift_kind() == "nadgrids"
        assert back.datum.nadgrids == "@foo.gsb"
    # "@null" applies no grid in the operation layer, so towgs84 stays
    null = _crs_from_proj_string("+proj=longlat +ellps=GRS80 "
                                 "+towgs84=100,200,300 +nadgrids=@null")
    assert "towgs84=100,200,300" in null.to_proj_string()


def test_towgs84_and_nadgrids_export_roundtrip_keeps_transform():
    from proj_ray.crs import _crs_from_proj_string

    lon, lat = np.array([10.0, 20.0]), np.array([50.0, -30.0])
    z, t = np.zeros(2), np.zeros(2)

    def run(defn):
        c = transform_arrays(create_operation(defn), lon, lat, z, t)
        return np.stack([c.x, c.y, c.z])

    want = run(TOWGS84_AND_NADGRIDS)
    got = run(_crs_from_proj_string(TOWGS84_AND_NADGRIDS).to_proj_string())
    assert np.array_equal(got, want)
    # the towgs84 form alone would move the points
    assert not np.allclose(
        run("+proj=longlat +ellps=GRS80 +towgs84=100,200,300"), want)


def test_boundcrs_unsupported_parameterfile_is_loud():
    wkt = BOUNDCRS_DHDN_NTV2.replace(
        "Latitude and longitude difference file",
        "Geoid (height correction) model file")
    with pytest.raises(ProjError, match="PARAMETERFILE"):
        CRS.from_wkt(wkt)
