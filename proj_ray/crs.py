"""CRS text formats: WKT1-GDAL, WKT2 (2015/2019), and PROJJSON.

The reference parses these through ~12,900 LoC of io.cpp plus the EPSG
SQLite factory (src/iso19111/io.cpp, src/iso19111/factory.cpp) — scoped
out of this engine by SURVEY.md §2.7.  What a user actually needs to run
pipelines, though, is the *self-contained* subset: a WKT2 / PROJJSON CRS
definition carries its own ellipsoid, prime meridian, projection method,
parameters and units, so it maps directly onto the engine's proj-string
operation registry with no database.  This module implements that
mapping, both directions:

    CRS.from_wkt(text)        -> CRS      (WKT1-GDAL or WKT2, autodetect)
    CRS.from_projjson(obj)    -> CRS
    CRS.from_user_input(any)  -> CRS      (WKT / PROJJSON / proj string /
                                           "EPSG:NNNN" via the init shim)
    crs.to_proj_string()      -> "+proj=... +ellps=... ..."
    crs.to_projjson()         -> dict     (PROJJSON v0.x shape)
    crs.to_wkt()              -> str      (WKT2:2019)
    crs_to_crs(src, dst)      -> Pipeline (inv(src) -> fwd(dst), classic
                                           +towgs84 datum shift included)

Method and parameter names follow the published EPSG Guidance Note 7-2
naming (also what GDAL/WKT1 emits, modulo underscores); matching is
case/punctuation-insensitive so WKT1 "Transverse_Mercator" and WKT2
"Transverse Mercator" resolve identically.

Unsupported constructs raise ``ProjError`` with the offending name —
never a silent wrong answer.  Out of scope here (as in SURVEY §2.7):
EPSG-code-only lookups beyond the epsg_init shim, vertical/compound CRS,
datum ensembles with grid transformations, engineering/parametric CRS.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import List, Optional, Union

from proj_ray.ops.base import ProjError

__all__ = [
    "CRS",
    "WktNode",
    "parse_wkt_tree",
    "crs_to_crs",
]


# ---------------------------------------------------------------------------
# WKT tokenizer / tree parser (ISO 19162 text grammar; both [] and ()
# delimiters, doubled-quote escapes)
# ---------------------------------------------------------------------------


class WktNode:
    """One WKT keyword node: ``NAME[v1, v2, CHILD[...], ...]``.

    ``values`` holds, in order: str (quoted text), float (numbers),
    bare keywords (str, unquoted — axis directions, enum words), and
    nested WktNode children.
    """

    __slots__ = ("name", "values")

    def __init__(self, name: str, values: list):
        self.name = name
        self.values = values

    # -- tree helpers -------------------------------------------------
    def children(self, name: str) -> List["WktNode"]:
        n = name.upper()
        return [v for v in self.values
                if isinstance(v, WktNode) and v.name.upper() == n]

    def child(self, *names: str) -> Optional["WktNode"]:
        for name in names:
            got = self.children(name)
            if got:
                return got[0]
        return None

    def str0(self) -> str:
        for v in self.values:
            if isinstance(v, str):
                return v
        raise ProjError(f"WKT node {self.name} has no string value")

    def floats(self) -> List[float]:
        return [v for v in self.values if isinstance(v, float)]

    def __repr__(self) -> str:  # debug aid only
        return f"WktNode({self.name}, {self.values!r})"


_TOKEN_RE = re.compile(
    r'\s*(?:'
    r'"((?:[^"]|"")*)"'          # quoted string, "" = escaped quote
    r"|([A-Za-z_][A-Za-z0-9_]*)"  # keyword / enum word
    r"|([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)"  # number
    r"|([\[\]\(\),])"            # structure
    r")")


def _tokenize_wkt(text: str):
    pos = 0
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                return
            raise ProjError(f"WKT parse error at char {pos}: "
                            f"{text[pos:pos + 20]!r}")
        pos = m.end()
        if m.group(1) is not None:
            yield ("str", m.group(1).replace('""', '"'))
        elif m.group(2) is not None:
            yield ("word", m.group(2))
        elif m.group(3) is not None:
            yield ("num", float(m.group(3)))
        else:
            yield ("punct", m.group(4))


def parse_wkt_tree(text: str) -> WktNode:
    """Parse WKT text into a WktNode tree (grammar only, no semantics)."""
    toks = list(_tokenize_wkt(text))
    pos = 0

    def parse_node() -> WktNode:
        nonlocal pos
        kind, kw = toks[pos]
        if kind != "word":
            raise ProjError(f"WKT: expected keyword, got {kw!r}")
        pos += 1
        values: list = []
        if pos < len(toks) and toks[pos] == ("punct", "[") or \
                (pos < len(toks) and toks[pos] == ("punct", "(")):
            close = "]" if toks[pos][1] == "[" else ")"
            pos += 1
            while True:
                kind, val = toks[pos]
                if kind == "punct" and val == close:
                    pos += 1
                    break
                if kind == "punct" and val == ",":
                    pos += 1
                    continue
                if kind == "word" and pos + 1 < len(toks) and \
                        toks[pos + 1][1] in ("[", "("):
                    values.append(parse_node())
                else:
                    values.append(val)
                    pos += 1
        return WktNode(kw, values)

    node = parse_node()
    if pos != len(toks):
        raise ProjError("WKT: trailing content after the root node")
    return node


# ---------------------------------------------------------------------------
# CRS model
# ---------------------------------------------------------------------------


@dataclass
class Ellipsoid:
    name: str
    a: float                     # semi-major axis, metres
    rf: float                    # inverse flattening; 0 => sphere

    def proj_tokens(self) -> List[str]:
        # prefer the named +ellps when the numbers match a known one:
        # keeps proj strings short and lets ops pick exact published es
        from proj_ray.core.ellipsoid import _ELLPS_TABLE

        b_self = self.a * (1.0 - 1.0 / self.rf) if self.rf else self.a
        for key, (a_v, shape) in _ELLPS_TABLE.items():
            if abs(a_v - self.a) > 1e-4:
                continue
            if "rf" in shape:
                if self.rf and abs(shape["rf"] - self.rf) < 1e-9 * \
                        max(self.rf, 1.0):
                    return [f"ellps={key}"]
            elif "b" in shape and abs(shape["b"] - b_self) < 1e-4:
                return [f"ellps={key}"]
        if self.rf:
            return [f"a={self.a!r}", f"rf={self.rf!r}"]
        return [f"a={self.a!r}", f"b={self.a!r}"]


@dataclass
class Datum:
    name: str
    ellipsoid: Ellipsoid
    towgs84: Optional[List[float]] = None
    # NTv2 lat/lon difference grid (BOUNDCRS PARAMETERFILE / proj
    # +nadgrids); takes precedence over towgs84, see shift_kind()
    nadgrids: Optional[str] = None
    prime_meridian_deg: float = 0.0
    prime_meridian_name: str = "Greenwich"

    def shift_kind(self) -> Optional[str]:
        """The shift to WGS84 this datum applies: "nadgrids", "towgs84"
        or None.  As in the operation layer (ops/base.py datum helpers),
        a grid takes precedence over towgs84, except "@null", which
        applies no grid there; every export follows this choice."""
        if self.nadgrids is not None and (self.towgs84 is None
                                          or self.nadgrids != "@null"):
            return "nadgrids"
        if self.towgs84 is not None:
            return "towgs84"
        return None


@dataclass
class Conversion:
    """A projection method + parameters, normalized to proj keys with
    values already in proj's units (degrees / metres / unity)."""
    name: str
    method: str                  # EPSG method name as written
    proj: str                    # registry op name ("tmerc", ...)
    params: dict = field(default_factory=dict)  # proj key -> float
    flags: List[str] = field(default_factory=list)  # bare +flags


@dataclass
class CRS:
    """A parsed CRS: geographic, geocentric, or projected (optionally
    carrying BOUNDCRS/TOWGS84 ball-park datum info)."""

    kind: str                    # "geographic" | "projected" | "geocentric"
    name: str
    datum: Datum
    conversion: Optional[Conversion] = None     # projected only
    unit_to_meter: float = 1.0                  # projected/geocentric CS unit
    angular_unit_deg: float = 1.0               # geographic CS unit, in deg
    axis_lat_first: bool = False                # geographic axis order
    vert_to_meter: Optional[float] = None       # COMPOUNDCRS vertical unit

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @staticmethod
    def from_wkt(text: str) -> "CRS":
        return _crs_from_wkt_node(parse_wkt_tree(text))

    @staticmethod
    def from_projjson(obj: Union[str, dict]) -> "CRS":
        if isinstance(obj, str):
            obj = json.loads(obj)
        return _crs_from_projjson(obj)

    @staticmethod
    def from_user_input(value) -> "CRS":
        """WKT / PROJJSON (str or dict) / 'EPSG:NNNN' (init shim).
        Plain proj strings should go straight to ``create_operation``;
        this raises for them to keep one obvious path per input kind."""
        if isinstance(value, dict):
            return CRS.from_projjson(value)
        if isinstance(value, CRS):
            return value
        s = value.strip()
        if s.startswith("{"):
            return CRS.from_projjson(s)
        if re.match(r"(?i)^epsg\s*:\s*\d+$", s):
            from proj_ray.epsg_init import EPSG_INIT

            code = s.split(":", 1)[1].strip()
            defn = EPSG_INIT.get(code)
            if defn is None:
                raise ProjError(f"EPSG:{code} is not in the init shim "
                                "(no EPSG database in this engine)")
            return _crs_from_proj_string(defn, name=f"EPSG:{code}")
        if re.match(r"^[A-Za-z_]+\s*[\[\(]", s):
            return CRS.from_wkt(s)
        raise ProjError("from_user_input: expected WKT, PROJJSON or "
                        "EPSG:NNNN (pass proj strings to "
                        "create_operation directly)")

    # ------------------------------------------------------------------
    # exports
    # ------------------------------------------------------------------

    def to_proj_string(self) -> str:
        d = self.datum
        tokens: List[str] = []
        if self.kind == "geographic":
            tokens.append("proj=longlat")
        elif self.kind == "geocentric":
            tokens.append("proj=geocent")
        elif self.kind == "projected":
            conv = self.conversion
            assert conv is not None
            tokens.append(f"proj={conv.proj}")
            for k, v in conv.params.items():
                tokens.append(f"{k}={_fmt_num(v)}")
            tokens.extend(conv.flags)
        else:
            raise ProjError(f"to_proj_string: unsupported kind {self.kind}")
        tokens.extend(d.ellipsoid.proj_tokens())
        if d.prime_meridian_deg:
            tokens.append(f"pm={_fmt_num(d.prime_meridian_deg)}")
        shift = d.shift_kind()
        if shift == "towgs84":
            tokens.append("towgs84=" + ",".join(_fmt_num(v)
                                                for v in d.towgs84))
        elif shift == "nadgrids":
            tokens.append(f"nadgrids={d.nadgrids}")
        if self.kind in ("projected", "geocentric"):
            if abs(self.unit_to_meter - 1.0) < 1e-12:
                tokens.append("units=m")
            else:
                tokens.append(f"to_meter={self.unit_to_meter!r}")
        if self.vert_to_meter is not None:
            if abs(self.vert_to_meter - 1.0) < 1e-12:
                tokens.append("vunits=m")
            else:
                tokens.append(f"vto_meter={self.vert_to_meter!r}")
        return "+" + " +".join(tokens)

    def to_operation(self):
        """Executable Pipeline for this CRS's proj string."""
        from proj_ray.pipeline import create_operation

        return create_operation(self.to_proj_string())

    def to_projjson(self) -> dict:
        d = self.datum
        ell: dict = {"name": d.ellipsoid.name,
                     "semi_major_axis": d.ellipsoid.a}
        if d.ellipsoid.rf:
            ell["inverse_flattening"] = d.ellipsoid.rf
        else:
            ell["radius"] = d.ellipsoid.a
        datum: dict = {"type": "GeodeticReferenceFrame", "name": d.name,
                       "ellipsoid": ell}
        if d.prime_meridian_deg:
            datum["prime_meridian"] = {"name": d.prime_meridian_name,
                                       "longitude": d.prime_meridian_deg}
        base_axes = ([_axis_json("Geodetic latitude", "Lat", "north",
                                 "degree"),
                      _axis_json("Geodetic longitude", "Lon", "east",
                                 "degree")]
                     if self.axis_lat_first else
                     [_axis_json("Geodetic longitude", "Lon", "east",
                                 "degree"),
                      _axis_json("Geodetic latitude", "Lat", "north",
                                 "degree")])
        geog = {
            "type": "GeographicCRS",
            "name": self.name if self.kind == "geographic"
            else self.name + " (base)",
            "datum": datum,
            "coordinate_system": {"subtype": "ellipsoidal",
                                  "axis": base_axes},
        }
        if self.kind == "geographic":
            out = geog
        elif self.kind == "projected":
            conv = self.conversion
            assert conv is not None
            out = {
                "type": "ProjectedCRS",
                "name": self.name,
                "base_crs": geog,
                "conversion": {
                    "name": conv.name,
                    "method": {"name": conv.method},
                    "parameters": _projjson_parameters(conv),
                },
                "coordinate_system": {
                    "subtype": "Cartesian",
                    "axis": [_axis_json("Easting", "E", "east", "metre",
                                        self.unit_to_meter),
                             _axis_json("Northing", "N", "north", "metre",
                                        self.unit_to_meter)],
                },
            }
        elif self.kind == "geocentric":
            out = {
                "type": "GeodeticCRS",
                "name": self.name,
                "datum": datum,
                "coordinate_system": {
                    "subtype": "Cartesian",
                    "axis": [
                        _axis_json("Geocentric X", "X", "geocentricX",
                                   "metre"),
                        _axis_json("Geocentric Y", "Y", "geocentricY",
                                   "metre"),
                        _axis_json("Geocentric Z", "Z", "geocentricZ",
                                   "metre")],
                },
            }
        else:
            raise ProjError(f"to_projjson: unsupported kind {self.kind}")
        out["$schema"] = ("https://proj.org/schemas/v0.7/projjson.schema"
                          ".json")
        shift = d.shift_kind()
        if shift == "towgs84":
            # PROJJSON models ball-park datum info as a BoundCRS
            out = {
                "$schema": out.pop("$schema"),
                "type": "BoundCRS",
                "source_crs": out,
                "target_crs": {"type": "GeographicCRS", "name": "WGS 84"},
                "transformation": {
                    "name": f"Transformation from {d.name} to WGS84",
                    "method": {"name": "Position Vector transformation "
                                       "(geog2D domain)"},
                    "parameters": _towgs84_projjson(d.towgs84),
                },
            }
        elif shift == "nadgrids":
            out = {
                "$schema": out.pop("$schema"),
                "type": "BoundCRS",
                "source_crs": out,
                "target_crs": {"type": "GeographicCRS", "name": "WGS 84"},
                "transformation": {
                    "name": f"Transformation from {d.name} to WGS84",
                    "method": {"name": "NTv2",
                               "id": {"authority": "EPSG", "code": 9615}},
                    "parameters": [{
                        "name": "Latitude and longitude difference file",
                        "value": d.nadgrids,
                        "id": {"authority": "EPSG", "code": 8656},
                    }],
                },
            }
        return out

    def to_wkt(self) -> str:
        """WKT2:2019 text for this CRS (the subset of io.cpp's exporter
        this model carries)."""
        d = self.datum
        ell = d.ellipsoid
        ell_w = (f'ELLIPSOID["{ell.name}",{_fmt_num(ell.a)},'
                 f'{_fmt_num(ell.rf)},LENGTHUNIT["metre",1]]')
        datum_w = f'DATUM["{d.name}",{ell_w}]'
        pm_w = ""
        if d.prime_meridian_deg:
            pm_w = (f',PRIMEM["{d.prime_meridian_name}",'
                    f'{_fmt_num(d.prime_meridian_deg)},'
                    f'ANGLEUNIT["degree",0.0174532925199433]]')
        if self.axis_lat_first:
            axes = ('AXIS["geodetic latitude (Lat)",north],'
                    'AXIS["geodetic longitude (Lon)",east]')
        else:
            axes = ('AXIS["geodetic longitude (Lon)",east],'
                    'AXIS["geodetic latitude (Lat)",north]')
        geog_body = (f'"{self.name}",{datum_w}{pm_w},CS[ellipsoidal,2],'
                     f'{axes},ANGLEUNIT["degree",0.0174532925199433]')
        if self.kind == "geographic":
            return _maybe_bound(self, f"GEOGCRS[{geog_body}]")
        if self.kind == "geocentric":
            body = (f'GEODCRS["{self.name}",{datum_w}{pm_w},'
                    f'CS[Cartesian,3],'
                    f'AXIS["(X)",geocentricX],AXIS["(Y)",geocentricY],'
                    f'AXIS["(Z)",geocentricZ],LENGTHUNIT["metre",1]]')
            return _maybe_bound(self, body)
        if self.kind != "projected":
            raise ProjError(f"to_wkt: unsupported kind {self.kind}")
        conv = self.conversion
        assert conv is not None
        base_name = self.name + " (base)"
        base_body = (f'"{base_name}",{datum_w}{pm_w},'
                     f'ANGLEUNIT["degree",0.0174532925199433]')
        params_w = ",".join(
            _wkt_parameter(epsg_name, value)
            for epsg_name, value in _conversion_epsg_params(conv))
        unit = (f'LENGTHUNIT["metre",1]'
                if abs(self.unit_to_meter - 1.0) < 1e-12 else
                f'LENGTHUNIT["unit",{self.unit_to_meter!r}]')
        body = (f'PROJCRS["{self.name}",BASEGEOGCRS[{base_body}],'
                f'CONVERSION["{conv.name}",METHOD["{conv.method}"],'
                f'{params_w}],CS[Cartesian,2],'
                f'AXIS["(E)",east],AXIS["(N)",north],{unit}]')
        return _maybe_bound(self, body)


_WGS84_TARGET_WKT = (
    'TARGETCRS[GEOGCRS["WGS 84",'
    'DATUM["World Geodetic System 1984",'
    'ELLIPSOID["WGS 84",6378137,298.257223563,'
    'LENGTHUNIT["metre",1]]],CS[ellipsoidal,2],'
    'AXIS["latitude",north],AXIS["longitude",east],'
    'ANGLEUNIT["degree",0.0174532925199433]]]')


def _maybe_bound(crs: CRS, inner: str) -> str:
    shift = crs.datum.shift_kind()
    if shift is None:
        return inner
    if shift == "nadgrids":
        return (f'BOUNDCRS[SOURCECRS[{inner}],'
                f'{_WGS84_TARGET_WKT},'
                f'ABRIDGEDTRANSFORMATION['
                f'"Transformation from {crs.datum.name} to WGS84",'
                f'METHOD["NTv2",ID["EPSG",9615]],'
                f'PARAMETERFILE["Latitude and longitude difference '
                f'file","{crs.datum.nadgrids}"]]]')
    tw = crs.datum.towgs84
    tw7 = list(tw) + [0.0] * (7 - len(tw))
    names = ["X-axis translation", "Y-axis translation",
             "Z-axis translation", "X-axis rotation", "Y-axis rotation",
             "Z-axis rotation", "Scale difference"]
    params = ",".join(f'PARAMETER["{n}",{_fmt_num(v)}]'
                      for n, v in zip(names, tw7))
    return (f'BOUNDCRS[SOURCECRS[{inner}],'
            f'{_WGS84_TARGET_WKT},'
            f'ABRIDGEDTRANSFORMATION['
            f'"Transformation from {crs.datum.name} to WGS84",'
            f'METHOD["Position Vector transformation (geog2D domain)"],'
            f'{params}]]')


def _fmt_num(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


def _axis_json(name, abbr, direction, unit, factor: float = 1.0) -> dict:
    out = {"name": name, "abbreviation": abbr, "direction": direction}
    if factor == 1.0:
        out["unit"] = unit
    else:
        out["unit"] = {"type": "LinearUnit", "name": unit,
                       "conversion_factor": factor}
    return out


# ---------------------------------------------------------------------------
# EPSG method / parameter mapping (Guidance Note 7-2 names; the same
# table the reference keeps in src/iso19111/operation/parammappings.cpp)
# ---------------------------------------------------------------------------


def _norm(name: str) -> str:
    return re.sub(r"[^a-z0-9]", "", name.lower())


# common parameter aliases -> canonical proj key + unit kind
_P_ANGLE, _P_LINEAR, _P_SCALE = "angle", "linear", "scale"

_COMMON_PARAMS = {
    # EPSG WKT2 names
    "latitudeofnaturalorigin": ("lat_0", _P_ANGLE),
    "longitudeofnaturalorigin": ("lon_0", _P_ANGLE),
    "scalefactoratnaturalorigin": ("k_0", _P_SCALE),
    "falseeasting": ("x_0", _P_LINEAR),
    "falsenorthing": ("y_0", _P_LINEAR),
    "latitudeoffalseorigin": ("lat_0", _P_ANGLE),
    "longitudeoffalseorigin": ("lon_0", _P_ANGLE),
    "eastingatfalseorigin": ("x_0", _P_LINEAR),
    "northingatfalseorigin": ("y_0", _P_LINEAR),
    "latitudeof1ststandardparallel": ("lat_1", _P_ANGLE),
    "latitudeof2ndstandardparallel": ("lat_2", _P_ANGLE),
    "latitudeofstandardparallel": ("lat_ts", _P_ANGLE),
    "longitudeoforigin": ("lon_0", _P_ANGLE),
    # WKT1-GDAL names
    "latitudeoforigin": ("lat_0", _P_ANGLE),
    "centralmeridian": ("lon_0", _P_ANGLE),
    "scalefactor": ("k_0", _P_SCALE),
    "standardparallel1": ("lat_1", _P_ANGLE),
    "standardparallel2": ("lat_2", _P_ANGLE),
    "latitudeofcenter": ("lat_0", _P_ANGLE),
    "longitudeofcenter": ("lon_0", _P_ANGLE),
    "pseudostandardparallel1": ("lat_1", _P_ANGLE),
}


@dataclass
class _Method:
    proj: str
    params: dict = field(default_factory=dict)   # extra/override mappings
    flags: tuple = ()
    finish: Optional[callable] = None            # post-process params dict


def _finish_lcc1sp(p: dict) -> None:
    # PROJ expresses LCC-1SP as lcc with the single parallel duplicated
    # (lcc.cpp: lat_1 defaulting; k_0 applies at lat_1)
    if "lat_0" in p:
        p.setdefault("lat_1", p["lat_0"])


def _finish_polar_a(p: dict) -> None:
    # Polar Stereographic (variant A): natural origin IS the pole;
    # k_0 given at the pole
    lat0 = p.get("lat_0", 90.0)
    if abs(abs(lat0) - 90.0) > 1e-9:
        raise ProjError("Polar Stereographic (variant A): latitude of "
                        "natural origin must be a pole")


def _finish_polar_b(p: dict) -> None:
    # variant B: standard parallel given instead of k_0; pole implied by
    # the parallel's hemisphere
    ts = p.get("lat_ts", 90.0)
    p["lat_0"] = 90.0 if ts >= 0 else -90.0


def _finish_merc_a(p: dict) -> None:
    lat0 = p.pop("lat_0", 0.0)
    if abs(lat0) > 1e-9:
        raise ProjError("Mercator (variant A): latitude of natural "
                        "origin must be 0")


def _finish_omerc_a(p: dict) -> None:
    p.setdefault("gamma", p.get("alpha", 0.0))


_METHODS = {
    # cylindrical
    "transversemercator": _Method("tmerc"),
    "gaussschreibertransversemercator": _Method("gstmerc"),
    "mercatorvarianta": _Method("merc", finish=_finish_merc_a),
    "mercatorvariantb": _Method(
        "merc", params={"latitudeof1ststandardparallel":
                        ("lat_ts", _P_ANGLE)}),
    "mercator1sp": _Method("merc", finish=_finish_merc_a),  # WKT1
    "mercator2sp": _Method(
        "merc", params={"standardparallel1": ("lat_ts", _P_ANGLE)}),
    "popularvisualisationpseudomercator": _Method("webmerc"),
    "equidistantcylindrical": _Method(
        "eqc", params={"latitudeof1ststandardparallel":
                       ("lat_ts", _P_ANGLE),
                       "standardparallel1": ("lat_ts", _P_ANGLE)}),
    "equidistantcylindricalspherical": _Method(
        "eqc", params={"latitudeof1ststandardparallel":
                       ("lat_ts", _P_ANGLE),
                       "standardparallel1": ("lat_ts", _P_ANGLE)}),
    "equirectangular": _Method(
        "eqc", params={"standardparallel1": ("lat_ts", _P_ANGLE)}),
    "cassinisoldner": _Method("cass"),
    "obliquestereographic": _Method("sterea"),
    # conic
    "lambertconicconformal1sp": _Method("lcc", finish=_finish_lcc1sp),
    "lambertconformalconic1sp": _Method("lcc", finish=_finish_lcc1sp),
    "lambertconicconformal2sp": _Method("lcc"),
    "lambertconformalconic2sp": _Method("lcc"),
    "lambertconformalconic": _Method("lcc"),     # WKT1 ESRI-ish
    "albersequalarea": _Method("aea"),
    "albersconicequalarea": _Method("aea"),
    "equidistantconic": _Method("eqdc"),
    "polyconic": _Method("poly"),
    "americanpolyconic": _Method("poly"),
    "krovak": _Method(
        "krovak",
        params={"latitudeofprojectioncentre": ("lat_0", _P_ANGLE),
                "latitudeofprojectioncenter": ("lat_0", _P_ANGLE),
                "scalefactoronpseudostandardparallel": ("k_0", _P_SCALE),
                # cone geometry is fixed in the method (krovak.cpp);
                # colatitude/pseudo-parallel accepted and dropped
                "colatitudeofconeaxis": (None, _P_ANGLE),
                "latitudeofpseudostandardparallel": (None, _P_ANGLE),
                "azimuth": (None, _P_ANGLE)}),
    # azimuthal
    "lambertazimuthalequalarea": _Method("laea"),
    "lambertazimuthalequalareaspherical": _Method("laea"),
    "azimuthalequidistant": _Method("aeqd"),
    "modifiedazimuthalequidistant": _Method("aeqd"),
    "polarstereographicvarianta": _Method("stere",
                                          finish=_finish_polar_a),
    "polarstereographicvariantb": _Method("stere",
                                          finish=_finish_polar_b),
    "polarstereographic": _Method("stere"),      # WKT1: lat_0/lat_ts mix
    "stereographic": _Method("stere"),
    "orthographic": _Method("ortho"),
    "orthographicspherical": _Method("ortho"),
    "gnomonic": _Method("gnom"),
    # oblique mercator
    "hotineobliquemercatorvarianta": _Method(
        "omerc",
        params={"latitudeofprojectioncentre": ("lat_0", _P_ANGLE),
                "latitudeofprojectioncenter": ("lat_0", _P_ANGLE),
                "longitudeofprojectioncentre": ("lonc", _P_ANGLE),
                "longitudeofprojectioncenter": ("lonc", _P_ANGLE),
                "azimuthattheinitialline": ("alpha", _P_ANGLE),
                "azimuthofinitialline": ("alpha", _P_ANGLE),
                "azimuth": ("alpha", _P_ANGLE),
                "anglefromrectifiedtoskewgrid": ("gamma", _P_ANGLE),
                "rectifiedgridangle": ("gamma", _P_ANGLE),
                "scalefactorontheinitialline": ("k_0", _P_SCALE),
                "scalefactoroninitialline": ("k_0", _P_SCALE)},
        flags=("no_uoff",), finish=_finish_omerc_a),
    "hotineobliquemercatorvariantb": _Method(
        "omerc",
        params={"latitudeofprojectioncentre": ("lat_0", _P_ANGLE),
                "latitudeofprojectioncenter": ("lat_0", _P_ANGLE),
                "longitudeofprojectioncentre": ("lonc", _P_ANGLE),
                "longitudeofprojectioncenter": ("lonc", _P_ANGLE),
                "azimuthattheinitialline": ("alpha", _P_ANGLE),
                "azimuthofinitialline": ("alpha", _P_ANGLE),
                "azimuth": ("alpha", _P_ANGLE),
                "anglefromrectifiedtoskewgrid": ("gamma", _P_ANGLE),
                "rectifiedgridangle": ("gamma", _P_ANGLE),
                "scalefactorontheinitialline": ("k_0", _P_SCALE),
                "scalefactoroninitialline": ("k_0", _P_SCALE),
                "eastingattheprojectioncentre": ("x_0", _P_LINEAR),
                "eastingatprojectioncentre": ("x_0", _P_LINEAR),
                "northingattheprojectioncentre": ("y_0", _P_LINEAR),
                "northingatprojectioncentre": ("y_0", _P_LINEAR)},
        finish=_finish_omerc_a),
    "hotineobliquemercator": _Method(          # WKT1-GDAL name = variant A
        "omerc",
        params={"azimuth": ("alpha", _P_ANGLE),
                "rectifiedgridangle": ("gamma", _P_ANGLE)},
        flags=("no_uoff",), finish=_finish_omerc_a),
    "hotineobliquemercatorazimuthcenter": _Method(
        "omerc",
        params={"azimuth": ("alpha", _P_ANGLE),
                "rectifiedgridangle": ("gamma", _P_ANGLE)},
        finish=_finish_omerc_a),
    # misc / pseudo-cylindrical (WKT1-GDAL names for the common ones)
    "newzealandmapgrid": _Method("nzmg"),
    "sinusoidal": _Method("sinu"),
    "mollweide": _Method("moll"),
    "robinson": _Method("robin"),
    "millercylindrical": _Method("mill"),
    "vandergrinten": _Method("vandg"),
    "eckertiv": _Method("eck4"),
    "eckertvi": _Method("eck6"),
    "gallstereographic": _Method("gall"),
    "goodehomolosine": _Method("goode"),
    "interruptedgoodehomolosine": _Method("igh"),
    "wagneriv": _Method("wag4"),
    "wagnervii": _Method("wag7"),
    "geostationarysatellitesweepx": _Method(
        "geos", params={"satelliteheight": ("h", _P_LINEAR)},
        flags=("sweep=x",)),
    "geostationarysatellitesweepy": _Method(
        "geos", params={"satelliteheight": ("h", _P_LINEAR)}),
    "geostationarysatellite": _Method(           # WKT1-GDAL (sweep y)
        "geos", params={"satelliteheight": ("h", _P_LINEAR)}),
    "lambertcylindricalequalarea": _Method(
        "cea", params={"latitudeof1ststandardparallel":
                       ("lat_ts", _P_ANGLE),
                       "standardparallel1": ("lat_ts", _P_ANGLE)}),
    "cylindricalequalarea": _Method(
        "cea", params={"standardparallel1": ("lat_ts", _P_ANGLE)}),
    "twopointequidistant": _Method("tpeqd", params={
        "latitudeof1stpoint": ("lat_1", _P_ANGLE),
        "longitudeof1stpoint": ("lon_1", _P_ANGLE),
        "latitudeof2ndpoint": ("lat_2", _P_ANGLE),
        "longitudeof2ndpoint": ("lon_2", _P_ANGLE)}),
}

# reverse map proj name -> (method name, param epsg names) for exports
_EXPORT_METHOD = {
    "tmerc": "Transverse Mercator",
    "merc": "Mercator (variant B)",
    "webmerc": "Popular Visualisation Pseudo Mercator",
    "lcc": "Lambert Conic Conformal (2SP)",
    "aea": "Albers Equal Area",
    "laea": "Lambert Azimuthal Equal Area",
    "aeqd": "Modified Azimuthal Equidistant",
    "cass": "Cassini-Soldner",
    "sterea": "Oblique Stereographic",
    "stere": "Polar Stereographic (variant B)",
    "eqc": "Equidistant Cylindrical",
    "poly": "American Polyconic",
    "krovak": "Krovak",
    "nzmg": "New Zealand Map Grid",
    "omerc": "Hotine Oblique Mercator (variant B)",
    "geos": "Geostationary Satellite (Sweep Y)",
    "cea": "Lambert Cylindrical Equal Area",
    "ortho": "Orthographic",
    "gnom": "Gnomonic",
    "sinu": "Sinusoidal",
    "moll": "Mollweide",
    "robin": "Robinson",
    "mill": "Miller Cylindrical",
    "vandg": "VanDerGrinten",
    "eck4": "Eckert IV",
    "eck6": "Eckert VI",
    "gall": "Gall Stereographic",
}

_EXPORT_PARAM = {
    "lat_0": ("Latitude of natural origin", "degree"),
    "lon_0": ("Longitude of natural origin", "degree"),
    "lonc": ("Longitude of projection centre", "degree"),
    "k_0": ("Scale factor at natural origin", "unity"),
    "x_0": ("False easting", "metre"),
    "y_0": ("False northing", "metre"),
    "lat_1": ("Latitude of 1st standard parallel", "degree"),
    "lat_2": ("Latitude of 2nd standard parallel", "degree"),
    "lat_ts": ("Latitude of standard parallel", "degree"),
    "alpha": ("Azimuth at projection centre", "degree"),
    "gamma": ("Angle from Rectified to Skew Grid", "degree"),
    "h": ("Satellite Height", "metre"),
    "lon_1": ("Longitude of 1st point", "degree"),
    "lon_2": ("Longitude of 2nd point", "degree"),
}


def _conversion_epsg_params(conv: Conversion):
    for k, v in conv.params.items():
        name, _unit = _EXPORT_PARAM.get(k, (k, "unity"))
        yield name, v


def _wkt_parameter(epsg_name: str, value: float) -> str:
    _, unit = next(((n, u) for kk, (n, u) in _EXPORT_PARAM.items()
                    if n == epsg_name), (epsg_name, "unity"))
    if unit == "degree":
        u = 'ANGLEUNIT["degree",0.0174532925199433]'
    elif unit == "metre":
        u = 'LENGTHUNIT["metre",1]'
    else:
        u = 'SCALEUNIT["unity",1]'
    return f'PARAMETER["{epsg_name}",{_fmt_num(value)},{u}]'


def _projjson_parameters(conv: Conversion) -> list:
    out = []
    for k, v in conv.params.items():
        name, unit = _EXPORT_PARAM.get(k, (k, "unity"))
        out.append({"name": name, "value": v, "unit": unit})
    return out


def _towgs84_projjson(tw: List[float]) -> list:
    tw7 = list(tw) + [0.0] * (7 - len(tw))
    names = [("X-axis translation", "metre"),
             ("Y-axis translation", "metre"),
             ("Z-axis translation", "metre"),
             ("X-axis rotation", "arc-second"),
             ("Y-axis rotation", "arc-second"),
             ("Z-axis rotation", "arc-second"),
             ("Scale difference", "parts per million")]
    return [{"name": n, "value": v, "unit": u}
            for (n, u), v in zip(names, tw7)]


def _resolve_method(method_name: str) -> _Method:
    spec = _METHODS.get(_norm(method_name))
    if spec is None:
        raise ProjError(f"unsupported projection method "
                        f"{method_name!r} (no mapping to a registry op)")
    return spec


def _map_parameters(method: _Method, raw: List[tuple]) -> dict:
    """raw: [(name, value_in_proj_units, kind_hint)] -> proj params."""
    out: dict = {}
    for name, value, kind in raw:
        key = _norm(name)
        target = method.params.get(key, _COMMON_PARAMS.get(key))
        if target is None:
            raise ProjError(f"unsupported projection parameter {name!r} "
                            f"for method with proj={method.proj!r}")
        proj_key, _want = target
        if proj_key is None:
            continue  # documented drop (e.g. Krovak cone geometry)
        if kind is not None and _want == _P_ANGLE:
            # WKT1 angle in a non-degree GEOGCS unit: kind carries
            # the unit->degree scale (see the PROJCS branch)
            value = value * kind
        out[proj_key] = value
    if method.finish is not None:
        method.finish(out)
    return out


# ---------------------------------------------------------------------------
# WKT semantics -> CRS
# ---------------------------------------------------------------------------

_DEG = 0.017453292519943295


def _unit_factor(node: Optional[WktNode], default: float) -> float:
    """UNIT/ANGLEUNIT/LENGTHUNIT/SCALEUNIT -> conversion factor."""
    if node is None:
        return default
    fl = node.floats()
    if not fl:
        return default
    return fl[0]


def _angle_value_deg(value: float, unit_node: Optional[WktNode]) -> float:
    """Angle parameter -> degrees (WKT2 units are to-radian factors).
    WKT text truncates the degree factor to 0.0174532925199433; snap
    factors within 1e-12 of the exact one so 90 stays exactly 90."""
    if unit_node is None:
        return value                     # WKT1: degrees by convention
    factor = _unit_factor(unit_node, _DEG)
    if abs(factor - _DEG) < 1e-12:
        return value
    return value * factor / _DEG


def _parse_ellipsoid(node: WktNode) -> Ellipsoid:
    name = node.str0()
    fl = node.floats()
    if len(fl) < 2:
        raise ProjError(f"ELLIPSOID {name!r}: missing a / 1/f")
    a, rf = fl[0], fl[1]
    unit = node.child("LENGTHUNIT", "UNIT")
    a *= _unit_factor(unit, 1.0)
    return Ellipsoid(name, a, rf)


def _parse_primem(node: Optional[WktNode]) -> tuple:
    if node is None:
        return 0.0, "Greenwich"
    name = node.str0()
    fl = node.floats()
    val = fl[0] if fl else 0.0
    unit = node.child("ANGLEUNIT", "UNIT")
    return _angle_value_deg(val, unit), name


def _parse_towgs84(node: Optional[WktNode]) -> Optional[List[float]]:
    if node is None:
        return None
    vals = node.floats()
    if len(vals) not in (3, 6, 7):
        raise ProjError("TOWGS84 needs 3 or 7 values")
    return vals


def _parse_datum_wkt(crs_node: WktNode) -> Datum:
    datum_node = crs_node.child("DATUM", "TRF", "GEODETICDATUM")
    if datum_node is None:
        ens = crs_node.child("ENSEMBLE")
        if ens is not None:
            # datum ensemble (e.g. WGS84 realizations): take the
            # ellipsoid; member realizations are equivalent at the
            # ensemble's stated accuracy
            ell_node = ens.child("ELLIPSOID", "SPHEROID")
            if ell_node is None:
                raise ProjError("ENSEMBLE without ELLIPSOID")
            pm_deg, pm_name = _parse_primem(crs_node.child("PRIMEM",
                                                           "PRIMEMERIDIAN"))
            return Datum(ens.str0(), _parse_ellipsoid(ell_node),
                         prime_meridian_deg=pm_deg,
                         prime_meridian_name=pm_name)
        raise ProjError("CRS has no DATUM/ENSEMBLE node")
    ell_node = datum_node.child("ELLIPSOID", "SPHEROID")
    if ell_node is None:
        raise ProjError(f"DATUM {datum_node.str0()!r} has no ELLIPSOID")
    # WKT1 keeps PRIMEM inside GEOGCS (sibling of DATUM); WKT2 too
    pm_deg, pm_name = _parse_primem(
        crs_node.child("PRIMEM", "PRIMEMERIDIAN")
        or datum_node.child("PRIMEM", "PRIMEMERIDIAN"))
    towgs84 = _parse_towgs84(datum_node.child("TOWGS84"))
    return Datum(datum_node.str0(), _parse_ellipsoid(ell_node),
                 towgs84=towgs84, prime_meridian_deg=pm_deg,
                 prime_meridian_name=pm_name)


def _geographic_axis_lat_first(crs_node: WktNode) -> bool:
    cs = crs_node.child("CS")
    axes = crs_node.children("AXIS")
    if not axes and cs is not None:
        axes = crs_node.children("AXIS")
    if not axes:
        # EPSG geographic default IS lat,lon; but WKT1-GDAL omits axes
        # and means lon,lat.  WKT2 without axes is malformed; treat the
        # presence of a CS node as WKT2 -> lat,lon default.
        return cs is not None
    first = axes[0]
    words = [v for v in first.values if isinstance(v, str)]
    text = " ".join(words).lower()
    return "north" in text or "lat" in text


def _crs_from_wkt_node(node: WktNode) -> CRS:
    kw = node.name.upper()
    if kw in ("COMPOUNDCRS", "COMPD_CS"):
        # horizontal CRS + VERTCRS with a linear unit -> the engine's
        # +vunits/+vto_meter vertical scaling (geoid models are a
        # datum concern, out of scope like other grid catalogs)
        children = [v for v in node.values if isinstance(v, WktNode)]
        horiz = next((c for c in children
                      if c.name.upper() in (
                          "PROJCRS", "PROJECTEDCRS", "PROJCS",
                          "GEOGCRS", "GEOGRAPHICCRS", "GEOGCS",
                          "BOUNDCRS")), None)
        vert = next((c for c in children
                     if c.name.upper() in ("VERTCRS", "VERTICALCRS",
                                           "VERT_CS")), None)
        if horiz is None:
            raise ProjError("COMPOUNDCRS without a horizontal CRS")
        crs = _crs_from_wkt_node(horiz)
        if vert is not None:
            unit = vert.child("LENGTHUNIT", "UNIT")
            if unit is None:
                for a in vert.children("AXIS"):
                    unit = a.child("LENGTHUNIT", "UNIT")
                    if unit is not None:
                        break
            crs.vert_to_meter = _unit_factor(unit, 1.0)
            crs.name = node.str0()
        return crs
    if kw in ("VERTCRS", "VERTICALCRS", "VERT_CS"):
        raise ProjError("standalone vertical CRS carries no horizontal "
                        "operation; wrap it in a COMPOUNDCRS")
    if kw == "BOUNDCRS":
        src = node.child("SOURCECRS")
        tr = node.child("ABRIDGEDTRANSFORMATION", "TRANSFORMATION")
        if src is None or not src.values or \
                not isinstance(src.values[0], WktNode):
            raise ProjError("BOUNDCRS without SOURCECRS")
        crs = _crs_from_wkt_node(src.values[0])
        if tr is not None:
            # grid-based transformation (EPSG 9615 NTv2): the
            # PARAMETERFILE names the lat/lon difference grid.  Never
            # silently drop an unrecognized file parameter — that
            # yields towgs84=0,0,0 and a silently wrong answer.
            pfiles = tr.children("PARAMETERFILE")
            if pfiles:
                if len(pfiles) > 1:
                    raise ProjError("BOUNDCRS: multiple PARAMETERFILEs "
                                    "are not supported")
                pf = pfiles[0]
                role = _norm(pf.str0())
                vals = [v for v in pf.values[1:] if isinstance(v, str)]
                if role != "latitudeandlongitudedifferencefile" \
                        or not vals:
                    raise ProjError(
                        f"BOUNDCRS: unsupported PARAMETERFILE "
                        f"{pf.str0()!r} (only the NTv2 latitude and "
                        f"longitude difference file is supported)")
                crs.datum.nadgrids = vals[0]
                return crs
            tw = [0.0] * 7
            order = {"xaxistranslation": 0, "yaxistranslation": 1,
                     "zaxistranslation": 2, "xaxisrotation": 3,
                     "yaxisrotation": 4, "zaxisrotation": 5,
                     "scaledifference": 6}
            for p in tr.children("PARAMETER"):
                idx = order.get(_norm(p.str0()))
                if idx is None:
                    continue
                fl = p.floats()
                if fl:
                    tw[idx] = fl[0]
                    if idx == 6 and abs(fl[0] - 1.0) < 0.1 and \
                            tr.name.upper() == "ABRIDGEDTRANSFORMATION":
                        # abridged scale is (1 + s*1e-6); proj wants ppm
                        tw[6] = (fl[0] - 1.0) * 1e6
            crs.datum.towgs84 = tw
        return crs

    if kw in ("GEOGCRS", "GEOGRAPHICCRS", "GEOGCS", "BASEGEOGCRS",
              "GEODCRS", "GEODETICCRS", "GEOCCS"):
        datum = _parse_datum_wkt(node)
        kind = "geographic"
        if kw in ("GEODCRS", "GEODETICCRS", "GEOCCS"):
            cs = node.child("CS")
            if kw == "GEOCCS" or (
                    cs is not None and any(
                        isinstance(v, str) and v.lower() == "cartesian"
                        for v in cs.values)):
                kind = "geocentric"
        crs = CRS(kind=kind, name=node.str0(), datum=datum)
        if kind == "geographic":
            crs.axis_lat_first = _geographic_axis_lat_first(node)
        return crs

    if kw in ("PROJCRS", "PROJECTEDCRS", "PROJCS"):
        base = node.child("BASEGEOGCRS", "BASEGEODCRS", "GEOGCS")
        if base is None:
            raise ProjError("projected CRS without a base geographic CRS")
        base_crs = _crs_from_wkt_node(base)
        if kw == "PROJCS":
            # WKT1: PROJECTION + flat PARAMETERs on the PROJCS node.
            # Angle parameters carry NO unit node — they are in the
            # GEOGCS angular UNIT (the reference applies that unit;
            # NTF Paris Lambert uses grads).  Pass the deg-scale as
            # the kind hint so _map_parameters scales only the
            # parameters it knows are angles.
            proj_node = node.child("PROJECTION")
            if proj_node is None:
                raise ProjError("PROJCS without PROJECTION")
            method_name = proj_node.str0()
            geog_unit = base.child("ANGLEUNIT", "UNIT")
            ang_factor = _unit_factor(geog_unit, _DEG)
            ang_scale = (None if abs(ang_factor - _DEG) < 1e-12
                         else ang_factor / _DEG)
            raw = []
            for p in node.children("PARAMETER"):
                fl = p.floats()
                raw.append((p.str0(), fl[0] if fl else 0.0, ang_scale))
            conv_name = method_name
        else:
            conv = node.child("CONVERSION")
            if conv is None:
                raise ProjError("PROJCRS without CONVERSION")
            conv_name = conv.str0()
            meth = conv.child("METHOD", "PROJECTION")
            if meth is None:
                raise ProjError("CONVERSION without METHOD")
            method_name = meth.str0()
            raw = []
            for p in conv.children("PARAMETER"):
                fl = p.floats()
                value = fl[0] if fl else 0.0
                unit = p.child("ANGLEUNIT", "LENGTHUNIT", "SCALEUNIT",
                               "UNIT")
                if unit is not None:
                    uname = unit.str0().lower()
                    if "angle" in unit.name.lower() or uname in (
                            "degree", "grad", "radian", "arc-second",
                            "arcsecond"):
                        value = _angle_value_deg(value, unit)
                    else:
                        value = value * _unit_factor(unit, 1.0)
                raw.append((p.str0(), value, None))
        spec = _resolve_method(method_name)
        params = _map_parameters(spec, raw)
        unit_node = node.child("LENGTHUNIT", "UNIT")
        # WKT2 keeps the unit inside CS[...]? No — axes/unit are
        # siblings of CS per ISO 19162; search top level then axes
        if unit_node is None:
            ax = node.children("AXIS")
            for a in ax:
                u = a.child("LENGTHUNIT", "UNIT")
                if u is not None:
                    unit_node = u
                    break
        unit_to_meter = _unit_factor(unit_node, 1.0)
        return CRS(kind="projected", name=node.str0(),
                   datum=base_crs.datum,
                   conversion=Conversion(conv_name, method_name,
                                         spec.proj, params,
                                         list(spec.flags)),
                   unit_to_meter=unit_to_meter)

    raise ProjError(f"unsupported WKT root {node.name!r} (vertical / "
                    "compound / engineering CRS are out of scope)")


# ---------------------------------------------------------------------------
# PROJJSON -> CRS
# ---------------------------------------------------------------------------


def _pj_unit_factor(unit, default_kind: str) -> float:
    """PROJJSON unit (string name or object) -> factor to SI."""
    if unit is None:
        return 1.0
    if isinstance(unit, str):
        return {"metre": 1.0, "meter": 1.0, "degree": _DEG,
                "unity": 1.0, "radian": 1.0,
                "arc-second": _DEG / 3600.0,
                "grad": _DEG * 0.9,
                "parts per million": 1e-6}.get(unit, 1.0)
    return float(unit.get("conversion_factor", 1.0))


def _pj_angle_deg(value: float, unit) -> float:
    if unit is None or unit == "degree":
        return value
    return value * _pj_unit_factor(unit, "angle") / _DEG


def _parse_datum_projjson(obj: dict) -> Datum:
    datum = obj.get("datum")
    if datum is None:
        ens = obj.get("datum_ensemble")
        if ens is None:
            raise ProjError("PROJJSON CRS without datum/datum_ensemble")
        ell = ens["ellipsoid"]
        name = ens.get("name", "unknown")
    else:
        ell = datum["ellipsoid"]
        name = datum.get("name", "unknown")
    a = float(ell["semi_major_axis"] if "semi_major_axis" in ell
              else ell["radius"])
    if "inverse_flattening" in ell:
        rf = float(ell["inverse_flattening"])
    elif "semi_minor_axis" in ell:
        b = float(ell["semi_minor_axis"])
        rf = a / (a - b) if a != b else 0.0
    else:
        rf = 0.0
    pm_deg, pm_name = 0.0, "Greenwich"
    pm = (datum or {}).get("prime_meridian")
    if pm:
        pm_deg = _pj_angle_deg(float(pm.get("longitude", 0.0)),
                               pm.get("unit"))
        pm_name = pm.get("name", "unknown")
    return Datum(name, Ellipsoid(ell.get("name", "unknown"), a, rf),
                 prime_meridian_deg=pm_deg, prime_meridian_name=pm_name)


def _crs_from_projjson(obj: dict) -> CRS:
    t = obj.get("type")
    if t == "CompoundCRS":
        comps = obj.get("components", [])
        horiz = next((c for c in comps
                      if c.get("type") in ("ProjectedCRS",
                                           "GeographicCRS",
                                           "GeodeticCRS", "BoundCRS")),
                     None)
        vert = next((c for c in comps
                     if c.get("type") == "VerticalCRS"), None)
        if horiz is None:
            raise ProjError("CompoundCRS without a horizontal CRS")
        crs = _crs_from_projjson(horiz)
        if vert is not None:
            axes = (vert.get("coordinate_system") or {}).get("axis") \
                or []
            unit = axes[0].get("unit") if axes else "metre"
            crs.vert_to_meter = _pj_unit_factor(unit, "linear")
            crs.name = obj.get("name", crs.name)
        return crs
    if t == "BoundCRS":
        crs = _crs_from_projjson(obj["source_crs"])
        tr = obj.get("transformation", {})
        params = tr.get("parameters", [])
        pfiles = [p for p in params if isinstance(p.get("value"), str)]
        if pfiles:
            # grid-based transformation: never silently read a file
            # parameter as towgs84 zeros
            if len(pfiles) > 1 or _norm(pfiles[0].get("name", "")) != \
                    "latitudeandlongitudedifferencefile":
                raise ProjError(
                    "BoundCRS: unsupported file parameter "
                    f"{pfiles[0].get('name')!r} (only the NTv2 latitude "
                    "and longitude difference file is supported)")
            crs.datum.nadgrids = pfiles[0]["value"]
            return crs
        tw = [0.0] * 7
        order = {"xaxistranslation": 0, "yaxistranslation": 1,
                 "zaxistranslation": 2, "xaxisrotation": 3,
                 "yaxisrotation": 4, "zaxisrotation": 5,
                 "scaledifference": 6}
        for p in params:
            idx = order.get(_norm(p.get("name", "")))
            if idx is not None:
                tw[idx] = float(p.get("value", 0.0))
        crs.datum.towgs84 = tw
        return crs
    if t == "GeographicCRS":
        crs = CRS(kind="geographic", name=obj.get("name", "unknown"),
                  datum=_parse_datum_projjson(obj))
        axes = (obj.get("coordinate_system") or {}).get("axis") or []
        if axes:
            d0 = axes[0].get("direction", "")
            crs.axis_lat_first = d0 == "north"
        return crs
    if t in ("GeodeticCRS",):
        cs = (obj.get("coordinate_system") or {})
        kind = "geocentric" if cs.get("subtype") == "Cartesian" \
            else "geographic"
        return CRS(kind=kind, name=obj.get("name", "unknown"),
                   datum=_parse_datum_projjson(obj))
    if t == "ProjectedCRS":
        base = _crs_from_projjson(obj["base_crs"])
        conv = obj["conversion"]
        method_name = conv["method"]["name"]
        spec = _resolve_method(method_name)
        raw = []
        for p in conv.get("parameters", []):
            name = p["name"]
            value = float(p.get("value", 0.0))
            unit = p.get("unit")
            key = _norm(name)
            target = spec.params.get(key, _COMMON_PARAMS.get(key))
            if target is not None and target[1] == _P_ANGLE:
                value = _pj_angle_deg(value, unit)
            elif unit is not None and not isinstance(unit, str):
                value = value * _pj_unit_factor(unit, "linear")
            raw.append((name, value, None))
        params = _map_parameters(spec, raw)
        unit_to_meter = 1.0
        axes = (obj.get("coordinate_system") or {}).get("axis") or []
        if axes:
            unit_to_meter = _pj_unit_factor(axes[0].get("unit"), "linear")
        return CRS(kind="projected", name=obj.get("name", "unknown"),
                   datum=base.datum,
                   conversion=Conversion(conv.get("name", method_name),
                                         method_name, spec.proj, params,
                                         list(spec.flags)),
                   unit_to_meter=unit_to_meter)
    raise ProjError(f"unsupported PROJJSON type {t!r}")


# ---------------------------------------------------------------------------
# proj string -> CRS (for EPSG:NNNN via the init shim)
# ---------------------------------------------------------------------------


def _crs_from_proj_string(defn: str, name: str = "") -> CRS:
    from proj_ray.epsg_init import expand_datum
    from proj_ray.ops.base import Params, resolve_ellipsoid

    params = Params.parse(expand_datum(Params.normalize(defn)))
    proj = params.s("proj")
    ell = resolve_ellipsoid(params)
    rf = 0.0
    if ell.es > 0:
        f = 1.0 - (1.0 - ell.es) ** 0.5
        rf = 1.0 / f
    towgs84 = None
    if params.s("towgs84"):
        towgs84 = [float(v) for v in params.s("towgs84").split(",")]
    pm_deg = 0.0
    if params.has("pm"):
        from proj_ray.ops.base import PRIME_MERIDIANS, parse_angle_deg

        pm_s = params.s("pm")
        pm_deg = parse_angle_deg(PRIME_MERIDIANS.get(pm_s, pm_s))
    datum = Datum(name or "unknown", Ellipsoid("unknown", ell.a, rf),
                  towgs84=towgs84,
                  nadgrids=params.s("nadgrids") or None,
                  prime_meridian_deg=pm_deg)
    if proj in ("longlat", "latlong", "lonlat", "latlon"):
        return CRS(kind="geographic", name=name or "unknown", datum=datum,
                   axis_lat_first=proj.startswith("lat"))
    if proj == "geocent":
        return CRS(kind="geocentric", name=name or "unknown", datum=datum)
    if proj == "utm":
        zone = int(params.f("zone"))
        south = params.b("south")
        conv = Conversion(f"UTM zone {zone}{'S' if south else 'N'}",
                          "Transverse Mercator", "tmerc",
                          {"lat_0": 0.0, "lon_0": zone * 6.0 - 183.0,
                           "k_0": 0.9996, "x_0": 500000.0,
                           "y_0": 10000000.0 if south else 0.0})
        return CRS(kind="projected", name=name or "unknown", datum=datum,
                   conversion=conv)
    # generic: carry proj params through verbatim
    carry = {}
    for key in ("lat_0", "lon_0", "lat_1", "lat_2", "lat_ts", "lonc",
                "alpha", "gamma", "k_0", "k", "x_0", "y_0", "h",
                "lon_1", "lon_2"):
        if params.has(key):
            carry["k_0" if key == "k" else key] = params.f(key)
    flags = [f for f in ("no_uoff", "south", "czech")
             if params.b(f)] + (
        [f"sweep={params.s('sweep')}"] if params.s("sweep") else [])
    conv = Conversion(name or proj, proj, proj, carry, flags)
    return CRS(kind="projected", name=name or "unknown", datum=datum,
               conversion=conv)


# ---------------------------------------------------------------------------
# CRS pair -> executable pipeline
# ---------------------------------------------------------------------------


def crs_to_crs(src, dst, always_xy: bool = True):
    """Build the transformation pipeline between two CRS.

    ``src``/``dst`` accept CRS objects, WKT text, PROJJSON (str/dict),
    "EPSG:NNNN" (init shim), or raw proj strings.  The result is the
    classic composition the reference's cs2cs app uses —
    ``+proj=pipeline +step +inv <src> +step <dst>`` — with +towgs84
    ball-park datum shifts applied inside each step's prepare/finalize
    (ops/base.py:406-448).  ``always_xy`` keeps the caller's arrays in
    lon,lat (GIS) order regardless of the CRS's declared axis order,
    matching proj_normalize_for_visualization semantics; axis-order
    honoring input is not implemented (pass lon,lat).
    """
    from proj_ray.pipeline import create_operation

    def to_defn(v) -> str:
        if isinstance(v, str) and (v.lstrip().startswith("+")
                                   or v.lstrip().startswith("proj=")):
            return v.strip()
        return CRS.from_user_input(v).to_proj_string()

    s, d = to_defn(src), to_defn(dst)
    if not always_xy:
        raise ProjError("crs_to_crs: only always_xy=True (lon,lat "
                        "order) is supported")
    return create_operation(f"+proj=pipeline +step +inv {s} +step {d}")


# ---------------------------------------------------------------------------
# Prepared operations: CRS pair -> candidate ladder (cs2cs parity)
# ---------------------------------------------------------------------------


def _strip_towgs84(defn: str) -> str:
    return re.sub(r"\s\+?towgs84=\S+", "", " " + defn).strip()


def _reproject_bbox(defn: str, w: float, s: float, e: float, n: float):
    """Project a lon/lat area-of-use box into the CRS's own coordinates
    by sampling a 20-step grid along each edge — the vectorized mirror
    of the reference's reproject_bbox (src/4D_api.cpp:1645-1692).
    Whole-world boxes become unbounded (reference: +/-DBL_MAX); a box
    none of whose samples transform returns None (the reference drops
    the candidate when minx > maxx)."""
    import numpy as np

    from proj_ray.pipeline import create_operation, transform_arrays

    if (w, s, e, n) == (-180.0, -90.0, 180.0, 90.0):
        return (-np.inf, -np.inf, np.inf, np.inf)
    steps = 20
    lon_edge = np.linspace(w, e, steps + 1)
    lat_edge = np.linspace(s, n, steps + 1)
    x = np.concatenate([lon_edge, lon_edge,
                        np.full(steps + 1, w), np.full(steps + 1, e)])
    y = np.concatenate([np.full(steps + 1, s), np.full(steps + 1, n),
                        lat_edge, lat_edge])
    p = create_operation(defn)
    c = transform_arrays(p, x, y)
    ok = (c.err == 0) & np.isfinite(c.x) & np.isfinite(c.y)
    if not ok.any():
        return None
    return (float(c.x[ok].min()), float(c.y[ok].min()),
            float(c.x[ok].max()), float(c.y[ok].max()))


def prepared_crs_to_crs(src, dst, datum_ops=None, always_xy: bool = True):
    """CRS pair -> per-point candidate ladder: the engine analogue of
    proj_create_crs_to_crs + pj_create_prepared_operations (reference
    src/4D_api.cpp:1953-2046).  Returns an ``AltOperation``
    (opselect.py) — pipeline-compatible, usable anywhere
    ``create_operation``'s result is.

    Without an EPSG database, the candidate *datum* operations are an
    explicit list (the engine contract, SURVEY §2.7): each entry is a
    dict describing one source-datum -> hub (WGS84) alternative, with

      towgs84:  3/7 Helmert parameters, applied on the source leg
      hgrids:   grid name(s) for a ``+proj=hgridshift`` hub step
      bbox:     (west, south, east, north) lon/lat area of use
      accuracy: metres (omit or -1 = unknown)
      name / offshore / priority: passthrough flags

    Like the reference, each candidate's lon/lat area of use is
    reprojected into src/dst coordinates by boundary sampling
    (``_reproject_bbox``), antimeridian-crossing boxes (west > east)
    split into two candidates (4D_api.cpp:2023-2040), and candidates
    whose box collapses under reprojection are dropped.  An empty list
    yields the single whole-world crs_to_crs composition flagged
    unknown_area — the ballpark fallback."""
    from proj_ray.opselect import Candidate

    def to_defn(v) -> str:
        if isinstance(v, str) and (v.lstrip().startswith("+")
                                   or v.lstrip().startswith("proj=")):
            return v.strip()
        return CRS.from_user_input(v).to_proj_string()

    if not always_xy:
        raise ProjError("prepared_crs_to_crs: only always_xy=True "
                        "(lon,lat order) is supported")
    s_full, d = to_defn(src), to_defn(dst)
    s_base = _strip_towgs84(s_full)

    if not datum_ops:
        return _alt([Candidate(
            f"+proj=pipeline +step +inv {s_full} +step {d}",
            bbox_src=(-float("inf"),) * 2 + (float("inf"),) * 2,
            accuracy=-1.0, unknown_area=True, name="ballpark")])

    cands: List[Candidate] = []
    for op in datum_ops:
        if "towgs84" in op:
            shift = ",".join(_fmt_num(v) for v in op["towgs84"])
            defn = (f"+proj=pipeline +step +inv {s_base} "
                    f"towgs84={shift} +step {d}")
        elif "hgrids" in op:
            defn = (f"+proj=pipeline +step +inv {s_base} "
                    f"+step +proj=hgridshift +grids={op['hgrids']} "
                    f"+step {d}")
        else:
            defn = f"+proj=pipeline +step +inv {s_base} +step {d}"
        boxes = [tuple(op.get("bbox") or (-180.0, -90.0, 180.0, 90.0))]
        if boxes[0][0] > boxes[0][2]:
            # antimeridian-crossing area of use: two candidates
            w0, s0, e0, n0 = boxes[0]
            boxes = [(w0, s0, 180.0, n0), (-180.0, s0, e0, n0)]
        for box in boxes:
            bs = _reproject_bbox(s_base, *box)
            bd = _reproject_bbox(d, *box)
            if bs is None or bd is None:
                continue  # box collapses in this CRS: drop (reference
                # add_coord_op_to_list's minx > maxx case)
            cands.append(Candidate(
                defn, bbox_src=bs, bbox_dst=bd,
                accuracy=float(op.get("accuracy", -1.0)),
                offshore=bool(op.get("offshore", False)),
                priority=bool(op.get("priority", False)),
                unknown_area="bbox" not in op,
                name=str(op.get("name", ""))))
    if not cands:
        raise ProjError("prepared_crs_to_crs: every candidate's area "
                        "of use collapsed under reprojection")
    return _alt(cands)


def _alt(cands):
    from proj_ray.opselect import AltOperation

    return AltOperation(cands)
