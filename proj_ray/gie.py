"""gie conformance-case runner.

Executes cases extracted from the reference's gie corpus
(tools/extract_gie.py -> tests/data/gie_cases.json) with the semantics of
the reference interpreter (src/apps/gie.cpp):

* input/expected coordinates are converted deg->rad when the operation's
  I/O units are angular in the run direction (gie.cpp:982,1024-1030,
  torad_coord gie.cpp:704-716 — only axes tagged 'news' convert);
* output dimensions not given in the expectation are masked
  (gie.cpp:1041-1046);
* deviation = geodesic distance (+ vertical hypot) for angular output,
  3-D Euclidean otherwise (gie.cpp:1056-1062, src/4D_api.cpp:121-163);
* `expect failure` passes when the transform flags the row
  (gie.cpp:941-1005);
* `roundtrip n tol` applies fwd∘inv n times and compares drift
  (gie.cpp:806-860);
* a case whose operation names a grid, model or TIN file that this host
  cannot find is skipped and counted, per file, as gie's `require_grid`
  skips its block; the extracted corpus carries no file requirements,
  so the check runs here, on the expanded operation;
* an error raised while transforming flags the row like the reference's
  errno: the case fails with the message (passes under
  `expect failure`) and the run carries on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from proj_ray.core import mathops as m
from proj_ray.core.coords import Coords
from proj_ray.core.ellipsoid import Ellipsoid
from proj_ray.ops.base import Params, ProjError, RADIANS, resolve_ellipsoid
from proj_ray.ops.gridshift import missing_files
from proj_ray.pipeline import Pipeline, create_operation

_op_cache: Dict[str, Pipeline] = {}
_err_cache: Dict[str, str] = {}


def _get_op(defn: str):
    if defn in _op_cache:
        return _op_cache[defn], None
    if defn in _err_cache:
        return None, _err_cache[defn]
    try:
        p = create_operation(defn)
        _op_cache[defn] = p
        return p, None
    except ProjError as e:
        _err_cache[defn] = str(e)
        return None, str(e)
    except Exception as e:  # setup bug — surface as error string
        _err_cache[defn] = f"EXC:{type(e).__name__}: {e}"
        return None, _err_cache[defn]


def pipeline_ellipsoid(defn: str) -> Ellipsoid:
    """Ellipsoid used for gie's angular-distance metric: resolved from the
    operation's (global) parameters, mirroring T.P->geod init."""
    toks = [t.lstrip("+") for t in defn.split()]
    if "proj=pipeline" in toks:
        idx = next((i for i, t in enumerate(toks) if t == "step"), len(toks))
        toks = toks[:idx]
    try:
        return resolve_ellipsoid(Params.parse(" ".join(toks)))
    except Exception:
        from proj_ray.core.ellipsoid import WGS84

        return WGS84


def geodesic_deviation(ell: Ellipsoid, lam1, phi1, lam2, phi2) -> float:
    """Karney geodesic distance between two angular coords (radians) on
    the operation's ellipsoid — the reference metric of proj_lp_dist
    (src/4D_api.cpp:138-148)."""
    if np.isnan([lam1, phi1, lam2, phi2]).any():
        return np.inf
    from proj_ray.functions.geodesic import geodesic

    g = geodesic(ell.a, ell.f)
    s12, _, _ = g.inverse(np.degrees(phi1), np.degrees(lam1),
                          np.degrees(phi2), np.degrees(lam2))
    return float(s12)


@dataclass
class GieResult:
    total: int = 0
    passed: int = 0
    failed: int = 0
    unsupported: int = 0
    skipped: int = 0
    fail_cases: List[dict] = field(default_factory=list)
    unsupported_ops: Dict[str, int] = field(default_factory=dict)
    skipped_files: Dict[str, int] = field(default_factory=dict)

    @property
    def pass_rate(self) -> float:
        run = self.passed + self.failed
        return self.passed / run if run else 1.0


def _axis_convert_mask(defn: str, inverse: bool) -> List[bool]:
    """Which of v[0..3] are angular per torad_coord (gie.cpp:704-716)."""
    axis = "enut"
    if inverse:
        for tok in defn.split():
            tok = tok.lstrip("+")
            if tok.startswith("axis="):
                axis = tok[5:]
    return [c in "news" for c in axis] + [False] * (4 - len(axis))


def run_case(case: dict) -> tuple:
    """Returns (status, detail); status in {pass, fail, unsupported}."""
    defn = case["operation"]
    p, err = _get_op(defn)
    if p is None:
        if case.get("expect_failure"):
            return "pass", None
        if err and (err.startswith("unknown or unsupported") or
                    err.startswith("EXC:")):
            return "unsupported", err
        return "fail", f"setup: {err}"
    try:
        return _check_case(case, p)
    except ProjError as e:
        if case.get("expect_failure"):
            return "pass", None
        return "fail", f"transform: {e}"


def _check_case(case: dict, p: Pipeline) -> tuple:
    defn = case["operation"]
    inverse = case.get("direction", "forward").startswith(("inv", "rev"))
    angular_in = (p.right if inverse else p.left) == RADIANS
    angular_out = (p.left if inverse else p.right) == RADIANS

    a = np.array(case["accept"], dtype=np.float64)
    if angular_in:
        mask = _axis_convert_mask(defn, inverse)
        for i in range(4):
            if mask[i]:
                a[i] *= m.DEG_TO_RAD

    def trans(vals, inv):
        c = Coords(np.array([vals[0]]), np.array([vals[1]]),
                   np.array([vals[2]]), np.array([vals[3]]))
        c = p.inv(c) if inv else p.fwd(c)
        return c

    if "roundtrip" in case:
        n = case["roundtrip"]
        vals = a.copy()
        for _ in range(n):
            c = trans(vals, inverse)
            vals = np.array([c.x[0], c.y[0], c.z[0], c.t[0]])
            c = trans(vals, not inverse)
            vals = np.array([c.x[0], c.y[0], c.z[0], c.t[0]])
        if np.isnan(a).all() and np.isnan(vals).all():
            return "pass", None  # NaN propagates NaN (4D_api.cpp:540)
        if np.isnan(vals[:2]).any():
            return "fail", "roundtrip produced NaN"
        if angular_in:
            ell = pipeline_ellipsoid(defn)
            d = geodesic_deviation(ell, a[0], a[1], vals[0], vals[1])
            d = float(np.hypot(d, a[2] - vals[2]))
        else:
            d = float(np.hypot(np.hypot(a[0] - vals[0], a[1] - vals[1]),
                               a[2] - vals[2]))
        if d <= case["tolerance_m"]:
            return "pass", None
        return "fail", f"roundtrip deviation {d:.3e} > {case['tolerance_m']}"

    c = trans(a, inverse)
    got = np.array([c.x[0], c.y[0], c.z[0], c.t[0]])
    failed_row = bool(c.err[0] != 0) or np.isnan(got[0])

    if case.get("expect_failure"):
        return ("pass", None) if failed_row else ("fail", "failed to fail")

    e = np.array(case["expect"], dtype=np.float64)
    exp_dims = case.get("expect_dims", 2)
    if exp_dims < 4:
        got[3] = 0.0
    if exp_dims < 3:
        got[2] = 0.0

    if angular_out:
        mask = _axis_convert_mask(defn, not inverse)
        er = e.copy()
        for i in range(4):
            if mask[i]:
                er[i] *= m.DEG_TO_RAD
        if np.isnan(got[0]) and np.isnan(er[0]):
            d = 0.0
        else:
            ell = pipeline_ellipsoid(defn)
            d = geodesic_deviation(ell, er[0], er[1], got[0], got[1])
            d = float(np.hypot(d, er[2] - got[2]))
    else:
        if np.isnan(got[0]) and np.isnan(e[0]):
            d = 0.0
        else:
            d = float(np.hypot(np.hypot(got[0] - e[0], got[1] - e[1]),
                               got[2] - e[2]))
    if not (d <= case["tolerance_m"]):
        return "fail", f"deviation {d:.6e} > {case['tolerance_m']} got={got[:exp_dims]} want={e[:exp_dims]}"
    return "pass", None


def run_cases(cases: List[dict],
              only_ops: Optional[set] = None) -> GieResult:
    res = GieResult()
    for case in cases:
        opname = _proj_names(case["operation"])
        if only_ops is not None and not (opname & only_ops):
            continue
        res.total += 1
        missing = missing_files(case["operation"])
        if missing:
            res.skipped += 1
            for name in missing:
                res.skipped_files[name] = res.skipped_files.get(name, 0) + 1
            continue
        status, detail = run_case(case)
        if status == "pass":
            res.passed += 1
        elif status == "unsupported":
            res.unsupported += 1
            for nm in opname:
                res.unsupported_ops[nm] = res.unsupported_ops.get(nm, 0) + 1
        else:
            res.failed += 1
            res.fail_cases.append({"case": case["case_id"],
                                   "op": case["operation"][:100],
                                   "detail": detail})
    return res


def _proj_names(defn: str) -> set:
    out = set()
    for tok in defn.split():
        tok = tok.lstrip("+")
        if tok.startswith("proj="):
            out.add(tok[5:])
    return out


def load_cases(path: str) -> List[dict]:
    with open(path) as f:
        return json.load(f)
