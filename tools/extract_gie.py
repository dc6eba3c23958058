#!/usr/bin/env python
"""Extract gie test cases from the reference corpus into a compact JSON
fixture (tests/data/gie_cases.json).

The gie DSL is described by its interpreter (reference
src/apps/gie.cpp:151-171 tag table, :1355-1440 record assembly):
instructions run from a tag to the next tag or decorative element;
<gie>/<gie-strict> blocks delimit test content.  We extract the numeric
content only (operation string, accept/expect coordinates, tolerances,
roundtrips) — the fixture is DATA, the interpreter lives in
tests/gie_runner.py.

Usage: python tools/extract_gie.py [--ref DIR]

DIR is the reference's test directory (holding gie/ and gigs/).  It
defaults to $PROJ_REFERENCE/test, then REF below; with none present the
tool exits non-zero naming the searched paths.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

REF = "/root/reference/test"
OUT = os.path.join(os.path.dirname(__file__), "..", "tests", "data",
                   "gie_cases.json")

FILES = [
    "gie/builtins.gie",
    "gie/more_builtins.gie",
    "gie/ellipsoid.gie",
    "gie/axisswap.gie",
    "gie/unitconvert.gie",
    "gie/4D-API_cs2cs-style.gie",
    "gie/DHDN_ETRS89.gie",
    "gie/GDA.gie",
    "gie/adams_hemi.gie",
    "gie/adams_ws1.gie",
    "gie/adams_ws2.gie",
    "gie/guyou.gie",
    "gie/peirce_q.gie",
    "gie/tinshift.gie",
    "gie/deformation.gie",
    "gie/geotiff_grids.gie",
    "gie/gridshift.gie",
    "gie/defmodel.gie",
    "gie/nkg.gie",
    "gigs/5101.1-jhs.gie",
    "gigs/5101.2-jhs.gie",
    "gigs/5101.3-jhs.gie",
    "gigs/5101.4-jhs-etmerc.gie",
    "gigs/5102.1.gie",
    "gigs/5102.2.gie",
    "gigs/5103.1.gie",
    "gigs/5103.2.gie",
    "gigs/5103.3.gie",
    "gigs/5104.gie",
    "gigs/5105.2.gie",
    "gigs/5106.gie",
    "gigs/5107.gie",
    "gigs/5108.gie",
    "gigs/5109.gie",
    "gigs/5111.1.gie",
    "gigs/5112.gie",
    "gigs/5113.gie",
    "gigs/5201.gie",
    "gigs/5208.gie",
]

TAGS = (
    "operation", "crs_src", "crs_dst", "use_proj4_init_rules", "accept",
    "expect", "roundtrip", "banner", "verbose", "direction", "tolerance",
    "ignore", "require_grid", "echo", "skip",
)

DECOR = re.compile(r"^\s*([-=*%#]{4,}|#)")

UNITS_M = {
    "m": 1.0, "meter": 1.0, "meters": 1.0,
    "dm": 0.1, "cm": 0.01, "mm": 0.001,
    "um": 1e-6, "nm": 1e-9, "km": 1000.0,
}


def parse_tolerance(args: str) -> float:
    mo = re.match(r"\s*([-+0-9.eE]+)\s*([a-z]*)", args)
    v = float(mo.group(1))
    unit = mo.group(2)
    if unit:
        v *= UNITS_M[unit]
    return v


def parse_coord(args: str):
    vals = []
    for tok in args.replace(",", " ").split():
        try:
            vals.append(float(tok))
        except ValueError:
            break
    if not vals:
        return None, 0
    dims = len(vals)
    vals = (vals + [0.0, 0.0, 0.0, 0.0])[:4]
    return vals, dims


def iter_instructions(path: str):
    """Yield (tag, args, lineno) for one gie file."""
    level = 0
    cur_tag = None
    cur_args: list = []
    cur_line = 0
    with open(path, errors="replace") as f:
        for lineno, raw in enumerate(f, 1):
            # strip inline comments ('\ # note' style appears in the corpus)
            line = re.sub(r"\s#.*$", "", raw.rstrip())
            s = line.strip()
            if s.startswith("<gie") and s.rstrip(">").rstrip("-strict").rstrip("<") is not None:
                if s.startswith("<gie>") or s.startswith("<gie-strict>"):
                    level = 1
                    continue
            if s.startswith("</gie"):
                if cur_tag:
                    yield cur_tag, " ".join(cur_args), cur_line
                    cur_tag = None
                level = 0
                continue
            if not level:
                continue
            if not s or DECOR.match(s):
                if cur_tag:
                    yield cur_tag, " ".join(cur_args), cur_line
                    cur_tag = None
                continue
            tag = next((t for t in TAGS if s.startswith(t)), None)
            if tag is not None:
                if cur_tag:
                    yield cur_tag, " ".join(cur_args), cur_line
                cur_tag = tag
                cur_args = [s[len(tag):].strip()]
                cur_line = lineno
            elif cur_tag:
                cur_args.append(s)
    if cur_tag:
        yield cur_tag, " ".join(cur_args), cur_line


def _xyz_to_ll_deg(xyz):
    """Geocentric XYZ -> (lon_deg, lat_deg) on GRS80 (closed-form
    spherical-ish iteration is overkill for a bbox test; one Bowring
    step is plenty)."""
    import math

    x, y, z = xyz[0], xyz[1], xyz[2]
    a = 6378137.0
    es = 0.00669438002290
    lon = math.degrees(math.atan2(y, x))
    p = math.hypot(x, y)
    lat = math.atan2(z, p * (1 - es))
    for _ in range(3):
        n = a / math.sqrt(1 - es * math.sin(lat) ** 2)
        lat = math.atan2(z + es * n * math.sin(lat), p)
    return lon, math.degrees(lat)


_GRID_BBOX_CACHE: dict = {}


def _grids_cover(defn: str, accept, dims: int):
    """For an expanded operation that references grid files, return None
    when every grid resolves AND its bbox contains the accept point,
    else the drop reason.  Used for files (nkg.gie) whose reference CI
    runs against CDN-distributed grids: only extracts ship here, so
    cases outside extract coverage cannot be asserted."""
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
    from proj_ray.ops.gridshift import resolve_grid_path

    grids = re.findall(r"\+grids=([^\s+]+)", defn)
    if not grids:
        return None
    try:
        lon, lat = _xyz_to_ll_deg(accept)
    except Exception:
        return "grid_coverage_unknown"
    for name in grids:
        path = resolve_grid_path(name)
        if path is None:
            return "grid_missing"
        if path not in _GRID_BBOX_CACHE:
            from proj_ray.ops.geotiff import read_geotiff
            import numpy as np

            boxes = []
            try:
                for g in read_geotiff(path):
                    w, s = np.degrees(g.west), np.degrees(g.south)
                    e = np.degrees(g.west + g.res_x * (g.nx - 1))
                    n = np.degrees(g.south + g.res_y * (g.ny - 1))
                    boxes.append((w, s, e, n))
            except Exception:
                return "grid_unreadable"
            _GRID_BBOX_CACHE[path] = boxes
        if not any(w <= lon <= e and s <= lat <= n
                   for (w, s, e, n) in _GRID_BBOX_CACHE[path]):
            return "grid_coverage"
    return None


def extract(path: str, relname: str):
    cases = []
    drops: dict = {}

    def drop(reason: str):
        drops[reason] = drops.get(reason, 0) + 1

    op = None
    op_line = 0
    tol = 0.0005
    direction = "forward"
    accept = None
    accept_dims = 0
    ignore = False
    require_grid = False
    skip_block = False
    for tag, args, lineno in iter_instructions(path):
        if tag == "operation":
            op = args
            op_line = lineno
            tol = 0.0005
            direction = "forward"
            accept = None
            ignore = False
            require_grid = False
            skip_block = False
        elif tag in ("crs_src", "crs_dst", "use_proj4_init_rules"):
            skip_block = True
        elif tag == "skip":
            break
        elif tag == "tolerance":
            tol = parse_tolerance(args)
        elif tag == "direction":
            direction = args.strip()
        elif tag == "ignore":
            ignore = True
        elif tag == "require_grid":
            # gie semantics (gie.cpp): skip the block only when the named
            # grid is NOT available.  DHDN_ETRS89.gie's second half gates
            # on BETA2007.gsb, which ships in data/tests/ — those blocks
            # run in the reference CI and must run here too.
            sys.path.insert(0, os.path.join(
                os.path.dirname(__file__), ".."))
            from proj_ray.ops.gridshift import resolve_grid_path

            # any one missing grid skips the block, so accumulate
            require_grid = require_grid or \
                resolve_grid_path(args.strip()) is None
        elif tag == "accept":
            accept, accept_dims = parse_coord(args)
        elif tag == "roundtrip":
            if op is None or accept is None or skip_block or ignore \
               or require_grid:
                if op is not None and accept is not None:
                    drop("skip_block" if skip_block else
                         "ignore" if ignore else "require_grid")
                continue
            parts = args.split()
            n = int(parts[0])
            rtol = parse_tolerance(" ".join(parts[1:])) if len(parts) > 1 else tol
            cases.append({
                "case_id": f"{relname}:{lineno}",
                "operation": op,
                "op_line": op_line,
                "direction": direction,
                "accept": accept,
                "accept_dims": accept_dims,
                "roundtrip": n,
                "tolerance_m": rtol,
            })
        elif tag == "expect":
            if op is None or skip_block or ignore or require_grid:
                if op is not None:
                    drop("skip_block" if skip_block else
                         "ignore" if ignore else "require_grid")
                continue
            if op.startswith("urn:"):
                # OGC URN operations (nkg.gie): keep only cases the shim
                # can expand AND whose accept point falls inside the
                # shipped (extract) grids; the reference CI runs these
                # against full CDN grids we do not have.
                sys.path.insert(0, os.path.join(
                    os.path.dirname(__file__), ".."))
                from proj_ray.epsg_init import expand_urn

                expanded = expand_urn(op)
                if expanded == op:
                    drop("urn_unsupported")
                    continue
                acc_probe, _ = parse_coord(args) if accept is None \
                    else (accept, accept_dims)
                reason = _grids_cover(expanded, acc_probe, accept_dims)
                if reason:
                    drop(reason)
                    continue
            if args.startswith("failure"):
                if accept is None:
                    continue
                mo = re.search(r"errno\s+(\S+)", args)
                cases.append({
                    "case_id": f"{relname}:{lineno}",
                    "operation": op,
                    "op_line": op_line,
                    "direction": direction,
                    "accept": accept,
                    "accept_dims": accept_dims,
                    "expect_failure": True,
                    "errno_name": mo.group(1) if mo else None,
                    "tolerance_m": tol,
                })
                continue
            exp, exp_dims = parse_coord(args)
            if exp is None or accept is None:
                continue
            cases.append({
                "case_id": f"{relname}:{lineno}",
                "operation": op,
                "op_line": op_line,
                "direction": direction,
                "accept": accept,
                "accept_dims": accept_dims,
                "expect": exp,
                "expect_dims": exp_dims,
                "tolerance_m": tol,
            })
    return cases, drops


DROPPED = os.path.join(os.path.dirname(__file__), "..", "tests", "data",
                       "gie_dropped.json")


def ref_candidates(ref: str | None = None) -> list:
    """Reference test directories to search, in order."""
    if ref:
        return [ref]
    env = os.environ.get("PROJ_REFERENCE")
    return ([os.path.join(env, "test")] if env else []) + [REF]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--ref", metavar="DIR",
                    help="reference test directory (default: "
                    f"$PROJ_REFERENCE/test, then {REF})")
    searched = ref_candidates(ap.parse_args(argv).ref)
    ref = next((d for d in searched if os.path.isdir(d)), None)
    if ref is None:
        sys.exit("extract_gie: no reference test directory; searched: "
                 + ", ".join(searched))
    all_cases = []
    all_drops = {}
    for rel in FILES:
        path = os.path.join(ref, rel)
        if not os.path.exists(path):
            print(f"missing {path}", file=sys.stderr)
            continue
        cases, drops = extract(path, rel)
        note = ""
        if drops:
            all_drops[rel] = drops
            note = " dropped: " + ", ".join(
                f"{k}={v}" for k, v in sorted(drops.items()))
        print(f"{rel}: {len(cases)} cases{note}")
        all_cases.extend(cases)
    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    with open(OUT, "w") as f:
        json.dump(all_cases, f)
    with open(DROPPED, "w") as f:
        json.dump(all_drops, f, indent=1, sort_keys=True)
    n_drop = sum(sum(d.values()) for d in all_drops.values())
    print(f"total {len(all_cases)} (+{n_drop} dropped, "
          f"see tests/data/gie_dropped.json) -> {OUT}")


if __name__ == "__main__":
    main()
