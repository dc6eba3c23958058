"""Single-core driver-side layer measurements on one pre-generated batch.

Input generation is outside every timed call.  Each figure is the
median of repeated calls of one public function, so it is the layer's
own speed with no Ray in the way.

Kernel batch: 262,144 coordinates.  Bytes moved are counted, not
measured: x and y in plus x and y out at 8 bytes each is 32 B/coord,
8 MiB per call, which fits the last-level cache of the host the
fingerprint reports (105 MiB on the 4-vCPU Xeon this was sized on).
"""

from __future__ import annotations

import statistics
import time
from contextlib import nullcontext

import numpy as np

KERNEL_COORDS = 1 << 18
GEOD_PAIRS = 1 << 15
DOC_BATCH = 1 << 16
BYTES_PER_COORD = 32
UTM = "+proj=utm +zone=32 +ellps=WGS84"
LCC = ("+proj=lcc +lat_0=52 +lon_0=10 +lat_1=35 +lat_2=65 "
       "+x_0=4000000 +y_0=2800000 +ellps=GRS80")
# WKT -> WKT pair: a Bessel datum with a 7-parameter TOWGS84, so
# crs_to_crs composes cart + Helmert + inverse cart
SRC_WKT = (
    'GEOGCS["DHDN",DATUM["Deutsches_Hauptdreiecksnetz",'
    'SPHEROID["Bessel 1841",6377397.155,299.1528128],'
    'TOWGS84[598.1,73.7,418.2,0.202,0.045,-2.455,6.7]],'
    'PRIMEM["Greenwich",0],UNIT["degree",0.0174532925199433]]')
DST_WKT = (
    'GEOGCS["WGS 84",DATUM["WGS_1984",'
    'SPHEROID["WGS 84",6378137,298.257223563]],'
    'PRIMEM["Greenwich",0],UNIT["degree",0.0174532925199433]]')


def _median_call_s(fn, min_calls: int = 3, min_total_s: float = 0.15):
    fn()  # first call pays lazy set-up; not timed
    times = []
    while len(times) < min_calls or sum(times) < min_total_s:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def measure(seed: int, tracer=None) -> dict:
    from proj_ray.crs import crs_to_crs
    from proj_ray.docs.spans import extract_coords_batch
    from proj_ray.docs.synth import make_doc_batch
    from proj_ray.functions.geodesic import geodesic
    from proj_ray.pipeline import create_operation, transform_arrays
    from proj_ray.spatial.cells import grid_cell
    from proj_ray.spatial.pip import PolygonIndex, make_polygons
    from proj_ray.spatial.tiles import tile_xy

    from perfbench.workloads import corpus_coords

    rng = np.random.default_rng([seed, 9])
    offset = int(rng.integers(1, 10**9))
    ids = offset + np.arange(KERNEL_COORDS, dtype=np.int64)
    lon, lat, _, _ = corpus_coords(ids)
    lon, lat = lon[:KERNEL_COORDS], lat[:KERNEL_COORDS]
    n = len(lon)
    h = rng.uniform(-50.0, 3000.0, n)
    docs = make_doc_batch(ids[:DOC_BATCH])
    n_spans = len(docs.column("spans").combine_chunks().flatten())
    index = PolygonIndex(make_polygons(64, seed=int(rng.integers(1, 2**30))),
                         5.0)
    geod = geodesic()
    q_lon, q_lat = float(lon[0]), float(lat[0])

    ops = {"webmerc": create_operation("+proj=webmerc +ellps=WGS84"),
           "utm": create_operation(UTM),
           "lcc": create_operation(LCC),
           "cart_helmert": crs_to_crs(SRC_WKT, DST_WKT)}
    out = {}

    def timed(name, fn) -> float:
        with tracer.span(f"layer.{name}") if tracer else nullcontext():
            return _median_call_s(fn)

    for key, op in ops.items():
        z = h if key == "cart_helmert" else None
        name = f"kernel.{key}.mcoords_per_s"
        out[name] = n / timed(
            name, lambda op=op, z=z: transform_arrays(op, lon, lat, z)) / 1e6
    name = "kernel.geod_inverse.mpairs_per_s"
    out[name] = GEOD_PAIRS / timed(name, lambda: geod.inverse(
        q_lat, q_lon, lat[:GEOD_PAIRS], lon[:GEOD_PAIRS])) / 1e6
    name = "crs.crs_to_crs_ms"
    out[name] = timed(name, lambda: crs_to_crs(SRC_WKT, DST_WKT)) * 1e3
    name = "docs.make_doc_batch.mdocs_per_s"
    out[name] = DOC_BATCH / timed(
        name, lambda: make_doc_batch(ids[:DOC_BATCH])) / 1e6
    name = "docs.extract_coords.mspans_per_s"
    out[name] = n_spans / timed(name, lambda: extract_coords_batch(docs)) / 1e6
    for name, fn in (
            ("spatial.pip_probe.mpoints_per_s",
             lambda: index.query_batch(lon, lat)),
            ("spatial.tile_xy.mpoints_per_s", lambda: tile_xy(lon, lat, 8)),
            ("spatial.grid_cell.mpoints_per_s",
             lambda: grid_cell(lon, lat, 5.0))):
        out[name] = n / timed(name, fn) / 1e6
    info = {"kernel_batch_coords": n,
            "kernel_bytes_moved_computed": n * BYTES_PER_COORD,
            "geod_batch_pairs": GEOD_PAIRS,
            "doc_batch_docs": DOC_BATCH, "doc_batch_spans": n_spans}
    return out, info
