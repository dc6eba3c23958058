"""Driver contract for the graft builder (Ray Data target).

The driver's verify calls ``entry()`` as a smoke check (Ray is already
initialised, local mode), runs each ``queries()[name](sf_dir)`` at
sf=0.01 and compares it against the matching ``oracle_sql()[name]`` via
DuckDB (row-count + schema + order-insensitive value-hash ->
CORRECTNESS_r{N}.json).

Ray is initialised by the driver BEFORE this module is imported: nothing
here (or in the proj_ray library) calls ray.init()/ray.shutdown().
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001: interleaved doc table
    -> span extraction -> webmerc transform -> cell encode -> polygon PIP
    join -> tile assembly.  Returns the per-tile summary Dataset."""
    from proj_ray.pipelines.flagship import flagship

    return flagship(sf_dir="/root/testdata/sf0.001")


def queries() -> dict[str, Callable[[str], Any]]:
    """One entry per implemented operator/pipeline from SURVEY.md §2
    (CRS kernels, cell/tile encoders, spatial joins, kNN, dedup family,
    text analysis, ANN, windowed aggregates, media plumbing)."""
    from proj_ray.pipelines.queries import build_queries

    return build_queries()


def oracle_sql() -> dict[str, str]:
    """DuckDB oracles for every SQL-expressible query (88 of 103); the
    rest (iterative series, geodesics, LSH, IVF, media) are rows-only
    with their exactness pinned by tests/ (gie corpus, brute-force
    equality, published geodesic instances)."""
    from proj_ray.pipelines.queries import build_oracles

    return build_oracles()
