"""The flagship end-to-end pipeline (BASELINE.json north_star):

interleaved doc table -> span/coordinate extraction -> CRS transform
(webmerc kernel) -> spatial join (broadcast polygon index; shuffle
variant optional) -> raster-tile assignment -> per-tile assembly with
join-match counts.

Everything is ONE streaming Dataset pipeline.  Extraction, transform,
tile encoding, the join probe and the per-tile combiner are one kernel,
`doc_tile_partials`, mapped over bounded slices of `_DOC_SLICE` docs
and fused by Ray Data with the doc synthesis into one task per block;
the only all-to-all exchange is the final small groupby(tile) over
those partials.

`resumable_flagship` runs the same kernel over the same slices of
checkpointed doc-id shards as plain Ray tasks, one per cluster CPU at
most, each working through a contiguous group of pending shards: the
input and output are a handful of shard ids, so nothing streams and
Ray Data's fixed per-execution cost would buy nothing.  `n_shards`
sets the checkpoint granularity, the cluster the task count.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import ray

from proj_ray.docs.spans import _coord_spans, _one_array
from proj_ray.docs.synth import (doc_dataset, doc_dataset_from_documents,
                                 make_doc_batch)
from proj_ray.pipeline import create_operation, transform_arrays
from proj_ray.spatial.pip import PolygonIndex, make_polygons
from proj_ray.spatial.tiles import tile_xy


# worker-process-level state cache: stateless tasks reuse warm worker
# processes across datasets, so the index fetch + kernel setup happen
# once per worker instead of once per actor-pool spin-up
_WORKER_STATE: dict = {}


def _get_state(index_ref, zoom: int):
    key = (getattr(index_ref, "hex", lambda: id(index_ref))(), zoom)
    st = _WORKER_STATE.get(key)
    if st is None:
        index = (ray.get(index_ref)
                 if not isinstance(index_ref, PolygonIndex) else index_ref)
        st = (index,
              create_operation("+proj=webmerc +ellps=WGS84"),
              create_operation("+proj=utm +zone=32 +ellps=WGS84"))
        _WORKER_STATE.clear()  # only ever one live config per worker
        _WORKER_STATE[key] = st
    return st


# docs per kernel call.  Ray Data's output buffer coalesces the doc
# source's outputs into blocks of up to 128 MiB (125k docs on one CPU),
# so the kernel slices them: ~23k coords a call keeps each float64
# temporary near 180 KB instead of allocating them at block size
_DOC_SLICE = 16384


def doc_tile_partials(batch: pa.Table, index_ref, zoom: int) -> pa.Table:
    """The fused flagship kernel, docs -> per-tile partials: parse the
    coord spans' lon/lat, webmerc + exact transverse-mercator
    transforms, tile, PIP probe, and per-tile partial aggregates (the
    combiner before the shuffle).  The partials need no sort: bincount
    adds each tile's values in input order."""
    index, proj, utm = _get_state(index_ref, zoom)
    _, lon, lat = _coord_spans(_one_array(batch.column("spans")).flatten())
    c = transform_arrays(proj, lon, lat)
    cu = transform_arrays(utm, lon, lat)  # Poder/Engsager series kernel
    ux = np.where(np.isfinite(cu.x), cu.x, 0.0)
    tx, ty = tile_xy(lon, lat, zoom)
    uniq, inv = np.unique(ty * (1 << zoom) + tx, return_inverse=True)
    m = len(uniq)
    pts, _ = index.query_batch(lon, lat)

    def tile_sum(w):
        # typed: bincount of an empty input is int64 even with weights
        return pa.array(np.bincount(inv, weights=w, minlength=m),
                        pa.float64())

    return pa.table({
        "tile": pa.array(uniq),
        "n_points": pa.array(np.bincount(inv, minlength=m)),
        "n_joined": pa.array(np.bincount(inv[pts], minlength=m)),
        "x_sum": tile_sum(c.x),
        "y_sum": tile_sum(c.y),
        "utmx_sum": tile_sum(ux),
    })


_TILE_AGGS = [("n_points", "sum"), ("n_joined", "sum"),
              ("x_sum", "sum"), ("y_sum", "sum"), ("utmx_sum", "sum")]


@functools.lru_cache(maxsize=8)
def _polygon_index(n_polygons: int) -> PolygonIndex:
    """The broadcast polygon index, built once per driver process: it
    is deterministic (make_polygons' default seed) and probes never
    mutate it."""
    return PolygonIndex(make_polygons(n_polygons), 5.0)


def _tile_partials(docs, zoom: int, n_polygons: int):
    """docs -> per-tile partials: the fused kernel over bounded doc
    slices, shared by the one-shot and resumable runners."""
    ref = ray.put(_polygon_index(n_polygons))
    # stateless tasks (not an actor pool): worker processes stay warm
    # across runs and elastically fill every core.  The doc source's
    # map cannot change its row count, so the batch_size does not stop
    # Ray Data fusing the kernel into it: one task per block, one
    # kernel call per _DOC_SLICE docs
    return docs.map_batches(
        doc_tile_partials,
        fn_kwargs={"index_ref": ref, "zoom": zoom},
        batch_format="pyarrow",
        batch_size=_DOC_SLICE,
    )


def flagship(sf_dir: str = None, n_docs: int = None, zoom: int = 8,
             n_polygons: int = 64, parallelism: int = -1):
    """Run the flagship pipeline; returns the per-tile summary Dataset.

    `parallelism` is the block count of the synthetic doc source
    (`doc_dataset`).  The default -1 is Ray Data's read autodetection:
    max(min(200, id_bytes / 1 MiB), id_bytes / 128 MiB, 2 x available
    CPUs) blocks, which on 1 CPU is 2 blocks for 125k docs, 8 for 1M
    and 77 for 10M.  A positive int pins the block count."""
    from proj_ray.stages.agg import tree_aggregate

    if n_docs is not None:
        docs = doc_dataset(n_docs, parallelism=parallelism)
    else:
        docs = doc_dataset_from_documents(sf_dir)
    # tile assembly: associative combine tree (tile cardinality is
    # bounded by 4^zoom, so the final merge is small)
    return tree_aggregate(_tile_partials(docs, zoom, n_polygons),
                          ["tile"], _TILE_AGGS)


def _shard_id(i: int) -> str:
    return f"shard-{i:05d}"


def _checkpoint_shard(i: int, bounds, writer, index, zoom: int) -> None:
    """One shard: synthesize its doc-id range slice by slice through
    the fused flagship kernel, combine its tile partials, and
    checkpoint them (manifest last)."""
    from proj_ray.stages.agg import combine_block

    lo, hi = int(bounds[i]), int(bounds[i + 1])
    parts = [
        doc_tile_partials(make_doc_batch(
            np.arange(s, min(s + _DOC_SLICE, hi), dtype=np.int64)),
            index, zoom)
        # lo + 1: an empty shard (n_docs < n_shards) still
        # checkpoints an empty partial table
        for s in range(lo, max(hi, lo + 1), _DOC_SLICE)]
    table = combine_block(pa.concat_tables(parts), ["tile"], _TILE_AGGS)
    writer.write_partition(
        _shard_id(i), table,
        lineage={"partition": _shard_id(i), "doc_id_range": [lo, hi]},
        metrics={"rows": table.num_rows})


def _checkpoint_group(shards, bounds, root: str, config: dict, index,
                      zoom: int) -> list:
    """One task's contiguous group of pending shards, in order, each
    checkpointed from inside the worker.  A shard that already has a
    valid manifest is skipped, so a retry after a worker crash redoes
    only the unfinished ones.  A failing shard does not stop the
    group: the rest still checkpoint, then the first error re-raises.
    Returns the shard ids this call wrote."""
    from proj_ray.state.checkpoint import CheckpointWriter

    writer = CheckpointWriter(root, config)
    done, error = [], None
    for i in shards:
        if writer.is_done(_shard_id(i)):
            continue
        try:
            _checkpoint_shard(int(i), bounds, writer, index, zoom)
            done.append(int(i))
        except Exception as e:  # noqa: BLE001 - re-raised below
            error = error or e
    if error is not None:
        raise error
    return done


_checkpoint_group_task = ray.remote(_checkpoint_group)


def resumable_flagship(n_docs: int, n_shards: int, root: str,
                       zoom: int = 8, n_polygons: int = 64):
    """The flagship as a resumable partitioned job: doc-id ranges are
    the partitions, each shard's bounded tile-partial table writes
    through the per-partition checkpoint (manifest = id-range lineage +
    row metrics), and a re-run computes ONLY shards without a valid
    manifest.

    `n_shards` sets only the checkpoint granularity.  The task count
    comes from the cluster: the pending shards split into
    min(pending, cluster CPUs) contiguous groups, one Ray task each,
    and every task checkpoints its own shards, so the driver sees only
    shard ids.  A failed shard raises only once every other shard, in
    its own task and in the others, has finished and checkpointed.
    The final tile table re-aggregates the checkpointed partials —
    associative, so shard boundaries never change the answer.  Raises
    ValueError for n_shards < 1 or n_docs < 0 before anything is
    written.  Returns (tile_table, n_computed, n_skipped)."""
    from proj_ray.stages.agg import combine_block
    from proj_ray.state.checkpoint import CheckpointWriter

    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    if n_docs < 0:
        raise ValueError(f"n_docs must be >= 0, got {n_docs}")
    config = {"n_docs": n_docs, "n_shards": n_shards, "zoom": zoom,
              "n_polygons": n_polygons}
    writer = CheckpointWriter(root, config)
    pending = [i for i in range(n_shards)
               if not writer.is_done(_shard_id(i))]
    if pending:
        bounds = np.linspace(0, n_docs, n_shards + 1).astype(np.int64)
        # the index goes by value: Ray inlines an argument under its
        # direct-call limit (100 KiB; 64 polygons are 47 KB) into the
        # task spec, where a ray.put costs an object-store round trip
        # through the raylet, and a larger one it puts itself
        index = _polygon_index(n_polygons)
        n_cpus = int(ray.cluster_resources().get("CPU", 1))
        groups = np.array_split(pending, max(1, min(len(pending), n_cpus)))
        refs = [_checkpoint_group_task.remote(g, bounds, root, config,
                                              index, zoom)
                for g in groups]
        # wait for every task first: a failed shard must not return
        # before the other shards have checkpointed
        ray.wait(refs, num_returns=len(refs))
        ray.get(refs)
    tiles = combine_block(writer.read_all(), ["tile"], _TILE_AGGS)
    return tiles, len(pending), n_shards - len(pending)
