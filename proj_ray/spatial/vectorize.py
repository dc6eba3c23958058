"""Raster -> vector: connected occupied regions of a cell raster.

The reference couples projected coordinates to raster products (tile
math in PROJ's webmerc/tile conventions); this closes the loop the
north rule names "raster<->vector": points rasterize to tiles
(`pipelines/queries.q_tile_histogram`) and the raster vectorizes back
to discrete region features here.

Design for scale: the input is the REDUCED raster (one row per
occupied cell, already aggregated), whose cardinality is bounded by
the grid — 65,536 at z8, ~1M at z10 — not by the corpus, so the
occupied-id membership array broadcasts to workers via the object
store while edge generation and labeling stay distributed.
Connected-components labeling reuses `stages.components` (hash-min
fixpoint, size-gated to a driver union-find for small edge streams).
Beyond ~10^7 occupied cells, partition the raster into coarse blocks
and run per-block labeling with boundary stitching instead.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def raster_regions(cells_ds, tile_col: str = "tile",
                   weight_col: str | None = None, width: int = 256):
    """Label 4-connected regions of occupied raster cells and return
    one row per region: ``region_id`` (the smallest member tile id),
    ``n_cells``, ``n_points`` (summed weight, if ``weight_col``), and
    the region's cell-space bbox (min/max tx/ty).

    ``cells_ds``: Dataset with one row per occupied cell, integer tile
    ids ``tile = ty * width + tx`` (row-major, no wraparound).
    """
    import ray

    from proj_ray.stages.agg import tree_aggregate
    from proj_ray.stages.components import connected_components
    from proj_ray.stages.worker_cache import get_broadcast

    cells_ds = cells_ds.materialize()
    occ = pa.concat_tables(ray.get(cells_ds.to_arrow_refs()),
                           promote_options="default")
    ids = np.sort(occ.column(tile_col).to_numpy(zero_copy_only=False)
                  .astype(np.int64))
    ids_ref = ray.put(ids)

    def _member(sorted_ids: np.ndarray, cand: np.ndarray) -> np.ndarray:
        if len(sorted_ids) == 0:
            return np.zeros(len(cand), dtype=bool)
        pos = np.searchsorted(sorted_ids, cand)
        pos_c = np.minimum(pos, len(sorted_ids) - 1)
        return sorted_ids[pos_c] == cand

    def edge_batch(t: pa.Table) -> pa.Table:
        sorted_ids = get_broadcast(ids_ref)
        tid = t.column(tile_col).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        a_parts, b_parts = [], []
        # east neighbor (guard the row edge: no wraparound) and south
        east = tid + 1
        east_ok = (tid % width) < (width - 1)
        hit = east_ok & _member(sorted_ids, east)
        a_parts.append(tid[hit])
        b_parts.append(east[hit])
        south = tid + width
        hit = _member(sorted_ids, south)
        a_parts.append(tid[hit])
        b_parts.append(south[hit])
        return pa.table({"a": pa.array(np.concatenate(a_parts)),
                         "b": pa.array(np.concatenate(b_parts))})

    edges = cells_ds.map_batches(edge_batch, batch_format="pyarrow")
    labels = connected_components(edges, col_a="a", col_b="b")

    # label lookup broadcasts too (bounded by the occupied-cell count);
    # isolated cells never enter the pair graph and label themselves
    lab = pa.concat_tables(ray.get(labels.materialize().to_arrow_refs()),
                           promote_options="default")
    lnode = lab.column("node").to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    lcomp = lab.column("component").to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    order = np.argsort(lnode)
    lab_ref = ray.put((lnode[order], lcomp[order]))

    def tag_batch(t: pa.Table) -> pa.Table:
        lnode, lcomp = get_broadcast(lab_ref)
        tid = t.column(tile_col).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        if len(lnode):
            pos = np.searchsorted(lnode, tid)
            pos_c = np.minimum(pos, len(lnode) - 1)
            hit = lnode[pos_c] == tid
            region = np.where(hit, lcomp[pos_c], tid)
        else:
            region = tid
        tx = tid % width
        ty = tid // width
        out = pa.table({
            "region_id": pa.array(region),
            "min_tx": pa.array(tx), "max_tx": pa.array(tx),
            "min_ty": pa.array(ty), "max_ty": pa.array(ty),
        })
        if weight_col:
            out = out.append_column("n_points", pa.array(
                t.column(weight_col).to_numpy(zero_copy_only=False)
                .astype(np.int64)))
        return out

    tagged = cells_ds.map_batches(tag_batch, batch_format="pyarrow")
    return tree_aggregate(tagged, ["region_id"],
                          [("n_cells", "count"),
                           ("n_points", "sum" if weight_col else "count"),
                           ("min_tx", "min"), ("max_tx", "max"),
                           ("min_ty", "min"), ("max_ty", "max")])
