"""Span handling for the interleaved document table.

`extract_coords_batch` explodes coord spans into flat Arrow rows
(doc_id, offset, lon, lat) with zero Python-per-row work in the hot path
(list flattening + numpy parse of the fixed "%.17g %.17g" layout).

The per-row invariant (BASELINE.json input_hint) is that the span
sequence — (kind, text, media_ref, order) — survives every engine run:
engines may only append derived columns or emit derived tables.
`span_fingerprint_batch` produces a per-doc hash of exactly that
sequence so the invariant can be asserted cheaply at any pipeline stage.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _one_array(col) -> pa.Array:
    """A column as one Array: a single-chunk ChunkedArray yields its
    chunk (a zero-copy slice, where combine_chunks would copy it)."""
    if isinstance(col, pa.ChunkedArray):
        return col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()
    return col


def _coord_spans(flat: pa.StructArray):
    """(positions, lon, lat) of the coord spans of a flattened span
    array.  Only the `kind` and `text` fields are read; lon/lat come
    from one float64 cast of the split "%.17g %.17g" texts, so they are
    strided views of that one array."""
    idx = pc.indices_nonzero(pc.equal(flat.field("kind"), "coord"))
    pieces = pc.split_pattern(flat.field("text").take(idx), " ").flatten()
    lonlat = pieces.cast(pa.float64()).to_numpy().reshape(-1, 2)
    return idx, lonlat[:, 0], lonlat[:, 1]


def extract_coords_batch(batch: pa.Table) -> pa.Table:
    """Explode coord spans -> (doc_id, offset, lon, lat) rows."""
    spans = _one_array(batch.column("spans"))
    flat = spans.flatten()
    idx, lon, lat = _coord_spans(flat)
    # doc index of every coord span
    parent = pc.list_parent_indices(spans).take(idx)
    return pa.table({
        "doc_id": _one_array(batch.column("doc_id")).take(parent),
        "offset": flat.field("offset").take(idx),
        "lon": pa.array(lon),
        "lat": pa.array(lat),
    })


def span_fingerprint_batch(batch: pa.Table) -> pa.Table:
    """Per-doc uint64 fingerprint of the (kind, text, media_ref, offset)
    sequence — fully vectorized: spans are joined per doc with Arrow
    kernels (binary_join over the original list offsets) and hashed with
    the segmented polynomial kernel from stages/hashing.py.  No per-doc
    Python, so the invariant can be asserted inside a pipeline at any
    scale."""
    from proj_ray.stages.hashing import rolling_hash_batch

    spans = _one_array(batch.column("spans"))
    doc_ids = _one_array(batch.column("doc_id"))
    flat = spans.flatten()
    joined = pc.binary_join_element_wise(
        flat.field("kind"), flat.field("text"), flat.field("media_ref"),
        pc.cast(flat.field("offset"), pa.string()), "\x1f")
    off = spans.offsets.to_numpy().astype(np.int64)
    lst = pa.ListArray.from_arrays(pa.array(off - off[0],
                                            type=pa.int32()), joined)
    per_doc = pc.binary_join(lst, "\x1e")
    fp = rolling_hash_batch(per_doc)
    return pa.table({"doc_id": doc_ids,
                     "span_fp": pa.array(fp.view(np.int64))})


_MIX = np.uint64(0x9E3779B97F4A7C15)


def _span_checksum(ds) -> tuple:
    """(row_count, commutative uint64 checksum) over per-doc span
    fingerprints.  The checksum is a sum (mod 2^64) of mixed
    (doc_id, fingerprint) hashes, so it is order- and
    partitioning-independent and never moves more than one row per
    block to the driver."""
    from proj_ray.stages.hashing import rolling_hash_batch

    def partial(t: pa.Table) -> pa.Table:
        d = t.column("doc_id")
        if pa.types.is_string(d.type) or pa.types.is_large_string(d.type):
            key = rolling_hash_batch(d)
        else:
            key = d.to_numpy(zero_copy_only=False).astype(np.uint64)
        fp = t.column("span_fp").to_numpy(zero_copy_only=False) \
            .view(np.uint64)
        h = (key ^ (fp * _MIX)) * _MIX
        h ^= h >> np.uint64(29)
        h *= _MIX
        return pa.table({
            "n": pa.array([len(t)], type=pa.int64()),
            "c": pa.array([int(h.sum(dtype=np.uint64))],
                          type=pa.uint64()),
        })

    parts = ds.map_batches(span_fingerprint_batch, batch_format="pyarrow") \
        .map_batches(partial, batch_format="pyarrow").take_all()
    n = sum(p["n"] for p in parts)
    c = np.uint64(0)
    for p in parts:
        c += np.uint64(p["c"])
    return n, int(c)


def verify_span_invariant(before, after) -> bool:
    """Check per-row span-sequence equality between two doc datasets.

    Streaming on both sides: each dataset reduces to (count, commutative
    checksum of per-doc fingerprints); nothing proportional to the
    corpus ever reaches the driver.  A mismatch in any document's
    (kind, text, media_ref, offset) sequence flips the checksum with
    probability 1 - O(2^-64)."""
    return _span_checksum(before) == _span_checksum(after)
