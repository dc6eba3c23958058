"""Golden checks of the synthetic interleaved document table.

`make_doc_batch` is compared field by field against a row-wise reference
built from `span_layout`, and the streaming span checksum of a fixed
doc set is pinned, so any rewrite of the vectorized body must reproduce
the table exactly."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from proj_ray.docs.synth import (
    DOC_SCHEMA,
    doc_dataset,
    doc_dataset_from_documents,
    make_doc_batch,
    span_layout,
)

EDGE_IDS = [0, 1, 2**31 - 2, 2**31 - 1, 2**31, 10**12]
KINDS = ("text", "coord", "media")
# _span_checksum(doc_dataset(3000)): (rows, commutative uint64 checksum)
CHECKSUM_3000 = (3000, 4316236311179709599)


def _golden_ids():
    rng = np.random.default_rng(20261019)
    rand = rng.integers(0, 10**12, size=2000, dtype=np.int64)
    return np.concatenate([np.array(EDGE_IDS, dtype=np.int64), rand])


def _float_text(v: float) -> str:
    return str(pa.scalar(v, type=pa.float64()).cast(pa.string()))


def _doc_bounds(lay):
    """Span-row [start, end) of each doc: a doc's spans start at offset 0."""
    starts = np.flatnonzero(lay["offset"] == 0)
    return starts, np.append(starts[1:], len(lay["offset"]))


def _reference_rows(ids):
    """Row-wise reference table: one dict per doc, spans as dicts."""
    lay = span_layout(ids)
    rows = []
    for d, lo, hi in zip(ids, *_doc_bounds(lay)):
        spans = []
        for j in range(lo, hi):
            code = int(lay["kind_code"][j])
            s2 = int(lay["s2"][j])
            text, media = "", ""
            if code == 0:
                text = f"text {s2}"
            elif code == 1:
                text = (_float_text(float(lay["lon"][j])) + " "
                        + _float_text(float(lay["lat"][j])))
            else:
                media = f"media://{s2:010d}"
            spans.append({"kind": KINDS[code], "text": text,
                          "media_ref": media,
                          "offset": int(lay["offset"][j])})
        rows.append({"doc_id": f"doc-{int(d):012d}", "spans": spans})
    return rows


def test_make_doc_batch_matches_rowwise_reference():
    ids = _golden_ids()
    got = make_doc_batch(ids)
    assert got.schema == DOC_SCHEMA
    assert got.num_rows == len(ids)
    assert got.to_pylist() == _reference_rows(ids)

    lay = span_layout(ids)
    starts, ends = _doc_bounds(lay)
    assert len(starts) == len(ids)
    spans = got.column("spans").combine_chunks()
    assert np.array_equal(spans.offsets.to_numpy(), np.append(starts,
                                                              ends[-1]))
    assert np.array_equal(spans.flatten().field("offset").to_numpy(),
                          lay["offset"])


def test_coord_text_parses_back_to_exact_doubles():
    ids = _golden_ids()
    lay = span_layout(ids)
    coord = lay["kind_code"] == 1
    flat = make_doc_batch(ids).column("spans").combine_chunks().flatten()
    texts = np.array(flat.field("text").to_pylist(), dtype=object)[coord]
    lon = np.array([float(t.split(" ")[0]) for t in texts])
    lat = np.array([float(t.split(" ")[1]) for t in texts])
    assert np.array_equal(lon, lay["lon"][coord])
    assert np.array_equal(lat, lay["lat"][coord])


def test_make_doc_batch_empty_and_single():
    empty = make_doc_batch(np.array([], dtype=np.int64))
    assert empty.schema == DOC_SCHEMA
    assert empty.num_rows == 0
    one = make_doc_batch(np.array([0], dtype=np.int64))
    assert one.schema == DOC_SCHEMA
    assert one.to_pylist() == _reference_rows(np.array([0]))


def test_span_checksum_pinned(ray_session):
    from proj_ray.docs.spans import _span_checksum

    assert _span_checksum(doc_dataset(3000)) == CHECKSUM_3000


def test_doc_dataset_from_documents_matches_make_doc_batch(ray_session,
                                                           tmp_path):
    ids = np.concatenate([np.array(EDGE_IDS, dtype=np.int64),
                          np.arange(100, 1100, dtype=np.int64)])
    pq.write_table(pa.table({"doc_id": ids}),
                   str(tmp_path / "documents.parquet"))
    got = sorted(doc_dataset_from_documents(str(tmp_path)).take_all(),
                 key=lambda r: r["doc_id"])
    want = sorted(make_doc_batch(ids).to_pylist(), key=lambda r: r["doc_id"])
    assert len(got) == len(ids)
    assert got == want
