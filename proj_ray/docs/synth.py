"""Deterministic synthesis of the interleaved text+media document table.

Schema (BASELINE.json input_hint):
    doc_id : string  ("doc-%012d")
    spans  : list<struct<kind:string, text:string, media_ref:string,
                         offset:int32>>

Coordinates embedded in "coord" spans are generated by a Lehmer LCG
(x -> 48271*x mod 2^31-1) seeded from the integer doc id, so the exact
same values are reproducible in ANSI SQL over a plain `documents(doc_id)`
table — that keeps every spatial pipeline oracle-checkable in DuckDB
(see sql_coords_cte()).  80% of coordinates cluster around 5 hotspot
centers to exercise skew handling (FIXTURES.md F1).

All floating point derivation uses a fixed operation order so NumPy and
DuckDB produce bit-identical doubles.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

M31 = 2147483647  # 2^31 - 1
A_LCG = 48271

# hotspot centers (lon, lat) — exact decimal literals shared with the SQL
HOTSPOTS = [
    (-122.42, 37.77),
    (2.35, 48.86),
    (139.69, 35.69),
    (77.21, 28.61),
    (-46.63, -23.55),
]

SPAN_TYPE = pa.struct([
    ("kind", pa.string()),
    ("text", pa.string()),
    ("media_ref", pa.string()),
    ("offset", pa.int32()),
])

DOC_SCHEMA = pa.schema([
    ("doc_id", pa.string()),
    ("spans", pa.list_(SPAN_TYPE)),
])


def _nxt(x: np.ndarray) -> np.ndarray:
    return (A_LCG * x) % M31


def span_layout(doc_ids: np.ndarray):
    """Vectorized span-level table for integer doc ids.

    Returns dict of arrays: doc_idx (int64), offset (int32), kind_code
    (0=text, 1=coord, 2=media), lon, lat (NaN for non-coord), s2.
    """
    d = np.asarray(doc_ids, dtype=np.int64)
    h = _nxt(d % M31 + 1)
    n_spans = 1 + (h % 6)
    doc_idx = np.repeat(d, n_spans)
    total = int(n_spans.sum())
    # offset j within each doc
    starts = np.cumsum(n_spans) - n_spans
    off = np.arange(total, dtype=np.int64) - np.repeat(starts, n_spans)
    s1 = _nxt((doc_idx * 8 + off + 1) % M31)
    s2 = _nxt(s1)
    # s1 % 5: 0-1 text, 2-3 coord, 4 media
    kind_code = np.array([0, 0, 1, 1, 2], dtype=np.int8)[s1 % 5]

    # lon/lat are derived on the coord spans only; NaN elsewhere
    is_coord = kind_code == 1
    c2 = s2[is_coord]
    s3 = _nxt(c2)
    s4 = _nxt(s3)
    hot = (c2 % 10) < 8
    cell = (c2 % 5).astype(np.int64)
    clon = np.array([c[0] for c in HOTSPOTS])[cell]
    clat = np.array([c[1] for c in HOTSPOTS])[cell]
    lon_hot = clon + (s3 % 2000001 - 1000000) / 1000000.0 * 2.0
    lat_hot = clat + (s4 % 2000001 - 1000000) / 1000000.0 * 1.5
    lon_uni = (s3 % 3600000) / 10000.0 - 180.0
    lat_uni = (s4 % 1798001) / 10000.0 - 89.9
    lon = np.full(total, np.nan)
    lat = np.full(total, np.nan)
    lon[is_coord] = np.where(hot, lon_hot, lon_uni)
    lat[is_coord] = np.where(hot, lat_hot, lat_uni)
    return {
        "doc_idx": doc_idx,
        "offset": off.astype(np.int32),
        "kind_code": kind_code,
        "lon": lon,
        "lat": lat,
        "s2": s2,
    }


def make_doc_batch(doc_ids: np.ndarray) -> pa.Table:
    """Build the interleaved document table for the given integer ids.

    Fully vectorized via Arrow compute, and each string is formatted
    only over the spans that carry it: coord `text` ("lon lat") over the
    coord spans, text `text` ("text <s2>") over the text spans and
    `media_ref` ("media://<s2 padded to 10>") over the media spans.  A
    single `take` over [values..., ""] then puts each column into span
    order, so every other span gets "".  Coord text uses Arrow's
    shortest-roundtrip float formatting, so parsing it back yields the
    exact LCG double (verified in tests)."""
    import pyarrow.compute as pc

    lay = span_layout(doc_ids)
    kind_code = lay["kind_code"]
    s2 = lay["s2"]
    text_i = np.flatnonzero(kind_code == 0)
    coord_i = np.flatnonzero(kind_code == 1)
    media_i = np.flatnonzero(kind_code == 2)

    def fmt(values) -> pa.Array:
        return pc.cast(pa.array(values), pa.string())

    text_text = pc.binary_join_element_wise("text", fmt(s2[text_i]), " ")
    coord_text = pc.binary_join_element_wise(
        fmt(lay["lon"][coord_i]), fmt(lay["lat"][coord_i]), " ")
    media_ref = pc.binary_join_element_wise(
        "media://", pc.utf8_lpad(fmt(s2[media_i]), 10, "0"), "")
    empty = pa.array([""])

    # texts: [text_text, coord_text, ""]; media: [media_ref, ""]
    n_text, n_coord, n_media = len(text_i), len(coord_i), len(media_i)
    text_pos = np.full(len(kind_code), n_text + n_coord, dtype=np.int32)
    text_pos[text_i] = np.arange(n_text, dtype=np.int32)
    text_pos[coord_i] = np.arange(n_text, n_text + n_coord, dtype=np.int32)
    media_pos = np.full(len(kind_code), n_media, dtype=np.int32)
    media_pos[media_i] = np.arange(n_media, dtype=np.int32)
    texts = pa.concat_arrays([text_text, coord_text, empty]).take(text_pos)
    media = pa.concat_arrays([media_ref, empty]).take(media_pos)
    kinds = pa.array(["text", "coord", "media"]).take(kind_code)

    flat = pa.StructArray.from_arrays(
        [kinds, texts, media, pa.array(lay["offset"], type=pa.int32())],
        fields=list(SPAN_TYPE),
    )
    # every doc has at least one span, and its spans start at offset 0
    offsets = np.append(np.flatnonzero(lay["offset"] == 0),
                        len(kind_code)).astype(np.int32)
    spans = pa.ListArray.from_arrays(pa.array(offsets), flat)
    d = fmt(np.asarray(doc_ids, dtype=np.int64))
    doc_id_str = pc.binary_join_element_wise(
        "doc-", pc.utf8_lpad(d, 12, "0"), "")
    return pa.table({"doc_id": doc_id_str, "spans": spans})


def doc_dataset(n_docs: int, parallelism: int = -1):
    """A lazy ray.data.Dataset of the interleaved doc table (n_docs rows).

    Generation happens inside map_batches tasks — the driver never
    materializes the table, so this scales to any n_docs.

    `parallelism` is the block count of the doc-id range.  The default
    -1 is Ray Data's read autodetection, which sizes the range from the
    cluster: max(min(200, id_bytes / 1 MiB), id_bytes / 128 MiB,
    2 x available CPUs) blocks of 8-byte ids, rounded up by the range's
    remainder block.  On 1 CPU that is 2 blocks for 125k docs, 8 for 1M
    and 77 for 10M; a 32-CPU cluster gets at least 64.  A positive int
    pins the block count.
    """
    import ray.data as rd

    ds = rd.range(n_docs, override_num_blocks=parallelism)
    return ds.map_batches(
        lambda b: make_doc_batch(b["id"].to_numpy()),
        batch_format="pyarrow",
        batch_size=65536,
    )


def doc_dataset_from_documents(sf_dir: str):
    """Doc table derived from the driver's flat documents.parquet ids."""
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    return ds.map_batches(
        lambda b: make_doc_batch(b["doc_id"].to_numpy()),
        batch_format="pyarrow",
        batch_size=65536,
    )


# ---------------------------------------------------------------------------
# SQL mirror (DuckDB) of the coord-span derivation
# ---------------------------------------------------------------------------

_HOT_CASE_LON = "CASE s2 % 5 WHEN 0 THEN -122.42 WHEN 1 THEN 2.35 " \
    "WHEN 2 THEN 139.69 WHEN 3 THEN 77.21 ELSE -46.63 END"
_HOT_CASE_LAT = "CASE s2 % 5 WHEN 0 THEN 37.77 WHEN 1 THEN 48.86 " \
    "WHEN 2 THEN 35.69 WHEN 3 THEN 28.61 ELSE -23.55 END"


def sql_coords_cte(table: str = "documents") -> str:
    """DuckDB CTE reproducing span_layout()'s coord spans exactly:
    yields coords(doc_id, off, lon, lat)."""
    return f"""
sp AS (
    SELECT doc_id,
           UNNEST(range(0, CAST(1 + ((48271 * (doc_id % 2147483647 + 1))
                                     % 2147483647) % 6 AS BIGINT))) AS off
    FROM {table}
),
r1 AS (
    SELECT doc_id, off,
           (48271 * ((doc_id * 8 + off + 1) % 2147483647)) % 2147483647 AS s1
    FROM sp
),
r2 AS (SELECT *, (48271 * s1) % 2147483647 AS s2 FROM r1),
r3 AS (SELECT *, (48271 * s2) % 2147483647 AS s3 FROM r2),
r4 AS (SELECT *, (48271 * s3) % 2147483647 AS s4 FROM r3),
coords AS (
    SELECT doc_id, off,
           CASE WHEN s2 % 10 < 8
                THEN ({_HOT_CASE_LON})
                     + (s3 % 2000001 - 1000000) / 1000000.0 * 2.0
                ELSE (s3 % 3600000) / 10000.0 - 180.0 END AS lon,
           CASE WHEN s2 % 10 < 8
                THEN ({_HOT_CASE_LAT})
                     + (s4 % 2000001 - 1000000) / 1000000.0 * 1.5
                ELSE (s4 % 1798001) / 10000.0 - 89.9 END AS lat
    FROM r4
    WHERE s1 % 5 IN (2, 3)
)"""
