"""Multimodal (image/audio/video) stages.

Media payloads are opaque `binary` columns with typed metadata.  The
actual codecs are NOT available in this environment, so the decode step
is a clearly-marked deterministic fake behind the same callable-class
interface a real decoder would use — the Ray-side plumbing (schema,
batch sizing, constructor/call signature, output layout) is real and
tested.

The stage classes hold only config, so they run as stateless tasks
through `stages.ann._cached_fn` (one instance per worker process), not
as fixed-size actor pools: an actor pool holds its CPUs for the whole
execution, so on a 1- or 2-CPU cluster the read task that feeds it
never schedules.

A production deployment swaps `FakeImageDecoder._decode` for a real
library call; nothing else changes.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa

MEDIA_SCHEMA = pa.schema([
    ("media_ref", pa.string()),
    ("media_type", pa.string()),  # image | audio | video
    ("payload", pa.binary()),
    ("width", pa.int32()),
    ("height", pa.int32()),
    ("duration_ms", pa.int32()),
])


def synth_media_batch(batch: pa.Table) -> pa.Table:
    """Derive a deterministic fake media table from media_ref strings."""
    refs = batch.column("media_ref").to_pylist()
    types = []
    payloads = []
    w = []
    h = []
    dur = []
    for r in refs:
        digest = hashlib.sha256(r.encode()).digest()
        kind = ["image", "audio", "video"][digest[0] % 3]
        types.append(kind)
        payloads.append(digest * (1 + digest[1] % 4))
        w.append(64 + digest[2] % 192 if kind != "audio" else 0)
        h.append(64 + digest[3] % 192 if kind != "audio" else 0)
        dur.append(1000 + digest[4] * 100 if kind != "image" else 0)
    return pa.table({
        "media_ref": batch.column("media_ref"),
        "media_type": pa.array(types),
        "payload": pa.array(payloads, type=pa.binary()),
        "width": pa.array(w, type=pa.int32()),
        "height": pa.array(h, type=pa.int32()),
        "duration_ms": pa.array(dur, type=pa.int32()),
    })


class FakeImageDecoder:
    """Decode/feature stage.

    __init__ is where a real build would load the codec / model ONCE per
    worker process; __call__ handles a batch.  The fake 'decode' derives
    a small deterministic feature vector from the payload bytes.
    """

    def __init__(self, feature_dim: int = 8):
        # REAL DECODER GOES HERE (PIL/ffmpeg/torchvision). Not available
        # in this environment — deterministic fake below.
        self.feature_dim = feature_dim

    def _decode(self, payload: bytes, width: int, height: int) -> np.ndarray:
        raise NotImplementedError(
            "real image decoding requires an imaging library not present "
            "in this environment; use _fake_features for the plumbing")

    def _fake_features(self, payload: bytes) -> np.ndarray:
        d = hashlib.sha512(payload).digest()
        return np.frombuffer(d[:8 * self.feature_dim],
                             dtype=np.uint64).astype(np.float64) / 2**64

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        feats = [self._fake_features(p) for p in batch["payload"]]
        batch = batch.drop(columns=["payload"])  # large blobs do not
        # travel past the decode stage — only compact features do
        batch["features"] = feats
        return batch


class FrameSampler:
    """Video frame-sampling stage (every `stride_ms`); emits one row per
    sampled frame with the frame timestamp — the fan-out pattern a real
    video pipeline uses (flat_map shape via map_batches)."""

    def __init__(self, stride_ms: int = 1000):
        self.stride_ms = stride_ms

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        vids = batch[batch["media_type"] == "video"]
        dur = vids["duration_ms"].to_numpy().astype(np.int64)
        counts = -(-np.maximum(dur, 0) // self.stride_ms)  # ceil
        total = int(counts.sum())
        refs = np.repeat(vids["media_ref"].to_numpy(), counts)
        starts = np.repeat(np.cumsum(counts) - counts, counts)
        ts = (np.arange(total, dtype=np.int64) - starts) * self.stride_ms
        return pd.DataFrame({"media_ref": refs, "frame_ts_ms": ts})


class AudioChunker:
    """Audio windowing stage: slice each audio payload into
    fixed-length chunks (`chunk_ms` of samples at `sample_rate_hz`)
    and emit per-chunk RMS-energy features — the window/feature fan-out
    a real audio pipeline (VAD, ASR pre-filter) runs.  Payload bytes
    stand in for PCM (a real codec is NOT available in this
    environment — the chunk math, fan-out and batch plumbing are the
    real product; the byte->sample view is the documented stub).
    Vectorized: one concatenated sample buffer per batch, chunk sums
    via reduceat."""

    def __init__(self, chunk_ms: int = 250, sample_rate_hz: int = 8000):
        self.chunk_ms = chunk_ms
        # bytes-per-chunk for the stub 8-bit mono PCM view
        self.chunk_bytes = max(1, sample_rate_hz * chunk_ms // 1000)

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        aud = batch[batch["media_type"] == "audio"]
        if len(aud) == 0:
            # typed empty: an object-dtype empty column would infer as
            # Arrow null and diverge from non-empty blocks' schema
            return pd.DataFrame({
                "media_ref": pd.Series([], dtype="string"),
                "chunk_idx": pd.Series([], dtype=np.int64),
                "chunk_ts_ms": pd.Series([], dtype=np.int64),
                "rms": pd.Series([], dtype=np.float64),
            })
        payloads = aud["payload"].to_numpy()
        lens = np.fromiter((len(p) for p in payloads), dtype=np.int64,
                           count=len(payloads))
        buf = np.frombuffer(b"".join(payloads), dtype=np.uint8) \
            .astype(np.float64)
        counts = -(-lens // self.chunk_bytes)  # ceil
        total = int(counts.sum())
        doc_start = np.cumsum(lens) - lens
        chunk_of_doc = np.arange(total, dtype=np.int64) \
            - np.repeat(np.cumsum(counts) - counts, counts)
        offsets = np.repeat(doc_start, counts) \
            + chunk_of_doc * self.chunk_bytes
        sq = np.concatenate([[0.0], np.cumsum(buf * buf)])
        ends = np.minimum(offsets + self.chunk_bytes,
                          np.repeat(doc_start + lens, counts))
        ssum = sq[ends] - sq[offsets]
        n = (ends - offsets).astype(np.float64)
        return pd.DataFrame({
            "media_ref": np.repeat(aud["media_ref"].to_numpy(), counts),
            "chunk_idx": chunk_of_doc,
            "chunk_ts_ms": chunk_of_doc * self.chunk_ms,
            "rms": np.sqrt(ssum / np.maximum(n, 1.0)),
        })


def media_pipeline(doc_ds):
    """documents -> media spans -> fake decode -> features (end-to-end
    plumbing used by tests and bench)."""
    import pyarrow.compute as pc

    from proj_ray.stages.ann import _cached_fn

    def media_refs(batch: pa.Table) -> pa.Table:
        spans = batch.column("spans")
        if isinstance(spans, pa.ChunkedArray):
            spans = spans.combine_chunks()
        flat = spans.flatten()
        mask = pc.equal(flat.field("kind"), "media")
        refs = flat.field("media_ref").filter(mask)
        return pa.table({"media_ref": refs})

    media = doc_ds.map_batches(media_refs, batch_format="pyarrow") \
        .map_batches(synth_media_batch, batch_format="pyarrow")
    return media.map_batches(
        _cached_fn(FakeImageDecoder), batch_format="pandas",
        batch_size=1024)


class ImageResizer:
    """Image resize stage: nearest-neighbor downsample of each image
    payload to `target` x `target` (batch in, batch out).  The
    byte->pixel view is the documented stub (payload bytes stand in
    for an 8-bit luma grid of the manifest's width x height); the index
    math, fan-in plumbing and output layout are the real product — a
    production deployment swaps the byte view for a codec and nothing
    else changes."""

    def __init__(self, target: int = 16):
        self.target = target

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        imgs = batch[batch["media_type"] == "image"]
        t = self.target
        if len(imgs) == 0:
            return pd.DataFrame({
                "media_ref": pd.Series([], dtype="string"),
                "out_w": pd.Series([], dtype=np.int64),
                "out_h": pd.Series([], dtype=np.int64),
                "mean_luma": pd.Series([], dtype=np.float64),
                "thumb": pd.Series([], dtype=object),
            })
        refs, ws, hs, means, thumbs = [], [], [], [], []
        for ref, payload, w, h in zip(imgs["media_ref"],
                                      imgs["payload"],
                                      imgs["width"], imgs["height"]):
            w = max(int(w), 1)
            h = max(int(h), 1)
            buf = np.frombuffer(payload, dtype=np.uint8)
            grid = np.resize(buf, (h, w))  # stub luma plane
            yi = np.minimum((np.arange(t) * h) // t, h - 1)
            xi = np.minimum((np.arange(t) * w) // t, w - 1)
            thumb = grid[np.ix_(yi, xi)]
            refs.append(ref)
            ws.append(t)
            hs.append(t)
            means.append(float(thumb.mean()))
            thumbs.append(thumb.tobytes())
        return pd.DataFrame({"media_ref": refs,
                             "out_w": np.array(ws, dtype=np.int64),
                             "out_h": np.array(hs, dtype=np.int64),
                             "mean_luma": np.round(means, 6),
                             "thumb": thumbs})
