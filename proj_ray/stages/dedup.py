"""Deduplication operators over the `documents` table.

All follow the scale pattern from the guide: vectorized per-batch
shingling/hashing inside map_batches (stages/hashing.py NumPy kernels
over the raw Arrow buffers — no per-row Python), then keyed exchanges
on compact values — never a driver-side materialization of the corpus.
Every exchange is `partitioning.keyed_apply` (one-sided) or
`partitioning.keyed_cogroup` (two-input); a bucket's rows reach one
kernel call sorted, `key_spans` finds its runs and `_run_pairs` expands
each run into its within-run pairs.

* exact_dedup       — md5(text) hash-partition + per-group min(doc_id)
                      (SQL-oracle-checkable).
* minhash_lsh_pairs — shingle -> 64-perm MinHash -> banded LSH buckets
                      -> candidate pairs -> exact Jaccard verify against
                      per-doc shingle sets (`_verify_pairs`: a broadcast
                      of the needed sets, or two doc_id-keyed cogroups;
                      the driver never sees document text).
* ngram_jaccard_pairs — the deterministically complete twin: prefix
                      filtering (or a dense bitset scan) + the same verify.
* simhash64         — 64-bit SimHash over token hashes; near-dup pairs
                      by Hamming distance within LSH-rotated buckets.
* embedding_near_dup— cosine near-duplicates via random-hyperplane LSH
                      banding (the exchange key) + exact cosine verify
                      inside each bucket; band count/width auto-sized
                      from the threshold for ~99% recall at the
                      threshold boundary.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Tuple

import numpy as np
import pandas as pd
import pyarrow as pa

_MERSENNE = np.uint64((1 << 61) - 1)
_N_PERM = 64
_MAX_PERM = 128  # banding may draw up to this many permutations
_N_BANDS = 8  # 8 rows per band: S-curve threshold ~(1/8)^(1/8)=0.77,
# near-certain candidacy for true near-dups (j>0.9) while j~0.45
# template noise drops from 34% to ~3% candidate probability
_MIX = np.uint64(0x9E3779B97F4A7C15)


def _perm_params(n_perm: int = _N_PERM, seed: int = 99):
    rng = np.random.default_rng(seed)
    a = rng.integers(1, (1 << 61) - 1, size=n_perm, dtype=np.int64)
    b = rng.integers(0, (1 << 61) - 1, size=n_perm, dtype=np.int64)
    return a.astype(np.uint64), b.astype(np.uint64)


# first 64 permutations keep their original (seed 99) values so 64-perm
# signatures are stable across versions; the extension block is drawn
# from a second stream
_PERM_A, _PERM_B = (np.concatenate(p) for p in zip(
    _perm_params(_N_PERM, seed=99), _perm_params(_MAX_PERM - _N_PERM,
                                                 seed=100)))


def _dedupe_pairs(a: np.ndarray, b: np.ndarray):
    """Distinct (a, b) rows via lexsort + run-start mask — several
    times faster than np.unique(axis=0)'s void-view sort on
    two-column int data.  Returns sorted-by-(a, b) arrays."""
    order = np.lexsort((b, a))
    a, b = a[order], b[order]
    first = np.empty(len(a), dtype=bool)
    if len(a):
        first[0] = True
        first[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    return a[first], b[first]


def _np(t: pa.Table, col: str) -> np.ndarray:
    return t.column(col).to_numpy(zero_copy_only=False)


# `_run_pairs` expands runs in chunks of about this many pairs, so a
# partition with many or long runs holds only one chunk's candidates
# at a time plus the pairs it keeps
_PAIR_CHUNK = 1 << 20


def _run_pairs(starts, lens, keep):
    """Row indices (i, j), i < j, of the pairs of rows inside one run
    (runs as `partitioning.key_spans` returns them) for which the
    vectorized predicate `keep(i, j)` holds; run by run, each run's
    pairs in `triu_indices` order."""
    multi = lens >= 2
    starts, lens = starts[multi], lens[multi]
    npairs = lens * (lens - 1) // 2
    chunk = (np.cumsum(npairs) - npairs) // _PAIR_CHUNK
    cut = np.flatnonzero(np.diff(chunk)) + 1
    out_i, out_j = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    for s, ln in zip(np.split(starts, cut), np.split(lens, cut)):
        # each row of these runs, and how many later rows share its run
        row = np.arange(int(ln.sum())) + np.repeat(s - (np.cumsum(ln) - ln),
                                                   ln)
        later = np.repeat(s + ln, ln) - row - 1
        i = np.repeat(row, later)
        j = i + 1 + np.arange(len(i)) \
            - np.repeat(np.cumsum(later) - later, later)
        m = keep(i, j)
        out_i.append(i[m])
        out_j.append(j[m])
    return np.concatenate(out_i), np.concatenate(out_j)


def _distinct_pairs(pairs):
    """The distinct (doc_a, doc_b) rows of a candidate stream (a pair
    found in several buckets verifies once), materialized so that the
    verify and its count read the same blocks."""
    from proj_ray.stages.agg import hash_shuffle_aggregate

    return hash_shuffle_aggregate(pairs, ["doc_a", "doc_b"], [],
                                  num_buckets=16).materialize()


def text_md5_batch(batch: pa.Table) -> pa.Table:
    """md5 hex per document, hashed straight off the Arrow string
    buffer (memoryview slices — no per-row Python string / .encode()
    materialization; md5 is the oracle contract, so the digest loop
    itself stays, reduced to one C call per doc)."""
    import pyarrow.compute as pc

    from proj_ray.stages.hashing import arrow_string_bytes

    col = batch.column("text")
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    col = pc.fill_null(col, "")
    data, off = arrow_string_bytes(col)
    mv = memoryview(data)
    md5 = hashlib.md5
    h = [md5(mv[off[i]:off[i + 1]]).hexdigest()
         for i in range(len(off) - 1)]
    return pa.table({"doc_id": batch.column("doc_id"),
                     "h": pa.array(h, type=pa.string())})


def exact_dedup(docs_ds, num_buckets: int = 16):
    """Exact dedup: keep the min doc_id per content hash.

    Content-hash cardinality is unbounded (one key per distinct doc), so
    this uses the hash-partitioned aggregate — per-block combine, then a
    shuffle into independent hash buckets, one exact combine each.
    `num_buckets` bounds per-bucket combine memory at scale; raise it
    for larger corpora (buckets are independent tasks)."""
    from proj_ray.stages.agg import hash_shuffle_aggregate

    hashed = docs_ds.map_batches(text_md5_batch, batch_format="pyarrow")
    return hash_shuffle_aggregate(hashed, ["h"], [("doc_id", "min")],
                                  num_buckets=num_buckets)


# --------------------------- MinHash / LSH ---------------------------------


def minhash_signatures(text_col, n_perm: int = _N_PERM) -> np.ndarray:
    """(n_docs, n_perm) MinHash signatures, vectorized: crc32 4-gram
    shingles from the raw UTF-8 buffer, then per-permutation
    (a*x + b mod 2^64) mod p with a segmented min (reduceat)."""
    from proj_ray.stages.hashing import doc_shingles

    hashes, seg = doc_shingles(text_col, 4)
    x = hashes.astype(np.uint64)
    n_docs = len(seg) - 1
    sig = np.empty((n_docs, n_perm), dtype=np.uint64)
    if n_docs == 0:
        return sig
    starts = seg[:-1]
    for p in range(n_perm):
        vals = (_PERM_A[p] * x + _PERM_B[p]) % _MERSENNE
        sig[:, p] = np.minimum.reduceat(vals, starts)
    return sig


def band_keys(sig: np.ndarray, n_bands: int = _N_BANDS) -> np.ndarray:
    """(n_docs, n_bands) uint64 band hashes: xor-multiply mix of each
    band's signature rows (vectorized replacement for per-doc blake2b)."""
    n_docs, n_perm = sig.shape
    rpb = n_perm // n_bands
    out = np.zeros((n_docs, n_bands), dtype=np.uint64)
    for b in range(n_bands):
        h = np.full(n_docs, np.uint64(b + 1), dtype=np.uint64)
        for r in range(rpb):
            h = (h ^ sig[:, b * rpb + r]) * _MIX
            h ^= h >> np.uint64(29)
        out[:, b] = h
    return out


def minhash_banding(jaccard_threshold: float) -> tuple[int, int]:
    """(n_bands, rows_per_band) whose S-curve midpoint (1/b)^(1/r) is
    closest to the requested Jaccard threshold (the textbook LSH
    sizing), drawing up to _MAX_PERM permutations.

    Placing the midpoint AT the threshold is what keeps the candidate
    set bounded on corpora with sub-threshold similarity structure:
    a midpoint far below the threshold (e.g. 16x4 = 0.5 for t=0.7)
    promotes roughly half of every j~0.45 template-noise pair to a
    candidate — measured 9x slower end-to-end at sf0.1 — while a
    midpoint far above under-recalls pairs at the threshold (the
    round-2 ADVICE finding).  Ties within 0.02 of the best midpoint
    distance prefer the recall-safe side (midpoint <= threshold, so
    recall just above the threshold exceeds 50% rather than trailing
    it), then more rows per band FIRST (the sharpness of the S-curve
    is what rejects sub-threshold noise; a shallow 6x5 curve with an
    accidentally-perfect midpoint still promotes ~11% of j~0.45
    pairs), then the closest midpoint, then fewer permutations.
    E.g. 0.8 -> 10x10 (midpoint 0.794: 98.6% recall at j=0.9, 0.3%
    candidate probability at j=0.45); 0.7 -> 13x7 (midpoint 0.693)."""
    cands = []
    for r in range(2, 17):
        for b in range(2, 33):
            if b * r > _MAX_PERM:
                break
            m = (1.0 / b) ** (1.0 / r)
            cands.append((abs(m - jaccard_threshold), m, b, r))
    best = min(c[0] for c in cands)
    near = [c for c in cands if c[0] <= best + 0.02]
    below = [c for c in near if c[1] <= jaccard_threshold]
    pool = below or near
    _, _, b, r = min(pool, key=lambda c: (-c[3], c[0], c[2] * c[3]))
    return b, r


def minhash_bands_batch(batch: pa.Table,
                        n_bands: int = _N_BANDS,
                        rows_per_band: int = _N_PERM // _N_BANDS
                        ) -> pa.Table:
    """Emit (band_id, band_hash, doc_id) rows (the LSH explode)."""
    sig = minhash_signatures(batch.column("text"),
                             n_perm=n_bands * rows_per_band)
    keys = band_keys(sig, n_bands)
    n = len(sig)
    doc = batch.column("doc_id").to_numpy(zero_copy_only=False)
    return pa.table({
        "band_id": pa.array(np.tile(np.arange(n_bands, dtype=np.int64), n)),
        "band_hash": pa.array(keys.reshape(-1)),
        "doc_id": pa.array(np.repeat(doc, n_bands)),
    })


def shingle_sets_batch(batch: pa.Table, ngram: int = 4) -> pa.Table:
    """(doc_id, shingles binary) with per-doc sorted unique crc32
    `ngram`-byte shingle hashes packed as raw int64 bytes — the compact
    per-doc payload of Jaccard verification, decoded with one buffer
    view (`_binary_int64_segments`) instead of a list column's
    offsets-plus-values pair."""
    from proj_ray.stages.hashing import doc_shingles, segment_sorted_unique

    hashes, seg = doc_shingles(batch.column("text"), ngram)
    vals, new_seg = segment_sorted_unique(hashes, seg)
    n = len(new_seg) - 1
    byte_off = (new_seg * 8).astype(np.int32)
    blob = pa.BinaryArray.from_buffers(
        pa.binary(), n,
        [None, pa.py_buffer(byte_off.tobytes()),
         pa.py_buffer(np.ascontiguousarray(vals).tobytes())])
    return pa.table({"doc_id": batch.column("doc_id"), "shingles": blob})


def _binary_int64_segments(col) -> Tuple[np.ndarray, np.ndarray]:
    """Decode a binary column of packed int64 arrays to
    (values, element offsets) via the raw buffers (no per-row Python)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    bufs = col.buffers()
    off = np.frombuffer(bufs[1], dtype=np.int32, count=len(col) + 1,
                        offset=col.offset * 4).astype(np.int64)
    data = np.frombuffer(bufs[2], dtype=np.uint8)
    vals = data[off[0]:off[-1]].view(np.int64)
    return vals, (off - off[0]) // 8


def _list_to_numpy(col) -> Tuple[np.ndarray, np.ndarray]:
    """Flatten a list column to (values, offsets) with values sliced to
    the array's own span and offsets rebased to 0 (sliced-array safe)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    off = col.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    vals = col.values.to_numpy(zero_copy_only=False)
    return vals[off[0]:off[-1]], off - off[0]


def _list_matrix(col) -> np.ndarray:
    """(n, d) float64 matrix from a fixed-width list<float> column."""
    vals, off = _list_to_numpy(col)
    n = len(off) - 1
    if n == 0:
        return np.empty((0, 0))
    return np.asarray(vals, dtype=np.float64).reshape(n, -1)


def pair_jaccard(list_a, list_b) -> np.ndarray:
    """Vectorized Jaccard over row-aligned pairs of sorted-unique
    packed-binary shingle columns: merge both sides per pair, count
    adjacent duplicates."""
    a_vals, a_off = _binary_int64_segments(list_a)
    b_vals, b_off = _binary_int64_segments(list_b)
    n = len(a_off) - 1
    a_counts = np.diff(a_off)
    b_counts = np.diff(b_off)
    pid = np.concatenate([
        np.repeat(np.arange(n, dtype=np.int64), a_counts),
        np.repeat(np.arange(n, dtype=np.int64), b_counts)])
    vals = np.concatenate([a_vals, b_vals])
    order = np.lexsort((vals, pid))
    v = vals[order]
    p = pid[order]
    if len(v) > 1:
        dup = (v[1:] == v[:-1]) & (p[1:] == p[:-1])
        inter = np.bincount(p[1:][dup], minlength=n)
    else:
        inter = np.zeros(n, dtype=np.int64)
    union = a_counts + b_counts - inter
    with np.errstate(invalid="ignore"):
        return np.where(union > 0, inter / union, 1.0)


# Verification-path gates.  The broadcast path needs (a) the pair
# stream small enough to collect on the driver (16 bytes/pair) and
# (b) the DISTINCT docs appearing in pairs small enough that their
# shingle sets broadcast (~5 KB/doc) — pair count does NOT bound the
# payload, distinct-doc count does.  Streams beyond either gate fall
# back to the doc_id-keyed exchanges.
_BROADCAST_PAIR_LIMIT = 2_000_000
_BROADCAST_DOC_LIMIT = 100_000

# Dense-vocabulary gate for ngram_jaccard_pairs: switch to broadcast
# packed-bitset verification when the whole corpus vocabulary fits a
# small bitset AND the packed signature table fits a broadcast.
_DENSE_VOCAB_MAX = 1 << 16       # <= 65,536 distinct shingles (8 KB/doc)
_DENSE_SIG_BYTES = 256 << 20     # packed table cap: 256 MB
_BROADCAST_DF_MAX = 4_000_000    # df-table broadcast gate (~64 MB)
_GATE_MARGIN = 1.25              # headroom over the HLL estimate


def _verified(t: pa.Table, sh_a, sh_b,
              jaccard_threshold: float) -> pa.Table:
    """The (doc_a, doc_b, jaccard) rows of the pairs `t` whose shingle
    sets `sh_a`, `sh_b` (row-aligned with `t`) reach the threshold."""
    jac = pair_jaccard(sh_a, sh_b)
    out = pa.table({"doc_a": t.column("doc_a"),
                    "doc_b": t.column("doc_b"),
                    "jaccard": pa.array(jac)})
    return out.filter(pa.array(jac >= jaccard_threshold))


def _pair_frame(verified) -> pd.DataFrame:
    """A verified-pair Dataset (None for no candidates) as a DataFrame
    sorted by (doc_a, doc_b), typed even when empty."""
    df = None if verified is None else verified.to_pandas()
    if df is None or df.empty:
        return pd.DataFrame({"doc_a": pd.Series([], dtype="int64"),
                             "doc_b": pd.Series([], dtype="int64"),
                             "jaccard": pd.Series([], dtype="float64")})
    return df.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)


def _verify_pairs(pairs, sigs_src, jaccard_threshold: float):
    """Exact-Jaccard verification of a candidate-pair Dataset against a
    (doc_id, shingles) producer.

    `pairs` must be a MATERIALIZED Dataset of (doc_a, doc_b);
    `sigs_src` is a zero-arg callable returning the streaming shingle
    Dataset (so the corpus pass only happens when needed).  Returns the
    verified pairs as a sorted pandas DataFrame with columns
    (doc_a, doc_b, jaccard) where jaccard is the UNROUNDED inter/union
    double — bit-identical to SQL `inter::DOUBLE / uni`, which is what
    the DuckDB oracle computes.

    Two shapes, picked by candidate and distinct-doc count:

    * small (<= _BROADCAST_PAIR_LIMIT pairs over <= _BROADCAST_DOC_LIMIT
      docs): the pair stream fits the driver.  The shingle stream is
      FILTERED distributed to only the docs appearing in some pair,
      the filtered set is broadcast once via ray.put, and each pair
      batch looks its two sets up in-task through the per-worker cache.
    * large: two doc_id-keyed exchanges (`keyed_cogroup` of the pairs
      with the shingle sets, on doc_a and then on doc_b).  Each
      partition looks its pairs' sets up in its own slice of the sets;
      the second also verifies.  Both run as plain tasks, so no
      exchange holds CPU slots while it waits for its inputs."""
    import ray

    from proj_ray.stages.partitioning import keyed_cogroup
    from proj_ray.stages.worker_cache import get_broadcast

    n_pairs = pairs.count()
    if n_pairs == 0:
        return _pair_frame(None)

    need = None
    if n_pairs <= _BROADCAST_PAIR_LIMIT:
        pair_tbl = pa.concat_tables(
            ray.get(pairs.to_arrow_refs()), promote_options="default")
        need = np.unique(np.concatenate([_np(pair_tbl, "doc_a"),
                                         _np(pair_tbl, "doc_b")]))
        if len(need) > _BROADCAST_DOC_LIMIT:
            need = None  # payload too big to broadcast — exchange

    if need is not None:
        need_ref = ray.put(need)

        def filt(t: pa.Table) -> pa.Table:
            ids = get_broadcast(need_ref)  # sorted
            d = _np(t, "doc_id")
            pos = np.searchsorted(ids, d)
            pos[pos >= len(ids)] = 0
            return t.filter(pa.array(ids[pos] == d))

        small = sigs_src().map_batches(filt, batch_format="pyarrow")
        sig_tbl = pa.concat_tables(ray.get(small.to_arrow_refs()),
                                   promote_options="default")
        sig_ref = ray.put(sig_tbl.sort_by("doc_id").combine_chunks())

        def verify(t: pa.Table) -> pa.Table:
            sig = get_broadcast(sig_ref)
            ids, sh = _np(sig, "doc_id"), sig.column("shingles")
            return _verified(
                t, sh.take(pa.array(np.searchsorted(ids, _np(t, "doc_a")))),
                sh.take(pa.array(np.searchsorted(ids, _np(t, "doc_b")))),
                jaccard_threshold)

        return _pair_frame(pairs.map_batches(verify, batch_format="pyarrow"))

    # one corpus pass for the shingle sets, pinned: both exchanges
    # read it
    sigs = sigs_src().materialize()

    def sets_of(sig: pa.Table, docs: np.ndarray):
        """`sig`'s shingle sets of `docs`, every one present in `sig`."""
        sig = sig.sort_by("doc_id")
        return sig.column("shingles").take(
            pa.array(np.searchsorted(_np(sig, "doc_id"), docs)))

    def attach_a(t: pa.Table, sig: pa.Table) -> pa.Table:
        return t.append_column("sh_a", sets_of(sig, _np(t, "doc_a")))

    def verify_b(t: pa.Table, sig: pa.Table) -> pa.Table:
        return _verified(t, t.column("sh_a"), sets_of(sig, _np(t, "doc_b")),
                         jaccard_threshold)

    # pinned: keyed_cogroup reads its left input's schema, which on an
    # unmaterialized exchange would run that exchange a second time
    with_a = keyed_cogroup(pairs, sigs, "doc_a", attach_a,
                           right_key="doc_id").materialize()
    return _pair_frame(keyed_cogroup(with_a, sigs, "doc_b", verify_b,
                                     right_key="doc_id"))


def minhash_lsh_pairs(docs_ds, jaccard_threshold: float = 0.8):
    """MinHash-LSH near-dup pairs with exact Jaccard verification.

    Scale shape: (1) LSH explode + a band-bucket-keyed exchange
    produces candidate pairs; (2) pairs are verified against the
    per-doc shingle-set stream by `_verify_pairs` (a broadcast for
    small candidate streams, doc_id-keyed exchanges for large ones)
    and the exact Jaccard is computed vectorized.  The driver never holds
    document text; all stages stream.

    Recall note (ADVICE r2): banding is derived from the threshold via
    `minhash_banding`, which places the S-curve midpoint (1/b)^(1/r)
    AT the threshold using up to 128 permutations — e.g. threshold
    0.8 -> 10 bands of 10 rows (midpoint 0.794), threshold 0.7 ->
    13 bands of 7 rows (midpoint 0.693).  A pair exactly at the
    threshold is caught with p ~= 0.5 and the probability rises
    steeply above it (> 95% within ~0.1), while sub-threshold
    template noise (j ~= 0.45) stays a few percent — the property
    that keeps the candidate set bounded at scale.  Use
    `ngram_jaccard_pairs` when deterministic completeness at the
    threshold is required."""
    n_bands, rows_per_band = minhash_banding(jaccard_threshold)
    bands = docs_ds.map_batches(
        minhash_bands_batch,
        fn_kwargs={"n_bands": n_bands, "rows_per_band": rows_per_band},
        batch_format="pyarrow")
    # One kernel call per (band_id, band_hash) bucket would pay per-call
    # overhead on tens of thousands of tiny buckets, so the exchange is
    # on band_hash into coarse partitions (size-derived: ~256 MB of
    # input per partition, floor 32) and each partition expands the
    # pairs of its equal-(band_hash, band_id) runs vectorized; runs of
    # >= 2 docs (the candidates) are rare.
    from proj_ray.stages.partitioning import (derive_num_partitions,
                                              key_spans, keyed_apply)

    def bucket_pairs(t: pa.Table) -> pa.Table:
        doc = _np(t, "doc_id")
        i, j = _run_pairs(*key_spans(_np(t, "band_hash"), _np(t, "band_id")),
                          lambda i, j: doc[i] != doc[j])
        # drop pairs repeated within this partition before the exchange
        a, b = _dedupe_pairs(doc[i], doc[j])
        return pa.table({"doc_a": pa.array(a), "doc_b": pa.array(b)})

    pairs = keyed_apply(bands, "band_hash", bucket_pairs,
                        derive_num_partitions(docs_ds, default=32),
                        sort_by=("band_id", "doc_id"))
    return _verify_pairs(
        _distinct_pairs(pairs),
        lambda: docs_ds.map_batches(shingle_sets_batch,
                                    batch_format="pyarrow"),
        jaccard_threshold)


def _dense_pairs(ids, all_ids, all_mat, all_sz, jaccard_threshold: float):
    """Dense-regime verify of the docs ``ids`` against every
    strictly-later doc of the sorted packed table (``all_ids``, bitset
    rows ``all_mat``, shingle counts ``all_sz``): arrays doc_a, doc_b,
    jaccard of the pairs at or above the threshold.  A doc without
    shingles is skipped: with another such doc its Jaccard is 0/0."""
    from proj_ray.stages.hashing import popcount64

    words = all_mat.shape[1]
    out_a, out_b, out_j = [], [], []
    for a in np.searchsorted(all_ids, ids):
        sza = all_sz[a]
        if sza == 0:
            continue
        cand = np.arange(a + 1, len(all_ids))
        szc = all_sz[cand]
        cand = cand[np.minimum(sza, szc)
                    >= jaccard_threshold * np.maximum(sza, szc)]
        if not len(cand):
            continue
        inter = popcount64(all_mat[cand] & all_mat[a]) \
            .reshape(len(cand), words).sum(axis=1)
        jac = inter / (sza + all_sz[cand] - inter)
        keep = jac >= jaccard_threshold
        out_a.append(np.full(int(keep.sum()), all_ids[a], dtype=np.int64))
        out_b.append(all_ids[cand[keep]])
        out_j.append(jac[keep])
    if not out_a:
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.float64))
    return (np.concatenate(out_a), np.concatenate(out_b),
            np.concatenate(out_j))


def ngram_jaccard_pairs(docs_ds, jaccard_threshold: float = 0.8,
                        ngram: int = 4):
    """DETERMINISTICALLY COMPLETE n-gram Jaccard similarity join:
    every pair with exact character-n-gram Jaccard >= threshold is
    returned (no LSH miss probability — the oracle-pairable variant of
    `minhash_lsh_pairs`).

    Classic prefix-filtering set-similarity join (Chaudhuri/Ganti/
    Kaushik SSJoin 2006; Xiao et al. PPJoin 2008), Ray-Data-shaped:

    1. one corpus pass builds per-doc sorted-unique shingle sets;
    2. a hash-partitioned aggregate counts document frequency per
       shingle (char-n-gram vocabulary is bounded — <= 2^32 by
       construction, ~10^6-10^7 on natural text — so the frequency
       table broadcasts; for unbounded word-shingle vocabularies use
       hash-order prefixes instead);
    3. each doc emits only its PREFIX tokens — the p = s - ceil(t*s) + 1
       rarest shingles under the global (freq, hash) order.  Any pair
       with J >= t must share a prefix token (prefix-filter theorem),
       so grouping prefix rows by shingle yields a complete candidate
       set; rarest-first ordering keeps the per-shingle doc runs small
       on natural text (a shared COMMON shingle never appears in a
       prefix);
    4. candidates pass the size-ratio filter (min(s)/max(s) >= t is
       necessary for J >= t) before the exact-Jaccard verify shared
       with MinHash (`_verify_pairs`).

    DENSE-VOCABULARY REGIME: prefix filtering assumes vocab >> docs, so
    rare shingles separate documents.  When the global df table shows
    the opposite (vocab << docs — templated/synthetic corpora), every
    prefix run is huge and the candidate stream degenerates toward
    all-pairs (measured at sf0.1: 985-shingle vocab over 5,000 docs ->
    29 M candidate occurrences for 256 true pairs; the generic merge
    verify then lexsorts ~1.6 G elements and never finishes).  The
    vocab size is known exactly after step (2), so in that regime the
    join switches shape: each doc's shingle set packs into a V-bit
    bitset (vocab-indexed uint64 words), the whole packed signature
    table broadcasts once (n_docs x V/8 bytes — the gate checks it
    fits), and each task scans its rows against the full broadcast
    table at memory bandwidth (size-ratio pre-filter, then vectorized
    AND+popcount verify against all strictly-later docs — each
    unordered pair visited exactly once).  The candidate volume is
    inherently ~n^2 in this regime either way; the blocked scan pays
    it in SIMD popcounts instead of a candidate explode + shuffle.
    Only true pairs ever leave the task — no candidate shuffle, no
    merge sort.  Completeness is trivial: every pair is examined."""
    import ray

    from proj_ray.stages.distinct import hll_estimate_batches
    from proj_ray.stages.partitioning import (derive_num_partitions,
                                              key_spans, keyed_apply)
    from proj_ray.stages.worker_cache import get_broadcast

    sigs = docs_ds.map_batches(shingle_sets_batch, fn_kwargs={"ngram": ngram},
                               batch_format="pyarrow").materialize()

    # (2) 100-TB shape (r4 VERDICT ask #2, r5 gate): the shingle-df
    # table is never pulled to the driver UNBOUNDED.  An HLL estimate
    # of the distinct-shingle count (one narrow register pass) picks
    # the regime:
    #   - vocabulary FITS (est * margin <= _BROADCAST_DF_MAX): the
    #     exact df table builds through the combine tree (pull bounded
    #     by the executable max_keys gate), broadcasts, and the prefix
    #     ranks resolve in ONE streaming pass — the fast small-corpus
    #     shape;
    #   - vocabulary is corpus-scale: df resolves in a shingle-keyed
    #     exchange (the exploded stream carries exactly one row per
    #     (doc, shingle), so df = rows per shingle), and the
    #     rarest-first prefix ranks resolve in a doc_id-keyed one —
    #     nothing shingle-keyed reaches the driver.  The dense regime
    #     is impossible here (_DENSE_VOCAB_MAX << _BROADCAST_DF_MAX).
    n_docs = sigs.count()
    num_parts = derive_num_partitions(sigs, default=32)
    est_vocab = hll_estimate_batches(
        sigs, lambda t: _binary_int64_segments(t.column("shingles"))[0])
    broadcast_df = (est_vocab * _GATE_MARGIN <= _BROADCAST_DF_MAX)

    if broadcast_df:
        from proj_ray.stages.agg import tree_aggregate

        def shingle_rows(t: pa.Table) -> pa.Table:
            vals, _ = _binary_int64_segments(t.column("shingles"))
            return pa.table({"shingle": pa.array(vals)})

        freq_ds = tree_aggregate(
            sigs.map_batches(shingle_rows, batch_format="pyarrow"),
            ["shingle"], [("df", "count")], fanout=8,
            max_keys=_BROADCAST_DF_MAX)
        freq_tbl = pa.concat_tables(ray.get(freq_ds.to_arrow_refs()),
                                    promote_options="default")
        fvals, fcnts = _np(freq_tbl, "shingle"), _np(freq_tbl, "df")
        forder = np.argsort(fvals)
        fvals, fcnts = fvals[forder], fcnts[forder]
        freq_ref = ray.put((fvals, fcnts))
        vocab = len(fvals)
        words = (vocab + 63) >> 6
        dense = (vocab <= _DENSE_VOCAB_MAX
                 and n_docs * words * 8 <= _DENSE_SIG_BYTES)

        # prefix emission in ONE pass: rank each doc's shingles
        # rarest-first under the broadcast (df, value) order and keep
        # the first p = s - ceil(t*s) + 1
        def prefix_rows(t: pa.Table) -> pa.Table:
            fv, fc = get_broadcast(freq_ref)
            vals, off = _binary_int64_segments(t.column("shingles"))
            doc = _np(t, "doc_id")
            counts = np.diff(off)
            nd = len(counts)
            doc_idx = np.repeat(np.arange(nd, dtype=np.int64), counts)
            df = fc[np.searchsorted(fv, vals)]
            order = np.lexsort((vals, df, doc_idx))
            rank = np.arange(len(vals), dtype=np.int64) \
                - np.repeat(off[:-1], counts)
            p = counts - np.ceil(jaccard_threshold * counts) \
                .astype(np.int64) + 1
            mask = rank < np.repeat(p, counts)
            keep = order[mask]
            return pa.table({
                "shingle": pa.array(vals[keep]),
                "doc_id": pa.array(doc[doc_idx[keep]]),
                "nsh": pa.array(counts[doc_idx[keep]]),
                # 0-based rank of this token in the doc's global
                # (df, val) order — the PPJoin positional filter input
                "rnk": pa.array(rank[mask])})

        prefix = sigs.map_batches(prefix_rows, batch_format="pyarrow")
    else:
        dense = False  # vocab >> _DENSE_VOCAB_MAX by the gate
        fvals = None

        def explode_shingles(t: pa.Table) -> pa.Table:
            vals, off = _binary_int64_segments(t.column("shingles"))
            counts = np.diff(off)
            doc = _np(t, "doc_id")
            return pa.table({
                "shingle": pa.array(vals),
                "doc_id": pa.array(np.repeat(doc, counts)),
                "nsh": pa.array(np.repeat(counts.astype(np.int64),
                                          counts))})

        def attach_df(t: pa.Table) -> pa.Table:
            _, inv, df = np.unique(_np(t, "shingle"), return_inverse=True,
                                   return_counts=True)
            return t.append_column("df", pa.array(df[inv]))

        # prefix emission: each doc's rows arrive rarest-first (ties
        # broken by shingle value — the same total order in every
        # partition); keep the first p = s - ceil(t*s) + 1
        def rank_prefix(t: pa.Table) -> pa.Table:
            starts, runs = key_spans(_np(t, "doc_id"))
            rank = np.arange(len(t), dtype=np.int64) \
                - np.repeat(starts, runs)
            nsh = _np(t, "nsh")
            mask = rank < nsh - np.ceil(jaccard_threshold * nsh) \
                .astype(np.int64) + 1
            return t.drop_columns(["df"]) \
                .append_column("rnk", pa.array(rank)) \
                .filter(pa.array(mask))

        with_df = keyed_apply(
            sigs.map_batches(explode_shingles, batch_format="pyarrow"),
            "shingle", attach_df, num_parts)
        prefix = keyed_apply(with_df, "doc_id", rank_prefix, num_parts,
                             sort_by=("df", "shingle"))

    if dense:
        # ---- dense regime: broadcast packed bitsets, verify inline ----
        # only reachable in the broadcast-df regime, where fvals is the
        # exact (bounded) vocabulary
        vocab_ref = ray.put(fvals)

        def pack_batch(t: pa.Table) -> pa.Table:
            uv = get_broadcast(vocab_ref)
            vals, off = _binary_int64_segments(t.column("shingles"))
            n = len(off) - 1
            counts = np.diff(off)
            mat = np.zeros((n, words), dtype=np.uint64)
            row = np.repeat(np.arange(n, dtype=np.int64), counts)
            col = np.searchsorted(uv, vals)
            np.bitwise_or.at(
                mat, (row, col >> 6),
                np.uint64(1) << (col & 63).astype(np.uint64))
            blob = pa.FixedSizeBinaryArray.from_buffers(
                pa.binary(words * 8), n,
                [None, pa.py_buffer(np.ascontiguousarray(mat).tobytes())])
            return pa.table({"doc_id": t.column("doc_id"),
                             "packed": blob,
                             "nsh": pa.array(counts)})

        ptbl = pa.concat_tables(
            ray.get(sigs.map_batches(pack_batch, batch_format="pyarrow")
                    .to_arrow_refs()),
            promote_options="default").combine_chunks()
        ids_g = ptbl.column("doc_id").to_numpy(zero_copy_only=False)
        pcol = ptbl.column("packed")
        if isinstance(pcol, pa.ChunkedArray):
            pcol = pcol.combine_chunks()
        mat_g = np.frombuffer(
            pcol.buffers()[1], dtype=np.uint64,
            count=len(pcol) * words,
            offset=pcol.offset * words * 8).reshape(-1, words)
        sz_g = ptbl.column("nsh").to_numpy(zero_copy_only=False)
        gorder = np.argsort(ids_g)
        ids_s = ids_g[gorder]
        # the bitset scan pairs each row only with strictly-later ids
        # in this order, so a repeated doc_id would silently mis-pair
        dup = np.flatnonzero(ids_s[1:] == ids_s[:-1])
        if len(dup):
            raise ValueError(
                f"repeated doc_id {ids_s[dup[0]]!r} in the dense "
                "near-dup input: doc_id must be unique")
        pack_ref = ray.put((ids_s,
                            np.ascontiguousarray(mat_g[gorder]),
                            sz_g[gorder]))

        # all-pairs blocked bitset scan: in this regime the prefix
        # filter DEGENERATES (vocab << docs, so every prefix run is
        # huge — measured 29 M candidate occurrences for 256 true
        # pairs at sf0.1) while the whole packed table is already
        # broadcast and n_docs is bounded by the _DENSE_SIG_BYTES
        # gate, so the candidate volume is inherently ~n^2 either
        # way.  Scanning each task's rows against the full table at
        # memory bandwidth removes the prefix explode, the candidate
        # shuffle and the per-run pair explosion (measured 22 s ->
        # ~2 s at sf0.1).  Each unordered pair is emitted exactly
        # once: a doc lives in one sigs row, and a row only pairs
        # with strictly-later docs in the broadcast order.
        def all_pairs_dense(t: pa.Table) -> pa.Table:
            ids = t.column("doc_id").to_numpy(zero_copy_only=False)
            a, b, j = _dense_pairs(ids, *get_broadcast(pack_ref),
                                   jaccard_threshold)
            return pa.table({"doc_a": pa.array(a, type=pa.int64()),
                             "doc_b": pa.array(b, type=pa.int64()),
                             "jaccard": pa.array(j, type=pa.float64())})

        return _pair_frame(sigs.map_batches(all_pairs_dense,
                                            batch_format="pyarrow"))

    # ---- sparse regime: shingle-keyed candidates + shared verify ----
    def prefix_pairs(t: pa.Table) -> pa.Table:
        doc, sz, rk = _np(t, "doc_id"), _np(t, "nsh"), _np(t, "rnk")

        def keep(i, j):
            # size-ratio filter: J >= t requires min(s)/max(s) >= t
            ok = (doc[i] != doc[j]) & (np.minimum(sz[i], sz[j])
                                       >= jaccard_threshold
                                       * np.maximum(sz[i], sz[j]))
            # PPJoin positional filter: tokens at global-order rank
            # >= rk are the only ones that can still intersect, so
            # I <= min(s - rk) — and J >= t needs
            # I >= t/(1+t) * (s_i + s_j).  A true pair always passes
            # for its FIRST shared prefix token (all its shared tokens
            # rank >= that token), so keeping pairs that pass in ANY
            # partition preserves completeness.
            alpha = (jaccard_threshold / (1.0 + jaccard_threshold)) \
                * (sz[i] + sz[j])
            return ok & (np.minimum(sz[i] - rk[i], sz[j] - rk[j])
                         >= alpha - 1e-9)

        i, j = _run_pairs(*key_spans(_np(t, "shingle")), keep)
        a, b = _dedupe_pairs(doc[i], doc[j])
        return pa.table({"doc_a": pa.array(a), "doc_b": pa.array(b)})

    pairs = keyed_apply(prefix, "shingle", prefix_pairs, num_parts,
                        sort_by=("doc_id",))
    return _verify_pairs(_distinct_pairs(pairs), lambda: sigs,
                         jaccard_threshold)


def _jaccard_texts(a: str, b: str) -> float:
    """Scalar reference for tests."""
    import zlib

    def sh(text):
        bts = text.encode()
        if len(bts) < 4:
            return {zlib.crc32(bts)}
        return {zlib.crc32(bts[i:i + 4]) for i in range(len(bts) - 3)}

    sa, sb = sh(a), sh(b)
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / len(sa | sb)


# ------------------------------ SimHash ------------------------------------


def simhash64_batch(batch: pa.Table) -> pa.Table:
    """64-bit SimHash over whitespace tokens, fully vectorized: token
    spans from the raw UTF-8 buffer, crc32 span hashes (fwd | rev<<32),
    per-doc bit votes via segmented sums."""
    from proj_ray.stages.hashing import (arrow_string_bytes, crc32_spans,
                                         popcount64)

    data, off = arrow_string_bytes(batch.column("text"))
    n_docs = len(off) - 1
    out = np.zeros(n_docs, dtype=np.uint64)
    if len(data):
        ws = (data == 32) | ((data >= 9) & (data <= 13))
        is_tok = ~ws
        prev = np.empty(len(data), dtype=bool)
        prev[0] = False
        prev[1:] = is_tok[:-1]
        prev[off[:-1][off[:-1] < len(data)]] = False  # reset at doc starts
        starts = np.flatnonzero(is_tok & ~prev)
        nxt = np.empty(len(data), dtype=bool)
        nxt[-1] = False
        nxt[:-1] = is_tok[1:]
        doc_last = off[1:] - 1
        nxt[doc_last[doc_last >= 0]] = False
        ends = np.flatnonzero(is_tok & ~nxt)
        lens = ends - starts + 1
        if len(starts):
            h_f = crc32_spans(data, starts, lens)
            h_r = crc32_spans(data, starts, lens, reverse=True)
            hs = h_f.astype(np.uint64) \
                | (h_r.astype(np.uint64) << np.uint64(32))
            tok_doc = np.searchsorted(off, starts, side="right") - 1
            n_tok = np.bincount(tok_doc, minlength=n_docs)
            tok_seg = np.zeros(n_docs + 1, dtype=np.int64)
            np.cumsum(n_tok, out=tok_seg[1:])
            has = n_tok > 0
            seg_starts = tok_seg[:-1][has]
            votes_doc = np.zeros(n_docs, dtype=np.uint64)
            for j in range(64):
                bit = ((hs >> np.uint64(j)) & np.uint64(1)).astype(np.int64)
                cnt = np.add.reduceat(bit, seg_starts)
                vote = (cnt * 2 > n_tok[has]).astype(np.uint64)
                votes_doc[has] |= vote << np.uint64(j)
            out = votes_doc
    return pa.table({"doc_id": batch.column("doc_id"),
                     "simhash": pa.array(out)})


def simhash_near_pairs(docs_ds, max_hamming: int = 3):
    """Near-dup pairs by SimHash Hamming distance <= max_hamming.

    Block-permutation LSH: 4 16-bit chunks as bucket keys; any pair
    within distance 3 shares at least one chunk.  Pair generation and
    popcount are vectorized; cross-chunk duplicates collapse in a small
    grouped aggregate, not on the driver."""
    from proj_ray.stages.agg import hash_shuffle_aggregate
    from proj_ray.stages.hashing import popcount64
    from proj_ray.stages.partitioning import (derive_num_partitions,
                                              key_spans, keyed_apply)

    sh = docs_ds.map_batches(simhash64_batch, batch_format="pyarrow")

    def explode(t: pa.Table) -> pa.Table:
        doc = _np(t, "doc_id")
        h = _np(t, "simhash").astype(np.uint64)
        # bucket = chunk << 16 | that chunk's 16 bits
        bucket = np.concatenate([
            ((h >> np.uint64(16 * c)) & np.uint64(0xFFFF)).astype(np.int64)
            | (c << 16) for c in range(4)])
        return pa.table({"bucket": pa.array(bucket),
                         "doc_id": pa.array(np.tile(doc, 4)),
                         "sh": pa.array(np.tile(h, 4))})

    # (chunk, key) buckets number in the tens of thousands; exchange
    # into coarse size-derived partitions and expand pairs vectorized
    # per bucket run (same shape as the MinHash path — per-bucket call
    # overhead would dominate otherwise)
    def bucket_pairs(t: pa.Table) -> pa.Table:
        doc, hh = _np(t, "doc_id"), _np(t, "sh").astype(np.uint64)
        i, j = _run_pairs(
            *key_spans(_np(t, "bucket")),
            lambda i, j: (doc[i] != doc[j])
            & (popcount64(hh[i] ^ hh[j]) <= max_hamming))
        return pa.table({"doc_a": pa.array(doc[i]), "doc_b": pa.array(doc[j]),
                         "hamming": pa.array(popcount64(hh[i] ^ hh[j]))})

    res = keyed_apply(sh.map_batches(explode, batch_format="pyarrow"),
                      "bucket", bucket_pairs,
                      derive_num_partitions(docs_ds, default=32),
                      sort_by=("doc_id",))
    res = hash_shuffle_aggregate(res, ["doc_a", "doc_b"],
                                 [("hamming", "min")], num_buckets=16)
    df = res.to_pandas()
    return df.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)


# ------------------------- embedding near-dup ------------------------------


def auto_lsh_params(threshold: float, target_recall: float = 0.99,
                    max_bands: int = 32) -> Tuple[int, int]:
    """(n_bands, band_bits) for random-hyperplane LSH sized so a pair
    AT the cosine threshold is caught with ~target_recall."""
    p = 1.0 - np.arccos(np.clip(threshold, -1, 1)) / np.pi
    band_bits = max(1, int(np.floor(np.log(0.35) / np.log(p))))
    band_p = p ** band_bits
    n_bands = int(np.ceil(np.log(1 - target_recall) / np.log(1 - band_p)))
    return min(max(n_bands, 4), max_bands), band_bits


_PLANE_CACHE: Dict[Tuple[int, int, int, int], np.ndarray] = {}


def _hyperplanes(dim: int, n_bands: int, band_bits: int,
                 seed: int) -> np.ndarray:
    """Deterministic random hyperplanes, cached per worker process —
    every task derives the same planes from the seed, so the stage can
    run as an uncapped task pool (no actor-pool spin-up, no broadcast)."""
    key = (dim, n_bands, band_bits, seed)
    planes = _PLANE_CACHE.get(key)
    if planes is None:
        rng = np.random.default_rng(seed)
        planes = rng.standard_normal((dim, n_bands * band_bits))
        _PLANE_CACHE[key] = planes
    return planes


def embedding_near_dup(emb_ds, threshold: float = 0.95, seed: int = 5):
    """Cosine near-duplicate pairs via hyperplane-LSH bucketing.

    Scale shape: vectors are EXPLODED to one row per (band, key) bucket
    (~n_bands x the vector payload), an exchange on the bucket gathers
    the tens of thousands of tiny buckets into COARSE size-derived
    partitions (one kernel call per bucket would pay per-call overhead
    — the r1 MinHash lesson), exact cosine runs per bucket run inside
    each partition, and a final small aggregate dedupes pairs found by
    several bands.  No whole-corpus broadcast or driver
    materialization; recall at the threshold boundary is ~99% by
    construction (auto_lsh_params)."""
    from proj_ray.stages.agg import hash_shuffle_aggregate
    from proj_ray.stages.partitioning import (derive_num_partitions,
                                              key_spans, keyed_apply)

    n_bands, band_bits = auto_lsh_params(threshold)

    def band_rows(batch: pa.Table) -> pa.Table:
        emb_col = batch.column("embedding")
        emb = _list_matrix(emb_col)
        planes = _hyperplanes(emb.shape[1], n_bands, band_bits, seed)
        bits = (emb @ planes) >= 0  # (n, n_bands*band_bits)
        n = len(emb)
        weights = (1 << np.arange(band_bits, dtype=np.int64))
        keys = bits.reshape(n, n_bands, band_bits) @ weights
        # bucket = band << band_bits | the band's key
        bucket = keys.T.reshape(-1) \
            | np.repeat(np.arange(n_bands, dtype=np.int64) << band_bits, n)
        idx = np.tile(np.arange(n, dtype=np.int64), n_bands)
        return pa.table({
            "bucket": pa.array(bucket),
            "vec_id": pa.array(np.tile(_np(batch, "vec_id"), n_bands)),
            "embedding": emb_col.take(pa.array(idx)),
        })

    def bucket_pairs(t: pa.Table) -> pa.Table:
        ids = _np(t, "vec_id")
        mat = _list_matrix(t.column("embedding"))
        mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
        starts, lens = key_spans(_np(t, "bucket"))
        multi = lens >= 2
        out_a = [np.empty(0, ids.dtype)]
        out_b = [np.empty(0, ids.dtype)]
        out_c = [np.empty(0, np.float64)]
        for s, ln in zip(starts[multi], lens[multi]):
            rid = ids[s:s + ln]
            sims = mat[s:s + ln] @ mat[s:s + ln].T
            i, j = np.triu_indices(ln, 1)
            keep = (sims[i, j] >= threshold) & (rid[i] != rid[j])
            out_a.append(np.minimum(rid[i][keep], rid[j][keep]))
            out_b.append(np.maximum(rid[i][keep], rid[j][keep]))
            out_c.append(np.round(sims[i, j][keep], 9))
        return pa.table({"vec_a": pa.array(np.concatenate(out_a)),
                         "vec_b": pa.array(np.concatenate(out_b)),
                         "cosine": pa.array(np.concatenate(out_c))})

    pairs = keyed_apply(emb_ds.map_batches(band_rows, batch_format="pyarrow"),
                        "bucket", bucket_pairs,
                        derive_num_partitions(emb_ds, default=32),
                        sort_by=("vec_id",))
    return hash_shuffle_aggregate(pairs, ["vec_a", "vec_b"],
                                  [("cosine", "max")], num_buckets=16)
