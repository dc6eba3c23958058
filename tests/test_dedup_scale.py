"""Vectorized dedup/ANN kernels vs brute-force ground truth.

Covers the round-2 scale rewrites: vectorized hashing kernels,
both MinHash verify paths (broadcast and the doc_id-keyed exchanges,
the latter also on a 1-CPU cluster), every regime of the n-gram
Jaccard join, LSH-bucketed embedding near-dup, and
centroid-partitioned IVF (streaming and indexed agree)."""

import functools
import json
import os
import signal
import subprocess
import sys

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

SF = "/root/testdata/sf0.001"
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@functools.lru_cache(maxsize=None)
def _truth(threshold: float) -> dict:
    """Brute force: {(doc_a, doc_b): jaccard} of every pair of SF
    documents with `_jaccard_texts` >= threshold."""
    from proj_ray.stages.dedup import _jaccard_texts

    t = pq.read_table(f"{SF}/documents.parquet")
    ids = t["doc_id"].to_pylist()
    txt = t["text"].to_pylist()
    truth = {}
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            jac = _jaccard_texts(txt[i], txt[j])
            if jac >= threshold:
                truth[tuple(sorted((ids[i], ids[j])))] = jac
    return truth


def test_hashing_kernels_match_scalar():
    import zlib

    from proj_ray.stages.hashing import (crc32_segments, crc32_spans,
                                         crc32_windows, doc_shingles,
                                         popcount64, rolling_hash_batch)

    data = np.frombuffer(b"the quick brown fox", dtype=np.uint8)
    want = [zlib.crc32(bytes(data[i:i + 4])) for i in range(len(data) - 3)]
    assert list(crc32_windows(data, 4)) == want

    segs = [b"", b"a", b"hello world"]
    sdata = np.frombuffer(b"".join(segs), dtype=np.uint8)
    soff = np.cumsum([0] + [len(s) for s in segs])
    assert list(crc32_segments(sdata, np.asarray(soff))) \
        == [zlib.crc32(s) for s in segs]

    starts = np.array([4, 10], dtype=np.int64)
    lens = np.array([5, 5], dtype=np.int64)
    fwd = crc32_spans(data, starts, lens)
    rev = crc32_spans(data, starts, lens, reverse=True)
    for i in range(2):
        chunk = bytes(data[starts[i]:starts[i] + lens[i]])
        assert fwd[i] == zlib.crc32(chunk)
        assert rev[i] == zlib.crc32(chunk[::-1])

    texts = ["hello", "", "abc" * 100]
    got = rolling_hash_batch(pa.array(texts))
    for g, t in zip(got, texts):
        h = 0
        for ch in t.encode():
            h = (h * 257 + ch) % (1 << 64)
        assert g == h

    hashes, seg = doc_shingles(pa.array(texts), 4)
    for i, t in enumerate(texts):
        b = t.encode()
        if len(b) < 4:
            want_i = [zlib.crc32(b)]
        else:
            want_i = [zlib.crc32(b[j:j + 4]) for j in range(len(b) - 3)]
        assert list(hashes[seg[i]:seg[i + 1]]) == want_i

    x = np.array([0, 1, 0xFFFFFFFFFFFFFFFF, 1 << 63], dtype=np.uint64)
    assert list(popcount64(x)) == [0, 1, 64, 1]


def test_simhash_batch_matches_scalar():
    import zlib

    from proj_ray.stages.dedup import simhash64_batch

    texts = ["hello world foo", "", "  spaced   out  ", "single",
             "tab\tsep\nnewline"]
    out = simhash64_batch(pa.table({"doc_id": list(range(len(texts))),
                                    "text": texts}))

    def scalar(text):
        toks = text.split()
        if not toks:
            return 0
        hs = np.fromiter((zlib.crc32(t.encode()) for t in toks),
                         dtype=np.uint64, count=len(toks))
        hs = hs | (np.fromiter(
            (zlib.crc32(t.encode()[::-1]) for t in toks),
            dtype=np.uint64, count=len(toks)) << np.uint64(32))
        bits = ((hs[:, None] >> np.arange(64, dtype=np.uint64)) & 1)
        vote = bits.sum(axis=0) * 2 > len(toks)
        return int(np.sum(vote.astype(np.uint64)
                          << np.arange(64, dtype=np.uint64)))

    assert out.column("simhash").to_pylist() == [scalar(t) for t in texts]


def test_run_pairs_matches_triu(monkeypatch):
    """`_run_pairs` gives every within-run pair in per-run triu order,
    filtered by `keep`, whatever the pair chunk size."""
    import proj_ray.stages.dedup as dd
    from proj_ray.stages.partitioning import key_spans

    starts, lens = key_spans(np.repeat(np.arange(6), [1, 4, 2, 1, 5, 3]))
    want = [(s + i, s + j) for s, n in zip(starts, lens)
            for i, j in zip(*np.triu_indices(n, 1))]
    for chunk in (1, 3, 1 << 20):
        monkeypatch.setattr(dd, "_PAIR_CHUNK", chunk)
        i, j = dd._run_pairs(starts, lens,
                             lambda i, j: np.ones(len(i), dtype=bool))
        assert list(zip(i, j)) == want
        i, j = dd._run_pairs(starts, lens, lambda i, j: (i + j) % 2 == 0)
        assert list(zip(i, j)) == [p for p in want if sum(p) % 2 == 0]
    i, j = dd._run_pairs(*key_spans(np.array([], dtype=np.int64)),
                         lambda i, j: i < j)
    assert len(i) == 0 and len(j) == 0


def test_minhash_pairs_match_bruteforce(ray_session):
    import ray.data as rd

    from proj_ray.stages.dedup import minhash_lsh_pairs

    docs = rd.read_parquet(f"{SF}/documents.parquet",
                           columns=["doc_id", "text"])
    got = minhash_lsh_pairs(docs, jaccard_threshold=0.7)
    got_pairs = set(zip(got["doc_a"], got["doc_b"]))
    truth = set(_truth(0.7))
    # precision is exact by construction (verified); recall should be
    # total on this corpus (near-dup jaccards are far above threshold)
    assert got_pairs == truth


def test_embedding_near_dup_recall(ray_session):
    import ray.data as rd

    from proj_ray.stages.dedup import embedding_near_dup

    t = pq.read_table(f"{SF}/embeddings.parquet")
    vids = np.array(t["vec_id"].to_pylist())
    mat = np.array(t["embedding"].to_pylist(), dtype=np.float64)
    mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    sims = mat @ mat.T
    i, j = np.triu_indices(len(vids), 1)
    keep = sims[i, j] >= 0.4
    truth = set(zip(np.minimum(vids[i][keep], vids[j][keep]),
                    np.maximum(vids[i][keep], vids[j][keep])))

    nd = embedding_near_dup(
        rd.read_parquet(f"{SF}/embeddings.parquet"),
        threshold=0.4).to_pandas()
    got = set(zip(np.minimum(nd["vec_a"], nd["vec_b"]),
                  np.maximum(nd["vec_a"], nd["vec_b"])))
    assert not (got - truth), "no false positives (exact verify)"
    recall = len(got & truth) / max(len(truth), 1)
    assert recall >= 0.9, recall


def test_ivf_indexed_matches_streaming(ray_session, tmp_path):
    import ray.data as rd

    from proj_ray.stages.ann import (ann_ivf_topk, ann_ivf_topk_indexed,
                                     ivf_build)

    ds = rd.read_parquet(f"{SF}/embeddings.parquet")
    qdf = ds.to_pandas().head(6)
    queries = {"query_id": qdf["vec_id"].to_numpy(),
               "embedding": np.vstack(qdf["embedding"].to_numpy())}
    stream = ann_ivf_topk(ds, queries, k=5, n_centroids=8,
                          nprobe=4).to_pandas()
    ivf_build(ds, str(tmp_path / "idx"), n_centroids=8)
    idx = ann_ivf_topk_indexed(str(tmp_path / "idx"), queries, k=5,
                               nprobe=4).to_pandas()
    a = set(zip(stream["query_id"], stream["vec_id"]))
    b = set(zip(idx["query_id"], idx["vec_id"]))
    assert a == b


def test_text_scorer_fingerprint_deterministic(ray_session):
    import ray.data as rd

    from proj_ray.stages.text import TextScorer

    ds = rd.read_parquet(f"{SF}/documents.parquet",
                         columns=["doc_id", "text"])
    a = ds.map_batches(TextScorer, batch_format="pyarrow",
                       concurrency=2).to_pandas().sort_values("doc_id")
    b = ds.map_batches(TextScorer, batch_format="pyarrow",
                       concurrency=2).to_pandas().sort_values("doc_id")
    assert (a["fingerprint"].to_numpy() == b["fingerprint"].to_numpy()).all()
    from proj_ray.stages.text import rolling_hash
    row = a.iloc[0]
    txt = pq.read_table(f"{SF}/documents.parquet").to_pandas() \
        .set_index("doc_id").loc[row["doc_id"], "text"]
    assert row["fingerprint"] == rolling_hash(txt)


def test_checkpoint_resume_validation(tmp_path):
    import pyarrow as pa

    from proj_ray.state.checkpoint import CheckpointWriter

    w = CheckpointWriter(str(tmp_path), {"v": 1})
    w.write_partition("p0", pa.table({"x": [1, 2]}))
    w.write_partition("p1", pa.table({"x": [3]}))
    assert w.is_done("p0") and w.is_done("p1")
    # deleting the data file invalidates the partition despite manifest
    import shutil
    shutil.rmtree(str(tmp_path / "part=p0"))
    assert not w.is_done("p0")
    assert w.read_all().num_rows == 1
    # a config change invalidates everything
    w2 = CheckpointWriter(str(tmp_path), {"v": 2})
    assert not w2.is_done("p1")
    assert w2.read_all().num_rows == 0


def test_simhash_pairs_match_bruteforce(ray_session):
    """4-chunk LSH is EXHAUSTIVE for hamming <= 3 (pigeonhole), so the
    distributed result must equal all-pairs popcount exactly."""
    import ray.data as rd

    from proj_ray.stages.dedup import simhash64_batch, simhash_near_pairs
    from proj_ray.stages.hashing import popcount64

    docs = rd.read_parquet(f"{SF}/documents.parquet",
                           columns=["doc_id", "text"])
    got = simhash_near_pairs(docs, max_hamming=3)
    got_set = set(zip(got["doc_a"], got["doc_b"], got["hamming"]))

    t = pq.read_table(f"{SF}/documents.parquet")
    sh = simhash64_batch(pa.table({"doc_id": t["doc_id"],
                                   "text": t["text"]}))
    ids = np.asarray(sh["doc_id"].to_pylist())
    hv = np.asarray(sh["simhash"].to_pylist(), dtype=np.uint64)
    i, j = np.triu_indices(len(ids), 1)
    ham = popcount64(hv[i] ^ hv[j])
    m = ham <= 3
    truth = set(zip(np.minimum(ids[i][m], ids[j][m]),
                    np.maximum(ids[i][m], ids[j][m]), ham[m]))
    assert got_set == truth


def test_ngram_jaccard_pairs_complete(ray_session):
    """Prefix-filter join must return EVERY pair >= threshold (no LSH
    miss probability), with exact unrounded jaccard values."""
    import ray.data as rd

    from proj_ray.stages.dedup import ngram_jaccard_pairs

    docs = rd.read_parquet(f"{SF}/documents.parquet",
                           columns=["doc_id", "text"])
    got = ngram_jaccard_pairs(docs, jaccard_threshold=0.8)
    truth = _truth(0.8)
    got_pairs = {(a, b): j for a, b, j in
                 zip(got["doc_a"], got["doc_b"], got["jaccard"])}
    assert set(got_pairs) == set(truth)
    for k, jac in truth.items():
        assert got_pairs[k] == jac  # bit-identical double division


def test_ngram_jaccard_dense_skips_zero_shingle_docs(ray_session):
    """Two docs without shingles (texts shorter than the n-gram) must
    not pair through a 0/0 Jaccard in the dense-vocabulary verify."""
    import warnings

    import ray.data as rd

    from proj_ray.stages.dedup import _dense_pairs, ngram_jaccard_pairs

    text = "the quick brown fox jumps over the lazy dog"
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([1, 2, 3, 4], type=pa.int64()),
        "text": ["", "ab", text, text]}))
    got = ngram_jaccard_pairs(docs, jaccard_threshold=0.8)
    assert list(zip(got["doc_a"], got["doc_b"], got["jaccard"])) == \
        [(3, 4, 1.0)]

    # the per-task verify, in-process so that a warning is an error
    ids = np.array([1, 2, 3, 4], dtype=np.int64)
    mat = np.array([[0], [0], [0b1011], [0b1011]], dtype=np.uint64)
    sz = np.array([0, 0, 3, 3], dtype=np.int64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a, b, j = _dense_pairs(ids, ids, mat, sz, 0.8)
    assert list(zip(a, b, j)) == [(3, 4, 1.0)]


def test_ngram_jaccard_dense_rejects_repeated_doc_id(ray_session):
    """The dense verify pairs each row only with strictly-later ids in
    the broadcast order, so a repeated doc_id must raise rather than
    silently mis-pair."""
    import ray.data as rd

    from proj_ray.stages.dedup import ngram_jaccard_pairs

    text = "the quick brown fox jumps over the lazy dog"
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([1, 2, 3, 3], type=pa.int64()),
        "text": ["", "ab", text, text + " again"]}))
    with pytest.raises(ValueError, match="repeated doc_id 3"):
        ngram_jaccard_pairs(docs, jaccard_threshold=0.8)


def test_minhash_recall_vs_banding_bound(ray_session):
    """VERDICT r3 item 6: quantify LSH recall against the deterministic
    twin.  For every true pair (from the COMPLETE ngram join) with
    exact Jaccard j, the banding catches it with p = 1 - (1 - j^r)^b;
    measured recall must be >= the predicted mean minus 3 sigma (a
    sound lower bound because each pair is an independent Bernoulli
    over the MinHash permutations)."""
    import ray.data as rd

    from proj_ray.stages.dedup import (minhash_banding,
                                       minhash_lsh_pairs,
                                       ngram_jaccard_pairs)

    thr = 0.7
    docs = rd.read_parquet(f"{SF}/documents.parquet",
                           columns=["doc_id", "text"])
    exact = ngram_jaccard_pairs(docs, jaccard_threshold=thr)
    lsh = minhash_lsh_pairs(docs, jaccard_threshold=thr)
    truth = {(a, b): j for a, b, j in
             zip(exact["doc_a"], exact["doc_b"], exact["jaccard"])}
    got = set(zip(lsh["doc_a"], lsh["doc_b"]))
    assert truth, "synth corpus must contain near-dup pairs"
    assert not (got - set(truth)), "verify step admits no false pairs"

    b, r = minhash_banding(thr)
    p = np.array([1 - (1 - j**r)**b for j in truth.values()])
    predicted = p.mean()
    sigma = np.sqrt((p * (1 - p)).sum()) / len(p)
    recall = len(got & set(truth)) / len(truth)
    assert recall >= predicted - 3 * sigma - 1e-12, \
        (recall, predicted, sigma)


def test_verify_pairs_shuffle_path_partitions_exceed_pairs(
        ray_session, monkeypatch):
    """The r2 driver crash: a verify exchange with more hash partitions
    than pair rows left partitions empty (then an ArrowInvalid in
    Dataset.join).  Force the exchange fallback on a tiny pair stream
    (32 partitions or more) and require the brute-force pair set."""
    import ray.data as rd

    import proj_ray.stages.dedup as dd

    monkeypatch.setattr(dd, "_BROADCAST_PAIR_LIMIT", 0)  # force shuffle
    docs = rd.read_parquet(f"{SF}/documents.parquet",
                           columns=["doc_id", "text"])
    got = dd.minhash_lsh_pairs(docs, jaccard_threshold=0.7)
    got_pairs = set(zip(got["doc_a"], got["doc_b"]))
    assert got_pairs == set(_truth(0.7))


_ONE_CPU_SHUFFLE_VERIFY = """
import json

import ray
import ray.data as rd

ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR")
import proj_ray.stages.dedup as dd

dd._BROADCAST_PAIR_LIMIT = 0
docs = rd.read_parquet({path!r}, columns=["doc_id", "text"])
got = dd.minhash_lsh_pairs(docs, jaccard_threshold=0.8)
print(json.dumps([[int(a), int(b)]
                  for a, b in zip(got["doc_a"], got["doc_b"])]))
"""


def test_verify_pairs_shuffle_path_one_cpu():
    """The forced exchange verify on a 1-CPU cluster of its own must
    finish and return the brute-force pair set.  A verify whose
    exchange parks actors on CPU slots (the Dataset.join it replaced)
    hangs there: its actors wait for a slot the upstream needs."""
    code = _ONE_CPU_SHUFFLE_VERIFY.format(
        path=f"{SF}/documents.parquet")
    proc = subprocess.Popen([sys.executable, "-c", code], cwd=ROOT,
                            stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("forced exchange verify did not finish in 120 s "
                    "on 1 CPU")
    assert proc.returncode == 0, err[-2000:]
    got = {tuple(p) for p in json.loads(out.strip().splitlines()[-1])}
    truth = set(_truth(0.8))
    assert len(truth) == 28
    assert got == truth


# the gate overrides that pin each regime of ngram_jaccard_pairs
_NGRAM_REGIMES = {
    "dense": {},
    "broadcast_sparse": {"_DENSE_VOCAB_MAX": 0},
    "shuffled": {"_BROADCAST_DF_MAX": 1},
}


@pytest.mark.parametrize("regime", list(_NGRAM_REGIMES))
def test_ngram_jaccard_regimes_identical(ray_session, monkeypatch,
                                         regime):
    """Each regime of the set-similarity join (dense bitset scan;
    prefix filter over a broadcast df table; prefix filter over df
    resolved in keyed exchanges) returns every brute-force pair with
    its bit-identical Jaccard, over several input blocks.  The keys of
    the exchanges that run are recorded, so an override that stops
    pinning its regime fails the test."""
    import ray.data as rd

    import proj_ray.stages.dedup as dd
    import proj_ray.stages.partitioning as part

    for name, value in _NGRAM_REGIMES[regime].items():
        monkeypatch.setattr(dd, name, value)
    keys = []

    def record(ds, key, *args, _apply=part.keyed_apply, **kwargs):
        keys.append(key)
        return _apply(ds, key, *args, **kwargs)

    monkeypatch.setattr(part, "keyed_apply", record)
    docs = rd.read_parquet(f"{SF}/documents.parquet",
                           columns=["doc_id", "text"]).repartition(3)
    got = dd.ngram_jaccard_pairs(docs, jaccard_threshold=0.8)
    # prefix candidates meet on shingle; shuffled df ranks on doc_id
    assert ("shingle" in keys) == (regime != "dense")
    assert ("doc_id" in keys) == (regime == "shuffled")
    truth = _truth(0.8)
    assert len(truth) == 28
    assert dict(zip(zip(got["doc_a"], got["doc_b"]), got["jaccard"])) \
        == truth


def test_empty_batch_schema_stability():
    """All-miss batches must emit empty tables whose column types match
    the non-empty stream (r2 latent bug: hard-coded doc_id: string
    empties against int64 streams)."""
    from proj_ray.spatial.join import rect_join_batch
    from proj_ray.spatial.knn import BruteKNNJoiner

    batch = pa.table({
        "doc_id": pa.array([1, 2], type=pa.int64()),
        "offset": pa.array([0, 1], type=pa.int32()),
        "lon": pa.array([170.0, 171.0]),
        "lat": pa.array([-80.0, -81.0]),
    })
    rects = {"rect_id": np.array([7], dtype=np.int64),
             "lon_min": np.array([0.0]), "lon_max": np.array([1.0]),
             "lat_min": np.array([0.0]), "lat_max": np.array([1.0])}
    miss = rect_join_batch(batch, rects)
    assert miss.num_rows == 0
    assert miss.schema.field("doc_id").type == pa.int64()
    assert miss.schema.field("off").type == pa.int32()

    hit_rects = {"rect_id": np.array([7], dtype=np.int64),
                 "lon_min": np.array([169.0]), "lon_max": np.array([172.0]),
                 "lat_min": np.array([-82.0]), "lat_max": np.array([-79.0])}
    hit = rect_join_batch(batch, hit_rects)
    assert hit.schema == miss.schema

    joiner = BruteKNNJoiner.__new__(BruteKNNJoiner)
    empty_in = batch.slice(0, 0)
    out = joiner(empty_in)
    assert out.num_rows == 0
    assert out.schema.field("doc_id").type == pa.int64()
    assert out.schema.field("off").type == pa.int32()
