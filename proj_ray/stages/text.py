"""Text-analysis stages for the flat `documents` table.

Vectorized map_batches bodies (pandas .str / pyarrow compute — no
Python-per-row loops); stateful pieces (compiled regexes, stopword sets)
live in an actor-pool callable class.  Each scorer has an exact DuckDB
mirror used by the driver's oracle (column names match).
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa

_WORD_RE = re.compile(r"[A-Za-z0-9_]+", re.ASCII)
STOPWORDS = ("the", "and", "of", "a", "to", "in", "is", "on", "for", "with")


_STOP_RE = (r"\b(?:" + "|".join(STOPWORDS) + r")\b")


def token_hashes(t: pa.Table, col: str, pattern: str = " "):
    """(hashes, offsets): the `pattern`-separated tokens of every row of
    `t[col]` (null text reads as empty) as uint64 rolling hashes
    (hashing.rolling_hash_batch), and the list offsets, rebased to 0,
    that delimit row i's tokens as hashes[offsets[i]:offsets[i+1]]."""
    import pyarrow.compute as pc

    from proj_ray.stages.hashing import rolling_hash_batch

    toks = pc.split_pattern(pc.fill_null(t.column(col), ""), pattern)
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    off = toks.offsets.to_numpy(zero_copy_only=False)
    return rolling_hash_batch(toks.flatten()), off - off[0]


def token_rows(t: pa.Table, col: str) -> pa.Table:
    """(tok,): one token hash per token of one batch — the rows the
    corpus frequency table counts."""
    return pa.table({"tok": pa.array(token_hashes(t, col)[0])})


class TextScorer:
    """Actor-pool stage: quality scoring, token counting, stopword
    stats and a rolling-hash fingerprint per document.

    Fully vectorized over the Arrow batch: RE2 kernels
    (pc.count_substring_regex) for token/stopword counts and the
    NumPy rolling-hash kernel over the raw UTF-8 buffer
    (stages/hashing.py) for the fingerprint — no per-row Python."""

    def __init__(self):
        # patterns are plain strings for the C++ RE2 kernels; keeping
        # them on the instance preserves the actor-pool shape
        self.word_pat = _WORD_RE.pattern
        self.stop_pat = _STOP_RE

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        from proj_ray.stages.hashing import rolling_hash_batch

        text = pc.fill_null(batch.column("text"), "")
        lower = pc.utf8_lower(text)
        n_tok = pc.count_substring_regex(text, self.word_pat) \
            .cast(pa.int64()).to_numpy(zero_copy_only=False)
        n_char = pc.utf8_length(text).cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        n_stop = pc.count_substring_regex(lower, self.stop_pat) \
            .cast(pa.int64()).to_numpy(zero_copy_only=False)
        with np.errstate(invalid="ignore", divide="ignore"):
            stop_ratio = np.where(n_tok > 0, n_stop / n_tok, 0.0)
            mean_len = np.where(n_tok > 0, n_char / n_tok, 0.0)
        quality = np.round(
            np.clip(mean_len / 10.0, 0, 1) * 0.5
            + np.clip(stop_ratio * 5.0, 0, 1) * 0.5, 9)
        cols = dict(zip(batch.column_names, batch.columns))
        cols["token_count"] = pa.array(n_tok)
        cols["char_count"] = pa.array(n_char)
        cols["stop_count"] = pa.array(n_stop)
        cols["stop_ratio"] = pa.array(stop_ratio)
        cols["quality_score"] = pa.array(quality)
        cols["fingerprint"] = pa.array(rolling_hash_batch(text))
        return pa.table(cols)


_SCORER = None


def text_scorer_batch(batch: pa.Table) -> pa.Table:
    """Stateless map_batches wrapper around a process-cached TextScorer
    (task pools reuse worker processes, so the scorer builds once per
    worker without paying actor-pool startup on every query)."""
    global _SCORER
    if _SCORER is None:
        _SCORER = TextScorer()
    return _SCORER(batch)


def rolling_hash(s: str, base: int = 257, mod: int = 1 << 64) -> int:
    """Scalar reference of the vectorized fingerprint
    (hashing.rolling_hash_batch); kept for tests."""
    h = 0
    for ch in s.encode():
        h = (h * base + ch) % mod
    return h


def ngram_set(text: str, n: int = 3):
    """Character n-gram shingle set."""
    b = text.encode()
    return {b[i:i + n] for i in range(max(1, len(b) - n + 1))}


def jaccard(a: set, b: set) -> float:
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def lang_id_batch(batch: pd.DataFrame) -> pd.DataFrame:
    """Heuristic language ID from character-frequency profiles.

    Not a model — a deterministic n-gram/charclass scorer good enough to
    exercise the distributed plumbing; scored against the `lang` column
    in tests for sanity, not exactness."""
    text = batch["text"].fillna("").str.lower()

    markers = {
        "en": [" the ", " and ", " of "],
        "de": [" der ", " und ", " die "],
        "fr": [" le ", " la ", " et "],
        "es": [" el ", " los ", " que "],
        "zh": [],
    }
    scores = {}
    for lang, pats in markers.items():
        s = np.zeros(len(text))
        for p in pats:
            s = s + text.str.count(re.escape(p)).to_numpy()
        scores[lang] = s
    # zh marker: CJK characters
    cjk = text.str.count(r"[一-鿿]").to_numpy()
    scores["zh"] = cjk * 10.0
    mat = np.vstack([scores[lg] for lg in markers])
    langs = np.array(list(markers))
    best = langs[np.argmax(mat, axis=0)]
    best = np.where(mat.max(axis=0) == 0, "unknown", best)
    batch["lang_pred"] = best
    return batch


def repetition_stats_batch(batch: pa.Table) -> pa.Table:
    """Gopher-style repetition quality signals (Rae et al. 2021,
    "Scaling Language Models", table A1 — published heuristics),
    adapted to whitespace-token documents:

      dup_token_frac  = 1 - distinct_tokens / n_tokens
      top2gram_count  = occurrences of the most frequent token 2-gram
      top2gram_frac   = top2gram_count / (n_tokens - 1)

    Fully vectorized: one Arrow split_pattern per batch, token hashes
    from the NumPy rolling-hash kernel over the flattened token
    column, then lexsort + run-length math for per-doc distinct and
    per-(doc, 2-gram) counts — no per-row Python."""
    h, off = token_hashes(batch, "text")
    counts = np.diff(off)
    n_docs = len(batch)
    doc_idx = np.repeat(np.arange(n_docs, dtype=np.int64), counts)

    # distinct tokens per doc: sort (doc, hash), count run starts
    n_distinct = np.zeros(n_docs, dtype=np.int64)
    if len(h):
        order = np.lexsort((h, doc_idx))
        ds_, hs = doc_idx[order], h[order]
        new = np.empty(len(h), dtype=bool)
        new[0] = True
        new[1:] = (ds_[1:] != ds_[:-1]) | (hs[1:] != hs[:-1])
        np.add.at(n_distinct, ds_[new], 1)

    # 2-grams: adjacent token pairs within a doc
    top2 = np.zeros(n_docs, dtype=np.int64)
    if len(h) > 1:
        same = doc_idx[1:] == doc_idx[:-1]
        gd = doc_idx[:-1][same]
        PHI = np.uint64(0x9E3779B97F4A7C15)
        gh = (h[:-1][same] * PHI) ^ h[1:][same]
        if len(gh):
            order = np.lexsort((gh, gd))
            gds, ghs = gd[order], gh[order]
            new = np.empty(len(gh), dtype=bool)
            new[0] = True
            new[1:] = (gds[1:] != gds[:-1]) | (ghs[1:] != ghs[:-1])
            run_starts = np.flatnonzero(new)
            run_len = np.diff(np.append(run_starts, len(gh)))
            run_doc = gds[run_starts]
            doc_new = np.empty(len(run_doc), dtype=bool)
            doc_new[0] = True
            doc_new[1:] = run_doc[1:] != run_doc[:-1]
            doc_first = np.flatnonzero(doc_new)
            top2[run_doc[doc_first]] = np.maximum.reduceat(run_len,
                                                           doc_first)

    n_tok = counts.astype(np.int64)
    with np.errstate(invalid="ignore", divide="ignore"):
        dup_frac = np.where(n_tok > 0, 1.0 - n_distinct / n_tok, 0.0)
        top2_frac = np.where(n_tok > 1, top2 / (n_tok - 1), 0.0)
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "n_tok": pa.array(n_tok),
        "n_distinct": pa.array(n_distinct),
        "dup_token_frac": pa.array(np.round(dup_frac, 9)),
        "top2gram_count": pa.array(top2),
        "top2gram_frac": pa.array(np.round(top2_frac, 9)),
    })


def benchmark_ngram_set(texts, n: int = 3) -> np.ndarray:
    """Sorted unique token-n-gram hashes of a benchmark document list
    (driver-side: benchmarks are small by definition)."""
    from proj_ray.stages.hashing import rolling_hash_batch

    grams = []
    PHI = np.uint64(0x9E3779B97F4A7C15)
    for text in texts:
        toks = pa.array((text or "").split(" "))
        h = rolling_hash_batch(toks)
        if len(h) < n:
            continue
        g = h[: len(h) - n + 1].copy()
        for k in range(1, n):
            g = (g * PHI) ^ h[k: len(h) - n + 1 + k]
        grams.append(g)
    if not grams:
        return np.zeros(0, dtype=np.uint64)
    return np.unique(np.concatenate(grams))


def contamination_flags(ds, bench_ref, n: int = 3,
                        text_col: str = "text",
                        id_col: str = "doc_id"):
    """Benchmark decontamination: flag every corpus document sharing
    at least one token n-gram with the broadcast benchmark set (the
    published pretraining-hygiene filter, e.g. GPT-3 appendix C /
    Gopher app. A: 'n-gram overlap with eval sets').

    One corpus pass: per batch, the document token stream hashes once
    (rolling-hash over the flattened token column), n-gram hashes form
    by shifted mixing, and membership resolves with one searchsorted
    against the per-worker cached benchmark set.  Output: (id,
    contaminated, n_hits)."""
    from proj_ray.stages.worker_cache import get_broadcast

    def flag(t: pa.Table) -> pa.Table:
        bench = get_broadcast(bench_ref)
        hits = contamination_hits_batch(t, bench, n, text_col)
        return pa.table({
            id_col: t.column(id_col),
            "contaminated": pa.array(hits > 0),
            "n_hits": pa.array(hits),
        })

    return ds.map_batches(flag, batch_format="pyarrow")


def contamination_hits_batch(t: pa.Table, bench: np.ndarray, n: int,
                             text_col: str = "text") -> np.ndarray:
    """Per-row benchmark n-gram hit counts (the batch core of
    contamination_flags; cross-document grams invalidated)."""
    PHI = np.uint64(0x9E3779B97F4A7C15)
    h, off = token_hashes(t, text_col)
    n_docs = len(t)
    hits = np.zeros(n_docs, dtype=np.int64)
    if len(h) >= n and len(bench):
        # n-gram hashes at every position, then invalidate the ones
        # that straddle a document boundary
        m = len(h) - n + 1
        g = h[:m].copy()
        for k in range(1, n):
            g = (g * PHI) ^ h[k: m + k]
        pos = np.arange(m)
        doc_idx = np.searchsorted(off, pos, side="right") - 1
        in_doc = pos + n <= off[doc_idx + 1]
        p = np.searchsorted(bench, g)
        pc_ = np.minimum(p, len(bench) - 1)
        member = (bench[pc_] == g) & in_doc
        np.add.at(hits, doc_idx[member], 1)
    return hits


def unigram_logprob(ds, freq_ref, total_tokens: int,
                    text_col: str = "text", id_col: str = "doc_id",
                    alpha: float = 1.0, vocab_size: int | None = None):
    """Per-document mean unigram negative log-probability — the
    classic LM-score quality filter (documents far from the corpus
    distribution score high).  Token probabilities are Laplace-
    smoothed corpus frequencies: p(w) = (c(w) + alpha) /
    (total + alpha * V).  `freq_ref` broadcasts the (sorted token
    hashes, counts) table built by one corpus pass."""
    from proj_ray.stages.worker_cache import get_broadcast

    def score(t: pa.Table) -> pa.Table:
        vocab, cnts = get_broadcast(freq_ref)
        counts, mean = unigram_nll_batch(t, vocab, cnts, total_tokens,
                                         alpha, vocab_size, text_col)
        return pa.table({
            id_col: t.column(id_col),
            "n_tok": pa.array(counts.astype(np.int64)),
            "mean_nll": pa.array(np.round(mean, 9)),
        })

    return ds.map_batches(score, batch_format="pyarrow")


def unigram_nll_batch(t: pa.Table, vocab: np.ndarray,
                      cnts: np.ndarray, total_tokens: int,
                      alpha: float = 1.0,
                      vocab_size: int | None = None,
                      text_col: str = "text"):
    """(token counts, mean negative log-prob) per row — the batch core
    of unigram_logprob."""
    V = vocab_size if vocab_size is not None else len(vocab)
    denom = float(total_tokens) + alpha * V
    h, off = token_hashes(t, text_col)
    counts = np.diff(off)
    if len(h):
        if len(vocab) == 0:
            # no-vocab corpus: every token is unseen (c = 0) — the
            # vocab[pc_] index below would raise on an empty array
            c = np.zeros(len(h))
        else:
            p = np.searchsorted(vocab, h)
            pc_ = np.minimum(p, len(vocab) - 1)
            c = np.where(vocab[pc_] == h, cnts[pc_], 0)
        nll = -np.log((c + alpha) / denom)
        doc_idx = np.repeat(np.arange(len(t)), counts)
        tot = np.bincount(doc_idx, weights=nll, minlength=len(t))
    else:
        tot = np.zeros(len(t))
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = np.where(counts > 0, tot / counts, 0.0)
    return counts, mean


# ---------------------------------------------------------------------------
# Token-shuffled unigram NLL — the 100-TB path (no driver vocab table)
# ---------------------------------------------------------------------------
#
# The broadcast path above (`unigram_logprob`) pulls the corpus unigram
# frequency table to the driver and `ray.put`s it; token vocabulary
# grows with the corpus (Heaps' law — ~10^9..10^10 distinct hashed
# tokens at 10^12 docs), so that table is NOT a broadcastable side.
# The functions below keep the vocabulary distributed:
#
#   1. per-batch (doc_id, token_hash, m) partials — each document is
#      one row, so its term frequencies resolve inside the batch;
#   2. hash-partition that stream BY TOKEN: every partition holds ALL
#      occurrences of its tokens, so the global count c(tok) is a
#      segment sum inside the partition and each row's contribution
#      m * ln(c + alpha) is computed in place;
#   3. re-key by document: per-partition per-doc partials (s, n) are
#      summed with a doc-hash shuffle;
#   4. the two scalars T (total tokens) and V (distinct tokens) reduce
#      through per-bucket stat rows — only O(num_buckets) rows ever
#      reach the driver.
#
# mean_nll(doc) = ln(T + alpha*V) - (1/n) * sum_tokens m * ln(c + alpha)
# which equals avg(-ln((c + alpha) / (T + alpha*V))) exactly.


def doc_token_partials(t: pa.Table, text_col: str = "text",
                       id_col: str = "doc_id") -> pa.Table:
    """One batch -> (id_col, tok, m): per-document token-hash counts
    (documents are whole rows, so the counts are globally exact and
    the stream carries exactly one row per (doc, token))."""
    import pyarrow.compute as pc

    h, off = token_hashes(t, text_col)
    doc_idx = np.repeat(np.arange(len(t)), np.diff(off))
    order = np.lexsort((h, doc_idx))
    dh, hh = doc_idx[order], h[order]
    n = len(dh)
    if n == 0:
        return pa.table({id_col: t.column(id_col).slice(0, 0),
                         "tok": pa.array([], type=pa.uint64()),
                         "m": pa.array([], type=pa.int64())})
    first = np.empty(n, dtype=bool)
    first[0] = True
    first[1:] = (dh[1:] != dh[:-1]) | (hh[1:] != hh[:-1])
    starts = np.flatnonzero(first)
    m = np.diff(np.append(starts, n))
    return pa.table({
        id_col: pc.take(t.column(id_col), pa.array(dh[starts])),
        "tok": pa.array(hh[starts]),
        "m": pa.array(m.astype(np.int64))})


def corpus_token_scalars(ds, text_col: str = "text",
                         num_buckets: int | None = None):
    """(T, V): total token count and EXACT distinct-token count from
    one token-hash aggregate; only one stat row per bucket leaves the
    cluster."""
    from proj_ray.stages.agg import hash_shuffle_aggregate
    from proj_ray.stages.partitioning import derive_num_partitions

    nb = num_buckets or derive_num_partitions(ds, default=64)

    freq = hash_shuffle_aggregate(
        ds.map_batches(token_rows, fn_args=(text_col,),
                       batch_format="pyarrow"),
        ["tok"], [("c", "count")], num_buckets=nb)

    def stats(t: pa.Table) -> pa.Table:
        c = t.column("c").to_numpy(zero_copy_only=False)
        return pa.table({"V": pa.array([len(t)], type=pa.int64()),
                         "T": pa.array([int(c.sum())],
                                       type=pa.int64())})

    agg = freq.map_batches(stats, batch_format="pyarrow") \
        .sum(["V", "T"])
    return int(agg["sum(T)"]), int(agg["sum(V)"])


def unigram_nll_partials(ds, text_col: str = "text",
                         id_col: str = "doc_id", alpha: float = 1.0,
                         num_partitions: int | None = None):
    """Token-partitioned contribution fold: Dataset of per-doc
    PARTIALS (id_col, s, n) with s = sum m*ln(c_tok + alpha), n =
    sum m — at most one row per (doc, token-partition), ready for a
    doc-keyed sum (`copartition_agg_join` or `hash_shuffle_aggregate`)."""
    from proj_ray.stages.agg import combine_block
    from proj_ray.stages.partitioning import (derive_num_partitions,
                                              keyed_apply)

    nparts = num_partitions or derive_num_partitions(ds, default=64)

    def resolve(t: pa.Table) -> pa.Table:
        tok = t.column("tok").to_numpy(zero_copy_only=False)
        m = t.column("m").to_numpy(zero_copy_only=False)
        u, inv = np.unique(tok, return_inverse=True)
        c = np.bincount(inv, weights=m)      # exact below 2^53 tokens
        contrib = m * np.log(c[inv] + alpha)
        out = pa.table({id_col: t.column(id_col),
                        "s": pa.array(contrib),
                        "n": pa.array(m.astype(np.int64))})
        return combine_block(out, [id_col],
                             [("s", "sum"), ("n", "sum")])

    return keyed_apply(
        ds.map_batches(doc_token_partials, fn_args=(text_col, id_col),
                       batch_format="pyarrow"),
        "tok", resolve, nparts)


def unigram_logprob_shuffled(ds, text_col: str = "text",
                             id_col: str = "doc_id",
                             alpha: float = 1.0,
                             num_partitions: int | None = None):
    """Exact per-document (id_col, n_tok, mean_nll) with the vocabulary
    kept distributed end to end — the scale-safe replacement for
    `unigram_logprob` (same values, same rounding)."""
    from proj_ray.stages.agg import hash_shuffle_aggregate
    from proj_ray.stages.partitioning import derive_num_partitions

    nparts = num_partitions or derive_num_partitions(ds, default=64)
    T, V = corpus_token_scalars(ds, text_col, num_buckets=nparts)
    ln_denom = float(np.log(T + alpha * V)) if T + alpha * V > 0 \
        else 0.0
    per_doc = hash_shuffle_aggregate(
        unigram_nll_partials(ds, text_col, id_col, alpha, nparts),
        [id_col], [("s", "sum"), ("n", "sum")], num_buckets=nparts)

    def finish(t: pa.Table) -> pa.Table:
        s = t.column("s").to_numpy(zero_copy_only=False)
        n = t.column("n").to_numpy(zero_copy_only=False)
        with np.errstate(invalid="ignore", divide="ignore"):
            mean = np.where(n > 0, ln_denom - s / n, 0.0)
        return pa.table({id_col: t.column(id_col),
                         "n_tok": pa.array(n.astype(np.int64)),
                         "mean_nll": pa.array(np.round(mean, 9))})

    return per_doc.map_batches(finish, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Size-gated vocabulary regime selection
# ---------------------------------------------------------------------------
#
# The broadcast path (one streaming scoring pass, freq table shipped
# once per worker) is strictly faster when the vocabulary FITS; the
# token-shuffle path above is the only correct shape when it doesn't
# (Heaps' law at 100 TB).  The repo convention for exactly this
# situation is the size-gated broadcast with a shuffle fallback
# (stages/relational.py semi/anti joins, r3); here the gate is an
# HLL estimate of the distinct-token count — ONE narrow pass whose
# exchange is <= 2^p register rows — with the executable max_keys
# bound backstopping the estimate on the pull itself.

_BROADCAST_MAX_VOCAB = 4_000_000  # ~64 MB of (hash, count) pairs
_GATE_MARGIN = 1.25               # HLL p=14 err ~0.8%; 25% headroom


def estimate_vocab(ds, text_col: str = "text", p: int = 14) -> int:
    """Approximate distinct-token count (HyperLogLog, Flajolet 2007):
    per-batch sparse (register, rho) rows — at most 2^p per batch —
    max-merged through the combine tree; the driver sees <= 2^p rows
    regardless of corpus size."""
    from proj_ray.stages.distinct import hll_estimate_batches

    return hll_estimate_batches(
        ds, lambda t: token_hashes(t, text_col)[0], p)


def corpus_token_freq_broadcast(ds, text_col: str = "text",
                                max_keys: int = _BROADCAST_MAX_VOCAB):
    """(freq_ref, T, V): the corpus token frequency table via the
    narrow combine tree, sorted and `ray.put` for worker-side lookup.
    The driver pull is bounded by the EXECUTABLE max_keys gate (the
    final combine raises past it) — callers must pre-gate with
    `estimate_vocab` (as `unigram_logprob_auto` does) so the raise is
    a contract violation, not a control path."""
    import ray

    from proj_ray.stages.agg import tree_aggregate

    freq_ds = tree_aggregate(
        ds.map_batches(token_rows, fn_args=(text_col,),
                       batch_format="pyarrow"),
        ["tok"], [("c", "count")], fanout=8, max_keys=max_keys)
    freq = pa.concat_tables(ray.get(freq_ds.to_arrow_refs()),
                            promote_options="default")
    vocab = freq.column("tok").to_numpy(zero_copy_only=False)
    cnts = freq.column("c").to_numpy(zero_copy_only=False)
    order = np.argsort(vocab)
    vocab, cnts = vocab[order].astype(np.uint64), cnts[order]
    return ray.put((vocab, cnts)), int(cnts.sum()), len(vocab)


def unigram_logprob_auto(ds, text_col: str = "text",
                         id_col: str = "doc_id", alpha: float = 1.0,
                         broadcast_max_vocab: int =
                         _BROADCAST_MAX_VOCAB,
                         num_partitions: int | None = None):
    """Per-document unigram NLL with automatic regime selection: the
    broadcast single-pass scorer when the HLL-estimated vocabulary
    fits `broadcast_max_vocab`, the token-shuffled fold otherwise.
    Same values either way (the regression test pins equality)."""
    est = estimate_vocab(ds, text_col)
    if est * _GATE_MARGIN <= broadcast_max_vocab:
        freq_ref, total, v = corpus_token_freq_broadcast(
            ds, text_col, max_keys=broadcast_max_vocab)
        return unigram_logprob(ds, freq_ref, total_tokens=total,
                               text_col=text_col, id_col=id_col,
                               alpha=alpha, vocab_size=v)
    return unigram_logprob_shuffled(ds, text_col, id_col, alpha,
                                    num_partitions)
