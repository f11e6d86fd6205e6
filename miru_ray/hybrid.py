"""Hybrid lexical + semantic retrieval via reciprocal-rank fusion (RRF).

RRF (Cormack, Clarke & Buettcher 2009): ``score(d) = Σ_lists 1/(c + rank_d)``
over the candidate lists, missing-list membership contributing nothing. The
modern hybrid-search primitive (Elasticsearch/OpenSearch ``rrf`` retriever,
Vespa/Weaviate hybrid mode) the reference predates: one list comes from the
inverted-index BM25 path, the other from a cosine scan of the embeddings
table; ranks — not scores — are fused, so the two scoring scales never need
calibration.

Scale shape: both retrievals are the engine's existing distributed paths
(partition fan-out for BM25; ray.put-broadcast query + per-batch partial
top-k + groupby(q) reduce for the cosine side — the driver only ever sees
the two n-row candidate lists), and the fusion itself is O(n) answer-sized
arithmetic. Nothing here adds a shuffle.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

RRF_C = 60  # the canonical damping constant from the RRF paper


def rrf_fuse(rank_lists: list[np.ndarray], k: int, c: int = RRF_C) -> pa.Table:
    """Fuse candidate lists (each an int64 doc-id array in rank order,
    best first) into the top-``k`` by RRF score (ties → doc_id desc).

    fp note: each doc's score is a sum of one term per list, accumulated
    in list order in fp64 — the SQL mirror adds the same ≤len(rank_lists)
    terms in the same order, so 6-dp rounding is exact on both sides."""
    scores: dict[int, float] = {}
    for docs in rank_lists:
        for r, d in enumerate(np.asarray(docs, dtype=np.int64).tolist(), 1):
            scores[d] = scores.get(d, 0.0) + 1.0 / (c + r)
    if not scores:
        return pa.table(
            {"doc_id": pa.array([], pa.int64()), "rrf": pa.array([], pa.float64())}
        )
    ids = np.fromiter(scores.keys(), dtype=np.int64, count=len(scores))
    val = np.fromiter(scores.values(), dtype=np.float64, count=len(scores))
    order = np.lexsort((-ids, -val))[:k]
    return pa.table(
        {
            "doc_id": pa.array(ids[order], type=pa.int64()),
            "rrf": pa.array(np.round(val[order], 6), type=pa.float64()),
        }
    )


def bm25_candidates(sf_dir: str, terms: tuple[str, ...], n: int) -> tuple[np.ndarray, np.ndarray]:
    """Lexical candidates over the documents corpus: AND of ``terms``,
    fp64 BM25 (the ft_topk_bm25 fixed expression order —
    FullText.java:99-220's scorer shape with Robertson idf), the top ``n``
    by (score desc, doc_id desc) as (doc_ids, scores). The one fp64 chain
    behind RRF's lexical list and ann.mmr_rerank_docs' candidate stage; the
    engine's fp32 path is rank-identity pytest-gated."""
    from .search import PostingSource
    from .segments import partition
    from .transcripts import ensure_index

    index_dir = ensure_index(sf_dir, 1)
    pt = partition(index_dir, 0)
    man = pt.manifest
    n_docs = man["metrics"]["n_docs"]
    avgdl = man["metrics"]["total_tokens"] / n_docs
    src = PostingSource(index_dir, 0, [("text", w) for w in terms], 0)
    answer = None
    for w in terms:
        d = src.docs("text", w)
        answer = d if answer is None else np.intersect1d(d, answer, assume_unique=True)
    dl = pt.forward["dl"][answer].astype(np.float64)
    knorm = 1.2 * (0.25 + 0.75 * (dl / avgdl))
    score = np.zeros(len(answer), dtype=np.float64)
    for w in terms:
        df = src.df[("text", w)]
        idf = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
        docs = src.docs("text", w)
        tf = src.tfs("text", w)[np.searchsorted(docs, answer)].astype(np.float64)
        score = score + idf * (tf / (tf + knorm))
    order = np.lexsort((-answer, -score))[:n]
    return answer[order], score[order]


def _cosine_candidates(sf_dir: str, qvec_id: int, n: int) -> np.ndarray:
    """Semantic list: exact cosine top-``n`` of the ``qvec_id`` embedding
    over the whole embeddings table (distributed partial top-k + groupby(q)
    reduce), the query row excluded; rank = (4-dp-rounded cos desc,
    doc_id asc) — the ann_topk ordering contract."""
    from .ann import ann_brute_topk

    # The distributed merge cuts on RAW cosine; the final rank is on the
    # 4-dp ROUNDED value. The list is provably complete once every doc
    # outside the raw-m cut rounds STRICTLY below the nth rounded value
    # (rounding is monotone, so an excluded doc's rounded cos is at most
    # round(min raw in the cut)); widen geometrically until that holds or
    # the whole table has been merged.
    m = n + 8
    while True:
        t = ann_brute_topk(sf_dir, k=m, query_ids=[qvec_id])
        raw = t["cos"].to_numpy(zero_copy_only=False)
        cs = np.round(raw, 4)
        nb = t["neighbor"].to_numpy(zero_copy_only=False)
        order = np.lexsort((nb, -cs))[:n]
        if len(raw) < m or len(raw) <= n:
            break  # the merge returned the entire table — exact by definition
        if np.round(raw.min(), 4) < cs[order[-1]]:
            break  # boundary docs cannot reach the rounded top-n
        m *= 2
    return nb[order].astype(np.int64)


def rrf_retrieve(
    sf_dir: str,
    terms: tuple[str, ...],
    qvec_id: int,
    n: int = 20,
    k: int = 10,
    c: int = RRF_C,
) -> pa.Table:
    """Hybrid top-``k`` over the documents corpus: BM25 AND-query candidates
    fused with the ``qvec_id`` embedding's cosine neighbours by RRF.
    Returns (doc_id, rrf) — rrf desc, doc_id desc."""
    lex, _scores = bm25_candidates(sf_dir, terms, n)
    sem = _cosine_candidates(sf_dir, qvec_id, n)
    return rrf_fuse([lex, sem], k, c=c)
