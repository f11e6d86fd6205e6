"""The per-partition ranking kernel: one exact fp32 scorer.

The reference scores a partition with one fp32 TF-IDF collector
(FullText.collectTfIdf). Here every relevance-ranked partition answer
evaluates its whole match set (search.match_set) and scores it with the
same two functions:

* ``term_multipliers`` — one multiplier per collected term, in sorted term
  order: ref_tfidf c/Σtf, bm25 c·idf, lmd c (terms with Σtf ≤ 0, df ≤ 0 or,
  for bm25/lmd, c ≤ 0 are skipped);
* ``score_exact`` — the fp32 term-sorted accumulation (plus lmd's length
  prior): each term's contribution over its whole posting is scatter-added
  into one dense fp32 accumulator over the partition's docs, and the match
  set's scores are read out of it.

Every posting decodes whole, docs and tfs, when a partition first reads it
(``PostingSource.docs`` / ``tfs``), so a query's scoring cost is the sum of
its postings' lengths.
"""

from __future__ import annotations

import numpy as np

F32 = np.float32
BM25_K1 = 1.2
BM25_B = 0.75
LMD_MU = 1500.0  # Dirichlet smoothing mass (Zhai & Lafferty 2004 default range)

SCORERS = ("ref_tfidf", "bm25", "lmd")


def term_multipliers(src, term_counts: dict[tuple[str, str], int], scoring: str,
                     n_docs: int) -> list[tuple[tuple[str, str], np.float32]]:
    """``[((field, term), multiplier)]`` in sorted term order (the
    deterministic fp32 accumulation order) for the signed collector
    ``term_counts`` (FullText.java:118-127):

    * ref_tfidf: float32(c) / float32(Σtf); terms with Σtf ≤ 0 skipped;
    * bm25: float32(c) · float32(ln(1 + (N - df + ½)/(df + ½))); terms
      with df ≤ 0 or c ≤ 0 skipped;
    * lmd: float32(c), the count of c·ln(1 + tf·T/(μ·Σtf)) in the
      rank-equivalent sum form of Dirichlet-smoothed query likelihood
      (Zhai & Lafferty 2004); terms with Σtf ≤ 0 or c ≤ 0 skipped (they
      join neither the sum nor the prior's query length, mirroring the
      fp64 oracle chain)."""
    if scoring not in SCORERS:
        raise ValueError(scoring)
    out = []
    for key, c in sorted(term_counts.items()):
        if scoring == "ref_tfidf":
            g = src.ttf.get(key, 0)
            if g > 0:
                out.append((key, F32(F32(c) / F32(g))))
        elif scoring == "bm25":
            df = src.df.get(key, 0)
            if df > 0 and c > 0:
                idf = np.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
                out.append((key, F32(F32(c) * F32(idf))))
        elif src.ttf.get(key, 0) > 0 and c > 0:  # lmd
            out.append((key, F32(c)))
    return out


def _knorm(dl: np.ndarray, avg_dl: float) -> np.ndarray:
    """BM25's length-normalised saturation constant k1·(1 - b + b·dl/avgdl),
    in fp64."""
    return BM25_K1 * (1.0 - BM25_B + BM25_B * dl / avg_dl)


def score_exact(src, mults, answer: np.ndarray, scoring: str, avg_dl: float,
                dl_arr: np.ndarray, total_tokens: float = 0.0) -> np.ndarray:
    """fp32 scores of the sorted docIds ``answer`` under the ``mults`` of
    ``term_multipliers``: per term in order, ref_tfidf adds m·tf, bm25
    m·tf/(tf + k1·(1 - b + b·dl/avgdl)) and lmd m·ln(1 + tf·T/(μ·Σtf));
    lmd then adds its length prior |q|·ln(μ/(dl + μ)) to every answer doc.

    Each term's contribution is computed over its whole posting and
    scatter-added (``acc[docs] += contrib``) into one fp32 accumulator over
    the partition's docs (``len(dl_arr)``); the answer's scores are read
    out of it. Every answer doc receives the same fp32 additions, in the
    same term order, as a per-doc sum over the answer would make, so the
    scores are bit-identical to it; the cost is the sum of the postings'
    lengths."""
    if len(answer) == 0:
        return np.zeros(0, dtype=np.float32)
    acc = np.zeros(len(dl_arr), dtype=np.float32)
    for (field, term), m in mults:
        docs, tf = src.docs(field, term), src.tfs(field, term)
        if scoring == "ref_tfidf":
            acc[docs] += m * tf.astype(np.float32)
        elif scoring == "bm25":
            denom = (tf + _knorm(dl_arr[docs].astype(np.float64), avg_dl)).astype(np.float32)
            acc[docs] += m * (tf.astype(np.float32) / denom)
        else:
            g = src.ttf[(field, term)]
            acc[docs] += m * np.log(
                1.0 + (tf.astype(np.float64) * total_tokens) / (LMD_MU * g)
            ).astype(np.float32)
    scores = acc[answer]
    if scoring == "lmd":
        # the prior's query length: lmd's multiplier is the count itself
        qlen = sum(int(m) for _key, m in mults)
        dl = dl_arr[answer].astype(np.float64)
        scores += F32(qlen) * np.log(LMD_MU / (dl + LMD_MU)).astype(np.float32)
    return scores
