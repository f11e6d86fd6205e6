"""The per-partition ranking kernel: one exact fp32 scorer.

The reference scores a partition with one fp32 TF-IDF collector
(FullText.collectTfIdf). Here every relevance-ranked partition answer
evaluates its whole match set (search.match_set) and scores it with the
same two functions:

* ``term_multipliers`` — one multiplier per collected term, in sorted term
  order: ref_tfidf c/Σtf, bm25 c·idf, lmd c (terms with Σtf ≤ 0, df ≤ 0 or,
  for bm25/lmd, c ≤ 0 are skipped);
* ``score_exact`` — the fp32 term-sorted accumulation over a sorted doc
  set (plus lmd's length prior).

Lazy tf: posting docIds decode once (the set algebra needs them), but tf
bytes of large postings decode per touched block only during scoring
(codec.decode_tf_range via PostingSource.tf_at) — the partial-decode
scale path for hot terms; search.DECODE_STATS reports the realized byte
savings.
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
    lmd then adds its length prior |q|·ln(μ/(dl + μ)) to every doc. tf
    values come through PostingSource.tf_at (block-partial decode for
    lazy-tf postings)."""
    scores = np.zeros(len(answer), dtype=np.float32)
    if len(answer) == 0:
        return scores
    dl = dl_arr[answer].astype(np.float64) if scoring != "ref_tfidf" else None
    knorm = _knorm(dl, avg_dl) if scoring == "bm25" else None
    for (field, term), m in mults:
        docs = src.docs(field, term)
        pos = np.searchsorted(answer, docs)
        valid = (pos < len(answer)) & (answer[np.minimum(pos, len(answer) - 1)] == docs)
        pos = pos[valid]
        tf_i = src.tf_at(field, term, np.flatnonzero(valid))
        if scoring == "ref_tfidf":
            scores[pos] += m * tf_i.astype(np.float32)
        elif scoring == "bm25":
            denom = (tf_i + knorm[pos]).astype(np.float32)
            scores[pos] += m * (tf_i.astype(np.float32) / denom)
        else:
            g = src.ttf[(field, term)]
            scores[pos] += m * np.log(
                1.0 + (tf_i.astype(np.float64) * total_tokens) / (LMD_MU * g)
            ).astype(np.float32)
    if scoring == "lmd":
        # the prior's query length: lmd's multiplier is the count itself
        qlen = sum(int(m) for _key, m in mults)
        scores += F32(qlen) * np.log(LMD_MU / (dl + LMD_MU)).astype(np.float32)
    return scores
