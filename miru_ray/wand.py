"""The per-partition ranking kernel: one exact fp32 scorer, one gate, and
block-max pruned top-k over that scorer.

The reference scores a partition with one fp32 TF-IDF collector
(FullText.collectTfIdf). Here every relevance-ranked partition answer goes
through the same two functions:

* ``term_multipliers`` — one multiplier per collected term, in sorted term
  order: ref_tfidf c/Σtf, bm25 c·idf, lmd c (terms with Σtf ≤ 0, df ≤ 0 or,
  for bm25/lmd, c ≤ 0 are skipped);
* ``score_exact`` — the fp32 term-sorted accumulation over a sorted doc
  set (plus lmd's length prior).

``block_max_mode`` is the gate. It sends a partition to ``wand_topk`` when
the query is a flat OR or a flat AND of plain terms ranked by ref_tfidf or
bm25 and nothing masks or re-admits docs; everything else evaluates the
whole match set and scores it with ``score_exact``. Because both paths
share the scorer, their scores are bit-identical.

``wand_topk`` prunes with block-max metadata (the per-block
``(first_doc, count, max_tf, min_dl)`` recorded by the codec — the same
role as the reference's per-posting ``lastId`` header and the block-max
WAND family, Ding & Suel 2011). It is a *block-max sweep*, vectorized
instead of pointer-chasing:

1. per term, an upper bound for each posting block (max_tf, and for BM25
   min_dl — tf/(tf+K) is increasing in tf and decreasing in dl);
2. a boundary sweep over all blocks of all query terms yields docId
   segments with a total upper bound Σ_t ub_t(segment) and a coverage
   count (how many terms have a block over the segment);
3. segments are visited in descending upper-bound order; docs inside are
   scored by ``score_exact``; the sweep stops when the running k-th score
   (tie-break: docId desc) is ≥ every remaining segment's bound.

Conjunctive (AND) mode: a matching doc must appear in EVERY term, so only
segments with full coverage are live — everything else is skipped without
looking at a single docId — and candidates inside a live segment are the
per-segment intersection.

Exactness: any unscored doc lies in a segment with bound < kth score (or,
for AND, in a segment some term does not cover at all), so it cannot
displace the top k; bounds carry fp32-rounding headroom so adversarial
ties cannot slip past (see the epsilon note below).

Lazy tf: posting docIds decode once (the set algebra needs them), but tf
bytes of large postings decode per TOUCHED BLOCK only during scoring
(codec.decode_tf_range via PostingSource.tf_at) — the partial-decode
scale path for hot terms; search.DECODE_STATS reports the realized byte
savings.

``found`` (the reference's answer cardinality) is semantically the full
match count, so it is computed over the full docId sets (union /
intersection) regardless of pruning.
"""

from __future__ import annotations

import numpy as np

from .filters import Filter

F32 = np.float32
BM25_K1 = 1.2
BM25_B = 0.75
LMD_MU = 1500.0  # Dirichlet smoothing mass (Zhai & Lafferty 2004 default range)

SCORERS = ("ref_tfidf", "bm25", "lmd")

# pruning pays only on large domains with skewed bounds: a domain of at
# most max(k, SWEEP_MIN_K)·4 docs, or blocks whose summed maximum bound is
# at most FLAT_SKEW × their summed median bound, is scored whole instead;
# the sweep scores its first max(k, SWEEP_BATCH) segments in one batch
SWEEP_MIN_K = 256
FLAT_SKEW = 2.0
SWEEP_BATCH = 64


def _plain_leaf_values(f: Filter) -> list[tuple[str, str]] | None:
    """The (field, value) occurrences of a leaf AND filter with one plain
    (non-wildcard, non-range) field filter; None otherwise."""
    from .filters import RANGE_RE, fuzzy_value, regexp_value

    if f.inclusive or f.sub_filters or len(f.field_filters) != 1:
        return None
    ff = f.field_filters[0]
    if any(v.endswith("*") or RANGE_RE.match(v) or fuzzy_value(v) is not None
           or regexp_value(v) is not None for v in ff.values):
        return None
    return [(ff.field, v) for v in ff.values]


def disjunctive_terms(filt: Filter) -> list[tuple[str, str]] | None:
    """If ``filt`` is a pure positive disjunction (OR of plain terms, a
    single term, or one multi-value field filter — no NOT, no nesting
    beyond OR, no inclusive mask, no wildcards/ranges), return its
    (field, value) occurrence list (duplicates preserved: the signed
    collector counts them). Otherwise None."""
    if filt.op == "and" and not filt.sub_filters and not filt.inclusive:
        if len(filt.field_filters) != 1:
            return None
        return _plain_leaf_values(filt)
    if filt.op == "or" and not filt.inclusive and not filt.field_filters:
        out: list[tuple[str, str]] = []
        for sub in filt.sub_filters:
            if sub.op != "and":
                return None
            vals = _plain_leaf_values(sub)
            if vals is None:
                return None
            out.extend(vals)
        return out
    return None


def conjunctive_terms(filt: Filter) -> list[tuple[str, str]] | None:
    """If ``filt`` is a pure positive conjunction of plain single terms
    (AND of leaves, each one field filter with ONE value — multi-value
    field filters are OR-within-field and belong to the disjunctive path),
    return the (field, value) occurrences. Otherwise None."""
    if filt.op != "and" or filt.inclusive or filt.field_filters:
        return None
    if len(filt.sub_filters) < 2:
        return None
    out: list[tuple[str, str]] = []
    for sub in filt.sub_filters:
        if sub.op != "and":
            return None
        vals = _plain_leaf_values(sub)
        if vals is None or len(vals) != 1:
            return None
        out.extend(vals)
    return out


def block_max_mode(
    filt: Filter,
    scoring: str,
    removed: np.ndarray,
    k: int = 10,
    prune: bool = True,
    constraint: Filter | None = None,
    time_range: tuple[int, int] | None = None,
    authz: tuple | None = None,
    min_score: float | None = None,
    after: tuple | None = None,
    collapse: str | None = None,
    group_by: tuple | None = None,
) -> tuple[str, dict[tuple[str, str], int]] | None:
    """The gate between block-max WAND and full evaluation: ``(mode, term
    counts)`` with mode "or"/"and" when ``wand_topk`` ranks the partition,
    None when the whole match set is evaluated and scored.

    Block-max needs a flat OR or flat AND of plain terms, a scorer with
    block bounds (ref_tfidf, bm25), ``prune`` and k > 0, and nothing
    that changes which docs may enter the top k after the bounds are
    taken: no tombstones (``removed``), constraint, time_range or authz
    mask, no serial-report admission (``min_score``), no ``after`` cursor,
    and no collapse or group_by (their representatives may rank below the
    global top k)."""
    if (not prune or k <= 0 or scoring not in ("ref_tfidf", "bm25") or len(removed)
            or any(x is not None for x in (constraint, time_range, authz, min_score,
                                           after, collapse, group_by))):
        return None
    occ, mode = disjunctive_terms(filt), "or"
    if occ is None:
        occ, mode = conjunctive_terms(filt), "and"
    if occ is None:
        return None
    counts: dict[tuple[str, str], int] = {}
    for key in occ:
        counts[key] = counts.get(key, 0) + 1
    return mode, counts


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


def _nothing(found: int, pruned: float):
    return np.empty(0, np.int64), np.empty(0, np.float32), found, pruned


def wand_topk(
    src,
    term_counts: dict[tuple[str, str], int],
    k: int,
    scoring: str,
    n_docs: int,
    avg_dl: float,
    dl_arr: np.ndarray,
    mode: str = "or",
):
    """Exact pruned top-k over the union (``mode="or"``) or intersection
    (``mode="and"``) of the terms' postings.

    Returns (answer_docs_scored: int64[], scores: float32[], found: int,
    pruned_frac: float). Scores come from ``score_exact``, so they and their
    tie-breaks are bit-identical to full evaluation's.
    """
    if mode == "and" and any(len(src.docs(*key)) == 0 for key in term_counts):
        return _nothing(0, 0.0)  # a missing term empties the whole conjunction
    mults = term_multipliers(src, term_counts, scoring, n_docs)
    if not mults:
        return _nothing(0, 0.0)
    postings = [src.docs(*key) for key, _m in mults]

    if mode == "and":
        domain = postings[0]
        for docs in postings[1:]:
            if len(domain) == 0:
                break
            domain = np.intersect1d(domain, docs, assume_unique=True)
    else:
        domain = np.unique(np.concatenate(postings))
    found = int(len(domain))
    if found == 0:
        return _nothing(0, 0.0)
    if found <= max(k, SWEEP_MIN_K) * 4:
        # tiny domains: pruning overhead exceeds the scoring it saves
        return domain, score_exact(src, mults, domain, scoring, avg_dl, dl_arr), found, 0.0

    # per-block upper bounds and [start, end) intervals
    starts_all, ends_all, ubs_all = [], [], []
    for (key, m), docs in zip(mults, postings):
        blk = src.blocks[key]
        first = blk["first"].astype(np.int64)
        ends = np.empty(len(first), dtype=np.int64)
        ends[:-1] = first[1:]
        ends[-1] = docs[-1] + 1
        max_tf = blk["max_tf"].astype(np.float64)
        if scoring == "ref_tfidf":
            ub = np.float64(m) * max_tf
        else:
            ub = np.float64(m) * (max_tf / (max_tf + _knorm(blk["min_dl"].astype(np.float64), avg_dl)))
        starts_all.append(first)
        ends_all.append(ends)
        ubs_all.append(ub)
    # flatness gate: block-max pruning only pays when the bound landscape
    # has skew (some blocks promise much more than typical ones). On flat
    # corpora the sweep visits everything anyway and its machinery is pure
    # overhead — score the whole domain in one vectorized pass instead.
    tot_max = sum(float(u.max()) for u in ubs_all)
    tot_med = sum(float(np.median(u)) for u in ubs_all)
    if tot_max <= FLAT_SKEW * tot_med:
        return domain, score_exact(src, mults, domain, scoring, avg_dl, dl_arr), found, 0.0

    starts = np.concatenate(starts_all)
    ends = np.concatenate(ends_all)
    ubs = np.concatenate(ubs_all)

    # sweep: boundary points; segment bound = Σ of covering blocks' ubs,
    # coverage = # of terms with a block over the segment
    bounds = np.unique(np.concatenate([starts, ends]))
    seg_ub = np.zeros(len(bounds), dtype=np.float64)
    seg_cov = np.zeros(len(bounds), dtype=np.int64)
    s_idx = np.searchsorted(bounds, starts)
    e_idx = np.searchsorted(bounds, ends)
    np.add.at(seg_ub, s_idx, ubs)
    np.add.at(seg_ub, e_idx, -ubs)
    np.add.at(seg_cov, s_idx, 1)
    np.add.at(seg_cov, e_idx, -1)
    seg_ub = np.cumsum(seg_ub)[:-1]  # bound over [bounds[i], bounds[i+1])
    seg_cov = np.cumsum(seg_cov)[:-1]
    seg_lo = bounds[:-1]
    seg_hi = bounds[1:]
    if mode == "and":
        # a matching doc needs every term: segments without full coverage
        # are dead — skipped without touching any docId
        live = seg_cov == len(mults)
    else:
        live = seg_ub > 0
    seg_lo, seg_hi, seg_ub = seg_lo[live], seg_hi[live], seg_ub[live]
    if len(seg_ub) == 0:
        return _nothing(found, 1.0)
    # The exact scorer accumulates in fp32 while bounds are fp64: fp32
    # round-up can exceed the fp64 bound by a few ulps per term, letting a
    # "pruned" doc tie the kth score and win the docId-desc tie-break. Add
    # relative headroom scaled by term count (+ denormal floor) so pruning
    # stays strictly conservative.
    seg_ub = seg_ub * (1.0 + 4.0 * len(mults) * np.finfo(np.float32).eps) + 1e-30

    order = np.argsort(-seg_ub, kind="stable")
    seg_lo, seg_hi, seg_ub = seg_lo[order], seg_hi[order], seg_ub[order]

    top_docs = np.empty(0, np.int64)
    top_scores = np.empty(0, np.float32)
    threshold = -np.inf
    scored = 0
    i = 0
    batch = max(SWEEP_BATCH, k)
    # candidates come from the precomputed intersection (AND) or from every
    # term's postings (OR), restricted to the batch's segments
    sources = [domain] if mode == "and" else postings
    while i < len(seg_ub):
        if seg_ub[i] < threshold:
            break
        j = min(len(seg_ub), i + batch)
        lo_b, hi_b = seg_lo[i:j], seg_hi[i:j]
        cand_parts = []
        for docs in sources:
            a = np.searchsorted(docs, lo_b)
            b = np.searchsorted(docs, hi_b)
            cand_parts.extend(docs[s:e] for s, e in zip(a, b) if e > s)
        if cand_parts:
            cand = np.unique(np.concatenate(cand_parts))
            scored += len(cand)
            sc = score_exact(src, mults, cand, scoring, avg_dl, dl_arr)
            top_docs = np.concatenate([top_docs, cand])
            top_scores = np.concatenate([top_scores, sc])
            if len(top_docs) > k:
                keep = np.lexsort((-top_docs, -top_scores))[:k]
                top_docs, top_scores = top_docs[keep], top_scores[keep]
            if len(top_docs) == k:
                threshold = float(top_scores.min())
        i = j
        batch = min(4096, batch * 2)
    pruned = 1.0 - scored / max(1, found)
    return top_docs, top_scores, found, pruned
