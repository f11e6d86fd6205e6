"""The reference's non-fulltext plugin operators over our index segments.

Re-implements the query-side plugin family (SURVEY.md §2.6-2.8) as
per-partition kernels + driver merges, the same scatter-gather shape as
the fulltext engine:

* **distincts** — distinct terms of a field, optional prefix, optionally
  restricted to docs matching a query
  (miru-reco-plugins/.../distincts/Distincts.java:41-100);
* **distinct_count** — count of those
  (miru-stream-plugins/.../count/DistinctCount.java:30-113);
* **aggregate_counts** — per distinct pivot term among matching docs,
  newest-first with counts
  (miru-stream-plugins/.../filter/AggregateCounts.java:93-300);
* **waveform** — time-bucketed counts of matching docs
  (miru-analytics-plugins/.../Analytics.java:142-196);
* **trending** — waveforms + a deterministic slope score (recent-half
  minus previous-half; the reference's PeakDet is a richer detector —
  miru-reco-plugins/.../trending/TrendingQuestion.java:99-148);
* **latest / first per term** — straight from the posting rows'
  first_doc/last_doc columns, which the build maintains at index time
  exactly like the reference's IndexLatest/IndexFirst partial aggregates
  (miru-service/.../stream/MiruIndexLatest.java, MiruIndexFirst.java).

Meta fields (role/tool/conv_id) gather from the forward table; the text
field walks the (sorted) term dictionary with posting∩answer checks —
that is the reference's own gather loop (MiruAggregateUtil.java:953-1096)
and is O(field vocabulary), so use prefixes to bound it at scale.
"""

from __future__ import annotations

import numpy as np

from .filters import DEFAULT_MAX_WILDCARD_EXPANSION, parse_query
from .search import PostingSource, _analyzer_name, _collect_term_specs, match_set
from .segments import (
    FIELD_SEP,
    META_FIELDS,
    forward_columns,
    partition,
    read_term_dfs,
    read_tombstones,
)


def _answer(index_dir: str, part: int, query: str | None, use_stopwords: bool,
            time_range: tuple[int, int] | None = None):
    """(answer docIds | None-for-all, n_docs, fwd) for one partition: the
    fulltext question's match-set step (search.match_set), so every plugin
    path masks REMOVEd docs (buildIndexMask, MiruBitmapsRoaring.java:492-503)
    and the inclusive ``time_range`` on ts exactly as the fulltext path
    does. ``query=None`` matches every doc."""
    n_docs = partition(index_dir, part).manifest["metrics"]["n_docs"]
    fwd = forward_columns(index_dir, part)
    removed = read_tombstones(index_dir, part)
    if query is None and time_range is None and len(removed) == 0:
        return None, n_docs, fwd
    filt = src = None
    if query is not None:
        filt = parse_query(query, use_stopwords=use_stopwords,
                           analyzer=_analyzer_name(index_dir))
        specs: list[tuple[str, str]] = []
        _collect_term_specs(filt, specs)
        src = PostingSource(index_dir, part, specs, DEFAULT_MAX_WILDCARD_EXPANSION)
    answer = match_set(index_dir, part, filt, src, n_docs, fwd, removed,
                       time_range=time_range)
    return answer, n_docs, fwd


def _postings_meta(index_dir: str, part: int, field: str, prefix: str = ""):
    """(terms, first_doc, last_doc, df) of a field's postings: a slice of
    the resident term dictionary, metadata columns only."""
    lo = field + FIELD_SEP + prefix
    td = partition(index_dir, part).dictionary
    i, j = td.span(lo, lo + "\U0010ffff")
    t = td.read(np.arange(i, j, dtype=np.int64), ["term", "first_doc", "last_doc", "df"])
    sep = len(field) + 1
    return (
        [k[sep:] for k in td.terms[i:j].tolist()],
        t["first_doc"].to_numpy(),
        t["last_doc"].to_numpy(),
        t["df"].to_numpy(),
    )


def _range_overlap_idx(answer: np.ndarray, first: np.ndarray, last: np.ndarray) -> np.ndarray:
    """Indices i where sorted ``answer`` has at least one value inside
    [first[i], last[i]] — the vectorized candidate-rejection sweep over the
    posting [first_doc, last_doc] metadata (one searchsorted over the whole
    arrays instead of a per-term Python loop)."""
    if len(answer) == 0 or len(first) == 0:
        return np.empty(0, dtype=np.int64)
    lo = np.searchsorted(answer, first)
    ok = lo < len(answer)
    ok[ok] &= answer[lo[ok]] <= last[ok]
    return np.flatnonzero(ok).astype(np.int64)


def distincts_partition(
    index_dir: str, part: int, field: str, prefix: str = "",
    query: str | None = None, use_stopwords: bool = False,
    time_range: tuple[int, int] | None = None,
) -> list[str]:
    """Distinct terms of ``field`` (with prefix) present among matching docs."""
    answer, n_docs, fwd = _answer(index_dir, part, query, use_stopwords,
                                  time_range)
    if field in META_FIELDS and prefix == "":
        vals = fwd[field] if field != "conv_id" else fwd["conv_id"]
        if answer is None:
            return sorted(set(vals.to_pylist()) - {""})
        import pyarrow as pa

        sel = vals.take(pa.array(answer))
        return sorted(set(sel.to_pylist()) - {""})
    terms, first, last, _df = _postings_meta(index_dir, part, field, prefix)
    if answer is None:
        return terms  # already sorted
    # candidate rejection: term survives iff posting ∩ answer ≠ ∅. ONE
    # vectorized searchsorted over the [first_doc, last_doc] metadata
    # arrays rejects terms whose posting range can't touch the answer,
    # then ONE batched dictionary read for the surviving candidates.
    cand = [terms[i] for i in _range_overlap_idx(answer, first, last)]
    if not cand:
        return []
    src = PostingSource(index_dir, part, [(field, t) for t in cand], 0)
    return [
        t for t in cand
        if np.intersect1d(src.docs(field, t), answer, assume_unique=True).size
    ]


def distincts(engine, field: str, prefix: str = "", query: str | None = None,
              time_range: tuple[int, int] | None = None) -> list[str]:
    use_stop = bool(engine.meta.get("tokenizer", {}).get("stopwords"))
    res = engine._fan_out(
        distincts_partition,
        dict(field=field, prefix=prefix, query=query,
             use_stopwords=use_stop, time_range=time_range),
        parts=engine._active_parts(time_range))
    out: set[str] = set()
    for r in res:
        out.update(r)
    return sorted(out)


def distinct_count(engine, field: str, prefix: str = "", query: str | None = None) -> int:
    return len(distincts(engine, field, prefix, query))


def uniques(engine, field: str, time_range: tuple[int, int],
            prefix: str = "", query: str | None = None) -> int:
    """The uniques plugin: distinct-value COUNT of ``field`` among docs
    matching the constraint filter inside an EXPLICIT time range — the
    reference wraps the distincts question verbatim and keeps only the
    cardinality (UniquesInjectable.java:36-54 builds a DistinctsQuery from
    the UniquesQuery and answers gatherDistincts.answer.collectedDistincts).
    The explicit-time-range requirement is the reference's own precondition
    (UniquesQuery.java:32-33: "Requires an explicit time range")."""
    if time_range is None:
        raise ValueError("uniques requires an explicit time range "
                         "(UniquesQuery.java:32-33)")
    return len(distincts(engine, field, prefix=prefix, query=query,
                         time_range=time_range))


def aggregate_counts_partition(
    index_dir: str, part: int, pivot_field: str, query: str | None = None,
    use_stopwords: bool = False,
) -> list[tuple[str, int, int]]:
    """(pivot term, matching-doc count, newest matching docId) per distinct
    pivot value among matching docs, newest-first."""
    answer, n_docs, fwd = _answer(index_dir, part, query, use_stopwords)
    import pyarrow as pa

    vals = fwd[pivot_field]
    if answer is None:
        answer = np.arange(n_docs, dtype=np.int64)
    if len(answer) == 0:
        return []
    # dictionary-encode the taken column and group on the int codes (the
    # packed-sort trick the build uses) — no Python materialization of the
    # matching docs' pivot values
    sel = vals.take(pa.array(answer))
    enc = sel.dictionary_encode()
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
    dictionary = enc.dictionary
    # answer is doc-ascending, so per-code last doc = max reduceat after a
    # stable int sort on codes
    order = np.argsort(codes, kind="stable")
    codes_s, docs_s = codes[order], answer[order]
    starts = np.flatnonzero(np.concatenate([[True], codes_s[1:] != codes_s[:-1]]))
    counts = np.diff(np.append(starts, len(codes_s)))
    last = np.maximum.reduceat(docs_s, starts)
    uniq_codes = codes_s[starts]
    terms = dictionary.take(pa.array(uniq_codes)).to_pylist()
    rows = [
        (t, int(c), int(l))
        for t, c, l in zip(terms, counts, last)
        if t != ""
    ]
    rows.sort(key=lambda r: -r[2])  # newest-first (reverse time order)
    return rows


def aggregate_counts(engine, pivot_field: str, query: str | None = None, k: int = 0):
    use_stop = bool(engine.meta.get("tokenizer", {}).get("stopwords"))
    res = engine._fan_out(aggregate_counts_partition,
                          dict(pivot_field=pivot_field, query=query, use_stopwords=use_stop))
    agg: dict[str, list[int]] = {}
    for part_rows, part in zip(res, engine.parts):
        for term, c, last in part_rows:
            cur = agg.get(term)
            if cur is None:
                agg[term] = [c, part, last]
            else:
                cur[0] += c
                if (part, last) > (cur[1], cur[2]):
                    cur[1], cur[2] = part, last
    rows = [(t, v[0], v[1], v[2]) for t, v in agg.items()]
    rows.sort(key=lambda r: (-r[2], -r[3]))  # newest partition, then docId
    return rows[:k] if k else rows


def aggregate_counts_inbox_partition(
    index_dir: str, part: int, stream_id: str, pivot_field: str,
    query: str | None = None, use_stopwords: bool = False,
    include_unread: bool = True,
) -> list[tuple]:
    """The inbox/unread AggregateCounts variant
    (miru-stream-plugins/.../filter/AggregateCounts.java:93-300 +
    AggregateCountsInjectable.filterInboxStream): the answer set is the
    stream's INBOX (∩ optional filter, minus tombstones); per distinct
    pivot term, newest-first: count, latest/oldest matching docId, and the
    unread flags (anyUnread / latestUnread / oldestUnread) against the
    stream's unread set.

    Returns (term, count, latest_doc, oldest_doc, any_unread,
    latest_unread, oldest_unread) rows, newest-first."""
    from .segments import read_stream_set

    answer, n_docs, fwd = _answer(index_dir, part, query, use_stopwords)
    inbox = read_stream_set(index_dir, part, "inbox", stream_id)
    if len(inbox) == 0:
        return []
    answer = inbox if answer is None else np.intersect1d(answer, inbox, assume_unique=True)
    if len(answer) == 0:
        return []
    unread = (
        read_stream_set(index_dir, part, "unread", stream_id)
        if include_unread
        else np.empty(0, dtype=np.int64)
    )
    import pyarrow as pa

    # sorted-array membership: unread flag per answer doc
    if len(unread):
        pos = np.searchsorted(unread, answer)
        flags = (pos < len(unread)) & (unread[np.minimum(pos, len(unread) - 1)] == answer)
    else:
        flags = np.zeros(len(answer), dtype=bool)

    sel = fwd[pivot_field].take(pa.array(answer))
    enc = sel.dictionary_encode()
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    dictionary = enc.dictionary
    order = np.argsort(codes, kind="stable")
    codes_s, docs_s, flags_s = codes[order], answer[order], flags[order]
    starts = np.flatnonzero(np.concatenate([[True], codes_s[1:] != codes_s[:-1]]))
    ends = np.append(starts[1:], len(codes_s))
    counts = ends - starts
    any_unread = np.maximum.reduceat(flags_s, starts) if len(starts) else np.zeros(0, bool)
    terms = dictionary.take(pa.array(codes_s[starts])).to_pylist()
    rows = [
        (
            t,
            int(c),
            int(docs_s[e - 1]),           # latest matching doc (lastSetBit)
            int(docs_s[s]),               # oldest (firstIntersectingBit)
            bool(au),
            bool(flags_s[e - 1]),         # latestUnread
            bool(flags_s[s]),             # oldestUnread
        )
        for t, c, s, e, au in zip(terms, counts, starts, ends, any_unread)
        if t != ""
    ]
    rows.sort(key=lambda r: -r[2])  # newest-first (reverse time order)
    return rows


def aggregate_counts_inbox(
    engine, stream_id: str, pivot_field: str, query: str | None = None,
    k: int = 0, include_unread: bool = True,
):
    """Cross-partition inbox aggregate counts: counts summed, latest/oldest
    endpoints and their unread flags taken from the globally newest/oldest
    (part, docId), anyUnread OR-ed; newest-first order. Returns rows
    (term, count, part, latest_doc, oldest_part, oldest_doc, any_unread,
    latest_unread, oldest_unread)."""
    use_stop = bool(engine.meta.get("tokenizer", {}).get("stopwords"))
    res = engine._fan_out(aggregate_counts_inbox_partition,
                          dict(stream_id=stream_id, pivot_field=pivot_field, query=query,
                               use_stopwords=use_stop, include_unread=include_unread))
    # per term: [count, latest_part, latest_doc, latest_unread,
    #            oldest_part, oldest_doc, oldest_unread, any_unread]
    agg: dict[str, list] = {}
    for part_rows, part in zip(res, engine.parts):
        for term, c, latest, oldest, any_u, latest_u, oldest_u in part_rows:
            cur = agg.get(term)
            if cur is None:
                agg[term] = [c, part, latest, latest_u, part, oldest, oldest_u, any_u]
            else:
                cur[0] += c
                cur[7] = cur[7] or any_u
                if (part, latest) > (cur[1], cur[2]):
                    cur[1], cur[2], cur[3] = part, latest, latest_u
                if (part, oldest) < (cur[4], cur[5]):
                    cur[4], cur[5], cur[6] = part, oldest, oldest_u
    rows = sorted(
        ((t, v[0], v[1], v[2], v[4], v[5], v[7], v[3], v[6]) for t, v in agg.items()),
        key=lambda r: (-r[2], -r[3]),
    )
    return rows[:k] if k else rows


def waveform_partition(
    index_dir: str, part: int, bucket_us: int, query: str | None = None,
    use_stopwords: bool = False,
) -> dict[int, int]:
    """bucket (epoch-us floor) → matching-doc count."""
    answer, n_docs, fwd = _answer(index_dir, part, query, use_stopwords)
    ts = fwd["ts"] if answer is None else fwd["ts"][answer]
    buckets = (ts // bucket_us) * bucket_us
    uniq, counts = np.unique(buckets, return_counts=True)
    return {int(b): int(c) for b, c in zip(uniq, counts)}


def waveform(engine, bucket_us: int, query: str | None = None) -> dict[int, int]:
    use_stop = bool(engine.meta.get("tokenizer", {}).get("stopwords"))
    res = engine._fan_out(waveform_partition,
                          dict(bucket_us=bucket_us, query=query, use_stopwords=use_stop))
    out: dict[int, int] = {}
    for r in res:
        for b, c in r.items():
            out[b] = out.get(b, 0) + c
    return out


def trending(engine, queries: list[str], bucket_us: int,
             strategy: str = "slope") -> list[tuple[str, float]]:
    """Trending rank per query over its index waveform.

    ``strategy``: "slope" — the deterministic recent-half minus
    previous-half signal; or any reference strategy
    (TrendingInjectable.java:143-190): "linear_regression", "leader",
    "peaks" (Billauer PeakDet with the reference's threshold),
    "highest_peak"."""
    if strategy == "slope":
        scored = []
        for q in queries:
            wf = waveform(engine, bucket_us, q)
            if not wf:
                scored.append((q, 0.0))
                continue
            lo, hi = min(wf), max(wf)
            mid = lo + (hi - lo) // 2
            recent = sum(c for b, c in wf.items() if b > mid)
            older = sum(c for b, c in wf.items() if b <= mid)
            scored.append((q, float(recent - older)))
        scored.sort(key=lambda r: (-r[1], r[0]))
        return scored

    from .analytics import trending_ranks

    wfs = {q: waveform(engine, bucket_us, q) for q in queries}
    buckets = sorted({b for wf in wfs.values() for b in wf})
    if not buckets:
        return [(q, 0.0) for q in sorted(queries)]
    lo, hi = buckets[0], buckets[-1]
    n = (hi - lo) // bucket_us + 1
    vectors = {}
    for q, wf in wfs.items():
        v = np.zeros(n, dtype=np.int64)
        for b, c in wf.items():
            v[(b - lo) // bucket_us] = c
        vectors[q] = v
    return trending_ranks(vectors, strategies=(strategy,))[strategy]


def latest_first_partition(index_dir: str, part: int, field: str, prefix: str = ""):
    """(term, first_docId, last_docId, df) — the IndexFirst/IndexLatest
    aggregates, free from the posting metadata columns. When tombstones
    exist, any term whose first/last doc was REMOVEd re-derives its
    endpoints from the (masked) posting; fully-removed terms are dropped."""
    terms, first, last, df = _postings_meta(index_dir, part, field, prefix)
    removed = read_tombstones(index_dir, part)
    if len(removed):
        hit_f = np.isin(first, removed)
        hit_l = np.isin(last, removed)
        redo = [t for t, hf, hl in zip(terms, hit_f, hit_l) if hf or hl]
        if redo:
            src = PostingSource(index_dir, part, [(field, t) for t in redo], 0)
            dfs = dict(zip(terms, df))
            fixed: dict[str, tuple[int, int, int] | None] = {}
            for t in redo:
                docs = np.setdiff1d(src.docs(field, t), removed, assume_unique=True)
                # df stays the indexed count — the reference never decrements
                # the cardinality store on REMOVE (see segments.remove_docs)
                fixed[t] = (int(docs[0]), int(docs[-1]), int(dfs[t])) if len(docs) else None
            out = []
            for t, f, l, d in zip(terms, first, last, df):
                if t in fixed:
                    if fixed[t] is not None:
                        out.append((t, *fixed[t]))
                else:
                    out.append((t, int(f), int(l), int(d)))
            return out
    return [(t, int(f), int(l), int(d)) for t, f, l, d in zip(terms, first, last, df)]


def latest_first(engine, field: str, prefix: str = ""):
    res = engine._fan_out(latest_first_partition, dict(field=field, prefix=prefix))
    return {part: rows for part, rows in zip(engine.parts, res)}


def paired_latest_partition(
    index_dir: str, part: int, field_a: str = "role", field_b: str = "tool"
):
    """One partition's pairedLatest answer — (va, vb, docId, ts) with one
    row per distinct (va, vb) pair, doc = the pair's latest activity
    (MiruIndexPairedLatest.java: the pairedLatest bitmap holds exactly the
    latest id per aggregate value; vb is read back through the forward
    table, the reference's activity gather)."""
    import pyarrow as pa

    from .build import paired_latest_field
    from .search import PostingSource
    from .segments import forward_columns

    field = paired_latest_field(field_a, field_b)
    terms, _first, _last, _df = _postings_meta(index_dir, part, field, "")
    if not terms:
        return []
    src = PostingSource(index_dir, part, [(field, t) for t in terms], 0)
    fwd = forward_columns(index_dir, part)
    out = []
    for t in terms:
        docs = src.docs(field, t)
        if not len(docs):
            continue
        vbs = fwd[field_b].take(pa.array(docs)).to_pylist()
        for d, vb in zip(docs.tolist(), vbs):
            out.append((t, vb, int(d), int(fwd["ts"][d])))
    return out


def paired_latest(engine, field_a: str = "role", field_b: str = "tool"):
    """Cross-partition pairedLatest merge: per (va, vb) keep the hit with
    the greatest ts (tie → higher partition id, the newer segment in walk
    order). Returns sorted (va, vb, part, doc, ts) tuples."""
    res = engine._fan_out(paired_latest_partition, dict(field_a=field_a, field_b=field_b))
    best: dict[tuple, tuple] = {}
    for part, rows in zip(engine.parts, res):
        for va, vb, doc, ts in rows:
            cur = best.get((va, vb))
            if cur is None or (ts, part) > (cur[4], cur[2]):
                best[(va, vb)] = (va, vb, part, doc, ts)
    return sorted(best.values())


# ------------------------------------------------------------- plugin SPI
#
# The reference registers query plugins through an SPI (MiruPlugin →
# endpoint + injectable, miru-plugin/.../plugin/MiruPlugin.java;
# FullTextPlugin.java). The rebuild's equivalent: a name → callable
# registry over the engine. Built-ins self-register below; user plugins
# call register_plugin at import time.

_PLUGIN_REGISTRY: dict[str, "object"] = {}


def register_plugin(name: str, fn) -> None:
    """Register a plugin callable ``fn(engine, **kwargs)`` under ``name``
    (the MiruPlugin registration analogue). Re-registering replaces."""
    _PLUGIN_REGISTRY[name] = fn


def get_plugin(name: str):
    if name not in _PLUGIN_REGISTRY:
        raise KeyError(f"no plugin {name!r}; registered: {sorted(_PLUGIN_REGISTRY)}")
    return _PLUGIN_REGISTRY[name]


def run_plugin(engine, name: str, **kwargs):
    """Dispatch a registered plugin against an engine — the
    injectable-endpoint call path."""
    return get_plugin(name)(engine, **kwargs)


def registered_plugins() -> list[str]:
    return sorted(_PLUGIN_REGISTRY)


# ------------------------------------------------------------------- strut


def strut_partition(
    index_dir: str, part: int, model: dict[str, float],
    strategy: str = "unit_weighted", query: str | None = None,
    use_stopwords: bool = False,
) -> list[tuple[str, int, float]]:
    """Index-backed Strut scoring for one partition (the reference's Strut
    is an index PLUGIN, not a corpus scan: it gathers candidates' features
    from the index and scores against the cached model — Strut.java:37-56,
    StrutModelCache.java:104-140). Feature presence comes straight from the
    model terms' POSTINGS (one dictionary read, removal/tombstones already
    honored by _answer); scores follow strut.StrutScorer's strategy
    semantics exactly. Returns (conv_id, turn_idx, score) for every doc
    with ≥1 model feature."""
    import pyarrow as pa

    from .segments import TEXT_FIELD
    from .strut import regression_scalar

    answer, n_docs, fwd = _answer(index_dir, part, query, use_stopwords)
    terms = list(model)
    src = PostingSource(index_dir, part, [(TEXT_FIELD, t) for t in terms], 0)
    sums = np.zeros(n_docs, dtype=np.float64)
    cnts = np.zeros(n_docs, dtype=np.int64)
    # -inf, not 0: a doc whose matched features all carry NEGATIVE weights
    # must score that weight under 'max' (StrutScorer parity), not 0
    mx = np.full(n_docs, -np.inf, dtype=np.float64)
    for i, t in enumerate(terms):
        docs = src.docs(TEXT_FIELD, t)
        if answer is not None:
            docs = np.intersect1d(docs, answer, assume_unique=True)
        if not len(docs):
            continue
        w = float(model[t])
        scal = regression_scalar(i) if strategy == "regression_weighted" else 1.0
        sums[docs] += w * scal
        cnts[docs] += 1
        mx[docs] = np.maximum(mx[docs], w)
    sel = np.flatnonzero(cnts)
    if not len(sel):
        return []
    if strategy == "unit_weighted":
        score = sums[sel] / cnts[sel]
    elif strategy == "regression_weighted":
        score = sums[sel]
    elif strategy == "max":
        score = mx[sel]
    else:
        raise ValueError(strategy)
    conv = fwd["conv_id"].take(pa.array(sel)).to_pylist()
    turn = np.asarray(fwd["turn_idx"])[sel]  # forward turn_idx is numpy
    return [
        (c, int(tn), float(round(s, 6))) for c, tn, s in zip(conv, turn, score)
    ]


def strut(engine, model: dict[str, float], strategy: str = "unit_weighted",
          query: str | None = None):
    """All partitions' index-backed Strut scores, flattened."""
    use_stop = bool(engine.meta.get("tokenizer", {}).get("stopwords"))
    res = engine._fan_out(strut_partition,
                          dict(model=model, strategy=strategy, query=query, use_stopwords=use_stop))
    return [row for rows in res for row in rows]


def term_dfs_partition(
    index_dir: str, part: int, field: str, terms: list[str]
) -> dict[str, int]:
    """term → df for the given terms of one partition (metadata columns
    only — never touches posting bytes)."""
    sep = len(field) + 1
    dfs = read_term_dfs(index_dir, part, [field + FIELD_SEP + t for t in terms])
    return {k[sep:]: d for k, d in dfs.items()}


def mlt_select_terms(
    engine, text: str, field: str = "text", n_terms: int = 5, min_df: int = 2
) -> list[str]:
    """Lucene MoreLikeThis term selection (like(text) mode): tokenize the
    source text with the index's own tokenizer, gather GLOBAL df for its
    distinct terms (one metadata-only dictionary read per partition, summed),
    keep df ≥ min_df, rank by tf·ln(N/df) (ties → term asc), take the top
    ``n_terms``. The candidate set is one document's vocabulary — the df
    gather is O(doc terms), never O(corpus vocabulary)."""
    import math
    from collections import Counter

    from .tokenize import py_tokenize

    use_stop = bool(engine.meta.get("tokenizer", {}).get("stopwords"))
    tf = Counter(py_tokenize(text, use_stopwords=use_stop))
    if not tf:
        return []
    res = engine._fan_out(term_dfs_partition, dict(field=field, terms=sorted(tf)))
    df: Counter = Counter()
    for d in res:
        df.update(d)
    n_docs = engine.meta["totals"]["n_docs"]
    cands = [t for t in tf if df[t] >= min_df]
    cands.sort(key=lambda t: (-(tf[t] * math.log(n_docs / df[t])), t))
    return cands[:n_terms]


def more_like_this(
    engine,
    text: str,
    k: int = 10,
    field: str = "text",
    n_terms: int = 5,
    min_df: int = 2,
    scoring: str = "bm25",
):
    """Find documents similar to ``text`` (the Lucene MoreLikeThis
    operation): select the text's most characteristic terms by tf·idf,
    then run them as one disjunctive query through the engine's normal
    scored search (WAND pruning, removal/authz masks and the partition
    merge all apply). Returns (hits, found, selected_terms)."""
    terms = mlt_select_terms(engine, text, field, n_terms, min_df)
    if not terms:
        return [], 0, []
    hits, found = engine.search(" OR ".join(terms), k=k, scoring=scoring)
    return hits, found, terms


# built-in plugin registrations (the shipped-plugin set)
register_plugin("distincts", distincts)
register_plugin("uniques", uniques)
register_plugin("more_like_this", more_like_this)
register_plugin("distinct_count", distinct_count)
register_plugin("aggregate_counts", aggregate_counts)
register_plugin("aggregate_counts_inbox", aggregate_counts_inbox)
register_plugin("waveform", waveform)
register_plugin("trending", trending)
register_plugin("paired_latest", paired_latest)
register_plugin("latest_first", latest_first)
register_plugin("strut", strut)


def _register_reco():
    from .reco import reco_cf_index

    register_plugin("reco_cf", reco_cf_index)


_register_reco()


def stumptown(engine, query: str, k: int = 10, bucket_us: int = 3_600_000_000):
    """The stumptown answer (miru-stumptown-plugins/.../Stumptown.java:37-74
    ``stumptowning``): the bucketed waveform of matching docs PLUS the
    newest-k matching activities, chronologically descending — composed
    from the waveform fan-out and the TIME strategy walk. Each returned
    activity row carries its bucket and that bucket's total matching
    count: [(rank, conv_id, turn_idx, ts_us, bucket_ts_sec, bucket_n)]."""
    wf = waveform(engine, bucket_us, query)
    hits, _found = engine.search(query, k=k, scoring="time")
    out = []
    for rank, h in enumerate(hits):
        b = (h.ts // bucket_us) * bucket_us
        out.append(
            (rank, h.conv_id, h.turn_idx, h.ts, b // 1_000_000, wf.get(b, 0))
        )
    return out


register_plugin("stumptown", stumptown)
