"""Top-k query engine over immutable index segments.

Re-implements the reference's query path (SURVEY.md §3.3;
FullTextCustomQuestion.askLocal → MiruAggregateUtil.filter →
FullText.collectTfIdf → FullTextAnswerMerger.merge) over our segment
layout: the query plan (parsed filter AST + scoring config) is sent to the
partition-pinned actor pool when Ray is in use, and asked of each partition
serially in process otherwise. Each partition is read through its resident
``segments.Partition`` (manifest, term dictionary, forward columns and the
decoded-posting, expansion and authz caches, all at the partition's
manifest epoch); it looks its terms up in the term dictionary, reads only
the row groups that hold them and decodes each posting whole (docs and
tfs), then does sorted-array set algebra, fp32 scoring and a local top-k;
the driver does the exact two-pointer ordered merge.

Rank-identity contract (tested against the pure-python oracle):
* signed term collector (±1 per collected term occurrence, sign flips for
  the negated operands of pButNotQ — MiruAggregateUtil.java:1149-1151,
  1204-1220);
* TF_IDF: multiplier_t = float32(count_t) / float32(Σtf_t^partition)
  (terms with Σtf ≤ 0 dropped — FullText.java:118-127); score accumulated
  in float32 over terms in sorted order; per-partition top-k by (score
  desc, docId desc) (RawBitScore.compareTo), answer sorted (score desc,
  ts desc) (ActivityScore.compareTo); every partition queried with an
  ABSENT report (fulltext always uses the parallel solver, which creates
  solvables with Optional.absent() — MiruService.java:410-414);
* TIME: descending docId, first k, score 0 (FullText.java:222-251).
  The reference's TIME evaluator additionally short-circuits the
  partition walk (isDone, FullTextAnswerEvaluator.java:18-35) because its
  partitions are TIME-ordered: once k newest hits are found, older
  partitions cannot contribute. Our partitioning is conversation-hash
  (ts ranges overlap across partitions), so that early exit would be
  UNSOUND here and all partitions are asked — by design, not omission;
  with range partitioning (build_index(partitioning="range") over a
  time-ordered stream) the per-partition manifest ts zone maps are
  disjoint and the walk DOES stop early (see SearchEngine.search);
* merge: partitions newest→oldest (descending part id), two-pointer
  truncated to k, taking from the running merge iff strictly less — ties
  go to the current partition (FullTextAnswerMerger.java:56-63);
  ``found`` sums the per-partition answer cardinalities.

BM25 mode (the north star's scoring engine) uses the same machinery with
idf = ln(1 + (N - df + ½)/(df + ½)) and the k1/b length normalization over
the per-partition doc-length table. Every ranked partition answer takes
one path: the whole match set (``match_set``), scored by the one exact fp32
scorer in wand.py (``term_multipliers`` + ``score_exact``), masked by
``after``, collapsed or grouped, then cut to the local top-k (``_top_k``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codec import POS_FIELD, decode_posting
from .filters import DEFAULT_MAX_WILDCARD_EXPANSION, Filter, parse_query
from .segments import (
    FIELD_SEP,
    completed_parts,
    forward_columns,
    index_meta,
    partition,
    read_global_manifest,
    read_postings_for_terms,
    read_term_between,
    read_term_range,
    read_tombstones,
)
from .wand import F32, score_exact, term_multipliers

_EMPTY = np.empty(0, dtype=np.int64)


@dataclass
class Hit:
    score: float
    ts: int
    doc_id: int
    part: int
    conv_id: str
    turn_idx: int
    role: str = ""


def _sort_key(h: Hit):
    return (-F32(h.score), -h.ts)


# --------------------------------------------------------------- AST walking


def _collect_term_specs(filt: Filter, out: list[tuple[str, str]]):
    for ff in filt.field_filters:
        for v in ff.values:
            out.append((ff.field, v))
            if filt.op == "phrase":
                out.append((POS_FIELD, v))  # occurrence stream for verify
    for sub in filt.sub_filters:
        _collect_term_specs(sub, out)


def _has_phrase(filt: Filter) -> bool:
    return filt.op == "phrase" or any(_has_phrase(s) for s in filt.sub_filters)


def _fuzzy_filter(terms: list[str], q: str, k: int) -> list[str]:
    """Sorted subset of ``terms`` within byte-level Levenshtein distance
    ``k`` of ``q`` — the FuzzyQuery expansion (Lucene walks a Levenshtein
    automaton over the FST term dictionary; this is the same set computed
    as one vectorized DP over the partition dictionary: a length-window
    prefilter, then a (n_cands, max_len) numpy edit-distance table swept
    column-by-column — no per-candidate python loop)."""
    if not terms:
        return []
    qb = np.frombuffer(q.encode(), dtype=np.uint8)
    enc = [t.encode() for t in terms]
    lens = np.fromiter((len(b) for b in enc), dtype=np.int64, count=len(enc))
    cand = np.nonzero(np.abs(lens - len(qb)) <= k)[0]
    if cand.size == 0:
        return []
    clens = lens[cand]
    L = int(clens.max())
    mat = np.zeros((cand.size, L), dtype=np.uint8)
    data = np.frombuffer(b"".join(enc[i] for i in cand), dtype=np.uint8)
    offs = np.zeros(cand.size + 1, dtype=np.int64)
    np.cumsum(clens, out=offs[1:])
    pos = np.arange(L)[None, :]
    valid = pos < clens[:, None]
    mat[valid] = data[(offs[:-1, None] + pos)[valid]]
    prev = np.broadcast_to(
        np.arange(L + 1, dtype=np.int16), (cand.size, L + 1)
    ).copy()
    for i, qc in enumerate(qb, 1):
        sub = prev[:, :-1] + (mat != qc)
        cur = np.empty_like(prev)
        cur[:, 0] = i
        for j in range(1, L + 1):  # L ≤ len(q)+k: short inner sweep
            np.minimum(prev[:, j] + 1, cur[:, j - 1] + 1, out=cur[:, j])
            np.minimum(cur[:, j], sub[:, j - 1], out=cur[:, j])
        prev = cur
    dist = prev[np.arange(cand.size), clens]
    return [terms[i] for i in cand[dist <= k]]


def _index_has_positions(index_dir: str) -> bool:
    """Whether the index carries the positional occurrence streams
    (``positions=True`` at build time) — phrase queries need them."""
    return bool(index_meta(index_dir).get("positions"))


def _analyzer_name(index_dir: str) -> str:
    return (index_meta(index_dir).get("tokenizer") or {}).get("analyzer", "default")


def _check_tokenizer_compat(meta: dict, index_dir: str) -> None:
    """Raise loudly when the index's RECORDED tokenizer contract no longer
    matches what the resolved analyzer produces today — querying (or
    extending) such an index would silently mismatch terms (zero hits /
    split vocabularies), e.g. after the round-5 \\p{M} token-class
    change for mark scripts. Pre-pattern manifests skip the check."""
    tok = (meta or {}).get("tokenizer") or {}
    recorded = tok.get("pattern")
    if not recorded:
        return
    from .analyzers import tokenizer_meta

    current = tokenizer_meta(tok.get("analyzer"), bool(tok.get("stopwords")))
    if current["pattern"] != recorded:
        raise ValueError(
            f"{index_dir}: index was built with token pattern {recorded!r} "
            f"but analyzer {tok.get('analyzer')!r} now tokenizes with "
            f"{current['pattern']!r} — rebuild the index (or pin the "
            "library version it was built with); querying across the "
            "mismatch would silently return wrong answers"
        )


def _list_rows(col) -> list[np.ndarray]:
    """A list<int> column as one int64 array per row (views of one buffer)."""
    import pyarrow.compute as pc

    lens = pc.list_value_length(col).to_numpy(zero_copy_only=False)
    vals = pc.list_flatten(col).to_numpy(zero_copy_only=False).astype(np.int64)
    return np.split(vals, np.cumsum(lens)[:-1])


class PostingSource:
    """Per-partition posting reader: the terms a query needs, decoded into
    sorted docId arrays. Entries come from the resident partition's posting
    cache (the analogue of the reference's per-partition bitmap caches held
    by reader nodes, LAB leap cache); the misses are one read through its
    term dictionary, each decoded whole (docs and tfs) and cached."""

    def __init__(self, index_dir: str, part: int, specs: list[tuple[str, str]],
                 max_wild: int):
        from .filters import fuzzy_value, range_term_bounds, regexp_value

        def _expand(field: str, v: str) -> list[str]:
            hit = expand_spec(index_dir, part, field, v)
            # the cache holds the UNTRIMMED expansion; the maxWildcardExpansion
            # cap is per query (reference: FullTextQuery maxWildcardExpansion)
            return hit[:max_wild] if max_wild > 0 else hit

        self.expansions: dict[tuple[str, str], list[str]] = {}
        keys = set()
        for field, v in specs:
            if (range_term_bounds(v) is not None or v.endswith("*")
                    or fuzzy_value(v) is not None or regexp_value(v) is not None):
                terms = _expand(field, v)
                self.expansions[(field, v)] = terms
                keys.update(field + FIELD_SEP + t for t in terms)
            else:
                keys.add(field + FIELD_SEP + v)
        self.index_dir = index_dir
        self.post: dict[tuple[str, str], tuple[np.ndarray, np.ndarray]] = {}
        self.ttf: dict[tuple[str, str], int] = {}
        self.df: dict[tuple[str, str], int] = {}
        self.blocks: dict[tuple[str, str], dict[str, np.ndarray]] = {}
        self._pt = partition(index_dir, part)
        hits, misses = self._pt.cached("postings", sorted(keys))
        for k, hit in hits.items():
            if hit is not None:
                self._put(k, hit)
        if misses:
            t = read_postings_for_terms(index_dir, part, misses)
            terms = t["term"].to_pylist()
            doc_bytes = t["doc_bytes"].to_pylist()
            tf_bytes = t["tf_bytes"].to_pylist()
            ttfs = t["ttf"].to_pylist()
            dfs = t["df"].to_pylist()
            firsts, counts = (_list_rows(t[c]) for c in ("blk_first", "blk_count"))
            entries: dict[str, tuple | None] = dict.fromkeys(misses)  # None: absent
            for i, key_str in enumerate(terms):
                docs, tfs = decode_posting(doc_bytes[i], tf_bytes[i], firsts[i], counts[i])
                blocks = {"first": firsts[i], "count": counts[i]}
                entries[key_str] = (docs, tfs, ttfs[i], dfs[i], blocks)
                self._put(key_str, entries[key_str])
            self._pt.cache("postings", entries)

    def _put(self, key_str: str, entry: tuple) -> None:
        field_term = tuple(key_str.split(FIELD_SEP, 1))
        docs, tfs, self.ttf[field_term], self.df[field_term], self.blocks[field_term] = entry
        self.post[field_term] = (docs, tfs)

    def expand(self, field: str, value: str) -> list[str]:
        from .filters import fuzzy_value, regexp_value

        if (field, value) in self.expansions:
            return self.expansions[(field, value)]
        if (value.endswith("*") or fuzzy_value(value) is not None
                or regexp_value(value) is not None):
            return []
        return [value]

    def docs(self, field: str, term: str) -> np.ndarray:
        p = self.post.get((field, term))
        return p[0] if p is not None else _EMPTY

    def tfs(self, field: str, term: str) -> np.ndarray:
        p = self.post.get((field, term))
        return p[1] if p is not None else _EMPTY

    def tf_at(self, field: str, term: str, pos: np.ndarray) -> np.ndarray:
        """tf values at positions ``pos`` (indices into the docs array)."""
        p = self.post.get((field, term))
        return p[1][pos] if p is not None else _EMPTY


# position packing for the adjacency intersect: doc<<21 | shifted-pos —
# tokens past within-doc position 2^21-len(phrase) are not phrase-matchable
# (a 2M-token doc; transcripts turns are ~100 tokens)
_PHRASE_POS_BITS = np.int64(21)


def _occ_keys(src: "PostingSource", tok: str, cand: np.ndarray) -> np.ndarray | None:
    """Packed (doc << POS_BITS | pos) occurrence keys of ``tok`` restricted
    to the candidate docs, strictly increasing (occurrence streams are
    (doc asc, pos asc)); None when the restriction is empty."""
    occ = src.docs(POS_FIELD, tok)
    if len(occ) == 0:
        return None
    idx = np.searchsorted(cand, occ)
    ok = (idx < len(cand)) & (cand[np.minimum(idx, len(cand) - 1)] == occ)
    sel = np.flatnonzero(ok)
    if len(sel) == 0:
        return None
    pos = src.tf_at(POS_FIELD, tok, sel).astype(np.int64)
    fit = pos < (np.int64(1) << _PHRASE_POS_BITS)
    return (occ[sel[fit]] << _PHRASE_POS_BITS) | pos[fit]


def _eval_phrase(
    filt: Filter,
    src: PostingSource,
    collector: dict[tuple[str, str], int] | None,
    term_in: bool = True,
) -> np.ndarray:
    """Exact phrase match: AND of the component-term postings for candidate
    docs, then a vectorized adjacency intersect over the positional
    occurrence streams (POS_FIELD) — occurrence i of token k matches when
    (doc, pos-k) collides across every k. Each token contributes to the
    signed collector exactly like an AND leaf, so scoring over the phrase
    answer equals the AND query's scores restricted to adjacent docs (the
    SQL-mirrorable contract)."""
    ff = filt.field_filters[0]
    toks = ff.values
    # positional streams exist for the text field only, and only when the
    # index was built with positions=True — raise rather than silently
    # matching nothing (covers plugin queries and constraint trees too,
    # which never pass through search_partition's early guard)
    from .filters import DEFAULT_FIELD

    if ff.field != DEFAULT_FIELD:
        raise ValueError(
            f"phrase queries are supported on the {DEFAULT_FIELD!r} field only "
            f"(got {ff.field!r}: meta fields have no positional streams)"
        )
    if not _index_has_positions(src.index_dir):
        raise ValueError(
            'phrase queries ("...") need an index built with positions=True '
            "(the positional occurrence streams are opt-in)"
        )
    inc = 1 if term_in else -1
    if collector is not None:
        for t in toks:
            key = (ff.field, t)
            collector[key] = collector.get(key, 0) + inc
    cand: np.ndarray | None = None
    for t in dict.fromkeys(toks):  # unique, order-preserving
        d = src.docs(ff.field, t)
        if len(d) == 0:
            return _EMPTY
        cand = d if cand is None else np.intersect1d(cand, d, assume_unique=True)
        if len(cand) == 0:
            return _EMPTY
    win = np.int64(filt.slop + 1)
    if not filt.ordered:
        # unordered two-term near (SpanNearQuery inOrder=false analogue,
        # `"a b"~~N`): a doc matches when some occurrence pair satisfies
        # 1 ≤ |pos_a − pos_b| ≤ slop+1. One two-sided searchsorted window
        # probe of b's packed keys into a's — symmetric by construction,
        # same-doc enforced by clamping the window at the doc's key range.
        ka = _occ_keys(src, toks[0], cand)
        kb = _occ_keys(src, toks[1], cand)
        if ka is None or kb is None:
            return _EMPTY
        base = (kb >> _PHRASE_POS_BITS) << _PHRASE_POS_BITS
        ceil = base | ((np.int64(1) << _PHRASE_POS_BITS) - np.int64(1))
        lo = np.maximum(kb - win, base)
        hi = np.minimum(kb + win, ceil)
        n_in = np.searchsorted(ka, hi, side="right") - np.searchsorted(ka, lo, side="left")
        if toks[0] == toks[1]:
            # a same-term pair needs a DISTINCT second occurrence
            p = np.searchsorted(ka, kb)
            self_hit = (p < len(ka)) & (ka[np.minimum(p, len(ka) - 1)] == kb)
            n_in = n_in - self_hit.astype(np.int64)
        return np.unique(kb[n_in > 0] >> _PHRASE_POS_BITS).astype(np.int64)

    # windowed chain over packed (doc<<21 | pos) keys: after term i, `state`
    # holds the occurrences of toks[i] that END a valid ordered chain of
    # toks[:i+1] with every adjacent gap ≤ slop+1 (slop=0 ≡ exact phrase).
    # Each step is two searchsorted passes — no per-doc python.
    state: np.ndarray | None = None
    for t in toks:
        k = _occ_keys(src, t, cand)
        if k is None:
            return _EMPTY
        if state is None:
            state = k
        else:
            # a predecessor exists in [pos-win, pos-1] of the SAME doc:
            # clamp the window's low edge at the doc's pos-0 key
            lo = np.maximum(k - win, (k >> _PHRASE_POS_BITS) << _PHRASE_POS_BITS)
            left = np.searchsorted(state, lo, side="left")
            right = np.searchsorted(state, k, side="left")
            state = k[right > left]
        if len(state) == 0:
            return _EMPTY
    return np.unique(state >> _PHRASE_POS_BITS)


def eval_filter_np(
    filt: Filter,
    src: PostingSource,
    n_docs: int,
    collector: dict[tuple[str, str], int] | None,
    term_in: bool = True,
) -> np.ndarray:
    """filterInOut over sorted int64 docId arrays
    (MiruAggregateUtil.java:1123-1202). The extra ``phrase`` op (no
    reference analogue — LuceneBackedQueryParser.java:106-109 throws on
    PhraseQuery) verifies token adjacency against the positional index."""
    if filt.op == "phrase":
        return _eval_phrase(filt, src, collector, term_in)
    operands: list[np.ndarray] = []
    if filt.inclusive:
        operands.append(np.arange(n_docs, dtype=np.int64))
    for ff in filt.field_filters:
        field_term_in = (not term_in) if (filt.op == "pButNotQ" and operands) else term_in
        terms = []
        for v in ff.values:
            terms.extend(src.expand(ff.field, v))
        if collector is not None:
            inc = 1 if field_term_in else -1
            for t in terms:
                key = (ff.field, t)
                collector[key] = collector.get(key, 0) + inc
        if filt.op == "and" and not terms:
            return _EMPTY
        if terms:
            arrs = [src.docs(ff.field, t) for t in terms]
            arrs = [a for a in arrs if len(a)]
            if len(arrs) == 0:
                operands.append(_EMPTY)
            elif len(arrs) == 1:
                operands.append(arrs[0])
            else:
                operands.append(np.unique(np.concatenate(arrs)))
    for sub in filt.sub_filters:
        sub_term_in = (not term_in) if (filt.op == "pButNotQ" and operands) else term_in
        operands.append(eval_filter_np(sub, src, n_docs, collector, sub_term_in))
    if not operands:
        return _EMPTY
    if filt.op == "and":
        r = operands[0]
        for o in operands[1:]:
            if len(r) == 0:
                return _EMPTY
            r = np.intersect1d(r, o, assume_unique=True)
        return r
    if filt.op == "or":
        nonempty = [o for o in operands if len(o)]
        if not nonempty:
            return _EMPTY
        if len(nonempty) == 1:
            return nonempty[0]
        return np.unique(np.concatenate(nonempty))
    if filt.op == "pButNotQ":
        r = operands[0]
        for o in operands[1:]:
            if len(r) == 0:
                return _EMPTY
            if len(o):
                r = np.setdiff1d(r, o, assume_unique=True)
        return r
    raise ValueError(filt.op)


# ------------------------------------------------------------ partition ask


def authz_mask(index_dir: str, part: int, authz: tuple[str, tuple[str, ...]],
               n_docs: int) -> np.ndarray:
    """Allowed docIds for an authz expression ``(field, allowed_values)``:
    the union of the values' postings (a doc is visible iff it carries at
    least one allowed label — the reference's composite authz bitmap,
    MiruAuthzIndex.java). The mask is kept in the resident partition and
    reused until the partition changes (MiruAuthzCache.java); the masks of
    all partitions share one process-wide LRU of 1,024."""
    field, values = authz
    pt = partition(index_dir, part)
    key = (field, tuple(sorted(values)))
    hit = pt.cached("authz", [key])[0].get(key)
    if hit is None:
        src = PostingSource(index_dir, part, [(field, v) for v in values], 0)
        arrs = [src.docs(field, v) for v in values]
        arrs = [a for a in arrs if len(a)]
        hit = np.unique(np.concatenate(arrs)) if arrs else _EMPTY
        pt.cache("authz", {key: hit})
    return hit


def expand_spec(index_dir: str, part: int, field: str, v: str) -> list[str]:
    """UNTRIMMED sorted term expansion of spec ``v`` (prefix ``x*``, range
    ``[lo TO hi]``, fuzzy ``x~N``, regexp ``/re/``). Prefix and range specs
    are a slice of the resident term dictionary (about 30 us for a 100-term
    prefix), so they are not cached. A fuzzy/regexp spec derives from the
    field's whole dictionary (≡ the "*" spec, an edit-distance sweep or a
    regex pass) and is kept in the resident partition's ``expansions``, one
    process-wide LRU of 50,000 expansions across partitions."""
    from .filters import fuzzy_value, range_term_bounds, regexp_value

    rx = regexp_value(v)
    fz = fuzzy_value(v) if rx is None else None
    if rx is None and fz is None:
        bounds = range_term_bounds(v)
        if bounds is not None:
            lo, hi, lo_inc, hi_inc = bounds
            return read_term_between(index_dir, part, field, lo, hi, lo_inc, hi_inc)
        return read_term_range(index_dir, part, field, v[:-1])
    pt = partition(index_dir, part)
    hit = pt.cached("expansions", [(field, v)])[0].get((field, v))
    if hit is None:
        cands = read_term_range(index_dir, part, field, "")
        if fz is not None:
            hit = _fuzzy_filter(cands, fz[0], fz[1])
        elif cands:
            # regexp expansion: one anchored RE2 pass over the field
            # dictionary (pyarrow match_substring_regex — vectorized)
            import pyarrow as pa
            import pyarrow.compute as pc

            m = pc.match_substring_regex(
                pa.array(cands, type=pa.string()), f"^(?:{rx})$"
            ).to_numpy(zero_copy_only=False)
            hit = [t for t, ok in zip(cands, m) if ok]
        else:
            hit = []
        pt.cache("expansions", {(field, v): hit})
    return hit


def _after_mask(part: int, answer: np.ndarray, scores: np.ndarray,
                ts_all: np.ndarray, after: tuple) -> np.ndarray:
    """Strictly-after-the-cursor mask in the realized total answer order
    (score desc, ts desc, part desc, doc_id desc). The cursor's score is
    compared in fp32 — the engine's own score dtype — so a Hit handed back
    verbatim always resumes exactly where the page ended."""
    a_s, a_ts, a_p, a_d = after
    a_s = F32(a_s)
    lt = scores < a_s
    eq = scores == a_s
    ts_lt = ts_all < a_ts
    if part < a_p:
        within = ts_all == a_ts
    elif part == a_p:
        within = (ts_all == a_ts) & (answer < a_d)
    else:
        within = np.zeros(len(answer), dtype=bool)
    return lt | (eq & (ts_lt | within))


def search_partition(
    index_dir: str,
    part: int,
    query: str,
    k: int,
    scoring: str = "ref_tfidf",
    time_range: tuple[int, int] | None = None,
    constraint: Filter | None = None,
    max_wild: int = DEFAULT_MAX_WILDCARD_EXPANSION,
    use_stopwords: bool = False,
    authz: tuple[str, tuple[str, ...]] | None = None,
    min_score: float | None = None,
    below_min: int = 0,
    after: tuple[float, int, int, int] | None = None,
    synonyms: dict[str, list[str]] | None = None,
    collapse: str | None = None,
    group_by: tuple[str, tuple, int] | None = None,
) -> dict:
    """One partition's answer with absent report. Returns plain arrays
    (cheap to ship back from a pool actor). The whole match set is
    evaluated and, under a relevance scorer, scored exactly
    (wand.score_exact) before the local top-k.

    ``collapse`` — field collapsing (Lucene CollapsingTopDocsCollector):
    at most one hit per distinct value of the named forward field
    (``conv_id`` or ``role``), each group represented by its best-ordered
    doc — (score desc, docId desc) under relevance scorers, the newest doc
    under TIME. The partition returns its top-k DISTINCT keys; the engine
    merge dedups keys across partitions (the better-ordered occurrence
    wins, so the survivor is the per-key global best). ``found`` still
    counts the uncollapsed match set, like Lucene's totalHits.

    ``after`` = (score, ts, part, doc_id) — deep-pagination cursor (Lucene
    IndexSearcher.searchAfter): only docs strictly AFTER the cursor in the
    engine's realized total answer order (score desc, ts desc, part desc,
    doc_id desc — the per-partition heap tie-break plus the merge's
    tie-to-current rule) are admitted to the top-k. ``found`` still counts
    the full match set (Lucene reports totalHits the same way)."""
    if collapse is not None:
        if collapse not in ("conv_id", "role"):
            raise ValueError("collapse supports the forward fields 'conv_id'/'role'")
        if scoring == "match":
            raise ValueError("collapse applies to ranked queries, not match")
        if after is not None or min_score is not None:
            raise ValueError("collapse composes with neither searchAfter nor "
                             "the serial report mode")
    if group_by is not None:
        if collapse is not None or scoring == "match" or after is not None \
                or min_score is not None:
            raise ValueError("group_by composes with ranked scorers only "
                             "(no collapse/match/after/serial report)")
    metrics = partition(index_dir, part).manifest["metrics"]
    n_docs = metrics["n_docs"]
    avg_dl = metrics.get("avg_dl") or metrics["total_tokens"] / max(1, n_docs)
    total_tokens = float(metrics.get("total_tokens") or avg_dl * n_docs)
    filt = parse_query(query, use_stopwords=use_stopwords,
                       analyzer=_analyzer_name(index_dir))
    if synonyms:
        from .filters import expand_synonyms

        filt = expand_synonyms(filt, synonyms,
                               analyzer=_analyzer_name(index_dir))
    if _has_phrase(filt) and not _index_has_positions(index_dir):
        raise ValueError(
            'phrase queries ("...") need an index built with positions=True '
            "(the positional occurrence streams are opt-in)"
        )
    specs: list[tuple[str, str]] = []
    _collect_term_specs(filt, specs)
    if constraint is not None:
        _collect_term_specs(constraint, specs)
    src = PostingSource(index_dir, part, specs, max_wild)
    removed = read_tombstones(index_dir, part)
    fwd = forward_columns(index_dir, part)
    collector: dict[tuple[str, str], int] = {}
    answer = match_set(index_dir, part, filt, src, n_docs, fwd, removed,
                       constraint, authz, time_range, collector)
    found = int(len(answer))

    if scoring == "match":
        # filter-only evaluation: ALL matching docs, doc-ascending, score 0
        # (the reference's filter path without a scorer — the answer bitmap
        # itself, FullTextCustomQuestion.java:89-114 before getActivityScores)
        return _gather(fwd, part, answer, np.zeros(len(answer), np.float32), found)

    if scoring == "time":
        sel = answer
        if after is not None and len(sel):
            keep = _after_mask(
                part, sel, np.zeros(len(sel), np.float32), fwd["ts"][sel], after
            )
            sel = sel[keep]
        if group_by is not None:
            gkey, gkeys, gm = group_by
            pos, gvals = _group_pick(
                sel, np.zeros(len(sel), np.float32), fwd, gkey, gkeys, gm
            )
            res = _gather(fwd, part, sel[pos], np.zeros(len(pos), np.float32), found)
            res["group"] = gvals
            return res
        if collapse is not None and len(sel):
            sel = sel[_collapse_pick(sel, np.zeros(len(sel), np.float32), fwd, collapse)]
        top = sel[-k:][::-1] if k > 0 else sel[:0]
        scores = np.zeros(len(top), dtype=np.float32)
        return _gather(fwd, part, top, scores, found)

    scores = score_exact(src, term_multipliers(src, collector, scoring, n_docs),
                         answer, scoring, avg_dl, fwd["dl"], total_tokens)

    if min_score is not None and len(answer):
        # serial-report admission (FullText.java:134-141 batchTfIdf): docs
        # scoring > lastReport.lowestScore always enter the queue; docs at
        # or below it are admitted in docId (iterator) order only while the
        # acceptableBelowMin budget (desired - alreadyScoredCount) lasts
        above = scores > np.float32(min_score)
        admit = above.copy()
        budget = max(0, int(below_min))
        if budget:
            admit[np.flatnonzero(~above)[:budget]] = True
        answer = answer[admit]
        scores = scores[admit]

    if after is not None and len(answer):
        keep = _after_mask(part, answer, scores, fwd["ts"][answer], after)
        answer = answer[keep]
        scores = scores[keep]

    if group_by is not None:
        gkey, gkeys, gm = group_by
        pos, gvals = _group_pick(answer, scores, fwd, gkey, gkeys, gm)
        res = _gather(fwd, part, answer[pos], scores[pos], found)
        res["group"] = gvals
        return res

    if collapse is not None and len(answer):
        keep = _collapse_pick(answer, scores, fwd, collapse)
        answer = answer[keep]
        scores = scores[keep]

    return _top_k(fwd, part, answer, scores, k, found)


def match_set(index_dir: str, part: int, filt: Filter | None, src: PostingSource | None,
              n_docs: int, fwd: dict, removed: np.ndarray,
              constraint: Filter | None = None,
              authz: tuple[str, tuple[str, ...]] | None = None,
              time_range: tuple[int, int] | None = None,
              collector: dict[tuple[str, str], int] | None = None) -> np.ndarray:
    """A partition's sorted match set, masked in the reference's askLocal
    order (FullTextCustomQuestion.java:89-114): the filter (``filt=None``
    matches every doc; its terms fill the signed ``collector``), then the
    removal index, the constraint, the authz mask and the time range."""
    if filt is None:
        answer = np.arange(n_docs, dtype=np.int64)
    else:
        answer = eval_filter_np(filt, src, n_docs, collector)
    if len(removed) and len(answer):
        # index mask: universe minus the removal index (buildIndexMask,
        # MiruBitmapsRoaring.java:492-503)
        answer = np.setdiff1d(answer, removed, assume_unique=True)
    if constraint is not None:
        answer = np.intersect1d(
            answer, eval_filter_np(constraint, src, n_docs, None), assume_unique=True
        )
    if authz is not None and len(answer):
        answer = np.intersect1d(
            answer, authz_mask(index_dir, part, authz, n_docs), assume_unique=True
        )
    if time_range is not None and len(answer):
        # a boolean mask over the forward ts column, not a searchsorted: an
        # extended partition may hold late-arrival epochs whose ts overlap
        lo, hi = time_range
        ts_a = fwd["ts"][answer]
        answer = answer[(ts_a >= lo) & (ts_a <= hi)]
    return answer


def _top_k(fwd: dict, part: int, docs: np.ndarray, scores: np.ndarray, k: int,
           found: int) -> dict:
    """The partition answer: the top k of ``docs`` by (score desc, docId
    desc) — the reference's heap order (RawBitScore) — ordered (score desc,
    ts desc) (ActivityScore.compareTo) and gathered."""
    if k <= 0 or len(docs) == 0:
        return _gather(fwd, part, docs[:0], scores[:0], found)
    if len(docs) > k:
        # selection before the exact sort: the argpartition boundary can
        # split equal scores arbitrarily, so widen to every doc scoring at
        # least the kth value, then sort those exactly
        kth = scores[np.argpartition(scores, len(scores) - k)[len(scores) - k:]].min()
        cand = np.flatnonzero(scores >= kth)
    else:
        cand = np.arange(len(docs))
    sel = cand[np.lexsort((-docs[cand], -scores[cand]))[:k]]
    top_docs, top_scores = docs[sel], scores[sel]
    final = np.lexsort((-fwd["ts"][top_docs], -top_scores))
    return _gather(fwd, part, top_docs[final], top_scores[final], found)


def _group_pick(answer: np.ndarray, scores: np.ndarray, fwd: dict,
                key: str, keys: tuple, m: int) -> tuple[np.ndarray, list]:
    """Positions (into ``answer``) of each selected key's top-m docs by
    (score desc, docId desc — zero scores degenerate to newest-first), plus
    the key value per kept row. One gather + dictionary encode + lexsort +
    run-rank; no per-row Python."""
    import pyarrow as pa
    import pyarrow.compute as pc

    col = fwd[key].take(pa.array(answer))
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    mask = pc.is_in(col, value_set=pa.array(list(keys))).to_numpy(zero_copy_only=False)
    idx = np.flatnonzero(mask)
    if len(idx) == 0:
        return idx, []
    enc = col.take(pa.array(idx)).dictionary_encode()
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.lexsort((-answer[idx], -scores[idx], codes))
    c = codes[order]
    starts = np.flatnonzero(np.concatenate([[True], c[1:] != c[:-1]]))
    rank = np.arange(len(c)) - np.repeat(starts, np.diff(np.append(starts, len(c))))
    sel = order[rank < m]
    pos = idx[sel]
    return pos, col.take(pa.array(pos)).to_pylist()


def _collapse_pick(answer: np.ndarray, scores: np.ndarray, fwd: dict,
                   key: str) -> np.ndarray:
    """Ascending index subset keeping the best doc per collapse-key value:
    (score desc, docId desc) — the in-heap tie-break, which under TIME's
    all-zero scores degenerates to the newest doc. One vectorized gather +
    dictionary encode + lexsort; no per-row Python."""
    import pyarrow as pa

    col = fwd[key].take(pa.array(answer))
    codes = col.dictionary_encode()
    if isinstance(codes, pa.ChunkedArray):
        codes = codes.combine_chunks()
    codes = codes.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.lexsort((-answer, -scores, codes))
    first = np.concatenate([[True], codes[order][1:] != codes[order][:-1]])
    return np.sort(order[first])


def _gather(fwd: dict, part: int, docs: np.ndarray, scores: np.ndarray, found: int) -> dict:
    docs = np.asarray(docs, dtype=np.int64)
    take = docs if len(docs) else np.empty(0, np.int64)
    import pyarrow as pa

    idx = pa.array(take)
    return {
        "part": part,
        "found": found,
        "doc_id": docs.astype(np.int64),
        "score": np.asarray(scores, dtype=np.float32),
        "ts": fwd["ts"][take] if len(take) else np.empty(0, np.int64),
        "conv_id": fwd["conv_id"].take(idx).to_pylist() if len(take) else [],
        "turn_idx": fwd["turn_idx"][take] if len(take) else np.empty(0, np.int32),
        "role": fwd["role"].take(idx).to_pylist() if len(take) else [],
    }


def _export_match_partition(index_dir: str, part: int, query: str,
                            out_dir: str, time_range, authz,
                            use_stopwords: bool) -> dict:
    """One partition of export_match: match → forward gather → one parquet
    file, atomic and idempotent (present file == done)."""
    import os as _os

    import pyarrow as pa
    import pyarrow.parquet as _pq

    path = _os.path.join(out_dir, f"part-{part:05d}.parquet")
    if _os.path.exists(path):
        return {"part": part, "rows": _pq.read_metadata(path).num_rows,
                "skipped": True}
    r = search_partition(
        index_dir, part, query, k=0, scoring="match", time_range=time_range,
        authz=authz, use_stopwords=use_stopwords,
    )
    fwd = forward_columns(index_dir, part)
    docs = np.asarray(r["doc_id"], dtype=np.int64)
    idx = pa.array(docs)
    out = pa.table(
        {
            "part": pa.array(np.full(len(docs), part, dtype=np.int32)),
            "doc_id": pa.array(docs),
            "conv_id": fwd["conv_id"].take(idx),
            "turn_idx": pa.array(np.asarray(fwd["turn_idx"])[docs], pa.int32()),
            "role": fwd["role"].take(idx),
            "tool": fwd["tool"].take(idx),
            "ts": pa.array(np.asarray(fwd["ts"])[docs], pa.int64()),
        }
    )
    tmp = path + ".tmp"
    _pq.write_table(out, tmp)
    _os.replace(tmp, path)
    return {"part": part, "rows": out.num_rows, "skipped": False}


# ----------------------------------------------------------------- the engine


def _merge_two(merged: list[Hit], cur: list[Hit], k: int,
               key: str | None = None) -> list[Hit]:
    """FullTextAnswerMerger.merge two-pointer (ties → current), truncated
    to k. With a collapse ``key``, the better-ordered occurrence of a key
    wins and later ones are skipped without consuming k. Each input list
    carries its partitions' per-key BEST rep (search_partition collapses
    first), so the survivor of a cross-partition dup is the key's global
    best — and a key outside one partition's top-k is dominated there by k
    distinct better keys, so the merged top-k-distinct-keys answer is
    exact."""
    out: list[Hit] = []
    seen: set = set()
    i = j = 0
    while (i < len(merged) or j < len(cur)) and len(out) < k:
        if i >= len(merged):
            h = cur[j]; j += 1
        elif j >= len(cur):
            h = merged[i]; i += 1
        elif _sort_key(merged[i]) < _sort_key(cur[j]):
            h = merged[i]; i += 1
        else:
            h = cur[j]; j += 1
        if key is not None:
            kv = getattr(h, key)
            if kv in seen:
                continue
            seen.add(kv)
        out.append(h)
    return out


def _merge_hits(merged: list[Hit], hits: list[Hit], k: int,
                collapse: str | None = None) -> list[Hit]:
    """Fold the next partition's hits (in walk order) into the running
    answer: the first non-empty answer is taken as it is, the rest go
    through the ordered two-pointer merge (deduping collapse keys)."""
    if not merged:
        return hits[:k]
    return _merge_two(merged, hits, k, collapse)


class PartitionSearcher:
    """Ray actor owning a fixed slice of partitions — the reference's
    reader-node partition context (MiruLocalHostedPartition): its resident
    ``segments.Partition`` objects (manifest, forward columns, term
    dictionary, hot postings) stay in the actor between queries. One call
    answers the asked owned partitions serially (they are few); actors run
    in parallel."""

    def __init__(self, index_dir: str, parts: list[int]):
        self.index_dir = index_dir
        for p in parts:  # warm manifest + forward columns
            try:
                partition(index_dir, p).forward
            except Exception:  # noqa: BLE001 — a broken partition fails over at ask time
                pass

    def run(self, fn, parts: list[int], kwargs: dict) -> list:
        return [fn(self.index_dir, p, **kwargs) for p in parts]


def _hits_of(r: dict) -> list[Hit]:
    return [
        Hit(
            score=float(r["score"][i]),
            ts=int(r["ts"][i]),
            doc_id=int(r["doc_id"][i]),
            part=r["part"],
            conv_id=r["conv_id"][i],
            turn_idx=int(r["turn_idx"][i]),
            role=r["role"][i],
        )
        for i in range(len(r["doc_id"]))
    ]


class SearchEngine:
    """Query API over a built index. The scatter-gather driver, ordered
    merge; the reference analogue is Miru.askAndMerge
    (MiruService.java:101-194). With Ray in use (``parallel=True``, or
    None with Ray initialized) and more than one partition asked, every
    per-partition question runs on a partition-pinned actor pool (the
    reader-node pattern): segment state stays resident across queries.
    The pool starts lazily on the first Ray fan-out, holds
    min(partitions, cluster CPUs) actors that reserve no logical CPU, and
    is released by ``close``. Otherwise partitions are asked serially in
    process.

    Partition pruning: every partition manifest records a ts zone map
    (``ts_min``/``ts_max``). Queries with a ``time_range`` skip partitions
    whose zone misses the range (sound under ANY partitioning — a pruned
    partition contributes no in-range doc). TIME-scored queries
    additionally short-circuit the newest→oldest walk once k hits are in
    hand and every remaining partition's ts_max is strictly older than the
    kth hit — the reference's answer-evaluator early exit
    (FullTextAnswerEvaluator.java:18-35), sound here because the check is
    against the zone maps, not an assumed partition order; with hash
    partitioning the zones overlap and the walk degrades to asking all
    partitions, with range partitioning it stops after the first wave.
    ``last_parts_asked`` exposes how many partitions the last search hit."""

    def __init__(self, index_dir: str, replicas: list[str] | None = None):
        from collections import deque

        from .segments import _fire_lifecycle

        self.index_dir = index_dir
        self.meta = read_global_manifest(index_dir)
        _check_tokenizer_compat(self.meta, index_dir)
        self.parts = sorted(completed_parts(index_dir), reverse=True)  # newest→oldest
        # replica failover (the MiruLowestLatencySolver.java:50-205 analogue):
        # byte-verified replica dirs (sync.sync_index) answer a partition
        # when the primary's ask raises. With replicas configured, the
        # expected part set comes from the manifest too, so a partition whose
        # DIRECTORY vanished from the primary is still asked (and failed
        # over) rather than silently dropped from the answer.
        self.replicas = list(replicas or [])
        if self.replicas:
            # expected parts = the build's + every extend epoch's (range
            # rollover can open partitions parts_built never saw), MINUS
            # every partition the expire history aged out — expire leaves
            # parts_built untouched, so without the subtraction a replica
            # that still holds an expired partition would resurrect its
            # aged-out docs (retention violation), and a replica that
            # doesn't would fail the whole query (ADVICE r4)
            expected = set(self.meta.get("parts_built", []))
            epochs = self.meta.get("epochs", [])
            for e in epochs:
                expected.update(e.get("parts_updated", []))
            for x in self.meta.get("expired", []):
                dead = set(x.get("parts", []))
                # a partition an epoch re-opened AFTER this expiry ran is
                # live again — only subtract parts not touched since
                # (after_epoch = the epoch count at expiry time; a legacy
                # record without it counts as cut 0, so any epoch may have
                # re-opened its parts)
                for e in epochs[x.get("after_epoch", 0):]:
                    dead.difference_update(e.get("parts_updated", []))
                expected.difference_update(dead)
            self.parts = sorted(set(self.parts) | expected, reverse=True)
        # replica RACING (MiruLowestLatencySolver.java:50-205): when the
        # pool stalls past the suggested timeout — a high percentile of
        # recently observed ask latencies — the stragglers' partitions are
        # answered from the replicas. Failover (re-ask on failure) and
        # racing are always on; no suggestion exists until enough samples
        # accumulate, so cold engines never race.
        self._lat: "deque[float]" = deque(maxlen=256)
        self._actors: list | None = None
        self._actor_of: dict[int, int] = {}
        self.last_parts_asked = 0
        _fire_lifecycle("open", index_dir)  # IndexOpenCallback analogue

    def _manifest(self, part: int) -> dict | None:
        """The partition manifest from the primary or, when the primary's
        is unreadable (a vanished partition dir), from the first replica
        that has it; None when none does."""
        m = partition(self.index_dir, part).manifest
        for rep in self.replicas:
            if m is not None:
                break
            m = partition(rep, part).manifest
        return m

    def _ts_bounds(self, part: int) -> tuple[int, int] | None:
        """(ts_min, ts_max) from the partition manifest zone map, or None
        for indexes built before the zone map existed (no pruning then) —
        or whose manifest no copy can read: the partition then stays
        active and fails at ask time instead of crashing the prune walk."""
        met = (self._manifest(part) or {}).get("metrics", {})
        if met.get("ts_min") is None or met.get("ts_max") is None:
            return None
        return int(met["ts_min"]), int(met["ts_max"])

    def _active_parts(self, time_range: tuple[int, int] | None) -> list[int]:
        if time_range is None:
            return self.parts
        lo, hi = time_range
        out = []
        for p in self.parts:
            b = self._ts_bounds(p)
            if b is None or (b[0] <= hi and b[1] >= lo):
                out.append(p)
        return out

    def close(self) -> None:
        """Release query actors and fire the close lifecycle callbacks
        (IndexCloseCallback analogue)."""
        from .segments import _fire_lifecycle

        if self._actors:
            import ray

            for a in self._actors:
                ray.kill(a)
            self._actors = None
        _fire_lifecycle("close", self.index_dir)

    def _ensure_actors(self):
        if self._actors is not None:
            return
        import ray

        # num_cpus=0: the resident actors of open engines must never hold
        # the CPUs a Ray Data build or extend waits for. max_restarts lets
        # Ray restart a crashed actor and retry the call it was running.
        cpus = int(ray.cluster_resources().get("CPU", 1))
        n = min(len(self.parts), max(1, cpus))
        cls = ray.remote(num_cpus=0, max_restarts=1, max_task_retries=1)(PartitionSearcher)
        slices = [self.parts[i::n] for i in range(n)]
        self._actors = [cls.remote(self.index_dir, ps) for ps in slices]
        self._actor_of = {p: i for i, ps in enumerate(slices) for p in ps}

    def search(
        self,
        query: str,
        k: int = 10,
        scoring: str = "ref_tfidf",
        time_range: tuple[int, int] | None = None,
        constraint: Filter | None = None,
        max_wild: int = DEFAULT_MAX_WILDCARD_EXPANSION,
        parallel: bool | None = None,
        authz: tuple[str, list[str]] | None = None,
        early_exit: bool = True,
        after: "Hit | tuple[float, int, int, int] | None" = None,
        synonyms: dict[str, list[str]] | None = None,
        collapse: str | None = None,
    ) -> tuple[list[Hit], int]:
        """``collapse`` — field collapsing (one best hit per distinct
        ``conv_id`` or ``role`` value; see search_partition). Exact across
        partitions: partitions return per-key bests, the merge dedups keys
        keeping the better-ordered occurrence. ``found`` stays uncollapsed.

        ``early_exit`` (TIME scoring only): stop the newest→oldest walk
        once the zone maps prove no remaining partition can contribute —
        the reference's evaluator short-circuit. Like the reference's,
        the returned ``found`` then counts only the partitions actually
        asked; pass early_exit=False for an exhaustive ``found``.

        ``after`` — deep-pagination cursor (Lucene searchAfter): the last
        Hit of the previous page (or its (score, ts, part, doc_id) tuple);
        the returned page holds the k answers strictly after it in the
        answer order. ``found`` still reports the full match count."""
        use_stop = bool(self.meta.get("tokenizer", {}).get("stopwords"))
        if authz is not None:
            authz = (authz[0], tuple(authz[1]))
        if isinstance(after, Hit):
            after = (after.score, after.ts, after.part, after.doc_id)
        kwargs = dict(
            query=query, k=k, scoring=scoring, time_range=time_range,
            constraint=constraint, max_wild=max_wild, use_stopwords=use_stop,
            authz=authz, after=after, synonyms=synonyms, collapse=collapse,
        )
        active = self._active_parts(time_range)
        if scoring == "time" and k > 0 and len(active) > 1 and early_exit:
            return self._time_walk(kwargs, parallel, active, k)
        self.last_parts_asked = len(active)
        merged: list[Hit] = []
        found = 0
        for r in self._fan_out(search_partition, kwargs, parallel, parts=active):
            merged = _merge_hits(merged, _hits_of(r), k, collapse)  # walk order
            found += r["found"]
        return merged, found

    def _time_walk(
        self, kwargs: dict, parallel: bool | None, active: list[int], k: int
    ) -> tuple[list[Hit], int]:
        """Newest→oldest TIME walk in parallel waves with zone-map early
        exit (FullTextAnswerEvaluator.java:18-35 isDone). Stop condition is
        strict (kth ts > every remaining ts_max): an equal-ts doc in an
        older partition could still displace a hit under the merge's
        tie-to-current rule, so ties keep walking. ``found`` counts only
        the partitions actually asked — the reference's short-circuited
        evaluator reports the same way."""
        # suffix max of ts_max over the walk order; unknown bounds = +inf
        # (those partitions can never be skipped past)
        INF = (1 << 63) - 1
        bmax = [
            (self._ts_bounds(p) or (0, INF))[1] for p in active
        ]
        rest_max = [0] * len(active)
        run = -INF
        for i in range(len(active) - 1, -1, -1):
            rest_max[i] = run
            run = max(run, bmax[i])
        wave = self._wave_width(parallel)
        # collapse keeps the exit sound: remaining partitions' hits have
        # strictly older ts, so they can neither enter the top-k nor win a
        # key dedup against a kept (newer) rep
        collapse = kwargs.get("collapse")
        merged: list[Hit] = []
        found = 0
        asked = 0
        for w0 in range(0, len(active), wave):
            chunk = active[w0 : w0 + wave]
            for r in self._fan_out(search_partition, kwargs, parallel, parts=chunk):
                merged = _merge_hits(merged, _hits_of(r), k, collapse)
                found += r["found"]
            asked += len(chunk)
            last = w0 + len(chunk) - 1
            if len(merged) >= k and merged[k - 1].ts > rest_max[last]:
                break
        self.last_parts_asked = asked
        return merged, found

    def _wave_width(self, parallel: bool | None) -> int:
        """Parallelism of one early-exit wave: every pool actor busy, but
        no more — a full fan-out would defeat the exit. 1 without Ray."""
        if not _ray_in_use(parallel):
            return 1
        self._ensure_actors()
        return len(self._actors)

    def search_serial(
        self,
        query: str,
        k: int = 10,
        scoring: str = "ref_tfidf",
        time_range: tuple[int, int] | None = None,
        constraint: Filter | None = None,
        max_wild: int = DEFAULT_MAX_WILDCARD_EXPANSION,
        authz: tuple[str, list[str]] | None = None,
    ) -> tuple[list[Hit], int]:
        """The reference's SERIAL solver mode with report carry-forward
        (MiruSolver non-parallel path; FullTextCustomQuestion.createReport
        :128-143 → FullText.collectTfIdf :114-135): partitions are asked
        one at a time newest→oldest; each ask after the first carries the
        running answer's report (scoredActivities, lowestScore), and the
        partition admits candidates scoring at or below lowestScore only
        while the acceptableBelowMin budget (desired − alreadyScored)
        lasts. Cheaper per partition than the parallel fan-out (older
        partitions prune their scored sets against the carried threshold)
        at the cost of latency; the answer can legitimately differ from
        the parallel mode below the kth score — the reference makes the
        same trade (fulltext registers the parallel question by default,
        MiruService.java:410-414)."""
        if scoring not in ("ref_tfidf", "bm25"):
            raise ValueError("serial report mode applies to relevance scorers")
        use_stop = bool(self.meta.get("tokenizer", {}).get("stopwords"))
        if authz is not None:
            authz = (authz[0], tuple(authz[1]))
        base = dict(
            query=query, k=k, scoring=scoring, time_range=time_range,
            constraint=constraint, max_wild=max_wild, use_stopwords=use_stop,
            authz=authz,
        )
        active = self._active_parts(time_range)
        self.last_parts_asked = len(active)
        merged: list[Hit] = []
        found = 0
        report: tuple[int, float] | None = None  # (scoredActivities, lowestScore)
        for p in active:
            kw = dict(base)
            if report is not None:
                kw["min_score"] = report[1]
                kw["below_min"] = max(0, k - report[0])
            r = self._ask_serial(search_partition, p, kw)
            merged = _merge_hits(merged, _hits_of(r), k)
            found += r["found"]
            report = (
                len(merged),
                min((h.score for h in merged), default=float("inf")),
            )
        return merged, found

    def count(
        self,
        query: str,
        time_range: tuple[int, int] | None = None,
        constraint: Filter | None = None,
        authz: tuple[str, list[str]] | None = None,
        parallel: bool | None = None,
    ) -> int:
        """Match count without gathering any rows (Lucene
        IndexSearcher.count): the k=0 TIME path evaluates the filter +
        masks per partition and returns only ``found`` — no scoring and no
        forward gather."""
        return self.search(
            query, k=0, scoring="time", time_range=time_range,
            constraint=constraint, authz=authz, parallel=parallel,
            early_exit=False,
        )[1]

    def group_topk(
        self,
        query: str,
        n_groups: int = 5,
        per_group: int = 3,
        key: str = "role",
        scoring: str = "ref_tfidf",
        time_range: tuple[int, int] | None = None,
        constraint: Filter | None = None,
        max_wild: int = DEFAULT_MAX_WILDCARD_EXPANSION,
        parallel: bool | None = None,
        authz: tuple[str, list[str]] | None = None,
    ) -> tuple[list[tuple[str, list[Hit]]], int]:
        """Two-pass grouped top-k (Lucene grouping / Solr group=true / ES
        top_hits): the top ``n_groups`` key values each with their top
        ``per_group`` hits. Pass 1 selects the group keys via the collapse
        machinery (exact across partitions); pass 2 broadcasts the selected
        keys in the query plan and every partition returns its per-key top
        ``per_group`` docs, merged per key by the ordered two-pointer rule
        — the classic distributed top-k argument applied within each key,
        so the per-group lists are exact too. A single-pass grouped fan-out
        cannot be exact: a key outside one partition's local group ranking
        may still own globally ranked docs there, which is why Solr/ES
        distributed grouping use the same two round trips. Returns
        ([(key_value, [Hit...]) in group rank order], uncollapsed found)."""
        if authz is not None:
            authz = (authz[0], tuple(authz[1]))
        reps, found = self.search(
            query, k=n_groups, scoring=scoring, time_range=time_range,
            constraint=constraint, max_wild=max_wild, parallel=parallel,
            authz=authz, collapse=key, early_exit=False,
        )
        key_order = [getattr(h, key) for h in reps]
        if not key_order:
            return [], found
        use_stop = bool(self.meta.get("tokenizer", {}).get("stopwords"))
        kwargs = dict(
            query=query, k=per_group, scoring=scoring, time_range=time_range,
            constraint=constraint, max_wild=max_wild, use_stopwords=use_stop,
            authz=authz, group_by=(key, tuple(key_order), per_group),
        )
        active = self._active_parts(time_range)
        per_key: dict[str, list[Hit]] = {kv: [] for kv in key_order}
        for r in self._fan_out(search_partition, kwargs, parallel, parts=active):
            hits = _hits_of(r)
            by: dict[str, list[Hit]] = {}
            for g, h in zip(r["group"], hits):
                by.setdefault(g, []).append(h)
            for kv, lst in by.items():
                if kv in per_key:
                    per_key[kv] = _merge_hits(per_key[kv], lst, per_group)
        return [(kv, per_key[kv]) for kv in key_order], found

    def match(
        self,
        query: str,
        time_range: tuple[int, int] | None = None,
        constraint: Filter | None = None,
        max_wild: int = DEFAULT_MAX_WILDCARD_EXPANSION,
        parallel: bool | None = None,
        authz: tuple[str, list[str]] | None = None,
        synonyms: dict[str, list[str]] | None = None,
    ) -> list[dict]:
        """Filter-only evaluation: every matching doc from every partition
        (no top-k, no scores). Returns the raw per-partition result dicts."""
        use_stop = bool(self.meta.get("tokenizer", {}).get("stopwords"))
        if authz is not None:
            authz = (authz[0], tuple(authz[1]))
        kwargs = dict(
            query=query, k=0, scoring="match", time_range=time_range,
            constraint=constraint, max_wild=max_wild, use_stopwords=use_stop,
            authz=authz, synonyms=synonyms,
        )
        active = self._active_parts(time_range)
        self.last_parts_asked = len(active)
        return self._fan_out(search_partition, kwargs, parallel, parts=active)

    def export_match(
        self,
        query: str,
        out_dir: str,
        time_range: tuple[int, int] | None = None,
        authz: tuple[str, list[str]] | None = None,
        parallel: bool | None = None,
    ) -> dict:
        """Materialize a filter query's FULL answer as partitioned parquet
        — the corpus-extraction sink ("every turn matching Q" → a dataset
        a training pipeline joins back to the raw text by (conv_id,
        turn_idx); raw text itself never left the input files, by the
        build's own design). One file per index partition, written
        atomically (tmp+rename) and SKIPPED when already present — a
        failed export resumes where it stopped, never rewrites finished
        partitions. Columns: part, doc_id, conv_id, turn_idx, role, tool,
        ts.

        Resume is gated on a ``_EXPORT.json`` marker recording the exact
        (query, time_range, authz) the dir holds — re-exporting a DIFFERENT
        question into the same dir raises instead of silently serving the
        old answer under the new name."""
        import json as _json
        import os as _os

        _os.makedirs(out_dir, exist_ok=True)
        use_stop = bool(self.meta.get("tokenizer", {}).get("stopwords"))
        if authz is not None:
            authz = (authz[0], tuple(authz[1]))
        spec = {"query": query,
                "time_range": list(time_range) if time_range else None,
                "authz": [authz[0], list(authz[1])] if authz else None}
        marker = _os.path.join(out_dir, "_EXPORT.json")
        if _os.path.exists(marker):
            with open(marker) as f:
                prev = _json.load(f)
            if prev != spec:
                raise ValueError(
                    f"{out_dir} holds the export of {prev!r}; refusing to "
                    f"resume it as {spec!r} — use a fresh out_dir"
                )
        else:
            tmp = marker + ".tmp"
            with open(tmp, "w") as f:
                _json.dump(spec, f)
            _os.replace(tmp, marker)
        kwargs = dict(query=query, out_dir=out_dir, time_range=time_range,
                      authz=authz, use_stopwords=use_stop)
        results = self._fan_out(_export_match_partition, kwargs, parallel,
                                parts=self._active_parts(time_range))
        return {
            "out_dir": out_dir,
            "files": len(results),
            "rows": sum(r["rows"] for r in results),
            "skipped": sorted(r["part"] for r in results if r["skipped"]),
        }

    def stats(self) -> dict:
        """Index inspection (the reference's ops/inspection endpoints —
        reader inspect UIs, MiruManage): global build config + totals +
        per-partition metrics, all from manifests (no posting reads) — a
        partition the primary lost reads its replica's."""
        per_part = {
            p: dict((self._manifest(p) or {}).get("metrics", {})) for p in self.parts
        }
        return {
            "n_parts": len(self.parts),
            "partitioning": self.meta.get("partitioning"),
            "codec": self.meta.get("codec", "varbyte"),
            "positions": bool(self.meta.get("positions")),
            "analyzer": (self.meta.get("tokenizer") or {}).get("analyzer", "default"),
            "n_epochs": len(self.meta.get("epochs", [])),
            "totals": dict(self.meta.get("totals", {})),
            "per_part": per_part,
        }

    def explain(self, query: str, part: int | None = None,
                max_wild: int = DEFAULT_MAX_WILDCARD_EXPANSION) -> dict:
        """Query debugging (Lucene IndexSearcher.explain spirit): each
        spec's expansion on one partition (newest by default) and per-term
        posting stats (df, Σtf, block count)."""
        p = self.parts[0] if part is None else part
        use_stop = bool(self.meta.get("tokenizer", {}).get("stopwords"))
        filt = parse_query(query, use_stopwords=use_stop,
                           analyzer=_analyzer_name(self.index_dir))
        specs: list[tuple[str, str]] = []
        _collect_term_specs(filt, specs)
        src = PostingSource(self.index_dir, p, specs, max_wild)
        terms: dict[str, dict] = {}
        for field, v in specs:
            for t in src.expand(field, v):
                blocks = src.blocks.get((field, t))
                terms[f"{field}:{t}"] = {
                    "df": src.df.get((field, t), 0),
                    "ttf": src.ttf.get((field, t), 0),
                    "n_blocks": len(blocks["first"]) if blocks else 0,
                }
        return {
            "part": p,
            "query": query,
            "has_phrase": _has_phrase(filt),
            "expansions": {
                f"{f}:{v}": list(ts) for (f, v), ts in src.expansions.items()
            },
            "terms": terms,
        }

    def suggest(
        self, term: str, k: int = 5, max_dist: int = 2, field: str = "text"
    ) -> list[tuple[str, int, int]]:
        """Did-you-mean spell correction (Lucene DirectSpellChecker
        analogue): dictionary terms within Levenshtein distance
        ``max_dist`` of the analyzed ``term``, ranked by (global df desc,
        distance asc, term asc) — Lucene's docFreq-then-score order.
        Expansion reuses the per-partition fuzzy machinery (the resident
        partition's expansion cache + vectorized DP); df sums across partitions, so
        the rank reflects the whole corpus. The exact term itself (distance
        0) is included when indexed — callers drop it for pure correction.
        Interactive API: partitions are read serially; the df read takes
        only the term + df columns from the resident dictionary's row
        groups (posting BYTES are never touched: a 2M-doc candidate
        posting costs the same as a 2-doc one)."""
        from .analyzers import get_analyzer
        from .filters import levenshtein

        # analyze with the INDEX's analyzer (Lucene DirectSpellChecker
        # analyzes the input): on a stemmed index the dictionary holds
        # stems, so the probe must be the stem too
        toks = get_analyzer(_analyzer_name(self.index_dir)).scalar(term)
        if not toks:
            return []
        body = toks[-1]
        if not 1 <= max_dist <= 2:
            raise ValueError("max_dist must be 1 or 2 (LevenshteinAutomata cap)")
        df = self._global_dfs(field, f"{body}~{max_dist}")
        ranked = sorted(
            ((t, n, levenshtein(t, body)) for t, n in df.items()),
            key=lambda x: (-x[1], x[2], x[0]),
        )
        return ranked[:k]

    def suggest_prefix(
        self, prefix: str, k: int = 10, field: str = "text"
    ) -> list[tuple[str, int]]:
        """Autocomplete (Lucene TermsComponent / prefix TermsEnum
        analogue): dictionary terms starting with ``prefix``, ranked by
        (global df desc, term asc). Same interactive-path discipline as
        ``suggest``: a slice of each partition's resident dictionary
        feeds a term + df column read — posting bytes are never read."""
        from .tokenize import py_tokenize

        toks = py_tokenize(prefix)
        if not toks:
            return []
        df = self._global_dfs(field, toks[-1] + "*")
        return sorted(df.items(), key=lambda x: (-x[1], x[0]))[:k]

    def _global_dfs(self, field: str, spec: str) -> dict[str, int]:
        """Corpus-level df per dictionary term matching ``spec``: the
        expansion + the term+df-only dictionary read, df summed across
        partitions (shared by suggest / suggest_prefix)."""
        from .segments import read_term_dfs

        def one(d: str, part: int) -> dict:
            terms = expand_spec(d, part, field, spec)
            return read_term_dfs(d, part, [field + FIELD_SEP + t for t in terms])

        df: dict[str, int] = {}
        sep_len = len(field) + 1
        for part in self.parts:
            try:
                dfs = one(self.index_dir, part)
            except Exception as e:  # noqa: BLE001 — replica failover (suggest path)
                dfs = self._replica_answer(one, part, {}, e)
            for key, n in dfs.items():
                t = key[sep_len:]
                df[t] = df.get(t, 0) + n
        return df

    def _replica_answer(self, fn, p: int, kwargs: dict, cause: Exception | None):
        """Re-ask partition ``p`` on each replica dir in order; raises the
        last replica's error (or ``cause`` without replicas)."""
        last = cause
        for rep in self.replicas:
            try:
                return fn(rep, p, **kwargs)
            except Exception as e:  # noqa: BLE001 — try the next replica
                last = e
        raise last

    def _ask_serial(self, fn, p: int, kwargs: dict):
        """Ask the primary in process, failing over to the replicas. Only
        the primary attempt's latency is sampled for the racing trigger."""
        import time as _time

        t0 = _time.monotonic()
        try:
            return fn(self.index_dir, p, **kwargs)
        except Exception as e:  # noqa: BLE001
            if not self.replicas:
                raise
            cause = e
        finally:
            self._lat.append(_time.monotonic() - t0)
        return self._replica_answer(fn, p, kwargs, cause)

    def _suggested_timeout(self) -> float | None:
        """The racing trigger (MiruLowestLatencySolver.java:84-193): 3×
        the p95 of recently observed per-partition ask latencies, floored
        at 50 ms; None (no racing) until 16 samples exist — a cold engine
        has no basis for declaring the primary slow. Samples are serial
        primary asks and each pool gather's FIRST completion (the closest
        observable to one ask's true latency — later completions include
        queue wait behind busy actors and would inflate the trigger until
        it never fired)."""
        if len(self._lat) < 16:
            return None
        arr = sorted(self._lat)
        return max(3.0 * arr[min(len(arr) - 1, int(0.95 * len(arr)))], 0.05)

    def _fan_out(self, fn, kwargs: dict, parallel: bool | None = None,
                 parts: list[int] | None = None) -> list:
        """``[fn(index_dir, p, **kwargs) for p in parts]`` in ``parts``
        order — the one per-partition scatter behind search, count, match,
        group_topk, export_match and every plugin. With Ray in use and
        more than one partition asked the pool answers; otherwise the
        partitions are asked serially in process. Both paths fail a
        partition over to the replicas."""
        parts = self.parts if parts is None else parts
        if len(parts) > 1 and _ray_in_use(parallel):
            return self._ask_pool(fn, parts, kwargs)
        return [self._ask_serial(fn, p, kwargs) for p in parts]

    def _ask_pool(self, fn, parts: list[int], kwargs: dict) -> list:
        """One call per owning actor's slice of ``parts``, gathered by one
        ``ray.wait`` loop. A slice whose call raises fails its partitions
        over to the replicas. Racing is a STALL detector: when no slice
        completes for a suggested-timeout interval, the driver answers
        every pending slice's partitions from the replicas in process; a
        partition whose replicas all fail waits on its primary. Each
        completion resets the clock, so slices merely queued behind a busy
        actor are not raced."""
        import time as _time

        import ray

        self._ensure_actors()
        by_actor: dict[int, list[int]] = {}
        for p in parts:
            by_actor.setdefault(self._actor_of[p], []).append(p)
        slices = {
            self._actors[i].run.remote(fn, ps, kwargs): ps for i, ps in by_actor.items()
        }
        timeout = self._suggested_timeout() if self.replicas else None
        out: dict[int, object] = {}
        pending = list(slices)
        t0 = _time.monotonic()
        first = True
        while pending:
            done, pending = ray.wait(pending, num_returns=1, timeout=timeout)
            if not done:  # stalled a full suggested timeout: race every straggler
                for fut in pending:
                    for p in slices[fut]:
                        try:
                            out[p] = self._replica_answer(fn, p, kwargs, None)
                        except Exception:  # noqa: BLE001 — its primary still answers
                            pass
                pending = [f for f in pending if any(p not in out for p in slices[f])]
                timeout = None
                continue
            if first:
                first = False
                self._lat.append(_time.monotonic() - t0)
            ps = slices[done[0]]
            try:
                res = ray.get(done[0])
            except Exception as e:  # noqa: BLE001 — failed actor slice
                if not self.replicas:
                    raise
                res = [
                    out[p] if p in out else self._replica_answer(fn, p, kwargs, e)
                    for p in ps
                ]
            for p, r in zip(ps, res):
                out.setdefault(p, r)
        return [out[p] for p in parts]


def _ray_in_use(parallel: bool | None) -> bool:
    """Ray fan-out requested: ``parallel``, or Ray initialized when None."""
    try:
        import ray
    except ImportError:
        return False
    return ray.is_initialized() if parallel is None else parallel
