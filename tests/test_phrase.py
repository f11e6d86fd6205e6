"""Exact phrase queries over the opt-in positional index.

The reference REJECTS phrase queries (LuceneBackedQueryParser.java:106-109
throws on PhraseQuery) — this surface is beyond-reference. Contract under
test: ``"a b c"`` matches docs where the analyzed token stream contains the
tokens CONSECUTIVELY; scoring equals the AND query's scores restricted to
the phrase answer (search._eval_phrase's collector contract); every build
path (stream/sort/range, extend, repair) carries the positional streams
when the index was built with ``positions=True``.
"""

import glob
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from miru_ray.build import build_index, extend_index
from miru_ray.codec import POS_FIELD, decode_posting, encode_runs, merge_runs
from miru_ray.filters import QueryParseError, parse_query
from miru_ray.oracle import build_oracle_partitions, oracle_search
from miru_ray.search import SearchEngine
from miru_ray.tokenize import py_tokenize

N_PARTS = 4


@pytest.fixture(scope="module")
def pos_index(ray_session, tiny_transcripts_dir, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("pos_idx"))
    meta = build_index(tiny_transcripts_dir, d, n_parts=N_PARTS, positions=True)
    assert meta["positions"] is True
    return d


@pytest.fixture(scope="module")
def pos_engine(pos_index):
    return SearchEngine(pos_index)


def _phrases(tiny_rows):
    """Real adjacent token runs from the corpus (so matches exist)."""
    toks = py_tokenize(tiny_rows[0]["text"])
    return " ".join(toks[1:3]), " ".join(toks[2:5]), toks[0]


def test_phrase_rank_identity(pos_engine, tiny_rows, tiny_oracle):
    big, tri, t0 = _phrases(tiny_rows)
    families = [
        f'"{big}"',
        f'"{tri}"',
        f'"{t0} {t0}"',  # repeated-token phrase
        f't1 "{big}"',  # AND with a plain term
        f'NOT "{big}"',  # pure negation of a phrase
        f'"{big}" OR t9',  # disjunction
        '"t1 zzzznothere"',  # no match
    ]
    for q in families:
        for scoring in ("ref_tfidf", "bm25", "time"):
            # early_exit=False: TIME's partition-walk short-circuit returns a
            # partial `found` by design; the oracle's is exhaustive
            hits, found = pos_engine.search(q, k=10, scoring=scoring, early_exit=False)
            ohits, ofound = oracle_search(tiny_oracle, q, k=10, scoring=scoring)
            assert found == ofound, (q, scoring)
            assert [(h.part, h.doc_id) for h in hits] == [
                (h.part, h.doc_id) for h in ohits
            ], (q, scoring)
            np.testing.assert_allclose(
                [h.score for h in hits], [h.score for h in ohits], rtol=2e-5, atol=1e-7
            )


def test_phrase_match_vs_brute(pos_engine, tiny_rows):
    big, _, _ = _phrases(tiny_rows)
    seq = big.split()
    got = set()
    for r in pos_engine.match(f'"{big}"'):
        got.update(zip(r["conv_id"], r["turn_idx"]))
    want = set()
    for r in tiny_rows:
        toks = py_tokenize(r["text"])
        if any(toks[j : j + len(seq)] == seq for j in range(len(toks) - len(seq) + 1)):
            want.add((r["conv_id"], r["turn_idx"]))
    assert got == want and got  # non-empty: adjacency actually exercised
    # the AND answer is a strict superset when the terms co-occur non-adjacent
    and_got = set()
    for r in pos_engine.match(big):
        and_got.update(zip(r["conv_id"], r["turn_idx"]))
    assert got <= and_got


def test_proximity_rank_identity(pos_engine, tiny_rows, tiny_oracle):
    """Ordered proximity `"a b"~N`: every adjacent pair within N intervening
    tokens. Rank identity vs the oracle's windowed-chain replay, and the
    match sets grow monotonically with slop (slop 0 ≡ exact phrase)."""
    big, tri, _ = _phrases(tiny_rows)
    prev_found = None
    for g in (0, 1, 2, 4):
        for base in (big, tri):
            q = f'"{base}"~{g}'
            hits, found = pos_engine.search(q, k=10, scoring="bm25")
            ohits, ofound = oracle_search(tiny_oracle, q, k=10, scoring="bm25")
            assert found == ofound, (q, found, ofound)
            assert [(h.part, h.doc_id) for h in hits] == [(h.part, h.doc_id) for h in ohits]
            np.testing.assert_allclose(
                [h.score for h in hits], [h.score for h in ohits], rtol=2e-5, atol=1e-7
            )
        if prev_found is not None:
            assert found >= prev_found  # wider window never loses matches
        prev_found = found
    # slop 0 answers ARE the exact-phrase answers
    a, fa = pos_engine.search(f'"{big}"~0', k=50, scoring="bm25")
    b, fb = pos_engine.search(f'"{big}"', k=50, scoring="bm25")
    assert fa == fb and [(h.part, h.doc_id) for h in a] == [(h.part, h.doc_id) for h in b]


def test_unordered_proximity_rank_identity(pos_engine, tiny_rows, tiny_oracle):
    """Unordered proximity `"a b"~~N`: the oracle mirrors
    search._eval_phrase's ordered=False branch (some occurrence pair with
    1 <= |pos_a - pos_b| <= slop+1, distinct occurrences for a repeated
    term), so ranks and scores must be identical."""
    big, _, t0 = _phrases(tiny_rows)
    a, b = big.split()[:2]
    for g in (0, 1, 3):
        for pair in (f"{a} {b}", f"{b} {a}", f"{t0} {t0}"):
            q = f'"{pair}"~~{g}'
            hits, found = pos_engine.search(q, k=10, scoring="bm25")
            ohits, ofound = oracle_search(tiny_oracle, q, k=10, scoring="bm25")
            assert found == ofound, (q, found, ofound)
            assert [(h.part, h.doc_id) for h in hits] == [(h.part, h.doc_id) for h in ohits]
            np.testing.assert_allclose(
                [h.score for h in hits], [h.score for h in ohits], rtol=2e-5, atol=1e-7
            )


def test_proximity_vs_brute(pos_engine, tiny_rows):
    big, _, _ = _phrases(tiny_rows)
    seq, g = big.split(), 2
    got = set()
    for r in pos_engine.match(f'"{big}"~{g}'):
        got.update(zip(r["conv_id"], r["turn_idx"]))
    want = set()
    for r in tiny_rows:
        toks = py_tokenize(r["text"])
        state = [j for j, x in enumerate(toks) if x == seq[0]]
        for t in seq[1:]:
            prev = state
            state = [j for j, x in enumerate(toks)
                     if x == t and any(j - g - 1 <= q < j for q in prev)]
            if not state:
                break
        if state:
            want.add((r["conv_id"], r["turn_idx"]))
    assert got == want and got


def test_phrase_requires_positions(ray_session, tiny_transcripts_dir, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("nopos_idx"))
    build_index(tiny_transcripts_dir, d, n_parts=2)
    with pytest.raises(Exception, match="positions=True"):
        SearchEngine(d).search('"a b"', k=5)


def test_phrase_extend_preserves_positions(
    ray_session, tiny_transcripts_dir, tmp_path_factory, pos_engine
):
    """Half-build + extend must answer phrase queries identically to the
    one-shot positions build (the extender inherits the manifest flag)."""
    t = pa.concat_tables(
        [pq.read_table(f) for f in sorted(glob.glob(tiny_transcripts_dir + "/*.parquet"))]
    )
    cut = sorted(set(t["conv_id"].to_pylist()))[len(set(t["conv_id"].to_pylist())) // 2]
    src1 = str(tmp_path_factory.mktemp("ph_e1"))
    src2 = str(tmp_path_factory.mktemp("ph_e2"))
    pq.write_table(t.filter(pa.compute.less(t["conv_id"], cut)), os.path.join(src1, "a.parquet"))
    pq.write_table(
        t.filter(pa.compute.greater_equal(t["conv_id"], cut)), os.path.join(src2, "b.parquet")
    )
    d = str(tmp_path_factory.mktemp("ph_ext_idx"))
    build_index(src1, d, n_parts=N_PARTS, positions=True)
    extend_index(src2, d)
    rows = t.to_pylist()
    big = " ".join(py_tokenize(rows[0]["text"])[1:3])
    a, fa = SearchEngine(d).search(f'"{big}"', k=20, scoring="bm25")
    b, fb = pos_engine.search(f'"{big}"', k=20, scoring="bm25")
    assert fa == fb and [(h.conv_id, h.turn_idx, round(h.score, 6)) for h in a] == [
        (h.conv_id, h.turn_idx, round(h.score, 6)) for h in b
    ]


def test_parser_phrase_forms():
    f = parse_query('"a b"')
    assert f.op == "phrase" and f.field_filters[0].values == ["a", "b"]
    f = parse_query('role:"x y"')
    assert f.op == "phrase" and f.field_filters[0].field == "role"
    # a one-token phrase collapses to a plain term
    assert parse_query('"solo"').op == "and"
    # punctuation inside the quotes analyzes into phrase tokens
    assert parse_query('"foo-bar baz"').field_filters[0].values == ["foo", "bar", "baz"]
    with pytest.raises(QueryParseError):
        parse_query('"unterminated')


def test_phrase_field_restriction_and_prefixed_forms(pos_engine, tiny_rows, tiny_oracle):
    """Phrase on a meta field raises in BOTH engines (no positional streams
    for single-term fields), and Lucene's -/+ prefixes keep phrase
    semantics instead of degrading to an AND of the terms."""
    with pytest.raises(Exception, match="text"):
        pos_engine.search('role:"user user"', k=5)
    with pytest.raises(ValueError, match="text"):
        oracle_search(tiny_oracle, 'role:"user user"', k=5)
    big, _, _ = _phrases(tiny_rows)
    # -"a b" ≡ NOT "a b"; +"a b" ≡ "a b" (rank identity via the oracle)
    for q in (f'-"{big}" t1', f'+"{big}" t1', f'-"{big}"~1 t1'):
        hits, found = pos_engine.search(q, k=10, scoring="bm25")
        ohits, ofound = oracle_search(tiny_oracle, q, k=10, scoring="bm25")
        assert found == ofound and [(h.part, h.doc_id) for h in hits] == [
            (h.part, h.doc_id) for h in ohits
        ], q
    a, fa = pos_engine.search(f'-"{big}" t1', k=30, scoring="bm25")
    b, fb = pos_engine.search(f'NOT "{big}" t1', k=30, scoring="bm25")
    assert fa == fb and [(h.part, h.doc_id) for h in a] == [(h.part, h.doc_id) for h in b]


def test_merge_runs_rejects_overlapping_runs():
    """Two runs of one (part, term) whose docId ranges overlap raise a
    ValueError naming the part and the term — for a text posting and for a
    POS_FIELD occurrence stream, whose repeated docIds are its data. Runs
    that only touch (a text run starting one doc after the previous one
    ends) still merge."""
    dl = np.full(3, 10, dtype=np.int64)
    z = np.zeros(3, dtype=np.int64)
    for term, strict, d1, d2 in [
        ("text\x1fterm", True, [3, 5, 7], [7, 8, 9]),
        (POS_FIELD + "\x1fterm", False, [3, 3, 7], [3, 7, 7]),
    ]:
        dict_terms = pa.array([term], type=pa.large_string())
        r1 = encode_runs(2, z, np.array(d1), np.array([0, 5, 2]), dl, dict_terms, strict=strict)
        r2 = encode_runs(2, z, np.array(d2), np.array([9, 0, 4]), dl, dict_terms, strict=strict)
        with pytest.raises(ValueError, match=r"part 2 term .*term'"):
            merge_runs(pa.concat_tables([r2, r1]))
    dict_terms = pa.array(["text\x1fterm"], type=pa.large_string())
    r1 = encode_runs(2, z, np.array([3, 5, 7]), z + 1, dl, dict_terms)
    r2 = encode_runs(2, z, np.array([8, 9, 12]), z + 1, dl, dict_terms)
    assert merge_runs(pa.concat_tables([r2, r1]))["df"].to_pylist() == [6]


def test_codec_nonstrict_roundtrip():
    """The positional occurrence stream shape: repeated docIds (delta 0),
    payload in the tf slot — encode/decode and offset-subsampling merge."""
    rng = np.random.default_rng(7)
    doc = np.sort(rng.integers(0, 500, size=2000)).astype(np.int64)
    pos = np.zeros(len(doc), dtype=np.int64)
    # strictly increasing positions within a doc (the build invariant)
    for d in np.unique(doc):
        m = doc == d
        pos[m] = np.sort(rng.choice(10_000, size=int(m.sum()), replace=False))
    codes = np.zeros(len(doc), dtype=np.int64)
    dict_terms = pa.array([POS_FIELD + "\x1fterm"], type=pa.large_string())
    dl = np.full(len(doc), 10_000, dtype=np.int64)
    runs = encode_runs(0, codes, doc, pos, dl, dict_terms, strict=False)
    got_d, got_p = decode_posting(
        runs["doc_bytes"][0].as_py(), runs["tf_bytes"][0].as_py(),
        np.asarray(runs["blk_first"][0].as_py()), np.asarray(runs["blk_count"][0].as_py()),
    )
    np.testing.assert_array_equal(got_d, doc)
    np.testing.assert_array_equal(got_p, pos)
    # strict mode still rejects duplicates
    with pytest.raises(ValueError):
        encode_runs(0, codes, doc, pos, dl, dict_terms, strict=True)
    # merge of two disjoint-docId-range runs concatenates losslessly
    half = len(doc) // 2
    while half < len(doc) and doc[half] == doc[half - 1]:
        half += 1
    r1 = encode_runs(0, codes[:half], doc[:half], pos[:half], dl[:half],
                     dict_terms, strict=False)
    r2 = encode_runs(0, codes[half:], doc[half:], pos[half:], dl[half:],
                     dict_terms, strict=False)
    merged = merge_runs(pa.concat_tables([r1, r2]))
    md, mp = decode_posting(
        merged["doc_bytes"][0].as_py(), merged["tf_bytes"][0].as_py(),
        np.asarray(merged["blk_first"][0].as_py()), np.asarray(merged["blk_count"][0].as_py()),
    )
    np.testing.assert_array_equal(md, doc)
    np.testing.assert_array_equal(mp, pos)


def _scalar_unear(rows, a, b, slop):
    """Docs where some occurrence pair of a/b sits within slop+1 positions,
    either order (distinct positions)."""
    out = set()
    for r in rows:
        toks = py_tokenize(r["text"])
        pa_ = [i for i, t in enumerate(toks) if t == a]
        pb_ = [i for i, t in enumerate(toks) if t == b]
        if any(0 < abs(x - y) <= slop + 1 for x in pa_ for y in pb_):
            out.add((r["conv_id"], r["turn_idx"]))
    return out


def _match_keys(engine, q):
    out = set()
    for r in engine.match(q):
        out.update((str(c), int(t)) for c, t in zip(r["conv_id"], r["turn_idx"]))
    return out


def test_unordered_near(pos_engine, tiny_rows):
    """"a b"~~N: order-free window; superset of both ordered directions;
    symmetric under term swap; matches the scalar recompute."""
    toks = py_tokenize(tiny_rows[0]["text"])
    a, b = toks[1], toks[2]
    for slop in (0, 2):
        got_keys = _match_keys(pos_engine, f'"{a} {b}"~~{slop}')
        assert got_keys == _scalar_unear(tiny_rows, a, b, slop)
        assert got_keys == _match_keys(pos_engine, f'"{b} {a}"~~{slop}')
        for q in (f'"{a} {b}"~{slop}', f'"{b} {a}"~{slop}'):
            assert _match_keys(pos_engine, q) <= got_keys
    # repeated-term unordered near needs a DISTINCT second occurrence
    got_keys = _match_keys(pos_engine, f'"{a} {a}"~~3')
    assert got_keys == _scalar_unear(tiny_rows, a, a, 3)


def test_unordered_near_parse_errors():
    with pytest.raises(QueryParseError):
        parse_query('"t1 t2 t3"~~2')  # exactly two terms
