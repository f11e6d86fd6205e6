"""The dense per-partition query kernel.

* membership-mask set algebra (``search._intersect`` / ``_difference`` /
  ``_union``) equals numpy's sorting set routines;
* the scatter-add scorer (``wand.score_exact``) is bit-identical to a
  per-term ``searchsorted`` accumulation over the answer;
* the engine parses a query once per search, before any partition is
  asked;
* search-after pages reassemble the big-k answer when (score, ts) ties
  span partitions.
"""

import datetime

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings, strategies as st

from miru_ray import search as S
from miru_ray.build import build_index
from miru_ray.filters import QueryParseError
from miru_ray.search import SearchEngine
from miru_ray.segments import forward_columns, partition, read_tombstones
from miru_ray.wand import LMD_MU, _knorm, score_exact, term_multipliers

from test_query_fuzz import QUERY_SET

# ------------------------------------------------------------- set algebra


@st.composite
def _sets(draw):
    """(n_docs, a, b, c): three sorted unique int64 docId sets of one
    partition, any of them empty, some holding the last docId."""
    n = draw(st.integers(min_value=1, max_value=300))
    out = []
    for _ in range(3):
        s = draw(st.sets(st.integers(min_value=0, max_value=n - 1), max_size=n))
        if draw(st.booleans()):
            s.add(n - 1)
        out.append(np.array(sorted(s), dtype=np.int64))
    return (n, *out)


@given(_sets())
@settings(max_examples=300, deadline=None)
def test_mask_set_ops_equal_numpy(sets):
    n, a, b, c = sets
    for got, want in [
        (S._intersect(a, b, n), np.intersect1d(a, b)),
        (S._difference(a, [b], n), np.setdiff1d(a, b)),
        (S._difference(a, [b, c], n), np.setdiff1d(a, np.union1d(b, c))),
        (S._union([a, b], n), np.union1d(a, b)),
        (S._union([a, b, c], n), np.union1d(np.union1d(a, b), c)),
        (S._union([a], n), a),
        (S._union([], n), np.empty(0, np.int64)),
    ]:
        assert got.dtype == np.int64 and np.array_equal(got, want)


def test_mask_set_ops_reject_docids_past_the_partition():
    a = np.array([0, 3], dtype=np.int64)
    past = np.array([1, 4], dtype=np.int64)
    with pytest.raises(IndexError):
        S._intersect(a, past, 4)
    with pytest.raises(IndexError):
        S._union([a, past], 4)
    with pytest.raises(IndexError):
        S._difference(a, [past], 4)


# ------------------------------------------------------------------ scorer


def _score_reference(src, mults, answer, scoring, avg_dl, dl_arr, total_tokens):
    """The per-term accumulation restricted to the answer: each term's
    posting is located in the answer by ``searchsorted`` and its fp32
    contributions added there, in term order."""
    scores = np.zeros(len(answer), dtype=np.float32)
    if len(answer) == 0:
        return scores
    dl = dl_arr[answer].astype(np.float64)
    knorm = _knorm(dl, avg_dl)
    for (field, term), m in mults:
        docs = src.docs(field, term)
        pos = np.searchsorted(answer, docs)
        valid = (pos < len(answer)) & (answer[np.minimum(pos, len(answer) - 1)] == docs)
        pos = pos[valid]
        tf_i = src.tfs(field, term)[valid]
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
        qlen = sum(int(m) for _key, m in mults)
        scores += np.float32(qlen) * np.log(LMD_MU / (dl + LMD_MU)).astype(np.float32)
    return scores


@pytest.fixture(scope="module")
def tiny_index(ray_session, tiny_transcripts_dir, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("kernel_idx"))
    build_index(tiny_transcripts_dir, d, n_parts=4)
    return d


@pytest.mark.parametrize("scoring", ["ref_tfidf", "bm25", "lmd"])
def test_score_exact_bit_identical_to_per_term_reference(tiny_index, scoring):
    n_scored = 0
    for part in range(4):
        metrics = partition(tiny_index, part).manifest["metrics"]
        n_docs = metrics["n_docs"]
        avg_dl = metrics.get("avg_dl") or metrics["total_tokens"] / n_docs
        total_tokens = float(metrics["total_tokens"])
        fwd = forward_columns(tiny_index, part)
        removed = read_tombstones(tiny_index, part)
        for q in QUERY_SET:
            filt = S._parse(tiny_index, q, False)
            specs = []
            S._collect_term_specs(filt, specs)
            src = S.PostingSource(tiny_index, part, specs, S.DEFAULT_MAX_WILDCARD_EXPANSION)
            collector = {}
            answer = S.match_set(tiny_index, part, filt, src, n_docs, fwd, removed,
                                 collector=collector)
            mults = term_multipliers(src, collector, scoring, n_docs)
            got = score_exact(src, mults, answer, scoring, avg_dl, fwd["dl"], total_tokens)
            want = _score_reference(src, mults, answer, scoring, avg_dl, fwd["dl"],
                                    total_tokens)
            assert got.dtype == np.float32 and np.array_equal(got, want), (part, q)
            n_scored += len(answer)
    assert n_scored > 1000


# ------------------------------------------------------------ the engine


TIE_CONVS = 12


@pytest.fixture(scope="module")
def tie_indexes(ray_session, tmp_path_factory):
    """{n_parts: index} over 12 one-turn conversations with the same text
    and the same ts: every hit ties every other on (score, ts) within a
    partition, and across partitions too under TIME."""
    src = tmp_path_factory.mktemp("tie_corpus")
    ts = datetime.datetime(2024, 1, 1)
    pq.write_table(pa.table({
        "conv_id": pa.array([f"conv-{i:04d}" for i in range(TIE_CONVS)], pa.string()),
        "turn_idx": pa.array([0] * TIE_CONVS, pa.int32()),
        "role": pa.array(["user"] * TIE_CONVS, pa.string()),
        "text": pa.array(["alpha beta gamma"] * TIE_CONVS, pa.string()),
        "tool": pa.array([""] * TIE_CONVS, pa.string()),
        "ts": pa.array([ts] * TIE_CONVS, pa.timestamp("us")),
    }), str(src / "part-0.parquet"))
    out = {}
    for n in (1, 4):
        out[n] = str(tmp_path_factory.mktemp(f"tie_idx{n}"))
        build_index(str(src), out[n], n_parts=n)
    return out


@pytest.mark.parametrize("scoring", ["bm25", "time"])
def test_search_after_with_ties_across_partitions(tie_indexes, scoring):
    """The merge gives a (score, ts) tie to the partition it is folding in,
    which walks newest→oldest, so ties are ordered by part ascending; pages
    of k=3 chained by their last hit must reassemble the k=20 answer."""
    eng = SearchEngine(tie_indexes[4])
    big, found = eng.search("alpha", k=20, scoring=scoring, parallel=False,
                            early_exit=False)
    assert found == len(big) == TIE_CONVS
    assert len({h.part for h in big}) > 1
    pages, after = [], None
    for _ in range(TIE_CONVS):
        page, pfound = eng.search("alpha", k=3, scoring=scoring, parallel=False,
                                  after=after, early_exit=False)
        assert pfound == found
        if not page:
            break
        pages.extend(page)
        after = page[-1]
    assert [(h.part, h.doc_id) for h in pages] == [(h.part, h.doc_id) for h in big]


@pytest.mark.parametrize("n_parts", [1, 4])
def test_query_parsed_once_per_search(tie_indexes, monkeypatch, n_parts):
    eng = SearchEngine(tie_indexes[n_parts])
    assert len(eng.parts) == n_parts
    calls = {"parse": 0, "partition": 0}
    parse, ask = S.parse_query, S.search_partition

    def counting_parse(*a, **kw):
        calls["parse"] += 1
        return parse(*a, **kw)

    def counting_ask(*a, **kw):
        calls["partition"] += 1
        return ask(*a, **kw)

    monkeypatch.setattr(S, "parse_query", counting_parse)
    monkeypatch.setattr(S, "search_partition", counting_ask)
    for scoring in ("bm25", "time"):
        calls.update(parse=0, partition=0)
        hits, found = eng.search("alpha beta", k=5, scoring=scoring, parallel=False,
                                 early_exit=False)
        assert found == TIE_CONVS
        assert calls == {"parse": 1, "partition": n_parts}

    calls.update(parse=0, partition=0)
    with pytest.raises(QueryParseError):
        eng.search("(alpha", k=5, parallel=False)
    assert calls == {"parse": 1, "partition": 0}
