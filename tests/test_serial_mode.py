"""Serial solver mode with report carry-forward (FullTextReport /
FullText.collectTfIdf acceptableBelowMin semantics) — protocol parity
against a literal reimplementation of the reference's admission rule over
the engine's own full per-partition score lists (search_partition is
itself oracle-validated by the rank-identity tests; this file tests the
serial REPORT protocol layered on top: threshold carry, docId-order
below-min budget, merge)."""

import numpy as np
import pytest

from miru_ray.build import build_index
from miru_ray.search import SearchEngine, _hits_of, _merge_two, search_partition

N_PARTS = 4

QUERIES = [
    "t1 t7",
    "t1 OR w00042",
    "t1 AND NOT t9",
    "role:tool t3",
    "t2",
]


@pytest.fixture(scope="module")
def engine(ray_session, tiny_transcripts_dir, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("idx_serial"))
    build_index(tiny_transcripts_dir, d, n_parts=N_PARTS)
    return SearchEngine(d)


def _full_hits(engine, part, query, scoring):
    """Every scored candidate of one partition, docId ASCENDING (the
    reference's bitmap iterator order), via a huge-k ask."""
    r = search_partition(engine.index_dir, part, query=query, k=1 << 20, scoring=scoring)
    hits = _hits_of(r)
    return sorted(hits, key=lambda h: h.doc_id), r["found"]


def _columns(hits):
    """A Hit list as a merged answer, the form ``_merge_two`` folds."""
    fields = ("score", "ts", "doc_id", "part", "conv_id", "turn_idx", "role")
    return {f: [getattr(h, f) for h in hits] for f in fields}


def _brute_serial(engine, query, k, scoring):
    """FullText.java:114-141 verbatim: minScore = lastReport.lowestScore,
    acceptableBelowMin = desired - alreadyScored; below-threshold docs
    admitted in docId order while the budget lasts; per-partition top-k by
    the engine's heap key; cross-partition merge by the engine's merger."""
    merged = []
    found = 0
    report = None
    for part in engine.parts:  # newest → oldest
        hits_all, f = _full_hits(engine, part, query, scoring)
        found += f
        if report is None:
            admitted = hits_all
        else:
            ms, budget = report[1], max(0, k - report[0])
            admitted = []
            for h in hits_all:
                if h.score > ms:
                    admitted.append(h)
                elif budget > 0:
                    admitted.append(h)
                    budget -= 1
        top = sorted(admitted, key=lambda h: (-h.score, -h.doc_id))[:k]
        top = sorted(top, key=lambda h: (-h.score, -h.ts))
        if report is None:
            merged = top
        else:
            merged = _hits_of(_merge_two(_columns(merged), _columns(top), k))
        report = (len(merged), min((h.score for h in merged), default=float("inf")))
    return merged, found


@pytest.mark.parametrize("scoring", ["ref_tfidf", "bm25"])
@pytest.mark.parametrize("k", [1, 5, 20])
def test_serial_equals_brute_protocol(engine, scoring, k):
    for q in QUERIES:
        got, gf = engine.search_serial(q, k=k, scoring=scoring)
        exp, ef = _brute_serial(engine, q, k, scoring)
        assert gf == ef, q
        assert [(h.part, h.doc_id, h.score) for h in got] == [
            (h.part, h.doc_id, h.score) for h in exp
        ], (q, scoring, k)


def test_serial_with_big_k_equals_parallel(engine):
    """With k large enough that nothing is ever evicted, the serial report
    mode must coincide with the parallel fan-out exactly."""
    for q in QUERIES:
        a, fa = engine.search_serial(q, k=500, scoring="bm25")
        b, fb = engine.search(q, k=500, scoring="bm25")
        assert fa == fb
        assert [(h.part, h.doc_id, h.score) for h in a] == [
            (h.part, h.doc_id, h.score) for h in b
        ], q


def test_serial_below_min_budget_unit(engine):
    """The acceptableBelowMin budget itself: a partition asked with a
    carried report admits at most (k − alreadyScored) docs at or below the
    threshold, in docId order — asserted directly against an unthresholded
    ask of the same partition."""
    part = engine.parts[0]
    q, scoring, k = "t2", "ref_tfidf", 5
    hits_all, _ = _full_hits(engine, part, q, scoring)
    if len(hits_all) < k + 2:
        pytest.skip("fixture partition too small for the budget to bite")
    scores_sorted = sorted((h.score for h in hits_all), reverse=True)
    ms = scores_sorted[1]  # threshold below the best: several docs fall under
    already = k - 2  # budget of exactly 2
    r = search_partition(
        engine.index_dir, part, query=q, k=1 << 20, scoring=scoring,
        min_score=ms, below_min=k - already,
    )
    got = sorted(_hits_of(r), key=lambda h: h.doc_id)
    above = [h for h in hits_all if h.score > np.float32(ms)]
    below = [h for h in hits_all if not h.score > np.float32(ms)][: k - already]
    exp = sorted(above + below, key=lambda h: h.doc_id)
    assert [(h.doc_id, h.score) for h in got] == [(h.doc_id, h.score) for h in exp]
