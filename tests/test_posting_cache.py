"""Decoded-posting cache semantics (VERDICT r5 #9): the process-wide LRU
over the resident partitions' entries (eviction order, touch on hit),
negative entries, and epoch invalidation — cache bugs here are silent rank
corruptions, so each behavior is pinned."""

import os

import numpy as np

import pytest

from miru_ray import search as S
from miru_ray import segments as SG
from miru_ray.build import build_index
from miru_ray.search import PostingSource
from miru_ray.segments import FIELD_SEP, manifest_path


@pytest.fixture()
def idx1(ray_session, tiny_transcripts_dir, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("idx_pcache"))
    build_index(tiny_transcripts_dir, d, n_parts=1)
    return d


def _keys():
    return [k.split(FIELD_SEP, 1)[1] for _, k in SG._POSTING_LRU]


def test_lru_eviction_order_and_touch(idx1, monkeypatch, drop_resident):
    drop_resident()
    monkeypatch.setattr(SG._POSTING_LRU, "cap", 4)

    PostingSource(idx1, 0, [("text", "t1"), ("text", "t2")], 0)
    PostingSource(idx1, 0, [("text", "t3"), ("text", "t4")], 0)
    assert _keys() == ["t1", "t2", "t3", "t4"]

    # HIT on t1 must touch it most-recent (pop+reinsert)
    PostingSource(idx1, 0, [("text", "t1")], 0)
    assert _keys() == ["t2", "t3", "t4", "t1"]

    # two misses at cap → the two least-recently-used (t2, t3) evict;
    # the touched t1 survives
    PostingSource(idx1, 0, [("text", "t5"), ("text", "t6")], 0)
    assert _keys() == ["t4", "t1", "t5", "t6"]


def test_negative_entries_cached_and_lru(idx1, monkeypatch, drop_resident):
    drop_resident()
    monkeypatch.setattr(SG._POSTING_LRU, "cap", 4)

    src = PostingSource(idx1, 0, [("text", "zz_absent_term")], 0)
    assert ("text", "zz_absent_term") not in src.df
    pt, key = next(iter(SG._POSTING_LRU))
    assert pt.postings[key] is None  # negative entry stored

    # a second ask is a HIT: no storage read
    calls = {"n": 0}
    orig = S.read_postings_for_terms

    def counting(index_dir, part, terms):
        calls["n"] += 1
        return orig(index_dir, part, terms)

    monkeypatch.setattr(S, "read_postings_for_terms", counting)
    src2 = PostingSource(idx1, 0, [("text", "zz_absent_term")], 0)
    assert ("text", "zz_absent_term") not in src2.df
    assert calls["n"] == 0


def test_epoch_bump_invalidates_without_serving_stale(idx1, monkeypatch, drop_resident):
    """Entries live in the partition at its manifest epoch (the manifest's
    mtime): after a mutation bumps it, a warm process must RE-READ postings
    under the new epoch rather than serve the pre-mutation arrays, and the
    old epoch's entries leave the cache with their partition."""
    drop_resident()
    src = PostingSource(idx1, 0, [("text", "t1")], 0)
    df_before = src.df[("text", "t1")]
    n_before = len(SG._POSTING_LRU)
    old = SG.partition(idx1, 0)

    # simulate extend/repair: the manifest mtime moves forward
    mp = manifest_path(idx1, 0)
    st = os.stat(mp)
    os.utime(mp, (st.st_atime + 10, st.st_mtime + 10))

    calls = {"n": 0}
    orig = S.read_postings_for_terms

    def counting(index_dir, part, terms):
        calls["n"] += 1
        return orig(index_dir, part, terms)

    monkeypatch.setattr(S, "read_postings_for_terms", counting)
    src2 = PostingSource(idx1, 0, [("text", "t1")], 0)
    assert calls["n"] == 1  # old-epoch entry was NOT served
    assert src2.df[("text", "t1")] == df_before
    new = SG.partition(idx1, 0)
    assert new is not old and list(SG._PARTITIONS.values()) == [new]
    # nothing of the old epoch stays resident
    assert len(SG._POSTING_LRU) == n_before and not old.postings
    assert all(pt is new for pt, _ in SG._POSTING_LRU)


def _per_row_reference(t, i):
    """One posting row unpacked scalar by scalar (the pre-columnar decode)."""
    from miru_ray.codec import decode_posting

    blk_first = np.asarray(t["blk_first"][i].as_py())
    blk_count = np.asarray(t["blk_count"][i].as_py())
    docs, tfs = decode_posting(t["doc_bytes"][i].as_py(), t["tf_bytes"][i].as_py(),
                               blk_first, blk_count)
    blocks = {"first": blk_first, "count": blk_count}
    return docs, tfs, int(t["ttf"][i].as_py()), int(t["df"][i].as_py()), blocks


def _same(a, b):
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return type(a) is type(b) and a == b


def test_column_unpacking_matches_per_row(idx1, drop_resident):
    """PostingSource converts each column once per read; the cache entries
    (docs, tfs, ttf, df, blocks) and the negative entries equal a
    scalar-by-scalar unpacking of the same rows."""
    from miru_ray.segments import read_postings_for_terms

    drop_resident()
    terms = [k.split(FIELD_SEP, 1) for k in SG.partition(idx1, 0).dictionary.terms.tolist()]
    specs = [tuple(ft) for ft in terms[::11]] + [("text", "zz_absent_term")]
    PostingSource(idx1, 0, specs, 0)
    t = read_postings_for_terms(idx1, 0, [f + FIELD_SEP + v for f, v in specs])
    cached = dict(SG.partition(idx1, 0).postings)
    assert len(cached) == len(specs) and t.num_rows == len(specs) - 1
    for i in range(t.num_rows):
        key = t["term"][i].as_py()
        assert _same(cached[key], _per_row_reference(t, i)), key
    assert cached["text" + FIELD_SEP + "zz_absent_term"] is None  # negative entry
