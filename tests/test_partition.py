"""The resident partition (segments.Partition): one object per partition at
its manifest epoch holds the manifest, the term dictionary, the forward
columns and the query caches, and a new epoch replaces it whole."""

import gc
import os
import shutil
import threading
import weakref

import pytest

import miru_ray.segments as SG
from miru_ray.build import build_index
from miru_ray.search import SearchEngine, authz_mask, expand_spec


@pytest.fixture(scope="module")
def idx80(ray_session, tiny_transcripts_dir, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("idx_parts80"))
    build_index(tiny_transcripts_dir, d, n_parts=80)
    return d


@pytest.fixture(scope="module")
def idx2(ray_session, tiny_transcripts_dir, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("idx_parts2"))
    build_index(tiny_transcripts_dir, d, n_parts=2)
    return d


def test_warm_search_over_many_partitions_reads_no_forward_table(idx80, monkeypatch,
                                                                 drop_resident):
    """More partitions than any old per-cache bound (the forward cache was
    cleared past 64): the second in-process query reads no forward table
    and no manifest, and answers the same."""
    drop_resident()
    reads = {"forward": 0, "manifest": 0}
    real_forward, real_manifest = SG.Partition.forward_table, SG.read_manifest

    def forward_table(self):
        reads["forward"] += 1
        return real_forward(self)

    def read_manifest(index_dir, part):
        reads["manifest"] += 1
        return real_manifest(index_dir, part)

    monkeypatch.setattr(SG.Partition, "forward_table", forward_table)
    monkeypatch.setattr(SG, "read_manifest", read_manifest)
    eng = SearchEngine(idx80)
    assert len(eng.parts) > 64
    first = eng.search("t1 t7", k=10, scoring="bm25", parallel=False)
    assert reads["forward"] > 64
    reads.update(forward=0, manifest=0)
    second = eng.search("t1 t7", k=10, scoring="bm25", parallel=False)
    assert reads == {"forward": 0, "manifest": 0}
    assert [(h.part, h.doc_id, h.score) for h in second[0]] == [
        (h.part, h.doc_id, h.score) for h in first[0]]
    assert second[1] == first[1]


def test_epoch_bump_leaves_nothing_of_the_old_epoch_resident(idx2, drop_resident):
    """After a manifest bump, the next query replaces the partition whole:
    the old object, and with it its manifest, forward columns, decoded
    postings, expansions and authz masks, is released."""
    drop_resident()
    eng = SearchEngine(idx2)

    def ask():
        return [
            eng.search("t1 t7", k=10, authz=("role", ["user", "tool"]), parallel=False),
            eng.search("t1~1", k=10, parallel=False),
            eng.search("t1 t7", k=10, scoring="bm25", parallel=False),
        ]

    before = ask()
    old = SG.partition(idx2, 0)
    assert old.manifest and old.postings and old.expansions and old.authz
    assert old._forward is not None and old._dictionary is not None
    n_old = sum(1 for pt, _ in SG._POSTING_LRU if pt is old)
    assert n_old == len(old.postings) > 0
    gone = weakref.ref(old)
    del old

    mp = SG.manifest_path(idx2, 0)
    t = os.path.getmtime(mp) + 5
    os.utime(mp, (t, t))
    after = ask()
    gc.collect()
    assert gone() is None  # nothing holds the superseded partition
    new = SG.partition(idx2, 0)
    assert new.epoch == t
    assert sorted(SG._PARTITIONS) == [(os.path.abspath(idx2), 0), (os.path.abspath(idx2), 1)]
    for lru in SG._LRUS.values():
        assert all(SG._PARTITIONS[pt.key] is pt for pt, _ in lru)
    assert sum(1 for pt, _ in SG._POSTING_LRU if pt is new) == len(new.postings) == n_old
    assert [([(h.part, h.doc_id, h.score) for h in hits], found) for hits, found in after] == [
        ([(h.part, h.doc_id, h.score) for h in hits], found) for hits, found in before]



def test_query_caches_are_process_wide_lrus(idx2, monkeypatch, drop_resident):
    """Expansions and authz masks are bounded across partitions, as the
    decoded postings are: 50,000 expansions and 1,024 masks per process, the
    least recently used of any partition evicted first."""
    assert (SG._POSTING_LRU.cap, SG._EXPANSION_LRU.cap, SG._AUTHZ_LRU.cap) == (
        200_000, 50_000, 1_024)
    drop_resident()
    monkeypatch.setattr(SG._EXPANSION_LRU, "cap", 3)
    monkeypatch.setattr(SG._AUTHZ_LRU, "cap", 2)

    def spec_keys():
        return [(pt.key[1], k[1]) for pt, k in SG._EXPANSION_LRU]

    first = expand_spec(idx2, 0, "text", "t1~1")
    expand_spec(idx2, 1, "text", "t1~1")
    expand_spec(idx2, 0, "text", "t2~1")
    assert spec_keys() == [(0, "t1~1"), (1, "t1~1"), (0, "t2~1")]
    assert expand_spec(idx2, 0, "text", "t1~1") == first  # a hit touches it
    assert spec_keys() == [(1, "t1~1"), (0, "t2~1"), (0, "t1~1")]
    expand_spec(idx2, 1, "text", "t3~1")  # evicts partition 1's older entry
    assert spec_keys() == [(0, "t2~1"), (0, "t1~1"), (1, "t3~1")]
    assert set(SG.partition(idx2, 1).expansions) == {("text", "t3~1")}

    n_docs = SG.partition(idx2, 0).forward["n_docs"]
    for part, values in ((0, ["user"]), (1, ["user"]), (0, ["tool"])):
        authz_mask(idx2, part, ("role", values), n_docs)
    assert [(pt.key[1], k) for pt, k in SG._AUTHZ_LRU] == [
        (1, ("role", ("user",))), (0, ("role", ("tool",)))]
    assert ("role", ("user",)) not in SG.partition(idx2, 0).authz


def test_finalize_segment_drops_the_resident_partition(idx2, tmp_path, drop_resident):
    """A segment rewritten in this process is never served from the
    superseded partition, even when the manifest keeps its mtime (a rewrite
    inside one mtime tick)."""
    d = str(tmp_path / "idx")
    shutil.copytree(idx2, d)
    drop_resident()
    old = SG.partition(d, 0)
    postings = old.postings_table()
    mp = SG.manifest_path(d, 0)
    epoch = os.path.getmtime(mp)
    SG.finalize_segment(d, 0, postings, old.manifest["lineage"],
                        dict(old.manifest["metrics"], n_docs=-1))
    os.utime(mp, (epoch, epoch))
    assert (os.path.abspath(d), 0) not in SG._PARTITIONS
    new = SG.partition(d, 0)
    assert new is not old and new.epoch == epoch
    assert new.manifest["metrics"]["n_docs"] == -1


def test_manifest_read_outside_the_registry_lock(idx2, monkeypatch, drop_resident):
    """While one thread reads a partition's manifest, another thread gets a
    different partition; two loads of one epoch leave one resident object."""
    drop_resident()
    real = SG.read_manifest
    started, release = threading.Event(), threading.Event()

    def read_manifest(index_dir, part):
        if part == 0:
            started.set()
            assert release.wait(30)
        return real(index_dir, part)

    monkeypatch.setattr(SG, "read_manifest", read_manifest)
    got = []
    th = threading.Thread(target=lambda: got.append(SG.partition(idx2, 0)))
    th.start()
    try:
        assert started.wait(30)
        assert SG.partition(idx2, 1).manifest is not None  # not blocked by part 0
    finally:
        release.set()
        th.join(30)
    assert got and got[0] is SG.partition(idx2, 0)
