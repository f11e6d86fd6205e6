"""Index replication (miru-sync analogue): incremental, partition-atomic,
idempotent; replica answers are identical to the source, including
mutation sidecars (tombstones)."""

import json
import os
import shutil

import pytest

from miru_ray.build import build_index
from miru_ray.search import SearchEngine
from miru_ray.segments import part_dir, remove_docs
from miru_ray.sync import sync_index, sync_partition, verify_sync

N_PARTS = 4


@pytest.fixture()
def src_idx(ray_session, tiny_transcripts_dir, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("sync_src"))
    build_index(tiny_transcripts_dir, d, n_parts=N_PARTS)
    return d


def _answers(idx, query="t1 t7", k=10):
    eng = SearchEngine(idx)
    hits, found = eng.search(query, k=k, scoring="bm25")
    return found, [(h.conv_id, h.turn_idx, round(h.score, 5)) for h in hits]


def test_sync_fresh_then_idempotent(src_idx, tmp_path_factory):
    dst = str(tmp_path_factory.mktemp("sync_dst"))
    res = sync_index(src_idx, dst)
    assert res["copied"] == list(range(N_PARTS)) and res["skipped"] == []
    assert res["bytes"] > 0 and os.path.exists(os.path.join(dst, "index.json"))
    assert _answers(dst) == _answers(src_idx)

    res2 = sync_index(src_idx, dst)
    assert res2["copied"] == [] and res2["skipped"] == list(range(N_PARTS))
    assert res2["bytes"] == 0

    v = verify_sync(src_idx, dst)
    assert v["differs"] == [] and v["missing_in_dst"] == []
    assert v["equal"] == list(range(N_PARTS))


def test_sync_propagates_mutations_incrementally(src_idx, tmp_path_factory):
    dst = str(tmp_path_factory.mktemp("sync_dst2"))
    sync_index(src_idx, dst)

    eng = SearchEngine(src_idx)
    hits, _ = eng.search("t1", k=3, scoring="bm25")
    touched = remove_docs(src_idx, [(hits[0].conv_id, hits[0].turn_idx)])
    assert touched
    v = verify_sync(src_idx, dst)
    assert v["differs"] == sorted(touched) and v["missing_in_dst"] == []

    res = sync_index(src_idx, dst)
    # only the tombstoned partition re-copied
    assert res["copied"] == sorted(touched)
    assert set(res["skipped"]) == set(range(N_PARTS)) - set(touched)
    assert _answers(dst, "t1") == _answers(src_idx, "t1")


def test_sync_removes_stale_partitions_and_survives_partial_copy(
    src_idx, tmp_path_factory
):
    dst = str(tmp_path_factory.mktemp("sync_dst3"))
    sync_index(src_idx, dst)
    # fabricate a stale replica partition the source does not have
    stale = part_dir(dst, 9)
    shutil.copytree(part_dir(dst, 0), stale)
    # and a crashed half-copy staging dir
    tmp = os.path.join(dst, ".sync-tmp-00001")
    os.makedirs(tmp, exist_ok=True)
    with open(os.path.join(tmp, "postings.parquet"), "wb") as f:
        f.write(b"partial")
    res = sync_index(src_idx, dst)
    assert res["removed"] == [9] and not os.path.exists(stale)
    assert not os.path.exists(tmp)
    assert _answers(dst) == _answers(src_idx)


def test_sync_checksum_catches_same_size_drift(src_idx, tmp_path_factory):
    dst = str(tmp_path_factory.mktemp("sync_dst4"))
    sync_index(src_idx, dst)
    # flip bytes in a replica file without changing its size
    victim = os.path.join(part_dir(dst, 2), "forward.parquet")
    with open(victim, "r+b") as f:
        f.seek(100)
        b = f.read(4)
        f.seek(100)
        f.write(bytes(x ^ 0xFF for x in b))
    assert sync_index(src_idx, dst)["copied"] == []  # size-only trust misses it
    assert verify_sync(src_idx, dst, checksum=True)["differs"] == [2]
    res = sync_index(src_idx, dst, checksum=True)
    assert res["copied"] == [2]
    assert verify_sync(src_idx, dst, checksum=True)["differs"] == []


def test_sync_cli(src_idx, tmp_path_factory, capsys):
    from miru_ray.__main__ import main

    dst = str(tmp_path_factory.mktemp("sync_dst5"))
    assert main(["sync", "--src", src_idx, "--dst", dst]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["copied"] == list(range(N_PARTS))
    assert main(["sync", "--src", src_idx, "--dst", dst, "--verify"]) == 0
    audit = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert audit["differs"] == [] and audit["stale_in_dst"] == []


def test_sync_recovers_crashed_swap(src_idx, tmp_path_factory):
    """A crash between the two swap renames leaves part= missing and
    .sync-old- present; the next sync restores the partition before doing
    anything else (a replica partition must never stay absent)."""
    dst = str(tmp_path_factory.mktemp("sync_dst6"))
    sync_index(src_idx, dst)
    os.rename(part_dir(dst, 2), os.path.join(dst, ".sync-old-00002"))
    res = sync_index(src_idx, dst)
    # restored (equal content) → skipped, not re-copied
    assert 2 in res["skipped"] and res["copied"] == []
    assert os.path.exists(part_dir(dst, 2))
    assert not os.path.exists(os.path.join(dst, ".sync-old-00002"))
    assert _answers(dst) == _answers(src_idx)


def test_replica_failover_corrupt_partition(src_idx, tmp_path_factory, drop_resident):
    """Replica-aware failover (MiruLowestLatencySolver.java:50-205 analogue,
    failure-triggered): with one primary partition's postings corrupted,
    a replica-configured engine still returns rank-identical answers; the
    replica-less engine fails."""
    rep = str(tmp_path_factory.mktemp("failover_rep"))
    sync_index(src_idx, rep)
    want = _answers(src_idx)

    # corrupt one partition's postings file in the PRIMARY
    victim = os.path.join(part_dir(src_idx, 1), "postings.parquet")
    with open(victim, "wb") as f:
        f.write(b"not a parquet file")
    # drop the resident partitions (the corruption keeps the manifest epoch)
    drop_resident()

    broken = SearchEngine(src_idx)
    with pytest.raises(Exception):
        broken.search("t1 t7", k=10, scoring="bm25", parallel=False)

    eng = SearchEngine(src_idx, replicas=[rep])
    hits, found = eng.search("t1 t7", k=10, scoring="bm25", parallel=False)
    assert (found, [(h.conv_id, h.turn_idx, round(h.score, 5)) for h in hits]) == want
    # the actor pool takes the same failover path
    hits_p, found_p = eng.search("t1 t7", k=10, scoring="bm25", parallel=True)
    assert (found_p, [(h.conv_id, h.turn_idx, round(h.score, 5)) for h in hits_p]) == want


def test_replica_failover_missing_partition(src_idx, tmp_path_factory):
    """A partition whose DIRECTORY was removed from the primary is still
    asked (expected part set comes from the manifest when replicas are
    configured) and answered by the replica — not silently dropped."""
    rep = str(tmp_path_factory.mktemp("failover_rep2"))
    sync_index(src_idx, rep)
    want = _answers(src_idx, query="NOT t2")

    shutil.rmtree(part_dir(src_idx, 2))
    eng = SearchEngine(src_idx, replicas=[rep])
    assert len(eng.parts) == N_PARTS  # manifest-expected parts, not disk scan
    hits, found = eng.search("NOT t2", k=10, scoring="bm25", parallel=False)
    assert (found, [(h.conv_id, h.turn_idx, round(h.score, 5)) for h in hits]) == want
    # without replicas the vanished partition silently narrows the answer
    naked = SearchEngine(src_idx)
    _, found_naked = naked.search("NOT t2", k=10, scoring="bm25", parallel=False)
    assert found_naked < found


def test_stats_fails_over_to_replica_manifest(src_idx, tmp_path_factory, drop_resident):
    """stats() on a replica-configured engine whose primary lost a
    partition dir reads that partition's manifest from the replica, as
    search does, and equals the fault-free stats()."""
    rep = str(tmp_path_factory.mktemp("failover_rep_stats"))
    sync_index(src_idx, rep)
    want = SearchEngine(src_idx).stats()

    shutil.rmtree(part_dir(src_idx, 3))
    drop_resident()
    eng = SearchEngine(src_idx, replicas=[rep])
    assert eng.stats() == want
    assert eng.search("t1 t7", k=5, parallel=False)[1] > 0


def test_replica_failover_time_range_and_serial_and_suggest(src_idx, tmp_path_factory,
                                                          drop_resident):
    """Review regressions: a vanished primary partition must not crash the
    zone-map prune walk (time_range), the serial solver, or the suggest
    df walk — all fail over to the replica."""
    rep = str(tmp_path_factory.mktemp("failover_rep3"))
    sync_index(src_idx, rep)
    ref = SearchEngine(src_idx)
    tr = (0, 10**18)
    want_tr = ref.search("t1", k=10, scoring="bm25", time_range=tr, parallel=False)
    want_serial = ref.search_serial("t1 t7", k=10, scoring="bm25")
    want_suggest = ref.suggest("t1", k=5)

    shutil.rmtree(part_dir(src_idx, 1))
    drop_resident()

    eng = SearchEngine(src_idx, replicas=[rep])
    got_tr = eng.search("t1", k=10, scoring="bm25", time_range=tr, parallel=False)
    assert got_tr[1] == want_tr[1]
    assert [(h.conv_id, h.turn_idx) for h in got_tr[0]] == [
        (h.conv_id, h.turn_idx) for h in want_tr[0]
    ]
    got_serial = eng.search_serial("t1 t7", k=10, scoring="bm25")
    assert got_serial[1] == want_serial[1]
    assert [(h.conv_id, h.turn_idx) for h in got_serial[0]] == [
        (h.conv_id, h.turn_idx) for h in want_serial[0]
    ]
    assert eng.suggest("t1", k=5) == want_suggest


def test_replica_failover_extend_opened_partition(
    ray_session, tiny_transcripts_dir, tmp_path_factory, drop_resident
):
    """A partition opened by an extend epoch (range rollover) is part of
    the expected set too: losing its dir on the primary fails over instead
    of silently narrowing the answer."""
    import glob as _glob

    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from miru_ray.build import build_index, extend_index

    t = pa.concat_tables(
        [pq.read_table(f) for f in sorted(_glob.glob(tiny_transcripts_dir + "/*.parquet"))]
    )
    t = t.take(pc.sort_indices(t, sort_keys=[("conv_id", "ascending"), ("turn_idx", "ascending")]))
    half = t.num_rows // 2
    src1 = str(tmp_path_factory.mktemp("feo_src1"))
    src2 = str(tmp_path_factory.mktemp("feo_src2"))
    pq.write_table(t.slice(0, half), os.path.join(src1, "a.parquet"))
    pq.write_table(t.slice(half), os.path.join(src2, "b.parquet"))
    idx = str(tmp_path_factory.mktemp("feo_idx"))
    build_index(src1, idx, n_parts=2, partitioning="range")
    meta = extend_index(src2, idx)
    opened = [p for p in meta["epochs"][-1]["parts_updated"]
              if p not in meta.get("parts_built", [])]
    assert opened, "extend should have opened new range partitions"
    rep = str(tmp_path_factory.mktemp("feo_rep"))
    sync_index(idx, rep)
    ref_found = SearchEngine(idx).count("t1")
    shutil.rmtree(part_dir(idx, opened[-1]))
    drop_resident()
    eng = SearchEngine(idx, replicas=[rep])
    assert opened[-1] in eng.parts
    assert eng.count("t1") == ref_found


def test_manifest_negative_cache(src_idx, monkeypatch, drop_resident):
    """ADVICE r4: a missing partition manifest caches as None and counts
    as a HIT — the old .get(key) retrieval re-read the missing file on
    every _ts_bounds call in replica mode."""
    calls = {"n": 0}
    from miru_ray import segments as seg

    orig = seg.read_manifest

    def counting(index_dir, part):
        calls["n"] += 1
        return orig(index_dir, part)

    monkeypatch.setattr(seg, "read_manifest", counting)
    drop_resident()
    # part 99 does not exist: first call reads (miss), second must hit
    assert seg.partition(src_idx, 99).manifest is None
    first = calls["n"]
    assert seg.partition(src_idx, 99).manifest is None
    assert calls["n"] == first  # cached None treated as a hit


def test_replica_racing_slow_primary(src_idx, tmp_path_factory, monkeypatch):
    """VERDICT r5 #5: with a warmed latency window, a pool slice that
    stalls past the suggested timeout is RACED: the driver answers its
    partitions from the replica — rank-identical to the all-primary answer
    and far faster than waiting out the slow primary."""
    import time

    import ray

    from miru_ray import search as S

    rep = str(tmp_path_factory.mktemp("race_rep"))
    sync_index(src_idx, rep)
    want = _answers(src_idx)

    primary = os.path.abspath(src_idx)

    class SlowPrimary(S.PartitionSearcher):
        def run(self, fn, parts, kwargs):
            import os as _os
            import time as _time

            if _os.path.abspath(self.index_dir) == primary and 0 in parts:
                _time.sleep(2.0)  # the congested primary
            return super().run(fn, parts, kwargs)

    monkeypatch.setattr(S, "PartitionSearcher", SlowPrimary)

    eng = SearchEngine(src_idx, replicas=[rep])
    try:
        eng._ensure_actors()
        ray.get([a.run.remote(S.search_partition, [], {}) for a in eng._actors])  # pool up
        eng._lat.extend([0.005] * 32)  # warm window → suggested timeout 50 ms
        assert eng._suggested_timeout() is not None
        t0 = time.monotonic()
        hits, found = eng.search("t1 t7", k=10, scoring="bm25", parallel=True)
        dt = time.monotonic() - t0
        assert (found, [(h.conv_id, h.turn_idx, round(h.score, 5)) for h in hits]) == want
        assert dt < 1.0, dt  # the replica answered; we never waited out the sleep
    finally:
        eng.close()

    # cold engine (no latency samples) never races: suggestion is None
    cold = SearchEngine(src_idx, replicas=[rep])
    assert cold._suggested_timeout() is None


def test_latency_samples_exclude_failover(src_idx, tmp_path_factory, monkeypatch):
    """The racing trigger samples only the primary attempt: a failing
    primary followed by a slow replica leaves the replica's time out of
    the latency window."""
    import time

    from miru_ray import search as S

    rep = str(tmp_path_factory.mktemp("lat_rep"))
    sync_index(src_idx, rep)
    primary = os.path.abspath(src_idx)
    orig = S.search_partition

    def primary_down(index_dir, part, **kw):
        if os.path.abspath(index_dir) == primary:
            raise OSError("primary down")
        time.sleep(0.2)  # the slow replica
        return orig(index_dir, part, **kw)

    monkeypatch.setattr(S, "search_partition", primary_down)
    eng = SearchEngine(src_idx, replicas=[rep])
    eng.search("t1 t7", k=10, scoring="bm25", parallel=False)
    assert len(eng._lat) == N_PARTS
    assert max(eng._lat) < 0.2


def test_plugin_failover_corrupt_partition(src_idx, tmp_path_factory, drop_resident):
    """Plugins run on the engine's fan-out, so they fail over too: with a
    corrupt primary partition, distincts on a replica-configured engine
    answers like the fault-free engine."""
    from miru_ray import plugins

    rep = str(tmp_path_factory.mktemp("plugin_rep"))
    sync_index(src_idx, rep)
    want = plugins.distincts(SearchEngine(src_idx), "text", prefix="t", query="t1")
    assert want

    victim = os.path.join(part_dir(src_idx, 1), "postings.parquet")
    with open(victim, "wb") as f:
        f.write(b"not a parquet file")
    drop_resident()

    with pytest.raises(Exception):
        plugins.distincts(SearchEngine(src_idx), "text", prefix="t", query="t1")
    eng = SearchEngine(src_idx, replicas=[rep])
    try:
        assert plugins.distincts(eng, "text", prefix="t", query="t1") == want
        assert eng._actors  # answered on the pool
    finally:
        eng.close()


def test_cli_keeps_callers_ray_session(src_idx, tmp_path_factory):
    """``main`` shuts down only a Ray session it started: an in-process
    caller's session stays up."""
    import ray

    from miru_ray.__main__ import main

    dst = str(tmp_path_factory.mktemp("cli_dst"))
    assert ray.is_initialized()
    assert main(["sync", "--src", src_idx, "--dst", dst]) == 0
    assert ray.is_initialized()
