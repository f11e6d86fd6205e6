"""Partition retention (age-out): whole-partition expiry gated on the ts
zone map — effective under range (time-segment) partitioning, provably a
no-op under hash partitioning."""

import os

import pytest

from miru_ray.build import build_index, expire_partitions
from miru_ray.search import SearchEngine
from miru_ray.segments import completed_parts

N_PARTS = 4


@pytest.fixture()
def range_idx(ray_session, tiny_transcripts_dir, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("idx_retention"))
    build_index(tiny_transcripts_dir, d, n_parts=N_PARTS, partitioning="range")
    return d


def _bounds(idx):
    eng = SearchEngine(idx)
    return {p: eng._ts_bounds(p) for p in eng.parts}


def test_expire_range_partitions(range_idx):
    b = _bounds(range_idx)
    assert all(v is not None for v in b.values())
    # range partitions are time-disjoint; cut at the second-oldest boundary
    order = sorted(b, key=lambda p: b[p][0])
    cutoff = b[order[2]][0]
    old_parts = sorted(p for p in b if b[p][1] < cutoff)
    assert old_parts == sorted(order[:2])

    dry = expire_partitions(range_idx, cutoff, dry_run=True)
    assert dry["expired"] == old_parts and dry["freed_bytes"] > 0
    assert sorted(completed_parts(range_idx)) == sorted(b)  # nothing deleted

    res = expire_partitions(range_idx, cutoff)
    assert res["expired"] == old_parts and res["freed_bytes"] == dry["freed_bytes"]
    assert sorted(completed_parts(range_idx)) == sorted(order[2:])

    # the surviving index answers only in-retention docs
    eng = SearchEngine(range_idx)
    for r in eng.match("t1"):
        assert all(int(t) >= cutoff for t in r["ts"])
    hits, found = eng.search("t1", k=5, scoring="time")
    assert found > 0 and all(h.ts >= cutoff for h in hits)

    # idempotent; audit trail in the global manifest
    res2 = expire_partitions(range_idx, cutoff)
    assert res2["expired"] == [] and sorted(res2["kept"]) == sorted(order[2:])
    from miru_ray.segments import read_global_manifest

    hist = read_global_manifest(range_idx)["expired"]
    assert hist[-1]["parts"] == old_parts
    # no half-deleted tomb dirs remain
    assert not [n for n in os.listdir(range_idx) if n.startswith(".expired-")]


def test_expire_hash_partitions_is_noop(ray_session, tiny_transcripts_dir,
                                        tmp_path_factory):
    d = str(tmp_path_factory.mktemp("idx_retention_hash"))
    build_index(tiny_transcripts_dir, d, n_parts=N_PARTS)  # hash partitioning
    b = _bounds(d)
    mid = sorted(v[0] for v in b.values())[N_PARTS // 2]
    # hash zones all span the timeline: nothing provably expired
    res = expire_partitions(d, mid)
    assert res["expired"] == [] and sorted(res["kept"]) == sorted(b)
    assert sorted(completed_parts(d)) == sorted(b)


def test_expire_cli(range_idx, capsys):
    import json

    from miru_ray.__main__ import main

    b = _bounds(range_idx)
    cutoff = sorted(v[0] for v in b.values())[1]
    assert main(["expire", "--index", range_idx, "--older-than", str(cutoff),
                 "--dry-run"]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert len(out["expired"]) == 1 and out["freed_bytes"] > 0
    assert sorted(completed_parts(range_idx)) == sorted(b)  # dry run


def test_expired_parts_not_resurrected_by_replicas(
    range_idx, tmp_path_factory
):
    """ADVICE r4: expire leaves parts_built untouched, so a
    replica-configured engine must subtract the manifest's expire history
    from its expected part set — otherwise a replica still holding the
    aged-out partition silently resurrects expired docs, and a replica
    without it fails the whole query."""
    from miru_ray.sync import sync_index

    rep = str(tmp_path_factory.mktemp("retention_rep"))
    sync_index(range_idx, rep)  # replica holds EVERY partition

    b = _bounds(range_idx)
    order = sorted(b, key=lambda p: b[p][0])
    cutoff = b[order[2]][0]
    res = expire_partitions(range_idx, cutoff)
    assert res["expired"] == sorted(order[:2])

    naked = SearchEngine(range_idx)
    want = naked.count("t1")

    eng = SearchEngine(range_idx, replicas=[rep])
    assert set(eng.parts) == set(order[2:])  # expired parts subtracted
    assert eng.count("t1") == want  # no resurrection from the replica


def test_reopened_partition_not_subtracted(range_idx, tmp_path_factory):
    """Review r5: a partition expired and then RE-OPENED by a later
    extend epoch must stay in the replica-mode expected set — the expire
    record's after_epoch cursor orders the two events."""
    import json

    from miru_ray.segments import read_global_manifest, write_global_manifest
    from miru_ray.sync import sync_index

    rep = str(tmp_path_factory.mktemp("retention_rep2"))
    sync_index(range_idx, rep)
    b = _bounds(range_idx)
    order = sorted(b, key=lambda p: b[p][0])
    cutoff = b[order[1]][0]
    res = expire_partitions(range_idx, cutoff)
    victim = res["expired"][0]

    # simulate a later epoch re-opening the expired partition
    meta = read_global_manifest(range_idx)
    epochs = list(meta.get("epochs", []))
    epochs.append({"parts_updated": [victim]})
    write_global_manifest(range_idx, dict(meta, epochs=epochs))

    eng = SearchEngine(range_idx, replicas=[rep])
    assert victim in eng.parts  # re-opened: not subtracted
    # a partition expired and never re-opened stays subtracted
    for p in res["expired"][1:]:
        assert p not in eng.parts


def test_legacy_expire_record_counts_as_cut_zero(range_idx, tmp_path_factory):
    """An expire record written before the after_epoch cursor existed is
    read as cut 0: a partition any extend epoch re-opened stays in the
    replica-mode expected set, so it is still asked (from the replica)."""
    from miru_ray.segments import read_global_manifest, write_global_manifest
    from miru_ray.sync import sync_index

    rep = str(tmp_path_factory.mktemp("retention_rep3"))
    sync_index(range_idx, rep)
    b = _bounds(range_idx)
    order = sorted(b, key=lambda p: b[p][0])
    res = expire_partitions(range_idx, b[order[1]][0])
    victim = res["expired"][0]

    meta = read_global_manifest(range_idx)
    legacy = [{k: v for k, v in x.items() if k != "after_epoch"} for x in meta["expired"]]
    epochs = list(meta.get("epochs", [])) + [{"parts_updated": [victim]}]
    write_global_manifest(range_idx, dict(meta, expired=legacy, epochs=epochs))

    eng = SearchEngine(range_idx, replicas=[rep])
    assert victim not in completed_parts(range_idx)
    assert victim in eng.parts
    for p in res["expired"][1:]:
        assert p not in eng.parts
