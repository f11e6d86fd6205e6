"""Range (time-segment) partitioning: the reference's partition rollover
model (MiruPartitioner.java:106-165, MiruPartitionCursor.java:25-27) —
partitions are closed contiguous ranges of the global (conv_id, turn_idx)
row order, which (for a time-ordered stream) makes them disjoint time
segments and the TIME evaluator's partition-walk short-circuit sound
(FullTextAnswerEvaluator.java:18-35)."""

import glob
import os
import shutil

import pytest

from miru_ray.build import build_index, extend_index, repair_partitions
from miru_ray.search import SearchEngine
from miru_ray.segments import read_manifest

QUERIES = [
    "t1 t7",
    "t1 OR w00999",
    "NOT t2",
    "w004*",
    "role:tool t3",
    "turn_idx:[3 TO 7] t1",
]


def _key(hits):
    return [(h.conv_id, h.turn_idx) for h in hits]


@pytest.fixture(scope="module")
def hash_index(ray_session, tiny_transcripts_dir, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("idx_hash"))
    build_index(tiny_transcripts_dir, d, n_parts=4)
    return d


@pytest.fixture(scope="module")
def range_index(ray_session, tiny_transcripts_dir, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("idx_range"))
    build_index(tiny_transcripts_dir, d, n_parts=4, partitioning="range")
    return d


def test_range_manifest_and_zone_maps(range_index, tiny_rows):
    eng = SearchEngine(range_index)
    assert eng.meta["partitioning"]["mode"] == "range"
    R = eng.meta["partitioning"]["rows_per_part"]
    total = sum(
        read_manifest(range_index, p)["metrics"]["n_docs"] for p in eng.parts
    )
    assert total == len(tiny_rows)
    assert eng.meta["total_rows"] == len(tiny_rows)
    # closed segments: all full except possibly the last
    for p in eng.parts:
        n = read_manifest(range_index, p)["metrics"]["n_docs"]
        assert n == R or p == max(eng.parts)
    # disjoint, ordered ts zone maps (ts monotone in row order for the
    # fixture) — the property the TIME early exit exploits
    bounds = [eng._ts_bounds(p) for p in sorted(eng.parts)]
    assert all(b is not None for b in bounds)
    for (lo1, hi1), (lo2, hi2) in zip(bounds, bounds[1:]):
        assert hi1 < lo2


def test_range_vs_hash_parity(hash_index, range_index):
    """TIME and match results are partitioning-invariant (BM25/TF-IDF are
    not: df/n_docs/avg_dl are per-partition by design, as in the
    reference)."""
    eh, er = SearchEngine(hash_index), SearchEngine(range_index)
    for q in QUERIES:
        h1, _ = eh.search(q, k=15, scoring="time")
        h2, _ = er.search(q, k=15, scoring="time")
        assert _key(h1) == _key(h2), q
        m1 = sorted(
            (r["conv_id"][i], int(r["turn_idx"][i]))
            for r in eh.match(q)
            for i in range(len(r["doc_id"]))
        )
        m2 = sorted(
            (r["conv_id"][i], int(r["turn_idx"][i]))
            for r in er.match(q)
            for i in range(len(r["doc_id"]))
        )
        assert m1 == m2, q


def test_time_early_exit_asks_fewer_partitions(range_index):
    eng = SearchEngine(range_index)
    full, _ = eng.search("t1", k=5, scoring="time", parallel=True)
    asked_parallel = eng.last_parts_asked
    # serial walk (wave width 1): must stop before asking every partition —
    # t1 is a common term, so the newest partition alone supplies k hits
    hits, _ = eng.search("t1", k=5, scoring="time", parallel=False)
    assert eng.last_parts_asked < len(eng.parts)
    assert eng.last_parts_asked == 1
    assert _key(hits) == _key(full)


def test_time_early_exit_rare_term_walks_deeper(range_index):
    """A term confined to old partitions forces the walk past the newest —
    exit fires only when enough hits are banked, never early-wrong."""
    eng = SearchEngine(range_index)
    all_hits, _ = eng.search("t1", k=200, scoring="time", parallel=True)
    hits, _ = eng.search("t1", k=200, scoring="time", parallel=False)
    assert _key(hits) == _key(all_hits)


def test_time_range_zone_pruning(range_index, hash_index):
    er, eh = SearchEngine(range_index), SearchEngine(hash_index)
    bounds = {p: er._ts_bounds(p) for p in er.parts}
    ps = sorted(er.parts)
    lo = bounds[ps[1]][0]
    hi = bounds[ps[2]][1]
    h1, _ = er.search("t1", k=50, scoring="time", time_range=(lo, hi))
    assert er.last_parts_asked <= 2  # zone maps exclude the other partitions
    h2, _ = eh.search("t1", k=50, scoring="time", time_range=(lo, hi))
    assert _key(h1) == _key(h2)
    # empty range: nothing asked, nothing returned
    h3, _ = er.search("t1", k=10, scoring="time", time_range=(0, 1))
    assert er.last_parts_asked == 0 and h3 == []


def test_range_build_without_bases_matrix_many_parts(
    ray_session, tiny_transcripts_dir, tmp_path_factory
):
    """Range mode has NO (n_files × n_parts) offset matrix — partition and
    docId are arithmetic over one scalar row offset per file, so tiny
    rows_per_part (many partitions) builds without any dense broadcast."""
    d = str(tmp_path_factory.mktemp("idx_many"))
    meta = build_index(
        tiny_transcripts_dir, d, n_parts=8, partitioning="range", rows_per_part=64
    )
    assert meta["n_parts"] > 32
    eng = SearchEngine(d)
    hits, _ = eng.search("t1 t7", k=10, scoring="time")
    assert len(hits) == 10


def test_range_extend_rollover_equals_full_build(
    ray_session, tiny_transcripts_dir, tmp_path_factory
):
    from miru_ray.fixtures import ensure_transcripts

    sharded = ensure_transcripts(
        "tiny", base_dir="/tmp/miru_ray_fixtures_sharded", shard_rows=1000
    )
    files = sorted(glob.glob(os.path.join(sharded, "*.parquet")))
    assert len(files) >= 3
    d_ext = str(tmp_path_factory.mktemp("idx_ext"))
    d_full = str(tmp_path_factory.mktemp("idx_full"))
    m1 = build_index(files[:-1], d_ext, n_parts=4, partitioning="range")
    R = m1["partitioning"]["rows_per_part"]
    g = extend_index(files[-1:], d_ext)
    build_index(
        files, d_full, n_parts=g["n_parts"], partitioning="range", rows_per_part=R
    )
    e1, e2 = SearchEngine(d_ext), SearchEngine(d_full)
    assert sorted(e1.parts) == sorted(e2.parts)
    for q in QUERIES:
        h1, _ = e1.search(q, k=20, scoring="time")
        h2, _ = e2.search(q, k=20, scoring="time")
        assert [(h.conv_id, h.turn_idx, h.doc_id, h.part) for h in h1] == [
            (h.conv_id, h.turn_idx, h.doc_id, h.part) for h in h2
        ], q
        b1, _ = e1.search(q, k=20, scoring="bm25")
        b2, _ = e2.search(q, k=20, scoring="bm25")
        assert _key(b1) == _key(b2), q
    # idempotent re-extend (epoch already committed): global no-op
    g2 = extend_index(files[-1:], d_ext)
    assert g2["total_rows"] == g["total_rows"]
    # out-of-order extend refused
    with pytest.raises(ValueError):
        extend_index(files[0], d_ext)


def test_range_repair_preserves_results(
    ray_session, tiny_transcripts_dir, tmp_path_factory
):
    d = str(tmp_path_factory.mktemp("idx_rep"))
    build_index(tiny_transcripts_dir, d, n_parts=4, partitioning="range")
    before, _ = SearchEngine(d).search("t1 t7", k=20, scoring="time")
    repair_partitions(d, tiny_transcripts_dir, [1])
    after, _ = SearchEngine(d).search("t1 t7", k=20, scoring="time")
    assert [(h.conv_id, h.turn_idx, h.doc_id, h.part) for h in before] == [
        (h.conv_id, h.turn_idx, h.doc_id, h.part) for h in after
    ]


def test_range_actor_subset_fanout(range_index):
    """Actor-pool engine with zone pruning: the subset fan-out path (each
    owning actor answers only its pruned slice) returns the same answer as
    the in-process path."""
    eng = SearchEngine(range_index)
    try:
        bounds = {p: eng._ts_bounds(p) for p in eng.parts}
        ps = sorted(eng.parts)
        lo, hi = bounds[ps[1]][0], bounds[ps[2]][1]
        h1, _ = eng.search("t1", k=50, scoring="time", time_range=(lo, hi), parallel=True)
        h2, _ = eng.search("t1", k=50, scoring="time", time_range=(lo, hi), parallel=False)
        assert _key(h1) == _key(h2)
        # and an unpruned query through the actors still answers everything
        h3, _ = eng.search("t1 t7", k=10, scoring="bm25", parallel=True)
        h4, _ = eng.search("t1 t7", k=10, scoring="bm25", parallel=False)
        assert _key(h3) == _key(h4)
    finally:
        eng.close()
