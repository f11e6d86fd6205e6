"""End-to-end gates (FIXTURES.md F4): posting contents vs brute force,
per-turn text equality, top-k rank identity vs the oracle, resume,
parallelism/chunking invariance."""

import glob
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from miru_ray.build import build_index
from miru_ray.codec import decode_posting
from miru_ray.oracle import oracle_search
from miru_ray.search import Hit, SearchEngine, search_partition
from miru_ray.segments import FIELD_SEP, completed_parts, partition, read_manifest

N_PARTS = 4

# FIXTURES.md F2 query families
QUERIES = [
    "t3",
    "t1 t7",
    "t1 AND t7 AND w00042",
    "t1 t2 t3 t4 t5",
    "t1 OR w00999",
    "t1 OR t2 OR t3",
    "t1 AND NOT t9",
    "NOT t2",
    "t1 t1 w00042",
    "w004*",
    "role:tool t3",
    "conv-00000007",  # tokenizes to conv + 00000007 (AND)
    "t1 AND (t2 OR t3)",
    "tf tf tf",
    # numeric range terms (Prefix.NUMERIC composition)
    "turn_idx:[3 TO 7] t1",
    "turn_idx:{0 TO 5} t3",
    "turn_idx:[30 TO *]",
    "t1 AND NOT turn_idx:[0 TO 10]",
    # fuzzy terms (Lucene FuzzyQuery syntax; dictionary + Levenshtein≤k)
    "t1~1",
    "w00042~1 t1",
    "t1 AND NOT t9~1",
    "w00042~2 OR t3",
    # regexp terms (Lucene RegexpQuery syntax; dictionary + anchored RE2)
    "/t[13]/",
    "/w00[45].*/ t1",
    "t1 AND NOT /t[29]/",
    # integer boosts (collector-count multiplication)
    "t1^3 t7",
    "t1^2 OR t2",
]


@pytest.fixture(scope="module")
def index_dir(ray_session, tiny_transcripts_dir, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("idx"))
    build_index(tiny_transcripts_dir, d, n_parts=N_PARTS)
    return d


@pytest.fixture(scope="module")
def engine(index_dir):
    return SearchEngine(index_dir)


def test_build_manifests(index_dir, tiny_rows):
    parts = completed_parts(index_dir)
    assert parts == list(range(N_PARTS))
    total = sum(read_manifest(index_dir, p)["metrics"]["n_docs"] for p in parts)
    assert total == len(tiny_rows)


def test_posting_contents_vs_oracle(index_dir, tiny_oracle):
    """F4.1/F4.2: decoded segment postings == brute-force postings (docIds,
    tfs, df, Σtf) for every term of every partition."""
    for p, opart in tiny_oracle.items():
        t = pq.read_table(os.path.join(index_dir, f"part={p:05d}", "postings.parquet"))
        seen = set()
        for i in range(t.num_rows):
            key = t["term"][i].as_py()
            field, term = key.split(FIELD_SEP, 1)
            docs, tfs = decode_posting(
                t["doc_bytes"][i].as_py(),
                t["tf_bytes"][i].as_py(),
                np.asarray(t["blk_first"][i].as_py()),
                np.asarray(t["blk_count"][i].as_py()),
            )
            exp = opart.post[field][term]
            exp_docs = sorted(exp)
            assert list(docs) == exp_docs, (p, field, term)
            assert list(tfs) == [exp[d] for d in exp_docs], (p, field, term)
            assert t["df"][i].as_py() == len(exp)
            assert t["ttf"][i].as_py() == sum(exp.values())
            seen.add((field, term))
        # completeness: every oracle term is present
        for field, post in opart.post.items():
            for term in post:
                assert (field, term) in seen, (p, field, term)


def test_per_turn_text_equality(index_dir, tiny_rows, tiny_oracle):
    """F4.4 (the BASELINE.json per-row invariant): docId → (conv_id,
    turn_idx) → original text row, under stable ordering."""
    by_key = {(r["conv_id"], r["turn_idx"]): r for r in tiny_rows}
    for p in completed_parts(index_dir):
        f = partition(index_dir, p).forward_table()
        d = f.to_pydict()
        assert d["doc_id"] == list(range(f.num_rows))
        keys = list(zip(d["conv_id"], d["turn_idx"]))
        assert keys == sorted(keys)  # stable (conv_id, turn_idx) order
        opart = tiny_oracle[p]
        for i in range(f.num_rows):
            r = by_key[keys[i]]
            assert r["role"] == d["role"][i]
            assert r["ts"] == d["ts"][i]
            # text equality via the oracle's tokenized copy
            assert opart.conv_id[i] == d["conv_id"][i]
            assert opart.turn_idx[i] == d["turn_idx"][i]


def _assert_rank_identical(hits: list[Hit], ohits, scores_rtol=2e-5):
    got = [(h.part, h.doc_id) for h in hits]
    exp = [(h.part, h.doc_id) for h in ohits]
    assert got == exp
    np.testing.assert_allclose(
        [h.score for h in hits], [h.score for h in ohits], rtol=scores_rtol, atol=1e-7
    )
    assert [(h.conv_id, h.turn_idx, h.ts) for h in hits] == [
        (h.conv_id, h.turn_idx, h.ts) for h in ohits
    ]


@pytest.mark.parametrize("query", QUERIES)
def test_rank_identity_tfidf(engine, tiny_oracle, query):
    """F4.3: engine top-k == oracle top-k (§3.3 contract), k ∈ {1,10,100}."""
    for k in (1, 10, 100):
        hits, found = engine.search(query, k=k)
        ohits, ofound = oracle_search(tiny_oracle, query, k=k)
        assert found == ofound, (query, k)
        _assert_rank_identical(hits, ohits)


@pytest.mark.parametrize("query", ["t3", "t1 t7", "t1 OR w00999", "w004*", "t1 AND NOT t9"])
def test_rank_identity_lmd(engine, tiny_oracle, query):
    """Dirichlet query-likelihood scorer (scoring="lmd"): engine fp32 path
    rank- and score-identical to the scalar oracle, like bm25/tfidf."""
    for k in (1, 10, 50):
        hits, found = engine.search(query, k=k, scoring="lmd")
        ohits, ofound = oracle_search(tiny_oracle, query, k=k, scoring="lmd")
        assert found == ofound
        _assert_rank_identical(hits, ohits)


@pytest.mark.parametrize("query", ["t3", "t1 t7", "t1 OR w00999", "w004*"])
def test_rank_identity_bm25(engine, tiny_oracle, query):
    for k in (1, 10, 50):
        hits, found = engine.search(query, k=k, scoring="bm25")
        ohits, ofound = oracle_search(tiny_oracle, query, k=k, scoring="bm25")
        assert found == ofound
        _assert_rank_identical(hits, ohits)


def test_rank_identity_time(engine, tiny_oracle):
    # exhaustive mode: hits AND found identical to the all-partition oracle
    hits, found = engine.search("t1 t7", k=20, scoring="time", early_exit=False)
    ohits, ofound = oracle_search(tiny_oracle, "t1 t7", k=20, scoring="time")
    assert found == ofound
    assert [(h.part, h.doc_id) for h in hits] == [(h.part, h.doc_id) for h in ohits]
    assert all(h.score == 0.0 for h in hits)
    # default mode: the zone-map early exit may skip partitions (found then
    # counts only asked partitions, like the reference's short-circuited
    # evaluator) but the HITS are identical
    ehits, efound = engine.search("t1 t7", k=20, scoring="time")
    assert [(h.part, h.doc_id) for h in ehits] == [(h.part, h.doc_id) for h in ohits]
    assert efound <= ofound


def test_rank_identity_time_range(engine, tiny_oracle):
    ts_values = sorted(ts for p in tiny_oracle.values() for ts in p.ts)
    lo, hi = ts_values[len(ts_values) // 4], ts_values[3 * len(ts_values) // 4]
    for q in ("t1 t7", "NOT t2"):
        hits, found = engine.search(q, k=10, time_range=(lo, hi))
        ohits, ofound = oracle_search(tiny_oracle, q, k=10, time_range=(lo, hi))
        assert found == ofound
        _assert_rank_identical(hits, ohits)


def test_serial_equals_parallel(engine):
    a, fa = engine.search("t1 t7", k=25, parallel=True)
    b, fb = engine.search("t1 t7", k=25, parallel=False)
    assert fa == fb
    assert [(h.part, h.doc_id, h.score) for h in a] == [
        (h.part, h.doc_id, h.score) for h in b
    ]


def _decoded(postings: pa.Table, i: int):
    return decode_posting(
        postings["doc_bytes"][i].as_py(), postings["tf_bytes"][i].as_py(),
        np.asarray(postings["blk_first"][i].as_py()),
        np.asarray(postings["blk_count"][i].as_py()),
    )


def assert_same_decoded_index(a: str, b: str) -> None:
    """Every partition of index ``a`` equals ``b``'s in forward table, term
    set and decoded (doc, tf) streams — block layout may differ."""
    assert completed_parts(a) == completed_parts(b)
    for p in completed_parts(a):
        assert partition(a, p).forward_table().equals(partition(b, p).forward_table()), p
        pa_ = pq.read_table(os.path.join(a, f"part={p:05d}", "postings.parquet"))
        pb = pq.read_table(os.path.join(b, f"part={p:05d}", "postings.parquet"))
        assert pa_["term"].to_pylist() == pb["term"].to_pylist(), p
        for i in range(pa_.num_rows):
            (d1, t1_), (d2, t2_) = _decoded(pa_, i), _decoded(pb, i)
            np.testing.assert_array_equal(d1, d2)
            np.testing.assert_array_equal(t1_, t2_)


def test_chunking_invariance(ray_session, tiny_transcripts_dir, inprocess_build, tmp_path):
    """F4.6: segment content independent of in-task chunk size (the two-stage
    merge must be lossless). FileIndexer + finalize_spilled_partition run in
    process, so the patched CHUNK_DOCS is the one they read."""
    import miru_ray.build as B

    files = sorted(glob.glob(tiny_transcripts_dir + "/*.parquet"))
    old = B.CHUNK_DOCS
    try:
        B.CHUNK_DOCS = 97
        inprocess_build(files, str(tmp_path / "c97"), str(tmp_path / "spill97"), N_PARTS)
        B.CHUNK_DOCS = 100_000
        inprocess_build(files, str(tmp_path / "c100k"), str(tmp_path / "spill100k"), N_PARTS)
    finally:
        B.CHUNK_DOCS = old
    a, b = str(tmp_path / "c97"), str(tmp_path / "c100k")
    assert completed_parts(a) == list(range(N_PARTS))
    for p in range(N_PARTS):
        ma, mb = read_manifest(a, p)["metrics"], read_manifest(b, p)["metrics"]
        for k in ("n_docs", "n_terms", "total_tokens"):
            assert ma[k] == mb[k], (p, k)
    # decoded postings identical (encoded bytes may differ in block splits)
    assert_same_decoded_index(a, b)


def test_resume_skips_completed(ray_session, tiny_transcripts_dir, tmp_path_factory, index_dir):
    """F4.5: restart after partial build → remaining partitions built,
    results identical to the uninterrupted build."""
    d = str(tmp_path_factory.mktemp("idx_resume"))
    # simulate a partial build: copy 2 completed partitions from the full one
    for p in (0, 2):
        shutil.copytree(
            os.path.join(index_dir, f"part={p:05d}"), os.path.join(d, f"part={p:05d}")
        )
    meta = build_index(tiny_transcripts_dir, d, n_parts=N_PARTS, resume=True)
    assert meta["parts_resumed"] == [0, 2]
    assert sorted(meta["parts_built"]) == [1, 3]
    # all four partitions' postings equal the reference build's
    for p in range(N_PARTS):
        a = pq.read_table(os.path.join(index_dir, f"part={p:05d}", "postings.parquet"))
        b = pq.read_table(os.path.join(d, f"part={p:05d}", "postings.parquet"))
        assert a.equals(b), p


def test_single_partition_direct_task(index_dir, tiny_oracle):
    """search_partition as a plain function (the unit the Ray tasks wrap)."""
    from miru_ray.oracle import score_partition

    p = max(tiny_oracle)
    r = search_partition(index_dir, p, "t1 t7", 10)
    ohits, ofound = score_partition(tiny_oracle[p], "t1 t7", 10)
    assert r["found"] == ofound
    assert list(r["doc_id"]) == [h.doc_id for h in ohits]


def test_auto_falls_back_on_unsorted_input(ray_session, tiny_transcripts_dir, tmp_path_factory, index_dir):
    """Files renamed out of conv order violate the streaming precondition;
    the phase-1 scan detects it and build_index sorts the rows once with
    Ray Data before the same streaming build. The sorted copy's file
    boundaries differ from the source's, so runs (and blocks) split
    differently: forward tables and decoded postings equal the sorted-input
    build's, and so do the answers."""
    src = str(tmp_path_factory.mktemp("shuffled_input"))
    t = pa.concat_tables(
        [pq.read_table(f) for f in sorted(glob.glob(tiny_transcripts_dir + "/*.parquet"))]
    )
    half = t.num_rows // 2
    # second half first → file-boundary order violated
    pq.write_table(t.slice(half), os.path.join(src, "shard-00000.parquet"))
    pq.write_table(t.slice(0, half), os.path.join(src, "shard-00001.parquet"))
    d = str(tmp_path_factory.mktemp("idx_fallback"))
    os.makedirs(os.path.join(d, ".presort-crashed"))  # left by a crashed build
    meta = build_index(src, d, n_parts=N_PARTS)
    # the caller's files stay the catch-up cursor; the sorted copies are gone
    assert meta["input_files"] == sorted(glob.glob(src + "/*.parquet"))
    assert not [n for n in os.listdir(d) if n.startswith(".presort")]
    assert_same_decoded_index(index_dir, d)
    a, b = SearchEngine(index_dir), SearchEngine(d)
    for q in ("t1 t7", "t1 OR w00042", "t1 AND NOT t9", "w004*", "role:tool t3"):
        for scoring in ("bm25", "time"):
            ha, fa = a.search(q, k=20, scoring=scoring)
            hb, fb = b.search(q, k=20, scoring=scoring)
            assert fa == fb, (q, scoring)
            assert [(h.part, h.doc_id, h.score) for h in ha] == [
                (h.part, h.doc_id, h.score) for h in hb
            ], (q, scoring)
    a.close()
    b.close()


def test_duplicate_key_raises(ray_session, tiny_transcripts_dir, tmp_path_factory):
    """A (conv_id, turn_idx) key present twice cannot get one docId: the
    build refuses, naming the key, after the pre-sort re-check."""
    src = str(tmp_path_factory.mktemp("dup_input"))
    t = pq.read_table(sorted(glob.glob(tiny_transcripts_dir + "/*.parquet"))[0])
    pq.write_table(t, os.path.join(src, "shard-00000.parquet"))
    pq.write_table(t.slice(5, 1), os.path.join(src, "shard-00001.parquet"))
    key = (t["conv_id"][5].as_py(), t["turn_idx"][5].as_py())
    d = str(tmp_path_factory.mktemp("idx_dup"))
    with pytest.raises(ValueError, match="duplicate") as ei:
        build_index(src, d, n_parts=N_PARTS)
    assert repr(key) in str(ei.value)
    assert completed_parts(d) == []


def test_foreign_codec_refuses_to_open(index_dir, tmp_path):
    """An index whose manifest names a codec other than varbyte (the only
    one this engine decodes) refuses to open, extend, compact or audit."""
    from miru_ray.audit import audit_partition
    from miru_ray.build import compact_partition, extend_index
    from miru_ray.segments import read_global_manifest, write_global_manifest

    d = str(tmp_path / "idx_raw32")
    shutil.copytree(index_dir, d)
    write_global_manifest(d, dict(read_global_manifest(index_dir), codec="raw32"))
    for op in (
        lambda: SearchEngine(d),
        lambda: extend_index(d, d),
        lambda: compact_partition(d, 0),
        lambda: audit_partition(d, 0),
    ):
        with pytest.raises(ValueError, match="raw32"):
            op()


def test_stale_format_refuses_to_open(index_dir, tiny_transcripts_dir, tmp_path):
    """An index of the previous format version (manifests at INDEX_VERSION
    - 1, no version in index.json) refuses to open, extend, compact or
    audit with a message that says to rebuild; before, its partitions read
    as absent and every query answered ([], 0). A resumed build over it
    rebuilds it."""
    import json

    from miru_ray.audit import audit_index
    from miru_ray.build import compact_index, extend_index
    from miru_ray.segments import INDEX_VERSION, manifest_path

    d = str(tmp_path / "idx_stale")
    shutil.copytree(index_dir, d)
    with open(os.path.join(d, "index.json")) as f:
        meta = json.load(f)
    meta.pop("version", None)
    with open(os.path.join(d, "index.json"), "w") as f:
        json.dump(meta, f)
    for p in range(N_PARTS):
        with open(manifest_path(d, p)) as f:
            m = json.load(f)
        with open(manifest_path(d, p), "w") as f:
            json.dump(dict(m, version=INDEX_VERSION - 1), f)
    for op in (
        lambda: SearchEngine(d).search("t1 t7", k=10, parallel=False),
        lambda: extend_index(tiny_transcripts_dir, d),
        lambda: compact_index(d),
        lambda: audit_index(d),
    ):
        with pytest.raises(ValueError, match="rebuild"):
            op()
    build_index(tiny_transcripts_dir, d, n_parts=N_PARTS, resume=True)
    want = SearchEngine(index_dir).search("t1 t7", k=10, parallel=False)
    assert SearchEngine(d).search("t1 t7", k=10, parallel=False) == want
    assert want[1] > 0


def test_actor_engine_equals_tasks(index_dir):
    """The partition-pinned actor pool returns the in-process answers (and
    caches across repeated queries)."""
    eng = SearchEngine(index_dir)
    try:
        for q in ("t1 t7", "t1 OR w00042", "NOT t2", "w004*"):
            a, fa = eng.search(q, k=15, parallel=False)
            for _ in range(2):  # second round exercises the warm cache
                b, fb = eng.search(q, k=15, parallel=True)
                assert fa == fb
                assert [(h.part, h.doc_id, h.score) for h in a] == [
                    (h.part, h.doc_id, h.score) for h in b
                ]
        assert eng._actors
    finally:
        eng.close()


def test_pool_survives_actor_kill(index_dir):
    """A pool actor that crashes is restarted by Ray and its call retried:
    the next search equals the fault-free answer."""
    import time

    import ray

    def pid(index_dir, part):
        return os.getpid()

    eng = SearchEngine(index_dir)
    try:
        want = eng.search("t1 t7", k=15, scoring="bm25", parallel=True)
        victim = eng._actors[0]
        old = ray.get(victim.run.remote(pid, [0], {}))[0]
        ray.kill(victim, no_restart=False)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:  # ray.kill returns before the process dies
            try:
                os.kill(old, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        got = eng.search("t1 t7", k=15, scoring="bm25", parallel=True)
        assert got[1] == want[1]
        assert [(h.part, h.doc_id, h.score) for h in got[0]] == [
            (h.part, h.doc_id, h.score) for h in want[0]
        ]
        assert ray.get(victim.run.remote(pid, [0], {}))[0] != old  # a restarted actor
    finally:
        eng.close()


def test_open_pool_holds_no_cpu(index_dir, tiny_transcripts_dir, tmp_path_factory):
    """Pool actors reserve no logical CPU: with an engine's pool up and left
    open, every cluster CPU stays available, and a build and an extend
    (Ray Data jobs that need CPUs) still complete."""
    import gc
    import time

    import ray

    from miru_ray.build import extend_index

    eng = SearchEngine(index_dir)
    eng.search("t1 t7", k=5, parallel=True)
    assert eng._actors
    total = ray.cluster_resources()["CPU"]
    gc.collect()  # a finished Ray Data job holds its CPU until collected
    deadline = time.monotonic() + 10
    while ray.available_resources().get("CPU", 0) != total and time.monotonic() < deadline:
        time.sleep(0.2)
    assert ray.available_resources().get("CPU", 0) == total

    t = pa.concat_tables(
        [pq.read_table(f) for f in sorted(glob.glob(tiny_transcripts_dir + "/*.parquet"))]
    )
    convs = sorted(set(t["conv_id"].to_pylist()))
    cut = convs[len(convs) // 2]
    first = str(tmp_path_factory.mktemp("pool_src1"))
    second = str(tmp_path_factory.mktemp("pool_src2"))
    pq.write_table(t.filter(pa.compute.less(t["conv_id"], cut)), os.path.join(first, "a.parquet"))
    pq.write_table(t.filter(pa.compute.greater_equal(t["conv_id"], cut)),
                   os.path.join(second, "b.parquet"))
    d = str(tmp_path_factory.mktemp("idx_pool_open"))
    build_index(first, d, n_parts=N_PARTS)
    assert extend_index(second, d)["epochs"][-1]["parts_updated"]
    assert eng.search("t1 t7", k=5, parallel=True)[1] > 0  # the pool still answers


@pytest.mark.parametrize(
    "query",
    [
        "t1 OR t2 OR t3", "t3", "t1 OR w00999", "w00042 OR w00123 OR t5",
        "t1 t7", "t1 AND t7 AND w00042", "t1 t2 t3 t4 t5", "t1 t1 w00042",
    ],
)
@pytest.mark.parametrize("scoring", ["ref_tfidf", "bm25"])
def test_wand_pruned_equals_full(engine, tiny_oracle, query, scoring):
    """Flat ORs and flat ANDs of plain terms, ranked in process by full
    evaluation, equal the oracle: found, ranks and scores."""
    for k in (1, 5, 40):
        hits, found = engine.search(query, k=k, scoring=scoring, parallel=False)
        ohits, ofound = oracle_search(tiny_oracle, query, k=k, scoring=scoring)
        assert found == ofound, (query, scoring, k)
        _assert_rank_identical(hits, ohits)


def test_extend_index_append_epoch(ray_session, tiny_transcripts_dir, tmp_path_factory, index_dir):
    """Sip analogue: build on the first half of the conv range, extend with
    the second half (convs sort strictly after → append order == lex order),
    and the result must be byte-identical to the one-shot build. A repeated
    extend with the same files is a no-op (epoch markers)."""
    t = pa.concat_tables(
        [pq.read_table(f) for f in sorted(glob.glob(tiny_transcripts_dir + "/*.parquet"))]
    )
    convs = t["conv_id"].to_pylist()
    cut_conv = sorted(set(convs))[len(set(convs)) // 2]
    first = t.filter(pa.compute.less(t["conv_id"], cut_conv))
    second = t.filter(pa.compute.greater_equal(t["conv_id"], cut_conv))
    src = str(tmp_path_factory.mktemp("epoch_src"))
    pq.write_table(first, os.path.join(src, "epoch1.parquet"))
    second_dir = str(tmp_path_factory.mktemp("epoch_src2"))
    pq.write_table(second, os.path.join(second_dir, "epoch2.parquet"))

    from miru_ray.build import extend_index

    d = str(tmp_path_factory.mktemp("idx_extend"))
    build_index(src, d, n_parts=N_PARTS)
    meta = extend_index(second_dir, d)
    assert meta["epochs"][-1]["parts_updated"]

    def decoded(path):
        t = pq.read_table(path)
        out = {}
        for i in range(t.num_rows):
            docs, tfs = decode_posting(
                t["doc_bytes"][i].as_py(), t["tf_bytes"][i].as_py(),
                np.asarray(t["blk_first"][i].as_py()), np.asarray(t["blk_count"][i].as_py()),
            )
            out[t["term"][i].as_py()] = (
                list(docs), list(tfs), t["df"][i].as_py(), t["ttf"][i].as_py(),
            )
        return out

    for p in range(N_PARTS):
        # encoded bytes may differ (block boundaries follow epoch runs);
        # decoded content must be identical to the one-shot build
        a = decoded(os.path.join(index_dir, f"part={p:05d}", "postings.parquet"))
        b = decoded(os.path.join(d, f"part={p:05d}", "postings.parquet"))
        assert a == b, p
        assert partition(index_dir, p).forward_table().equals(partition(d, p).forward_table()), p
    # idempotent re-extend: all partitions skip
    meta2 = extend_index(second_dir, d)
    assert meta2["epochs"][-1]["parts_updated"] == []
    assert meta2["epochs"][-1]["parts_skipped"] == sorted(range(N_PARTS))


def test_remove_docs_masks_answers(ray_session, tiny_transcripts_dir, tiny_rows, tiny_oracle, tmp_path_factory):
    """REMOVE parity: tombstoned docs vanish from every answer (match, top-k,
    TIME) while docIds and term stats stay untouched; rank-identity holds vs
    the oracle with the same removal mask; re-removal is idempotent."""
    from miru_ray.segments import read_tombstones, remove_docs

    d = str(tmp_path_factory.mktemp("idx_remove"))
    build_index(tiny_transcripts_dir, d, n_parts=N_PARTS)
    # remove every 7th row of the corpus
    victims = [(r["conv_id"], r["turn_idx"]) for r in tiny_rows[::7]]
    counts = remove_docs(d, victims)
    assert sum(counts.values()) == len(victims)
    counts2 = remove_docs(d, victims)  # idempotent
    assert counts2 == counts

    removed = {p: set(read_tombstones(d, p).tolist()) for p in range(N_PARTS)}
    eng = SearchEngine(d)
    for q in ("t1 t7", "t1 OR w00999", "NOT t2", "w004*"):
        for scoring in ("ref_tfidf", "bm25", "time"):
            hits, found = eng.search(q, k=25, scoring=scoring)
            ohits, ofound = oracle_search(tiny_oracle, q, k=25, scoring=scoring, removed=removed)
            assert found == ofound, (q, scoring)
            assert [(h.part, h.doc_id) for h in hits] == [(h.part, h.doc_id) for h in ohits], (q, scoring)
    # match path excludes tombstones
    m = eng.match("t1")
    got = {(r["part"], int(doc)) for r in m for doc in r["doc_id"]}
    assert not any((p, doc) in got for p, s in removed.items() for doc in s)


def test_repair_partitions(ray_session, tiny_transcripts_dir, tmp_path_factory, index_dir):
    """REPAIR analogue: dropping + rebuilding chosen partitions restores them
    byte-identically while other partitions are untouched (resume)."""
    from miru_ray.build import repair_partitions

    d = str(tmp_path_factory.mktemp("idx_repair"))
    build_index(tiny_transcripts_dir, d, n_parts=N_PARTS)
    before = {
        p: pq.read_table(os.path.join(d, f"part={p:05d}", "postings.parquet"))
        for p in range(N_PARTS)
    }
    meta = repair_partitions(d, tiny_transcripts_dir, [1, 3])
    assert sorted(meta["parts_built"]) == [1, 3]
    assert meta["parts_resumed"] == [0, 2]
    for p in range(N_PARTS):
        after = pq.read_table(os.path.join(d, f"part={p:05d}", "postings.parquet"))
        assert before[p].equals(after), p


def _oracle_rows(opart):
    """Rebuild input row dicts from an oracle partition (for re-partitioning)."""
    return [
        {
            "conv_id": opart.conv_id[i],
            "turn_idx": opart.turn_idx[i],
            "role": opart.fields["role"][i],
            "text": " ".join(opart.tokens[i]),
            "tool": opart.fields["tool"][i],
            "ts": opart.ts[i],
        }
        for i in range(opart.n_docs)
    ]


def test_lazy_tf_partial_decode(ray_session, tiny_transcripts_dir, tmp_path_factory, tiny_oracle,
                                drop_resident):
    """Postings that span many blocks (ONE partition over the tiny corpus)
    decode whole, docs and tfs: scored queries stay rank-identical to the
    oracle, and filter-only ``match`` returns the oracle's docs."""
    from miru_ray.oracle import build_oracle_partitions

    d = str(tmp_path_factory.mktemp("idx_lazy"))
    build_index(tiny_transcripts_dir, d, n_parts=1)
    oracle1 = build_oracle_partitions(
        [r for p in sorted(tiny_oracle) for r in _oracle_rows(tiny_oracle[p])], n_parts=1
    )
    assert max(partition(d, 0).postings_table()["n_blocks"].to_pylist()) > 2
    eng = SearchEngine(d)
    try:
        for q in ("t1 t7", "t1 OR t2 OR t3", "t1 t2 t3 t4 t5"):
            for scoring in ("ref_tfidf", "bm25"):
                drop_resident()
                hits, found = eng.search(q, k=10, scoring=scoring, parallel=False)
                ohits, ofound = oracle_search(oracle1, q, k=10, scoring=scoring)
                assert found == ofound, (q, scoring)
                assert [h.doc_id for h in hits] == [h.doc_id for h in ohits], (q, scoring)
        drop_resident()
        res = eng.match("t1", parallel=False)
        got = sorted(int(x) for r in res for x in r["doc_id"])
        ohits, _ = oracle_search(oracle1, "t1", k=1 << 30, scoring="time")
        assert got == sorted(h.doc_id for h in ohits) and got
    finally:
        drop_resident()


def test_authz_mask_rank_identity(engine, tiny_oracle):
    """Authz mask (MiruAuthzIndex/MiruAuthzCache analogue): only docs
    carrying an allowed label are visible; rank identity vs the oracle
    with the same expression; repeated queries hit the cached mask."""
    for allowed in (["user"], ["user", "tool"], ["assistant", "tool"]):
        authz = ("role", allowed)
        for q in ("t1 t7", "NOT t2", "w004*"):
            hits, found = engine.search(q, k=15, authz=authz)
            ohits, ofound = oracle_search(
                tiny_oracle, q, k=15, authz=("role", tuple(allowed))
            )
            assert found == ofound, (q, allowed)
            _assert_rank_identical(hits, ohits)
    # match path also masks
    m = engine.match("t1", authz=("role", ["user"]))
    fwd_roles = {}
    for r in m:
        p = r["part"]
        from miru_ray.segments import forward_columns

        roles = forward_columns(engine.index_dir, p)["role"]
        for doc in r["doc_id"]:
            assert roles[int(doc)].as_py() == "user"
    # the resident partitions hold composed masks (serial path → the
    # driver process's partitions)
    import miru_ray.segments as SG

    engine.search("t1", k=5, authz=("role", ["user"]), parallel=False)
    assert any(("role", ("user",)) in SG.partition(engine.index_dir, p).authz
               for p in engine.parts)


def test_repair_preserves_tombstones_and_streams(ray_session, tiny_transcripts_dir, tiny_rows, tmp_path_factory):
    """REPAIR keeps removal + inbox/unread state across the rebuild (the
    reference's removal/unread indexes persist; keys are stable
    (conv_id, turn_idx), not docIds)."""
    from miru_ray.build import repair_partitions
    from miru_ray.segments import add_to_inbox, mark_read, read_stream_set, read_tombstones, remove_docs

    d = str(tmp_path_factory.mktemp("idx_repair_state"))
    build_index(tiny_transcripts_dir, d, n_parts=N_PARTS)
    victims = [(r["conv_id"], r["turn_idx"]) for r in tiny_rows[::9]]
    remove_docs(d, victims)
    inbox_keys = [(r["conv_id"], r["turn_idx"]) for r in tiny_rows[::4]]
    add_to_inbox(d, "s1", inbox_keys)
    mark_read(d, "s1", inbox_keys[::2])

    before_tomb = {p: read_tombstones(d, p).tolist() for p in range(N_PARTS)}
    before_inbox = {p: read_stream_set(d, p, "inbox", "s1").tolist() for p in range(N_PARTS)}
    before_unread = {p: read_stream_set(d, p, "unread", "s1").tolist() for p in range(N_PARTS)}

    repair_partitions(d, tiny_transcripts_dir, [0, 2])

    for p in range(N_PARTS):
        assert read_tombstones(d, p).tolist() == before_tomb[p], p
        assert read_stream_set(d, p, "inbox", "s1").tolist() == before_inbox[p], p
        assert read_stream_set(d, p, "unread", "s1").tolist() == before_unread[p], p


def test_wildcard_expansion_cache(engine, index_dir, monkeypatch, drop_resident):
    """Prefix expansion is a slice of each partition's resident term
    dictionary: a repeated prefix query loads each partition's dictionary
    once, and bumping a partition's manifest epoch (what extend/repair do)
    reloads only that partition and drops its superseded entry. Results
    identical throughout."""
    import miru_ray.segments as SG
    from miru_ray.segments import manifest_path

    loads = []
    real = SG.TermDictionary

    class Counting(real):
        def __init__(self, path):
            loads.append(path)
            super().__init__(path)

    monkeypatch.setattr(SG, "TermDictionary", Counting)
    drop_resident()
    hits1, found1 = engine.search("w004*", k=15, parallel=False)
    assert found1 > 0
    assert len(loads) == N_PARTS and len(set(loads)) == N_PARTS  # one load each
    resident = dict(SG._PARTITIONS)
    assert len(resident) == N_PARTS
    hits2, found2 = engine.search("w004*", k=15, parallel=False)
    assert len(loads) == N_PARTS  # every partition served from its resident dictionary
    assert found2 == found1
    assert [(h.doc_id, h.part) for h in hits2] == [(h.doc_id, h.part) for h in hits1]
    # epoch bump on ONE partition (extend/repair rewrite the manifest):
    # only that partition reloads, and its superseded entry is dropped
    mp = manifest_path(index_dir, 0)
    os.utime(mp, (os.path.getmtime(mp) + 2, os.path.getmtime(mp) + 2))
    hits3, found3 = engine.search("w004*", k=15, parallel=False)
    assert len(loads) == N_PARTS + 1 and loads[-1] == os.path.join(
        SG.part_dir(index_dir, 0), "postings.parquet")
    assert set(SG._PARTITIONS) == set(resident)  # still one per partition
    for key, pt in SG._PARTITIONS.items():
        assert (pt is resident[key]) == (key[1] != 0), key
    assert SG._PARTITIONS[(os.path.abspath(index_dir), 0)].epoch == os.path.getmtime(mp)
    assert found3 == found1
    assert [(h.doc_id, h.part) for h in hits3] == [(h.doc_id, h.part) for h in hits1]


def test_warm_engine_sees_new_epoch_term(ray_session, tiny_transcripts_dir, tmp_path_factory):
    """A warm engine queried across a real extend_index: a conv_id term that
    exists only in the new epoch finds nothing before the extend (and leaves
    negative posting-cache entries under the old epoch) and, after it,
    exactly the answer of a fresh build of the same files."""
    t = pa.concat_tables(
        [pq.read_table(f) for f in sorted(glob.glob(tiny_transcripts_dir + "/*.parquet"))]
    )
    convs = sorted(set(t["conv_id"].to_pylist()))
    cut = convs[len(convs) // 2]
    first = t.filter(pa.compute.less(t["conv_id"], cut))
    second = t.filter(pa.compute.greater_equal(t["conv_id"], cut))
    # new-epoch conv ids without the '-' the query analyzer splits on, so the
    # query is one exact conv_id term
    second = second.set_column(
        second.schema.get_field_index("conv_id"), "conv_id",
        pa.compute.replace_substring(second["conv_id"], "-", ""),
    )
    src1 = str(tmp_path_factory.mktemp("warm_src1"))
    src2 = str(tmp_path_factory.mktemp("warm_src2"))
    pq.write_table(first, os.path.join(src1, "a.parquet"))
    pq.write_table(second, os.path.join(src2, "b.parquet"))
    new_conv = second["conv_id"][0].as_py()
    query = f"conv_id:{new_conv}"

    from miru_ray.build import extend_index

    d = str(tmp_path_factory.mktemp("idx_warm_epoch"))
    build_index(src1, d, n_parts=N_PARTS)
    eng = SearchEngine(d)
    try:
        for parallel in (False, True):
            assert eng.search(query, k=10, scoring="bm25", parallel=parallel) == ([], 0)
            assert eng.search("t1 t7", k=10, parallel=parallel)[1] > 0  # warm the caches
        extend_index(src2, d)

        fresh = str(tmp_path_factory.mktemp("idx_warm_fresh"))
        build_index([os.path.join(src1, "a.parquet"), os.path.join(src2, "b.parquet")],
                    fresh, n_parts=N_PARTS)
        want = SearchEngine(fresh).search(query, k=10, scoring="bm25", parallel=False)
        assert want[1] > 0 and {h.conv_id for h in want[0]} == {new_conv}
        for parallel in (False, True):
            assert eng.search(query, k=10, scoring="bm25", parallel=parallel) == want
    finally:
        eng.close()


def test_search_after_pagination(engine):
    """Deep pagination (Lucene searchAfter analogue): pages of size k
    chained by the previous page's last Hit reassemble the big-k answer
    exactly — including on all-tie score-0 pure-NOT queries (where the
    order falls entirely to the ts/part/doc tie-break) and TIME scoring."""
    for q, scoring in [
        ("t1 t7", "ref_tfidf"),
        ("t1 OR t2 OR t3", "bm25"),
        ("NOT t2", "ref_tfidf"),
        ("w004*", "bm25"),
        ("t1", "time"),
    ]:
        big, found = engine.search(q, k=60, scoring=scoring, early_exit=False)
        pages, after = [], None
        for _ in range(6):
            page, pfound = engine.search(
                q, k=10, scoring=scoring, after=after, early_exit=False
            )
            assert pfound == found, (q, scoring)  # totalHits unaffected
            if not page:
                break
            pages.extend(page)
            after = page[-1]
        assert [(h.doc_id, h.part) for h in pages] == [
            (h.doc_id, h.part) for h in big
        ][: len(pages)], (q, scoring)
        assert len(pages) == min(60, found), (q, scoring)


def test_meta_field_values_are_raw_keywords(engine, tiny_oracle):
    """role/tool/conv_id values are indexed verbatim, so the parser keeps
    them raw: ``conv_id:conv-00000085`` is the one stored conv_id term
    (the text analyzer would split it into ``conv AND 00000085``), equal to
    its single-term range and to the oracle."""
    q, rq = "conv_id:conv-00000085", "conv_id:[conv-00000085 TO conv-00000085]"
    for scoring in ("ref_tfidf", "time"):
        hits, found = engine.search(q, k=50, scoring=scoring, parallel=False,
                                    early_exit=False)
        rhits, rfound = engine.search(rq, k=50, scoring=scoring, parallel=False,
                                      early_exit=False)
        ohits, ofound = oracle_search(tiny_oracle, q, k=50, scoring=scoring)
        assert found == rfound == ofound == 31
        assert {h.conv_id for h in hits} == {"conv-00000085"}
        assert [(h.part, h.doc_id) for h in hits] == [(h.part, h.doc_id) for h in rhits]
        assert [(h.part, h.doc_id) for h in hits] == [(h.part, h.doc_id) for h in ohits]


def test_stats_and_explain(engine, index_dir, tiny_rows):
    st = engine.stats()
    assert st["n_parts"] == N_PARTS
    assert st["totals"]["n_docs"] == len(tiny_rows)
    assert sum(m["n_docs"] for m in st["per_part"].values()) == len(tiny_rows)
    assert st["codec"] == "varbyte" and st["positions"] is False

    ex = engine.explain("t1 t7")
    assert ex["terms"]["text:t1"]["df"] > 0 and ex["terms"]["text:t7"]["ttf"] > 0
    exw = engine.explain("w004* t1")
    assert len(exw["expansions"]["text:w004*"]) > 1


def test_export_match_resumable(engine, tmp_path_factory):
    """export_match: full answer as one parquet per partition; atomic,
    idempotent, and resumable (present files are skipped; a deleted file
    is the only one rewritten)."""
    import time as _time

    out = str(tmp_path_factory.mktemp("export"))
    res = engine.export_match("t1 AND NOT t9", out)
    assert res["files"] == N_PARTS and res["skipped"] == []
    match_rows = sum(len(r["doc_id"]) for r in engine.match("t1 AND NOT t9"))
    assert res["rows"] == match_rows > 0
    files = sorted(f for f in os.listdir(out) if f.startswith("part-"))
    assert files == [f"part-{p:05d}.parquet" for p in range(N_PARTS)]
    # a DIFFERENT question must not silently reuse this dir's files
    with pytest.raises(ValueError):
        engine.export_match("t1 AND NOT t7", out)
    with pytest.raises(ValueError):
        engine.export_match("t1 AND NOT t9", out, time_range=(0, 1))
    t = pa.concat_tables([pq.read_table(os.path.join(out, f)) for f in files])
    assert t.num_rows == match_rows
    assert t.column_names == ["part", "doc_id", "conv_id", "turn_idx", "role", "tool", "ts"]
    mtimes = {f: os.path.getmtime(os.path.join(out, f)) for f in files}
    res2 = engine.export_match("t1 AND NOT t9", out)
    assert res2["skipped"] == list(range(N_PARTS)) and res2["rows"] == match_rows
    assert all(os.path.getmtime(os.path.join(out, f)) == mtimes[f] for f in files)
    victim = files[1]
    os.remove(os.path.join(out, victim))
    _time.sleep(0.02)
    res3 = engine.export_match("t1 AND NOT t9", out)
    assert res3["rows"] == match_rows
    assert res3["skipped"] == [p for p in range(N_PARTS) if p != 1]
    assert os.path.getmtime(os.path.join(out, victim)) > mtimes[victim]
    assert all(
        os.path.getmtime(os.path.join(out, f)) == mtimes[f]
        for f in files if f != victim
    )


def test_sparse_bases_equals_dense_reference():
    """sparse_bases (CSR over nonzero (file, part) pairs) must equal the
    dense n_files × n_parts cumsum it replaced, on random sparse counts."""
    import numpy as np

    from miru_ray.build import sparse_bases

    rng = np.random.default_rng(11)
    n_files, n_parts = 37, 4096
    dense = np.zeros((n_files, n_parts), dtype=np.int64)
    metas = []
    for f in range(n_files):
        k = int(rng.integers(0, 9))
        parts = np.sort(rng.choice(n_parts, size=k, replace=False)).astype(np.int64)
        counts = rng.integers(1, 50, size=k).astype(np.int64)
        dense[f, parts] = counts
        metas.append({"parts": parts, "counts": counts})
    ref_bases = np.zeros_like(dense)
    np.cumsum(dense[:-1], axis=0, out=ref_bases[1:])
    csr, by_part = sparse_bases(metas)
    # the CSR never stores zeros
    assert len(csr["cols"]) == int((dense > 0).sum())
    for f in range(n_files):
        lo, hi = int(csr["indptr"][f]), int(csr["indptr"][f + 1])
        for p, v in zip(csr["cols"][lo:hi], csr["vals"][lo:hi]):
            assert ref_bases[f, p] == v, (f, p)
    want = {int(p): int(c) for p, c in enumerate(dense.sum(axis=0)) if c > 0}
    assert by_part == want
    # extend path: pre-existing per-partition offsets shift every base
    off = rng.integers(0, 1000, size=n_parts).astype(np.int64)
    csr2, _ = sparse_bases(metas, base_off=off)
    for f in range(n_files):
        lo, hi = int(csr2["indptr"][f]), int(csr2["indptr"][f + 1])
        for p, v in zip(csr2["cols"][lo:hi], csr2["vals"][lo:hi]):
            assert ref_bases[f, p] + off[p] == v


def test_hash_build_n_parts_4096(ray_session, tiny_transcripts_dir, tmp_path_factory, index_dir):
    """A hash build at n_parts=4096 over multiple files must work without a
    dense bases matrix (the CSR carries only touched partitions) and give
    rank-identical answers to the small-n_parts index."""
    d = str(tmp_path_factory.mktemp("idx4096"))
    meta = build_index(tiny_transcripts_dir, d, n_parts=4096)
    built = meta["parts_built"]
    assert 0 < len(built) <= 4096
    eng_big = SearchEngine(d)
    eng_ref = SearchEngine(index_dir)
    for q in ("t1 t7", "t1 OR t2 OR t3", "NOT t2"):
        # match sets must be identical; top-k ranks are identical up to
        # equal-score ties (docIds — the tie-break — depend on the layout)
        keys_a = set()
        for r in eng_big.match(q):
            keys_a.update(zip(r["conv_id"], r["turn_idx"]))
        keys_b = set()
        for r in eng_ref.match(q):
            keys_b.update(zip(r["conv_id"], r["turn_idx"]))
        assert keys_a == keys_b
        _, found_a = eng_big.search(q, k=10, scoring="bm25")
        _, found_b = eng_ref.search(q, k=10, scoring="bm25")
        assert found_a == found_b
    # docId accounting: every partition's doc count sums to the corpus size
    n_total = sum(
        pq.read_metadata(f).num_rows
        for f in glob.glob(tiny_transcripts_dir + "/*.parquet")
    )
    assert sum(
        read_manifest(d, p)["metrics"]["n_docs"] for p in built
    ) == n_total


def test_sip_watch_catches_up(ray_session, tiny_transcripts_dir, tmp_path_factory, index_dir):
    """The sip daemon loop (VERDICT r3 #7; MiruLocalHostedPartition's
    heartbeat sip): files appended to the corpus dir are picked up and
    applied by the watch loop WITHOUT a manual extend call; the resulting
    index content equals the one-shot build; an idle loop applies nothing."""
    t = pa.concat_tables(
        [pq.read_table(f) for f in sorted(glob.glob(tiny_transcripts_dir + "/*.parquet"))]
    )
    convs = sorted(set(t["conv_id"].to_pylist()))
    c1, c2 = convs[len(convs) // 3], convs[2 * len(convs) // 3]
    part1 = t.filter(pa.compute.less(t["conv_id"], c1))
    part2 = t.filter(
        pa.compute.and_(
            pa.compute.greater_equal(t["conv_id"], c1),
            pa.compute.less(t["conv_id"], c2),
        )
    )
    part3 = t.filter(pa.compute.greater_equal(t["conv_id"], c2))

    corpus = str(tmp_path_factory.mktemp("sip_corpus"))
    pq.write_table(part1, os.path.join(corpus, "a-epoch1.parquet"))
    d = str(tmp_path_factory.mktemp("idx_sip"))
    from miru_ray.build import applied_input_files, sip_watch

    build_index(corpus, d, n_parts=N_PARTS)

    seen = []

    def on_cycle(i, new):
        seen.append(list(new))
        # simulate the stream: drop new files into the watched dir between
        # heartbeats (names chosen so the batch sorts after what's applied)
        if i == 1:
            pq.write_table(part2, os.path.join(corpus, "b-epoch2.parquet"))
        elif i == 2:
            pq.write_table(part3, os.path.join(corpus, "c-epoch3.parquet"))

    res = sip_watch(
        corpus, d, interval=0.05, idle_cycles_to_stop=2, on_cycle=on_cycle
    )
    assert res["epochs"] == 2
    assert [os.path.basename(f) for f in res["files_applied"]] == [
        "b-epoch2.parquet", "c-epoch3.parquet"
    ]
    assert {os.path.basename(f) for f in applied_input_files(d)} == {
        "a-epoch1.parquet", "b-epoch2.parquet", "c-epoch3.parquet"
    }
    # caught-up index answers == the one-shot build's answers
    eng_sip = SearchEngine(d)
    eng_ref = SearchEngine(index_dir)
    for q in ("t1 t7", "NOT t2"):
        got = set()
        for r in eng_sip.match(q):
            got.update(zip(r["conv_id"], r["turn_idx"]))
        want = set()
        for r in eng_ref.match(q):
            want.update(zip(r["conv_id"], r["turn_idx"]))
        assert got == want, q
    # a second watch over the same dir is pure idle: no new epochs
    res2 = sip_watch(corpus, d, interval=0.01, idle_cycles_to_stop=1)
    assert res2["epochs"] == 0 and res2["files_applied"] == []


def test_sip_watch_retry_on_error(ray_session, tiny_transcripts_dir, tmp_path_factory):
    """Daemon posture: a half-uploaded (corrupt) file records an error and
    is retried next heartbeat instead of killing the loop; once the file
    becomes valid the batch applies."""
    t = pa.concat_tables(
        [pq.read_table(f) for f in sorted(glob.glob(tiny_transcripts_dir + "/*.parquet"))]
    )
    convs = sorted(set(t["conv_id"].to_pylist()))
    cut = convs[len(convs) // 2]
    part1 = t.filter(pa.compute.less(t["conv_id"], cut))
    part2 = t.filter(pa.compute.greater_equal(t["conv_id"], cut))
    corpus = str(tmp_path_factory.mktemp("sipr_corpus"))
    pq.write_table(part1, os.path.join(corpus, "a-epoch1.parquet"))
    d = str(tmp_path_factory.mktemp("idx_sipr"))
    from miru_ray.build import sip_watch

    build_index(corpus, d, n_parts=N_PARTS)
    bad = os.path.join(corpus, "b-epoch2.parquet")
    with open(bad, "wb") as f:
        f.write(b"half-uploaded junk")

    def on_cycle(i, new):
        if i == 1:  # "upload finishes" between heartbeats
            pq.write_table(part2, bad)

    res = sip_watch(corpus, d, interval=0.05, max_cycles=3,
                    on_cycle=on_cycle, retry_on_error=True)
    assert len(res["errors"]) == 1 and "cycle 1" in res["errors"][0]
    assert res["epochs"] == 1
    assert [os.path.basename(f) for f in res["files_applied"]] == ["b-epoch2.parquet"]
    # without the daemon posture the same corruption raises
    bad2 = os.path.join(corpus, "c-epoch3.parquet")
    with open(bad2, "wb") as f:
        f.write(b"junk")
    with pytest.raises(Exception):
        sip_watch(corpus, d, interval=0.01, max_cycles=1)


def test_sip_watch_path_spelling_invariance(ray_session, tiny_transcripts_dir, tmp_path_factory):
    """Review regression: the catch-up diff abspath-normalizes both sides,
    so a differently-spelled corpus path (trailing /., relative) must NOT
    re-extend already-applied files."""
    corpus = str(tmp_path_factory.mktemp("sipn_corpus"))
    for f in sorted(glob.glob(tiny_transcripts_dir + "/*.parquet"))[:1]:
        shutil.copy(f, os.path.join(corpus, os.path.basename(f)))
    d = str(tmp_path_factory.mktemp("idx_sipn"))
    from miru_ray.build import sip_watch

    build_index(corpus + "/.", d, n_parts=2)  # build with a dotted spelling
    res = sip_watch(corpus, d, interval=0.01, max_cycles=1)
    assert res["epochs"] == 0 and res["files_applied"] == []
    rel = os.path.relpath(corpus)
    res2 = sip_watch(rel, d, interval=0.01, max_cycles=1)
    assert res2["epochs"] == 0


def test_posting_cache_lru_handles_oversized_miss_set(
    ray_session, tiny_transcripts_dir, tmp_path_factory, index_dir, monkeypatch, drop_resident
):
    """Review regression: a single PostingSource whose miss set exceeds the
    cache cap must not crash the eviction loop."""
    from miru_ray import segments as SG
    from miru_ray.search import PostingSource

    monkeypatch.setattr(SG._POSTING_LRU, "cap", 2)
    drop_resident()
    src = PostingSource(index_dir, 0, [("text", w) for w in ("t1", "t2", "t3", "t7", "w00042")], 0)
    assert len(src.docs("text", "t1")) > 0
    assert len(SG._POSTING_LRU) <= 2 + 5  # bounded, no StopIteration


def test_sip_watch_backoff_on_persistent_failure(
    ray_session, tiny_transcripts_dir, tmp_path_factory
):
    """ADVICE r4: a permanently bad batch must not be re-attempted every
    heartbeat — retries back off exponentially (gaps of 1, 2, 4, 8, …
    heartbeats for a never-changing pending set: attempts at cycles 1,
    2, 4, 8 of 12 here) and the error ring is bounded, so a daemon over
    one corrupt file neither hammers extend_index nor grows memory
    without bound."""
    corpus = str(tmp_path_factory.mktemp("sipb_corpus"))
    t = pa.concat_tables(
        [pq.read_table(f) for f in sorted(glob.glob(tiny_transcripts_dir + "/*.parquet"))]
    )
    pq.write_table(t, os.path.join(corpus, "a-epoch1.parquet"))
    d = str(tmp_path_factory.mktemp("idx_sipb"))
    build_index(corpus, d, n_parts=N_PARTS)
    with open(os.path.join(corpus, "b-bad.parquet"), "wb") as f:
        f.write(b"permanently corrupt")

    from miru_ray.build import sip_watch

    res = sip_watch(corpus, d, interval=0.0, max_cycles=12, retry_on_error=True)
    # without backoff this would be 12 errors; the 1, 2, 4, 8 gaps allow
    # attempts at cycles 1, 2, 4, 8 only
    assert len(res["errors"]) == 4, res["errors"]
    assert res["epochs"] == 0


def test_tokenizer_drift_raises(ray_session, tiny_transcripts_dir, tmp_path_factory):
    """Review r5: an index whose RECORDED token pattern no longer matches
    what its analyzer produces today must refuse to open (and to extend)
    — querying across the drift silently returns wrong answers."""
    import json

    from miru_ray.build import extend_index
    from miru_ray.segments import read_global_manifest, write_global_manifest

    d = str(tmp_path_factory.mktemp("idx_tokdrift"))
    build_index(tiny_transcripts_dir, d, n_parts=2)
    meta = read_global_manifest(d)
    tok = dict(meta["tokenizer"], pattern="[a-z]+")  # a pattern no analyzer produces
    write_global_manifest(d, dict(meta, tokenizer=tok))
    with pytest.raises(ValueError, match="token pattern"):
        SearchEngine(d)
    with pytest.raises(ValueError, match="token pattern"):
        extend_index([], d)
    # restoring the true pattern reopens cleanly
    write_global_manifest(d, meta)
    assert SearchEngine(d).count("t1") > 0
