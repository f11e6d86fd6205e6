"""A warm query's fixed cost, pinned to the answers it must keep.

* the columnar merge (``search._merge_two`` + ``_hits_of``) equals the
  Hit-list two-pointer fold it replaced (written here as the reference);
* the dictionary-coded forward gather equals Arrow's ``take`` on the
  forward table, nulls, empty and non-BMP strings included, and the
  resident forward bytes did not grow;
* a warm partition lookup makes one ``os.stat``, a parsed query reads no
  ``index.json``, and a relative ``index_dir`` never serves another
  directory's partition or tombstones;
* the tombstone and stream-set caches are bounded LRUs that see a file
  written after a read.
"""

import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings, strategies as st

import miru_ray.search as S
import miru_ray.segments as SG
from miru_ray.build import build_index
from miru_ray.search import Hit, SearchEngine, search_partition
from miru_ray.segments import forward_columns, partition, read_stream_set, read_tombstones

N_PARTS = 4

# ------------------------------------------------------------------ merge


def _sort_key(h: Hit):
    return (-np.float32(h.score), -h.ts)


def _two_pointer(merged: list, cur: list, k: int, key: str | None) -> list:
    """FullTextAnswerMerger.merge over Hit lists, as the engine ran it
    before the columnar merge: take from the running merge iff strictly
    less (ties → current), skip a seen collapse key, stop at k."""
    out, seen = [], set()
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
            if getattr(h, key) in seen:
                continue
            seen.add(getattr(h, key))
        out.append(h)
    return out


def _reference_fold(answers: list[list[Hit]], k: int, key: str | None) -> list[Hit]:
    merged: list[Hit] = []
    for hits in answers:
        merged = hits[:k] if not merged else _two_pointer(merged, hits, k, key)
    return merged


def _fold(answers: list[dict], k: int, key: str | None) -> dict:
    merged = S._NO_HITS
    for r in answers:
        merged = S._merge_two(merged, r, k, key)
    return merged


SCORES = [0.0, 0.5, 1.25, 2.0]  # exact in fp32: score ties across partitions
TS = [10, 20, 30]
KEYS = ["a", "b", "c", "", "\U0001f600", None]


@st.composite
def _walk(draw):
    """(answers, key): partition answers in walk order (descending part id).
    A ranked answer is in (score desc, ts desc, doc desc) order; a TIME-like
    one is in docId order with score 0 and any ts. With a collapse key every
    answer holds each key value once, as search_partition's do."""
    key = draw(st.sampled_from([None, "conv_id", "role"]))
    n_parts = draw(st.integers(min_value=1, max_value=5))
    answers = []
    for part in range(n_parts - 1, -1, -1):
        n = draw(st.integers(min_value=0, max_value=6))
        docs = sorted(draw(st.sets(st.integers(0, 40), min_size=n, max_size=n)), reverse=True)
        ts = [draw(st.sampled_from(TS)) for _ in docs]
        if draw(st.booleans()):
            rows = [(0.0, t, d) for t, d in zip(ts, docs)]
        else:
            rows = [(draw(st.sampled_from(SCORES)), t, d) for t, d in zip(ts, docs)]
            rows.sort(key=lambda r: (-r[0], -r[1], -r[2]))
        vals = {c: draw(st.lists(st.sampled_from(KEYS), min_size=n, max_size=n,
                                 unique=c == key))
                for c in ("conv_id", "role")}
        answers.append({
            "part": part,
            "found": n + draw(st.integers(0, 3)),
            "doc_id": np.array([r[2] for r in rows], dtype=np.int64),
            "score": np.array([r[0] for r in rows], dtype=np.float32),
            "ts": np.array([r[1] for r in rows], dtype=np.int64),
            "conv_id": vals["conv_id"],
            "turn_idx": np.array(draw(st.lists(st.integers(0, 9), min_size=n, max_size=n)),
                                 dtype=np.int32),
            "role": vals["role"],
        })
    return answers, key


def _reference_hits(r: dict) -> list[Hit]:
    return [
        Hit(score=float(r["score"][i]), ts=int(r["ts"][i]), doc_id=int(r["doc_id"][i]),
            part=r["part"], conv_id=r["conv_id"][i], turn_idx=int(r["turn_idx"][i]),
            role=r["role"][i])
        for i in range(len(r["doc_id"]))
    ]


@given(_walk(), st.data())
@settings(max_examples=400, deadline=None)
def test_merge_fold_equals_two_pointer_fold(walk, data):
    answers, key = walk
    total = sum(len(r["doc_id"]) for r in answers)
    k = data.draw(st.sampled_from([0, 1, 5, total + 3]))
    want = _reference_fold([_reference_hits(r) for r in answers], k, key)
    assert S._hits_of(_fold(answers, k, key)) == want
    # federate folds engine answers, each already a merged answer
    cut = data.draw(st.integers(0, len(answers)))
    groups = [answers[:cut], answers[cut:]]
    want = _reference_fold(
        [_reference_fold([_reference_hits(r) for r in g], k, key) for g in groups], k, key)
    got = _fold([_fold(g, k, key) for g in groups], k, key)
    assert S._hits_of(got) == want


# ------------------------------------------------------------------ gather


@pytest.fixture(scope="module")
def tiny_index(ray_session, tiny_transcripts_dir, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("warm_idx"))
    build_index(tiny_transcripts_dir, d, n_parts=N_PARTS)
    return d


def _check_gather(fwd: dict, table: pa.Table, docs: np.ndarray) -> None:
    r = S._gather(fwd, 7, docs, np.zeros(len(docs), np.float32), 3)
    idx = pa.array(docs, pa.int64())
    for c in ("conv_id", "role"):
        assert r[c] == table[c].take(idx).to_pylist(), c
    assert S._strings(fwd, "tool", docs) == table["tool"].take(idx).to_pylist()
    assert np.array_equal(r["ts"], table["ts"].to_numpy()[docs])
    assert np.array_equal(r["turn_idx"], table["turn_idx"].to_numpy()[docs])
    assert r["doc_id"].dtype == np.int64 and np.array_equal(r["doc_id"], docs)


def test_gather_equals_arrow_take_on_every_row(tiny_index):
    rng = np.random.default_rng(0)
    for part in range(N_PARTS):
        table = pq.read_table(os.path.join(SG.part_dir(tiny_index, part), "forward.parquet"))
        fwd = forward_columns(tiny_index, part)
        for c in SG.STRING_COLUMNS:
            assert isinstance(fwd[c], pa.DictionaryArray)
            assert fwd[c].to_pylist() == table[c].to_pylist()
        _check_gather(fwd, table, rng.permutation(table.num_rows).astype(np.int64))
        _check_gather(fwd, table, np.empty(0, np.int64))


def _old_forward_bytes(pt: SG.Partition) -> int:
    """``Partition.nbytes`` with the string columns held as plain Arrow
    string arrays, as they were before the dictionary coding."""
    t = pt.forward_table()
    n = pt._dictionary.nbytes() if pt._dictionary else 0
    n += sum(t[c].to_numpy().nbytes for c in ("ts", "dl", "turn_idx"))
    return n + sum(t[c].combine_chunks().nbytes for c in SG.STRING_COLUMNS)


def test_resident_forward_bytes_did_not_grow(tiny_index):
    for part in range(N_PARTS):
        pt = partition(tiny_index, part)
        pt.forward  # noqa: B018 — load the forward columns
        assert pt.nbytes() <= _old_forward_bytes(pt), part


def test_forward_strings_with_null_empty_and_non_bmp(tmp_path):
    rows = {
        "conv_id": ["c1", "c1", None, "", "\U0001f600x", "c1", "\U00010348"],
        "role": [None, "", "user", "\U0001d11e", "user", None, "tool"],
        "tool": ["", "", "", None, "t\U0001f600", "", ""],
    }
    n = len(rows["role"])
    table = pa.table({
        "doc_id": pa.array(range(n), pa.int32()),
        "conv_id": pa.array(rows["conv_id"], pa.string()),
        "turn_idx": pa.array(range(n), pa.int32()),
        "role": pa.array(rows["role"], pa.string()),
        "tool": pa.array(rows["tool"], pa.string()),
        "ts": pa.array(range(100, 100 + n), pa.int64()),
        "dl": pa.array([3] * n, pa.int32()),
    }, schema=SG.FORWARD_SCHEMA)
    os.makedirs(SG.part_dir(str(tmp_path), 0))
    pq.write_table(table, os.path.join(SG.part_dir(str(tmp_path), 0), "forward.parquet"))
    pt = SG.Partition(str(tmp_path), 0, -1.0)
    fwd = pt.forward
    assert fwd["n_docs"] == n
    for c in SG.STRING_COLUMNS:
        assert fwd[c].to_pylist() == rows[c]
    docs = np.arange(n, dtype=np.int64)
    _check_gather(fwd, table, docs)
    _check_gather(fwd, table, docs[::-1].copy())
    _check_gather(fwd, table, np.array([2, 2, 0], dtype=np.int64))
    # one best doc per role value, null and empty each their own group
    keep = S._collapse_pick(docs, np.zeros(n, np.float32), fwd, "role")
    assert [rows["role"][i] for i in keep] == ["", "\U0001d11e", "user", None, "tool"]
    assert pt.nbytes() > 0


def test_export_match_writes_plain_string_columns(tiny_index, tmp_path):
    eng = SearchEngine(tiny_index)
    res = eng.export_match("t1", str(tmp_path / "x"), parallel=False)
    assert res["files"] == N_PARTS and res["rows"] > 0
    want = pa.schema([("part", pa.int32()), ("doc_id", pa.int64()), ("conv_id", pa.string()),
                      ("turn_idx", pa.int32()), ("role", pa.string()), ("tool", pa.string()),
                      ("ts", pa.int64())])
    for part in range(N_PARTS):
        out = pq.read_table(str(tmp_path / "x" / f"part-{part:05d}.parquet"))
        assert out.schema.remove_metadata().equals(want)
        table = pq.read_table(os.path.join(SG.part_dir(tiny_index, part), "forward.parquet"))
        taken = table.take(out["doc_id"])
        for c in ("conv_id", "turn_idx", "role", "tool", "ts"):
            assert out[c].to_pylist() == taken[c].to_pylist(), c


# ------------------------------------------------------------------ lookup


def test_parsed_query_reads_no_index_meta(tiny_index, monkeypatch):
    eng = SearchEngine(tiny_index)
    filt = eng._parse("t1 t7")
    calls = []
    real = S.index_meta
    monkeypatch.setattr(S, "index_meta", lambda d: calls.append(d) or real(d))
    search_partition(eng.index_dir, 0, filt, 10, scoring="bm25")
    assert calls == []
    search_partition(eng.index_dir, 0, "t1 t7", 10, scoring="bm25")
    assert calls  # a string is parsed with the index's analyzer


def test_warm_lookups_make_one_stat(tiny_index, monkeypatch, tmp_path):
    d = _copy(tiny_index, tmp_path / "idx")
    fwd = pq.read_table(os.path.join(SG.part_dir(d, 0), "forward.parquet"))
    key = (fwd["conv_id"][0].as_py(), fwd["turn_idx"][0].as_py())
    SG.remove_docs(d, [key])
    SG.add_to_inbox(d, "s1", [key])
    eng = SearchEngine(d)
    monkeypatch.chdir(tmp_path)
    reads = {
        "partition": lambda: partition(eng.index_dir, 0),
        "partition (relative dir)": lambda: partition("idx", 0),
        "tombstones": lambda: read_tombstones(d, 0),
        "stream set": lambda: read_stream_set(d, 0, "inbox", "s1"),
        "absent stream set": lambda: read_stream_set(d, 0, "inbox", "s2"),
    }
    for read in reads.values():
        read()
    stats = []
    real = os.stat
    monkeypatch.setattr(os, "stat", lambda p, *a, **kw: stats.append(p) or real(p, *a, **kw))
    for what, read in reads.items():
        stats.clear()
        read()
        assert len(stats) == 1, (what, stats)
    assert partition("idx", 0) is partition(eng.index_dir, 0)


def _copy(src: str, dst) -> str:
    shutil.copytree(src, str(dst))  # copies mtimes: the copy's epochs equal the source's
    return str(dst)


def test_relative_index_dir_follows_the_working_directory(tiny_index, tmp_path, monkeypatch):
    a = _copy(tiny_index, tmp_path / "a" / "idx")
    b = _copy(tiny_index, tmp_path / "b" / "idx")
    os.makedirs(tmp_path / "empty")
    conv = pq.read_table(os.path.join(SG.part_dir(a, 0), "forward.parquet"))["conv_id"]
    turn = pq.read_table(os.path.join(SG.part_dir(a, 0), "forward.parquet"))["turn_idx"]
    keys = list(zip(conv.to_pylist(), turn.to_pylist()))
    SG.remove_docs(a, keys[:5])
    SG.remove_docs(b, keys[5:30])

    def ask(d):
        r = search_partition(d, 0, "t1", 1000, scoring="bm25")
        return r["found"], r["doc_id"].tolist()

    want_a, want_b = ask(a), ask(b)
    assert want_a != want_b
    monkeypatch.chdir(tmp_path / "a")
    eng = SearchEngine("idx")
    assert ask("idx") == want_a
    assert read_tombstones("idx", 0).tolist() == SG.read_tombstones(a, 0).tolist()
    monkeypatch.chdir(tmp_path / "b")
    assert ask("idx") == want_b
    assert read_tombstones("idx", 0).tolist() == SG.read_tombstones(b, 0).tolist()
    # the engine keeps reading the index it opened
    assert search_partition(eng.index_dir, 0, "t1", 1000, scoring="bm25")["found"] == want_a[0]
    monkeypatch.chdir(tmp_path / "empty")
    with pytest.raises(FileNotFoundError, match="idx: partition 0 has no readable manifest"):
        ask("idx")


# ------------------------------------------------------------ doc-set caches


def _write_docs(path: str, docs) -> None:
    pq.write_table(pa.table({"doc_id": pa.array(docs, pa.int32())}), path + ".tmp")
    os.replace(path + ".tmp", path)


def test_doc_set_cache_is_a_bounded_lru(tmp_path):
    cache = SG._DocSetFiles(3)
    paths = [str(tmp_path / f"s{i}.parquet") for i in range(5)]
    for i, p in enumerate(paths):
        _write_docs(p, [i, i + 10])
    for p in paths[:3]:
        cache.read(p)
    cache.read(paths[0])  # most recent now: the next read evicts paths[1]
    cache.read(paths[3])
    assert list(cache._sets) == [paths[2], paths[0], paths[3]]
    # a rewritten file replaces its entry instead of lingering beside it
    _write_docs(paths[0], [7, 8, 9])
    assert cache.read(paths[0]).tolist() == [7, 8, 9]
    assert len(cache) == 3 and list(cache._sets)[-1] == paths[0]
    assert cache.read(str(tmp_path / "absent.parquet")).tolist() == []
    assert len(cache) == 3
    assert SG._TOMBSTONES.cap == SG._STREAM_SETS.cap == 4096


def test_tombstone_written_after_a_read_is_seen(tiny_index, tmp_path):
    d = _copy(tiny_index, tmp_path / "idx")
    eng = SearchEngine(d)
    hits, found = eng.search("t1", k=5, scoring="bm25", parallel=False)
    for p in range(N_PARTS):
        assert read_tombstones(d, p).tolist() == []
    SG.remove_docs(d, [(hits[0].conv_id, hits[0].turn_idx)])
    after, found_after = eng.search("t1", k=5, scoring="bm25", parallel=False)
    assert found_after == found - 1
    assert (hits[0].part, hits[0].doc_id) not in {(h.part, h.doc_id) for h in after}
    assert read_tombstones(d, hits[0].part).tolist() == [hits[0].doc_id]
    SG.add_to_inbox(d, "s1", [(hits[1].conv_id, hits[1].turn_idx)])
    assert read_stream_set(d, hits[1].part, "unread", "s1").tolist() == [hits[1].doc_id]
    SG.mark_read(d, "s1", [(hits[1].conv_id, hits[1].turn_idx)])
    assert read_stream_set(d, hits[1].part, "unread", "s1").tolist() == []
