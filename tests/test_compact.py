"""Index compaction (build.compact_index — the LAB compactor analogue):
extend-built partitions re-encode to the canonical posting form; queries
are unchanged; compaction is idempotent."""

import glob
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from miru_ray.build import build_index, compact_index, extend_index
from miru_ray.search import SearchEngine
from miru_ray.segments import read_global_manifest, read_manifest

N_PARTS = 4


def _postings_bytes(d: str) -> dict[int, bytes]:
    out = {}
    for p in range(N_PARTS):
        with open(os.path.join(d, f"part={p:05d}", "postings.parquet"), "rb") as f:
            out[p] = f.read()
    return out


def _decoded(d: str, p: int) -> dict:
    from miru_ray.codec import decode_posting

    t = pq.read_table(os.path.join(d, f"part={p:05d}", "postings.parquet"))
    out = {}
    for i in range(t.num_rows):
        docs, tfs = decode_posting(
            t["doc_bytes"][i].as_py(), t["tf_bytes"][i].as_py(),
            np.asarray(t["blk_first"][i].as_py()),
            np.asarray(t["blk_count"][i].as_py()),
        )
        out[t["term"][i].as_py()] = (
            list(docs), list(tfs), t["df"][i].as_py(), t["ttf"][i].as_py(),
        )
    return out


def test_compact_extended_equals_oneshot(ray_session, tiny_transcripts_dir, tmp_path_factory):
    t = pa.concat_tables(
        [pq.read_table(f) for f in sorted(glob.glob(tiny_transcripts_dir + "/*.parquet"))]
    )
    convs = t["conv_id"].to_pylist()
    cut = sorted(set(convs))[len(set(convs)) // 2]
    src1 = str(tmp_path_factory.mktemp("cmp_src1"))
    src2 = str(tmp_path_factory.mktemp("cmp_src2"))
    pq.write_table(t.filter(pc.less(t["conv_id"], cut)), os.path.join(src1, "a.parquet"))
    pq.write_table(
        t.filter(pc.greater_equal(t["conv_id"], cut)), os.path.join(src2, "b.parquet")
    )

    one = str(tmp_path_factory.mktemp("cmp_one"))
    build_index(tiny_transcripts_dir, one, n_parts=N_PARTS)
    ext = str(tmp_path_factory.mktemp("cmp_ext"))
    build_index(src1, ext, n_parts=N_PARTS)
    extend_index(src2, ext)

    # reference answers BEFORE compaction
    eng = SearchEngine(ext)
    before = {
        q: eng.search(q, k=25) for q in ("t1 t7", "w004*", "NOT t2", "t1~1")
    }
    eng.close()

    res = compact_index(ext)
    assert sorted(r["part"] for r in res) == list(range(N_PARTS))

    # canonical form: the compacted extend-built index and the compacted
    # one-shot build are BYTE-identical per partition (the normal form is
    # unique), and decoded content matches the one-shot build exactly
    compact_index(one)
    assert _postings_bytes(ext) == _postings_bytes(one)
    for p in range(N_PARTS):
        assert _decoded(ext, p) == _decoded(one, p)
    # the manifests and index.json totals record the compacted postings
    # (byte counts included), so they agree as the bytes do
    for p in range(N_PARTS):
        assert read_manifest(ext, p)["metrics"] == read_manifest(one, p)["metrics"], p
    assert read_global_manifest(ext)["totals"] == read_global_manifest(one)["totals"]

    # idempotent
    again = str(tmp_path_factory.mktemp("unused"))  # noqa: F841 (naming parity)
    b0 = _postings_bytes(ext)
    compact_index(ext)
    assert _postings_bytes(ext) == b0

    # answers unchanged (the manifest epoch bump refreshed caches)
    eng2 = SearchEngine(ext)
    for q, (hits, found) in before.items():
        h2, f2 = eng2.search(q, k=25)
        assert f2 == found, q
        assert [(h.part, h.doc_id, h.score) for h in h2] == [
            (h.part, h.doc_id, h.score) for h in hits
        ], q
    eng2.close()


def test_compact_positions_and_tombstones(ray_session, tiny_transcripts_dir, tmp_path_factory):
    """Positional occurrence streams survive compaction (phrase answers
    unchanged); tombstones are preserved."""
    from miru_ray.segments import partition, read_tombstones, remove_docs

    d = str(tmp_path_factory.mktemp("cmp_pos"))
    build_index(tiny_transcripts_dir, d, n_parts=N_PARTS, positions=True)
    f = partition(d, 0).forward_table()
    key = (f["conv_id"][0].as_py(), f["turn_idx"][0].as_py())
    remove_docs(d, [key])
    eng = SearchEngine(d)
    ph_before = eng.search('"t1 t7"', k=15)
    m_before = sum(len(r["doc_id"]) for r in eng.match("t1"))
    eng.close()

    compact_index(d)
    assert len(read_tombstones(d, 0)) == 1
    eng2 = SearchEngine(d)
    ph_after = eng2.search('"t1 t7"', k=15)
    assert [(h.part, h.doc_id) for h in ph_after[0]] == [
        (h.part, h.doc_id) for h in ph_before[0]
    ]
    assert ph_after[1] == ph_before[1]
    assert sum(len(r["doc_id"]) for r in eng2.match("t1")) == m_before
    eng2.close()
