"""Index audit (fsck) tests: a clean index audits clean; targeted
corruptions of every redundant structure surface as named errors."""

import json
import os
import shutil

import numpy as np
import pyarrow.parquet as pq
import pytest


@pytest.fixture(scope="module")
def built_index(ray_session, tiny_transcripts_dir, tmp_path_factory):
    from miru_ray.build import build_index

    idx = str(tmp_path_factory.mktemp("audit") / "idx")
    build_index(tiny_transcripts_dir, idx, n_parts=4)
    return idx


def test_audit_clean(built_index):
    from miru_ray.audit import audit_index

    rep = audit_index(built_index, sample_terms=10_000)
    assert rep["ok"], rep
    assert rep["n_parts"] == 4
    assert all(r["n_terms_checked"] > 0 for r in rep["parts"])


def _copy_index(src, dst):
    shutil.copytree(src, dst)
    return dst


def _rewrite_posting(idx, part, mutate):
    """Load partition postings, apply mutate(dict_of_columns) -> table, write."""
    import pyarrow as pa

    p = os.path.join(idx, f"part={part:05d}", "postings.parquet")
    t = pq.read_table(p)
    cols = {n: t[n].to_pylist() for n in t.schema.names}
    mutate(cols)
    pq.write_table(
        pa.table({n: pa.array(cols[n], t.schema.field(n).type) for n in t.schema.names}),
        p, row_group_size=1024,
    )


def _real_term_row(idx, part, min_df=1):
    p = os.path.join(idx, f"part={part:05d}", "postings.parquet")
    t = pq.read_table(p, columns=["term", "df"])
    for i, (term, df) in enumerate(zip(t["term"].to_pylist(), t["df"].to_pylist())):
        if term and term[0] >= " " and df >= min_df:
            return i
    raise AssertionError("no real term")


@pytest.mark.parametrize(
    "field,delta,check",
    [
        ("df", 1, "df"),
        ("ttf", 5, "ttf"),
        ("max_tf", 3, "max_tf"),
        ("first_doc", 1, "doc-range"),
    ],
)
def test_audit_flags_metadata_corruption(built_index, tmp_path, field, delta, check):
    from miru_ray.audit import audit_partition

    idx = _copy_index(built_index, str(tmp_path / f"bad_{field}"))
    row = _real_term_row(idx, 0)

    def mutate(cols):
        cols[field][row] = cols[field][row] + delta

    _rewrite_posting(idx, 0, mutate)
    rep = audit_partition(idx, 0, sample_terms=10_000)
    assert any(e["check"] == check for e in rep["errors"]), rep["errors"]


def test_audit_flags_byte_corruption(built_index, tmp_path):
    """Flipping a posting byte trips decode/df/order/offset checks."""
    from miru_ray.audit import audit_partition

    idx = _copy_index(built_index, str(tmp_path / "bad_bytes"))
    row = _real_term_row(idx, 0, min_df=3)

    def mutate(cols):
        # a MIDDLE byte: byte 0 is a block start, whose value the decoder
        # overwrites with the authoritative blk_first (that redundancy is
        # the point) — corruption there is invisible by design
        b = bytearray(cols["doc_bytes"][row])
        b[len(b) // 2] ^= 0x15
        cols["doc_bytes"][row] = bytes(b)

    _rewrite_posting(idx, 0, mutate)
    rep = audit_partition(idx, 0, sample_terms=10_000)
    assert rep["errors"], "byte flip not detected"


def test_audit_flags_manifest_drift(built_index, tmp_path):
    from miru_ray.audit import audit_partition

    idx = _copy_index(built_index, str(tmp_path / "bad_manifest"))
    mp = os.path.join(idx, "part=00000", "_MANIFEST.json")
    m = json.load(open(mp))
    m["metrics"]["n_docs"] += 7
    m["metrics"]["total_tokens"] += 11
    json.dump(m, open(mp, "w"))
    rep = audit_partition(idx, 0, sample_terms=4)
    checks = {e["check"] for e in rep["errors"]}
    assert "forward-count" in checks and "total-tokens" in checks, rep["errors"]


def test_audit_cli(built_index, capsys):
    from miru_ray.__main__ import main

    rc = main(["audit", "--index", built_index, "--sample-terms", "16"])
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc == 0 and out["ok"]


def test_audit_positional_index(ray_session, tiny_transcripts_dir, tmp_path):
    """A positions=True build audits clean, and corrupting a positional
    stream's tf (position) bytes is flagged."""
    from miru_ray.audit import audit_partition, audit_index
    from miru_ray.build import build_index

    idx = str(tmp_path / "pos_idx")
    build_index(tiny_transcripts_dir, idx, n_parts=2, positions=True)
    rep = audit_index(idx, sample_terms=200)
    assert rep["ok"], rep

    # corrupt one positional row's position stream → pos-* check fires
    p = os.path.join(idx, "part=00000", "postings.parquet")
    t = pq.read_table(p)
    import pyarrow as pa

    cols = {n: t[n].to_pylist() for n in t.schema.names}
    row = next(i for i, term in enumerate(cols["term"]) if term.startswith("\x02pos"))
    b = bytearray(cols["tf_bytes"][row])
    b[-1] = 0x7F  # a final-position byte far beyond any tiny-doc length
    cols["tf_bytes"][row] = bytes(b)
    pq.write_table(
        pa.table({n: pa.array(cols[n], t.schema.field(n).type) for n in t.schema.names}),
        p, row_group_size=1024,
    )
    rep = audit_partition(idx, 0, sample_terms=10_000)
    assert any(e["check"].startswith("pos-") for e in rep["errors"]), rep["errors"]


def test_audit_clean_through_lifecycle(ray_session, tiny_transcripts_dir, tmp_path):
    """The audit stays clean through the whole mutation lifecycle:
    build → extend → remove_docs → repair → compact."""
    import glob

    import pyarrow as pa
    import pyarrow.compute as pc

    from miru_ray.audit import audit_index
    from miru_ray.build import build_index, compact_index, extend_index, repair_partitions
    from miru_ray.segments import partition, remove_docs

    t = pa.concat_tables(
        [pq.read_table(f) for f in sorted(glob.glob(tiny_transcripts_dir + "/*.parquet"))]
    )
    convs = sorted(set(t["conv_id"].to_pylist()))
    cut = convs[len(convs) // 2]
    src1 = str(tmp_path / "src1"); os.makedirs(src1)
    src2 = str(tmp_path / "src2"); os.makedirs(src2)
    pq.write_table(t.filter(pc.less(t["conv_id"], cut)), os.path.join(src1, "a.parquet"))
    pq.write_table(t.filter(pc.greater_equal(t["conv_id"], cut)), os.path.join(src2, "b.parquet"))
    idx = str(tmp_path / "idx")
    build_index(src1, idx, n_parts=4)
    assert audit_index(idx, sample_terms=50)["ok"]

    extend_index(src2, idx)
    assert audit_index(idx, sample_terms=50)["ok"]

    fwd = partition(idx, 0).forward_table()
    keys = [
        (fwd["conv_id"][0].as_py(), int(fwd["turn_idx"][0].as_py())),
        (fwd["conv_id"][1].as_py(), int(fwd["turn_idx"][1].as_py())),
    ]
    remove_docs(idx, keys)
    assert audit_index(idx, sample_terms=50)["ok"]

    full = str(tmp_path / "full"); os.makedirs(full)
    pq.write_table(t, os.path.join(full, "all.parquet"))
    repair_partitions(idx, full, [1])
    assert audit_index(idx, sample_terms=50)["ok"]

    compact_index(idx)
    rep = audit_index(idx, sample_terms=50)
    assert rep["ok"], rep
