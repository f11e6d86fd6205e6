"""Tenant registry (miru-cluster topology analogue): versioned schema
records derived from manifests, schema-agreement enforcement across a
federation's members, replica wiring into the query engines."""

import os
import shutil

import pytest

from miru_ray.build import build_index
from miru_ray.registry import Registry
from miru_ray.search import SearchEngine
from miru_ray.segments import part_dir
from miru_ray.sync import sync_index


@pytest.fixture(scope="module")
def two_indexes(ray_session, tiny_transcripts_dir, tmp_path_factory):
    import glob

    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    t = pa.concat_tables(
        [pq.read_table(f) for f in sorted(glob.glob(tiny_transcripts_dir + "/*.parquet"))]
    )
    convs = sorted(set(t["conv_id"].to_pylist()))
    cut = convs[len(convs) // 2]
    d1 = str(tmp_path_factory.mktemp("reg_src1"))
    d2 = str(tmp_path_factory.mktemp("reg_src2"))
    pq.write_table(t.filter(pc.less(t["conv_id"], cut)), os.path.join(d1, "a.parquet"))
    pq.write_table(t.filter(pc.greater_equal(t["conv_id"], cut)), os.path.join(d2, "b.parquet"))
    i1 = str(tmp_path_factory.mktemp("reg_idx1"))
    i2 = str(tmp_path_factory.mktemp("reg_idx2"))
    build_index(d1, i1, n_parts=2)
    build_index(d2, i2, n_parts=2)
    return i1, i2


def test_register_describe_engine(two_indexes, tiny_transcripts_dir, tmp_path_factory):
    i1, i2 = two_indexes
    reg = Registry(str(tmp_path_factory.mktemp("registry")))
    rec = reg.register_tenant("acme", [i1, i2])
    assert rec["schema_version"] == 1
    assert rec["schema"]["tokenizer"]["analyzer"] == "default"
    assert reg.tenants() == ["acme"]

    fed = reg.engine_for("acme")
    # federated answer == the union of the members' answers
    hits, found = fed.search("t1 t7", k=10, scoring="bm25")
    f1 = SearchEngine(i1).search("t1 t7", k=0, scoring="time", early_exit=False)[1]
    f2 = SearchEngine(i2).search("t1 t7", k=0, scoring="time", early_exit=False)[1]
    assert found == f1 + f2 > 0

    # single-index tenant → plain engine
    reg.register_tenant("solo", [i1])
    assert isinstance(reg.engine_for("solo"), SearchEngine)


def test_schema_mismatch_refused(two_indexes, tiny_transcripts_dir, tmp_path_factory):
    i1, _ = two_indexes
    en_idx = str(tmp_path_factory.mktemp("reg_idx_en"))
    build_index(tiny_transcripts_dir, en_idx, n_parts=2, analyzer="en")
    reg = Registry(str(tmp_path_factory.mktemp("registry2")))
    with pytest.raises(ValueError, match="tokenize identically"):
        reg.register_tenant("bad", [i1, en_idx])


def test_schema_version_bumps_with_history(two_indexes, tiny_transcripts_dir, tmp_path_factory):
    i1, _ = two_indexes
    en_idx = str(tmp_path_factory.mktemp("reg_idx_en2"))
    build_index(tiny_transcripts_dir, en_idx, n_parts=2, analyzer="en")
    reg = Registry(str(tmp_path_factory.mktemp("registry3")))
    reg.register_tenant("t", [i1])
    # same schema re-registration: version unchanged
    rec = reg.register_tenant("t", [i1])
    assert rec["schema_version"] == 1 and rec["schema_history"] == []
    # schema change (en analyzer): version bumps, history keeps v1
    rec = reg.register_tenant("t", [en_idx])
    assert rec["schema_version"] == 2
    assert rec["schema_history"][0]["schema_version"] == 1
    assert rec["schema_history"][0]["schema"]["tokenizer"]["analyzer"] == "default"
    assert rec["schema"]["tokenizer"]["stem"] == "porter2"


def test_registry_replica_failover(two_indexes, tmp_path_factory, drop_resident):
    """engine_for wires replicas through: corrupting a primary partition
    still yields the full federated answer via the replica."""
    i1, i2 = two_indexes
    # fresh copies so the corruption can't leak into other tests
    p1 = str(tmp_path_factory.mktemp("reg_p1"))
    sync_index(i1, p1)
    rep = str(tmp_path_factory.mktemp("reg_rep"))
    sync_index(p1, rep)
    reg = Registry(str(tmp_path_factory.mktemp("registry4")))
    reg.register_tenant("ha", [p1, i2], replicas={p1: [rep]})

    want = reg.engine_for("ha").search("t1 t7", k=10, scoring="bm25")[1]
    with open(os.path.join(part_dir(p1, 0), "postings.parquet"), "wb") as f:
        f.write(b"garbage")
    drop_resident()
    got = reg.engine_for("ha").search("t1 t7", k=10, scoring="bm25", parallel=False)[1]
    assert got == want

    with pytest.raises(ValueError, match="non-member"):
        reg.register_tenant("x", [i2], replicas={p1: [rep]})
