"""Property-based codec tests (hypothesis): value-codec round-trips,
posting encode/decode identity, and merge invariance under arbitrary run
splits."""

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings, strategies as st

from miru_ray.codec import (
    RUNS_SCHEMA,
    decode_posting,
    encode_runs,
    merge_runs,
    varbyte_decode,
    varbyte_encode,
)


@given(st.lists(st.integers(min_value=0, max_value=2**63 - 1), max_size=200))
@settings(max_examples=200, deadline=None)
def test_varbyte_roundtrip(values):
    """The value-codec contract: decode(encode(v)) == v, one byte-end
    offset per value, and ends[-1] == len(buf)."""
    v = np.asarray(values, dtype=np.uint64)
    buf, ends = varbyte_encode(v)
    out = varbyte_decode(buf)
    np.testing.assert_array_equal(out, v)
    assert len(ends) == len(v)
    if len(v):
        assert ends[-1] == len(buf)


@pytest.mark.parametrize(
    "encode, decode", [(varbyte_encode, varbyte_decode)], ids=["varbyte"]
)
@given(st.lists(st.integers(min_value=0, max_value=2**32 - 1), max_size=200))
@settings(max_examples=100, deadline=None)
def test_codec_roundtrip(encode, decode, values):
    """The value-codec contract on the docId domain (uint32; docIds are
    int32): decode(encode(v)) == v and ends[-1] == len(buf)."""
    v = np.asarray(values, dtype=np.uint64)
    buf, ends = encode(v)
    np.testing.assert_array_equal(decode(buf), v)
    if len(v):
        assert ends[-1] == len(buf)
    assert len(ends) == len(v)


@st.composite
def posting(draw):
    n = draw(st.integers(min_value=1, max_value=300))
    gaps = draw(
        st.lists(st.integers(min_value=1, max_value=10_000), min_size=n, max_size=n)
    )
    docs = np.cumsum(np.asarray(gaps, dtype=np.int64)) - 1
    tfs = np.asarray(
        draw(st.lists(st.integers(min_value=1, max_value=500), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    return docs, tfs


def _encode(docs, tfs):
    """One run of the single term "x" in partition 0."""
    return encode_runs(0, np.zeros(len(docs), dtype=np.int64), docs, tfs,
                       pa.array(["x"], type=pa.large_string()))


@given(posting())
@settings(max_examples=100, deadline=None)
def test_posting_encode_decode_identity(p):
    docs, tfs = p
    t = _encode(docs, tfs)
    assert t.num_rows == 1
    d, f = decode_posting(
        t["doc_bytes"][0].as_py(), t["tf_bytes"][0].as_py(),
        np.asarray(t["blk_first"][0].as_py()), np.asarray(t["blk_count"][0].as_py()),
    )
    np.testing.assert_array_equal(d, docs)
    np.testing.assert_array_equal(f, tfs)
    assert t["df"][0].as_py() == len(docs)
    assert t["ttf"][0].as_py() == int(tfs.sum())
    # block metadata is consistent with content
    counts = np.asarray(t["blk_count"][0].as_py())
    assert counts.sum() == len(docs) and t["n_blocks"][0].as_py() == len(counts)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    np.testing.assert_array_equal(np.asarray(t["blk_first"][0].as_py()), docs[starts])


@given(posting(), st.lists(st.integers(min_value=1, max_value=299), max_size=5))
@settings(max_examples=100, deadline=None)
def test_merge_runs_split_invariance(p, cut_points):
    """Splitting a posting into arbitrary consecutive runs and merging must
    reproduce the single-run decode exactly."""
    docs, tfs = p
    cuts = sorted({c for c in cut_points if c < len(docs)})
    bounds = [0] + cuts + [len(docs)]
    parts = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi > lo:
            parts.append(_encode(docs[lo:hi], tfs[lo:hi]))
    merged = merge_runs(pa.concat_tables(parts)) if parts else RUNS_SCHEMA.empty_table()
    assert merged.num_rows == 1
    d, f = decode_posting(
        merged["doc_bytes"][0].as_py(), merged["tf_bytes"][0].as_py(),
        np.asarray(merged["blk_first"][0].as_py()), np.asarray(merged["blk_count"][0].as_py()),
    )
    np.testing.assert_array_equal(d, docs)
    np.testing.assert_array_equal(f, tfs)
    assert merged["df"][0].as_py() == len(docs)
    assert merged["ttf"][0].as_py() == int(tfs.sum())


@given(posting(), st.data())
@settings(max_examples=100, deadline=None)
def test_block_range_decode(p, data):
    """After a merge of arbitrary consecutive runs, the whole decode gives,
    for any block window, that window's docs and tfs: the window starts at
    its first block's ``blk_first`` and spans its blocks' ``blk_count``."""
    docs, tfs = p
    cuts = sorted(
        set(
            data.draw(
                st.lists(st.integers(min_value=1, max_value=max(1, len(docs) - 1)), max_size=3)
            )
        )
        - {0, len(docs)}
    )
    bounds = [0] + [c for c in cuts if c < len(docs)] + [len(docs)]
    parts = [
        _encode(docs[lo:hi], tfs[lo:hi])
        for lo, hi in zip(bounds[:-1], bounds[1:])
        if hi > lo
    ]
    t = merge_runs(pa.concat_tables(parts))
    assert t.num_rows == 1
    blk_first = np.asarray(t["blk_first"][0].as_py())
    blk_count = np.asarray(t["blk_count"][0].as_py())
    n_blocks = len(blk_first)
    assert t["n_blocks"][0].as_py() == n_blocks
    d, f = decode_posting(
        t["doc_bytes"][0].as_py(), t["tf_bytes"][0].as_py(), blk_first, blk_count
    )
    b_lo = data.draw(st.integers(min_value=0, max_value=n_blocks - 1))
    b_hi = data.draw(st.integers(min_value=b_lo + 1, max_value=n_blocks))
    starts = np.concatenate([[0], np.cumsum(blk_count)])
    lo, hi = int(starts[b_lo]), int(starts[b_hi])
    assert d[lo] == blk_first[b_lo]
    np.testing.assert_array_equal(d[lo:hi], docs[lo:hi])
    np.testing.assert_array_equal(f[lo:hi], tfs[lo:hi])
