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
    decode_tf_range,
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
    dls = np.asarray(
        draw(st.lists(st.integers(min_value=1, max_value=400), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    return docs, tfs, dls


def _encode(docs, tfs, dls):
    """One run of the single term "x" in partition 0."""
    return encode_runs(0, np.zeros(len(docs), dtype=np.int64), docs, tfs, dls,
                       pa.array(["x"], type=pa.large_string()))


@given(posting())
@settings(max_examples=100, deadline=None)
def test_posting_encode_decode_identity(p):
    docs, tfs, dls = p
    t = _encode(docs, tfs, dls)
    assert t.num_rows == 1
    d, f = decode_posting(
        t["doc_bytes"][0].as_py(), t["tf_bytes"][0].as_py(),
        np.asarray(t["blk_first"][0].as_py()), np.asarray(t["blk_count"][0].as_py()),
    )
    np.testing.assert_array_equal(d, docs)
    np.testing.assert_array_equal(f, tfs)
    assert t["df"][0].as_py() == len(docs)
    assert t["ttf"][0].as_py() == int(tfs.sum())
    assert t["max_tf"][0].as_py() == int(tfs.max())
    # block-max metadata is consistent with content
    counts = np.asarray(t["blk_count"][0].as_py())
    assert counts.sum() == len(docs)
    bmax = np.asarray(t["blk_max_tf"][0].as_py())
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    for i, (s, c) in enumerate(zip(starts, counts)):
        assert bmax[i] == tfs[s : s + c].max()


@given(posting(), st.lists(st.integers(min_value=1, max_value=299), max_size=5))
@settings(max_examples=100, deadline=None)
def test_merge_runs_split_invariance(p, cut_points):
    """Splitting a posting into arbitrary consecutive runs and merging must
    reproduce the single-run decode exactly."""
    docs, tfs, dls = p
    cuts = sorted({c for c in cut_points if c < len(docs)})
    bounds = [0] + cuts + [len(docs)]
    parts = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi > lo:
            parts.append(_encode(docs[lo:hi], tfs[lo:hi], dls[lo:hi]))
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
    """decode_tf_range over any block window == the corresponding slice of
    the full decode, after a merge of arbitrary consecutive runs; the
    merged block byte-end offsets close on the posting's bytes."""
    docs, tfs, dls = p
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
        _encode(docs[lo:hi], tfs[lo:hi], dls[lo:hi])
        for lo, hi in zip(bounds[:-1], bounds[1:])
        if hi > lo
    ]
    t = merge_runs(pa.concat_tables(parts))
    assert t.num_rows == 1
    tf_bytes = t["tf_bytes"][0].as_py()
    blk_first = np.asarray(t["blk_first"][0].as_py())
    blk_count = np.asarray(t["blk_count"][0].as_py())
    blk_tf_end = np.asarray(t["blk_tf_end"][0].as_py())
    n_blocks = len(blk_first)
    assert t["blk_doc_end"][0].as_py()[-1] == len(t["doc_bytes"][0].as_py())
    assert blk_tf_end[-1] == len(tf_bytes)
    d, _ = decode_posting(t["doc_bytes"][0].as_py(), None, blk_first, blk_count)
    np.testing.assert_array_equal(d, docs)
    b_lo = data.draw(st.integers(min_value=0, max_value=n_blocks - 1))
    b_hi = data.draw(st.integers(min_value=b_lo + 1, max_value=n_blocks))
    f = decode_tf_range(tf_bytes, blk_tf_end, b_lo, b_hi)
    starts = np.concatenate([[0], np.cumsum(blk_count)])
    np.testing.assert_array_equal(f, tfs[int(starts[b_lo]):int(starts[b_hi])])
