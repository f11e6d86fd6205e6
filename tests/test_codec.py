"""Unit tests: varbyte codec, run encoding, run merge (SURVEY.md §5 — the
reference's index-structure unit tests MiruInvertedIndexTest / LabInvertedIndexTest
invariants: set → decode round trip, lastId bookkeeping, merge)."""

import numpy as np
import pyarrow as pa
import pytest

from miru_ray.codec import (
    BLOCK_SIZE,
    decode_posting,
    encode_runs,
    merge_runs,
    varbyte_decode,
    varbyte_encode,
)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_varbyte_roundtrip(seed):
    rng = np.random.default_rng(seed)
    for n in [0, 1, 7, 1000, 50_000]:
        v = rng.integers(0, 1 << 56, n).astype(np.uint64)
        buf, ends = varbyte_encode(v)
        assert (varbyte_decode(buf) == v).all()
        if n:
            assert ends[-1] == len(buf)


def test_varbyte_small_values_one_byte():
    v = np.arange(128, dtype=np.uint64)
    buf, _ = varbyte_encode(v)
    assert len(buf) == 128


def _encode_one_term(docs, tfs, part=0, term="x"):
    return encode_runs(
        part,
        np.zeros(len(docs), dtype=np.int64),
        docs,
        tfs,
        pa.array([term], type=pa.large_string()),
    )


@pytest.mark.parametrize("n", [1, 5, BLOCK_SIZE, BLOCK_SIZE + 1, 3 * BLOCK_SIZE + 17])
def test_encode_decode_roundtrip(n):
    rng = np.random.default_rng(n)
    docs = np.sort(rng.choice(10 * n, size=n, replace=False))
    tfs = rng.integers(1, 50, n)
    runs = _encode_one_term(docs, tfs)
    assert runs.num_rows == 1
    d, t = decode_posting(
        runs["doc_bytes"][0].as_py(),
        runs["tf_bytes"][0].as_py(),
        np.asarray(runs["blk_first"][0].as_py()),
        np.asarray(runs["blk_count"][0].as_py()),
    )
    np.testing.assert_array_equal(d, docs)
    np.testing.assert_array_equal(t, tfs)
    assert runs["df"][0].as_py() == n
    assert runs["ttf"][0].as_py() == tfs.sum()
    assert runs["first_doc"][0].as_py() == docs[0]
    assert runs["last_doc"][0].as_py() == docs[-1]
    # block invariants
    bf = np.asarray(runs["blk_first"][0].as_py())
    bc = np.asarray(runs["blk_count"][0].as_py())
    assert bc.sum() == n and runs["n_blocks"][0].as_py() == len(bc)
    starts = np.concatenate([[0], np.cumsum(bc)[:-1]])
    np.testing.assert_array_equal(bf, docs[starts])


def test_multi_term_multi_part_runs():
    # interleaved (part, term) groups, sorted by (part, term code, doc)
    parts, codes, docs, tfs = [], [], [], []
    rng = np.random.default_rng(7)
    expect = {}
    dict_terms = ["aa", "bb", "cc"]
    for p in [0, 1]:
        for code, term in enumerate(dict_terms):
            n = int(rng.integers(1, 300))
            d = np.sort(rng.choice(2000, n, replace=False))
            f = rng.integers(1, 9, n)
            expect[(p, term)] = (d, f)
            parts.append(np.full(n, p))
            codes.append(np.full(n, code))
            docs.append(d)
            tfs.append(f)
    runs = encode_runs(
        np.concatenate(parts),
        np.concatenate(codes),
        np.concatenate(docs),
        np.concatenate(tfs),
        pa.array(dict_terms, type=pa.large_string()),
    )
    assert runs.num_rows == 6
    for i in range(runs.num_rows):
        key = (runs["part"][i].as_py(), runs["term"][i].as_py())
        d, f = decode_posting(
            runs["doc_bytes"][i].as_py(),
            runs["tf_bytes"][i].as_py(),
            np.asarray(runs["blk_first"][i].as_py()),
            np.asarray(runs["blk_count"][i].as_py()),
        )
        np.testing.assert_array_equal(d, expect[key][0])
        np.testing.assert_array_equal(f, expect[key][1])


def test_merge_runs_disjoint_ranges():
    """Runs from different batches (disjoint docId ranges) concatenate into
    one posting per (part, term) — the Ray-native analogue of the LSM
    append+compact (LabInvertedIndex.java:335-399)."""
    rng = np.random.default_rng(3)
    all_docs = np.sort(rng.choice(5000, 700, replace=False))
    all_tfs = rng.integers(1, 20, 700)
    chunks = np.array_split(np.arange(700), 5)
    tables = []
    for ch in chunks:
        tables.append(
            _encode_one_term(all_docs[ch], all_tfs[ch], term="zz")
        )
    merged = merge_runs(pa.concat_tables(tables))
    assert merged.num_rows == 1
    d, t = decode_posting(
        merged["doc_bytes"][0].as_py(),
        merged["tf_bytes"][0].as_py(),
        np.asarray(merged["blk_first"][0].as_py()),
        np.asarray(merged["blk_count"][0].as_py()),
    )
    np.testing.assert_array_equal(d, all_docs)
    np.testing.assert_array_equal(t, all_tfs)
    assert merged["df"][0].as_py() == 700
    assert merged["ttf"][0].as_py() == all_tfs.sum()


def test_encode_rejects_unsorted_docs():
    with pytest.raises(ValueError):
        _encode_one_term([5, 3], [1, 1])
