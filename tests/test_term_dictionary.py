"""The resident term dictionary (segments.TermDictionary, held by each
resident segments.Partition) against the
``pyarrow.dataset`` filter reads it replaced: the same rows for every key
set and term range, on a built index and on a hand-written
``postings.parquet`` whose terms crowd the row-group boundaries, the
field separator and the non-BMP planes."""

import os
import random
import threading

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest

import miru_ray.segments as SG
from miru_ray.build import build_index
from miru_ray.plugins import _postings_meta, term_dfs_partition
from miru_ray.segments import (
    FIELD_SEP, POSTING_COLUMNS, part_dir, partition, read_postings_for_terms,
    read_term_between, read_term_dfs, read_term_range,
)

RG = 1024  # the build's row-group size


# ----------------------------------------------------- reference reads


def _dset(index_dir, part):
    return pads.dataset(os.path.join(part_dir(index_dir, part), "postings.parquet"),
                        format="parquet")


def ref_rows(index_dir, part, keys, columns=None):
    dset = _dset(index_dir, part)
    if not keys:  # the old reader's empty-key answer (isin([]) does not type)
        t = dset.schema.empty_table()
        return t if columns is None else t.select(columns)
    return dset.to_table(filter=pc.field("term").isin(keys), columns=columns)


def ref_between(index_dir, part, lo_key, hi_key, lo_inc=True, hi_inc=True,
                columns=("term",)):
    expr = (pc.field("term") >= lo_key) if lo_inc else (pc.field("term") > lo_key)
    expr = expr & ((pc.field("term") <= hi_key) if hi_inc else (pc.field("term") < hi_key))
    return _dset(index_dir, part).to_table(filter=expr, columns=list(columns))


def ref_prefix(index_dir, part, field, prefix):
    lo = field + FIELD_SEP + prefix
    t = ref_between(index_dir, part, lo, lo + "\U0010ffff")
    return [k[len(field) + 1:] for k in t["term"].to_pylist()]


def assert_rows(index_dir, part, keys):
    got = read_postings_for_terms(index_dir, part, keys)
    want = ref_rows(index_dir, part, keys, POSTING_COLUMNS)
    assert got.schema.equals(want.schema)
    assert got.equals(want), sorted(set(keys))[:5]
    dfs = read_term_dfs(index_dir, part, keys)
    want_df = ref_rows(index_dir, part, keys, ["term", "df"])
    assert dfs == dict(zip(want_df["term"].to_pylist(), want_df["df"].to_pylist()))


# ----------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def built(ray_session, tiny_transcripts_dir, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("idx_termdict"))
    build_index(tiny_transcripts_dir, d, n_parts=2)
    return d


# neighbours of the field separator, of the prefix upper bound and of the
# non-BMP planes
ODD_TERMS = (
    "text\x1e", "text\x1ezz", "text\x1f", "text\x1f\x1f", "text\x1f\x1e", "text\x20",
    "text\x1fa\x1f", "text\x1fa\uffff", "text\x1fa\U0010ffff", "text\x1fa\U0010ffffz",
    "text\x1f\U0001f600", "text\x1f\U0001f600x", "text\x1f\U00020000",
    "text\x1f\U0001f600\U0001f601", "text\x1f\ud7ff", "\x1f", "\x1ftext",
)


def _handwritten_terms() -> list[str]:
    rng = random.Random(7)
    terms = set(ODD_TERMS)
    for field in ("text", "tex", "texts", "role", "role^tool", "conv_id"):
        for _ in range(900):
            n = rng.randint(1, 12)
            terms.add(field + FIELD_SEP + "".join(
                rng.choice("abcxyz019-_é") for _ in range(n)))
    return sorted(terms)


@pytest.fixture(scope="module")
def handwritten(tmp_path_factory):
    """An index dir whose only partition is a hand-written postings.parquet
    (row groups of 1024, no manifest): the term, first/last doc columns and
    every column a posting read returns, with per-row filler values."""
    d = str(tmp_path_factory.mktemp("idx_handwritten"))
    terms = _handwritten_terms()
    assert len(terms) > 4 * RG
    n = len(terms)
    i = np.arange(n)

    def blocks(vals):
        return pa.array([[int(v), int(v) + 1] for v in vals], pa.large_list(pa.int32()))

    t = pa.table({
        "term": pa.array(terms, pa.large_string()),
        "first_doc": pa.array(i % 97, pa.int32()),
        "last_doc": pa.array(i % 97 + 5, pa.int32()),
        "df": pa.array(i % 13 + 1, pa.int32()),
        "ttf": pa.array(i % 17 + 1, pa.int64()),
        "n_blocks": pa.array(np.full(n, 2), pa.int32()),
        "doc_bytes": pa.array([t.encode() for t in terms], pa.large_binary()),
        "tf_bytes": pa.array([t.encode()[:3] for t in terms], pa.large_binary()),
        "blk_first": blocks(i % 97),
        "blk_count": blocks(i % 5),
        "blk_max_tf": blocks(i % 7),
        "blk_min_dl": blocks(i % 11),
        "blk_tf_end": pa.array([[1, 3]] * n, pa.large_list(pa.int64())),
    })
    os.makedirs(part_dir(d, 0))
    pq.write_table(t, os.path.join(part_dir(d, 0), "postings.parquet"), row_group_size=RG)
    return d, terms


# ----------------------------------------------------------- exact reads


@pytest.mark.parametrize("which", ["built", "handwritten"])
def test_exact_reads_match_dataset_filter(which, request):
    if which == "built":
        d = request.getfixturevalue("built")
        parts = [0, 1]
    else:
        d, _ = request.getfixturevalue("handwritten")
        parts = [0]
    for part in parts:
        terms = partition(d, part).dictionary.terms.tolist()
        assert terms == sorted(terms) and len(terms) > RG
        rng = random.Random(part)
        cases = [
            [],                                        # the empty key list
            [terms[0]], [terms[-1]], [terms[0], terms[-1]],  # first / last term
            ["text" + FIELD_SEP + "zz_absent", "\x00", "\U0010ffff"],  # absent only
            [terms[3], terms[3], terms[3]],            # duplicates
            [terms[5], "text" + FIELD_SEP + "zz_absent", terms[5], terms[-2]],
        ]
        for b in range(RG, len(terms), RG):  # both sides of each row-group boundary
            cases.append([terms[b - 1], terms[b]])
            cases.append([terms[b - 2], terms[b - 1], terms[b], terms[b + 1]]
                         if b + 1 < len(terms) else [terms[b - 1], terms[b]])
        for _ in range(25):  # random key sets, absent and duplicate keys mixed in
            ks = rng.sample(terms, rng.randint(1, 60))
            ks += [k + "\x00" for k in ks[:3]] + ks[:2]
            cases.append(ks)
        cases.append(terms)  # every term
        for keys in cases:
            assert_rows(d, part, keys)


def test_non_bmp_and_separator_neighbours(handwritten):
    d, terms = handwritten
    assert_rows(d, 0, list(ODD_TERMS))
    for t in ODD_TERMS:
        i = terms.index(t)
        assert_rows(d, 0, [t])
        assert_rows(d, 0, [t + "\x00", t[:-1]])  # absent neighbours
        assert_rows(d, 0, terms[max(0, i - 1):i + 2])  # present neighbours


# ----------------------------------------------------------- range reads


def test_prefix_ranges_match_dataset_filter(built, handwritten):
    hd, _ = handwritten
    for d, part, field, prefixes in [
        (built, 0, "text", ["", "w", "w00", "w004", "t1", "zz", "\U0010ffff"]),
        (built, 1, "role", ["", "a", "tool"]),
        (built, 1, "turn_idx", ["", "9223372036854775"]),
        (hd, 0, "text", ["", "a", "a\U0010ffff", "\U0001f600", "\x1e", "\x1f", "é", "z"]),
        (hd, 0, "tex", [""]),
        (hd, 0, "role^tool", ["", "x"]),
        (hd, 0, "", [""]),
    ]:
        for pre in prefixes:
            assert read_term_range(d, part, field, pre) == ref_prefix(d, part, field, pre), (
                field, pre)
            terms, first, last, df = _postings_meta(d, part, field, pre)
            want = ref_between(d, part, field + FIELD_SEP + pre,
                               field + FIELD_SEP + pre + "\U0010ffff",
                               columns=("term", "first_doc", "last_doc", "df"))
            sep = len(field) + 1
            assert terms == [k[sep:] for k in want["term"].to_pylist()]
            assert first.tolist() == want["first_doc"].to_pylist()
            assert last.tolist() == want["last_doc"].to_pylist()
            assert df.tolist() == want["df"].to_pylist()


def test_between_bounds_match_dataset_filter(built, handwritten):
    hd, hterms = handwritten
    texts = [t[5:] for t in hterms if t.startswith("text" + FIELD_SEP)]
    rng = random.Random(3)
    cases = [(built, 0, "turn_idx", lo, hi) for lo, hi in [
        (SG.numeric_lex(3), SG.numeric_lex(7)), (None, SG.numeric_lex(5)),
        (SG.numeric_lex(5), None), (None, None), (SG.numeric_lex(7), SG.numeric_lex(3)),
        (SG.numeric_lex(4), SG.numeric_lex(4))]]
    cases += [(hd, 0, "text", lo, hi) for lo, hi in
              [tuple(sorted(rng.sample(texts, 2))) for _ in range(15)]
              + [(texts[0], texts[-1]), (None, texts[len(texts) // 2]),
                 (texts[len(texts) // 2], None),
                 (texts[10], texts[10]), ("", "\U0010ffff"), ("\U0001f600", None)]]
    for d, part, field, lo, hi in cases:
        lo_key = field + FIELD_SEP + (lo if lo is not None else "")
        hi_key = (field + FIELD_SEP + hi if hi is not None
                  else field + FIELD_SEP + "\U0010ffff")
        for lo_inc in (True, False):
            for hi_inc in (True, False):
                want = ref_between(d, part, lo_key, hi_key, lo_inc, hi_inc)
                got = read_term_between(d, part, field, lo, hi, lo_inc, hi_inc)
                assert got == [k[len(field) + 1:] for k in want["term"].to_pylist()], (
                    field, lo, hi, lo_inc, hi_inc)


def test_term_dfs_partition_matches_dataset_filter(built):
    terms = [t[5:] for t in partition(built, 0).dictionary.terms.tolist()
             if t.startswith("text" + FIELD_SEP)]
    ask = terms[::7] + ["zz_absent"]
    want = ref_rows(built, 0, ["text" + FIELD_SEP + t for t in ask], ["term", "df"])
    assert term_dfs_partition(built, 0, "text", ask) == {
        k[5:]: v for k, v in zip(want["term"].to_pylist(), want["df"].to_pylist())}


# ----------------------------------------------------------- invariants


def test_rows_come_from_the_dictionarys_own_file(handwritten, tmp_path):
    """A postings.parquet replaced under a resident dictionary (no epoch
    move) is never paired with it: reads keep coming from the handle the
    dictionary was loaded from. A dictionary that disagrees with its rows
    raises instead of answering."""
    import shutil

    src, terms = handwritten
    d = str(tmp_path / "idx")
    shutil.copytree(src, d)
    keys = terms[RG - 2:RG + 2]
    before = read_postings_for_terms(d, 0, keys)
    td = partition(d, 0).dictionary
    path = os.path.join(part_dir(d, 0), "postings.parquet")
    other = pq.read_table(path).slice(RG // 2)
    pq.write_table(other, path + ".tmp", row_group_size=RG // 4)
    os.replace(path + ".tmp", path)
    assert partition(d, 0).dictionary is td  # same epoch: still resident
    assert read_postings_for_terms(d, 0, keys).equals(before)

    td.terms = np.roll(td.terms, 1)  # a dictionary out of step with its rows
    with pytest.raises(RuntimeError, match="do not match"):
        td.read(np.array([RG], dtype=np.int64))


def test_concurrent_reads_from_threads(built):
    """More reader threads than cores, a short switch interval, and a thread
    moving partition 0's epoch under them: every read, and every decoded
    posting the shared cache serves, matches the reference rows; one
    partition per (index_dir, part) stays resident, and no cached posting of
    a superseded partition stays in the LRU."""
    import sys

    from miru_ray.search import PostingSource
    from miru_ray.segments import manifest_path

    terms = partition(built, 0).dictionary.terms.tolist()
    sets = [random.Random(i).sample(terms, 25) for i in range(8)]
    want = [ref_rows(built, 0, ks, POSTING_COLUMNS) for ks in sets]
    errors = []
    stop = threading.Event()

    def reader(i):
        try:
            for _ in range(15):
                for j in range(len(sets)):
                    k = (i + j) % len(sets)
                    if not read_postings_for_terms(built, 0, sets[k]).equals(want[k]):
                        errors.append(k)
                    src = PostingSource(built, 0, [tuple(t.split(FIELD_SEP, 1))
                                                   for t in sets[k]], 0)
                    if sorted(src.df.values()) != sorted(want[k]["df"].to_pylist()):
                        errors.append(("cache", k))
        except Exception as e:  # noqa: BLE001 — reported below
            errors.append(e)

    def bumper():
        mp = manifest_path(built, 0)
        while not stop.is_set():
            m = os.path.getmtime(mp) + 1
            os.utime(mp, (m, m))
            stop.wait(0.005)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader, args=(i,)) for i in range(2 * os.cpu_count())]
        epoch = threading.Thread(target=bumper)
        for th in threads + [epoch]:
            th.start()
        for th in threads:
            th.join(timeout=120)
        stop.set()
        epoch.join(timeout=10)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads + [epoch])
    assert not errors, errors[:3]
    assert [k for k in SG._PARTITIONS if k == (os.path.abspath(built), 0)] == [
        (os.path.abspath(built), 0)]
    assert all(SG._PARTITIONS.get(pt.key) is pt for pt, _ in SG._POSTING_LRU)
    assert partition(built, 0).epoch == os.path.getmtime(manifest_path(built, 0))
