"""Posting-list codec: delta + varbyte compression in fixed-size blocks.

The reference stores one Roaring bitmap per (field, term) with a ``lastId``
header, optionally atomized into per-64Ki-docId chunks (reference:
miru-service/.../lab/LabInvertedIndex.java:268-292,335-399) and a cardinality
(tf) store per (field, docId, term) plus a global Σtf row
(LabFieldIndex.java:187-189,422-476).  We re-express the same information in
a Ray-Data-friendly immutable layout (per BASELINE.json north star):

* a posting = sorted docIds, **delta + varbyte** encoded in blocks of
  ``BLOCK_SIZE`` docs, with per-block ``(first_doc, count)``: the block's
  first docId restarts the deltas, and the counts split the decoded stream;
* tf values varbyte-encoded alongside (the per-doc cardinality store);
* per-posting ``df`` / ``ttf`` (df = Roaring cardinality, ttf = the
  reference's global Σtf row — the TF-IDF denominator).

A row carries only what the decoder and the merge read. One path per job,
each numpy-vectorized over whole Arrow batches with no per-term Python loop:

* **encode** — ``encode_runs``: a batch of (part, term code, doc, tf)
  triples becomes a batch of encoded *runs*, one per (part, term);
* **decode** — ``decode_posting`` decodes a whole posting, docs and tfs;
* **merge** — ``merge_runs``: runs produced from different input batches
  cover disjoint docId ranges (each batch is a contiguous slice of a
  partition's docId order, and an extend appends past the committed doc
  count), so the runs of a term concatenate by *offset subsampling* — no
  decode — the Ray-native analogue of the reference's LSM append+compact
  (MiruLocalHostedPartition.java:1083-1101). Overlapping runs raise.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

BLOCK_SIZE = 128

# Pseudo-term holding the document-length table: one "posting" whose docIds
# are all docs of the partition and whose tf is the doc's token count.  The
# analogue of the reference's per-partition activity/time bookkeeping; sorts
# before every real term ("\x01" < any printable byte).
DOCLEN_TERM = "\x01dl"

# Pseudo-term carrying a forward-table slice through the posting shuffle:
# ``doc_bytes`` holds the Arrow-IPC-serialized slice, ``first_doc/last_doc``
# its docId range (fragments concatenate in first_doc order). Never collides
# with real term keys ("<field>\x1f<term>") and sorts before them.
FWD_TERM = "\x00fwd"

# Pseudo-FIELD holding the positional index (opt-in, ``positions=True`` at
# build time): term key "\x02pos\x1f<token>" carries one entry per token
# OCCURRENCE — ``doc_bytes`` is the occurrence's docId stream (non-strict
# increasing: a doc with tf occurrences repeats tf times, delta 0) and the
# ``tf_bytes`` slot holds the token's within-doc position. Reuses the whole
# run/block/merge machinery unchanged (``strict=False`` encode); never
# enumerated by field scans (no real field starts with "\x02"). The
# reference has NO positional index (its Lucene parser throws on
# PhraseQuery, LuceneBackedQueryParser.java:106-109) — this is the
# beyond-reference seam that makes exact phrase queries possible.
POS_FIELD = "\x02pos"

RUNS_SCHEMA = pa.schema(
    [
        ("part", pa.int32()),
        ("term", pa.large_string()),
        ("first_doc", pa.int32()),
        ("last_doc", pa.int32()),
        ("df", pa.int32()),
        ("ttf", pa.int64()),
        ("n_blocks", pa.int32()),
        ("doc_bytes", pa.large_binary()),
        ("tf_bytes", pa.large_binary()),
        ("blk_first", pa.large_list(pa.int32())),
        ("blk_count", pa.large_list(pa.int32())),
    ]
)


# ----------------------------------------------------------- value codec
#
# The VALUE-STREAM codec turns a stream of non-negative ints (doc deltas,
# tfs) into bytes; everything above the byte payload — the run/block
# structure and the offset-subsampling merge — does not depend on it. There
# is one codec, varbyte (delta+LEB128, ~1 byte/doc on dense postings), and
# it is two functions:
#
#   varbyte_encode(values:int64[n]) -> (bytes:uint8[total], ends:int64[n])
#   varbyte_decode(buf:uint8[total]) -> uint64[n]
#
# ``ends`` (cumulative byte length after each value) gives each run's byte
# window inside the batch's one buffer. index.json records the codec as
# ``"codec": "varbyte"`` (segments.POSTING_CODEC); an index naming any
# other codec refuses to open.

# LEB128 length thresholds: value >= 2^(7k) needs k+1 bytes
_VB_THRESH = np.uint64(1) << (np.uint64(7) * np.arange(1, 10, dtype=np.uint64))


def varbyte_encode(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized LEB128 encode of non-negative ints.

    Returns ``(bytes:uint8[total], ends:int64[n])`` where ``ends`` is the
    cumulative byte length after each value.

    One searchsorted pass yields every byte length (no per-threshold sweep);
    values that all fit one byte (the common case for tf streams and dense
    doc deltas) short-circuit to a single cast.
    """
    v = np.asarray(values, dtype=np.uint64)
    n = len(v)
    if n == 0:
        return np.empty(0, np.uint8), np.empty(0, np.int64)
    nb = np.searchsorted(_VB_THRESH, v, side="right").astype(np.int64) + 1
    ends = np.cumsum(nb)
    total = int(ends[-1])
    if total == n:  # every value < 128: the bytes ARE the values
        return v.astype(np.uint8), ends
    starts = ends - nb
    out = np.empty(total, dtype=np.uint8)
    # first byte of EVERY value — no boolean mask on the full array
    out[starts] = ((v & np.uint64(0x7F)).astype(np.uint8)) | (
        (nb > 1).astype(np.uint8) << 7
    )
    maxnb = int(nb.max())
    for j in range(1, maxnb):
        sel = nb > j
        idx = starts[sel] + j
        byte = ((v[sel] >> np.uint64(7 * j)) & np.uint64(0x7F)).astype(np.uint8)
        cont = (nb[sel] - 1 > j).astype(np.uint8) << 7
        out[idx] = byte | cont
    return out, ends


def varbyte_decode(buf: np.ndarray) -> np.ndarray:
    """Vectorized LEB128 decode; returns uint64 values."""
    b = np.asarray(buf, dtype=np.uint8)
    if len(b) == 0:
        return np.empty(0, np.uint64)
    terminal = (b & 0x80) == 0
    group_starts = np.flatnonzero(terminal)
    # start of group i is end of group i-1 + 1
    starts = np.empty(len(group_starts), dtype=np.int64)
    starts[0] = 0
    starts[1:] = group_starts[:-1] + 1
    gid = np.zeros(len(b), dtype=np.int64)
    np.add.at(gid, starts[1:], 1)
    gid = np.cumsum(gid)
    shift = ((np.arange(len(b), dtype=np.int64) - starts[gid]) * 7).astype(np.uint64)
    contrib = (b & np.uint8(0x7F)).astype(np.uint64) << shift
    return np.add.reduceat(contrib, starts)


def _offsets_and_data(arr: pa.Array) -> np.ndarray:
    """The absolute offsets (int64[n+1]) of a binary, string or list array."""
    typ = arr.type
    if pa.types.is_large_binary(typ) or pa.types.is_large_string(typ):
        off = np.frombuffer(arr.buffers()[1], dtype=np.int64)
    elif pa.types.is_binary(typ) or pa.types.is_string(typ):
        off = np.frombuffer(arr.buffers()[1], dtype=np.int32)
    elif pa.types.is_large_list(typ):
        off = np.frombuffer(arr.buffers()[1], dtype=np.int64)
    elif pa.types.is_list(typ):
        off = np.frombuffer(arr.buffers()[1], dtype=np.int32)
    else:
        raise TypeError(str(typ))
    off = off[arr.offset : arr.offset + len(arr) + 1].astype(np.int64, copy=False)
    return off


def encode_runs(
    part: int | np.ndarray,
    codes: np.ndarray,
    doc: np.ndarray,
    tf: np.ndarray,
    dict_terms: pa.Array,
    strict: bool = True,
) -> pa.Table:
    """Encode (part, code, doc, tf) triples — sorted by (part, code, doc) —
    into one posting *run* per (part, code).

    ``part`` is one partition id or an array of them; ``dict_terms[code]``
    is the full term key (field prefix applied), so term strings
    materialize once per RUN via a dictionary take. Doc ids must
    increase strictly within a run; ``strict=False`` permits repeats (delta
    0) — the positional-index occurrence streams (POS_FIELD). Fully
    vectorized; no per-term loop."""
    n = len(doc)
    if n == 0:
        return RUNS_SCHEMA.empty_table()
    part = np.broadcast_to(np.asarray(part, dtype=np.int64), (n,))
    codes = np.asarray(codes, dtype=np.int64)
    doc = np.asarray(doc, dtype=np.int64)
    tf = np.asarray(tf, dtype=np.int64)
    new_run = np.empty(n, dtype=bool)
    new_run[0] = True
    if n > 1:
        new_run[1:] = (part[1:] != part[:-1]) | (codes[1:] != codes[:-1])
    run_starts = np.flatnonzero(new_run)
    term_per_run = dict_terms.take(pa.array(codes[run_starts])).cast(pa.large_string())
    n_runs = len(run_starts)
    run_id = np.cumsum(new_run) - 1
    within = np.arange(n, dtype=np.int64) - run_starts[run_id]

    new_block = within % BLOCK_SIZE == 0
    block_starts = np.flatnonzero(new_block)
    blk_first = doc[block_starts].astype(np.int32)
    blk_ends = np.empty(len(block_starts), dtype=np.int64)
    blk_ends[:-1] = block_starts[1:]
    blk_ends[-1] = n
    blk_count = (blk_ends - block_starts).astype(np.int32)

    deltas = np.empty(n, dtype=np.int64)
    deltas[0] = 0
    deltas[1:] = doc[1:] - doc[:-1]
    deltas[block_starts] = 0  # block-relative: first doc of a block == blk_first
    if n > 1:
        inner = deltas[~new_block]
        # strict=False: occurrence streams (POS_FIELD) repeat a doc once per
        # token occurrence — deltas of 0 are legal, regressions never are
        floor = 0 if strict else -1
        if len(inner) and inner.min() <= floor:
            raise ValueError("doc ids must be increasing within (part, term)")

    doc_buf, doc_ends = varbyte_encode(deltas)
    tf_buf, tf_ends = varbyte_encode(tf)

    # per-run byte offsets
    doc_off = np.zeros(n + 1, dtype=np.int64)
    doc_off[1:] = doc_ends
    tf_off = np.zeros(n + 1, dtype=np.int64)
    tf_off[1:] = tf_ends
    run_bounds = np.empty(n_runs + 1, dtype=np.int64)
    run_bounds[:-1] = run_starts
    run_bounds[-1] = n

    doc_bytes = pa.LargeBinaryArray.from_buffers(
        pa.large_binary(), n_runs, [None, pa.py_buffer(doc_off[run_bounds]), pa.py_buffer(doc_buf)]
    )
    tf_bytes = pa.LargeBinaryArray.from_buffers(
        pa.large_binary(), n_runs, [None, pa.py_buffer(tf_off[run_bounds]), pa.py_buffer(tf_buf)]
    )

    # per-run block-list offsets
    blocks_per_run = np.bincount(run_id[block_starts], minlength=n_runs)
    blk_offsets = np.zeros(n_runs + 1, dtype=np.int64)
    np.cumsum(blocks_per_run, out=blk_offsets[1:])

    def _list(arr32: np.ndarray) -> pa.Array:
        return pa.LargeListArray.from_arrays(blk_offsets, pa.array(arr32, type=pa.int32()))

    run_ends = run_bounds[1:] - 1
    df = (run_bounds[1:] - run_bounds[:-1]).astype(np.int32)
    ttf = np.add.reduceat(tf, run_starts)

    return pa.table(
        {
            "part": pa.array(part[run_starts].astype(np.int32), type=pa.int32()),
            "term": term_per_run,
            "first_doc": pa.array(doc[run_starts].astype(np.int32), type=pa.int32()),
            "last_doc": pa.array(doc[run_ends].astype(np.int32), type=pa.int32()),
            "df": pa.array(df, type=pa.int32()),
            "ttf": pa.array(ttf, type=pa.int64()),
            "n_blocks": pa.array(blocks_per_run.astype(np.int32), type=pa.int32()),
            "doc_bytes": doc_bytes,
            "tf_bytes": tf_bytes,
            "blk_first": _list(blk_first),
            "blk_count": _list(blk_count),
        },
        schema=RUNS_SCHEMA,
    )


def decode_posting(
    doc_bytes: bytes | np.ndarray,
    tf_bytes: bytes | np.ndarray,
    blk_first: np.ndarray,
    blk_count: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Decode one whole posting (or run) back to (docIds:int64, tfs:int64)."""
    deltas = varbyte_decode(np.frombuffer(doc_bytes, dtype=np.uint8)).astype(np.int64)
    blk_count = np.asarray(blk_count, dtype=np.int64)
    blk_first = np.asarray(blk_first, dtype=np.int64)
    starts = np.zeros(len(blk_count), dtype=np.int64)
    np.cumsum(blk_count[:-1], out=starts[1:])
    v = deltas
    v[starts] = blk_first
    c = np.cumsum(v)
    base = c[starts] - blk_first
    docs = c - np.repeat(base, blk_count)
    tfs = varbyte_decode(np.frombuffer(tf_bytes, dtype=np.uint8)).astype(np.int64)
    return docs, tfs


def merge_runs(runs: pa.Table) -> pa.Table:
    """Merge encoded runs into one posting row per (part, term).

    The runs of one (part, term) cover disjoint, ordered docId ranges: every
    producer encodes a contiguous slice of a partition's docId order, and an
    extend appends docIds past the committed ``n_docs`` (the reference's
    append-only stream-order ids, LabTimeIdIndex.java:96). So the merge is a
    sort by (part, term, first_doc) followed by **offset subsampling**: the
    concatenated encoded bytes of a term's runs are already contiguous in
    the sorted table's buffers, so the merged posting's binary value is just
    a wider offset window. Zero decode, zero per-term Python.

    Runs whose docId ranges overlap raise ``ValueError`` naming the part and
    the term: they mean a producer broke that invariant (say, a crashed
    extend's postings merged under its old manifest), and no re-encode can
    tell which copy of a doc is the right one.
    """
    if runs.num_rows == 0:
        return RUNS_SCHEMA.empty_table()
    runs = runs.combine_chunks()
    n = runs.num_rows
    # sort (part, term, first_doc) NUMERICALLY: dictionary-encode the terms
    # once (one hash pass), lex-rank the (small) dictionary, then one numpy
    # lexsort — the n-row multi-key STRING sort this replaces dominated the
    # finalize profile at millions of pre-merge runs per partition. The key
    # is unique per row (runs of one (part, term) cover disjoint docId
    # ranges), so the permutation equals the stable string sort's exactly.
    term_arr = runs["term"].combine_chunks()
    if isinstance(term_arr, pa.ChunkedArray):
        term_arr = term_arr.chunk(0) if term_arr.num_chunks else pa.array([], runs["term"].type)
    denc = term_arr.dictionary_encode()
    codes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    dic = denc.dictionary
    rank = np.empty(len(dic), dtype=np.int64)
    rank[pc.sort_indices(dic).to_numpy(zero_copy_only=False)] = np.arange(len(dic))
    tcode = rank[codes]
    part0 = runs["part"].to_numpy(zero_copy_only=False)
    fd0 = runs["first_doc"].to_numpy(zero_copy_only=False)
    order = np.lexsort((fd0, tcode, part0))
    t = runs.take(pa.array(order)).combine_chunks()
    part = part0[order].astype(np.int64)
    first_doc = fd0[order].astype(np.int64)
    last_doc = t["last_doc"].to_numpy(zero_copy_only=False).astype(np.int64)
    tc = tcode[order]

    new_group = np.empty(n, dtype=bool)
    new_group[0] = True
    if n > 1:
        new_group[1:] = (part[1:] != part[:-1]) | (tc[1:] != tc[:-1])

    overlap = (~new_group) & (first_doc <= np.concatenate([[np.int64(-1)], last_doc[:-1]]))
    if overlap.any():
        i = int(np.flatnonzero(overlap)[0])
        raise ValueError(
            f"overlapping posting runs for part {int(part[i])} term {t['term'][i].as_py()!r}: "
            f"a run starting at doc {int(first_doc[i])} follows one ending at doc "
            f"{int(last_doc[i - 1])}"
        )
    return _merge_sorted_runs(t, new_group)


def _merge_sorted_runs(t: pa.Table, new_group: np.ndarray) -> pa.Table:
    n = t.num_rows
    go = np.flatnonzero(new_group)
    n_groups = len(go)
    bounds = np.empty(n_groups + 1, dtype=np.int64)
    bounds[:-1] = go
    bounds[-1] = n

    def col(name):
        c = t[name]
        return c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c

    def np_col(name, dtype):
        a = col(name).to_numpy(zero_copy_only=False)
        return a if a.dtype == dtype else a.astype(dtype)

    def subsample_binary(name):
        arr = col(name)
        off = _offsets_and_data(arr)
        return pa.LargeBinaryArray.from_buffers(
            pa.large_binary(), n_groups, [None, pa.py_buffer(off[bounds]), arr.buffers()[2]]
        )

    def subsample_list(name):
        arr = col(name)
        off = _offsets_and_data(arr)
        values = arr.values
        return pa.LargeListArray.from_arrays(pa.array(off[bounds], type=pa.int64()), values)

    # native-dtype reduceats: df/n_blocks sums fit int32 (docIds are int32
    # so per-(part,term) df ≤ 2^31); ttf stays int64
    df = np.add.reduceat(np_col("df", np.int32), go)
    ttf = np.add.reduceat(np_col("ttf", np.int64), go)
    n_blocks = np.add.reduceat(np_col("n_blocks", np.int32), go)
    first_doc = np_col("first_doc", np.int32)[go]
    last_doc = np_col("last_doc", np.int32)[bounds[1:] - 1]

    return pa.table(
        {
            "part": col("part").take(pa.array(go)),
            "term": col("term").take(pa.array(go)),
            "first_doc": pa.array(first_doc, type=pa.int32()),
            "last_doc": pa.array(last_doc, type=pa.int32()),
            "df": pa.array(df, type=pa.int32()),
            "ttf": pa.array(ttf, type=pa.int64()),
            "n_blocks": pa.array(n_blocks, type=pa.int32()),
            "doc_bytes": subsample_binary("doc_bytes"),
            "tf_bytes": subsample_binary("tf_bytes"),
            "blk_first": subsample_list("blk_first"),
            "blk_count": subsample_list("blk_count"),
        },
        schema=RUNS_SCHEMA,
    )
