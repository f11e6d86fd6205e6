"""The Ray-Data-native inverted-index build pipeline.

Re-expresses the reference's index build path (SURVEY.md §3.2:
WAL-paged batches → dedupe → dense id allocation → per-field posting
compose → per-(field,term) bitmap set → LSM merge → ready watermark;
reference: miru-service/.../partition/MiruPartitionAccessor.java:398-474,
miru-service/.../stream/MiruIndexer.java:47-126,
MiruIndexPrimaryFields.java:52-92) as ONE Ray build path: the two-phase
offset build (see the "streaming build" section below). Docs get dense
docIds in (conv_id, turn_idx) stream order per partition — the reference's
"doc id = position in stream order" invariant (LabTimeIdIndex.java:96).
Raw text never shuffles; each phase-2 task tokenizes its files into
delta+varbyte posting *runs* (the combiner: triples never leave the task
uncompressed) and spills one run pack per partition; phase 3 merges a
partition's packs by offset subsampling (codec.merge_runs — the Ray-native
analogue of LAB append+compact, MiruLocalHostedPartition.java:1083-1101)
and writes the immutable segment, manifest last (checkpoint with lineage +
metrics → resumable restarts).

Input that is not globally sorted by (conv_id, turn_idx) is sorted once
with Ray Data (``Dataset.sort`` → Parquet in a temporary directory) and
then takes the same path; sorted input skips that step.

Scale / skew notes (SURVEY.md §4, §7.3-7.4):
* The only exchange key is ``part`` (uniform by conversation hash; hot TERMS
  are not shuffle keys at all — a hot term just produces one encoded run per
  chunk, merged in O(bytes), which is the salted-groupby/two-stage-merge
  answer to term skew without a second exchange).
* Choose ``n_parts`` so one partition ≈ a few hundred MB of text (reference
  partitions hold "millions of ordered documents", README.md:12); at 100 TB
  that is tens of thousands of partitions, each finalized by an independent
  task → embarrassingly parallel across a cluster.
* A restarted build passes ``resume=True`` (default): rows of partitions
  with complete manifests are dropped in phase 2, before they are encoded.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .codec import (
    FWD_TERM,
    POS_FIELD,
    RUNS_SCHEMA,
    encode_runs,
    merge_runs,
)
from .hashing import fnv1a64
from .segments import (
    FORWARD_SCHEMA,
    INDEX_VERSION,
    META_FIELDS,
    NUM_FIELDS,
    POSTING_CODEC,
    TEXT_FIELD,
    completed_parts,
    finalize_segment,
    numeric_lex_array,
    write_global_manifest,
)
from .analyzers import tokenizer_meta as _tokenizer_meta
from .tokenize import token_counts, token_positions

INPUT_COLUMNS = ["conv_id", "turn_idx", "role", "text", "tool", "ts"]
# Docs tokenized per in-task chunk (bounds triple memory). NOTE: chunk
# boundaries are part of the index's byte-level identity — run fragmentation
# feeds the merge's block-offset subsampling, and repair_partitions asserts
# a rebuilt partition byte-equals the original — so this must be a fixed
# constant, never input- or environment-dependent. (A cache-sizing A/B that
# varied it by text bytes measured no win above this box's co-tenant noise
# and broke repair byte-identity; see BASELINE.md.)
CHUNK_DOCS = 65_536

MANIFEST_ROW_SCHEMA = pa.schema(
    [
        ("part", pa.int32()),
        ("n_docs", pa.int64()),
        ("n_terms", pa.int64()),
        ("total_tokens", pa.int64()),
        ("posting_bytes", pa.int64()),
        ("build_sec", pa.float64()),
        ("skipped", pa.bool_()),
    ]
)


def _ts_to_us(ts: pa.ChunkedArray | pa.Array) -> np.ndarray:
    arr = ts.combine_chunks() if isinstance(ts, pa.ChunkedArray) else ts
    if pa.types.is_timestamp(arr.type):
        arr = arr.cast(pa.timestamp("us")).cast(pa.int64())
    else:
        arr = arr.cast(pa.int64())
    return arr.to_numpy(zero_copy_only=False)


def _single_term_columns(t: pa.Table):
    """(field, string-values) pairs for every single-term indexed field:
    the META_FIELDS verbatim, plus NUM_FIELDS lex-encoded for range scans
    (numeric prefix composition, MiruTermComposer.java:130-145)."""
    for field in META_FIELDS:
        vals = t[field]
        yield field, (vals.combine_chunks() if isinstance(vals, pa.ChunkedArray) else vals)
    for field in NUM_FIELDS:
        yield field, numeric_lex_array(t[field])


def meta_field_runs_multi(
    t: pa.Table, part: np.ndarray, docid_of_row: np.ndarray,
) -> list[pa.Table]:
    """meta_field_runs across all partitions of a file at once (one lexsort
    per field instead of one per (field, part))."""
    out: list[pa.Table] = []
    for field, vals in _single_term_columns(t):
        nonempty = pc.fill_null(pc.not_equal(pc.coalesce(vals, ""), ""), False)
        keep = nonempty.to_numpy(zero_copy_only=False)
        if not keep.any():
            continue
        denc = vals.filter(nonempty).dictionary_encode()
        codes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        rows = np.flatnonzero(keep)
        p = part[rows]
        d = docid_of_row[rows]
        o = np.lexsort((d, codes, p))
        dict_terms = pc.binary_join_element_wise(pa.scalar(field + "\x1f"), denc.dictionary, "")
        out.append(
            encode_runs(p[o], codes[o], d[o], np.ones(len(o), dtype=np.int64), dict_terms)
        )
    return out


# schema-declared pairedLatest pairs (MiruSchema.java:21-107 `pairedLatest`
# map). The rebuild's schema is fixed, so the one meaningful pair is
# declared here; the bundle is recomputed per partition at finalize time.
PAIRED_LATEST_PAIRS = (("role", "tool"),)

# schema-declared composite fields (MiruSchema.java:32 `composite` map): a
# composite field's values are the cartesian product of its source fields'
# values packed into one term (MiruActivityInternExtern.java:97-146), so a
# filter on the combination is a single posting lookup. An activity missing
# ANY source value gets NO composite term (the `accumFieldValues.clear()`
# guard at :123-126). The pack joiner is "\x1e" (the reference packs with
# the term composer's length-prefixed concat, MiruTermComposer.java:39-62 —
# any injective packing works); queries spell it "^": `role_tool:tool^grep`.
COMPOSITE_FIELDS: dict[str, tuple[str, ...]] = {"role_tool": ("role", "tool")}
COMPOSITE_SEP = "\x1e"


def paired_latest_field(a: str, b: str) -> str:
    """Field name of the pairedLatest index for pair (A, B) — the
    reference's makePairedLatestTerm separator '^'
    (MiruIndexUtil.java:20-26: va + '^' + fieldB under field A's
    pairedLatest field type)."""
    return f"{a}^{b}"


def paired_latest_runs(part: int, doc_ids: np.ndarray, cols: dict) -> list[pa.Table]:
    """The pairedLatest feature bundle (MiruIndexPairedLatest.java:36-56
    compose → :103-151 index): for each schema pair (A, B) and each value
    va of A, ONE posting under field ``A^B``, term va, holding exactly one
    docId per distinct co-occurring B value — the LATEST (max docId; docId
    order == time order), tf = 1. Answers "for each distinct value of this
    field, what is the latest activity against each distinct value of the
    related field?". Rows where either side is empty/null don't
    participate (matching the reference's null fieldValues guard).

    Computed from the full partition forward columns — NOT per input file:
    latest-per-pair is a partition-global property, so this runs at
    finalize/extend time where the merged forward is available."""
    out: list[pa.Table] = []
    for a, b in PAIRED_LATEST_PAIRS:
        va = cols[a].combine_chunks() if isinstance(cols[a], pa.ChunkedArray) else cols[a]
        vb = cols[b].combine_chunks() if isinstance(cols[b], pa.ChunkedArray) else cols[b]
        ok = pc.and_(
            pc.fill_null(pc.not_equal(pc.coalesce(va, ""), ""), False),
            pc.fill_null(pc.not_equal(pc.coalesce(vb, ""), ""), False),
        )
        keep = ok.to_numpy(zero_copy_only=False)
        if not keep.any():
            continue
        rows = np.flatnonzero(keep)
        ea = va.filter(ok).dictionary_encode()
        eb = vb.filter(ok).dictionary_encode()
        ia = ea.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        ib = eb.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        pair = ia * np.int64(len(eb.dictionary)) + ib
        # stable sort by pair keeps row (== docId) order within each pair;
        # the group's last element is the pair's latest doc
        order = np.argsort(pair, kind="stable")
        sp = pair[order]
        is_last = np.concatenate([sp[1:] != sp[:-1], [True]])
        sel = order[is_last]
        va_codes = ia[sel]
        docs = doc_ids[rows[sel]]
        o2 = np.lexsort((docs, va_codes))
        dict_terms = pc.binary_join_element_wise(
            pa.scalar(paired_latest_field(a, b) + "\x1f"), ea.dictionary, ""
        )
        out.append(
            encode_runs(
                part,
                va_codes[o2],
                docs[o2],
                np.ones(len(o2), dtype=np.int64),
                dict_terms,
            )
        )
    return out


def composite_runs(part: int, doc_ids: np.ndarray, cols: dict) -> list[pa.Table]:
    """Composite-field postings (MiruSchema.java:32 `composite`;
    MiruActivityInternExtern.java:97-146): for each declared composite field,
    one term per doc = its source fields' values joined by COMPOSITE_SEP,
    tf = 1; docs missing any source value are skipped. Source columns are
    single-valued strings here, so the reference's cartesian product is the
    1-tuple per row. Derived from the partition forward columns at
    finalize/extend — per-doc postings that never ride the exchange."""
    out: list[pa.Table] = []
    for name, sources in COMPOSITE_FIELDS.items():
        vals = []
        ok = None
        for s in sources:
            v = cols[s]
            v = v.combine_chunks() if isinstance(v, pa.ChunkedArray) else v
            m = pc.fill_null(pc.not_equal(pc.coalesce(v, ""), ""), False)
            ok = m if ok is None else pc.and_(ok, m)
            vals.append(v)
        keep = ok.to_numpy(zero_copy_only=False)
        if not keep.any():
            continue
        rows = np.flatnonzero(keep)
        joined = vals[0].filter(ok)
        for v in vals[1:]:
            joined = pc.binary_join_element_wise(joined, v.filter(ok), COMPOSITE_SEP)
        enc = joined.dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        docs = doc_ids[rows]
        # rows arrive in docId order; stable grouping by code keeps each
        # term's docs ascending
        o = np.argsort(codes, kind="stable")
        dict_terms = pc.binary_join_element_wise(
            pa.scalar(name + "\x1f"), enc.dictionary, ""
        )
        out.append(
            encode_runs(
                part,
                codes[o],
                docs[o],
                np.ones(len(o), dtype=np.int64),
                dict_terms,
            )
        )
    return out


def forward_to_run_row(part: int, first_doc: int, last_doc: int, forward: pa.Table) -> pa.Table:
    """Wrap a forward-table slice as one FWD_TERM run row (Arrow IPC bytes)."""
    import io

    sink = io.BytesIO()
    with pa.ipc.new_stream(sink, forward.schema) as w:
        w.write_table(forward)
    payload = sink.getvalue()
    empty_i32 = pa.array([[]], type=pa.large_list(pa.int32()))
    return pa.table(
        {
            "part": pa.array([part], type=pa.int32()),
            "term": pa.array([FWD_TERM], type=pa.large_string()),
            "first_doc": pa.array([first_doc], type=pa.int32()),
            "last_doc": pa.array([last_doc], type=pa.int32()),
            "df": pa.array([forward.num_rows], type=pa.int32()),
            "ttf": pa.array([0], type=pa.int64()),
            "n_blocks": pa.array([0], type=pa.int32()),
            "doc_bytes": pa.array([payload], type=pa.large_binary()),
            "tf_bytes": pa.array([b""], type=pa.large_binary()),
            "blk_first": empty_i32,
            "blk_count": empty_i32,
        },
        schema=RUNS_SCHEMA,
    )


# Pack rows: extend_index's groupby(part) exchange moves ONE row per
# (task, part) — the task's runs sub-table serialized as Arrow IPC —
# instead of millions of small run rows. Same bytes, ~1000× fewer rows: the
# sort machinery's per-row cost (boundary partitioning, block concatenation)
# collapses, which is what keeps the exchange off the critical path.
PACK_SCHEMA = pa.schema([("part", pa.int32()), ("payload", pa.large_binary())])
SPILL_ROW_SCHEMA = pa.schema([("part", pa.int32()), ("bytes", pa.int64())])


def _ipc_bytes(t: pa.Table) -> bytes:
    import io

    sink = io.BytesIO()
    with pa.ipc.new_stream(sink, t.schema) as w:
        w.write_table(t)
    return sink.getvalue()


def pack_runs_by_part(t: pa.Table) -> pa.Table:
    """RUNS_SCHEMA rows → PACK_SCHEMA rows (one per part present)."""
    parts_np = t["part"].to_numpy(zero_copy_only=False)
    order = np.argsort(parts_np, kind="stable")
    ts = t.take(pa.array(order)).combine_chunks()
    sp = parts_np[order]
    starts = np.flatnonzero(np.concatenate([[True], sp[1:] != sp[:-1]])) if len(sp) else np.empty(0, np.int64)
    out_parts, payloads = [], []
    for i, s in enumerate(starts):
        e = starts[i + 1] if i + 1 < len(starts) else len(sp)
        out_parts.append(int(sp[s]))
        payloads.append(_ipc_bytes(ts.slice(s, e - s)))
    return pa.table(
        {
            "part": pa.array(out_parts, type=pa.int32()),
            "payload": pa.array(payloads, type=pa.large_binary()),
        },
        schema=PACK_SCHEMA,
    )


def unpack_group(group: pa.Table) -> pa.Table:
    """PACK_SCHEMA rows of one partition → concatenated RUNS_SCHEMA table."""
    tables = []
    for i in range(group.num_rows):
        buf = group["payload"][i].as_py()
        tables.append(pa.ipc.open_stream(buf).read_all())
    return pa.concat_tables(tables).combine_chunks() if tables else RUNS_SCHEMA.empty_table()


def assemble_forward(fwd_rows: pa.Table) -> pa.Table | None:
    """FWD pseudo-rows → the partition's forward table (slices concatenated
    in first_doc order). Payload buffers are read zero-copy
    (``as_buffer``); only the final forward table (a few MB per partition —
    no text) is materialized contiguously."""
    if fwd_rows.num_rows == 0:
        return None
    order = np.argsort(
        fwd_rows["first_doc"].to_numpy(zero_copy_only=False), kind="stable"
    )
    col = fwd_rows["doc_bytes"]
    tables = [
        pa.ipc.open_stream(col[int(i)].as_buffer()).read_all() for i in order
    ]
    return pa.concat_tables(tables).combine_chunks()


def runs_split_forward(group: pa.Table) -> tuple[pa.Table, pa.Table | None]:
    """Split a partition's shuffled runs into (posting runs, forward table).
    Forward slices concatenate in first_doc order. (The spill path avoids
    this filter — see finalize_spilled_partition's zero-copy suffix split;
    this stays for extend's groupby exchange, whose packs arrive
    pre-unpacked.)"""
    is_fwd = pc.equal(group["term"], FWD_TERM)
    if not pc.any(is_fwd).as_py():
        return group, None
    rest = group.filter(pc.invert(is_fwd))
    return rest, assemble_forward(group.filter(is_fwd))


def _totals_from_manifests(index_dir: str) -> dict:
    """Global corpus totals recomputed from ALL complete per-partition
    manifests (built + resumed + extended) — the single source of truth, so
    resume/extend cannot undercount index.json."""
    from .segments import read_manifest

    tot = {"n_docs": 0, "total_tokens": 0, "posting_bytes": 0}
    for p in completed_parts(index_dir):
        mt = read_manifest(index_dir, p)["metrics"]
        tot["n_docs"] += int(mt.get("n_docs", 0))
        tot["total_tokens"] += int(mt.get("total_tokens", 0))
        tot["posting_bytes"] += int(mt.get("posting_bytes", 0))
    return tot


# --------------------------------------------------------- streaming build
#
# Two-phase offset build: the scale architecture. The raw corpus (dominated
# by `text`) NEVER moves through a shuffle:
#
#   phase 1  metadata scan (Ray tasks, one per input file, reading only
#            (conv_id, turn_idx)): per-file per-partition row counts +
#            verification that files are globally sorted by (conv_id,
#            turn_idx). Exclusive prefix sums over files give every file its
#            per-partition docId base offsets — docIds become computable
#            locally, replacing the reference's serial id allocator
#            (LabTimeIdIndex.java:96) with pure arithmetic.
#   phase 2  one Ray Data task per file group: tokenize + encode posting
#            RUNS with global docIds (forward-table slices ride along as
#            IPC pseudo-runs); each task's per-partition run PACK is
#            spilled into the partition's runs dir as the task finishes.
#            Only the compressed packs (≈5× smaller than the text) leave
#            the task.
#   phase 3  per-partition finalize (plain-task scatter): merge packs by
#            offset subsampling (codec.merge_runs — no decode), write
#            postings + forward, manifest LAST.
#
# Scale notes: the base offsets are a CSR triple over the NONZERO
# (file, part) pairs (sparse_bases) — phase 1 ships sparse per-file counts
# and the dense (n_files × n_parts) matrix never exists; the triple is
# broadcast ONCE via ray.put (zero-copy numpy views per actor; the item
# dataset carries only paths and file indexes). Memory = Σ_f |parts(f)|:
# small files touch few partitions and cost O(1); only files that really
# span all partitions pay n_parts entries. At 10^12-turn scale
# ``partitioning="range"`` remains the preferred mode (the reference's own
# time-ordered partition rollover, MiruPartitioner.java:106-165): partition
# membership becomes arithmetic over one scalar row offset per file, even
# the CSR ceases to exist, and each file overlaps ≤ 2 partitions.


def list_input_files(input_path: str | list[str]) -> list[str]:
    import glob as _glob

    if isinstance(input_path, (list, tuple)):
        return sorted(input_path)
    if os.path.isdir(input_path):
        return sorted(_glob.glob(os.path.join(input_path, "*.parquet")))
    return [input_path]


def scan_file_meta(path: str, n_parts: int, partitioning: str = "hash") -> dict:
    """Phase-1 worker: per-partition counts + sort-order validation for one
    file (reads only the two key columns). Range partitioning needs no
    per-row hashing — partition membership is pure arithmetic over the
    file's global row offset, so ``counts`` stays None."""
    import pyarrow.parquet as pq

    t = pq.read_table(path, columns=["conv_id", "turn_idx"], use_threads=False)
    n = t.num_rows
    conv = t["conv_id"].combine_chunks()
    turn = t["turn_idx"].combine_chunks().cast(pa.int64()).to_numpy(zero_copy_only=False)
    if partitioning == "range":
        parts_nz, counts = None, None
    else:
        part = (fnv1a64(conv) % np.uint64(n_parts)).astype(np.int64)
        dense = np.bincount(part, minlength=n_parts).astype(np.int64)
        # SPARSE nonzero (part, count) pairs: the phase-1 result set and the
        # bases structure built from it are sized by the partitions each
        # file actually touches, never n_files × n_parts
        parts_nz = np.flatnonzero(dense).astype(np.int64)
        counts = dense[parts_nz]
    bad = None  # first key that does not sort strictly after its predecessor
    if n > 1:
        gt = pc.greater(conv.slice(1), conv.slice(0, n - 1)).to_numpy(zero_copy_only=False)
        eq = pc.equal(conv.slice(1), conv.slice(0, n - 1)).to_numpy(zero_copy_only=False)
        viol = np.flatnonzero(~(gt | (eq & (turn[1:] > turn[:-1]))))
        if len(viol):
            i = int(viol[0]) + 1
            bad = (conv[i].as_py(), int(turn[i]))
    return {
        "parts": parts_nz,
        "counts": counts,
        "ok": bad is None,
        "bad": bad,
        "first": (conv[0].as_py(), int(turn[0])) if n else None,
        "last": (conv[-1].as_py(), int(turn[-1])) if n else None,
        "rows": n,
    }


def _order_violation(files: list[str], metas: list[dict]) -> str | None:
    """Why ``files`` (with their phase-1 ``metas``) are not one stream sorted
    strictly by (conv_id, turn_idx) — naming the offending key — or None.
    Duplicate keys count as violations."""
    prev = None  # (file, last key) of the previous non-empty file
    for f, m in zip(files, metas):
        if not m["ok"]:
            return f"{f}: key {m['bad']} does not sort after the row before it"
        if m["first"] is None:
            continue
        if prev is not None and not prev[1] < m["first"]:
            return f"{f} starts at key {m['first']}, not after {prev[0]}'s last key {prev[1]}"
        prev = (f, m["last"])
    return None


def sparse_bases(
    metas: list[dict], base_off: np.ndarray | None = None
) -> tuple[dict, dict[int, int]]:
    """CSR per-file docId-base offsets from SPARSE phase-1 partition counts.

    Exclusive prefix sums per partition over file order, computed over the
    (file, part, count) NONZERO triples only — the dense
    (n_files × n_parts) matrix never materializes (at 10^4 files ×
    10^4 parts that matrix is 0.8 GB; the triples are sized by the
    partitions each file actually touches). ``base_off`` (extend path) is
    a dense int64[n_parts] of pre-existing per-partition doc counts added
    to every base. Returns ({"indptr", "cols", "vals"}, n_docs_by_part):
    file f touches partitions cols[indptr[f]:indptr[f+1]] with docId
    bases vals[...]."""
    nnz = np.array([len(m["parts"]) for m in metas], dtype=np.int64)
    indptr = np.zeros(len(metas) + 1, dtype=np.int64)
    np.cumsum(nnz, out=indptr[1:])
    if indptr[-1] == 0:
        return (
            {"indptr": indptr, "cols": np.empty(0, np.int64),
             "vals": np.empty(0, np.int64)},
            {},
        )
    cols = np.concatenate(
        [np.asarray(m["parts"], dtype=np.int64) for m in metas if len(m["parts"])]
    )
    cnts = np.concatenate(
        [np.asarray(m["counts"], dtype=np.int64) for m in metas if len(m["parts"])]
    )
    fidx = np.repeat(np.arange(len(metas), dtype=np.int64), nnz)
    order = np.lexsort((fidx, cols))
    sc, scnt = cols[order], cnts[order]
    run_start = np.concatenate([[True], sc[1:] != sc[:-1]])
    excl = np.cumsum(scnt) - scnt  # global exclusive prefix
    run_id = np.cumsum(run_start) - 1
    vals_sorted = excl - excl[run_start][run_id]  # per-partition exclusive
    if base_off is not None:
        vals_sorted = vals_sorted + base_off[sc]
    vals = np.empty_like(vals_sorted)
    vals[order] = vals_sorted
    starts = np.flatnonzero(run_start)
    totals = np.add.reduceat(scnt, starts)
    n_docs_by_part = {int(p): int(c) for p, c in zip(sc[starts], totals) if c > 0}
    return {"indptr": indptr, "cols": cols, "vals": vals}, n_docs_by_part


class FileIndexer:
    """Phase-2 actor-pool stage: one input file per call → posting runs with
    global docIds, plus the file's forward-table slices serialized as Arrow
    IPC inside special ``FWD_TERM`` run rows.

    Two exchange modes:
    * ``spill_dir=None`` (extend_index): packed runs travel through the ONE
      groupby(part) exchange into ``SegmentExtender``.
    * ``spill_dir`` set (build_index): each (task, part) pack is
      written DIRECTLY into the partition's runs dir as the task finishes —
      the exchange overlaps phase-2 compute instead of waiting on a sort
      barrier, and the spilled packs double as a phase-2 checkpoint (the
      reference's LSM append files, LabInvertedIndex append;
      on a cluster the runs dirs live on the shared segment store the index
      itself is written to)."""

    def __init__(self, index_dir: str, n_parts: int, skip_parts: frozenset[int],
                 use_stopwords: bool = False, spill_dir: str | None = None,
                 bases_ref=None, rows_per_part: int | None = None,
                 analyzer: str = "default", positions: bool = False):
        from .analyzers import get_analyzer

        self._flat = get_analyzer(analyzer).flat
        self.positions = positions
        self.index_dir = index_dir
        self.n_parts = n_parts
        self.skip = skip_parts
        self.use_stopwords = use_stopwords
        self.spill_dir = spill_dir
        # range partitioning (the reference's time-ordered rollover,
        # MiruPartitioner.java:106-165): partition = contiguous global-row
        # range of fixed size rows_per_part. Partition AND docId are pure
        # arithmetic over the file's global row offset — no (n_files ×
        # n_parts) bases matrix exists at all in this mode, so phase 1
        # stays O(n_files) at any n_parts (each file touches ≤ 2 partitions)
        self.rows_per_part = rows_per_part
        # the docId-base offsets travel through the object store ONCE as a
        # CSR triple (ray.put broadcast, zero-copy numpy views per actor),
        # sized by the NONZERO (file, part) pairs — the dense
        # (n_files × n_parts) matrix never exists (see sparse_bases); the
        # item dataset carries only paths and file indexes
        self._bases = None
        self._scratch = None
        if bases_ref is not None:
            import ray

            self._bases = ray.get(bases_ref)
        # each actor is scheduled as ONE cpu — keep Arrow's internal pool at
        # one thread too, or 30 actors × ncpu-thread parquet/compute pools
        # thrash the box (massive oversubscription at high concurrency)
        pa.set_cpu_count(1)
        pa.set_io_thread_count(2)

    def _one_file(self, path: str, fidx: int, bases: np.ndarray | None,
                  goff: int | None = None) -> tuple[list[pa.Table], list[pa.Table]]:
        import pyarrow.parquet as pq

        t = pq.read_table(path, columns=INPUT_COLUMNS, use_threads=False)
        n = t.num_rows
        if n == 0:
            return [], []
        if self.rows_per_part is not None:
            # range mode: global row g = file offset + row; part = g // R,
            # docId = g - part·R. Rows arrive already grouped by part
            # (contiguous ranges), so the argsort below is a no-op pass.
            g = goff + np.arange(n, dtype=np.int64)
            part = g // np.int64(self.rows_per_part)
            docid_of_row = g - part * np.int64(self.rows_per_part)
            order = np.arange(n, dtype=np.int64)
            sp = part
            grp_starts = np.flatnonzero(np.concatenate([[True], sp[1:] != sp[:-1]]))
            grp_counts = np.diff(np.append(grp_starts, n))
        else:
            conv = t["conv_id"].combine_chunks()
            part = (fnv1a64(conv) % np.uint64(self.n_parts)).astype(np.int64)

            # vectorized per-row docId: rank within part (row order == stable
            # (conv_id, turn_idx) order, validated in phase 1) + the file's base
            order = np.argsort(part, kind="stable")
            sp = part[order]
            grp_starts = np.flatnonzero(np.concatenate([[True], sp[1:] != sp[:-1]]))
            grp_counts = np.diff(np.append(grp_starts, n))
            within = np.arange(n, dtype=np.int64) - np.repeat(grp_starts, grp_counts)
            docid_of_row = np.empty(n, dtype=np.int64)
            docid_of_row[order] = bases[sp] + within

        if self.skip:
            keep = ~np.isin(part, np.fromiter(self.skip, dtype=np.int64))
            if not keep.any():
                return [], []
            if not keep.all():
                t = t.filter(pa.array(keep)).combine_chunks()
                part = part[keep]
                docid_of_row = docid_of_row[keep]
                n = t.num_rows
                order = np.argsort(part, kind="stable")
                sp = part[order]
                grp_starts = np.flatnonzero(np.concatenate([[True], sp[1:] != sp[:-1]]))
                grp_counts = np.diff(np.append(grp_starts, n))

        runs: list[pa.Table] = []
        fwds: list[pa.Table] = []
        dl_all = np.zeros(n, dtype=np.int32)
        # tokenize the WHOLE file chunk-wise (vectorization over all parts at
        # once), then one lexsort groups triples by (part, term, doc)
        for lo in range(0, n, CHUNK_DOCS):
            hi = min(n, lo + CHUNK_DOCS)
            parents, tokens = self._flat(
                t["text"].slice(lo, hi - lo), use_stopwords=self.use_stopwords
            )
            dl_all[lo:hi] = token_counts(parents, hi - lo)
            if len(parents) == 0:
                continue
            denc = (
                tokens.combine_chunks() if isinstance(tokens, pa.ChunkedArray) else tokens
            ).dictionary_encode()
            codes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
            rows = parents + lo
            pos2 = token_positions(parents) if self.positions else None
            # ONE int64 sort over packed (part, code, in-file row) — row order
            # equals docId order within a partition, so the pack preserves the
            # (part, term, doc) grouping the encoder needs at ~1/4 the memory
            # traffic of a 3-key lexsort (positions=True pays a stable argsort
            # instead: occurrence payloads must ride through the sort)
            if n < (1 << 21) and len(denc.dictionary) < (1 << 23) and self.n_parts < (1 << 20):
                comp = (part[rows] << np.int64(44)) | (codes << np.int64(21)) | rows
                if pos2 is None:
                    comp.sort()
                else:
                    o2 = np.argsort(comp, kind="stable")
                    comp = comp[o2]
                    pos2 = pos2[o2]
                r2 = comp & np.int64((1 << 21) - 1)
                c2 = (comp >> np.int64(21)) & np.int64((1 << 23) - 1)
                p2 = comp >> np.int64(44)
                same = np.zeros(len(comp), dtype=bool)
                same[1:] = comp[1:] == comp[:-1]
            else:  # huge-file fallback
                p_tok = part[rows]
                d_tok = docid_of_row[rows]
                o2 = np.lexsort((d_tok, codes, p_tok))  # stable per key
                p2, c2, r2 = p_tok[o2], codes[o2], rows[o2]
                if pos2 is not None:
                    pos2 = pos2[o2]
                same = np.zeros(len(o2), dtype=bool)
                same[1:] = (p2[1:] == p2[:-1]) & (c2[1:] == c2[:-1]) & (r2[1:] == r2[:-1])
            starts = np.flatnonzero(~same)
            tf = np.diff(np.append(starts, len(same)))
            rs = r2[starts]
            dict_terms = pc.binary_join_element_wise(
                pa.scalar(TEXT_FIELD + "\x1f"), denc.dictionary, ""
            )
            runs.append(
                encode_runs(p2[starts], c2[starts], docid_of_row[rs], tf, dict_terms)
            )
            if pos2 is not None:
                # positional runs: one entry per occurrence (POS_FIELD keys),
                # docIds repeating per occurrence, tf slot = within-doc pos
                pos_terms = pc.binary_join_element_wise(
                    pa.scalar(POS_FIELD + "\x1f"), denc.dictionary, ""
                )
                runs.append(
                    encode_runs(p2, c2, docid_of_row[r2], pos2, pos_terms, strict=False)
                )
        # meta fields across all parts at once
        runs.extend(meta_field_runs_multi(t, part, docid_of_row))
        # forward slices per part, shipped as IPC pseudo-runs. Select the
        # forward columns ONCE before the per-part takes: taking from the
        # full table would copy the text column (the corpus's largest) per
        # group for rows the forward table never carries.
        tmeta = t.select(["conv_id", "turn_idx", "role", "tool", "ts"])
        for gi, gs in enumerate(grp_starts):
            rows_p = order[gs : gs + grp_counts[gi]]
            p = int(sp[gs])
            sub = tmeta.take(pa.array(rows_p))
            doc_ids = docid_of_row[rows_p]
            forward = pa.table(
                {
                    "doc_id": pa.array(doc_ids.astype(np.int32), type=pa.int32()),
                    "conv_id": sub["conv_id"],
                    "turn_idx": pc.cast(sub["turn_idx"], pa.int32()),
                    "role": sub["role"],
                    "tool": sub["tool"],
                    "ts": pa.array(_ts_to_us(sub["ts"]), type=pa.int64()),
                    "dl": pa.array(dl_all[rows_p], type=pa.int32()),
                },
                schema=FORWARD_SCHEMA,
            )
            fwds.append(forward_to_run_row(p, int(doc_ids[0]), int(doc_ids[-1]), forward))
        return runs, fwds

    def __call__(self, batch: pa.Table) -> pa.Table:
        runs: list[pa.Table] = []
        fwds: list[pa.Table] = []
        for i in range(batch.num_rows):
            fidx = int(batch["fidx"][i].as_py())
            if self.rows_per_part is not None:
                goff = int(batch["goff"][i].as_py())
                r, f = self._one_file(batch["path"][i].as_py(), fidx, None, goff)
            else:
                # CSR slice → per-file scratch vector. Stale entries from a
                # previous file are never read: _one_file only indexes
                # bases[p] for partitions THIS file's rows hash to, which are
                # exactly the cols just written.
                ip = self._bases["indptr"]
                lo, hi = int(ip[fidx]), int(ip[fidx + 1])
                if self._scratch is None or len(self._scratch) != self.n_parts:
                    self._scratch = np.zeros(self.n_parts, dtype=np.int64)
                bases = self._scratch
                bases[self._bases["cols"][lo:hi]] = self._bases["vals"][lo:hi]
                r, f = self._one_file(batch["path"][i].as_py(), fidx, bases)
            runs.extend(r)
            fwds.extend(f)
        runs = [r for r in runs if r.num_rows]
        if not runs and not fwds:
            return PACK_SCHEMA.empty_table() if self.spill_dir is None else SPILL_ROW_SCHEMA.empty_table()
        t = pa.concat_tables(runs) if runs else RUNS_SCHEMA.empty_table()
        if batch.num_rows > 1 and t.num_rows:
            # in-task combiner: merge the files' runs per (part, term) BEFORE
            # the shuffle (offset subsampling, no decode) — shrinks the
            # exchange by ~the files-per-task factor. FWD rows are tracked
            # separately (never filtered out of the byte stream) and stay
            # a per-part SUFFIX after the stable pack sort — the finalize
            # splits packs by zero-copy slices instead of a filter copy.
            t = merge_runs(t)
        if fwds:
            t = pa.concat_tables([t] + fwds)
        if self.spill_dir is None:
            return pack_runs_by_part(t)
        # spill mode: stream each part's slice STRAIGHT into its runs-dir
        # file (atomic tmp+rename; task retries rewrite identical bytes) —
        # no in-memory IPC payload is ever built (pack_runs_by_part's
        # _ipc_bytes pass existed only to ride a groupby exchange). Returns
        # one tiny marker row per pack.
        parts_np = t["part"].to_numpy(zero_copy_only=False)
        order = np.argsort(parts_np, kind="stable")
        ts = t.take(pa.array(order))
        sp = parts_np[order]
        starts = (
            np.flatnonzero(np.concatenate([[True], sp[1:] != sp[:-1]]))
            if len(sp) else np.empty(0, np.int64)
        )
        task_tag = int(batch["fidx"][0].as_py())
        out_parts, out_bytes = [], []
        for i, s in enumerate(starts):
            e = starts[i + 1] if i + 1 < len(starts) else len(sp)
            part = int(sp[s])
            d = os.path.join(self.spill_dir, f"part={part:05d}")
            os.makedirs(d, exist_ok=True)
            path = os.path.join(d, f"pack-{task_tag:06d}.arrow")
            sl = ts.slice(s, e - s)
            with open(path + ".tmp", "wb") as f:
                with pa.ipc.new_stream(f, sl.schema) as w:
                    w.write_table(sl)
            os.replace(path + ".tmp", path)
            out_parts.append(part)
            out_bytes.append(os.path.getsize(path))
        return pa.table(
            {"part": pa.array(out_parts, pa.int32()), "bytes": pa.array(out_bytes, pa.int64())},
            schema=SPILL_ROW_SCHEMA,
        )


def _ts_bounds(forward: pa.Table | None) -> dict:
    """Per-partition ts zone map recorded in the manifest: the query side
    prunes partitions whose [ts_min, ts_max] misses the query's time range,
    and — when partitions are closed time segments (range partitioning, the
    reference's rollover model, MiruPartitioner.java:106-165) — soundly
    short-circuits the newest-first TIME walk
    (FullTextAnswerEvaluator.java:18-35)."""
    if forward is None or forward.num_rows == 0:
        return {}
    mm = pc.min_max(forward["ts"])
    return {"ts_min": mm["min"].as_py(), "ts_max": mm["max"].as_py()}


def _posting_metrics(postings: pa.Table, n_docs: int) -> dict:
    """The manifest metrics a partition's postings determine."""
    text_mask = pc.starts_with(postings["term"], TEXT_FIELD + "\x1f")
    total_tokens = int(
        pc.sum(pc.if_else(text_mask, postings["ttf"], pa.scalar(0, pa.int64()))).as_py() or 0
    )
    return {
        "n_docs": n_docs,
        "n_terms": int(postings.num_rows),
        "total_tokens": total_tokens,
        "avg_dl": float(total_tokens / n_docs) if n_docs else 0.0,
        "posting_bytes": int(sum(postings[c].nbytes for c in ("doc_bytes", "tf_bytes"))),
    }


def _write_partition(
    index_dir: str,
    part: int,
    runs: pa.Table,
    forward: pa.Table | None,
    n_docs: int,
    lineage: dict,
    t0: float,
) -> dict:
    """Shared by build (phase 3) and extend: one partition's posting runs
    and forward table → merged postings + derived postings + manifest
    (written last: checkpoint atomicity). Returns the manifest row as a
    dict (MANIFEST_ROW_SCHEMA)."""
    timing = bool(os.environ.get("MIRU_RAY_TIMING"))
    tmarks = [("start", time.monotonic())]
    postings = merge_runs(runs)
    tmarks.append(("merge", time.monotonic()))
    if forward is not None and forward.num_rows:
        # pairedLatest is partition-global — computable only here, where the
        # merged forward exists (per-file partials would leave several
        # "latest" docs per pair)
        fdocs = forward["doc_id"].to_numpy().astype(np.int64)
        fcols = {"role": forward["role"], "tool": forward["tool"]}
        extra = paired_latest_runs(part, fdocs, fcols)
        extra += composite_runs(part, fdocs, fcols)
        if extra:
            postings = pa.concat_tables([postings] + extra).combine_chunks()
    tmarks.append(("derived", time.monotonic()))
    postings = postings.take(pc.sort_indices(postings, sort_keys=[("term", "ascending")]))
    tmarks.append(("sort", time.monotonic()))
    if forward is not None and forward.num_rows != n_docs:
        raise AssertionError(
            f"part {part}: forward rows {forward.num_rows} != expected {n_docs}"
        )
    metrics = _posting_metrics(postings, n_docs)
    metrics.update(_ts_bounds(forward))
    finalize_segment(index_dir, part, postings, lineage, metrics, forward)
    if timing:
        tmarks.append(("write", time.monotonic()))
        steps = " ".join(
            f"{name}={t - prev:.2f}s"
            for (name, t), (_, prev) in zip(tmarks[1:], tmarks[:-1])
        )
        print(f"[timing] finalize part={part} {steps}", flush=True)
    return {
        "part": part,
        "n_docs": n_docs,
        "n_terms": metrics["n_terms"],
        "total_tokens": metrics["total_tokens"],
        "posting_bytes": metrics["posting_bytes"],
        "build_sec": time.monotonic() - t0,
        "skipped": False,
    }


def finalize_spilled_partition(
    index_dir: str, spill_dir: str, part: int, n_docs: int, lineage: dict,
) -> dict:
    """Phase-3 task: read the partition's spilled packs, merge, write the
    segment, then drop the runs dir. Runs as a plain Ray task — the
    per-partition scatter reuses the warm default worker pool instead of
    spawning a second actor pool."""
    import glob as _glob
    import shutil

    t0 = time.monotonic()
    d = os.path.join(spill_dir, f"part={part:05d}")
    posts, fwds = [], []
    for p in sorted(_glob.glob(os.path.join(d, "pack-*.arrow"))):
        # memory-map (zero-copy from /dev/shm — a read() would copy every
        # posting byte into python bytes first); the map object stays
        # referenced by the Arrow buffers until the table is dropped
        t = pa.ipc.open_stream(pa.memory_map(p)).read_all()
        # FWD pseudo-rows are a per-pack SUFFIX (FileIndexer appends them
        # after the combined posting runs; the pack sort is stable) —
        # split by zero-copy slices, never a filter copy of posting bytes
        is_fwd = pc.equal(t["term"], FWD_TERM).to_numpy(zero_copy_only=False)
        n_post = int(is_fwd.argmax()) if is_fwd.any() else t.num_rows
        if not is_fwd[n_post:].all():
            raise AssertionError(f"pack {p}: FWD rows are not a suffix")
        if n_post:
            posts.append(t.slice(0, n_post))
        if n_post < t.num_rows:
            fwds.append(t.slice(n_post))
    # no combine_chunks here: merge_runs consolidates once internally —
    # combining twice would copy every posting byte an extra time
    runs = pa.concat_tables(posts) if posts else RUNS_SCHEMA.empty_table()
    forward = assemble_forward(pa.concat_tables(fwds)) if fwds else None
    row = _write_partition(index_dir, part, runs, forward, n_docs, dict(lineage), t0)
    shutil.rmtree(d, ignore_errors=True)
    return row


_REMOTE_FINALIZE = None


def _remote_finalize():
    global _REMOTE_FINALIZE
    if _REMOTE_FINALIZE is None:
        import ray

        _REMOTE_FINALIZE = ray.remote(num_cpus=1)(finalize_spilled_partition)
    return _REMOTE_FINALIZE


def _scan_files(files: list[str], n_parts: int, partitioning: str) -> list[dict]:
    """Phase 1: ``scan_file_meta`` of every file, one Ray task each."""
    import ray

    scan = ray.remote(num_cpus=1)(scan_file_meta)
    return ray.get([scan.remote(f, n_parts, partitioning) for f in files])


def _presort(files: list[str], out_dir: str, n_parts: int) -> tuple[list[str], list[dict]]:
    """Sort the rows of ``files`` by (conv_id, turn_idx) with Ray Data into
    Parquet under ``out_dir``. Returns the written files in key order, with
    their phase-1 metas, and raises ValueError naming the offending key
    when the sorted stream still has a duplicate key."""
    import ray.data as rd

    rd.read_parquet(files, columns=INPUT_COLUMNS).sort(
        ["conv_id", "turn_idx"]
    ).write_parquet(out_dir)
    out = list_input_files(out_dir)
    metas = _scan_files(out, n_parts, "hash")
    # the sort's files hold disjoint key ranges, but their names need not
    # follow key order: order them by first key
    keep = sorted((m["first"], i) for i, m in enumerate(metas) if m["rows"])
    out = [out[i] for _, i in keep]
    metas = [metas[i] for _, i in keep]
    bad = _order_violation([f"sorted run {i}" for i in range(len(out))], metas)
    if bad:
        raise ValueError(f"input has duplicate (conv_id, turn_idx) keys: {bad}")
    return out, metas


def build_index(
    input_path: str | list[str],
    index_dir: str,
    n_parts: int,
    use_stopwords: bool = False,
    resume: bool = True,
    concurrency: int | None = None,
    partitioning: str = "hash",
    rows_per_part: int | None = None,
    analyzer: str = "default",
    positions: bool = False,
) -> dict:
    """Run the two-phase offset build (see the module section comment). Ray
    must already be initialised by the caller. Returns the global manifest
    dict (also written to index.json).

    Input files not globally sorted by (conv_id, turn_idx) — detected by
    the phase-1 scan — are first sorted into a temporary Parquet copy under
    ``index_dir`` (removed afterwards); the manifest's ``input_files``
    still lists the caller's files. Duplicate keys raise ValueError.

    ``positions=True`` additionally writes the positional index (POS_FIELD
    occurrence streams) that exact phrase queries need — opt-in: it costs a
    stable argsort in phase 2 and roughly doubles posting bytes.

    ``partitioning``:
    * ``"hash"`` (default) — partition = fnv1a64(conv_id) % n_parts; a
      conversation never splits, load is uniform, but partition ts ranges
      overlap (TIME queries must ask every partition).
    * ``"range"`` — partition = contiguous range of the global
      (conv_id, turn_idx) row order, size ``rows_per_part`` (default
      ceil(total/n_parts)): the reference's closed-time-segment rollover
      (MiruPartitioner.java:106-165). When the input stream is time-ordered
      (the reference's ingestion invariant) partitions are disjoint time
      segments, the manifest ts zone maps don't overlap, and the TIME
      partition walk short-circuits (FullTextAnswerEvaluator.java:18-35).
      Also removes the (n_files × n_parts) bases matrix entirely — phase 1
      ships one scalar row-offset per file. Requires sorted input."""
    import shutil
    import tempfile

    import ray
    import ray.data as rd

    timing = bool(os.environ.get("MIRU_RAY_TIMING"))
    t_start = time.monotonic()

    files = list_input_files(input_path)
    if not files:
        raise FileNotFoundError(f"no parquet input under {input_path!r}")

    metas = _scan_files(files, n_parts, partitioning)
    if timing:
        print(f"[timing] phase1 scan: {time.monotonic() - t_start:.2f}s", flush=True)
    src, src_metas, presort_dir = files, metas, None
    bad = _order_violation(files, metas)
    if bad:
        if partitioning == "range":
            raise ValueError(f"input files are not globally sorted by (conv_id, turn_idx): {bad}")
        os.makedirs(index_dir, exist_ok=True)
        # a crashed earlier build may have left its sorted copy behind
        for name in os.listdir(index_dir):
            if name.startswith(".presort-"):
                shutil.rmtree(os.path.join(index_dir, name), ignore_errors=True)
        presort_dir = tempfile.mkdtemp(prefix=".presort-", dir=index_dir)
    try:
        if presort_dir is not None:
            src, src_metas = _presort(files, presort_dir, n_parts)
            if timing:
                print(f"[timing] pre-sort: {time.monotonic() - t_start:.2f}s", flush=True)

        if partitioning == "range":
            rows = np.array([int(m["rows"]) for m in src_metas], dtype=np.int64)
            goffs = np.zeros_like(rows)
            np.cumsum(rows[:-1], out=goffs[1:])
            total = int(rows.sum())
            R = int(rows_per_part or max(1, -(-total // n_parts)))
            n_parts_eff = max(1, -(-total // R)) if total else 1
            n_docs_by_part = {
                p: min(total, (p + 1) * R) - p * R for p in range(n_parts_eff)
            }
            n_docs_by_part = {p: c for p, c in n_docs_by_part.items() if c > 0}
            bases = None
        else:
            bases, n_docs_by_part = sparse_bases(src_metas)  # CSR — never dense
            R = None

        done = frozenset(completed_parts(index_dir)) if resume else frozenset()
        if partitioning == "range" and done:
            # resume soundness: range boundaries are a function of (R, total) —
            # if either changed since the completed partitions were written,
            # their docId ranges are stale and the merge would be silently wrong
            from .segments import read_manifest as _read_manifest

            for p in sorted(done):
                m = _read_manifest(index_dir, p)
                expect = n_docs_by_part.get(p)
                if m is not None and expect is not None and m["metrics"]["n_docs"] != expect:
                    raise ValueError(
                        f"range-partitioned resume: partition {p} holds "
                        f"{m['metrics']['n_docs']} docs but the current input maps "
                        f"{expect} rows to it — input or rows_per_part changed; "
                        "rebuild with resume=False"
                    )
        lineage = {
            "input_files": files,
            "strategy": "stream",
            "rows_per_file": [int(m["rows"]) for m in metas],
        }
        if concurrency is None:
            # size to the full CPU count: the tokenize pool owns the box
            # during phase 2; phase 3 runs after it drains
            concurrency = max(1, int(ray.cluster_resources().get("CPU", 8)))

        if partitioning == "range":
            bases_ref = None
            items = [
                {"path": f, "fidx": i, "goff": int(goffs[i])} for i, f in enumerate(src)
            ]
        else:
            bases_ref = ray.put(bases)
            items = [{"path": f, "fidx": i} for i, f in enumerate(src)]
        # files per task: ~6 waves per actor for load balance (coarse tasks
        # straggle: the last wave runs on a near-empty pool), floored at 3 so
        # the in-task combiner still amortizes (1-file tasks skip combining and
        # explode the per-partition pack count the finalizer must merge),
        # capped at 8 so a task's resident set stays bounded at real file sizes
        group = int(min(8, max(3, len(src) // max(1, 6 * concurrency))))
        group = min(group, max(1, len(src)))
        n_tasks = -(-len(src) // group)
        # FIXED pool size (not autoscaling): all actors start + import in
        # parallel at t0 instead of ramping from a floor; phase 3 finalizes
        # with plain tasks after phase 2 drains, so every CPU is usable
        fi_conc = max(1, min(concurrency, n_tasks))
        # spill target: RAM-backed by default when available (same in-memory
        # semantics as an object-store exchange; on a cluster point
        # MIRU_RAY_SPILL_BASE at the shared segment store for durable phase-2
        # checkpoints instead)
        base = os.environ.get("MIRU_RAY_SPILL_BASE")
        if base is None:
            base = "/dev/shm" if os.path.isdir("/dev/shm") else index_dir
        spill_dir = os.path.join(
            base, f"miru_runs-{os.path.basename(os.path.normpath(index_dir))}-{_epoch_id(files, metas)}"
        )
        # the spill dir name is deterministic (epoch id), so a rerun after a
        # crashed build finds the old run's packs — and a different CPU
        # count changes task grouping, so stale packs would survive beside
        # the new ones and duplicate postings at merge. Packs are only a
        # checkpoint WITHIN a run (task retries rewrite identical bytes);
        # across runs, start clean.
        shutil.rmtree(spill_dir, ignore_errors=True)
        # packs land in per-partition runs dirs DURING phase 2 (overlapping
        # compute); the only barrier is the tiny marker collect; phase 3 is
        # a plain-task scatter over partitions (warm workers, no second
        # actor-pool spawn, no sort machinery)
        rd.from_items(items).map_batches(
            FileIndexer,
            fn_constructor_kwargs={
                "index_dir": index_dir, "n_parts": n_parts,
                "skip_parts": done, "use_stopwords": use_stopwords,
                "spill_dir": spill_dir, "bases_ref": bases_ref,
                "rows_per_part": R, "analyzer": analyzer,
                "positions": positions,
            },
            batch_size=group,
            batch_format="pyarrow",
            concurrency=fi_conc,
            num_cpus=1,
        ).take_all()
        if timing:
            print(f"[timing] phase 2 (tokenize+spill): {time.monotonic() - t_start:.2f}s", flush=True)
        todo = [p for p in sorted(n_docs_by_part) if p not in done]
        fin = _remote_finalize()
        rows = ray.get([
            fin.remote(index_dir, spill_dir, p, n_docs_by_part[p], lineage)
            for p in todo
        ])
        shutil.rmtree(spill_dir, ignore_errors=True)
    finally:
        if presort_dir is not None:
            shutil.rmtree(presort_dir, ignore_errors=True)
    if timing:
        print(f"[timing] phases 2+3 (to manifest collect): {time.monotonic() - t_start:.2f}s total", flush=True)

    built = {int(r["part"]): r for r in rows}
    meta = {
        "n_parts": n_parts if partitioning != "range" else n_parts_eff,
        "partitioning": (
            {"mode": "range", "rows_per_part": R}
            if partitioning == "range"
            else {"mode": "hash"}
        ),
        "strategy": "stream",
        "codec": POSTING_CODEC,
        "version": INDEX_VERSION,
        "positions": positions,
        "tokenizer": _tokenizer_meta(analyzer, use_stopwords),
        "text_field": TEXT_FIELD,
        "meta_fields": list(META_FIELDS),
        "num_fields": list(NUM_FIELDS),
        "composite_fields": {k: list(v) for k, v in COMPOSITE_FIELDS.items()},
        "parts_built": sorted(built),
        "parts_resumed": sorted(done),
        # the applied input-file set: the sip watcher's catch-up cursor
        # (extend epochs append to it via their own "files" records)
        "input_files": files,
        # committed global row count — range-mode extend derives its append
        # offset from THIS (updated only on successful build/extend), never
        # from partition doc counts, so a crashed or repeated extend cannot
        # shift the range boundaries
        "total_rows": int(sum(n_docs_by_part.values())),
        "totals": _totals_from_manifests(index_dir),
    }
    write_global_manifest(index_dir, meta)
    return meta


# ------------------------------------------------------ incremental extend
#
# The reference catches up continuously: a background "sip" applies WAL
# deltas from a persisted cursor (MiruLocalHostedPartition.java:1172-1239,
# MiruSipIndex.java:22-24). Our durable log is the input Parquet itself, so
# catch-up = ``extend_index(new_files)``: the new files' rows get docIds
# APPENDED per partition (arrival order — exactly miru's stream-order id
# allocation, LabTimeIdIndex.java:96), their posting runs are merged into
# the existing immutable segments by offset subsampling (the existing
# postings rows ARE runs with a strictly lower docId range), and the
# forward table is extended. Per-partition manifests record each applied
# epoch (a fingerprint of the new file list), so a crashed or repeated
# extend skips partitions that already contain the epoch — the sip-cursor
# analogue. A partition that crashed between its postings replace and its
# manifest replace is refused, not merged twice.


def _epoch_id(files: list[str], metas: list[dict]) -> str:
    import hashlib

    h = hashlib.sha256()
    for f, m in zip(files, metas):
        h.update(f.encode())
        h.update(str(m["rows"]).encode())
    return h.hexdigest()[:16]


def _check_committed(part: int, n_docs: int, postings: pa.Table, forward: pa.Table) -> None:
    """Refuse a partition whose files on disk are ahead of its manifest.

    ``finalize_segment`` replaces the postings, then the forward table, then
    the manifest; an extend that crashed in between leaves new docIds (≥ the
    committed ``n_docs``) under the old manifest, and merging the epoch's
    runs onto them again would duplicate them. Metadata only: no decode."""
    last = pc.max(postings["last_doc"]).as_py()  # None when empty
    if (last is not None and last >= n_docs) or forward.num_rows != n_docs:
        raise RuntimeError(
            f"part={part:05d} does not match its committed manifest (n_docs={n_docs}, "
            f"largest posting doc {last}, {forward.num_rows} forward rows): an "
            "interrupted extend left it half-written; rebuild the partition "
            "before extending the index"
        )


class SegmentExtender:
    """map_groups stage of extend_index: existing segment + new runs →
    rewritten segment (manifest last, epoch appended). A partition whose
    files are ahead of its committed manifest is refused
    (``_check_committed``)."""

    def __init__(self, index_dir: str, new_docs_by_part: dict[int, int], epoch: str,
                 lineage: dict):
        self.index_dir = index_dir
        self.new_docs_by_part = new_docs_by_part
        self.epoch = epoch
        self.lineage = lineage

    def __call__(self, group: pa.Table) -> pa.Table:
        from .segments import partition

        t0 = time.monotonic()
        if group.num_rows == 0:
            return MANIFEST_ROW_SCHEMA.empty_table()
        part = int(group["part"][0].as_py())
        new_runs, new_fwd = runs_split_forward(unpack_group(group))
        pt = partition(self.index_dir, part)
        old_manifest = pt.manifest
        if old_manifest is not None:
            old_post = pt.postings_table()
            old_fwd = pt.forward_table()
            old_n = old_manifest["metrics"]["n_docs"]
            _check_committed(part, old_n, old_post, old_fwd)
            # pairedLatest rows are partition-global (latest-per-pair) —
            # appended docs can displace them, so drop and recompute below.
            # Composite rows are recomputed from the merged forward too (the
            # extend runs don't carry them), so drop them as well.
            derived_prefixes = [
                paired_latest_field(a, b) + "\x1f" for a, b in PAIRED_LATEST_PAIRS
            ] + [name + "\x1f" for name in COMPOSITE_FIELDS]
            for prefix in derived_prefixes:
                old_post = old_post.filter(
                    pc.invert(pc.starts_with(old_post["term"], prefix))
                )
            all_runs = pa.concat_tables([old_post, new_runs]) if new_runs.num_rows else old_post
            forward = (
                pa.concat_tables([old_fwd, new_fwd]).combine_chunks()
                if new_fwd is not None
                else old_fwd
            )
            epochs = list(old_manifest["lineage"].get("epochs", []))
        else:
            all_runs, forward, epochs, old_n = new_runs, new_fwd, [], 0
        n_docs = old_n + int(self.new_docs_by_part.get(part, 0))
        lineage = dict(self.lineage, epochs=epochs + [self.epoch])
        row = _write_partition(self.index_dir, part, all_runs, forward, n_docs, lineage, t0)
        return pa.Table.from_pylist([row], schema=MANIFEST_ROW_SCHEMA)


def extend_index(
    new_input: str | list[str],
    index_dir: str,
    use_stopwords: bool | None = None,
    concurrency: int | None = None,
) -> dict:
    """Apply a new batch of transcript files to an existing index (the sip
    analogue). New docs get appended docIds per partition; repeated calls
    with the same files are no-ops (epoch markers in the manifests)."""
    import ray
    import ray.data as rd

    from .segments import read_global_manifest, read_manifest

    gmeta = read_global_manifest(index_dir)
    n_parts = gmeta["n_parts"]
    if use_stopwords is None:
        use_stopwords = bool(gmeta.get("tokenizer", {}).get("stopwords"))
    # an index is only ever extended with the analyzer it was built with —
    # and only while that analyzer still produces the recorded token
    # pattern (a drifted tokenizer would mix two vocabularies in one index)
    from .search import _check_tokenizer_compat

    _check_tokenizer_compat(gmeta, index_dir)
    analyzer = gmeta.get("tokenizer", {}).get("analyzer", "default")

    part_mode = gmeta.get("partitioning", {}).get("mode", "hash")
    R = gmeta.get("partitioning", {}).get("rows_per_part")

    files = list_input_files(new_input)
    if not files:
        raise FileNotFoundError(f"no parquet input under {new_input!r}")
    metas = _scan_files(files, n_parts, part_mode)
    bad = _order_violation(files, metas)
    if bad:
        raise ValueError(
            f"extend_index requires the NEW files to be sorted by (conv_id, turn_idx): {bad}"
        )
    epoch = _epoch_id(files, metas)

    # docId bases: existing per-part doc count + prefix sums over new files
    existing = {p: (read_manifest(index_dir, p) or {"metrics": {"n_docs": 0}})["metrics"]["n_docs"]
                for p in range(n_parts)}
    done = frozenset(
        p for p in range(n_parts)
        if (m := read_manifest(index_dir, p)) is not None
        and epoch in m["lineage"].get("epochs", [])
    )
    if any(e.get("epoch") == epoch for e in gmeta.get("epochs", [])):
        # this exact file batch was already committed (gmeta is written only
        # on success) — a repeated extend touches nothing; record the no-op
        # epoch application like any other sip catch-up
        gmeta = dict(gmeta)
        gmeta.setdefault("epochs", []).append(
            {"epoch": epoch, "files": files, "parts_updated": [],
             "parts_skipped": sorted(done)}
        )
        write_global_manifest(index_dir, gmeta)
        return gmeta
    if part_mode == "range":
        # the reference's rollover ingestion (MiruPartitioner.java:106-165):
        # new rows CONTINUE the global row order — fill the last open
        # partition to rows_per_part, then open new partitions. Partition
        # and docId stay pure arithmetic over the appended global offset.
        from .segments import partition

        # committed pre-extend row count: gmeta["total_rows"] (updated only
        # on success) — NOT sum of partition doc counts, which a crashed or
        # repeated extend has already advanced
        total = gmeta.get("total_rows")
        if total is None:
            total = int(sum(existing.values()))
        total = int(total)
        rows = np.array([int(m["rows"]) for m in metas], dtype=np.int64)
        goffs = total + np.concatenate([[0], np.cumsum(rows[:-1])])
        new_total = total + int(rows.sum())
        new_docs_by_part = {}
        for p in range(total // R, -(-new_total // R)):
            c = min(new_total, (p + 1) * R) - max(total, p * R)
            if c > 0:
                new_docs_by_part[p] = int(c)
        n_parts = max(n_parts, -(-new_total // R))
        # order guard on FRESH extends only: a crash-resumed epoch (some
        # touched partition already carries it) was validated by the run
        # that crashed, and its last partition may already hold new rows
        if not any(p in done for p in new_docs_by_part):
            last_part = max((p for p, c in existing.items() if c), default=None)
            if last_part is not None:
                old_fwd = partition(index_dir, last_part).forward_table()
                if old_fwd.num_rows:
                    last_key = (
                        old_fwd["conv_id"][old_fwd.num_rows - 1].as_py(),
                        int(old_fwd["turn_idx"][old_fwd.num_rows - 1].as_py()),
                    )
                    first_new = metas[0]["first"]
                    if first_new is not None and not (last_key < tuple(first_new)):
                        raise ValueError(
                            "range-partitioned extend requires new rows to sort "
                            f"AFTER the existing corpus: last existing key {last_key} "
                            f">= first new key {first_new}"
                        )
        bases_ref = None
        items = [
            {"path": f, "fidx": i, "goff": int(goffs[i])} for i, f in enumerate(files)
        ]
    else:
        base_off = np.array([existing[p] for p in range(n_parts)], dtype=np.int64)
        bases, new_docs_by_part = sparse_bases(metas, base_off=base_off)
        bases_ref = ray.put(bases)
        items = [{"path": f, "fidx": i} for i, f in enumerate(files)]

    if concurrency is None:
        concurrency = max(1, int(ray.cluster_resources().get("CPU", 8)) - 1)
    group = int(min(8, max(1, len(files) // max(1, 6 * concurrency))))
    n_tasks = -(-len(files) // group)
    runs_ds = rd.from_items(items).map_batches(
        FileIndexer,
        fn_constructor_kwargs={
            "index_dir": index_dir, "n_parts": n_parts,
            "skip_parts": done, "use_stopwords": use_stopwords,
            "bases_ref": bases_ref,
            "rows_per_part": R if part_mode == "range" else None,
            "analyzer": analyzer, "positions": bool(gmeta.get("positions")),
        },
        batch_size=group,
        batch_format="pyarrow",
        concurrency=max(1, min(concurrency, n_tasks)),
        num_cpus=1,
    )
    lineage = {"extend_input": files, "strategy": "stream"}
    rows = (
        runs_ds.groupby("part")
        .map_groups(
            SegmentExtender,
            fn_constructor_kwargs={
                "index_dir": index_dir,
                "new_docs_by_part": new_docs_by_part,
                "epoch": epoch,
                "lineage": lineage,
            },
            batch_format="pyarrow",
            concurrency=(1, concurrency),
            num_cpus=1,
        )
        .take_all()
    )
    built = {int(r["part"]): r for r in rows}
    gmeta = dict(gmeta)
    gmeta["n_parts"] = n_parts  # range rollover may have opened new partitions
    # commit the new global row count from the (now consistent) partition
    # manifests — correct for fresh, crashed-resumed and repeated extends
    gmeta["total_rows"] = _totals_from_manifests(index_dir)["n_docs"]
    gmeta.setdefault("epochs", []).append(
        {"epoch": epoch, "files": files, "parts_updated": sorted(built), "parts_skipped": sorted(done)}
    )
    gmeta["totals"] = _totals_from_manifests(index_dir)
    write_global_manifest(index_dir, gmeta)
    return gmeta


def applied_input_files(index_dir: str) -> set[str]:
    """The set of input files already committed into the index: the build's
    ``input_files`` plus every extend epoch's ``files`` — the sip
    watcher's catch-up cursor (the Parquet-native analogue of the
    reference's persisted sip cursor, MiruSipIndex.java:22-24)."""
    from .segments import read_global_manifest

    gmeta = read_global_manifest(index_dir)
    base = gmeta.get("input_files")
    if base is None:
        raise ValueError(
            f"{index_dir} predates input-file lineage (no 'input_files' in "
            "the global manifest) — rebuild once, or extend explicitly"
        )
    # abspath-normalized: the watcher's corpus path spelling must not
    # matter (a relative build path + an absolute --input would otherwise
    # diff to "everything is new" and silently double-index the corpus)
    applied = {os.path.abspath(f) for f in base}
    for e in gmeta.get("epochs", []):
        applied.update(os.path.abspath(f) for f in e.get("files", []))
    return applied


def sip_watch(
    corpus_dir: str,
    index_dir: str,
    interval: float = 5.0,
    max_cycles: int | None = None,
    idle_cycles_to_stop: int | None = None,
    on_cycle=None,
    retry_on_error: bool = False,
) -> dict:
    """Heartbeat catch-up loop — the reference's background sip
    (MiruLocalHostedPartition.java:1013-1117 heartbeat scheduling,
    1172-1239 sip apply), re-expressed over the Parquet durable log: every
    ``interval`` seconds, diff the corpus dir against the index's applied
    file set and ``extend_index`` the new sorted files. Crash-safe for the
    same reason extend is: epochs commit atomically in the global manifest
    and a repeated extend of the same batch is a no-op.

    ``max_cycles`` bounds the loop (None = run until interrupted — the
    daemon mode); ``idle_cycles_to_stop`` exits after that many
    consecutive no-change polls (the batch catch-up mode). ``on_cycle``
    (cycle_idx, new_files) is a test/metrics hook.

    ``retry_on_error=True`` (the daemon posture): a failed extend — e.g.
    a half-uploaded parquet file or a transiently unsorted batch — is
    recorded and RETRIED on the next heartbeat instead of killing the
    loop; extend's epoch markers make the retry safe (a batch commits
    atomically or not at all). Retries back off exponentially (the batch
    is only re-attempted every 1, 2, 4, … up to 64 heartbeats while it
    keeps failing, resetting on any change to the pending set), and the
    error log is a bounded ring (last 256) — a daemon over one corrupt
    file must neither hammer extend_index every heartbeat nor grow
    memory without bound (ADVICE r4). Returns {"cycles", "epochs",
    "files_applied", "errors"}."""
    cycles = 0
    idle = 0
    epochs = 0
    files_applied: list[str] = []
    errors: list[str] = []
    fail_batch: tuple[str, ...] = ()
    fail_count = 0
    next_retry = 0  # cycle index gating the next attempt of fail_batch
    while True:
        have = {os.path.abspath(f) for f in list_input_files(corpus_dir)}
        new = sorted(have - applied_input_files(index_dir))
        if tuple(new) != fail_batch:
            fail_batch, fail_count, next_retry = (), 0, 0  # pending set changed
        if new and cycles >= next_retry:
            try:
                extend_index(new, index_dir)
                epochs += 1
                files_applied.extend(new)
                idle = 0
                fail_batch, fail_count, next_retry = (), 0, 0
            except Exception as e:  # noqa: BLE001
                if not retry_on_error:
                    raise
                errors.append(f"cycle {cycles + 1}: {e}")
                del errors[:-256]
                fail_batch = tuple(new)
                fail_count += 1
                next_retry = cycles + min(2 ** (fail_count - 1), 64)
                idle = 0  # work is pending; never idle-stop on a failure
        elif new:
            idle = 0  # backing off, but work is still pending
        else:
            idle += 1
        cycles += 1
        if on_cycle is not None:
            on_cycle(cycles, new)
        if max_cycles is not None and cycles >= max_cycles:
            break
        if idle_cycles_to_stop is not None and idle >= idle_cycles_to_stop:
            break
        time.sleep(interval)
    return {"cycles": cycles, "epochs": epochs,
            "files_applied": files_applied, "errors": errors}


def compact_partition(index_dir: str, part: int) -> dict:
    """Rewrite one partition's postings in CANONICAL form — the LAB
    compactor analogue (the reference's LSM store periodically merges its
    append deltas back into one clean generation; reference:
    miru-service/.../lab/LabFieldIndex.java append/compaction paths).

    Extends append epoch runs whose block boundaries follow epoch
    arrival; compaction decodes every posting fully and re-encodes it as
    ONE run with BLOCK_SIZE-aligned blocks — the unique normal form,
    independent of how many epochs
    built the partition. DocIds are untouched (never reassigned — the
    reference's contract); tombstones and stream state are untouched.
    Answer-invariant. The segment goes through ``finalize_segment`` (forward
    table untouched), so the manifest records the compacted posting metrics,
    its rewrite bumps the epoch so warm caches refresh, and the ``commit``
    lifecycle callbacks fire. Per-term decode work is numpy; the python loop
    is only over posting ROWS (one per term), the same granularity the merge
    path already pays."""
    from .segments import partition, read_global_manifest

    read_global_manifest(index_dir)  # raises on an index of another codec
    pt = partition(index_dir, part)
    man = pt.manifest
    t = pt.postings_table().combine_chunks()
    terms = t["term"].to_pylist()
    from .codec import decode_posting

    norm: list[tuple[str, np.ndarray, np.ndarray]] = []
    pos: list[tuple[str, np.ndarray, np.ndarray]] = []
    for i in range(t.num_rows):
        docs, tfs = decode_posting(
            t["doc_bytes"][i].as_py(), t["tf_bytes"][i].as_py(),
            np.asarray(t["blk_first"][i].as_py()),
            np.asarray(t["blk_count"][i].as_py()),
        )
        (pos if terms[i].startswith(POS_FIELD) else norm).append((terms[i], docs, tfs))

    def _batch(entries, strict: bool) -> pa.Table:
        if not entries:
            return RUNS_SCHEMA.empty_table()
        dict_terms = pa.array([e[0] for e in entries], type=pa.large_string())
        codes = np.repeat(
            np.arange(len(entries), dtype=np.int64),
            [len(e[1]) for e in entries],
        )
        docs = np.concatenate([e[1] for e in entries])
        tfs = np.concatenate([e[2] for e in entries])
        return encode_runs(part, codes, docs, tfs, dict_terms, strict=strict)
    out = pa.concat_tables([_batch(norm, True), _batch(pos, False)])
    out = out.take(pc.sort_indices(out, sort_keys=[("term", "ascending")]))
    metrics = dict(man["metrics"], **_posting_metrics(out, man["metrics"]["n_docs"]))
    finalize_segment(index_dir, part, out, dict(man["lineage"], compacted=True), metrics)
    return {"part": part, "rows": out.num_rows}


def compact_index(index_dir: str, parts: list[int] | None = None) -> list[dict]:
    """Compact partitions to canonical posting form (see
    compact_partition), fanned out as Ray tasks when Ray is up (partitions
    are independent; each task is one partition — the same unit the build
    checkpoints on). ``index.json``'s totals are then recomputed from the
    manifests."""
    from .segments import completed_parts, read_global_manifest

    meta = read_global_manifest(index_dir)  # raises on another codec or version
    todo = sorted(parts) if parts is not None else completed_parts(index_dir)
    try:
        import ray

        use_ray = ray.is_initialized()
    except ImportError:
        use_ray = False
    if use_ray and len(todo) > 1:
        fn = ray.remote(num_cpus=1)(compact_partition)
        out = ray.get([fn.remote(index_dir, p) for p in todo])
    else:
        out = [compact_partition(index_dir, p) for p in todo]
    write_global_manifest(index_dir, dict(meta, totals=_totals_from_manifests(index_dir)))
    return out


def repair_partitions(
    index_dir: str,
    input_path: str | list[str],
    parts: list[int],
    **build_kwargs,
) -> dict:
    """Late-data / REPAIR analogue: the reference re-indexes affected ids
    version-gated (MiruPartitionAccessor.java:426-427,534-540); with
    immutable segments the deterministic equivalent is to drop the affected
    partitions' manifests and rebuild them from the (corrected) input —
    resume leaves every other partition untouched, and docId assignment is
    deterministic so unaffected queries see identical results.

    Removal and per-stream inbox/unread state SURVIVE the repair (the
    reference's removal/unread indexes persist across re-index): before
    dropping a partition, its docId sets are converted to stable
    (conv_id, turn_idx) keys via the forward table, then re-applied after
    the rebuild. Keys whose rows no longer exist in the corrected input
    drop out naturally."""
    import glob as _glob
    import shutil

    from .segments import (
        _mutate_stream_set,
        part_dir,
        partition,
        read_global_manifest,
        read_tombstones,
        remove_docs,
    )

    gmeta = read_global_manifest(index_dir)
    n_parts = gmeta["n_parts"]
    pmeta = gmeta.get("partitioning", {})
    if pmeta.get("mode") == "range":
        # the rebuilt partitions must land on the SAME range boundaries
        build_kwargs.setdefault("partitioning", "range")
        build_kwargs.setdefault("rows_per_part", pmeta.get("rows_per_part"))
    build_kwargs.setdefault("positions", bool(gmeta.get("positions")))

    def keys_of(fwd, ids) -> list[tuple[str, int]]:
        # vectorized gather of just the id rows (never to_pylist the full
        # forward columns — a partition holds millions of rows)
        if not len(ids):
            return []
        import pyarrow.compute as _pc

        sel = pa.array(np.asarray(ids, dtype=np.int64))
        conv = _pc.take(fwd["conv_id"], sel).to_pylist()
        turn = _pc.take(fwd["turn_idx"], sel).to_pylist()
        return [(c, int(t)) for c, t in zip(conv, turn)]

    tomb_keys: list[tuple[str, int]] = []
    stream_keys: dict[tuple[str, str], list[tuple[str, int]]] = {}
    for p in parts:
        pt = partition(index_dir, p)
        if pt.manifest is None:
            continue
        fwd = pt.forward_table()
        tomb_keys.extend(keys_of(fwd, read_tombstones(index_dir, p).tolist()))
        for path in _glob.glob(os.path.join(part_dir(index_dir, p), "*.parquet")):
            name = os.path.basename(path)
            for kind in ("inbox", "unread"):
                if name.startswith(kind + "-"):
                    stream = name[len(kind) + 1 : -len(".parquet")]
                    import pyarrow.parquet as _pq

                    ids = _pq.read_table(path)["doc_id"].to_pylist()
                    stream_keys.setdefault((kind, stream), []).extend(keys_of(fwd, ids))

    for p in parts:
        d = part_dir(index_dir, p)
        if os.path.exists(d):
            shutil.rmtree(d)
    meta = build_index(input_path, index_dir, n_parts=n_parts, resume=True, **build_kwargs)

    if tomb_keys:
        remove_docs(index_dir, tomb_keys)
    for (kind, stream), keys in stream_keys.items():
        _mutate_stream_set(index_dir, kind, stream, keys, add=True)
    return meta


def upsert_rows(
    index_dir: str,
    updates: "str | list[str] | pa.Table",
    source_input: str | list[str],
    patched_dir: str,
    **repair_kwargs,
) -> dict:
    """Version-gated late-data upsert — the reference's keep-max-version
    REPAIR dedup (MiruPartitionAccessor.java:563-578: a re-delivered
    activity replaces the indexed one only when its version is higher),
    over immutable Parquet + immutable segments:

    * each update row is keyed (conv_id, turn_idx); its VERSION is ``ts``.
      Updates with ts strictly greater than the indexed row's ts WIN;
      equal-or-lower versions are STALE and dropped (reported, not
      applied); keys absent from the index raise (upsert ≠ append — new
      rows go through ``extend_index``/``sip_watch``).
    * the durable log is the input Parquet, so winners are PERSISTED:
      every source file containing a winner key is rewritten (patched)
      into ``patched_dir``; untouched files are referenced as-is. The
      returned ``files`` list is the corpus's new epoch — callers must
      treat it as the input of record, or a later rebuild would silently
      revert the upsert.
    * only the winners' partitions are rebuilt (``repair_partitions``
      over the patched file list); all other partitions keep their
      segments byte-identical. Tombstones and inbox/unread stream state
      survive, as in any repair.

    Scale shape: updates are late-data-sized (driver-held); file
    patching touches only files containing winners (located by binary
    search over the files' sorted key ranges); the repair reads the
    corpus once, as any repair does. Returns {'files', 'winners',
    'stale', 'parts_rebuilt', 'patched_files'}."""
    import bisect
    import pyarrow.parquet as _pq

    from .hashing import fnv1a64
    from .segments import partition, read_global_manifest

    gmeta = read_global_manifest(index_dir)
    n_parts = gmeta["n_parts"]
    pmode = gmeta.get("partitioning", {}).get("mode", "hash")
    R = gmeta.get("partitioning", {}).get("rows_per_part")

    if isinstance(updates, pa.Table):
        up = updates
    else:
        paths = list_input_files(updates)
        up = pa.concat_tables([_pq.read_table(f) for f in paths])
    if up.num_rows == 0:
        return {"files": list_input_files(source_input), "winners": 0,
                "stale": 0, "parts_rebuilt": [], "patched_files": []}
    up = up.combine_chunks()
    up_conv = up["conv_id"].combine_chunks()
    up_turn = up["turn_idx"].combine_chunks().cast(pa.int64()).to_numpy(zero_copy_only=False)
    up_keys = list(zip(up_conv.to_pylist(), (int(t) for t in up_turn)))
    if len(set(up_keys)) != len(up_keys):
        raise ValueError("duplicate (conv_id, turn_idx) keys in the update batch")
    up_ts = up["ts"].combine_chunks().cast(pa.int64()).to_numpy(zero_copy_only=False)

    files = list_input_files(source_input)
    metas = [scan_file_meta(f, n_parts, "range") for f in files]
    goffs = np.concatenate([[0], np.cumsum([m["rows"] for m in metas])[:-1]]).astype(np.int64)
    nonempty = [i for i, m in enumerate(metas) if m["rows"]]
    firsts = [tuple(metas[i]["first"]) for i in nonempty]

    # locate each key's file via binary search over the sorted file ranges
    by_file: dict[int, list[int]] = {}
    for i, key in enumerate(up_keys):
        j = bisect.bisect_right(firsts, key) - 1
        fi = nonempty[j] if j >= 0 else -1
        if fi < 0 or tuple(metas[fi]["last"]) < key:
            raise ValueError(f"upsert key {key} not present in the corpus — "
                             "new rows go through extend_index")
        by_file.setdefault(fi, []).append(i)

    # one key-location pass (reads ONLY the two key columns of affected
    # files): in-file row of every update key, and — in range mode — the
    # partition from the file's global row offset
    row_of = np.full(len(up_keys), -1, dtype=np.int64)
    for fi, idxs in by_file.items():
        tk = _pq.read_table(files[fi], columns=["conv_id", "turn_idx"])
        fkeys = list(zip(tk["conv_id"].to_pylist(),
                         (int(x) for x in tk["turn_idx"].to_pylist())))
        for i in idxs:
            r = bisect.bisect_left(fkeys, up_keys[i])
            if r >= len(fkeys) or fkeys[r] != up_keys[i]:
                raise ValueError(f"upsert key {up_keys[i]} not present in {files[fi]}")
            row_of[i] = r
    if pmode == "range":
        part_of = np.empty(len(up_keys), dtype=np.int64)
        for fi, idxs in by_file.items():
            for i in idxs:
                part_of[i] = (goffs[fi] + row_of[i]) // int(R)
    else:
        part_of = (fnv1a64(up_conv) % np.uint64(n_parts)).astype(np.int64)

    # version gate against the INDEX's forward ts
    winners = np.zeros(len(up_keys), dtype=bool)
    for p in sorted(set(int(x) for x in part_of)):
        fwd = partition(index_dir, p).forward_table()
        lut = {}
        want = {up_keys[i] for i in np.flatnonzero(part_of == p)}
        conv = fwd["conv_id"].to_pylist()
        turn = fwd["turn_idx"].to_pylist()
        ts = fwd["ts"].cast(pa.int64()).to_pylist() if "ts" in fwd.schema.names else None
        if ts is None:
            raise ValueError("forward table lacks ts — cannot version-gate")
        for c, t, v in zip(conv, turn, ts):
            k = (c, int(t))
            if k in want:
                lut[k] = int(v)
        for i in np.flatnonzero(part_of == p):
            k = up_keys[i]
            if k not in lut:
                raise ValueError(f"upsert key {k} not present in the index — "
                                 "new rows go through extend_index")
            winners[i] = int(up_ts[i]) > lut[k]

    n_win = int(winners.sum())
    if n_win == 0:
        return {"files": files, "winners": 0, "stale": len(up_keys),
                "parts_rebuilt": [], "patched_files": []}

    # materialize the new corpus epoch as ONE self-contained dir: patched
    # files rewritten (winner rows substituted in place — key order
    # unchanged, so global sort survives), untouched files symlinked.
    # Basenames carry the global order (list_input_files sorts), so they
    # must be unique across the source set.
    os.makedirs(patched_dir, exist_ok=True)
    basenames = [os.path.basename(f) for f in files]
    # the returned epoch is the input of record for the NEXT upsert, so a
    # caller naturally passes the previous epoch dir as both source and
    # patched_dir — for an untouched file out == f and the symlink step
    # below would first os.remove() the only copy, then symlink the file
    # to itself (dangling). Refuse before destroying anything (ADVICE r4).
    patched_real = os.path.realpath(patched_dir)
    for f in files:
        # compare both the unresolved dir (catches a symlink INSIDE the
        # epoch dir, whose realpath points at an older epoch) and the
        # resolved one (catches the dir itself reached via a symlink)
        if (os.path.dirname(os.path.abspath(f)) == os.path.abspath(patched_dir)
                or os.path.dirname(os.path.realpath(f)) == patched_real):
            raise ValueError(
                f"patched_dir {patched_dir!r} contains source file {f!r}: "
                "writing the epoch over its own input would destroy it — "
                "pass a fresh directory for every upsert epoch"
            )
    if len(set(basenames)) != len(basenames):
        raise ValueError("source files must have unique basenames to form "
                         "a patched corpus epoch dir")
    if basenames != sorted(basenames):
        raise ValueError("source basenames must sort in global file order "
                         "(the epoch dir is re-listed alphabetically)")
    win_idx_by_file = {
        fi: [i for i in idxs if winners[i]] for fi, idxs in by_file.items()
    }
    patched = []
    new_files = []
    win_cols = {c: up[c].combine_chunks() for c in up.schema.names}
    for fi, f in enumerate(files):
        out = os.path.join(patched_dir, basenames[fi])
        idxs = win_idx_by_file.get(fi) or []
        if not idxs:
            if os.path.islink(out) or os.path.exists(out):
                os.remove(out)
            os.symlink(os.path.abspath(f), out)
            new_files.append(out)
            continue
        # Arrow-native substitution: one take per column over the original
        # chunks + the (cast) winner rows appended past the end — winner
        # positions (from the key-location pass) redirect into them; the
        # file's data never round-trips through Python objects
        t = _pq.read_table(f)
        take_idx = np.arange(t.num_rows, dtype=np.int64)
        for j, i in enumerate(idxs):
            take_idx[row_of[i]] = t.num_rows + j
        up_sel = pa.array([int(i) for i in idxs], pa.int64())
        idx_arr = pa.array(take_idx)
        patched_t = pa.table(
            {
                c: pc.take(
                    pa.chunked_array(
                        [t[c].combine_chunks(),
                         pc.cast(win_cols[c].take(up_sel), t.schema.field(c).type)]
                    ),
                    idx_arr,
                )
                for c in t.schema.names
            }
        )
        _pq.write_table(patched_t, out + ".tmp")
        os.replace(out + ".tmp", out)
        new_files.append(out)
        patched.append(out)

    parts = sorted({int(part_of[i]) for i in np.flatnonzero(winners)})
    repair_partitions(index_dir, new_files, parts, **repair_kwargs)
    return {"files": new_files, "winners": n_win,
            "stale": len(up_keys) - n_win, "parts_rebuilt": parts,
            "patched_files": patched}


def expire_partitions(
    index_dir: str, older_than_ts: int, dry_run: bool = False
) -> dict:
    """Retention age-out: drop whole partitions whose ts zone map PROVES
    every doc is older than ``older_than_ts`` (ts_max < cutoff).

    The reference's partition lifecycle closes time-bounded partitions and
    eventually destroys the oldest past retention (the capacity/age
    rollover of MiruPartitioner.java:106-165 is what makes whole-partition
    expiry possible). Here the same holds structurally: with
    ``partitioning="range"`` (time segments) zones are disjoint and old
    segments age out cleanly; under hash partitioning every zone spans the
    whole timeline and nothing qualifies — expiry is then correctly a
    no-op rather than an approximation (nothing is ever dropped unless the
    zone map proves it).

    Deletion is two-step (rename to a dot-prefixed tomb dir, then rmtree)
    so a crash never leaves a half-deleted ``part=`` dir that
    completed_parts would treat as live. Engines opened BEFORE the expiry
    keep serving their snapshot (immutable segments); reopen to observe
    the drop. NOTE: a later ``build_index(resume=True)`` over the original
    input would rebuild expired partitions — expiry is a serving-index
    operation, not a mid-build one (same contract as repair).

    Returns {'expired': [...], 'kept': [...], 'freed_bytes': n}."""
    import shutil

    from .segments import completed_parts, part_dir, partition

    # sweep tomb dirs left by a crash between rename and rmtree: their
    # partitions are already gone from completed_parts, so this entry-time
    # sweep is the ONLY path that ever reclaims those bytes
    for name in os.listdir(index_dir):
        if name.startswith(".expired-"):
            shutil.rmtree(os.path.join(index_dir, name), ignore_errors=True)

    expired, kept, freed = [], [], 0
    for p in sorted(completed_parts(index_dir)):
        met = partition(index_dir, p).manifest.get("metrics", {})
        ts_max = met.get("ts_max")
        if ts_max is not None and int(ts_max) < older_than_ts:
            d = part_dir(index_dir, p)
            size = sum(
                os.path.getsize(os.path.join(d, f)) for f in os.listdir(d)
            )
            if not dry_run:
                tomb = os.path.join(index_dir, f".expired-{p:05d}")
                if os.path.exists(tomb):
                    shutil.rmtree(tomb)
                os.rename(d, tomb)
                shutil.rmtree(tomb, ignore_errors=True)
            expired.append(p)
            freed += size
        else:
            kept.append(p)
    if expired and not dry_run:
        from .segments import read_global_manifest, write_global_manifest

        meta = read_global_manifest(index_dir)
        hist = list(meta.get("expired", []))
        # after_epoch: how many extend epochs existed when this expiry
        # ran — a replica-mode engine uses it to NOT subtract a partition
        # that a LATER epoch re-opened (search.py expected-part set)
        hist.append({"older_than_ts": int(older_than_ts), "parts": expired,
                     "after_epoch": len(meta.get("epochs", []))})
        write_global_manifest(index_dir, dict(meta, expired=hist))
    return {"expired": expired, "kept": kept, "freed_bytes": freed}
