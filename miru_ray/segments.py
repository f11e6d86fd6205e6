"""Immutable index segment layout + manifest checkpointing.

The reference persists per-partition index state in LAB LSM trees on local
disk with key layouts ``(prefix, fieldId, term, ...)`` and publishes a
readiness watermark only after all index futures complete
(reference: miru-service/.../lab/LabFieldIndex.java:163-189,
MiruIndexer.java:121-123 ``activityIndex.ready(lastId)``). We re-express the
same information as write-once Parquet files per partition — no LSM needed
because segments are immutable (SURVEY.md §1.3):

    <index_dir>/
      index.json                   # global config: n_parts, tokenizer, fields, version
      part=00042/
        postings.parquet           # one row per term_key: RUNS_SCHEMA (delta+varbyte
                                   #   blocks + per-block first doc/count + df/ttf),
                                   #   sorted by term_key in row groups of 1024
        forward.parquet            # doc_id, conv_id, turn_idx, role, tool, ts(us), dl
                                   #   (the activity/forward index + time index +
                                   #   doc-length table, MiruActivityIndex.java:16-135)
        _MANIFEST.json             # written LAST (atomicity: segments → fsync →
                                   #   manifest, mirroring ready(lastId) ordering);
                                   #   lineage + doc/term/byte metrics

Term keys are ``"<field>\\x1f<term>"`` — the analogue of the reference's
``(fieldId, term)`` composite index key (LabFieldIndex.java:82-92).
A build that finds a complete ``_MANIFEST.json`` for a partition skips it
(resumable restarts with per-partition lineage, BASELINE.json north_star).

Only this module knows the layout. Readers go through ``partition(index_dir,
part)``: one resident ``Partition`` per partition at its manifest epoch,
holding the manifest, the term dictionary, the forward columns and the
per-partition query caches (see "resident partitions" below). ``index.json``
is read through ``read_global_manifest`` or its memo ``index_meta``.
"""

from __future__ import annotations

import json
import os
import sys
import threading
from collections import OrderedDict

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

FIELD_SEP = "\x1f"
# positions are NOT a version bump: the on-disk format is purely additive
# (extra POS_FIELD rows), detected via the global manifest's "positions"
# flag. v5 drops the five posting columns no query read (max_tf,
# blk_max_tf, blk_min_dl, blk_doc_end, blk_tf_end): every posting decodes
# whole, so the block bounds and byte offsets had no reader but audit. The
# doc and tf bytes are unchanged; a v4 index must be rebuilt.
INDEX_VERSION = 5  # v2: numeric-lex postings; v3: pairedLatest; v4: composite fields

# fields beside tokenized `text` indexed as single-term (tf=1) postings —
# reference schema analogue: role/tool/conv_id are singleTerm fields
# (MiruFullTextNGTest.java:52-60 user/doc singleTerm; FIXTURES.md F3)
META_FIELDS = ("role", "tool", "conv_id")
# numeric fields: int values lex-encoded into order-preserving fixed-width
# terms so the term dictionary supports range scans — the reference's
# Prefix.NUMERIC term composition (MiruTermComposer.java:130-145,
# MiruFieldDefinition.java:139-198 numeric prefix)
NUM_FIELDS = ("turn_idx",)
TEXT_FIELD = "text"

NUM_LEX_WIDTH = 20  # digits of 2^64-1: covers the full biased int64 range
_NUM_BIAS = np.uint64(1 << 63)


def numeric_lex(v: int) -> str:
    """Order-preserving fixed-width encoding of an int64: bias by 2^63
    (two's-complement sign flip) then zero-pad decimal — lexicographic
    order over the encodings == numeric order over the values. The
    decimal analogue of the reference's UtilLexMarshaller byte encoding
    (MiruTermComposer.java:130-145), chosen so terms stay printable and
    ANSI-SQL-checkable."""
    v = int(v)
    if not -(1 << 63) <= v < (1 << 63):
        raise OverflowError(f"numeric term {v} is outside the int64 range")
    return format(v + (1 << 63), f"0{NUM_LEX_WIDTH}d")


def numeric_lex_array(arr: "pa.Array | pa.ChunkedArray") -> pa.Array:
    """Vectorized numeric_lex over an integer Arrow column."""
    import pyarrow.compute as pc

    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    a = arr.cast(pa.int64())
    v = pc.fill_null(a, 0).to_numpy(zero_copy_only=False)
    with np.errstate(over="ignore"):
        u = v.astype(np.uint64) + _NUM_BIAS
    s = pc.utf8_lpad(pc.cast(pa.array(u, type=pa.uint64()), pa.string()),
                     NUM_LEX_WIDTH, "0")
    if a.null_count:
        s = pc.if_else(pc.is_null(a), pa.scalar(None, pa.string()), s)
    return s

FORWARD_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int32()),
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("role", pa.string()),
        ("tool", pa.string()),
        ("ts", pa.int64()),  # microseconds since epoch
        ("dl", pa.int32()),  # document length (text token count)
    ]
)
# the forward columns held dictionary-encoded in a resident Partition
STRING_COLUMNS = ("conv_id", "role", "tool")


# ------------------------------------------------- lifecycle callbacks
#
# The reference exposes index lifecycle hooks (miru-plugin/.../plugin/
# IndexOpenCallback.java, IndexCommitCallback.java,
# IndexCloseCallback.java): plugins observe partition open / commit /
# close. The rebuild's equivalent: module-level callback lists fired when
# a segment manifest is committed (finalize_segment) and
# when an engine opens / closes an index.

_LIFECYCLE_CALLBACKS: dict[str, list] = {"open": [], "commit": [], "close": []}


def register_lifecycle_callback(event: str, fn) -> None:
    """Register ``fn`` for ``event`` ∈ {"open", "commit", "close"}.
    open/close fire with (index_dir); commit fires with (index_dir, part)."""
    if event not in _LIFECYCLE_CALLBACKS:
        raise ValueError(f"unknown lifecycle event {event!r}")
    _LIFECYCLE_CALLBACKS[event].append(fn)


def unregister_lifecycle_callback(event: str, fn) -> None:
    _LIFECYCLE_CALLBACKS[event].remove(fn)


def _fire_lifecycle(event: str, *args) -> None:
    for fn in _LIFECYCLE_CALLBACKS[event]:
        fn(*args)


def term_key(field: str, term: str) -> str:
    return field + FIELD_SEP + term


def part_dir(index_dir: str, part: int) -> str:
    return os.path.join(index_dir, f"part={part:05d}")


def manifest_path(index_dir: str, part: int) -> str:
    return os.path.join(part_dir(index_dir, part), "_MANIFEST.json")


def read_manifest(index_dir: str, part: int) -> dict | None:
    p = manifest_path(index_dir, part)
    if not os.path.exists(p):
        return None
    try:
        with open(p) as f:
            m = json.load(f)
        # stale-format segments are treated as absent → resume rebuilds them
        if not m.get("complete") or m.get("version") != INDEX_VERSION:
            return None
        return m
    except (json.JSONDecodeError, OSError):
        return None


def completed_parts(index_dir: str) -> list[int]:
    if not os.path.isdir(index_dir):
        return []
    out = []
    for name in os.listdir(index_dir):
        if name.startswith("part="):
            p = int(name.split("=", 1)[1])
            if read_manifest(index_dir, p) is not None:
                out.append(p)
    return sorted(out)


def finalize_segment(
    index_dir: str,
    part: int,
    postings: pa.Table,
    lineage: dict,
    metrics: dict,
    forward: pa.Table | None = None,
) -> dict:
    """Write one partition segment: postings + forward, then the manifest
    LAST — the same 'ready after all futures' ordering
    (MiruIndexer.java:121-123; SURVEY.md §7.4(7))."""
    d = part_dir(index_dir, part)
    os.makedirs(d, exist_ok=True)
    tmp = os.path.join(d, "postings.parquet.tmp")
    # small row groups: a TermDictionary lookup reads only the handful of
    # row groups that hold the queried terms
    pq.write_table(postings, tmp, row_group_size=1024)
    os.replace(tmp, os.path.join(d, "postings.parquet"))
    if forward is not None:
        ftmp = os.path.join(d, "forward.parquet.tmp")
        pq.write_table(forward, ftmp, row_group_size=65536)
        os.replace(ftmp, os.path.join(d, "forward.parquet"))
    manifest = {
        "complete": True,
        "version": INDEX_VERSION,
        "part": part,
        "lineage": lineage,
        "metrics": metrics,
    }
    mp = manifest_path(index_dir, part)
    with open(mp + ".tmp", "w") as f:
        json.dump(manifest, f)
        f.flush()
        os.fsync(f.fileno())
    os.replace(mp + ".tmp", mp)
    with _LOCK:
        pt = _PARTITIONS.get((os.path.abspath(index_dir), part))
        if pt is not None:
            _forget(pt)
    _fire_lifecycle("commit", index_dir, part)
    return manifest


def write_global_manifest(index_dir: str, meta: dict) -> None:
    tmp = os.path.join(index_dir, "index.json.tmp")
    with open(tmp, "w") as f:
        json.dump(meta, f, indent=1)
        f.flush()
        os.fsync(f.fileno())
    os.rename(tmp, os.path.join(index_dir, "index.json"))


# The one posting codec (codec.py's delta+varbyte), recorded as index.json's
# ``codec`` beside the format ``version`` (INDEX_VERSION). An index that
# names any other codec or version cannot be decoded, so it refuses to open,
# extend, compact or audit: its partition manifests would read as absent and
# every query would answer empty. ``build_index`` never reads index.json,
# so a rebuild over it still works.
POSTING_CODEC = "varbyte"


def read_global_manifest(index_dir: str) -> dict:
    with open(os.path.join(index_dir, "index.json")) as f:
        meta = json.load(f)
    codec = meta.get("codec", POSTING_CODEC)
    if codec != POSTING_CODEC:
        raise ValueError(
            f"{index_dir}: index uses posting codec {codec!r}; "
            f"only {POSTING_CODEC!r} is supported"
        )
    if meta.get("version") != INDEX_VERSION:
        raise ValueError(
            f"{index_dir}: index format version {meta.get('version')!r} is not "
            f"{INDEX_VERSION}; rebuild the index with build_index"
        )
    return meta


_INDEX_META: dict[str, tuple[float, dict]] = {}


def index_meta(index_dir: str) -> dict:
    """``index.json``, memoised per index dir at its mtime: extend and
    repair keep the analyzer, but an in-place rebuild may change it.
    Callers must not mutate the returned dict."""
    key = os.path.abspath(index_dir)
    mtime = os.path.getmtime(os.path.join(index_dir, "index.json"))
    hit = _INDEX_META.get(key)
    if hit is None or hit[0] != mtime:
        hit = _INDEX_META[key] = (mtime, read_global_manifest(index_dir))
    return hit[1]


# ------------------------------------------------------- resident partitions
#
# Every read of a partition goes through its resident ``Partition``: one
# object per (abs index_dir, part) at its manifest epoch, the manifest's
# mtime. Extend, repair and compact write the manifest last, so the epoch
# moves whenever ``postings.parquet`` or ``forward.parquet`` is replaced.
# ``partition()`` stats the manifest once per call and replaces the whole
# object when the epoch moves, so nothing of a superseded epoch stays
# resident: the reference's per-partition context, rebuilt whole when the
# partition changes (MiruContextFactory). A Partition holds
#   * the manifest (None when absent or incomplete: a vanished primary in
#     replica mode is then asked, and fails over, without re-reading);
#   * the term dictionary and the forward columns, loaded on first use;
#   * the query caches: decoded postings (search.PostingSource's entries),
#     fuzzy/regexp expansions and authz masks.
# Each kind of query cache is one process-wide LRU across partitions
# (``_Lru``): 200,000 decoded postings, 50,000 expansions, 1,024 authz
# masks. At most _PARTITIONS_CAP partitions stay resident (LRU), each with
# one open ``postings.parquet`` handle once its dictionary is loaded.
# ``finalize_segment`` drops the partition it supersedes in its own process,
# so a rewrite inside one mtime tick is not served from the old epoch.


class TermDictionary:
    """One partition's term dictionary: one open ``pq.ParquetFile`` for
    ``postings.parquet``, the sorted ``term`` column as a numpy array and
    the cumulative row counts of the row groups. A lookup is a
    ``searchsorted``; a read decodes only the row groups that hold the rows
    it needs, from that same handle, so a ``postings.parquet`` replaced by
    extend, repair or compact can never pair one file's dictionary with
    another file's rows. The reference keeps its term dictionary resident
    the same way (LAB leap cache).

    ``terms`` is sorted by code point, which is the UTF-8 byte order the
    build sorts ``postings.parquet`` by, so ``np.searchsorted`` over it
    agrees with the file. Reads on the shared handle take ``_lock``:
    ``FederatedEngine`` asks partitions from threads."""

    def __init__(self, path: str):
        self.path = path
        self._pf = pq.ParquetFile(path)
        md = self._pf.metadata
        sizes = np.array([md.row_group(i).num_rows for i in range(md.num_row_groups)],
                         dtype=np.int64)
        self.rg_end = np.cumsum(sizes)
        self.rg_start = self.rg_end - sizes
        self.terms = (
            self._pf.read(columns=["term"], use_threads=False)
            .column("term").to_numpy(zero_copy_only=False)
        )
        self._lock = threading.Lock()

    def find(self, keys) -> np.ndarray:
        """Sorted row indices of the ``keys`` present (duplicates once)."""
        k = np.array(sorted(set(keys)), dtype=object)
        n = len(self.terms)
        if not len(k) or not n:
            return np.empty(0, dtype=np.int64)
        pos = np.searchsorted(self.terms, k)
        hit = pos < n
        hit[hit] = self.terms[pos[hit]] == k[hit]
        return pos[hit].astype(np.int64)

    def span(self, lo: str, hi: str, lo_inc: bool = True, hi_inc: bool = True) -> tuple[int, int]:
        """Row range ``[i, j)`` of the terms between ``lo`` and ``hi``."""
        i = np.searchsorted(self.terms, np.array([lo], dtype=object),
                            side="left" if lo_inc else "right")[0]
        j = np.searchsorted(self.terms, np.array([hi], dtype=object),
                            side="right" if hi_inc else "left")[0]
        return int(i), int(max(i, j))

    def read(self, rows: np.ndarray, columns: list[str] | None = None) -> pa.Table:
        """The rows at sorted indices ``rows``, in that order, reading only
        the row groups that hold them. ``columns`` must include ``term``
        (or be None for every column)."""
        if not len(rows):
            t = self._pf.schema_arrow.empty_table()
            return t if columns is None else t.select(columns)
        g = np.searchsorted(self.rg_end, rows, side="right")  # row group of each row
        rgs, inv = np.unique(g, return_inverse=True)
        sizes = self.rg_end[rgs] - self.rg_start[rgs]
        # a row's index in the read table: its offset in its group plus the
        # rows of the groups read before it
        local = rows - self.rg_start[g] + (np.cumsum(sizes) - sizes)[inv]
        with self._lock:
            t = self._pf.read_row_groups(rgs.tolist(), columns=columns, use_threads=False)
        t = t.take(pa.array(local))
        got = t.column("term").to_numpy(zero_copy_only=False)
        if not np.array_equal(got, self.terms[rows]):
            raise RuntimeError(f"{self.path}: posting rows do not match the term dictionary")
        return t

    def nbytes(self) -> int:
        """Resident bytes: the term strings, the pointer array and the
        row-group offsets (the open file handle is not counted)."""
        return (self.terms.nbytes + self.rg_end.nbytes + self.rg_start.nbytes
                + sum(sys.getsizeof(t) for t in self.terms))


class _Lru(OrderedDict):
    """One kind of per-partition cache, bounded across all partitions: the
    (partition, key) pairs in recency order, at most ``cap`` of them; the
    values live in each partition's ``attr`` dict. Callers hold _LOCK."""

    def __init__(self, attr: str, cap: int):
        super().__init__()
        self.attr, self.cap = attr, cap

    def drop(self, pt: "Partition") -> None:
        cache = getattr(pt, self.attr)
        for k in cache:
            self.pop((pt, k), None)
        cache.clear()


_PARTITIONS: "OrderedDict[tuple[str, int], Partition]" = OrderedDict()
_PARTITIONS_CAP = 512
_POSTING_LRU = _Lru("postings", 200_000)
_EXPANSION_LRU = _Lru("expansions", 50_000)
_AUTHZ_LRU = _Lru("authz", 1_024)
_LRUS = {lru.attr: lru for lru in (_POSTING_LRU, _EXPANSION_LRU, _AUTHZ_LRU)}
_LOCK = threading.Lock()  # guards the registry and the LRUs


class Partition:
    """One partition at one manifest epoch (see the section comment)."""

    def __init__(self, index_dir: str, part: int, epoch: float):
        self.key = (os.path.abspath(index_dir), part)
        self.dir = part_dir(self.key[0], part)
        self.mpath = os.path.join(self.dir, "_MANIFEST.json")
        self.epoch = epoch
        self.manifest = read_manifest(index_dir, part)
        self.postings: dict[str, tuple | None] = {}  # term key -> entry, None: absent
        self.expansions: dict[tuple[str, str], list[str]] = {}  # (field, spec) -> terms
        self.authz: dict[tuple, np.ndarray] = {}  # (field, values) -> allowed docIds
        self._dictionary: TermDictionary | None = None
        self._forward: dict | None = None
        self._load = threading.Lock()

    @property
    def dictionary(self) -> TermDictionary:
        with self._load:
            if self._dictionary is None:
                self._dictionary = TermDictionary(os.path.join(self.dir, "postings.parquet"))
        return self._dictionary

    @property
    def forward(self) -> dict:
        """The forward columns the query path gathers from (the Strut-style
        per-worker cache pattern, StrutModelCache.java:104-140): ``ts``,
        ``dl`` and ``turn_idx`` as numpy arrays, ``n_docs``, and
        ``conv_id``, ``role`` and ``tool`` as ``pa.DictionaryArray``s (a
        conversation's turns share one dictionary entry). ``strings`` maps
        each of those three to ``(codes, values)``: the int32 code per doc
        and one Python ``str`` per dictionary entry in a numpy object
        array, so ``values[codes[docs]]`` gathers the strings of any docs
        (``search._gather``). A null row's code is ``len(values) - 1``,
        whose value is None; the codes view the dictionary's indices unless
        the column has nulls."""
        with self._load:
            if self._forward is None:
                t = self.forward_table()
                fwd = {c: t[c].to_numpy() for c in ("ts", "dl", "turn_idx")}
                fwd["strings"] = {}
                for c in STRING_COLUMNS:
                    col = t[c].combine_chunks().dictionary_encode()
                    values = np.empty(len(col.dictionary) + 1, dtype=object)
                    values[:-1] = col.dictionary.to_pylist()
                    codes = col.indices
                    if codes.null_count:
                        codes = pc.fill_null(codes, len(col.dictionary))
                    fwd[c] = col
                    fwd["strings"][c] = (codes.to_numpy(), values)
                fwd["n_docs"] = t.num_rows
                self._forward = fwd
        return self._forward

    def forward_table(self) -> pa.Table:
        """The whole forward table in docId order, read from disk."""
        return pq.read_table(os.path.join(self.dir, "forward.parquet"))

    def postings_table(self) -> pa.Table:
        """Every posting row in term order, read from disk."""
        return pq.read_table(os.path.join(self.dir, "postings.parquet"))

    def cached(self, cache: str, keys) -> tuple[dict, list]:
        """``(hits, misses)`` of ``keys`` in ``cache`` ("postings",
        "expansions" or "authz"); a hit becomes the most recently used entry
        of its kind."""
        lru, hits, misses = _LRUS[cache], {}, []
        values = getattr(self, cache)
        with _LOCK:
            for k in keys:
                if k in values:
                    lru.move_to_end((self, k))
                    hits[k] = values[k]
                else:
                    misses.append(k)
        return hits, misses

    def cache(self, cache: str, entries: dict) -> None:
        """Store ``entries`` in ``cache``, first evicting the least recently
        used entries of that kind, of any partition, to stay within its cap
        (all of them when ``entries`` alone exceeds it). A superseded
        partition stores none."""
        lru, values = _LRUS[cache], getattr(self, cache)
        with _LOCK:
            if _PARTITIONS.get(self.key) is not self:
                return
            while lru and len(lru) + len(entries) > lru.cap:
                (pt, k), _ = lru.popitem(last=False)
                del getattr(pt, cache)[k]
            for k, v in entries.items():
                values[k] = v
                lru[(self, k)] = None

    def nbytes(self) -> int:
        """Resident bytes of the term dictionary and the forward columns, as
        far as they are loaded (the query caches are not counted): the
        Arrow and numpy buffers, and the Python strings of the string
        columns' values (codes that view the dictionary indices once)."""
        fwd = self._forward or {}
        n = self._dictionary.nbytes() if self._dictionary else 0
        n += sum(v.nbytes for v in fwd.values() if hasattr(v, "nbytes"))
        for c, (codes, values) in fwd.get("strings", {}).items():
            n += values.nbytes + sum(sys.getsizeof(v) for v in values if v is not None)
            if fwd[c].indices.null_count:
                n += codes.nbytes
        return n


def manifest_epoch(index_dir: str, part: int) -> float:
    """A partition's epoch: its manifest's mtime (-1.0 when absent)."""
    try:
        return os.path.getmtime(manifest_path(index_dir, part))
    except OSError:
        return -1.0


def _forget(pt: Partition) -> None:
    """Drop ``pt`` from the registry and its entries from the LRUs (under
    _LOCK)."""
    if _PARTITIONS.get(pt.key) is pt:
        del _PARTITIONS[pt.key]
    for lru in _LRUS.values():
        lru.drop(pt)


def partition(index_dir: str, part: int) -> Partition:
    """The resident partition at its current manifest epoch, replaced whole
    when the epoch has moved. The manifest is read outside the lock; of two
    threads that load the same epoch, the first to register wins.

    A warm lookup makes one ``os.stat``, of the manifest. Registry keys are
    absolute normalised paths (``SearchEngine`` holds its ``index_dir``
    so), so such a dir finds its resident partition, and the manifest path
    it holds, without path work; any other spelling, a relative dir
    included, is resolved against the current working directory on every
    call."""
    pt = _PARTITIONS.get((index_dir, part))
    if pt is not None:
        key, mpath = pt.key, pt.mpath
    else:
        key = (os.path.abspath(index_dir), part)
        mpath = manifest_path(key[0], part)
    try:
        epoch = os.stat(mpath).st_mtime
    except OSError:
        epoch = -1.0
    with _LOCK:
        pt = _PARTITIONS.get(key)
        if pt is not None and pt.epoch == epoch:
            _PARTITIONS.move_to_end(key)
            return pt
    new = Partition(index_dir, part, epoch)
    with _LOCK:
        pt = _PARTITIONS.get(key)
        if pt is not None and pt.epoch == epoch:
            _PARTITIONS.move_to_end(key)
            return pt
        if pt is not None:
            _forget(pt)
        _PARTITIONS[key] = new
        while len(_PARTITIONS) > _PARTITIONS_CAP:
            _forget(next(iter(_PARTITIONS.values())))
        return new


# the posting columns a query decodes (search.PostingSource). The other
# four (part, first/last doc, n_blocks) serve the merge and audit
POSTING_COLUMNS = ["term", "doc_bytes", "tf_bytes", "ttf", "df", "blk_first", "blk_count"]


def read_postings_for_terms(index_dir: str, part: int, keys: list[str]) -> pa.Table:
    """The ``POSTING_COLUMNS`` of the posting rows for ``keys``, in term
    order (absent keys have none)."""
    td = partition(index_dir, part).dictionary
    return td.read(td.find(keys), POSTING_COLUMNS)


def read_term_dfs(index_dir: str, part: int, keys: list[str]) -> dict[str, int]:
    """term_key → df for ``keys``: the term and df columns only. The
    suggester's read path: document frequency without touching posting
    bytes."""
    td = partition(index_dir, part).dictionary
    t = td.read(td.find(keys), ["term", "df"])
    return dict(zip(t["term"].to_pylist(), (int(x) for x in t["df"].to_pylist())))


def read_term_range(index_dir: str, part: int, field: str, prefix: str) -> list[str]:
    """Sorted terms of ``field`` starting with ``prefix`` (wildcard expansion —
    the reference's streamTermIdsForField range scan,
    MiruAggregateUtil.java:1160-1168)."""
    return read_term_between(index_dir, part, field, prefix, prefix + "\U0010ffff")


def read_term_between(
    index_dir: str,
    part: int,
    field: str,
    lo: str | None,
    hi: str | None,
    lo_inc: bool = True,
    hi_inc: bool = True,
) -> list[str]:
    """Sorted terms of ``field`` in the [lo, hi] range (open bounds with
    None) — the term-range scan behind ``field:[lo TO hi]`` queries
    (reference: MiruTermComposer numeric ranges + makeUpperExclusive,
    MiruTermComposer.java:130-145,265-280)."""
    lo_key = term_key(field, lo if lo is not None else "")
    hi_key = term_key(field, hi) if hi is not None else term_key(field, "") + "\U0010ffff"
    td = partition(index_dir, part).dictionary
    i, j = td.span(lo_key, hi_key, lo_inc, hi_inc)
    sep_len = len(field) + 1
    return [k[sep_len:] for k in td.terms[i:j].tolist()]


def forward_columns(index_dir: str, part: int) -> dict:
    """The partition's resident forward columns."""
    return partition(index_dir, part).forward


def remove_docs(index_dir: str, keys: list[tuple[str, int]]) -> dict[int, int]:
    """Tombstone documents by (conv_id, turn_idx) — the reference's REMOVE
    activity type (MiruPartitionedActivity.java:14-16, removal index
    MiruRemovalIndex.java). DocIds are never reassigned; queries AND-NOT the
    tombstone set out of every answer (buildIndexMask,
    MiruBitmapsRoaring.java:492-503). Idempotent; returns per-partition
    removal counts. Global term stats stay untouched until a rebuild —
    exactly the reference's behavior (the cardinality store is not
    decremented on REMOVE)."""
    out: dict[int, int] = {}
    for part, hits in _resolve_doc_ids(index_dir, keys).items():
        existing = read_tombstones(index_dir, part)
        merged = np.union1d(existing, hits)
        path = os.path.join(part_dir(index_dir, part), "tombstones.parquet")
        tmp = path + ".tmp"
        pq.write_table(
            pa.table({"doc_id": pa.array(merged.astype(np.int32), type=pa.int32())}), tmp
        )
        os.replace(tmp, path)
        out[part] = int(len(merged))
    return out


# ------------------------------------------------- per-stream inbox/unread
#
# The reference tracks per-user-stream state in dedicated indexes: an inbox
# index (docs delivered to a stream, MiruInboxIndex.java) and an unread
# tracking index mutated by READ/UNREAD/MARK_ALL_READ activities
# (MiruUnreadTrackingIndex.java, MiruPartitionedActivity.java:14-16). We
# store each as a sorted docId parquet per (partition, streamId), same
# layout as tombstones — queries AND them in per partition.


def _pack_keys(conv: pa.Array | pa.ChunkedArray, turn: pa.Array | pa.ChunkedArray) -> pa.Array:
    """Pack (conv_id, turn_idx) into one binary key column —
    ``conv\\x1fturn`` — for vectorized membership tests (the same packed-key
    idiom the build uses for its int64 sorts)."""
    packed = pc.binary_join_element_wise(
        pc.cast(conv, pa.string()), pc.cast(turn, pa.string()), "\x1f"
    )
    return packed.combine_chunks() if isinstance(packed, pa.ChunkedArray) else packed


def _resolve_doc_ids(index_dir: str, keys: list[tuple[str, int]]) -> dict[int, np.ndarray]:
    """(conv_id, turn_idx) keys → {part: sorted docIds} via the forward
    tables. Key routing uses the build's conv-hash partitioner; membership
    inside a partition is ONE vectorized ``pc.is_in`` over a packed key
    column — no per-row Python over the (potentially millions-row) forward
    table."""
    from .hashing import fnv1a64_str

    meta = read_global_manifest(index_dir)
    n_parts = meta["n_parts"]
    by_part: dict[int, set[tuple[str, int]]] = {}
    for conv, turn in keys:
        by_part.setdefault(fnv1a64_str(conv) % n_parts, set()).add((conv, int(turn)))
    out: dict[int, np.ndarray] = {}
    for part, want in sorted(by_part.items()):
        pt = partition(index_dir, part)
        if pt.manifest is None:
            continue
        f = pt.forward_table()
        fwd_keys = _pack_keys(f["conv_id"], f["turn_idx"])
        want_keys = pa.array([f"{c}\x1f{t}" for c, t in sorted(want)], pa.string())
        mask = pc.is_in(fwd_keys, value_set=want_keys).to_numpy(zero_copy_only=False)
        hits = np.flatnonzero(mask).astype(np.int64)
        if len(hits):
            out[part] = hits
    return out


def _stream_file(index_dir: str, part: int, kind: str, stream_id: str) -> str:
    safe = "".join(c if c.isalnum() or c in "-_" else "_" for c in stream_id)
    return os.path.join(part_dir(index_dir, part), f"{kind}-{safe}.parquet")


def _write_doc_set(path: str, docs: np.ndarray) -> None:
    tmp = path + ".tmp"
    pq.write_table(
        pa.table({"doc_id": pa.array(np.asarray(docs, dtype=np.int32), type=pa.int32())}), tmp
    )
    os.replace(tmp, path)


class _DocSetFiles:
    """Sorted docId sets read from small parquet files (tombstones, stream
    sets), an LRU of at most ``cap`` paths. An entry holds the identity of
    the file it was read from (device, inode, mtime, size): a lookup makes
    one ``os.stat`` and serves the entry only while the path still names
    that file, so a relative path resolved in another working directory, or
    a file replaced since (writers ``os.replace`` a new file), is read
    again, and its entry replaces the superseded one."""

    def __init__(self, cap: int):
        self.cap = cap
        self._sets: "OrderedDict[str, tuple[tuple, np.ndarray]]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._sets)

    def read(self, path: str) -> np.ndarray:
        """The file's sorted docIds; empty when it does not exist."""
        try:
            st = os.stat(path)
        except FileNotFoundError:
            return _EMPTY_SET
        ident = (st.st_dev, st.st_ino, st.st_mtime_ns, st.st_size)
        with self._lock:
            hit = self._sets.get(path)
            if hit is not None and hit[0] == ident:
                self._sets.move_to_end(path)
                return hit[1]
        docs = pq.read_table(path)["doc_id"].to_numpy().astype(np.int64)
        with self._lock:
            self._sets[path] = (ident, docs)
            self._sets.move_to_end(path)
            while len(self._sets) > self.cap:
                self._sets.popitem(last=False)
        return docs


_EMPTY_SET = np.empty(0, dtype=np.int64)
_STREAM_SETS = _DocSetFiles(4096)
_TOMBSTONES = _DocSetFiles(4096)


def read_stream_set(index_dir: str, part: int, kind: str, stream_id: str) -> np.ndarray:
    """Sorted docIds of a stream's inbox/unread set (empty if none)."""
    return _STREAM_SETS.read(_stream_file(index_dir, part, kind, stream_id))


def _mutate_stream_set(index_dir: str, kind: str, stream_id: str,
                       keys: list[tuple[str, int]], add: bool) -> dict[int, int]:
    out: dict[int, int] = {}
    for part, docs in _resolve_doc_ids(index_dir, keys).items():
        existing = read_stream_set(index_dir, part, kind, stream_id)
        merged = np.union1d(existing, docs) if add else np.setdiff1d(existing, docs, assume_unique=True)
        _write_doc_set(_stream_file(index_dir, part, kind, stream_id), merged)
        out[part] = int(len(merged))
    return out


def add_to_inbox(index_dir: str, stream_id: str, keys: list[tuple[str, int]]) -> dict[int, int]:
    """Deliver docs to a stream's inbox; newly delivered docs also become
    unread (the reference's inbox backfill marks delivery unread)."""
    _mutate_stream_set(index_dir, "unread", stream_id, keys, add=True)
    return _mutate_stream_set(index_dir, "inbox", stream_id, keys, add=True)


def mark_read(index_dir: str, stream_id: str, keys: list[tuple[str, int]]) -> dict[int, int]:
    """READ activity analogue."""
    return _mutate_stream_set(index_dir, "unread", stream_id, keys, add=False)


def mark_all_read(index_dir: str, stream_id: str) -> None:
    """MARK_ALL_READ activity analogue: clear the stream's unread set."""
    meta = read_global_manifest(index_dir)
    for part in range(meta["n_parts"]):
        path = _stream_file(index_dir, part, "unread", stream_id)
        if os.path.exists(path):
            _write_doc_set(path, np.empty(0, dtype=np.int64))


def read_tombstones(index_dir: str, part: int) -> np.ndarray:
    """Sorted tombstoned docIds of a partition (empty array if none)."""
    return _TOMBSTONES.read(os.path.join(part_dir(index_dir, part), "tombstones.parquet"))
