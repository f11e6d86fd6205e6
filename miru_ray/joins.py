"""Shuffle-safe hash joins without ``Dataset.join``.

Ray Data's join operator cannot resolve key columns on the EMPTY hash
partitions a sparse stream produces (the r4 ``dd_keep_best`` crash,
VERDICT r4 #1: ``ArrowInvalid: No match or multiple matches for key
field reference``) — a data/partitioning-dependent failure, i.e. flaky
at scale. ``dedup._bucket_lookup`` replaced the label-propagation joins
with a tagged-union + bucket-groupby + vectorized-local-match shape;
this module generalizes that shape for every remaining join site
(reco_ppr's degree/rank attachment, the as-of join's fill resolution,
textrank/triangles, exact-Jaccard scoring):

* FULL inner-join semantics — every matching (left, right) pair is
  emitted via a vectorized repeat/arange expansion, so many-to-many
  joins (triangle wedge enumeration) are exact;
* composite keys of int64 OR string columns (bucket = folded
  splitmix64/FNV over every key column — hash-spread, so sequential
  ids don't skew; match = per-column dense coding with np.unique, no
  hash-collision risk);
* arbitrary typed payload columns from both sides (null-filled on the
  other side so the union's schema is identical everywhere — no
  empty-block schema ambiguity can reach the shuffle); a non-empty batch
  missing a key or payload column raises ``KeyError``;
* rows with a null key are dropped before the shuffle — they never
  match, as in a SQL inner join;
* each bucket group is matched in ONE vectorized pass, never a Python
  row loop.

At 100 TB the shuffle cost is identical to a hash join's (both sides
move once, keyed by hash bucket); ``num_buckets`` should scale with the
cluster so one bucket group fits a worker's heap.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .hashing import fnv1a64, splitmix64


def _chunked(arr):
    return arr.combine_chunks() if isinstance(arr, pa.ChunkedArray) else arr


def bucket_join(
    left,
    right,
    on: tuple[str, ...],
    left_cols: dict[str, pa.DataType],
    right_cols: dict[str, pa.DataType],
    key_types: dict[str, pa.DataType] | None = None,
    right_on: tuple[str, ...] | None = None,
    num_buckets: int = 32,
):
    """Inner hash-join of Datasets ``left`` ⨝ ``right`` on the key
    columns ``on`` (``right_on`` names them on the right side when they
    differ). ``left_cols`` / ``right_cols`` name the payload columns
    (with their Arrow types) carried from each side; ``key_types`` maps
    key columns to their type (default int64; ``pa.string()``
    supported). Returns a Dataset with columns
    ``*on, *left_cols, *right_cols`` — one row per matching pair."""
    key_cols = tuple(on)
    r_keys = tuple(right_on) if right_on is not None else key_cols
    if len(r_keys) != len(key_cols):
        raise ValueError("right_on must match on in length")
    ktypes = {k: (key_types or {}).get(k, pa.int64()) for k in key_cols}
    l_cols = dict(left_cols)
    r_cols = dict(right_cols)
    if set(l_cols) & set(r_cols):
        raise ValueError("left_cols and right_cols must be disjoint")

    def _tag(b: pa.Table, is_right: bool) -> pa.Table:
        side_cols = r_cols if is_right else l_cols
        src_keys = r_keys if is_right else key_cols
        if b.num_rows:
            for c in src_keys + tuple(side_cols):
                if c not in b.schema.names:
                    side = "right" if is_right else "left"
                    raise KeyError(f"bucket_join: {side} input has no column {c!r}")
            # a null key never matches (SQL inner-join semantics)
            valid = pc.is_valid(b[src_keys[0]])
            for sk in src_keys[1:]:
                valid = pc.and_(valid, pc.is_valid(b[sk]))
            if not pc.all(valid).as_py():
                b = b.filter(valid)
        n = b.num_rows
        cols: dict[str, pa.Array] = {}
        h = np.zeros(n, np.uint64)
        for kc, sk in zip(key_cols, src_keys):
            if n == 0:
                cols[kc] = pa.nulls(0, ktypes[kc])
                continue
            col = pc.cast(_chunked(b[sk]), ktypes[kc])
            cols[kc] = col
            if pa.types.is_string(ktypes[kc]):
                h = splitmix64(h ^ fnv1a64(col))
            else:
                h = splitmix64(
                    h ^ col.to_numpy(zero_copy_only=False).astype(np.int64).view(np.uint64)
                )
        cols["__bkt"] = pa.array((h % np.uint64(num_buckets)).astype(np.int64))
        cols["__is_r"] = pa.array(np.full(n, 1 if is_right else 0, np.int64))
        for c, t in list(l_cols.items()) + list(r_cols.items()):
            if n and c in side_cols:
                cols[c] = pc.cast(_chunked(b[c]), t)
            else:
                cols[c] = pa.nulls(n, t)
        return pa.table(cols)

    out_schema = pa.schema(
        [(kc, ktypes[kc]) for kc in key_cols]
        + [(c, t) for c, t in list(l_cols.items()) + list(r_cols.items())]
    )

    def _match(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or "__is_r" not in g.schema.names:
            return out_schema.empty_table()
        is_r = _chunked(g["__is_r"]).to_numpy(zero_copy_only=False).astype(bool)
        # dense-code the composite key: one np.unique per column (exact —
        # no hash-collision risk), then one over the code record
        code_cols = []
        for kc in key_cols:
            vals = _chunked(g[kc]).to_numpy(zero_copy_only=False)
            _, c = np.unique(vals, return_inverse=True)
            code_cols.append(c.astype(np.int64))
        rec = np.rec.fromarrays(code_cols) if len(code_cols) > 1 else None
        if rec is not None:
            _, codes = np.unique(rec, return_inverse=True)
        else:
            codes = code_cols[0]
        l_rows_all = np.flatnonzero(~is_r)
        r_rows_all = np.flatnonzero(is_r)
        lk = codes[~is_r]
        rk = codes[is_r]
        if len(rk) == 0 or len(lk) == 0:
            return out_schema.empty_table()
        order = np.argsort(rk, kind="stable")
        rk_sorted = rk[order]
        lo = np.searchsorted(rk_sorted, lk, side="left")
        hi = np.searchsorted(rk_sorted, lk, side="right")
        counts = hi - lo
        total = int(counts.sum())
        if total == 0:
            return out_schema.empty_table()
        l_sel = np.repeat(np.arange(len(lk), dtype=np.int64), counts)
        offs = np.repeat(np.cumsum(counts) - counts, counts)
        r_pos = np.repeat(lo, counts) + (np.arange(total, dtype=np.int64) - offs)
        take_l = pa.array(l_rows_all[l_sel])
        take_r = pa.array(r_rows_all[order[r_pos]])
        cols: dict[str, pa.Array] = {}
        for kc in key_cols:
            cols[kc] = pc.cast(_chunked(g[kc]).take(take_l), ktypes[kc])
        for c, t in l_cols.items():
            cols[c] = pc.cast(_chunked(g[c]).take(take_l), t)
        for c, t in r_cols.items():
            cols[c] = pc.cast(_chunked(g[c]).take(take_r), t)
        return pa.table(cols, schema=out_schema)

    tagged = left.map_batches(
        lambda b: _tag(b, False), batch_format="pyarrow"
    ).union(right.map_batches(lambda b: _tag(b, True), batch_format="pyarrow"))
    return tagged.groupby("__bkt").map_groups(_match, batch_format="pyarrow")
