"""Index integrity audit — the "fsck" ops surface.

``audit_index`` validates every partition of a built index against the
format's own invariants, partition-parallel (one Ray task per partition,
the reader-inspect shape of SearchEngine.stats — but where stats trusts
the manifests, audit re-derives and cross-checks):

* manifest present, complete, version-current;
* forward table in strict docId order, row count == manifest n_docs;
* posting term keys sorted (the row-group-pruning precondition);
* doc-length bookkeeping: Σ(forward dl) == manifest total_tokens and
  avg_dl consistent (the BM25 avg_dl source);
* for a DETERMINISTIC hash-ranked sample of real terms (same sample every
  run — audits are comparable across replicas, the sync/verify_sync
  contract), full decode and re-derivation of every redundant field:
  docIds strictly increasing within [first_doc, last_doc] and ⊆ the
  partition's doc set, df == len(docs), ttf == Σtf, max_tf == max(tf),
  blk_first/blk_count consistent with the decoded stream, per-block
  byte-end offsets monotone and summing to the byte lengths, blk_max_tf
  == per-block max, blk_min_dl == per-block min TRUE doc length;
* tombstones ⊆ the partition's doc universe.

A corrupted byte anywhere in these structures surfaces as a named error
with the partition, term and field (see tests/test_audit.py's
flip-a-byte cases). Cites the reference's consistency checkpoints:
MiruIndexer.java:121-123 (ready-after-all-futures manifest ordering),
MiruBitmapsRoaring cardinality==df bookkeeping.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .codec import DOCLEN_TERM, FWD_TERM, POS_FIELD, decode_posting
from .hashing import fnv1a64
from .segments import completed_parts, partition, read_global_manifest, read_tombstones


def _err(errors: list, part: int, what: str, detail: str = "") -> None:
    errors.append({"part": part, "check": what, "detail": detail[:200]})


def audit_partition(index_dir: str, part: int, sample_terms: int = 64) -> dict:
    """Audit one partition; returns {part, n_terms_checked, errors}."""
    errors: list[dict] = []
    pt = partition(index_dir, part)
    m = pt.manifest
    if m is None:
        _err(errors, part, "manifest", "missing/incomplete/stale-version")
        return {"part": part, "n_terms_checked": 0, "errors": errors}
    read_global_manifest(index_dir)  # raises on an index of another codec
    try:
        post = pt.postings_table()
    except Exception as ex:
        _err(errors, part, "postings-read", str(ex))
        return {"part": part, "n_terms_checked": 0, "errors": errors}
    fwd = pt.forward_table()
    doc_ids = fwd["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    if not bool(np.all(np.diff(doc_ids) > 0)):
        _err(errors, part, "forward-order", "doc_id not strictly increasing")
    n_docs = int(m["metrics"].get("n_docs", -1))
    if n_docs >= 0 and len(doc_ids) != n_docs:
        _err(errors, part, "forward-count",
             f"forward rows {len(doc_ids)} != manifest n_docs {n_docs}")
    dl = fwd["dl"].to_numpy(zero_copy_only=False).astype(np.int64)

    terms = np.asarray(post["term"].to_pylist(), dtype=object)
    if len(terms) > 1 and not bool(np.all(terms[:-1] <= terms[1:])):
        _err(errors, part, "term-order", "term keys not sorted")
    real = np.array(
        [i for i, t in enumerate(terms)
         if t != DOCLEN_TERM and t != FWD_TERM and not t.startswith(POS_FIELD)],
        dtype=np.int64,
    )

    # doc-length bookkeeping: the forward dl column vs manifest metrics
    # (BM25's avg_dl source — search.py:718)
    tot = int(m["metrics"].get("total_tokens", -1))
    if tot >= 0 and int(dl.sum()) != tot:
        _err(errors, part, "total-tokens",
             f"Σdl {int(dl.sum())} != manifest total_tokens {tot}")
    avg = m["metrics"].get("avg_dl")
    if avg is not None and len(dl) and abs(dl.sum() / len(dl) - float(avg)) > 1e-3:
        _err(errors, part, "avg-dl", f"manifest avg_dl {avg} inconsistent")

    # deterministic hash-ranked term sample (stable across replicas/runs)
    if len(real):
        ranks = fnv1a64(pa.array([str(terms[i]) for i in real], pa.string()))
        order = np.argsort(ranks, kind="stable")
        pick = real[order[: min(sample_terms, len(real))]]
    else:
        pick = np.empty(0, np.int64)
    for i in pick:
        r = post.slice(int(i), 1).to_pylist()[0]
        t = r["term"]
        try:
            docs, tfs = decode_posting(
                r["doc_bytes"], r["tf_bytes"],
                np.asarray(r["blk_first"]), np.asarray(r["blk_count"]),
            )
        except Exception as ex:
            _err(errors, part, "decode", f"{t!r}: {ex}")
            continue
        bc = np.asarray(r["blk_count"], dtype=np.int64)
        bf = np.asarray(r["blk_first"], dtype=np.int64)
        de = np.asarray(r["blk_doc_end"], dtype=np.int64)
        te = np.asarray(r["blk_tf_end"], dtype=np.int64)
        if len(docs) != int(r["df"]):
            _err(errors, part, "df", f"{t!r}: decoded {len(docs)} != df {r['df']}")
            continue
        if np.any(np.diff(docs) <= 0):
            _err(errors, part, "doc-order", f"{t!r}: docIds not strictly increasing")
        if len(docs) and (docs[0] != int(r["first_doc"]) or docs[-1] != int(r["last_doc"])):
            _err(errors, part, "doc-range", f"{t!r}: first/last mismatch")
        if np.any(np.searchsorted(doc_ids, docs) >= len(doc_ids)) or not np.all(
            doc_ids[np.searchsorted(doc_ids, docs).clip(0, len(doc_ids) - 1)] == docs
        ):
            _err(errors, part, "doc-universe", f"{t!r}: docId outside forward table")
        if int(tfs.sum()) != int(r["ttf"]):
            _err(errors, part, "ttf", f"{t!r}: Σtf {int(tfs.sum())} != ttf {r['ttf']}")
        if len(tfs) and int(tfs.max()) != int(r["max_tf"]):
            _err(errors, part, "max_tf", f"{t!r}")
        if int(bc.sum()) != len(docs) or len(bc) != int(r["n_blocks"]):
            _err(errors, part, "blk-count", f"{t!r}")
            continue
        starts = np.zeros(len(bc), dtype=np.int64)
        np.cumsum(bc[:-1], out=starts[1:])
        if not np.array_equal(docs[starts], bf):
            _err(errors, part, "blk-first", f"{t!r}")
        if np.any(np.diff(de) < 0) or np.any(np.diff(te) < 0) or (
            len(de) and int(de[-1]) != len(r["doc_bytes"])
        ) or (len(te) and int(te[-1]) != len(r["tf_bytes"])):
            _err(errors, part, "blk-offsets", f"{t!r}: byte ends not consistent")
        blk_max = np.maximum.reduceat(tfs, starts)
        if not np.array_equal(blk_max, np.asarray(r["blk_max_tf"], dtype=np.int64)):
            _err(errors, part, "blk-max-tf", f"{t!r}")
        true_dl = dl[np.searchsorted(doc_ids, docs).clip(0, len(doc_ids) - 1)]
        blk_min_dl = np.minimum.reduceat(true_dl, starts)
        claimed = np.asarray(r["blk_min_dl"], dtype=np.int64)
        # claimed min_dl may be a LOWER bound after merges (offset
        # subsampling keeps the min of merged runs) — exact after compact
        if np.any(claimed > blk_min_dl):
            _err(errors, part, "blk-min-dl", f"{t!r}: claimed min_dl above true min")

    # positional streams (opt-in positions=True builds): docIds
    # NON-strict increasing (tf occurrences repeat the doc), every
    # occurrence position < the doc's true length
    pos_rows = np.array(
        [i for i, t in enumerate(terms) if t.startswith(POS_FIELD)],
        dtype=np.int64,
    )
    for i in pos_rows[: min(sample_terms, len(pos_rows))]:
        r = post.slice(int(i), 1).to_pylist()[0]
        t = r["term"]
        try:
            docs, positions = decode_posting(
                r["doc_bytes"], r["tf_bytes"],
                np.asarray(r["blk_first"]), np.asarray(r["blk_count"]),
            )
        except Exception as ex:
            _err(errors, part, "pos-decode", f"{t!r}: {ex}")
            continue
        if np.any(np.diff(docs) < 0):
            _err(errors, part, "pos-doc-order", f"{t!r}: docIds decrease")
        loc = np.searchsorted(doc_ids, docs).clip(0, len(doc_ids) - 1)
        if not np.all(doc_ids[loc] == docs):
            _err(errors, part, "pos-doc-universe", f"{t!r}")
        elif np.any(positions >= dl[loc]) or np.any(positions < 0):
            _err(errors, part, "pos-bounds", f"{t!r}: position ≥ doc length")

    tombs = read_tombstones(index_dir, part)
    if len(tombs):
        pos = np.searchsorted(doc_ids, tombs).clip(0, len(doc_ids) - 1)
        if not np.all(doc_ids[pos] == tombs):
            _err(errors, part, "tombstones", "tombstoned docId outside universe")
    return {"part": part, "n_terms_checked": int(len(pick)), "errors": errors}


def audit_index(index_dir: str, sample_terms: int = 64) -> dict:
    """Partition-parallel audit: one Ray task per completed partition.
    Returns {"ok": bool, "parts": [...], "n_errors": int}."""
    import ray

    read_global_manifest(index_dir)  # raises on an index of another codec
    parts = completed_parts(index_dir)
    task = ray.remote(num_cpus=1)(audit_partition)
    reports = ray.get(
        [task.remote(index_dir, p, sample_terms) for p in parts]
    )
    n_err = sum(len(r["errors"]) for r in reports)
    return {"ok": n_err == 0, "n_parts": len(parts), "n_errors": n_err,
            "parts": reports}
