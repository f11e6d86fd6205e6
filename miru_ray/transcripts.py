"""Adapters from the driver's sf-dir tables to the engine's input shape.

BASELINE.json's ``input_hint`` mandates the engine's input table shape
``(conv_id:string, turn_idx:int32, role:string, text:string, tool:string,
ts:timestamp)``.  The sf dirs at /root/testdata contain a ``documents``
table ``(doc_id, text, lang, source, n_chars)``; for the driver-checked
queries we derive a transcripts view from it **deterministically** (every
column a pure function of the document row), so the same derivation is
expressible in the DuckDB oracle SQL:

    conv_id  = 'doc-' || lpad(doc_id, 8, '0')   (one doc = one single-turn conv)
    turn_idx = doc_id % 41     (deterministic non-trivial numeric field so the
                                numeric-range term path has a real oracle;
                                conv_id is unique per doc, so (conv_id,
                                turn_idx) order is still doc_id order)
    role     = source          (single-term field analogue of the reference's
                                user/doc singleTerm fields, MiruFullTextNGTest.java:52-60)
    tool     = lang
    ts       = epoch + doc_id seconds

With zero-padded conv ids, stable (conv_id, turn_idx) order == doc_id order,
so with ``n_parts=1`` the engine's dense docId equals ``doc_id`` — which lets
the SQL oracles address documents directly.

``ensure_index`` builds (once, resume-aware) a cached index for a given
sf_dir under /tmp keyed by (sf_dir mtime, n_parts); repeated queries()
callables share it.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

BASE_TS_US = 1_700_000_000_000_000


def docs_to_transcripts(batch: pa.Table) -> pa.Table:
    """documents batch → transcripts-shaped batch (vectorized, deterministic)."""
    doc_id = batch["doc_id"].combine_chunks() if isinstance(batch["doc_id"], pa.ChunkedArray) else batch["doc_id"]
    ids = doc_id.to_numpy(zero_copy_only=False).astype(np.int64)
    # vectorized 'doc-' || lpad(doc_id, 8, '0') — no per-row Python formatting
    conv = pc.binary_join_element_wise(
        pa.scalar("doc-"),
        pc.utf8_lpad(pc.cast(pa.array(ids, type=pa.int64()), pa.string()), 8, "0"),
        "",
    )
    return pa.table(
        {
            "conv_id": conv,
            "turn_idx": pa.array((ids % 41).astype(np.int32), type=pa.int32()),
            "role": pc.cast(batch["source"], pa.string()),
            "text": pc.cast(batch["text"], pa.string()),
            "tool": pc.cast(batch["lang"], pa.string()),
            "ts": pa.array(BASE_TS_US + ids * 1_000_000, type=pa.timestamp("us")),
        }
    )


def conv_to_doc_id(conv_ids: list[str]) -> np.ndarray:
    """Invert the conv_id derivation back to the documents doc_id."""
    return np.array([int(c[4:]) for c in conv_ids], dtype=np.int64)


_INDEX_CACHE: dict[tuple, str] = {}


def ensure_index(
    sf_dir: str, n_parts: int, base: str = "/tmp/miru_ray_idx",
    analyzer: str = "default",
) -> str:
    """Build (once per process+disk) the fulltext index over the derived
    transcripts view of ``sf_dir``; returns the index dir. Ray must be up.
    The view is materialized as globally sorted shards
    (``ensure_transcripts_parquet``) and indexed by ``build_index``, which
    resumes a build a crash cut short."""
    from .build import build_index
    from .segments import INDEX_VERSION

    key = (os.path.abspath(sf_dir), n_parts, analyzer)
    hit = _INDEX_CACHE.get(key)
    if hit:
        return hit
    tag = os.path.abspath(sf_dir).strip("/").replace("/", "_")
    # version in the dir name: a format bump invalidates stale /tmp caches
    # "pos" tag: this cache dir carries the positional streams — older
    # same-version cache dirs without them are simply not reused
    atag = "" if analyzer == "default" else f"_{analyzer}"
    # "pos3": cache generation 3 — built by the streaming build, whose
    # blocks follow the sorted shards' boundaries; older generations were
    # built by a since-removed path and must regenerate
    index_dir = os.path.join(base, f"{tag}_p{n_parts}_v{INDEX_VERSION}pos3{atag}")
    if not os.path.exists(os.path.join(index_dir, "index.json")):  # written last
        # positional streams on: __ray_entry__'s phrase oracles query this
        # shared index; costs ~2x posting bytes at sf0.01 scale
        build_index(ensure_transcripts_parquet(sf_dir), index_dir, n_parts,
                    positions=True, analyzer=analyzer)
    _INDEX_CACHE[key] = index_dir
    return index_dir


def ensure_transcripts_parquet(
    sf_dir: str, n_shards: int = 4, base: str = "/tmp/miru_ray_tx"
) -> str:
    """Materialize the derived transcripts view as globally-sorted parquet
    shards (streaming-build input shape). Cached per sf_dir under /tmp."""
    import pyarrow.parquet as pq

    tag = os.path.abspath(sf_dir).strip("/").replace("/", "_")
    out = os.path.join(base, tag)
    done = os.path.join(out, "_DONE")
    if os.path.exists(done):
        return out
    t = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text", "lang", "source"],
    )
    t = t.take(pc.sort_indices(t, sort_keys=[("doc_id", "ascending")]))
    tx = docs_to_transcripts(t)
    tmp = out + ".tmp"
    if os.path.exists(tmp):
        import shutil

        shutil.rmtree(tmp)
    os.makedirs(tmp, exist_ok=True)
    per = max(1, -(-tx.num_rows // n_shards))
    for s in range(0, n_shards):
        lo = s * per
        if lo >= tx.num_rows:
            break
        pq.write_table(tx.slice(lo, per), os.path.join(tmp, f"shard-{s:05d}.parquet"))
    if os.path.exists(out):
        import shutil

        shutil.rmtree(out)
    os.rename(tmp, out)
    with open(done, "w") as f:
        f.write("ok")
    return out


def ensure_range_index(
    sf_dir: str, n_parts: int = 4, base: str = "/tmp/miru_ray_idx"
) -> str:
    """Range-partitioned (time-segment rollover) index over the derived
    transcripts view — built with the REAL streaming build so the driver
    queries exercise partitioning="range" + the TIME early-exit walk."""
    from .build import build_index
    from .segments import INDEX_VERSION, read_global_manifest

    key = (os.path.abspath(sf_dir), n_parts, "range")
    hit = _INDEX_CACHE.get(key)
    if hit:
        return hit
    tag = os.path.abspath(sf_dir).strip("/").replace("/", "_")
    index_dir = os.path.join(base, f"{tag}_r{n_parts}_v{INDEX_VERSION}")
    src = ensure_transcripts_parquet(sf_dir)
    if not os.path.exists(os.path.join(index_dir, "index.json")):
        build_index(src, index_dir, n_parts=n_parts, partitioning="range")
    else:
        read_global_manifest(index_dir)  # sanity: readable cache
    _INDEX_CACHE[key] = index_dir
    return index_dir
