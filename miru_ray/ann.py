"""Similarity search over an embedding column (`list<float>`).

Brute-force cosine top-k as the exact baseline: the (small) query matrix is
normalized once on the driver and **broadcast via ``ray.put``** — every
map_batches task reads the same object-store copy (never re-shipped per
batch); each batch contributes a numpy-matmul partial top-k, and the driver
merges the tiny partials. This is the canonical "broadcast small side +
per-batch combine" pattern: no shuffle at all, scales linearly with corpus
size on a cluster.

The LSH-bucketed variant (`ann_lsh_topk`) is the scale path: sign-random-
hyperplane codes gate which rows are even compared (multi-probe over the
query codes); recall vs brute force is validated in tests. The IVF-flat
variant (`ann_ivf_topk`) is the other standard gate: rows are assigned to
their nearest coarse centroid and only the query's ``nprobe`` probed cells
are scored. `embed_neardup_pairs_ds` turns the same sign-LSH machinery
into an embedding-cosine near-duplicate detector (banded buckets → exact
within-bucket cosine).

The reference has no vector operator; this extends the engine for
training-data pipelines (embedding near-dup / retrieval).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

from .hashing import splitmix64


def _emb_ds(sf_dir: str):
    import ray.data as rd

    return rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"])


def _to_matrix(batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    ids = batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    col = batch["embedding"].combine_chunks() if isinstance(batch["embedding"], pa.ChunkedArray) else batch["embedding"]
    flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    dim = len(flat) // max(1, len(ids))
    return ids, flat.reshape(len(ids), dim)


def _normalize(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return m / n


def load_queries(sf_dir: str, n_queries: int) -> tuple[np.ndarray, np.ndarray]:
    """Query matrix = the embeddings of vec_id < n_queries (tiny driver-side
    read with row filter pushdown)."""
    import pyarrow.compute as pc
    import pyarrow.dataset as pads

    dset = pads.dataset(os.path.join(sf_dir, "embeddings.parquet"), format="parquet")
    t = dset.to_table(filter=pc.field("vec_id") < n_queries, columns=["vec_id", "embedding"])
    ids, m = _to_matrix(t)
    order = np.argsort(ids)
    return ids[order], m[order]


class BruteTopK:
    """Actor-pool stage: per-batch partial cosine top-k against the broadcast
    query matrix (fetched from the object store ONCE per actor in __init__)."""

    def __init__(self, queries_ref, query_ids, k: int):
        import ray

        q = ray.get(queries_ref) if not isinstance(queries_ref, np.ndarray) else queries_ref
        self.q = _normalize(q)  # (nq, dim)
        self.query_ids = np.asarray(query_ids, dtype=np.int64)
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, m = _to_matrix(batch)
        sims = _normalize(m) @ self.q.T  # (n, nq)
        nq = sims.shape[1]
        k = min(self.k + 1, sims.shape[0])  # +1 headroom for self-match removal
        part = np.argpartition(-sims, k - 1, axis=0)[:k]  # (k, nq)
        rows = []
        for j in range(nq):
            sel = part[:, j]
            rows.append(
                (
                    np.full(len(sel), self.query_ids[j], dtype=np.int64),
                    ids[sel],
                    sims[sel, j],
                )
            )
        q_out = np.concatenate([r[0] for r in rows])
        n_out = np.concatenate([r[1] for r in rows])
        s_out = np.concatenate([r[2] for r in rows])
        return pa.table(
            {
                "q": pa.array(q_out),
                "neighbor": pa.array(n_out),
                "cos": pa.array(s_out, type=pa.float64()),
            }
        )


def _final_topk(parts: pa.Table, k: int, exclude_self: bool) -> pa.Table:
    q = parts["q"].to_numpy(zero_copy_only=False)
    nb = parts["neighbor"].to_numpy(zero_copy_only=False)
    cs = parts["cos"].to_numpy(zero_copy_only=False)
    if exclude_self:
        keep = q != nb
        q, nb, cs = q[keep], nb[keep], cs[keep]
    # per-query exact top-k: sort by (q asc, cos desc, neighbor asc)
    order = np.lexsort((nb, -cs, q))
    q, nb, cs = q[order], nb[order], cs[order]
    starts = np.flatnonzero(np.concatenate([[True], q[1:] != q[:-1]]))
    rank = np.arange(len(q)) - np.repeat(starts, np.diff(np.concatenate([starts, [len(q)]])))
    keep = rank < k
    return pa.table(
        {
            "q": pa.array(q[keep]),
            "neighbor": pa.array(nb[keep]),
            "cos": pa.array(cs[keep], type=pa.float64()),
        }
    )


def _merge_topk_ds(partials, k: int) -> pa.Table:
    """Distributed final merge: a groupby(q) reduce folds every batch's
    partial top-k to the exact per-query top-k BEFORE anything reaches the
    driver — the driver only ever holds the nq×k answer (at 10^5 blocks ×
    10^3 queries the partials would otherwise be a driver choke point)."""
    merged = partials.groupby("q").map_groups(
        lambda g: _final_topk(g, k, exclude_self=True), batch_format="pyarrow"
    )
    rows = merged.take_all()  # answer-sized: nq × k
    if not rows:
        return pa.table(
            {"q": pa.array([], pa.int64()), "neighbor": pa.array([], pa.int64()),
             "cos": pa.array([], pa.float64())}
        )
    # idempotent re-sort for stable (q asc, cos desc, neighbor asc) output
    return _final_topk(pa.Table.from_pylist(rows), k, exclude_self=False)


def ann_brute_topk(
    sf_dir: str, n_queries: int = 8, k: int = 10, query_ids=None
) -> pa.Table:
    """Exact cosine top-k of each query vector over the whole embeddings
    table, excluding the query row itself. Queries are ``vec_id <
    n_queries`` by default, or the explicit ``query_ids`` rows (pushdown
    read; raises on ids without embeddings)."""
    import ray

    if query_ids is not None:
        qids = np.unique(np.asarray(query_ids, dtype=np.int64))
        qm = load_embeddings_for(sf_dir, qids)
    else:
        qids, qm = load_queries(sf_dir, n_queries)
    ref = ray.put(qm)
    partials = _emb_ds(sf_dir).map_batches(
        BruteTopK,
        fn_constructor_kwargs={"queries_ref": ref, "query_ids": qids, "k": k},
        batch_format="pyarrow",
        zero_copy_batch=True,
        concurrency=(1, 2),
    )
    return _merge_topk_ds(partials, k)


# ----------------------------------------------------------------- LSH path


def hyperplanes(dim: int, n_planes: int) -> np.ndarray:
    """Deterministic pseudo-random hyperplanes (counter-based gaussian via
    Box-Muller over splitmix64 streams)."""
    n = dim * n_planes
    idx = np.arange(n, dtype=np.uint64)
    u1 = (splitmix64(idx * np.uint64(2) + np.uint64(7)) >> np.uint64(11)).astype(np.float64) / float(1 << 53)
    u2 = (splitmix64(idx * np.uint64(2) + np.uint64(8)) >> np.uint64(11)).astype(np.float64) / float(1 << 53)
    g = np.sqrt(-2.0 * np.log(np.maximum(u1, 1e-300))) * np.cos(2 * np.pi * u2)
    return g.reshape(n_planes, dim)


def lsh_codes(m: np.ndarray, planes: np.ndarray) -> np.ndarray:
    bits = (m @ planes.T) > 0
    return (bits.astype(np.uint64) << np.arange(planes.shape[0], dtype=np.uint64)[None, :]).sum(
        axis=1, dtype=np.uint64
    )


class LshTopK:
    """Bucketed variant: compare a batch row only if its code is within
    hamming distance ``probe`` of some query code."""

    def __init__(self, queries_ref, query_ids, k: int, n_planes: int, probe: int):
        import ray

        q = ray.get(queries_ref) if not isinstance(queries_ref, np.ndarray) else queries_ref
        self.q = _normalize(q)
        self.query_ids = np.asarray(query_ids, dtype=np.int64)
        self.k = k
        self.planes = hyperplanes(self.q.shape[1], n_planes)
        self.qcodes = lsh_codes(self.q, self.planes)
        self.probe = probe

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, m = _to_matrix(batch)
        mn = _normalize(m)
        codes = lsh_codes(mn, self.planes)
        # hamming distance of each row code to each query code
        x = codes[:, None] ^ self.qcodes[None, :]
        ham = np.bitwise_count(x) if hasattr(np, "bitwise_count") else np.unpackbits(
            x.view(np.uint8).reshape(len(ids), len(self.qcodes), 8), axis=2
        ).sum(axis=2)
        cand = ham <= self.probe  # (n, nq)
        out_q, out_n, out_c = [], [], []
        for j in range(len(self.qcodes)):
            sel = np.flatnonzero(cand[:, j])
            if not len(sel):
                continue
            sims = mn[sel] @ self.q[j]
            k = min(self.k + 1, len(sel))
            top = np.argpartition(-sims, k - 1)[:k]
            out_q.append(np.full(k, self.query_ids[j], dtype=np.int64))
            out_n.append(ids[sel][top])
            out_c.append(sims[top])
        if not out_q:
            return pa.table(
                {"q": pa.array([], pa.int64()), "neighbor": pa.array([], pa.int64()),
                 "cos": pa.array([], pa.float64())}
            )
        return pa.table(
            {
                "q": pa.array(np.concatenate(out_q)),
                "neighbor": pa.array(np.concatenate(out_n)),
                "cos": pa.array(np.concatenate(out_c), type=pa.float64()),
            }
        )


# ------------------------------------------------------------------ IVF path


def load_centroids(sf_dir: str, stride: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic strided coarse quantizer: centroids = the vectors with
    vec_id ≡ 0 (mod stride) — a plain sample, exactly mirrorable in SQL.
    Lloyd refinement (distributed: per-batch partial centroid sums + a tiny
    groupby) plugs in here without touching the probe/assign machinery; the
    sampled quantizer is the value-checked baseline."""
    import pyarrow.compute as pc
    import pyarrow.dataset as pads

    dset = pads.dataset(os.path.join(sf_dir, "embeddings.parquet"), format="parquet")
    # dataset expressions have no modulo: scan the id column alone (column
    # pruning keeps this tiny), then push the centroid id set down as isin
    ids_only = dset.to_table(columns=["vec_id"])["vec_id"].to_numpy()
    want = ids_only[ids_only % stride == 0]
    t = dset.to_table(
        filter=pc.field("vec_id").isin(pa.array(want)), columns=["vec_id", "embedding"]
    )
    ids, m = _to_matrix(t)
    order = np.argsort(ids)
    return ids[order], m[order]


def kmeans_refine(
    sf_dir: str, centroids: np.ndarray, n_iters: int = 2
) -> np.ndarray:
    """Distributed Lloyd refinement of a coarse quantizer: each iteration is
    ONE streaming pass — map_batches emits per-batch partial (centroid →
    vector sum, count) rows (k×dim floats per batch, never vectors), a tiny
    groupby folds them, and the driver holds only the k×dim centroid
    matrix. Deterministic: assignment ties break to the smaller centroid
    index (same rounded-cosine rule as IvfTopK); empty cells keep their old
    centroid. Plugs into ann_ivf_topk via the ``centroids`` override."""
    import ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    cents = _normalize(np.asarray(centroids, dtype=np.float64))
    k, dim = cents.shape
    for _ in range(n_iters):
        ref = ray.put(cents)

        def partial(batch: pa.Table, _ref=ref, _k=k, _dim=dim) -> pa.Table:
            c = ray.get(_ref)
            _, m = _to_matrix(batch)
            mn = _normalize(m)
            assigned = np.argmax(np.round(mn @ c.T, 8), axis=1)
            sums = np.zeros((_k, _dim), dtype=np.float64)
            np.add.at(sums, assigned, mn)
            counts = np.bincount(assigned, minlength=_k).astype(np.int64)
            live = np.flatnonzero(counts)
            cols = {"cid": pa.array(live)}
            for d in range(_dim):
                cols[f"s{d}"] = pa.array(sums[live, d])
            cols["n"] = pa.array(counts[live])
            return pa.table(cols)

        agg = (
            _emb_ds(sf_dir)
            .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
            .groupby("cid")
            .aggregate(*( [Sum(f"s{d}") for d in range(dim)] + [Sum("n")] ))
        )
        new = cents.copy()
        names = agg.schema().names  # [cid, <dim sums>, count] in aggregate order
        for row in agg.take_all():  # ≤ k rows — answer-sized
            cid = int(row[names[0]])
            vec = np.array([row[nm] for nm in names[1 : dim + 1]], dtype=np.float64)
            n = float(row[names[-1]])
            if n > 0:
                new[cid] = vec / n
        cents = _normalize(new)
    return cents


class IvfTopK:
    """IVF-flat stage: each batch row is ASSIGNED to its nearest centroid
    (max cosine, rounded 8dp, tie → smaller centroid id); a row is compared
    against query j only if its centroid is in j's ``nprobe`` probe list.
    Cuts compared rows ~nprobe/n_centroids vs brute force; the centroid and
    query matrices ride the object store once (ray.put)."""

    def __init__(self, queries_ref, query_ids, cents_ref, cent_ids, k: int, nprobe: int):
        import ray

        q = ray.get(queries_ref) if not isinstance(queries_ref, np.ndarray) else queries_ref
        c = ray.get(cents_ref) if not isinstance(cents_ref, np.ndarray) else cents_ref
        self.q = _normalize(q)
        self.query_ids = np.asarray(query_ids, dtype=np.int64)
        self.cents = _normalize(c)
        self.cent_ids = np.asarray(cent_ids, dtype=np.int64)  # ascending
        self.k = k
        # probe set per query: top-nprobe centroids by rounded cosine
        qc = np.round(self.q @ self.cents.T, 8)  # (nq, nc)
        order = np.lexsort((np.broadcast_to(np.arange(qc.shape[1]), qc.shape), -qc))
        self.probe = order[:, :nprobe]  # centroid POSITIONS, not ids

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, m = _to_matrix(batch)
        mn = _normalize(m)
        ac = np.round(mn @ self.cents.T, 8)
        assigned = np.argmax(ac, axis=1)  # first max = smallest centroid id
        out_q, out_n, out_c = [], [], []
        for j in range(len(self.query_ids)):
            sel = np.flatnonzero(np.isin(assigned, self.probe[j]))
            if not len(sel):
                continue
            sims = mn[sel] @ self.q[j]
            k = min(self.k + 1, len(sel))
            top = np.argpartition(-sims, k - 1)[:k]
            out_q.append(np.full(k, self.query_ids[j], dtype=np.int64))
            out_n.append(ids[sel][top])
            out_c.append(sims[top])
        if not out_q:
            return pa.table(
                {"q": pa.array([], pa.int64()), "neighbor": pa.array([], pa.int64()),
                 "cos": pa.array([], pa.float64())}
            )
        return pa.table(
            {
                "q": pa.array(np.concatenate(out_q)),
                "neighbor": pa.array(np.concatenate(out_n)),
                "cos": pa.array(np.concatenate(out_c), type=pa.float64()),
            }
        )


def ann_ivf_topk(
    sf_dir: str, n_queries: int = 8, k: int = 10, stride: int = 31, nprobe: int = 4,
    refine_iters: int = 0,
) -> pa.Table:
    """Approximate cosine top-k via IVF-flat with a strided coarse
    quantizer: only rows whose nearest centroid is among the query's
    ``nprobe`` probed centroids are scored. ``refine_iters`` > 0 runs that
    many distributed Lloyd passes over the corpus first (kmeans_refine) —
    better cells, same probe machinery; the SQL-mirrored driver oracle uses
    0 (the sampled quantizer is the value-checked baseline)."""
    import ray

    qids, qm = load_queries(sf_dir, n_queries)
    cids, cm = load_centroids(sf_dir, stride)
    if refine_iters:
        cm = kmeans_refine(sf_dir, cm, n_iters=refine_iters)
    qref, cref = ray.put(qm), ray.put(cm)
    partials = _emb_ds(sf_dir).map_batches(
        IvfTopK,
        fn_constructor_kwargs={
            "queries_ref": qref, "query_ids": qids, "cents_ref": cref,
            "cent_ids": cids, "k": k, "nprobe": nprobe,
        },
        batch_format="pyarrow",
        zero_copy_batch=True,
        concurrency=(1, 2),
    )
    return _merge_topk_ds(partials, k)


# ------------------------------------------------- product quantization (PQ)
#
# The memory-compression scale path (Jégou et al. 2011, "Product
# Quantization for Nearest Neighbor Search"): each normalized vector is
# encoded as n_sub small codes (nearest per-subspace centroid), so a
# 64-float embedding becomes n_sub bytes-ish of codes and the 100-TB scan
# touches codes, not floats. Query cost is ADC (asymmetric distance
# computation): one (n_sub × ks) lookup table of squared subspace distances
# per query, then score(x) = Σ_m lut[m, code_m(x)] — a pure gather+sum per
# batch. Ranking by ADC ascending over normalized vectors approximates
# cosine descending (‖q−x‖² = 2 − 2·cos on the unit sphere).
#
# Determinism/mirror conventions (shared with the SQL oracle): vectors are
# fp64-normalized; the codebook is the strided sample (load_centroids — the
# ann_ivf convention; pq_refine upgrades it with per-subspace Lloyd passes,
# pytest-checked like kmeans_refine); every subspace distance is
# round(Σ(a−b)², 8) BEFORE any argmin/sum; assignment ties break to the
# smaller centroid id; the final rank is (adc asc, neighbor asc) with adc
# rounded to 6dp in the reported column. Per-batch partials are tie-aware
# (full (score, id) lexsort, first k+1) — PQ scores collide whenever two
# vectors share codes, so an argpartition partial could drop the
# neighbor-asc tie-mate the global answer needs.


def _pq_sub(mat: np.ndarray, m: int, dsub: int) -> np.ndarray:
    return mat[:, m * dsub : (m + 1) * dsub]


def _pq_d2(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """round(Σ(a−b)², 8) for every (row of x) × (row of c) — the explicit
    diff-square form (NOT the x²+c²−2xc expansion) so fp64 drift vs the SQL
    mirror's list_distance² stays below the 8dp rounding."""
    return np.round(((x[:, None, :] - c[None, :, :]) ** 2).sum(axis=2), 8)


def pq_encode(mn: np.ndarray, cb: np.ndarray, n_sub: int) -> np.ndarray:
    """Codes (n, n_sub): per subspace the ordinal of the nearest codebook
    row (rounded d2, tie → smaller ordinal = smaller centroid id)."""
    n, dim = mn.shape
    dsub = dim // n_sub
    codes = np.empty((n, n_sub), dtype=np.int64)
    for m in range(n_sub):
        codes[:, m] = np.argmin(_pq_d2(_pq_sub(mn, m, dsub), _pq_sub(cb, m, dsub)), axis=1)
    return codes


def pq_refine(sf_dir: str, cb: np.ndarray, n_sub: int, n_iters: int = 2) -> np.ndarray:
    """Per-subspace distributed Lloyd refinement of a PQ codebook: each
    iteration is ONE streaming pass — per batch, assign every subspace of
    every vector, emit partial (m·ks + cid → subvector sum, count) rows
    (n_sub·ks·dsub floats per batch), fold with a tiny groupby, recompute
    means on the driver (ks × dim state). Empty cells keep their centroid.
    Same convention as kmeans_refine; the ADC machinery is codebook-source
    agnostic."""
    import ray
    from ray.data.aggregate import Sum

    cb = np.asarray(cb, dtype=np.float64).copy()
    ks, dim = cb.shape
    dsub = dim // n_sub
    for _ in range(n_iters):
        ref = ray.put(cb)

        def partial(batch: pa.Table, _ref=ref, _ks=ks, _dsub=dsub, _n_sub=n_sub) -> pa.Table:
            c = ray.get(_ref)
            _, m = _to_matrix(batch)
            mn = _normalize(m)
            codes = pq_encode(mn, c, _n_sub)
            sums = np.zeros((_n_sub * _ks, _dsub), dtype=np.float64)
            counts = np.zeros(_n_sub * _ks, dtype=np.int64)
            for s in range(_n_sub):
                key = s * _ks + codes[:, s]
                np.add.at(sums, key, _pq_sub(mn, s, _dsub))
                counts += np.bincount(key, minlength=_n_sub * _ks)
            live = np.flatnonzero(counts)
            cols = {"cell": pa.array(live)}
            for d in range(_dsub):
                cols[f"s{d}"] = pa.array(sums[live, d])
            cols["n"] = pa.array(counts[live])
            return pa.table(cols)

        agg = (
            _emb_ds(sf_dir)
            .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
            .groupby("cell")
            .aggregate(*([Sum(f"s{d}") for d in range(dsub)] + [Sum("n")]))
        )
        names = None
        for row in agg.take_all():  # ≤ n_sub·ks rows — answer-sized
            if names is None:
                names = list(row.keys())
            cell = int(row[names[0]])
            n = float(row[names[-1]])
            if n > 0:
                vec = np.array([row[nm] for nm in names[1 : dsub + 1]], dtype=np.float64)
                s, cid = divmod(cell, ks)
                cb[cid, s * dsub : (s + 1) * dsub] = vec / n
    return cb


def pq_distortion(sf_dir: str, cb: np.ndarray, n_sub: int) -> float:
    """Total squared quantization error of a codebook over the corpus (one
    streaming pass; per-batch partial sums)."""
    import ray
    from ray.data.aggregate import Sum

    ref = ray.put(np.asarray(cb, dtype=np.float64))
    ks, dim = cb.shape
    dsub = dim // n_sub

    def partial(batch: pa.Table, _ref=ref, _dsub=dsub, _n_sub=n_sub) -> pa.Table:
        c = ray.get(_ref)
        _, m = _to_matrix(batch)
        mn = _normalize(m)
        err = 0.0
        for s in range(_n_sub):
            x = _pq_sub(mn, s, _dsub)
            cs = _pq_sub(c, s, _dsub)
            d2 = _pq_d2(x, cs)
            err += float(d2.min(axis=1).sum())
        return pa.table({"err": pa.array([err], pa.float64())})

    agg = (
        _emb_ds(sf_dir)
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .aggregate(Sum("err"))
    )
    return float(agg["sum(err)"])


class PqTopK:
    """ADC scan stage: codebook + per-query LUTs built once per actor; each
    batch is encoded (pq_encode) and scored by a gather+sum — no
    full-dimension math per (query, vector) pair. Partials are tie-aware:
    per query the batch's first k+1 rows by (score, neighbor id)."""

    def __init__(self, queries_ref, query_ids, cb_ref, k: int, n_sub: int):
        import ray

        q = ray.get(queries_ref) if not isinstance(queries_ref, np.ndarray) else queries_ref
        cb = ray.get(cb_ref) if not isinstance(cb_ref, np.ndarray) else cb_ref
        self.cb = np.asarray(cb, dtype=np.float64)
        self.query_ids = np.asarray(query_ids, dtype=np.int64)
        self.k = k
        self.n_sub = n_sub
        qn = _normalize(np.asarray(q, dtype=np.float64))
        dsub = qn.shape[1] // n_sub
        # lut[m]: (nq, ks) rounded squared subspace distances
        self.lut = np.stack(
            [_pq_d2(_pq_sub(qn, m, dsub), _pq_sub(self.cb, m, dsub)) for m in range(n_sub)]
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, m = _to_matrix(batch)
        codes = pq_encode(_normalize(m), self.cb, self.n_sub)
        nq = len(self.query_ids)
        scores = np.zeros((nq, len(ids)), dtype=np.float64)
        for s in range(self.n_sub):
            scores += self.lut[s][:, codes[:, s]]
        k = min(self.k + 1, len(ids))
        out_q, out_n, out_s = [], [], []
        for j in range(nq):
            order = np.lexsort((ids, scores[j]))[:k]
            out_q.append(np.full(len(order), self.query_ids[j], dtype=np.int64))
            out_n.append(ids[order])
            out_s.append(scores[j][order])
        return pa.table(
            {
                "q": pa.array(np.concatenate(out_q)),
                "neighbor": pa.array(np.concatenate(out_n)),
                "adc": pa.array(np.concatenate(out_s), type=pa.float64()),
            }
        )


def _final_pq_topk(parts: pa.Table, k: int, exclude_self: bool) -> pa.Table:
    q = parts["q"].to_numpy(zero_copy_only=False)
    nb = parts["neighbor"].to_numpy(zero_copy_only=False)
    sc = parts["adc"].to_numpy(zero_copy_only=False)
    if exclude_self:
        keep = q != nb
        q, nb, sc = q[keep], nb[keep], sc[keep]
    order = np.lexsort((nb, sc, q))  # (q asc, adc asc, neighbor asc)
    q, nb, sc = q[order], nb[order], sc[order]
    starts = np.flatnonzero(np.concatenate([[True], q[1:] != q[:-1]]))
    rank = np.arange(len(q)) - np.repeat(
        starts, np.diff(np.concatenate([starts, [len(q)]]))
    )
    keep = rank < k
    return pa.table(
        {"q": pa.array(q[keep]), "neighbor": pa.array(nb[keep]),
         "adc": pa.array(sc[keep], type=pa.float64())}
    )


def ann_pq_topk(
    sf_dir: str, n_queries: int = 8, k: int = 10, n_sub: int = 8, stride: int = 31,
    refine_iters: int = 0,
) -> pa.Table:
    """Approximate top-k by PQ/ADC (module note): strided codebook
    (optionally Lloyd-refined with ``refine_iters`` streaming passes —
    pytest-checked; the SQL-mirrored driver oracle uses 0), distributed
    encode+gather scan, tie-aware partial top-k, groupby(q) reduce. Returns
    (q, neighbor, adc) with adc rounded to 6dp, rank (adc asc, neighbor
    asc), self excluded."""
    import ray

    qids, qm = load_queries(sf_dir, n_queries)
    _, cb = load_centroids(sf_dir, stride)
    cb = _normalize(cb)
    if refine_iters:
        cb = pq_refine(sf_dir, cb, n_sub, n_iters=refine_iters)
    qref, cref = ray.put(qm), ray.put(cb)
    partials = _emb_ds(sf_dir).map_batches(
        PqTopK,
        fn_constructor_kwargs={
            "queries_ref": qref, "query_ids": qids, "cb_ref": cref,
            "k": k, "n_sub": n_sub,
        },
        batch_format="pyarrow",
        zero_copy_batch=True,
        concurrency=(1, 2),
    )
    merged = partials.groupby("q").map_groups(
        lambda g: _final_pq_topk(g, k, exclude_self=True), batch_format="pyarrow"
    )
    rows = merged.take_all()  # answer-sized: nq × k
    if not rows:
        return pa.table(
            {"q": pa.array([], pa.int64()), "neighbor": pa.array([], pa.int64()),
             "adc": pa.array([], pa.float64())}
        )
    t = _final_pq_topk(pa.Table.from_pylist(rows), k, exclude_self=False)
    return pa.table(
        {"q": t["q"], "neighbor": t["neighbor"],
         "adc": pa.array(np.round(t["adc"].to_numpy(zero_copy_only=False), 6))}
    )


# -------------------------------------------------- embedding-cosine near-dup


class EmbedLshStage:
    """Near-dup stage 1: per batch, each vector's sign code under every
    band's plane set → one output row per (band, row): (band, code, vec_id,
    embedding). The embedding rides to the bucket stage so exact cosines
    are computed WITHIN the bucket — the shuffle payload is bands × vector,
    the standard LSH near-dup trade (dedup data never crosses the driver)."""

    def __init__(self, dim: int, bands: int, planes_per_band: int):
        self.bands = bands
        self.ppb = planes_per_band
        self.planes = hyperplanes(dim, bands * planes_per_band)

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, m = _to_matrix(batch)
        n = len(ids)
        bits = (m @ self.planes.T) > 0  # (n, bands*ppb); sign is scale-invariant
        weights = (np.uint64(1) << np.arange(self.ppb, dtype=np.uint64))
        out_band = np.repeat(np.arange(self.bands, dtype=np.int64), n)
        out_code = np.empty(self.bands * n, dtype=np.int64)
        for b in range(self.bands):
            chunk = bits[:, b * self.ppb : (b + 1) * self.ppb].astype(np.uint64)
            out_code[b * n : (b + 1) * n] = (chunk * weights[None, :]).sum(axis=1).astype(np.int64)
        emb = batch["embedding"].combine_chunks() if isinstance(batch["embedding"], pa.ChunkedArray) else batch["embedding"]
        idx = pa.array(np.tile(np.arange(n, dtype=np.int64), self.bands))
        return pa.table(
            {
                "band": pa.array(out_band),
                "code": pa.array(out_code),
                "vec_id": pa.array(np.tile(ids, self.bands)),
                "embedding": emb.take(idx),
            }
        )


def _embed_bucket_pairs(group: pa.Table, threshold: float, max_bucket: int) -> pa.Table:
    """Within one (band, code) bucket: exact pairwise cosine over the first
    ``max_bucket`` members (vec_id ascending — mirrored in the SQL oracle),
    emit pairs with 4-decimal-rounded cosine ≥ threshold."""
    empty = pa.schema(
        [("a", pa.int64()), ("b", pa.int64()), ("cos", pa.float64())]
    ).empty_table()
    if group.num_rows < 2:
        return empty
    ids, m = _to_matrix(group)
    order = np.argsort(ids, kind="stable")[:max_bucket]
    ids, m = ids[order], m[order]
    mn = _normalize(m)
    sims = np.round(mn @ mn.T, 4)
    ai, bi = np.triu_indices(len(ids), k=1)
    keep = sims[ai, bi] >= threshold
    if not keep.any():
        return empty
    return pa.table(
        {
            "a": pa.array(ids[ai[keep]]),
            "b": pa.array(ids[bi[keep]]),
            "cos": pa.array(sims[ai[keep], bi[keep]], type=pa.float64()),
        }
    )


def embed_neardup_pairs_ds(
    sf_dir: str,
    threshold: float = 0.4,
    bands: int = 8,
    planes_per_band: int = 4,
    max_bucket: int = 256,
    dim: int = 64,
):
    """Embedding-cosine near-duplicate pairs ≥ ``threshold``.

    LSH-banded: two vectors are compared iff some band gives them the same
    sign code (recall at cosine c is 1-(1-p^P)^B with p = 1-acos(c)/π;
    grow ``planes_per_band`` with log n to keep buckets bounded at corpus
    scale). Pipeline: EmbedLshStage map_batches → groupby(band, code)
    bucket pair emission → groupby(a, b) max-dedup across bands. The full
    chain is deterministic (splitmix64-seeded planes) and mirrored end to
    end in the SQL oracle."""
    from ray.data.aggregate import Max

    rows = _emb_ds(sf_dir).map_batches(
        EmbedLshStage,
        fn_constructor_kwargs={"dim": dim, "bands": bands, "planes_per_band": planes_per_band},
        batch_format="pyarrow",
        zero_copy_batch=True,
        concurrency=(1, 2),
    )
    pairs = rows.groupby(["band", "code"]).map_groups(
        lambda g: _embed_bucket_pairs(g, threshold, max_bucket), batch_format="pyarrow"
    )
    out = pairs.groupby(["a", "b"]).aggregate(Max("cos"))
    empty = pa.schema(
        [("a", pa.int64()), ("b", pa.int64()), ("cos", pa.float64())]
    ).empty_table()
    return out.map_batches(
        # zero-candidate inputs reach here schemaless (Ray hash aggregate)
        lambda b: b.rename_columns(["a", "b", "cos"]) if len(b.schema) == 3 else empty,
        batch_format="pyarrow",
    )


def ann_lsh_topk(
    sf_dir: str, n_queries: int = 8, k: int = 10, n_planes: int = 12, probe: int = 4
) -> pa.Table:
    """Approximate cosine top-k via sign-LSH candidate gating."""
    import ray

    qids, qm = load_queries(sf_dir, n_queries)
    ref = ray.put(qm)
    partials = _emb_ds(sf_dir).map_batches(
        LshTopK,
        fn_constructor_kwargs={
            "queries_ref": ref, "query_ids": qids, "k": k,
            "n_planes": n_planes, "probe": probe,
        },
        batch_format="pyarrow",
        zero_copy_batch=True,
        concurrency=(1, 2),
    )
    return _merge_topk_ds(partials, k)


# ------------------------------------------------ MMR diversified reranking

MMR_LAMBDA = 0.7
# the diversity weight is an INDEPENDENT literal, not 1-λ: python's
# 1 - 0.7 = 0.30000000000000004 while a SQL oracle writes 0.3 — both sides
# must multiply by the same double for selection parity
MMR_MU = 0.3


def load_embeddings_for(sf_dir: str, ids: np.ndarray) -> np.ndarray:
    """Embedding rows for an answer-sized id set, in the order of ``ids``
    (row-filter pushdown read — only the candidate rows leave the file)."""
    import pyarrow.compute as pc
    import pyarrow.dataset as pads

    dset = pads.dataset(os.path.join(sf_dir, "embeddings.parquet"), format="parquet")
    t = dset.to_table(
        columns=["vec_id", "embedding"],
        filter=pc.field("vec_id").isin([int(i) for i in ids]),
    )
    vid, m = _to_matrix(t)
    want = np.asarray(ids, dtype=np.int64)
    order = np.argsort(vid)
    ss = np.searchsorted(vid[order], want)
    if len(order) == 0 or ss.max(initial=-1) >= len(order) or not np.array_equal(
        vid[order][np.minimum(ss, len(order) - 1)], want
    ):
        missing = set(want.tolist()) - set(vid.tolist())
        raise KeyError(
            f"embeddings missing for candidate ids (e.g. {sorted(missing)[:5]}) — "
            "the embedding table must cover every candidate doc"
        )
    return m[order[ss]]


def mmr_select(
    ids: np.ndarray,
    rel: np.ndarray,
    vecs: np.ndarray,
    k: int,
    lam: float = MMR_LAMBDA,
    mu: float = MMR_MU,
) -> np.ndarray:
    """Greedy maximal-marginal-relevance selection (Carbonell & Goldstein
    1998): repeatedly pick argmax(λ·rel − μ·max_cosine_to_selected) among
    the remaining candidates. Returns positions into ``ids`` in selection
    order. Deterministic contract (mirrored in the ft_mmr SQL oracle):
    relevance rounded to 1e-6, pairwise cosine rounded to 1e-4 (the
    ann_topk fp32 drift-absorption convention), fp64 score arithmetic,
    ties → larger id. O(n²) sims + O(k·n) selection on an answer-sized
    candidate set — strictly driver-side; the corpus-scale work is the
    relevance search that produced the candidates."""
    ids = np.asarray(ids, dtype=np.int64)
    n = len(ids)
    k = min(k, n)
    v = _normalize(vecs.astype(np.float64))
    sims = np.round(v @ v.T, 4)
    r = np.round(np.asarray(rel, dtype=np.float64), 6)
    # the diversity term is the TRUE max cosine over the selected set —
    # it can be negative, so it must start from the first pick's column,
    # not from zero (a zero floor would erase anti-correlated candidates'
    # diversity bonus); with nothing selected the term is absent (stage 1
    # ranks by λ·rel alone)
    maxsim: np.ndarray | None = None
    avail = np.ones(n, dtype=bool)
    picked: list[int] = []
    for _ in range(k):
        mmr = lam * r if maxsim is None else lam * r - mu * maxsim
        mmr[~avail] = -np.inf
        best = np.lexsort((-ids, -mmr))[0]
        picked.append(int(best))
        avail[best] = False
        col = sims[:, best]
        maxsim = col.copy() if maxsim is None else np.maximum(maxsim, col)
    return np.asarray(picked, dtype=np.int64)


def mmr_rerank_docs(
    sf_dir: str,
    terms: tuple[str, ...],
    k: int = 5,
    n_candidates: int = 20,
    lam: float = MMR_LAMBDA,
    mu: float = MMR_MU,
) -> pa.Table:
    """Diversified top-k over the documents corpus: BM25 AND-query
    candidates (fp64, the ft_topk_bm25 expression order —
    FullText.java:99-220's scorer shape with Robertson idf), then greedy
    MMR against the documents' embedding vectors. Returns (doc_id, score
    = the BM25 relevance rounded 1e-6, rank = 1-based selection order)."""
    from .hybrid import bm25_candidates

    cand_ids, cand_rel = bm25_candidates(sf_dir, terms, n_candidates)
    vecs = load_embeddings_for(sf_dir, cand_ids)
    sel = mmr_select(cand_ids, cand_rel, vecs, k, lam=lam, mu=mu)
    return pa.table(
        {
            "doc_id": pa.array(cand_ids[sel], type=pa.int64()),
            "score": pa.array(np.round(cand_rel[sel], 6), type=pa.float64()),
            "rank": pa.array(np.arange(1, len(sel) + 1, dtype=np.int64)),
        }
    )


# -------------------------------------------------------- kNN classification


def _rounded_rerank(t: pa.Table, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-query top-k on 4-decimal-rounded cosine (tie → neighbor asc) —
    the ann_topk drift-absorption convention, so an fp64 SQL mirror selects
    the identical neighbor sets. Returns (q, neighbor) arrays."""
    cs = np.round(t["cos"].to_numpy(zero_copy_only=False), 4)
    q = t["q"].to_numpy(zero_copy_only=False)
    nb = t["neighbor"].to_numpy(zero_copy_only=False)
    order = np.lexsort((nb, -cs, q))
    q, nb = q[order], nb[order]
    starts = np.flatnonzero(np.concatenate([[True], q[1:] != q[:-1]]))
    rank = np.arange(len(q)) - np.repeat(
        starts, np.diff(np.concatenate([starts, [len(q)]]))
    )
    keep = rank < k
    return q[keep], nb[keep]


def load_labels_for(sf_dir: str, ids: np.ndarray) -> np.ndarray:
    """Labels for an answer-sized id set, aligned with ``ids`` (row-filter
    pushdown read — only the neighbor rows leave the file)."""
    import pyarrow.compute as pc
    import pyarrow.dataset as pads

    dset = pads.dataset(os.path.join(sf_dir, "embeddings.parquet"), format="parquet")
    t = dset.to_table(
        columns=["vec_id", "label"],
        filter=pc.field("vec_id").isin([int(i) for i in np.unique(ids)]),
    )
    vid = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    lab = t["label"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(vid)
    want = np.asarray(ids, dtype=np.int64)
    ss = np.searchsorted(vid[order], want)
    if len(order) == 0 or not np.array_equal(
        vid[order][np.minimum(ss, len(order) - 1)], want
    ):
        missing = set(want.tolist()) - set(vid.tolist())
        raise KeyError(
            f"labels missing for neighbor ids (e.g. {sorted(missing)[:5]})"
        )
    return lab[order[ss]]


def knn_classify(sf_dir: str, n_queries: int = 8, k: int = 10) -> pa.Table:
    """kNN majority-vote label prediction for each query vector (vec_id <
    n_queries): exact brute cosine top-k over the whole embeddings table
    (the distributed ann_brute_topk machinery — ray.put broadcast query
    matrix, per-batch partial top-k, groupby(q) reduce), neighbors fixed by
    the 4-dp rounded rerank, then the majority label among the k neighbors
    (tie → votes desc, label asc). The vote is answer-sized driver work
    (nq×k rows); neighbor labels arrive via one pushdown read. Returns
    (q, pred_label, votes).

    The weak-labeling / label-propagation primitive of a training-data
    pipeline: the corpus-scale cost is the brute scan, identical to
    ann_topk's."""
    t = ann_brute_topk(sf_dir, n_queries=n_queries, k=k)
    q, nb = _rounded_rerank(t, k)
    lab = load_labels_for(sf_dir, nb)
    # vote: count (q, label) pairs, pick per q by (votes desc, label asc)
    key = q * 1_000_003 + lab  # labels are small ints; collision-free pairing
    uk, counts = np.unique(key, return_counts=True)
    uq, ul = uk // 1_000_003, uk % 1_000_003
    order = np.lexsort((ul, -counts, uq))
    uq, ul, counts = uq[order], ul[order], counts[order]
    first = np.flatnonzero(np.concatenate([[True], uq[1:] != uq[:-1]]))
    return pa.table(
        {
            "q": pa.array(uq[first], type=pa.int64()),
            "pred_label": pa.array(ul[first], type=pa.int64()),
            "votes": pa.array(counts[first].astype(np.int64), type=pa.int64()),
        }
    )


class HardNegTopK:
    """Actor-pool stage for hard-negative mining: per-batch partial cosine
    top-k restricted to OPPOSITE-label rows. Same-label candidates are
    masked to a -2 sentinel BEFORE the partial select (cosine ∈ [-1, 1], so
    the sentinel can never win), which keeps the partial-topk → groupby(q)
    merge chain exact for the label-filtered answer — a post-hoc filter on
    an unfiltered top-k would MISS negatives pushed out by same-label rows.
    Query matrix + labels fetched from the object store once per actor."""

    def __init__(self, queries_ref, query_ids, query_labels, k: int):
        import ray

        q = ray.get(queries_ref) if not isinstance(queries_ref, np.ndarray) else queries_ref
        self.q = _normalize(q)
        self.query_ids = np.asarray(query_ids, dtype=np.int64)
        self.query_labels = np.asarray(query_labels, dtype=np.int64)
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, m = _to_matrix(batch)
        labels = batch["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        sims = _normalize(m) @ self.q.T  # (n, nq)
        sims[labels[:, None] == self.query_labels[None, :]] = -2.0
        nq = sims.shape[1]
        k = min(self.k, sims.shape[0])
        part = np.argpartition(-sims, k - 1, axis=0)[:k]  # (k, nq)
        rows = []
        for j in range(nq):
            sel = part[:, j]
            sel = sel[sims[sel, j] > -1.5]  # drop masked sentinels
            rows.append(
                (
                    np.full(len(sel), self.query_ids[j], dtype=np.int64),
                    ids[sel],
                    sims[sel, j],
                )
            )
        return pa.table(
            {
                "q": pa.array(np.concatenate([r[0] for r in rows])),
                "neighbor": pa.array(np.concatenate([r[1] for r in rows])),
                "cos": pa.array(np.concatenate([r[2] for r in rows]), type=pa.float64()),
            }
        )


def hard_negatives(sf_dir: str, n_queries: int = 8, k: int = 10) -> pa.Table:
    """Hard-negative mining for contrastive training (the DPR / sentence-
    transformers data-prep primitive): for each query vector (vec_id <
    n_queries), the k nearest vectors by rounded cosine whose label DIFFERS
    from the query's. Exact: the label mask is applied inside the
    distributed scan (HardNegTopK note), then the standard groupby(q)
    reduce and the 4-dp rounded rerank fix the neighbor set; negative
    labels arrive via one pushdown read. Returns
    (q, neighbor, neg_label, cos) — answer-sized (nq×k)."""
    import os as _os

    import ray
    import ray.data as rd

    qids, qm = load_queries(sf_dir, n_queries)
    qlab = load_labels_for(sf_dir, qids)
    ref = ray.put(qm)
    partials = rd.read_parquet(
        _os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding", "label"],
    ).map_batches(
        HardNegTopK,
        fn_constructor_kwargs={
            "queries_ref": ref, "query_ids": qids, "query_labels": qlab, "k": k,
        },
        batch_format="pyarrow",
        zero_copy_batch=True,
        concurrency=(1, 2),
    )
    t = _merge_topk_ds(partials, k)
    cs = np.round(t["cos"].to_numpy(zero_copy_only=False), 4)
    q = t["q"].to_numpy(zero_copy_only=False)
    nb = t["neighbor"].to_numpy(zero_copy_only=False)
    order = np.lexsort((nb, -cs, q))
    q, nb, cs = q[order], nb[order], cs[order]
    starts = np.flatnonzero(np.concatenate([[True], q[1:] != q[:-1]]))
    rank = np.arange(len(q)) - np.repeat(
        starts, np.diff(np.concatenate([starts, [len(q)]]))
    )
    keep = rank < k
    q, nb, cs = q[keep], nb[keep], cs[keep]
    neg_lab = load_labels_for(sf_dir, nb) if len(nb) else np.empty(0, np.int64)
    return pa.table(
        {
            "q": pa.array(q, type=pa.int64()),
            "neighbor": pa.array(nb, type=pa.int64()),
            "neg_label": pa.array(neg_lab, type=pa.int64()),
            "cos": pa.array(cs, type=pa.float64()),
        }
    )


def label_centroids(sf_dir: str, dim: int = 64) -> tuple[np.ndarray, np.ndarray]:
    """Per-label mean embedding (Rocchio prototype) via ONE streaming pass:
    per-batch partial (label → raw-vector sum, count) rows, a tiny
    groupby(label) fold, and a labels×dim driver matrix. Raw (unnormalized)
    fp64 sums — the SQL-mirrorable definition of a centroid."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table, _dim=dim) -> pa.Table:
        lab = batch["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        col = (
            batch["embedding"].combine_chunks()
            if isinstance(batch["embedding"], pa.ChunkedArray)
            else batch["embedding"]
        )
        flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
        m = flat.reshape(len(lab), _dim)
        ulab, inv = np.unique(lab, return_inverse=True)
        sums = np.zeros((len(ulab), _dim), dtype=np.float64)
        np.add.at(sums, inv, m)
        counts = np.bincount(inv, minlength=len(ulab)).astype(np.int64)
        cols = {"label": pa.array(ulab)}
        for d in range(_dim):
            cols[f"s{d}"] = pa.array(sums[:, d])
        cols["n"] = pa.array(counts)
        return pa.table(cols)

    import ray.data as rd

    ds = rd.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"), columns=["label", "embedding"]
    ).map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    agg = ds.groupby("label").aggregate(*([Sum(f"s{d}") for d in range(dim)] + [Sum("n")]))
    rows = agg.take_all()  # ≤ n_labels — answer-sized
    names = agg.schema().names
    labels = np.array(sorted(int(r[names[0]]) for r in rows), dtype=np.int64)
    cents = np.zeros((len(labels), dim), dtype=np.float64)
    pos = {int(l): i for i, l in enumerate(labels)}
    for r in rows:
        vec = np.array([r[nm] for nm in names[1 : dim + 1]], dtype=np.float64)
        cents[pos[int(r[names[0]])]] = vec / float(r[names[-1]])
    return labels, cents


def centroid_classify(sf_dir: str, n_queries: int = 8, dim: int = 64) -> pa.Table:
    """Nearest-centroid (Rocchio) label prediction for each query vector
    (vec_id < n_queries): per-label mean embedding from the distributed
    partial-sum pass, then argmax cosine to a centroid (rounded 4 dp, tie →
    label asc). Returns (q, pred_label, cos). Complements knn_classify —
    one prototype per class instead of k votes; the corpus-scale cost is
    one streaming pass emitting labels×dim partials per batch."""
    labels, cents = label_centroids(sf_dir, dim=dim)
    qids, qm = load_queries(sf_dir, n_queries)
    cn = np.linalg.norm(cents, axis=1)
    qn = np.linalg.norm(qm, axis=1)
    denom = np.outer(qn, cn)
    denom[denom == 0] = 1.0
    cos = np.round((qm @ cents.T) / denom, 4)
    best = np.zeros(len(qids), dtype=np.int64)
    for i in range(len(qids)):  # nq rows — answer-sized
        order = np.lexsort((labels, -cos[i]))
        best[i] = order[0]
    return pa.table(
        {
            "q": pa.array(qids, type=pa.int64()),
            "pred_label": pa.array(labels[best], type=pa.int64()),
            "cos": pa.array(cos[np.arange(len(qids)), best], type=pa.float64()),
        }
    )


# ------------------------------------------------------- semantic dedup


def semdedup_ds(sf_dir: str, stride: int = 31, threshold: float = 0.35,
                dim: int = 64):
    """SemDeDup-style semantic deduplication (Abbas et al. 2023, "SemDeDup:
    Data-efficient learning at web-scale through semantic deduplication"):
    assign every vector to its nearest coarse centroid (the ann_ivf
    assignment convention — rounded-8dp cosine, tie → smaller centroid id),
    then within each cluster drop any vector that has a SMALLER-id neighbor
    at cosine ≥ ``threshold`` (one survivor per ε-ball, deterministic
    keeper). Returns (vec_id, cluster, keep).

    Scale shape: the centroid matrix broadcasts via ray.put; assignment is
    one streaming pass; the within-cluster pairwise runs inside a
    groupby(cluster) — embeddings DO ride that exchange (pairwise cosine
    needs them co-located; that is SemDeDup's honest cost) but each group
    is corpus/k sized, and k grows with the corpus. O(cluster²) sims per
    group, never a global all-pairs."""
    import ray
    import ray.data as rd

    cent_ids, cents = load_centroids(sf_dir, stride)
    cn = _normalize(cents)
    ref = ray.put((cent_ids.astype(np.int64), cn))

    def assign(batch: pa.Table, _ref=ref) -> pa.Table:
        cids, c = ray.get(_ref)
        ids, m = _to_matrix(batch)
        mn = _normalize(m)
        best = np.argmax(np.round(mn @ c.T, 8), axis=1)  # ties → first = smaller cid
        return batch.append_column("cluster", pa.array(cids[best], type=pa.int64()))

    def dedup_group(g: pa.Table, _t=threshold) -> pa.Table:
        ids, m = _to_matrix(g)
        order = np.argsort(ids)
        ids, m = ids[order], m[order]
        mn = _normalize(m)
        sims = np.round(mn @ mn.T, 4)
        dup = (np.triu(sims >= _t, k=1)).any(axis=0)  # j dropped if any i<j close
        cl = g["cluster"][0].as_py()
        return pa.table(
            {
                "vec_id": pa.array(ids, type=pa.int64()),
                "cluster": pa.array(np.full(len(ids), cl, dtype=np.int64)),
                "keep": pa.array(~dup),
            }
        )

    ds = rd.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"]
    ).map_batches(assign, batch_format="pyarrow", zero_copy_batch=True)
    return ds.groupby("cluster").map_groups(dedup_group, batch_format="pyarrow")


# ------------------------------------------------------- JL random projection


class JlProject:
    """Actor-pool stage: Johnson–Lindenstrauss gaussian projection of each
    embedding row against the deterministic plane matrix (built once per
    actor in __init__ from the ann_lsh splitmix64/Box–Muller chain)."""

    def __init__(self, dim: int, out_dim: int):
        self.planes = hyperplanes(dim, out_dim)  # (out_dim, dim) fp64
        self.scale = float(np.sqrt(out_dim))

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, m = _to_matrix(batch)
        proj = (m @ self.planes.T) / self.scale  # fp64 end to end
        k = proj.shape[1]
        return pa.table(
            {
                "vec_id": pa.array(np.repeat(ids, k), pa.int64()),
                "dim": pa.array(np.tile(np.arange(k, dtype=np.int64), len(ids))),
                "value": pa.array(np.round(proj.reshape(-1), 4), pa.float64()),
            }
        )


def jl_project_ds(sf_dir: str, out_dim: int = 16, dim: int = 64):
    """(vec_id, dim, value): every embedding projected to ``out_dim``
    gaussian random dimensions (Johnson & Lindenstrauss 1984) — the
    dimensionality-reduction preprocessing step for billion-vector ANN
    (distance distortion 1±ε with out_dim = O(ln n / ε²); pytest gates the
    realized distortion). The projection matrix is the deterministic
    hyperplane chain ann_lsh already mirrors in SQL, scaled 1/√out_dim;
    values are fp64, rounded 4dp (the ann cosine precedent). One stateless
    actor-pool pass; output is long-form (n·out_dim rows), no shuffle."""
    return _emb_ds(sf_dir).map_batches(
        JlProject,
        fn_constructor_kwargs={"dim": dim, "out_dim": out_dim},
        batch_format="pyarrow",
        zero_copy_batch=True,
        concurrency=(1, 4),
    )
