"""Collaborative-filtering recommendation (the reference's reco plugin).

Re-expresses ``CollaborativeFiltering.collaborativeFiltering``
(miru-reco-plugins/.../reco/CollaborativeFiltering.java:58-213; exercised by
miru-reco-plugins-test/.../MiruRecoCollaborativeFilteringTest) — "I have
viewed these things; among others who have also viewed these things, what
have they viewed that I have not?" — as two Ray-native operators:

1. ``reco_cf_ds`` — the corpus-scale Ray Data pipeline over the ``events``
   table (user = user_id, item = the numeric payload in ``props``):

     hop 1  my distinct items          (tiny: one user's history → broadcast)
     hop 2  contributors = top-N other users by # of ok events on my items
            (per-batch partial counts → one small groupby(user) → heap)
     hop 3  contributors' distinct items, minus mine, each scored by the
            contributor's hop-2 count; groupby(item).sum → top-N

   The only shuffles carry (user, partial-count) and deduped (item, user,
   cnt) triples — never raw events. My-item set and the contributor table
   are driver-small by construction (one user's history / N contributors)
   and travel to tasks as broadcast constants, the Ray analogue of the
   reference's in-process term sets (distinctParents /
   contributorTermIds).

2. ``reco_cf_index`` — the bitmap-algebra variant over the built index,
   the same and/andNot/orMultiTx + gather chain the reference runs per
   partition (CollaborativeFiltering.java:88-213), merged across
   partitions by summing counts per item and truncating to N
   (RecoAnswerMerger.java:34-87).

Determinism note: the reference's MinMaxPriorityQueue breaks count ties
arbitrarily; we fix (count desc, term asc) so results are reproducible and
SQL-checkable.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

OK_EXCLUDE_TYPE = "error"  # events ok-filter: everything but errors


def _items_from_props(props: pa.ChunkedArray | pa.Array) -> pa.Array:
    """The numeric payload of ``props`` ('{"k": 87}' → 87) — the item id.
    Mirrored in SQL as CAST(regexp_replace(props, '[^0-9]', '', 'g') AS
    BIGINT)."""
    if isinstance(props, pa.ChunkedArray):
        props = props.combine_chunks()
    digits = pc.replace_substring_regex(props, "[^0-9]", "")
    return pc.cast(pc.if_else(pc.equal(digits, ""), None, digits), pa.int64())


def _ok_events(batch: pa.Table) -> pa.Table:
    keep = pc.not_equal(batch["event_type"], OK_EXCLUDE_TYPE)
    t = batch.filter(keep)
    return pa.table(
        {
            "user_id": pc.cast(t["user_id"], pa.int64()),
            "item": _items_from_props(t["props"]),
        }
    )


def reco_cf_ds(sf_dir: str, user_id: int, k: int = 10):
    """Collaborative filtering for ``user_id`` over sf_dir/events.

    Returns a pa.Table (item:int64, score:int64) of the top-k recommended
    items: items the user has NOT touched, scored by Σ over the top-k
    contributor users (ranked by # of their ok events on the user's items)
    of that contributor's hop-2 count. Ties broken (score desc, item asc)
    — the deterministic version of the reference's heap order."""
    import ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    path = os.path.join(sf_dir, "events.parquet")
    cols = ["user_id", "event_type", "props"]

    ev = rd.read_parquet(path, columns=cols).map_batches(
        _ok_events, batch_format="pyarrow", zero_copy_batch=True
    )

    # hop 1: my distinct items (one user's history — bounded, driver-small;
    # the reference's distinctParents set, CollaborativeFiltering.java:92-108)
    my_rows = ev.filter(expr=f"user_id == {int(user_id)}").take_all()
    my_items = sorted({int(r["item"]) for r in my_rows if r["item"] is not None})
    if not my_items:
        return pa.table({"item": pa.array([], pa.int64()), "score": pa.array([], pa.int64())})
    my_items_ref = ray.put(np.asarray(my_items, dtype=np.int64))

    # hop 2: contributors — other users' ok events on my items, counted.
    # Per-batch partial count per user before the (tiny) groupby exchange.
    def contrib_partial(batch: pa.Table) -> pa.Table:
        mine = ray.get(my_items_ref)
        items = batch["item"].to_numpy(zero_copy_only=False)
        users = batch["user_id"].to_numpy(zero_copy_only=False)
        valid = ~pa.compute.is_null(batch["item"]).to_numpy(zero_copy_only=False)
        hit = valid & np.isin(items, mine) & (users != int(user_id))
        u = users[hit]
        uniq, counts = np.unique(u, return_counts=True)
        return pa.table({"user_id": pa.array(uniq, pa.int64()), "n": pa.array(counts.astype(np.int64))})

    contrib = (
        ev.map_batches(contrib_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("user_id")
        .aggregate(Sum("n"))
        .take_all()
    )  # ≤ #users rows — the contributor heap input
    contrib.sort(key=lambda r: (-int(r["sum(n)"]), int(r["user_id"])))
    top_contrib = {int(r["user_id"]): int(r["sum(n)"]) for r in contrib[:k]}
    if not top_contrib:
        return pa.table({"item": pa.array([], pa.int64()), "score": pa.array([], pa.int64())})
    contrib_ref = ray.put(top_contrib)

    # hop 3: contributors' distinct items minus mine, scored by contributor
    # count (set semantics per (contributor, item) — scoredParents,
    # CollaborativeFiltering.java:180-213). Batches emit deduped (item,
    # user, cnt); a groupby max dedupes globally, then groupby(item).sum.
    def cand_partial(batch: pa.Table) -> pa.Table:
        cmap = ray.get(contrib_ref)
        mine = ray.get(my_items_ref)
        users = batch["user_id"].to_numpy(zero_copy_only=False)
        items = batch["item"].to_numpy(zero_copy_only=False)
        valid = ~pa.compute.is_null(batch["item"]).to_numpy(zero_copy_only=False)
        cu = np.asarray(sorted(cmap), dtype=np.int64)
        hit = valid & np.isin(users, cu) & ~np.isin(items, mine)
        if not hit.any():
            return pa.table(
                {"item": pa.array([], pa.int64()), "user_id": pa.array([], pa.int64()),
                 "cnt": pa.array([], pa.int64())}
            )
        pairs = np.unique(np.stack([items[hit], users[hit]], axis=1), axis=0)
        cnts = np.asarray([cmap[int(u)] for u in pairs[:, 1]], dtype=np.int64)
        return pa.table(
            {"item": pa.array(pairs[:, 0], pa.int64()),
             "user_id": pa.array(pairs[:, 1], pa.int64()),
             "cnt": pa.array(cnts)}
        )

    from ray.data.aggregate import Max

    pairs = (
        ev.map_batches(cand_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["item", "user_id"])
        .aggregate(Max("cnt"))
    )
    scored = (
        pairs.map_batches(
            lambda b: pa.table({"item": b["item"], "cnt": pc.cast(b[b.schema.names[-1]], pa.int64())}),
            batch_format="pyarrow",
        )
        .groupby("item")
        .aggregate(Sum("cnt"))
        .take_all()
    )  # ≤ #items rows
    scored.sort(key=lambda r: (-int(r["sum(cnt)"]), int(r["item"])))
    top = scored[:k]
    return pa.table(
        {
            "item": pa.array([int(r["item"]) for r in top], pa.int64()),
            "score": pa.array([int(r["sum(cnt)"]) for r in top], pa.int64()),
        }
    )


# ------------------------------------------------- index-backed variant


def reco_cf_partition(
    index_dir: str,
    part: int,
    user_conv: str,
    k: int,
    item_prefix: str = "",
) -> list[tuple[str, int]]:
    """One partition's reco answer over the built index: f1 = f3 = ``text``
    terms (bounded by ``item_prefix``), f2 = ``conv_id`` — "which text
    terms do conversations that share my vocabulary use that I don't?".

    The same bitmap chain as the reference (and/andNot/orMultiTx + gather,
    CollaborativeFiltering.java:88-213), vectorized over sorted docId
    arrays."""
    from .search import PostingSource
    from .segments import forward_columns, partition, read_tombstones

    if partition(index_dir, part).manifest is None:
        return []
    removed = read_tombstones(index_dir, part)

    # myOkActivity: my docs (conv posting) minus tombstones
    src_me = PostingSource(index_dir, part, [("conv_id", user_conv)], 0)
    mine = src_me.docs("conv_id", user_conv)
    if len(removed):
        mine = np.setdiff1d(mine, removed, assume_unique=True)
    if len(mine) == 0:
        return []

    # distinctParents: my distinct item terms. Candidate rejection is ONE
    # vectorized searchsorted over the posting [first_doc, last_doc]
    # metadata columns (a term whose doc range can't touch `mine` is
    # rejected without reading its posting); survivors get one batched
    # dictionary read.
    from .plugins import _postings_meta, _range_overlap_idx

    terms, first, last, _df = _postings_meta(index_dir, part, "text", item_prefix)
    if not terms:
        return []
    cand1 = [terms[i] for i in _range_overlap_idx(mine, first, last)]
    postings: dict[str, np.ndarray] = {}
    my_terms: list[str] = []
    if cand1:
        src1 = PostingSource(index_dir, part, [("text", t) for t in cand1], 0)
        for t in cand1:
            d = src1.docs("text", t)
            if len(removed):
                d = np.setdiff1d(d, removed, assume_unique=True)
            postings[t] = d
            if np.intersect1d(d, mine, assume_unique=True).size:
                my_terms.append(t)
    if not my_terms:
        return []
    # otherOkField1Activity: union of my terms' postings, minus my docs
    other = np.unique(np.concatenate([postings[t] for t in my_terms]))
    other = np.setdiff1d(other, mine, assume_unique=True)
    if len(other) == 0:
        return []

    # contributors: conv_id counts over `other` (f2 gather via the forward
    # table — conv_id is a stored single-term field). One dictionary
    # encode of the whole column serves hop 2 AND hop 3.
    fwd = forward_columns(index_dir, part)
    enc_all = fwd["conv_id"].dictionary_encode()
    all_codes = enc_all.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    dict_names = enc_all.dictionary.to_pylist()
    uniq, counts = np.unique(all_codes[other], return_counts=True)
    order = sorted(range(len(uniq)), key=lambda i: (-int(counts[i]), dict_names[uniq[i]]))[:k]
    # vectorized contributor lookup: conv code → hop-2 count
    contrib_arr = np.zeros(len(dict_names), dtype=np.int64)
    for i in order:
        contrib_arr[uniq[i]] = counts[i]

    # hop 3: contributors' distinct items minus mine, each scored by the
    # contributor's hop-2 count (set semantics — scoredParents,
    # CollaborativeFiltering.java:180-213). Candidate rejection again by
    # metadata: a term can only score if its posting touches a contributor
    # conv's doc set.
    contrib_docs = np.flatnonzero(contrib_arr[all_codes] > 0).astype(np.int64)
    my_set = set(my_terms)
    cand3 = [terms[i] for i in _range_overlap_idx(contrib_docs, first, last)
             if terms[i] not in my_set]
    need = [t for t in cand3 if t not in postings]
    src3 = PostingSource(index_dir, part, [("text", t) for t in need], 0) if need else None
    score: dict[str, int] = {}
    for t in cand3:
        d = postings.get(t)
        if d is None:
            d = src3.docs("text", t)
            if len(removed):
                d = np.setdiff1d(d, removed, assume_unique=True)
        if len(d) == 0:
            continue
        s = int(contrib_arr[np.unique(all_codes[d])].sum())
        if s:
            score[t] = s
    rows = sorted(score.items(), key=lambda r: (-r[1], r[0]))
    return rows[:k]


def reco_cf_index(engine, user_conv: str, k: int = 10, item_prefix: str = "") -> list[tuple[str, int]]:
    """Cross-partition reco: per-partition answers merged by summing counts
    per item, final (count desc, term asc) truncate to k — the
    RecoAnswerMerger contract (RecoAnswerMerger.java:34-87)."""
    res = engine._fan_out(reco_cf_partition,
                          dict(user_conv=user_conv, k=k, item_prefix=item_prefix))
    merged: dict[str, int] = {}
    for rows in res:
        for t, c in rows:
            merged[t] = merged.get(t, 0) + c
    out = sorted(merged.items(), key=lambda r: (-r[1], r[0]))
    return out[:k]


# ----------------------------------------- personalized PageRank reco

# Second recommender over the same (user, item) interactions: seeded
# (personalized) PageRank on the undirected user↔item bipartite graph —
# the random-walk-with-restart family (Pixie/P3), complementing
# reco_cf_ds's 3-hop counting. Same integer micro-unit arithmetic as
# textstats.textrank_ds (rank//degree outflow, (85·inflow)//100 damping,
# teleport mass only at the seed user), so every groupby Sum is an exact
# int64 sum and the DuckDB mirror (iterations unrolled as MATERIALIZED
# CTEs) matches bit-for-bit. Node encoding: user u → 2u, item i → 2i+1.

PPR_UNIT = 10**12


def _ppr_edge_partial(batch: pa.Table) -> pa.Table:
    """ok events → distinct (user-node, item-node) edges, both directions."""
    t = _ok_events(batch)  # (user_id, item) with null items for no-digit props
    valid = pc.is_valid(t["item"]).to_numpy(zero_copy_only=False)
    u = t["user_id"].to_numpy(zero_copy_only=False)
    iv = t["item"].to_numpy(zero_copy_only=False)
    un = (u[valid] * 2).astype(np.int64)
    inode = (iv[valid].astype(np.int64) * 2 + 1)
    tt = pa.table(
        {
            "src": pa.array(np.concatenate([un, inode])),
            "dst": pa.array(np.concatenate([inode, un])),
        }
    )
    return tt.group_by(["src", "dst"], use_threads=False).aggregate([])


def _my_item_set(ev, user_id: int) -> set[int]:
    """The seed user's distinct ok-event items — one user's history,
    driver-small by contract; shared by both PPR paths."""

    def _mine(t: pa.Table) -> pa.Table:
        ok = _ok_events(t)
        ok = ok.filter(pc.equal(ok["user_id"], pa.scalar(user_id, pa.int64())))
        return pa.table({"i": ok["item"]})

    out: set[int] = set()
    for b in ev.map_batches(_mine, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        out.update(x for x in b["i"].to_pylist() if x is not None)
    return out


def reco_ppr_ds(sf_dir: str, user_id: int, k: int = 10, iters: int = 5,
                num_partitions: int = 8,
                small_graph_edges: int = 500_000) -> pa.Table:
    """(item, rank): top-k items for ``user_id`` by seeded integer
    PageRank, EXCLUDING items the user already touched; ties (rank desc,
    item asc).

    Scale shape: edge list and rank table stay distributed Datasets (one
    hash join + int64 groupby Sum per round — the textrank/dd_clusters
    story); only the seed's own item set (one user's history) and the
    final top-k cross the driver."""
    import ray
    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    from .joins import bucket_join

    path = os.path.join(sf_dir, "events.parquet")
    ev = rd.read_parquet(path, columns=["user_id", "event_type", "props"])
    edges = (
        ev.map_batches(_ppr_edge_partial, batch_format="pyarrow",
                       zero_copy_batch=True)
        .groupby(["src", "dst"])
        .aggregate(Count())
        .select_columns(["src", "dst"])
        .materialize()  # reused by deg, the join and every round
    )
    deg = (
        edges.groupby("src")
        .aggregate(Count())
        .map_batches(
            lambda b: pa.table(
                {"src": pc.cast(b["src"], pa.int64()),
                 "d": pc.cast(b["count()"], pa.int64())}
            ),
            batch_format="pyarrow",
        )
    )
    # degree attachment via the shuffle-safe bucket join (joins.py) —
    # Dataset.join crashes on the empty hash partitions a sparse edge
    # stream produces (the dd_keep_best r4 crash class)
    edges_deg = bucket_join(
        edges, deg, on=("src",),
        left_cols={"dst": pa.int64()}, right_cols={"d": pa.int64()},
        num_buckets=num_partitions * 4,
    ).materialize()
    n_edges = edges_deg.count()
    if n_edges == 0:
        return pa.table({"item": pa.array([], pa.int64()),
                         "rank": pa.array([], pa.int64())})
    seed_node = 2 * user_id
    base = (15 * PPR_UNIT) // 100

    if n_edges <= small_graph_edges:
        # small-graph fast path (textrank_ds's declared-threshold trick):
        # identical integers via graphrank.integer_pagerank_local,
        # pytest-gated against the distributed rounds
        from .graphrank import integer_pagerank_local

        et = pa.Table.from_pylist(
            edges_deg.select_columns(["src", "dst"]).take_all()
        )
        srcs = et["src"].to_numpy(zero_copy_only=False).astype(np.int64)
        dsts = et["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
        nodes, codes = np.unique(np.concatenate([srcs, dsts]), return_inverse=True)
        sc, dc = codes[: len(srcs)], codes[len(srcs):]
        seed_pos = np.searchsorted(nodes, seed_node)
        if seed_pos >= len(nodes) or nodes[seed_pos] != seed_node:
            return pa.table({"item": pa.array([], pa.int64()),
                             "rank": pa.array([], pa.int64())})
        r = integer_pagerank_local(sc, dc, len(nodes), iters, PPR_UNIT,
                                   seed_node=int(seed_pos))
        my = _my_item_set(ev, user_id)
        isitem = nodes % 2 == 1
        items = (nodes - 1) // 2
        keep = isitem & ~np.isin(items, list(my))
        items, rr = items[keep], r[keep]
        order = np.lexsort((items, -rr))[:k]
        return pa.table(
            {"item": pa.array(items[order], pa.int64()),
             "rank": pa.array(rr[order], pa.int64())}
        )

    def init_ranks(b: pa.Table) -> pa.Table:
        src = pc.cast(b["src"], pa.int64())
        r = pc.if_else(
            pc.equal(src, pa.scalar(seed_node, pa.int64())),
            pa.scalar(PPR_UNIT, pa.int64()), pa.scalar(0, pa.int64()),
        )
        return pa.table({"src": src, "r": r})

    ranks = deg.map_batches(init_ranks, batch_format="pyarrow").materialize()

    def contrib_partial(b: pa.Table) -> pa.Table:
        d = b["d"].to_numpy(zero_copy_only=False).astype(np.int64)
        r = b["r"].to_numpy(zero_copy_only=False).astype(np.int64)
        t = pa.table({"dst": b["dst"], "c": pa.array(r // d)})
        agg = t.group_by(["dst"], use_threads=False).aggregate([("c", "sum")])
        return pa.table(
            {"dst": pc.cast(agg["dst"], pa.int64()),
             "s": pc.cast(agg["c_sum"], pa.int64())}
        )

    def damp(b: pa.Table) -> pa.Table:
        dst = pc.cast(b["dst"], pa.int64())
        s = b[b.schema.names[-1]].to_numpy(zero_copy_only=False).astype(np.int64)
        tele = np.where(
            dst.to_numpy(zero_copy_only=False) == seed_node, base, 0
        ).astype(np.int64)
        return pa.table({"src": dst, "r": pa.array(tele + (85 * s) // 100)})

    for _ in range(iters):
        ranks = (
            bucket_join(
                edges_deg, ranks, on=("src",),
                left_cols={"dst": pa.int64(), "d": pa.int64()},
                right_cols={"r": pa.int64()},
                num_buckets=num_partitions * 4,
            )
            .map_batches(contrib_partial, batch_format="pyarrow")
            .groupby("dst")
            .aggregate(Sum("s"))
            .map_batches(damp, batch_format="pyarrow")
            .materialize()
        )

    # the seed's own items (one user's history — driver-small by contract)
    mine = _my_item_set(ev, user_id)

    def block_topk(b: pa.Table) -> pa.Table:
        node = b["src"].to_numpy(zero_copy_only=False).astype(np.int64)
        r = b["r"].to_numpy(zero_copy_only=False).astype(np.int64)
        isitem = node % 2 == 1
        item = (node - 1) // 2
        keep = isitem & ~np.isin(item, list(mine))
        item, rr = item[keep], r[keep]
        order = np.lexsort((item, -rr))[:k]
        return pa.table({"item": pa.array(item[order]), "rank": pa.array(rr[order])})

    rows = ranks.map_batches(block_topk, batch_format="pyarrow").take_all()
    rows.sort(key=lambda x: (-int(x["rank"]), int(x["item"])))
    rows = rows[:k]
    return pa.table(
        {
            "item": pa.array([int(x["item"]) for x in rows], pa.int64()),
            "rank": pa.array([int(x["rank"]) for x in rows], pa.int64()),
        }
    )


# ------------------------------------------------------ item-item similarity

ITEM_SIM_CAP = 256  # per-user pair-evidence cap (the max_df/ max_bucket idiom)


def _user_pairs_group(g: pa.Table, cap: int) -> pa.Table:
    """One user's distinct items → all (a < b) pairs. Users with more than
    ``cap`` items contribute pairs from their ``cap`` smallest item ids
    only (declared evidence cap — bounds the per-user pair fan-out at
    O(cap²), the hot-shingle/max_bucket idiom; user counts stay uncapped)."""
    items = np.unique(g["item"].to_numpy(zero_copy_only=False))
    items = items[:cap]
    n = len(items)
    if n < 2:
        return pa.table({"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())})
    iu, ju = np.triu_indices(n, 1)
    return pa.table({"a": pa.array(items[iu]), "b": pa.array(items[ju])})


def _item_sim_topk_block(b: pa.Table, k: int) -> pa.Table:
    if b.num_rows == 0 or "sim" not in b.schema.names:
        return pa.table(
            {"item_a": pa.array([], pa.int64()), "item_b": pa.array([], pa.int64()),
             "n_common": pa.array([], pa.int64()), "sim": pa.array([], pa.float64())}
        )
    sim = b["sim"].to_numpy(zero_copy_only=False)
    a = b["item_a"].to_numpy(zero_copy_only=False)
    bb = b["item_b"].to_numpy(zero_copy_only=False)
    order = np.lexsort((bb, a, -sim))[:k]
    return pa.table(
        {"item_a": pa.array(a[order]), "item_b": pa.array(bb[order]),
         "n_common": pa.array(b["n_common"].to_numpy(zero_copy_only=False)[order]),
         "sim": pa.array(sim[order], pa.float64())}
    )


def reco_item_sim_ds(sf_dir: str, k: int = 20, cap: int = ITEM_SIM_CAP) -> pa.Table:
    """(item_a, item_b, n_common, sim): the top-``k`` most similar item
    pairs by co-occurrence cosine sim = |users(a)∩users(b)| /
    √(|users(a)|·|users(b)|) over the ok-events (user, item) graph — the
    item-item CF neighborhood model (Sarwar et al. 2001) complementing
    reco_cf's user-based 3-hop walk and reco_ppr's graph walk.

    Scale shape: distinct (user, item) pairs via per-batch partials +
    groupby; per-user pair expansion in groupby(user) map_groups (fan-out
    bounded by the declared ``cap``); the per-item user counts attach by
    TAGGED-UNION groupby co-location (two rounds, re-keying on each pair
    endpoint — the dd_clusters shape; Dataset.join is avoided because a
    sparse pair stream leaves hash partitions empty, which the join
    operator cannot key); the final cut is per-block top-k under the
    total order (sim desc, a asc, b asc) — block winners are a superset
    of the global winners — so the driver sees blocks×k rows. sim is one
    fp64 division of exact integers (no accumulation), mirrored
    bit-for-bit."""
    import ray.data as rd
    from ray.data.aggregate import Count

    path = os.path.join(sf_dir, "events.parquet")
    ev = (
        rd.read_parquet(path, columns=["user_id", "event_type", "props"])
        .map_batches(_ok_events, batch_format="pyarrow", zero_copy_batch=True)
        .map_batches(
            lambda b: b.filter(pc.is_valid(b["item"])), batch_format="pyarrow"
        )
        .groupby(["user_id", "item"])
        .aggregate(Count())
        .select_columns(["user_id", "item"])
        .materialize()  # reused by the pair expansion AND the item counts
    )
    def _norm_pairs(b: pa.Table) -> pa.Table:
        # a groupby over a sparse stream can emit EMPTY blocks with a
        # degraded schema; the downstream hash join resolves key columns
        # by name, so every block must carry the full typed schema
        if b.num_rows == 0 or "a" not in b.schema.names:
            return pa.table({"a": pa.array([], pa.int64()),
                             "b": pa.array([], pa.int64()),
                             "n_common": pa.array([], pa.int64())})
        return pa.table({"a": pc.cast(b["a"], pa.int64()),
                         "b": pc.cast(b["b"], pa.int64()),
                         "n_common": pc.cast(b[b.schema.names[-1]], pa.int64())})

    pairs = (
        ev.groupby("user_id")
        .map_groups(lambda g: _user_pairs_group(g, cap), batch_format="pyarrow")
        .groupby(["a", "b"])
        .aggregate(Count())
        .map_batches(_norm_pairs, batch_format="pyarrow")
    )
    counts = ev.groupby("item").aggregate(Count()).materialize()  # used twice

    def _norm_counts(b: pa.Table, key: str, val: str) -> pa.Table:
        if b.num_rows == 0 or "item" not in b.schema.names:
            return pa.table({key: pa.array([], pa.int64()),
                             val: pa.array([], pa.int64())})
        return pa.table({key: pc.cast(b["item"], pa.int64()),
                         val: pc.cast(b[b.schema.names[-1]], pa.int64())})

    # attach the per-item user counts by TAGGED-UNION groupby co-location
    # instead of Dataset.join (a sparse pair stream leaves some of the
    # join's hash partitions EMPTY, and the join operator cannot resolve
    # key columns on an empty partition — the dd_clusters union+groupby
    # shape sidesteps the whole class; every group here is non-empty by
    # construction since counts cover every item a pair references)
    def _tag_counts(b: pa.Table, key: str) -> pa.Table:
        t = _norm_counts(b, key, "nu")
        z = np.zeros(t.num_rows, np.int64)
        return pa.table(
            {key: t[key], "other": pa.array(z), "n_common": pa.array(z),
             "nu": t["nu"], "is_cnt": pa.array(np.ones(t.num_rows, np.int64))}
        )

    def _tag_pairs(b: pa.Table, key_from: str, other_from: str, key: str,
                   carry_nu: bool) -> pa.Table:
        if b.num_rows == 0 or key_from not in b.schema.names:
            e = pa.array([], pa.int64())
            return pa.table({key: e, "other": e, "n_common": e, "nu": e, "is_cnt": e})
        n = b.num_rows
        return pa.table(
            {key: pc.cast(b[key_from], pa.int64()),
             "other": pc.cast(b[other_from], pa.int64()),
             "n_common": pc.cast(b["n_common"], pa.int64()),
             "nu": pc.cast(b["nu"], pa.int64()) if carry_nu
             else pa.array(np.zeros(n, np.int64)),
             "is_cnt": pa.array(np.zeros(n, np.int64))}
        )

    def _attach(g: pa.Table, key: str, out_nu: str) -> pa.Table:
        is_cnt = g["is_cnt"].to_numpy(zero_copy_only=False).astype(bool)
        nu_val = int(g["nu"].to_numpy(zero_copy_only=False)[is_cnt][0])
        keep = ~is_cnt
        kk = g[key].to_numpy(zero_copy_only=False)[keep]
        oo = g["other"].to_numpy(zero_copy_only=False)[keep]
        nc = g["n_common"].to_numpy(zero_copy_only=False)[keep]
        carried = g["nu"].to_numpy(zero_copy_only=False)[keep]
        out = {key: pa.array(kk), "other": pa.array(oo), "n_common": pa.array(nc)}
        if out_nu == "nu_a":
            out["nu"] = pa.array(np.full(len(kk), nu_val, np.int64))
        else:
            out["nu_prev"] = pa.array(carried)
            out["nu"] = pa.array(np.full(len(kk), nu_val, np.int64))
        return pa.table(out)

    # round 1: key = a → nu carries |users(a)|
    u1 = pairs.map_batches(
        lambda b: _tag_pairs(b, "a", "b", "k", carry_nu=False),
        batch_format="pyarrow",
    ).union(
        counts.map_batches(lambda b: _tag_counts(b, "k"), batch_format="pyarrow")
    ).groupby("k").map_groups(
        lambda g: _attach(g, "k", "nu_a"), batch_format="pyarrow"
    )
    # round 2: re-key on the pair's OTHER item (b); `nu` carries |users(a)|
    # through as nu_prev
    u2 = u1.map_batches(
        lambda b: _tag_pairs(b, "other", "k", "k", carry_nu=True),
        batch_format="pyarrow",
    ).union(
        counts.map_batches(lambda b: _tag_counts(b, "k"), batch_format="pyarrow")
    ).groupby("k").map_groups(
        lambda g: _attach(g, "k", "nu_b"), batch_format="pyarrow"
    )

    def score(bt: pa.Table) -> pa.Table:
        if bt.num_rows == 0 or "k" not in bt.schema.names:
            return pa.table(
                {"item_a": pa.array([], pa.int64()), "item_b": pa.array([], pa.int64()),
                 "n_common": pa.array([], pa.int64()), "sim": pa.array([], pa.float64())}
            )
        nc = bt["n_common"].to_numpy(zero_copy_only=False).astype(np.int64)
        nua = bt["nu_prev"].to_numpy(zero_copy_only=False).astype(np.float64)
        nub = bt["nu"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "item_a": pc.cast(bt["other"], pa.int64()),
                "item_b": pc.cast(bt["k"], pa.int64()),
                "n_common": pa.array(nc),
                "sim": pa.array(nc / np.sqrt(nua * nub), pa.float64()),
            }
        )

    blocks = u2.map_batches(score, batch_format="pyarrow").map_batches(
        lambda bt: _item_sim_topk_block(bt, k), batch_format="pyarrow"
    )
    rows = blocks.take_all()
    if not rows:
        return pa.table(
            {"item_a": pa.array([], pa.int64()), "item_b": pa.array([], pa.int64()),
             "n_common": pa.array([], pa.int64()), "sim": pa.array([], pa.float64())}
        )
    final = _item_sim_topk_block(pa.Table.from_pylist(rows), k)
    return final.set_column(3, "sim", pa.array(
        np.round(final["sim"].to_numpy(zero_copy_only=False), 6), pa.float64()
    ))
