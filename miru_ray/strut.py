"""Strut-style model scoring — the stateful actor-pool pattern, for real.

The reference's Strut plugin scores documents against trained "catwalk"
models held in a per-node cache: a model maps feature values to
(numerator, denominator) counts, a score per feature is the ratio, and
features combine by strategy — UNIT_WEIGHTED (mean), REGRESSION_WEIGHTED
(fixed scalars), MAX (reference: miru-stream-plugins/.../strut/
Strut.java:37-56, StrutModelCache.java:104-140,
miru-catwalk-shared/.../Strategy.java:6-9, StrutModel.java:29,
StrutModelScore.java:9-13). The model travels to workers ONCE and scoring
is a per-batch vectorized lookup — exactly the "model in __init__, work in
__call__" actor-pool contract for stateful Ray Data stages.

Here the model is a term-weight table: weight(t) = Σtf(t) / total_tokens
over the corpus (a catwalk-style global ratio, SQL-checkable), restricted
to the query's feature terms; each feature optionally carries a numerator
scalar (the reference's numeratorScalars). A document's feature set is
its DISTINCT model terms (features are value combinations, scored once).

``StrutScorer`` is the map_batches class; ``strut_score_ds`` wires the
full Ray Data pipeline: stats → broadcast model → actor pool scoring.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .tokenize import tokenize_flat

STRATEGIES = ("unit_weighted", "regression_weighted", "max")
# the reference's REGRESSION_WEIGHTED comment: S = 0.5*A + 0.4*B + 0.4*C
# + 0.3*D ... — decaying per-feature scalars; we fix the published four
# then 1/(i+1) beyond
REGRESSION_SCALARS = (0.5, 0.4, 0.4, 0.3)


def regression_scalar(i: int) -> float:
    return REGRESSION_SCALARS[i] if i < len(REGRESSION_SCALARS) else 1.0 / (i + 1)


class StrutScorer:
    """Actor-pool map_batches stage: model loaded once per actor in
    __init__ (the StrutModelCache pattern), per-batch vectorized scoring
    in __call__.

    ``model`` maps term → weight; terms are matched against the tokenized
    ``text`` column; per doc the distinct matched model terms score by
    strategy. Docs matching nothing score 0.0 (the nil score)."""

    def __init__(self, model: dict[str, float], strategy: str = "unit_weighted",
                 text_col: str = "text", id_col: str = "doc_id"):
        if strategy not in STRATEGIES:
            raise ValueError(strategy)
        # per-actor setup: fixed term order (model insertion order defines
        # feature index for regression scalars), weights as an array
        self.terms = list(model)
        self.term_index = {t: i for i, t in enumerate(self.terms)}
        self.weights = np.asarray([model[t] for t in self.terms], dtype=np.float64)
        self.scalars = np.asarray(
            [regression_scalar(i) for i in range(len(self.terms))], dtype=np.float64
        )
        self.strategy = strategy
        self.text_col = text_col
        self.id_col = id_col
        # Arrow lookup table for vectorized token→feature-index mapping
        self._lookup = pa.array(self.terms, type=pa.string())

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        parents, tokens = tokenize_flat(batch[self.text_col])
        # token → model feature index (or -1)
        idx = pc.index_in(tokens, value_set=self._lookup)
        has = pc.is_valid(idx).to_numpy(zero_copy_only=False)
        fidx = idx.to_numpy(zero_copy_only=False)
        scores = np.zeros(n, dtype=np.float64)
        if has.any():
            rows = parents[has]
            feats = fidx[has].astype(np.int64)
            # distinct (doc, feature) pairs — features score once per doc
            pair = rows * len(self.terms) + feats
            pair = np.unique(pair)
            prow = pair // len(self.terms)
            pfeat = pair % len(self.terms)
            w = self.weights[pfeat]
            if self.strategy == "unit_weighted":
                sums = np.bincount(prow, weights=w, minlength=n)
                cnts = np.bincount(prow, minlength=n)
                nz = cnts > 0
                scores[nz] = sums[nz] / cnts[nz]
            elif self.strategy == "regression_weighted":
                scores = np.bincount(prow, weights=w * self.scalars[pfeat], minlength=n).astype(np.float64)
            else:  # max
                order = np.argsort(prow, kind="stable")
                pr, ww = prow[order], w[order]
                starts = np.flatnonzero(np.concatenate([[True], pr[1:] != pr[:-1]]))
                mx = np.maximum.reduceat(ww, starts)
                scores[pr[starts]] = mx
        return pa.table(
            {
                self.id_col: pc.cast(batch[self.id_col], pa.int64()),
                "score": pa.array(np.round(scores, 6)),
            }
        )


class _FeatureTfCounter:
    """map_batches stage: per batch, partial Σtf for each feature term plus
    the batch's total token count (fidx == -1 row). The feature filter runs
    INSIDE the pipeline so the driver only ever sees len(features)+1 rows —
    never the corpus vocabulary."""

    def __init__(self, feature_terms: list[str]):
        self.lookup = pa.array(feature_terms, type=pa.string())
        self.n_feat = len(feature_terms)

    def __call__(self, batch: pa.Table) -> pa.Table:
        _, tokens = tokenize_flat(batch["text"])
        idx = pc.index_in(tokens, value_set=self.lookup)
        has = pc.is_valid(idx).to_numpy(zero_copy_only=False)
        feats = idx.to_numpy(zero_copy_only=False)[has].astype(np.int64)
        tf = np.bincount(feats, minlength=self.n_feat).astype(np.int64)
        return pa.table(
            {
                "fidx": pa.array(np.arange(-1, self.n_feat), pa.int64()),
                "tf": pa.array(np.concatenate([[len(tokens)], tf])),
            }
        )


def build_model(sf_dir: str, feature_terms: list[str],
                concurrency: int = 2) -> dict[str, float]:
    """Catwalk-training stand-in: weight(t) = Σtf(t)/total_tokens. A Ray
    Data pipeline of per-batch FILTERED partials (only the feature terms
    plus one total-token row leave each batch) → one tiny groupby-sum; the
    driver never scans the vocabulary. Deterministic and expressible in
    SQL for the oracle."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["text"]
    ).map_batches(
        _FeatureTfCounter,
        fn_constructor_kwargs={"feature_terms": list(feature_terms)},
        batch_format="pyarrow",
        zero_copy_batch=True,
        concurrency=concurrency,
    )
    rows = ds.groupby("fidx").aggregate(Sum("tf")).take_all()
    agg = {int(r["fidx"]): int(r["sum(tf)"]) for r in rows}
    total = agg.get(-1, 0)
    return {t: (agg.get(i, 0) / total if total else 0.0)
            for i, t in enumerate(feature_terms)}


class _LabelCounter:
    """map_batches stage: per batch, (term, n_positive, n_total) partial
    document-frequency counts for the feature terms (label = does the doc
    match the positive predicate)."""

    def __init__(self, feature_terms: list[str], positive_term: str):
        self.lookup = pa.array(feature_terms, type=pa.string())
        self.n_feat = len(feature_terms)
        self.positive_term = positive_term

    def __call__(self, batch: pa.Table) -> pa.Table:
        parents, tokens = tokenize_flat(batch["text"])
        n = batch.num_rows
        # positive label: the doc contains the positive term
        pos = np.zeros(n, dtype=bool)
        is_pos_tok = pc.equal(tokens, self.positive_term).to_numpy(zero_copy_only=False)
        if is_pos_tok.any():
            pos[np.unique(parents[is_pos_tok])] = True
        idx = pc.index_in(tokens, value_set=self.lookup)
        has = pc.is_valid(idx).to_numpy(zero_copy_only=False)
        feats = idx.to_numpy(zero_copy_only=False)[has].astype(np.int64)
        rows = parents[has]
        # distinct (doc, feature) pairs → per-feature df among positives/all
        pair = np.unique(rows * self.n_feat + feats)
        prow = pair // self.n_feat
        pfeat = pair % self.n_feat
        n_all = np.bincount(pfeat, minlength=self.n_feat)
        n_pos = np.bincount(pfeat[pos[prow]], minlength=self.n_feat)
        return pa.table(
            {
                "fidx": pa.array(np.arange(self.n_feat), pa.int64()),
                "n_pos": pa.array(n_pos.astype(np.int64)),
                "n_all": pa.array(n_all.astype(np.int64)),
            }
        )


def train_model(sf_dir: str, feature_terms: list[str], positive_term: str,
                concurrency: int = 2) -> dict[str, float]:
    """The catwalk numerator/denominator training semantics
    (StrutModelScore.java:9-13: score = numerator / denominator): for each
    feature term, numerator = # docs containing BOTH the feature and the
    positive term, denominator = # docs containing the feature. A Ray Data
    pipeline of per-batch partial counts → one tiny groupby-sum; weights
    are exact ratios (0 for unseen features), SQL-checkable."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["text"]
    ).map_batches(
        _LabelCounter,
        fn_constructor_kwargs={"feature_terms": list(feature_terms),
                               "positive_term": positive_term},
        batch_format="pyarrow",
        zero_copy_batch=True,
        concurrency=concurrency,
    )
    rows = ds.groupby("fidx").aggregate(Sum("n_pos"), Sum("n_all")).take_all()
    agg = {int(r["fidx"]): (int(r["sum(n_pos)"]), int(r["sum(n_all)"])) for r in rows}
    return {
        t: (agg.get(i, (0, 0))[0] / agg[i][1] if agg.get(i, (0, 0))[1] else 0.0)
        for i, t in enumerate(feature_terms)
    }


def _pool_size(requested: int) -> int:
    """Actor-pool size that can never starve the upstream read tasks: a
    FIXED pool taking every CPU deadlocks against the task pool feeding it
    (all-or-nothing start)."""
    import ray

    cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    return max(1, min(requested, cpus - 1))


def strut_score_ds(sf_dir: str, feature_terms: list[str],
                   strategy: str = "unit_weighted", concurrency: int = 4):
    """The full Strut pipeline: train (stats) → broadcast the model to an
    actor pool → score every document. Returns a Ray Dataset
    (doc_id, score)."""
    import ray.data as rd

    concurrency = _pool_size(concurrency)
    model = build_model(sf_dir, feature_terms)
    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return ds.map_batches(
        StrutScorer,
        fn_constructor_kwargs={"model": model, "strategy": strategy},
        batch_format="pyarrow",
        zero_copy_batch=True,
        concurrency=concurrency,
        num_cpus=1,
    )


# ------------------------------------------------- multi-field catwalk model
#
# The reference's feature gather is MULTI-FIELD: a catwalk model is keyed by
# feature definitions — arrays of fieldIds — and a candidate's features are
# the term-value combinations across those fields
# (MiruAggregateUtil.java:111-257 gatherFeatures; CatwalkQuery features;
# StrutModelCache.java:104-140 keys models by the feature set). The
# single-term model above keeps the text path; this section adds the
# field-combination bundle: a feature definition is a list of column names,
# a feature VALUE is the "\x1f"-joined tuple of those columns' values, and
# the model maps every OBSERVED value combination to the catwalk
# numerator/denominator ratio (StrutModelScore.java:9-13). Meta-field
# combinations keep the model bounded (|distinct combos|, not vocabulary):
# per-batch partials carry one row per distinct (feature, value) per batch.

FIELD_SEP = "\x1f"


def feature_keys(batch: pa.Table, fields: list[str]) -> pa.Array:
    """Per-row feature value for one feature definition: the \\x1f-joined
    tuple of the fields' values (the reference's composite feature term,
    MiruAggregateUtil gatherFeatures value concat). Rows where any field is
    null/empty get null (no feature — the reference's null fieldValues
    guard)."""
    cols = []
    ok = None
    for f in fields:
        c = batch[f]
        c = c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c
        c = pc.cast(c, pa.string())
        nonempty = pc.fill_null(pc.not_equal(pc.coalesce(c, ""), ""), False)
        ok = nonempty if ok is None else pc.and_(ok, nonempty)
        cols.append(c)
    if len(cols) == 1:
        joined = cols[0]
    else:
        args = []
        for i, c in enumerate(cols):
            if i:
                args.append(pa.scalar(FIELD_SEP))
            args.append(c)
        args.append("")
        joined = pc.binary_join_element_wise(*args)
    return pc.if_else(ok, joined, pa.scalar(None, pa.string()))


class _FieldComboCounter:
    """map_batches stage: per batch, one partial row per distinct
    (feature definition, value combo): n_pos (docs whose text contains the
    positive term) and n_all. The shuffle carries combos, never rows."""

    def __init__(self, features: list[list[str]], positive_term: str):
        self.features = features
        self.positive_term = positive_term

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        parents, tokens = tokenize_flat(batch["text"])
        pos = np.zeros(n, dtype=bool)
        is_pos = pc.equal(tokens, self.positive_term).to_numpy(zero_copy_only=False)
        if is_pos.any():
            pos[np.unique(parents[is_pos])] = True
        fids, keys, n_pos, n_all = [], [], [], []
        for fid, fields in enumerate(self.features):
            vals = feature_keys(batch, fields)
            valid = pc.is_valid(vals).to_numpy(zero_copy_only=False)
            if not valid.any():
                continue
            denc = vals.filter(pa.array(valid)).dictionary_encode()
            codes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
            rows = np.flatnonzero(valid)
            nk = len(denc.dictionary)
            alls = np.bincount(codes, minlength=nk)
            poss = np.bincount(codes[pos[rows]], minlength=nk)
            fids.append(np.full(nk, fid, dtype=np.int64))
            keys.append(denc.dictionary)
            n_pos.append(poss.astype(np.int64))
            n_all.append(alls.astype(np.int64))
        if not fids:
            return pa.table(
                {"fid": pa.array([], pa.int64()), "key": pa.array([], pa.string()),
                 "n_pos": pa.array([], pa.int64()), "n_all": pa.array([], pa.int64())}
            )
        return pa.table(
            {
                "fid": pa.array(np.concatenate(fids)),
                "key": pa.concat_arrays([k.cast(pa.string()) for k in keys]),
                "n_pos": pa.array(np.concatenate(n_pos)),
                "n_all": pa.array(np.concatenate(n_all)),
            }
        )


def train_field_model(
    sf_dir: str, features: list[list[str]], positive_term: str, concurrency: int = 2
) -> dict[tuple[int, str], float]:
    """Catwalk training over field-combination features: for every observed
    value combo of every feature definition, numerator = # docs with that
    combo AND the positive text term, denominator = # docs with the combo
    (StrutModelScore.java:9-13 ratio). Per-batch partials → one tiny
    groupby-sum over (fid, key); the driver sees |distinct combos| rows."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    cols = sorted({f for fs in features for f in fs} | {"text"})
    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=cols
    ).map_batches(
        _FieldComboCounter,
        fn_constructor_kwargs={"features": [list(f) for f in features],
                               "positive_term": positive_term},
        batch_format="pyarrow",
        zero_copy_batch=True,
        concurrency=concurrency,
    )
    rows = ds.groupby(["fid", "key"]).aggregate(Sum("n_pos"), Sum("n_all")).take_all()
    return {
        (int(r["fid"]), r["key"]): (
            int(r["sum(n_pos)"]) / int(r["sum(n_all)"]) if int(r["sum(n_all)"]) else 0.0
        )
        for r in rows
    }


class StrutFieldScorer:
    """Actor-pool map_batches stage for field-combination features: model
    (combo → ratio) loaded once per actor, per-batch vectorized gather +
    strategy combine. A doc's features are its value combos, one per
    feature definition; combos unseen in training score 0.0 but still
    count toward the UNIT_WEIGHTED mean (documented deviation surface —
    the reference's cache returns a nil score for unseen features too,
    StrutModelCache.java:104-140)."""

    def __init__(self, model: dict[tuple[int, str], float],
                 features: list[list[str]], strategy: str = "unit_weighted",
                 id_col: str = "doc_id"):
        if strategy not in STRATEGIES:
            raise ValueError(strategy)
        self.features = [list(f) for f in features]
        self.strategy = strategy
        self.id_col = id_col
        # per-feature-definition lookup dictionaries (value combo → ratio)
        self._keys = []
        self._weights = []
        for fid in range(len(self.features)):
            items = sorted((k, v) for (i, k), v in model.items() if i == fid)
            self._keys.append(pa.array([k for k, _ in items], type=pa.string()))
            self._weights.append(np.asarray([v for _, v in items], dtype=np.float64))

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        per_feat = np.zeros((len(self.features), n), dtype=np.float64)
        present = np.zeros((len(self.features), n), dtype=bool)
        for fid, fields in enumerate(self.features):
            vals = feature_keys(batch, fields)
            valid = pc.is_valid(vals).to_numpy(zero_copy_only=False)
            if not valid.any():
                continue
            idx = pc.index_in(vals, value_set=self._keys[fid])
            hit = pc.is_valid(idx).to_numpy(zero_copy_only=False) & valid
            ii = idx.to_numpy(zero_copy_only=False)
            per_feat[fid, hit] = self._weights[fid][ii[hit].astype(np.int64)]
            present[fid] = valid  # unseen combos: present with weight 0.0
        cnt = present.sum(axis=0)
        if self.strategy == "unit_weighted":
            scores = np.where(cnt > 0, (per_feat * present).sum(axis=0) / np.maximum(cnt, 1), 0.0)
        elif self.strategy == "regression_weighted":
            scal = np.asarray([regression_scalar(i) for i in range(len(self.features))])
            scores = (per_feat * present * scal[:, None]).sum(axis=0)
        else:  # max
            scores = np.where(cnt > 0, (per_feat * present).max(axis=0), 0.0)
        return pa.table(
            {
                self.id_col: pc.cast(batch[self.id_col], pa.int64()),
                "score": pa.array(np.round(scores, 6)),
            }
        )


def strut_field_score_ds(
    sf_dir: str, features: list[list[str]], positive_term: str,
    strategy: str = "unit_weighted", concurrency: int = 4,
):
    """Full multi-field Strut pipeline: train the per-combo catwalk model →
    broadcast to an actor pool → score every document. Returns a Ray
    Dataset (doc_id, score)."""
    import ray.data as rd

    concurrency = _pool_size(concurrency)
    model = train_field_model(sf_dir, features, positive_term)
    cols = sorted({f for fs in features for f in fs} | {"doc_id"})
    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=cols)
    return ds.map_batches(
        StrutFieldScorer,
        fn_constructor_kwargs={"model": model, "features": [list(f) for f in features],
                               "strategy": strategy},
        batch_format="pyarrow",
        zero_copy_batch=True,
        concurrency=concurrency,
        num_cpus=1,
    )


# ------------------------------------------------ incremental scoring cache
#
# The reference's Strut keeps a per-partition lastScoredId beside the cached
# scores: a query gathers + scores features only for activities ABOVE that
# id and merges them with the cache (Strut.java "lastId" cache updates;
# MiruAggregateUtil.java:111-257 gatherFeatures' lastScoredId bound;
# StrutModelCache.java:104-140 keys the cache by model version so a model
# change invalidates it). This is that contract over the documents table:
# the cache pins the MODEL it was built with (scores from two models never
# mix), and a rescore after new docs arrive reads only doc_id > last.


def strut_score_incremental(
    sf_dir: str,
    feature_terms: list[str],
    cache_dir: str,
    strategy: str = "unit_weighted",
    concurrency: int = 4,
) -> pa.Table:
    """Incrementally maintained Strut scores: full (doc_id, score) table,
    recomputing only documents with doc_id above the cache's lastScoredId.
    The model is trained once when the cache is created and pinned in the
    cache meta; a different (terms, strategy) key drops the cache — the
    reference's model-version invalidation. Cache meta records
    ``last_run_scored`` so callers/tests can verify the delta property."""
    import json as _json

    import pyarrow.dataset as pads
    import pyarrow.parquet as pq
    import ray.data as rd

    meta_path = os.path.join(cache_dir, "meta.json")
    scores_path = os.path.join(cache_dir, "scores.parquet")
    # sf_dir is part of the key: a cache_dir reused against a DIFFERENT
    # corpus must invalidate, or ids overlapping between corpora would mix
    # stale scores into the answer
    key = {"sf_dir": os.path.abspath(sf_dir),
           "feature_terms": list(feature_terms), "strategy": strategy}

    cached = None
    meta = None
    if os.path.exists(meta_path) and os.path.exists(scores_path):
        with open(meta_path) as f:
            meta = _json.load(f)
        if meta.get("key") != key:
            meta = None  # model-version mismatch → full rescore
        else:
            cached = pq.read_table(scores_path)

    if meta is None:
        model = build_model(sf_dir, feature_terms)
        last = -1
        cached = pa.table({"doc_id": pa.array([], pa.int64()),
                           "score": pa.array([], pa.float64())})
    else:
        model = {t: float(w) for t, w in meta["model"].items()}
        last = int(meta["last_doc_id"])

    dset = pads.dataset(os.path.join(sf_dir, "documents.parquet"), format="parquet")
    new_tbl = dset.to_table(filter=pc.field("doc_id") > last, columns=["doc_id", "text"])
    if new_tbl.num_rows:
        scored_new = (
            rd.from_arrow(new_tbl)
            .map_batches(
                StrutScorer,
                fn_constructor_kwargs={"model": model, "strategy": strategy},
                batch_format="pyarrow",
                zero_copy_batch=True,
                concurrency=_pool_size(concurrency),
                num_cpus=1,
            )
            .to_arrow_refs()
        )
        import ray as _ray

        new_scores = pa.concat_tables([_ray.get(r) for r in scored_new])
        new_scores = pa.table(
            {"doc_id": pc.cast(new_scores["doc_id"], pa.int64()),
             "score": pc.cast(new_scores["score"], pa.float64())}
        )
        full = pa.concat_tables([cached, new_scores]).combine_chunks()
    else:
        full = cached
    full = full.take(pc.sort_indices(full, sort_keys=[("doc_id", "ascending")]))

    os.makedirs(cache_dir, exist_ok=True)
    pq.write_table(full, scores_path)
    with open(meta_path, "w") as f:
        _json.dump(
            {
                "key": key,
                "model": model,
                "last_doc_id": int(pc.max(full["doc_id"]).as_py()) if full.num_rows else -1,
                "last_run_scored": int(new_tbl.num_rows),
            },
            f,
        )
    return full
