"""Hybrid RRF retrieval (miru_ray.hybrid): fusion arithmetic vs a scalar
recompute, and the end-to-end retrieve on the real sf0.001 corpus."""

import numpy as np
import pyarrow.compute as pc
import pyarrow.parquet as pq

from miru_ray.hybrid import RRF_C, rrf_fuse, rrf_retrieve

SF = "/root/testdata/sf0.001"


def _scalar_rrf(lists, c):
    s = {}
    for docs in lists:
        for r, d in enumerate(docs, 1):
            s[int(d)] = s.get(int(d), 0.0) + 1.0 / (c + r)
    return s


def test_rrf_fuse_vs_scalar():
    rng = np.random.default_rng(7)
    for trial in range(5):
        nlists = int(rng.integers(1, 4))
        lists = [
            rng.choice(50, size=int(rng.integers(1, 20)), replace=False).astype(np.int64)
            for _ in range(nlists)
        ]
        for c in (10, RRF_C):
            k = int(rng.integers(1, 15))
            got = rrf_fuse(lists, k, c=c).to_pydict()
            exp = _scalar_rrf([d.tolist() for d in lists], c)
            order = sorted(exp, key=lambda d: (-exp[d], -d))[:k]
            assert got["doc_id"] == order
            np.testing.assert_allclose(
                got["rrf"], [round(exp[d], 6) for d in order], atol=1e-9
            )


def test_rrf_fuse_empty():
    t = rrf_fuse([np.array([], dtype=np.int64)], 5)
    assert t.num_rows == 0


def test_rrf_retrieve_end_to_end(ray_session):
    """The fused answer is exactly the manual fusion of the two candidate
    lists the module's own stages produce, and every hit comes from one of
    them."""
    from miru_ray.hybrid import _cosine_candidates, bm25_candidates

    terms, qvec, n, k = ("the", "scan"), 5, 15, 8
    got = rrf_retrieve(SF, terms, qvec, n=n, k=k).to_pydict()
    lex, _scores = bm25_candidates(SF, terms, n)
    sem = _cosine_candidates(SF, qvec, n)
    assert len(lex) and len(sem)
    exp = _scalar_rrf([lex.tolist(), sem.tolist()], RRF_C)
    order = sorted(exp, key=lambda d: (-exp[d], -d))[:k]
    assert got["doc_id"] == order
    assert set(got["doc_id"]) <= set(lex.tolist()) | set(sem.tolist())
    # the query vector's own row never appears on the semantic side
    assert qvec not in sem.tolist()
    # fused scores are bounded by the best possible two-list score
    assert max(got["rrf"]) <= 2.0 / (RRF_C + 1) + 1e-12


def test_cosine_candidates_match_bruteforce(ray_session):
    """Semantic candidate list == numpy brute force over the whole
    embeddings table (round-4 cosine, neighbor-asc ties)."""
    from miru_ray.hybrid import _cosine_candidates

    qvec, n = 5, 12
    t = pq.read_table(f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"])
    ids = t["vec_id"].to_numpy(zero_copy_only=False)
    m = np.stack(t["embedding"].to_numpy(zero_copy_only=False)).astype(np.float64)
    m = m / np.linalg.norm(m, axis=1, keepdims=True)
    q = m[np.flatnonzero(ids == qvec)[0]]
    cos = np.round(m @ q, 4)
    keep = ids != qvec
    cand_ids, cand_cos = ids[keep], cos[keep]
    order = np.lexsort((cand_ids, -cand_cos))[:n]
    exp = cand_ids[order].tolist()
    got = _cosine_candidates(SF, qvec, n).tolist()
    assert got == exp
