"""Differential query fuzz over the tiny fixture index.

Seeded random queries from the filter grammar — AND, OR, NOT, parentheses,
prefix, a ``role:`` field, a numeric range and fuzzy terms — are crossed
with every scorer and with one mask each: none, ``time_range``, ``authz``
or tombstones (``remove_docs`` on a copy of the index). Each run is checked
against the brute-force oracle: the same ``found`` and the same ranked hits
and scores (rank identity).
"""

import random
import shutil

import numpy as np
import pytest

from miru_ray.build import build_index
from miru_ray.oracle import oracle_search
from miru_ray.search import SearchEngine
from miru_ray.segments import read_tombstones, remove_docs

N_PARTS = 4
SEED = 1009
N_QUERIES = 120
SCORERS = ["ref_tfidf", "bm25", "lmd", "time"]
MASKS = ["none", "time_range", "authz", "tombstones"]

TERMS = [f"t{h:x}" for h in range(16)] + [f"w{i:05d}" for i in (0, 1, 2, 3, 5, 8, 13, 42, 123)]
PREFIXES = ["w000*", "w0001*", "w004*", "t*"]
FUZZY = ["t1~1", "w00042~1", "w00003~2"]
ROLES = ["user", "assistant", "tool"]


def _atom(rng: random.Random, depth: int) -> str:
    r = rng.random()
    if depth < 2 and r < 0.15:
        return f"({_expr(rng, depth + 1)})"
    if r < 0.55:
        return rng.choice(TERMS)
    if r < 0.67:
        return rng.choice(PREFIXES)
    if r < 0.79:
        return f"role:{rng.choice(ROLES)}"
    if r < 0.89:
        lo = rng.randint(0, 20)
        return f"turn_idx:[{lo} TO {lo + rng.randint(0, 15)}]"
    return rng.choice(FUZZY)


def _expr(rng: random.Random, depth: int = 0) -> str:
    out = _atom(rng, depth)
    for _ in range(rng.randint(0, 2)):
        op = rng.choice([" ", " AND ", " OR ", " AND NOT "])
        out += op + _atom(rng, depth)
    return out


def _query(rng: random.Random) -> str:
    """A third of the queries are flat ORs or flat ANDs of plain terms,
    the rest the full grammar."""
    if rng.random() < 0.35:
        terms = rng.sample(TERMS, rng.randint(1, 3))
        return rng.choice([" ", " OR "]).join(terms)
    if rng.random() < 0.1:
        return "NOT " + rng.choice(TERMS)
    return _expr(rng)


QUERY_SET = [_query(random.Random(SEED + i)) for i in range(N_QUERIES)]


@pytest.fixture(scope="module")
def fuzz_indexes(ray_session, tiny_transcripts_dir, tiny_rows, tmp_path_factory):
    """(plain index, tombstoned copy, oracle removal sets)."""
    d = str(tmp_path_factory.mktemp("fuzz_idx"))
    build_index(tiny_transcripts_dir, d, n_parts=N_PARTS)
    t = str(tmp_path_factory.mktemp("fuzz_tomb")) + "/idx"
    shutil.copytree(d, t)
    remove_docs(t, [(r["conv_id"], r["turn_idx"]) for r in tiny_rows[::5]])
    removed = {p: set(read_tombstones(t, p).tolist()) for p in range(N_PARTS)}
    return SearchEngine(d), SearchEngine(t), removed


@pytest.mark.parametrize("scoring", SCORERS)
def test_query_fuzz(fuzz_indexes, tiny_oracle, scoring):
    plain, tomb, removed = fuzz_indexes
    all_ts = sorted(ts for p in tiny_oracle.values() for ts in p.ts)
    rng = random.Random(SEED * 7 + SCORERS.index(scoring))
    for i, q in enumerate(QUERY_SET):
        mask = MASKS[(i + SCORERS.index(scoring)) % len(MASKS)]
        k = rng.choice([1, 5, 10, 40])
        eng, kw, okw = plain, {}, {}
        if mask == "time_range":
            a, b = sorted(rng.sample(range(len(all_ts)), 2))
            kw["time_range"] = okw["time_range"] = (all_ts[a], all_ts[b])
        elif mask == "authz":
            roles = tuple(sorted(rng.sample(ROLES, rng.randint(1, 2))))
            kw["authz"] = okw["authz"] = ("role", roles)
        elif mask == "tombstones":
            eng, okw["removed"] = tomb, removed
        ctx = (q, scoring, mask, k)

        hits, found = eng.search(q, k=k, scoring=scoring, parallel=False,
                                 early_exit=False, **kw)
        ohits, ofound = oracle_search(tiny_oracle, q, k, scoring=scoring, **okw)
        assert found == ofound, ctx
        assert [(h.part, h.doc_id) for h in hits] == [(h.part, h.doc_id) for h in ohits], ctx
        np.testing.assert_allclose([h.score for h in hits], [h.score for h in ohits],
                                   rtol=2e-5, atol=1e-7, err_msg=str(ctx))
