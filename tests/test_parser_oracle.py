"""Query parser structure tests + oracle self-consistency invariants
(mirrors the reference's own e2e assertions: MiruFullTextNGTest.java:169-183 —
results non-empty for dictionary AND queries, TF_IDF scores in (0, 1),
TIME scores all 0)."""

import numpy as np

from miru_ray.filters import Filter, parse_query
from miru_ray.oracle import eval_filter, oracle_search, score_partition


def q(s):
    return parse_query(s)


def test_single_term():
    f = q("t3")
    assert f.op == "and" and len(f.field_filters) == 1
    assert f.field_filters[0].values == ["t3"]
    assert f.field_filters[0].field == "text"


def test_default_and():
    f = q("t1 t7 w00042")
    assert f.op == "and" and len(f.sub_filters) == 3
    assert f.sub_filters[0].field_filters[0].values == ["t1"]


def test_explicit_and_same_as_juxtaposition():
    assert q("t1 AND t7") == q("t1 t7")


def test_or():
    f = q("t1 OR w00999")
    assert f.op == "or" and len(f.sub_filters) == 2


def test_and_not():
    f = q("t1 AND NOT t9")
    assert f.op == "pButNotQ" and not f.inclusive
    assert f.sub_filters[0].field_filters[0].values == ["t1"]
    assert f.sub_filters[1].field_filters[0].values == ["t9"]


def test_pure_not_inclusive():
    f = q("NOT t2")
    assert f.op == "pButNotQ" and f.inclusive
    assert f.sub_filters[0].field_filters[0].values == ["t2"]


def test_mixed_and_or_not():
    f = q("t1 t2 OR t3")
    # OR at top: shoulds = [and(t1,t2), t3]
    assert f.op == "or"
    assert f.sub_filters[0].op == "and"


def test_field_prefix_and_wildcard():
    f = q("role:user")
    assert f.field_filters[0].field == "role"
    f = q("w004*")
    assert f.field_filters[0].values == ["w004*"]


def test_analyzer_applied_to_query_terms():
    assert q("HeLLo") == q("hello")


def test_parens():
    f = q("t1 AND (t2 OR t3)")
    assert f.op == "and"
    assert f.sub_filters[1].op == "or"


# ----------------------------------------------------------- oracle invariants


def test_oracle_and_query_nonempty_scores_in_01(tiny_oracle):
    hits, found = oracle_search(tiny_oracle, "t1 t7", k=10)
    assert found > 0 and len(hits) == 10
    for h in hits:
        assert 0.0 < h.score < 1.0  # MiruFullTextNGTest.java:169-183
    # sorted by score desc then ts desc
    keys = [(-np.float32(h.score), -h.ts) for h in hits]
    assert keys == sorted(keys)


def test_oracle_time_strategy_scores_zero(tiny_oracle):
    hits, found = oracle_search(tiny_oracle, "t1", k=5, scoring="time")
    assert len(hits) == 5 and all(h.score == 0.0 for h in hits)
    # newest first globally
    ts = [h.ts for h in hits]
    assert ts == sorted(ts, reverse=True)


def test_oracle_not_excludes(tiny_oracle):
    hits, _ = oracle_search(tiny_oracle, "t1 AND NOT t2", k=50)
    for h in hits:
        p = tiny_oracle[h.part]
        assert "t1" in p.tokens[h.doc_id]
        assert "t2" not in p.tokens[h.doc_id]


def test_oracle_pure_not(tiny_oracle):
    hits, found = oracle_search(tiny_oracle, "NOT t1", k=20)
    for h in hits:
        assert "t1" not in tiny_oracle[h.part].tokens[h.doc_id]
    total = sum(p.n_docs for p in tiny_oracle.values())
    with_t1 = sum(
        sum(1 for toks in p.tokens if "t1" in toks) for p in tiny_oracle.values()
    )
    assert found == total - with_t1


def test_oracle_or_superset_of_and(tiny_oracle):
    _, f_and = oracle_search(tiny_oracle, "t1 t2", k=5)
    _, f_or = oracle_search(tiny_oracle, "t1 OR t2", k=5)
    _, f_t1 = oracle_search(tiny_oracle, "t1", k=5)
    assert f_or >= f_t1 >= f_and


def test_oracle_repeated_term_doubles_multiplier(tiny_oracle):
    p = tiny_oracle[max(tiny_oracle)]
    h1, _ = score_partition(p, "t1", k=5)
    h2, _ = score_partition(p, "t1 t1", k=5)
    assert [h.doc_id for h in h1] == [h.doc_id for h in h2]
    for a, b in zip(h1, h2):
        np.testing.assert_allclose(b.score, 2 * a.score, rtol=1e-6)


def test_oracle_rare_term_df1(tiny_oracle):
    # per-conv unique terms: df small, appear only in that conv
    some_part = next(iter(tiny_oracle.values()))
    uniq = [t for t in some_part.sorted_terms["text"] if t.startswith("u")]
    assert uniq, "fixture should produce per-conv unique terms"
    t = uniq[0]
    hits, found = oracle_search(tiny_oracle, t, k=100)
    assert 0 < found
    convs = {h.conv_id for h in hits}
    assert len(convs) == 1


def test_oracle_time_range_mask(tiny_oracle):
    all_hits, all_found = oracle_search(tiny_oracle, "t1", k=10)
    ts_values = sorted(
        ts for p in tiny_oracle.values() for ts in p.ts
    )
    lo, hi = ts_values[len(ts_values) // 4], ts_values[3 * len(ts_values) // 4]
    hits, found = oracle_search(tiny_oracle, "t1", k=10, time_range=(lo, hi))
    assert found <= all_found
    for h in hits:
        assert lo <= h.ts <= hi


def test_oracle_wildcard_expansion(tiny_oracle):
    hits, found = oracle_search(tiny_oracle, "w000*", k=10)
    assert found > 0
    # every hit contains some w000xx term
    for h in hits:
        assert any(t.startswith("w000") for t in tiny_oracle[h.part].tokens[h.doc_id])


def test_oracle_filter_eval_and_shortcircuit(tiny_oracle):
    p = next(iter(tiny_oracle.values()))
    f = parse_query("zzzznotaterm")
    assert eval_filter(p, f, None) == set()


def test_oracle_bm25_rank_reasonable(tiny_oracle):
    hits, found = oracle_search(tiny_oracle, "t1 w00042", k=10, scoring="bm25")
    assert found > 0 and all(h.score > 0 for h in hits)
    keys = [(-np.float32(h.score), -h.ts) for h in hits]
    assert keys == sorted(keys)


def test_range_atom_parses():
    f = q("turn_idx:[3 TO 7]")
    assert f.field_filters[0].field == "turn_idx"
    assert f.field_filters[0].values == ["[3 TO 7]"]
    f2 = q("turn_idx:{0 TO 5]")
    assert f2.field_filters[0].values == ["{0 TO 5]"]
    f3 = q("turn_idx:[* TO 9}")
    assert f3.field_filters[0].values == ["[* TO 9}"]
    # range composes with other clauses
    f4 = q("turn_idx:[3 TO 7] t1")
    assert f4.op == "and" and len(f4.sub_filters) == 2


def test_range_bounds_encoding():
    from miru_ray.filters import range_term_bounds
    from miru_ray.segments import numeric_lex

    lo, hi, li, hi_inc = range_term_bounds("[3 TO 7]")
    assert lo == numeric_lex(3) and hi == numeric_lex(7) and li and hi_inc
    lo, hi, li, hi_inc = range_term_bounds("{-2 TO *]")
    assert lo == numeric_lex(-2) and hi is None and not li
    # non-integer bounds stay raw (lowercased)
    lo, hi, *_ = range_term_bounds("[Alpha TO beta]")
    assert lo == "alpha" and hi == "beta"
    assert range_term_bounds("t1") is None
    assert range_term_bounds("w004*") is None


def test_numeric_lex_order_preserving():
    import random

    from miru_ray.segments import numeric_lex

    rng = random.Random(7)
    vals = [rng.randint(-(2**62), 2**62) for _ in range(200)] + [0, -1, 1, 2**63 - 1, -(2**63)]
    enc = [(numeric_lex(v), v) for v in vals]
    assert [v for _e, v in sorted(enc)] == sorted(vals)


def test_numeric_lex_int64_edges_without_warnings():
    """The scalar encoding equals the vectorized one at the int64 edges and
    at -1/0/1 without any numpy overflow warning; values outside int64
    still raise."""
    import warnings

    import pyarrow as pa
    import pytest

    from miru_ray.segments import numeric_lex, numeric_lex_array

    vals = [-(2**63), -1, 0, 1, 2**63 - 1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [numeric_lex(v) for v in vals]
        assert got == numeric_lex_array(pa.array(vals, pa.int64())).to_pylist()
        for bad in (2**63, -(2**63) - 1):
            with pytest.raises(OverflowError):
                numeric_lex(bad)


def test_malformed_ranges_raise():
    import pytest

    from miru_ray.filters import QueryParseError

    for bad in ("turn_idx:[3 TO", "turn_idx:[3 7]", "turn_idx:[TO 7]", "turn_idx:[3 TO ]"):
        with pytest.raises(QueryParseError):
            q(bad)


def test_numeric_range_property():
    """Hypothesis: for random int value sets and random [lo TO hi] bounds,
    the oracle's range expansion selects exactly the numerically-in-range
    values (the order-preservation contract of numeric_lex)."""
    from hypothesis import given, settings, strategies as st

    from miru_ray.filters import range_term_bounds
    from miru_ray.segments import numeric_lex

    i64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(i64, min_size=0, max_size=30), i64, i64)
    def check(vals, a, b):
        lo, hi = min(a, b), max(a, b)
        for lo_inc, hi_inc in ((True, True), (False, False), (True, False)):
            br = "[" if lo_inc else "{"
            kt = "]" if hi_inc else "}"
            blo, bhi, li, hi_i = range_term_bounds(f"{br}{lo} TO {hi}{kt}")
            terms = sorted(numeric_lex(v) for v in vals)
            sel = [
                t for t in terms
                if (t >= blo if li else t > blo) and (t <= bhi if hi_i else t < bhi)
            ]
            exp = sorted(
                numeric_lex(v) for v in vals
                if (v >= lo if lo_inc else v > lo) and (v <= hi if hi_inc else v < hi)
            )
            assert sel == exp

    check()
