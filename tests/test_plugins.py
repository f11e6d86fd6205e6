"""Plugin-operator parity tests (distincts / counts / waveform / latest)
against brute-force recomputation from the oracle's posting dicts."""

import numpy as np
import pytest

from miru_ray.build import build_index
from miru_ray.oracle import eval_filter
from miru_ray.filters import parse_query
from miru_ray.search import SearchEngine
from miru_ray import plugins

N_PARTS = 4


@pytest.fixture(scope="module")
def engine(ray_session, tiny_transcripts_dir, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("idx_plugins"))
    build_index(tiny_transcripts_dir, d, n_parts=N_PARTS)
    return SearchEngine(d)


def oracle_answer(opart, query):
    return eval_filter(opart, parse_query(query), None)


def test_distincts_meta_field(engine, tiny_oracle):
    got = plugins.distincts(engine, "role")
    exp = sorted({v for p in tiny_oracle.values() for v in p.fields["role"] if v})
    assert got == exp

    got_q = plugins.distincts(engine, "tool", query="t1 t7")
    exp_q = set()
    for p in tiny_oracle.values():
        ans = oracle_answer(p, "t1 t7")
        exp_q.update(p.fields["tool"][i] for i in ans if p.fields["tool"][i])
    assert got_q == sorted(exp_q)


def test_distincts_text_prefix_with_query(engine, tiny_oracle):
    got = plugins.distincts(engine, "text", prefix="w004", query="t1")
    exp = set()
    for p in tiny_oracle.values():
        ans = oracle_answer(p, "t1")
        for term, posting in p.post["text"].items():
            if term.startswith("w004") and not ans.isdisjoint(posting):
                exp.add(term)
    assert got == sorted(exp)
    assert plugins.distinct_count(engine, "text", prefix="w004", query="t1") == len(exp)


def test_aggregate_counts(engine, tiny_oracle):
    got = plugins.aggregate_counts(engine, "role", query="t3")
    # totals per role must match oracle
    exp_tot: dict[str, int] = {}
    for p in tiny_oracle.values():
        ans = oracle_answer(p, "t3")
        for i in ans:
            v = p.fields["role"][i]
            if v:
                exp_tot[v] = exp_tot.get(v, 0) + 1
    assert {t: c for t, c, _p, _l in got} == exp_tot
    # newest-first: ordered by (partition desc, docId desc) of newest hit
    keys = [(p, l) for _t, _c, p, l in got]
    assert keys == sorted(keys, reverse=True)


def test_waveform(engine, tiny_oracle):
    bucket = 3_600_000_000  # 1 hour in us
    got = plugins.waveform(engine, bucket, query="t1 t7")
    exp: dict[int, int] = {}
    for p in tiny_oracle.values():
        ans = oracle_answer(p, "t1 t7")
        for i in ans:
            b = (p.ts[i] // bucket) * bucket
            exp[b] = exp.get(b, 0) + 1
    assert got == exp
    assert sum(got.values()) == sum(
        len(oracle_answer(p, "t1 t7")) for p in tiny_oracle.values()
    )


def test_latest_first(engine, tiny_oracle):
    got = plugins.latest_first(engine, "text", prefix="t1")
    for part, rows in got.items():
        opart = tiny_oracle[part]
        for term, first, last, df in rows:
            docs = sorted(opart.post["text"][term])
            assert first == docs[0] and last == docs[-1] and df == len(docs), (part, term)


def test_trending_deterministic(engine):
    a = plugins.trending(engine, ["t1", "t2", "w00042"], 3_600_000_000)
    b = plugins.trending(engine, ["t1", "t2", "w00042"], 3_600_000_000)
    assert a == b
    assert len(a) == 3 and all(isinstance(s, float) for _q, s in a)


def test_plugins_mask_tombstones(ray_session, tiny_transcripts_dir, tiny_rows, tiny_oracle, tmp_path_factory):
    """REMOVEd docs must vanish from plugin results too (distincts,
    aggregate_counts, waveform, latest_first) — the removal index is ANDed
    out of every query path, reference MiruRemovalIndex semantics."""
    from miru_ray.build import build_index
    from miru_ray.segments import read_tombstones, remove_docs

    d = str(tmp_path_factory.mktemp("idx_plugins_rm"))
    build_index(tiny_transcripts_dir, d, n_parts=N_PARTS)
    victims = [(r["conv_id"], r["turn_idx"]) for r in tiny_rows[::5]]
    remove_docs(d, victims)
    removed = {p: set(read_tombstones(d, p).tolist()) for p in range(N_PARTS)}
    eng = SearchEngine(d)

    def alive(p, ans):
        return [i for i in ans if i not in removed[p]]

    # aggregate_counts with and without a query
    for q in (None, "t3"):
        got = plugins.aggregate_counts(eng, "role", query=q)
        exp_tot: dict[str, int] = {}
        for pid, p in tiny_oracle.items():
            ans = sorted(oracle_answer(p, q)) if q else range(len(p.ts))
            for i in alive(pid, ans):
                v = p.fields["role"][i]
                if v:
                    exp_tot[v] = exp_tot.get(v, 0) + 1
        assert {t: c for t, c, _p, _l in got} == exp_tot, q

    # waveform counts exclude tombstones
    bucket = 3_600_000_000
    got_wf = plugins.waveform(eng, bucket, query="t1")
    exp_wf: dict[int, int] = {}
    for pid, p in tiny_oracle.items():
        for i in alive(pid, sorted(oracle_answer(p, "t1"))):
            b = (p.ts[i] // bucket) * bucket
            exp_wf[b] = exp_wf.get(b, 0) + 1
    assert got_wf == exp_wf

    # distincts with no query: a term alive only in removed docs must drop
    got_d = plugins.distincts(eng, "text", prefix="w00")
    exp_d = set()
    for pid, p in tiny_oracle.items():
        for term, posting in p.post["text"].items():
            if term.startswith("w00") and any(i not in removed[pid] for i in posting):
                exp_d.add(term)
    assert got_d == sorted(exp_d)

    # latest_first endpoints skip tombstoned first/last docs
    got_lf = plugins.latest_first(eng, "text", prefix="t1")
    for part, lf_rows in got_lf.items():
        opart = tiny_oracle[part]
        for term, first, last, df in lf_rows:
            docs = [i for i in sorted(opart.post["text"][term]) if i not in removed[part]]
            assert docs, (part, term)  # fully-removed terms must be absent
            assert first == docs[0] and last == docs[-1], (part, term)


def test_caches_refresh_after_extend(ray_session, tiny_transcripts_dir, tmp_path_factory):
    """Warm per-process posting/manifest caches must not serve pre-extend
    state: query → extend_index → same-process query sees the new docs."""
    import glob
    import os

    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from miru_ray.build import build_index, extend_index

    t = pa.concat_tables(
        [pq.read_table(f) for f in sorted(glob.glob(tiny_transcripts_dir + "/*.parquet"))]
    )
    convs = sorted(set(t["conv_id"].to_pylist()))
    cut = convs[len(convs) // 2]
    src1 = str(tmp_path_factory.mktemp("cache_src1"))
    src2 = str(tmp_path_factory.mktemp("cache_src2"))
    pq.write_table(t.filter(pc.less(t["conv_id"], cut)), os.path.join(src1, "a.parquet"))
    pq.write_table(t.filter(pc.greater_equal(t["conv_id"], cut)), os.path.join(src2, "b.parquet"))

    d = str(tmp_path_factory.mktemp("idx_cache"))
    build_index(src1, d, n_parts=N_PARTS)
    eng = SearchEngine(d)
    # warm the driver-process caches via the serial path
    hits1, found1 = eng.search("t1", k=5, parallel=False)
    n1 = plugins.distinct_count(eng, "conv_id")
    extend_index(src2, d)
    eng2 = SearchEngine(d)
    hits2, found2 = eng2.search("t1", k=5, parallel=False)
    n2 = plugins.distinct_count(eng2, "conv_id")
    assert found2 > found1
    assert n2 > n1
    assert n2 == len(convs)


def test_aggregate_counts_inbox_unread(ray_session, tiny_transcripts_dir, tiny_rows, tiny_oracle, tmp_path_factory):
    """Inbox/unread AggregateCounts variant (AggregateCounts.java:93-300):
    answer = stream inbox ∩ filter; per pivot term newest-first counts with
    latest/oldest endpoints and unread flags; READ removes from unread."""
    from miru_ray.build import build_index
    from miru_ray.segments import add_to_inbox, mark_read, read_stream_set

    d = str(tmp_path_factory.mktemp("idx_inbox"))
    build_index(tiny_transcripts_dir, d, n_parts=N_PARTS)
    stream = "user-42"
    inbox_keys = [(r["conv_id"], r["turn_idx"]) for r in tiny_rows[::3]]
    add_to_inbox(d, stream, inbox_keys)
    read_keys = inbox_keys[::2]
    mark_read(d, stream, read_keys)

    eng = SearchEngine(d)
    got = plugins.aggregate_counts_inbox(eng, stream, "role", query="t3")

    # brute force from the oracle partitions
    from miru_ray.hashing import fnv1a64_str

    inbox_set = {(c, t) for c, t in inbox_keys}
    unread_set = inbox_set - set(read_keys)
    exp_agg = {}
    for pid in sorted(tiny_oracle, reverse=True):
        p = tiny_oracle[pid]
        ans = oracle_answer(p, "t3")
        rows = [
            (i, (p.conv_id[i], p.turn_idx[i]) in unread_set)
            for i in sorted(ans)
            if (p.conv_id[i], p.turn_idx[i]) in inbox_set
        ]
        groups = {}
        for i, unread in rows:
            groups.setdefault(p.fields["role"][i], []).append((i, unread))
        for role, g in groups.items():
            docs = [i for i, _u in g]
            latest, oldest = max(docs), min(docs)
            lat_u = dict(g)[latest]
            old_u = dict(g)[oldest]
            any_u = any(u for _i, u in g)
            cur = exp_agg.get(role)
            if cur is None:
                exp_agg[role] = [len(g), pid, latest, lat_u, pid, oldest, old_u, any_u]
            else:
                cur[0] += len(g)
                cur[7] = cur[7] or any_u
                if (pid, latest) > (cur[1], cur[2]):
                    cur[1], cur[2], cur[3] = pid, latest, lat_u
                if (pid, oldest) < (cur[4], cur[5]):
                    cur[4], cur[5], cur[6] = pid, oldest, old_u
    exp = sorted(
        ((t, v[0], v[1], v[2], v[4], v[5], v[7], v[3], v[6]) for t, v in exp_agg.items()),
        key=lambda r: (-r[2], -r[3]),
    )
    assert got == exp

    # mark_all_read clears every unread flag
    from miru_ray.segments import mark_all_read

    mark_all_read(d, stream)
    got2 = plugins.aggregate_counts_inbox(eng, stream, "role", query="t3")
    assert [r[:6] for r in got2] == [r[:6] for r in exp]
    assert all(r[6] is False and r[7] is False and r[8] is False for r in got2)


def test_plugin_spi_registry(engine):
    """MiruPlugin SPI analogue: built-ins registered, dispatch works, user
    plugins can register and replace."""
    names = plugins.registered_plugins()
    for expect in ("distincts", "aggregate_counts", "waveform", "trending",
                   "latest_first", "reco_cf", "aggregate_counts_inbox"):
        assert expect in names, expect
    assert plugins.run_plugin(engine, "distinct_count", field="role") == 3
    assert plugins.run_plugin(engine, "distincts", field="role") == plugins.distincts(engine, "role")

    def my_plugin(eng, x=1):
        return ("custom", x)

    plugins.register_plugin("my_plugin", my_plugin)
    assert plugins.run_plugin(engine, "my_plugin", x=7) == ("custom", 7)
    import pytest as _pytest

    with _pytest.raises(KeyError):
        plugins.get_plugin("nope")


def test_lifecycle_callbacks(ray_session, tiny_transcripts_dir, tmp_path_factory, inprocess_build):
    """Index lifecycle hooks (IndexOpen/Commit/CloseCallback analogues):
    commit fires once per finalized partition, open/close on engine
    open/close."""
    from miru_ray.build import build_index
    from miru_ray.segments import register_lifecycle_callback, unregister_lifecycle_callback

    events = []
    cb_open = lambda d: events.append(("open", d))
    cb_commit = lambda d, p: events.append(("commit", d, p))
    cb_close = lambda d: events.append(("close", d))
    register_lifecycle_callback("open", cb_open)
    register_lifecycle_callback("commit", cb_commit)
    register_lifecycle_callback("close", cb_close)
    try:
        d = str(tmp_path_factory.mktemp("idx_lifecycle"))
        build_index(tiny_transcripts_dir, d, n_parts=N_PARTS)
        # commit callbacks fire in the WORKER processes for the distributed
        # build; rebuild one partition in-process to observe the hook
        import glob as _glob

        files = sorted(_glob.glob(tiny_transcripts_dir + "/*.parquet"))
        spill = str(tmp_path_factory.mktemp("lifecycle_spill"))
        assert ("commit", d, 0) not in events
        inprocess_build(files, d, spill, N_PARTS, parts=[0])
        assert ("commit", d, 0) in events

        eng = SearchEngine(d)
        assert ("open", d) in events
        eng.close()
        assert ("close", d) in events
    finally:
        unregister_lifecycle_callback("open", cb_open)
        unregister_lifecycle_callback("commit", cb_commit)
        unregister_lifecycle_callback("close", cb_close)


def _brute_paired_latest(parts_oracle):
    """Brute-force (va, vb) -> globally-latest hit by (ts, part) from the
    oracle row dicts — the cross-partition merge contract."""
    best = {}
    for part, opart in parts_oracle.items():
        latest = {}
        for i, (a, b) in enumerate(zip(opart.fields["role"], opart.fields["tool"])):
            if a and b:
                latest[(a, b)] = i  # row order == docId order: last wins
        for (a, b), i in latest.items():
            cur = best.get((a, b))
            ts = opart.ts[i]
            if cur is None or (ts, part) > (cur[4], cur[2]):
                best[(a, b)] = (a, b, part, i, ts)
    return sorted(best.values())


def test_paired_latest_partition(engine, tiny_oracle):
    """Per-partition pairedLatest == the oracle's role^tool posting dict
    (one docId per pair, the latest; MiruIndexPairedLatest semantics)."""
    for part, opart in tiny_oracle.items():
        got = plugins.paired_latest_partition(engine.index_dir, part)
        exp = {}
        for i, (a, b) in enumerate(zip(opart.fields["role"], opart.fields["tool"])):
            if a and b:
                exp[(a, b)] = i
        assert {(a, b): d for a, b, d, _ts in got} == exp, part
        # and it must agree with the oracle's own role^tool index
        by_va = {}
        for a, b, d, _ts in got:
            by_va.setdefault(a, set()).add(d)
        assert by_va == {t: set(p) for t, p in opart.post["role^tool"].items()}


def test_paired_latest_merge_and_extend(ray_session, tiny_transcripts_dir, tiny_rows, tiny_oracle, tmp_path_factory):
    """Cross-partition merge matches brute force, and appended rows DISPLACE
    stale latest entries (the bundle is recomputed at extend time)."""
    import pyarrow as pa

    from miru_ray.build import build_index, extend_index

    d = str(tmp_path_factory.mktemp("idx_plat"))
    build_index(tiny_transcripts_dir, d, n_parts=N_PARTS)
    eng = SearchEngine(d)
    assert plugins.paired_latest(eng) == _brute_paired_latest(tiny_oracle)
    eng.close()

    # append one newer turn per conversation seen in partition 0, with a
    # fresh (role, tool) combination that must take over those pairs
    from miru_ray.hashing import fnv1a64

    last_turn = {}
    for r in tiny_rows:
        last_turn[r["conv_id"]] = max(last_turn.get(r["conv_id"], -1), r["turn_idx"])
    all_convs = sorted(last_turn)
    part = fnv1a64(pa.array(all_convs)) % N_PARTS
    convs = [c for c, p in zip(all_convs, part) if p == 0][:3]
    assert len(convs) == 3
    max_ts = max(r["ts"] for r in tiny_rows)
    new = pa.table(
        {
            "conv_id": pa.array(convs, type=pa.string()),
            "turn_idx": pa.array([last_turn[c] + 1 for c in convs], type=pa.int32()),
            "role": pa.array(["freshrole"] * len(convs)),
            "text": pa.array(["brand new turn"] * len(convs)),
            "tool": pa.array(["freshtool"] * len(convs)),
            "ts": pa.array(
                [max_ts + 1_000_000 * (i + 1) for i in range(len(convs))],
                type=pa.timestamp("us"),
            ),
        }
    )
    import os

    import pyarrow.parquet as pq

    src2 = str(tmp_path_factory.mktemp("plat_src2"))
    pq.write_table(new, os.path.join(src2, "plat-e1.parquet"))
    extend_index(src2, d)
    eng2 = SearchEngine(d)
    merged = plugins.paired_latest(eng2)
    pairs = {(a, b) for a, b, *_ in merged}
    assert ("freshrole", "freshtool") in pairs
    # the new pair's hit is the globally newest
    hit = [r for r in merged if r[0] == "freshrole"][0]
    assert hit[4] == max_ts + 1_000_000 * len(convs)
    # old pairs unaffected by the append keep their brute-force answer
    brute = {k[:2]: k for k in _brute_paired_latest(tiny_oracle)}
    for a, b, part, doc, ts in merged:
        if (a, b) in brute and (a, b) != ("freshrole", "freshtool"):
            assert (a, b, part, doc, ts) == brute[(a, b)]
    eng2.close()


def test_composite_field_match(engine, tiny_oracle):
    """Composite-field postings (MiruSchema.java:32 `composite`;
    MiruActivityInternExtern.java:97-146): a `role_tool:va^vb` filter must
    equal the brute-force role==va AND tool==vb scan, docs missing either
    source value excluded; and the index's composite postings must equal
    the oracle's composite posting dict term-for-term."""
    # every composite term present in the corpus
    all_terms = sorted(
        {t for p in tiny_oracle.values() for t in p.post["role_tool"]}
    )
    assert all_terms, "fixture must produce composite terms"
    assert plugins.distincts(engine, "role_tool") == all_terms
    for term in all_terms[:3]:
        va, vb = term.split("\x1e")
        res = engine.match(f"role_tool:{va}^{vb}", parallel=False)
        got = {(r["part"], int(d)) for r in res for d in r["doc_id"]}
        exp = {
            (p.part, i)
            for p in tiny_oracle.values()
            for i in p.post["role_tool"].get(term, {})
        }
        assert got == exp, term


def test_composite_field_extend(ray_session, tiny_transcripts_dir, tiny_rows, tmp_path_factory):
    """Appending rows via extend_index recomputes composite postings over
    the merged forward — old docs keep their terms, new docs gain theirs."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from miru_ray.build import build_index, extend_index

    d = str(tmp_path_factory.mktemp("idx_composite"))
    build_index(tiny_transcripts_dir, d, n_parts=N_PARTS)
    last_turn = {}
    for r in tiny_rows:
        last_turn[r["conv_id"]] = max(last_turn.get(r["conv_id"], -1), r["turn_idx"])
    convs = sorted(last_turn)[:3]
    max_ts = max(r["ts"] for r in tiny_rows)
    new = pa.table(
        {
            "conv_id": pa.array(convs, type=pa.string()),
            "turn_idx": pa.array([last_turn[c] + 1 for c in convs], type=pa.int32()),
            "role": pa.array(["comprole"] * len(convs)),
            "text": pa.array(["composite extend turn"] * len(convs)),
            "tool": pa.array(["comptool"] * len(convs)),
            "ts": pa.array(
                [max_ts + 1_000_000 * (i + 1) for i in range(len(convs))],
                type=pa.timestamp("us"),
            ),
        }
    )
    src2 = str(tmp_path_factory.mktemp("composite_src2"))
    pq.write_table(new, os.path.join(src2, "comp-e1.parquet"))
    extend_index(src2, d)
    eng = SearchEngine(d)
    res = eng.match("role_tool:comprole^comptool", parallel=False)
    got = sorted((c, t) for r in res for c, t in zip(r["conv_id"], r["turn_idx"]))
    assert got == sorted((c, last_turn[c] + 1) for c in convs)
    # pre-existing composite terms survive the recompute
    from miru_ray.oracle import build_oracle_partitions

    oracle = build_oracle_partitions(tiny_rows, n_parts=N_PARTS)
    before = sorted({t for p in oracle.values() for t in p.post["role_tool"]})
    assert set(plugins.distincts(eng, "role_tool")) == set(before) | {"comprole\x1ecomptool"}
    eng.close()


def test_strut_plugin_vs_scan(engine, tiny_rows):
    """Index-backed strut (postings gather) must equal a brute-force text
    scan: per turn, score = mean model weight over the turn's DISTINCT
    model terms (unit_weighted), only turns with >=1 feature returned."""
    from miru_ray.tokenize import py_tokenize

    model = {"t1": 0.05, "t3": 0.2, "t7": 0.01}
    rows = plugins.run_plugin(engine, "strut", model=model)
    got = {(c, t): s for c, t, s in rows}
    expect = {}
    for r in tiny_rows:
        present = set(py_tokenize(r["text"])) & set(model)
        if present:
            expect[(r["conv_id"], r["turn_idx"])] = round(
                sum(model[t] for t in present) / len(present), 6
            )
    assert got.keys() == expect.keys()
    for k, s in expect.items():
        assert abs(got[k] - s) < 1e-9, k
    # a query filter restricts the candidate set like every other plugin
    rows_q = plugins.run_plugin(engine, "strut", model=model, query="t1")
    keys_q = {(c, t) for c, t, _ in rows_q}
    assert keys_q <= got.keys()
    expect_q = {
        (r["conv_id"], r["turn_idx"]) for r in tiny_rows
        if "t1" in py_tokenize(r["text"]) and set(py_tokenize(r["text"])) & set(model)
    }
    assert keys_q == expect_q


def test_more_like_this_vs_oracle(engine, tiny_rows, tiny_oracle):
    """MLT (like-text mode): term selection equals a scalar tf·ln(N/df)
    recomputation over the oracle's postings, and the disjunctive search
    ranks identically to the oracle engine."""
    import math
    from collections import Counter

    from miru_ray.oracle import oracle_search
    from miru_ray.tokenize import py_tokenize

    src_row = tiny_rows[13]
    hits, found, terms = plugins.more_like_this(engine, src_row["text"], k=10)

    # scalar term selection from the oracle's postings
    tf = Counter(py_tokenize(src_row["text"]))
    n_docs = sum(p.n_docs for p in tiny_oracle.values())
    df = {
        t: sum(len(p.post["text"].get(t, ())) for p in tiny_oracle.values())
        for t in tf
    }
    cands = [t for t in tf if df[t] >= 2]
    cands.sort(key=lambda t: (-(tf[t] * math.log(n_docs / df[t])), t))
    assert terms == cands[:5]

    exp_hits, exp_found = oracle_search(tiny_oracle, " OR ".join(terms), 10, "bm25")
    assert found == exp_found
    assert [(h.conv_id, h.turn_idx) for h in hits] == [
        (h.conv_id, h.turn_idx) for h in exp_hits
    ]
    assert np.allclose([h.score for h in hits], [h.score for h in exp_hits], rtol=1e-5)

    # empty / no-selectable-terms inputs degrade cleanly
    assert plugins.more_like_this(engine, "") == ([], 0, [])


def test_uniques_time_range(engine, tiny_oracle):
    """uniques = distincts cardinality inside a MANDATORY explicit time
    range (UniquesInjectable.java:36-54 delegates to the distincts question;
    UniquesQuery.java:32-33 rejects an absent range)."""
    all_ts = sorted(t for p in tiny_oracle.values() for t in p.ts)
    lo, hi = all_ts[len(all_ts) // 4], all_ts[(3 * len(all_ts)) // 4]

    got = plugins.uniques(engine, "tool", (lo, hi), query="t1")
    exp = set()
    for p in tiny_oracle.values():
        for i in oracle_answer(p, "t1"):
            if lo <= p.ts[i] <= hi and p.fields["tool"][i]:
                exp.add(p.fields["tool"][i])
    assert got == len(exp) > 0

    # text-prefix variant exercises the posting-metadata candidate path
    got2 = plugins.uniques(engine, "text", (lo, hi), prefix="w004")
    exp2 = {
        t
        for p in tiny_oracle.values()
        for i in range(p.n_docs)
        if lo <= p.ts[i] <= hi
        for t in p.tokens[i]
        if t.startswith("w004")
    }
    assert got2 == len(exp2) > 0

    # the reference's precondition: no time range is an error
    with pytest.raises(ValueError):
        plugins.uniques(engine, "tool", None)

    # registered on the plugin SPI
    assert (
        plugins.run_plugin(engine, "uniques", field="tool",
                           time_range=(lo, hi), query="t1")
        == got
    )

    # distincts itself honors the range (the question uniques reuses)
    dv = plugins.distincts(engine, "tool", query="t1", time_range=(lo, hi))
    assert sorted(exp) == dv
