"""Porter2 stemmer + en analyzer chain tests.

The contract under test (reference: per-locale Lucene analyzer chains with
stemming, TermAnalyzers.java:50-136; EnglishAnalyzer at ingest,
WikiMiruIndexService.java:463-470):

* the Python kernel (stem.porter2_stem) and the DuckDB SQL CTE chain
  (__ray_entry__._porter2_ctes) are two INDEPENDENT implementations of the
  published Snowball English algorithm — they must agree on every token
  (exception lists, every step, random fuzz, digit-bearing engine tokens);
* the vectorized dictionary-encode path equals the scalar kernel;
* an index built with analyzer="en" matches queries through stemming at
  BOTH ends (ingest-side and query-parse-side), with rank identity across
  surface forms of the same stem.
"""

import random
import sys

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from miru_ray.analyzers import LOCALE_STOPWORDS, get_analyzer
from miru_ray.stem import porter2_stem, stem_array

sys.path.insert(0, "/root/repo")

# spec-published exception words + canonical step examples
CANONICAL = {
    "skis": "ski", "skies": "sky", "dying": "die", "lying": "lie",
    "tying": "tie", "idly": "idl", "gently": "gentl", "ugly": "ugli",
    "early": "earli", "only": "onli", "singly": "singl", "sky": "sky",
    "news": "news", "inning": "inning", "proceed": "proceed",
    "exceeding": "exceed", "caresses": "caress", "ponies": "poni",
    "ties": "tie", "cries": "cri", "cats": "cat", "feed": "feed",
    "agreed": "agre", "bled": "bled", "sing": "sing",
    "conflated": "conflat", "troubled": "troubl", "sized": "size",
    "hopping": "hop", "falling": "fall", "filing": "file",
    "happy": "happi", "say": "say", "by": "by", "relational": "relat",
    "electrical": "electr", "hopeful": "hope", "goodness": "good",
    "revival": "reviv", "allowance": "allow", "inference": "infer",
    "replacement": "replac", "adoption": "adopt", "controlling": "control",
    "eating": "eat", "mating": "mate", "hoping": "hope",
    # the corpus vocabulary's non-identity stems
    "customer": "custom", "merge": "merg", "query": "queri",
    "table": "tabl", "value": "valu",
}


def test_porter2_canonical_pairs():
    for w, want in CANONICAL.items():
        assert porter2_stem(w) == want, (w, porter2_stem(w), want)


def _fuzz_words(n: int = 4000) -> list[str]:
    rng = random.Random(1234)
    letters = "abcdefghijklmnopqrstuvwyz"
    words = set(CANONICAL)
    suffixes = ("s", "es", "ed", "ing", "ly", "ness", "ful", "er", "ation",
                "ational", "ement", "ization", "ance", "ence", "ous", "ive",
                "iti", "al", "ic", "ate", "ion", "able", "ism", "ously",
                "fulli", "lessli", "biliti", "logi", "enci", "anci")
    for w in list(CANONICAL):
        for s in suffixes:
            words.add(w + s)
    for _ in range(n):
        k = rng.randint(1, 12)
        words.add("".join(rng.choice(letters) for _ in range(k)))
    words |= {"w00042", "t1", "x9y", "9999", "abc123", "y2k", "yy", "yyy",
              "ayy", "oyyy", "lyyly", "ox", "a"}
    return sorted(words)


def test_porter2_python_vs_sql():
    """The two independent implementations of the published spec agree on
    a wordlist exercising every step + 4k random fuzz words."""
    import duckdb

    import __ray_entry__ as e

    words = _fuzz_words()
    chain, final = e._porter2_ctes("v")
    vals = ", ".join(f"('{w}')" for w in words)
    q = f"WITH v AS (SELECT * FROM (VALUES {vals}) AS x(t)),\n{chain}\nSELECT t, stem FROM {final}"
    res = dict(duckdb.connect().execute(q).fetchall())
    bad = [(w, porter2_stem(w), res[w]) for w in words if porter2_stem(w) != res[w]]
    assert not bad, bad[:20]


def test_stem_array_equals_scalar():
    words = _fuzz_words(500)
    arr = pa.array(words * 3, pa.string())  # repeats exercise the dictionary path
    got = stem_array(arr).to_pylist()
    want = [porter2_stem(w) for w in words * 3]
    assert got == want
    assert stem_array(pa.array([], pa.string())).to_pylist() == []


def test_memo_lru_eviction_order_and_touch(monkeypatch):
    """The per-language stem memo is an LRU: a hit moves the token to the
    most-recent end, and past the cap the least recently used tokens go
    first — never the whole memo."""
    from collections import OrderedDict

    import miru_ray.stem as St

    monkeypatch.setitem(St._MEMOS, "en", OrderedDict())
    monkeypatch.setattr(St, "_MEMO_CAP", 4)

    def stem(*words):
        return stem_array(pa.array(list(words), pa.string())).to_pylist()

    stem("running", "jumps")
    stem("cats", "flies")
    assert list(St._MEMOS["en"]) == ["running", "jumps", "cats", "flies"]

    # a HIT on running touches it most-recent
    assert stem("running") == ["run"]
    assert list(St._MEMOS["en"]) == ["jumps", "cats", "flies", "running"]

    # two misses at cap → the two least recently used (jumps, cats) evict;
    # the touched running survives
    assert stem("played", "happily") == ["play", "happili"]
    assert list(St._MEMOS["en"]) == ["flies", "running", "played", "happily"]
    # an evicted token stems the same when it comes back
    assert stem("jumps", "running") == ["jump", "run"]
    assert list(St._MEMOS["en"]) == ["played", "happily", "jumps", "running"]


def test_en_analyzer_parity_and_stopwords():
    a = get_analyzer("en")
    texts = ["Merged TABLES are valuable", "the customers keep querying", ""]
    parents, toks = a.flat(pa.array(texts, pa.string()))
    by_row = {}
    for p, t in zip(parents, toks.to_pylist()):
        by_row.setdefault(int(p), []).append(t)
    for i, c in enumerate(texts):
        assert by_row.get(i, []) == a.scalar(c), c
    assert a.scalar("Merged TABLES are valuable") == ["merg", "tabl", "are", "valuabl"]
    # stopwords are removed BEFORE stemming (Lucene chain order)
    assert a.scalar("the customers keep querying", use_stopwords=True) == [
        "custom", "keep", "queri"
    ]
    # locale fallback chop resolves en_GB → en
    assert get_analyzer("en_GB").name == "en"


def test_locale_stopword_analyzers():
    from miru_ray.analyzers import LOCALE_STEMMER_LANG
    from miru_ray.stem import _STEMMERS

    for loc, stops in LOCALE_STOPWORDS.items():
        a = get_analyzer(loc)
        assert a.name == loc
        some = sorted(stops)[:3]
        text = " ".join(some + ["zzqqword"])
        assert a.scalar(text, use_stopwords=True) == ["zzqqword"]
        # without stopword removal the words survive — STEMMED by the
        # locale's full chain (every locale now carries its Snowball
        # stemmer, so the raw forms need not round-trip)
        lang = LOCALE_STEMMER_LANG.get(loc)
        expect = {_STEMMERS[lang](w) if lang else w for w in some}
        assert expect <= set(a.scalar(text, use_stopwords=False))


@pytest.fixture(scope="module")
def en_corpus_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("en_corpus")
    rows = {
        "conv_id": [f"c-{i:04d}" for i in range(8)],
        "turn_idx": pa.array([0] * 8, pa.int32()),
        "role": ["user"] * 8,
        "text": [
            "merging the tables",        # merg tabl
            "merged table values",       # merg tabl valu
            "a merge of queries",        # merg queri
            "customers query the table", # custom queri tabl
            "the customer merged rows",  # custom merg row
            "rows and columns",          # row column
            "value of the query",        # valu queri
            "tables tabled tabling",     # tabl tabl tabl
        ],
        "tool": ["t"] * 8,
        "ts": pa.array([1_700_000_000_000_000 + i for i in range(8)], pa.timestamp("us")),
    }
    pq.write_table(pa.table(rows), str(d / "part-0.parquet"))
    return str(d)


def test_en_index_cross_form_matching(ray_session, en_corpus_dir, tmp_path_factory):
    """Stemming at both ends: every surface form of a stem matches every
    document containing ANY form of that stem, and all forms produce the
    IDENTICAL match set (they collapse to one index term)."""
    from miru_ray.build import build_index
    from miru_ray.search import SearchEngine

    idx = str(tmp_path_factory.mktemp("en_idx"))
    meta = build_index(en_corpus_dir, idx, n_parts=2, analyzer="en")
    assert meta["tokenizer"]["analyzer"] == "en"
    assert meta["tokenizer"]["stem"] == "porter2"
    eng = SearchEngine(idx)

    def keys(q):
        got = set()
        for r in eng.match(q):
            got.update(zip(r["conv_id"], r["turn_idx"]))
        return got

    merge_docs = keys("merge")
    assert merge_docs == keys("merged") == keys("merging") == keys("merges")
    assert {k[0] for k in merge_docs} == {"c-0000", "c-0001", "c-0002", "c-0004"}
    table_docs = keys("tables")
    assert table_docs == keys("tabling") == keys("table")
    assert {k[0] for k in table_docs} == {"c-0000", "c-0001", "c-0003", "c-0007"}
    # AND across stems, cross-form
    assert {k[0] for k in keys("querying customers")} == {"c-0003"}
    # rank identity across surface forms (same stems → same postings/scores)
    h1, f1 = eng.search("merged tables", k=10, scoring="bm25")
    h2, f2 = eng.search("merging tabled", k=10, scoring="bm25")
    assert f1 == f2
    assert [(h.conv_id, h.turn_idx, h.score) for h in h1] == [
        (h.conv_id, h.turn_idx, h.score) for h in h2
    ]


def test_stem_vocab_ds(ray_session):
    from miru_ray.stem import stem_vocab_ds

    t = pa.concat_tables(
        stem_vocab_ds("/root/testdata/sf0.001").iter_batches(batch_format="pyarrow")
    )
    m = dict(zip(t["term"].to_pylist(), t["stem"].to_pylist()))
    assert m["merge"] == "merg" and m["customer"] == "custom"
    assert m["query"] == "queri" and m["the"] == "the"
    # distinct: one row per raw term
    assert len(m) == t.num_rows


def test_highlight_with_en_analyzer():
    """The highlighter's content-side tokens must stem like the index side:
    surface forms highlight through shared stems, spans stay on the
    original surface text."""
    from miru_ray.highlight import highlight

    assert highlight("merged tables", "merging the customer tables", analyzer="en") == (
        "<b>merging</b> the customer <b>tables</b>"
    )
    assert highlight("merged", "nothing relevant here", analyzer="en") is None
    assert highlight("merg*", "merging the customer tables", analyzer="en") == (
        "<b>merging</b> the customer tables"
    )
    # default analyzer unchanged: no stemming, surface forms must match
    assert highlight("merged", "merging the tables", analyzer="default") is None


GERMAN_CANONICAL = {
    "laufen": "lauf", "kinder": "kind", "kindern": "kind",
    "häuser": "haus", "bücher": "buch", "größe": "gross",
    "straßen": "strass", "verständnisse": "verstandnis",
    "möglichkeit": "moglich", "beendigung": "beendig",
    "endungen": "endung", "aufeinander": "aufeinand",
}


def test_german_canonical_pairs():
    from miru_ray.stem import german_stem

    for w, want in GERMAN_CANONICAL.items():
        assert german_stem(w) == want, (w, german_stem(w), want)


def test_german_python_vs_sql():
    """The Python kernel and the recursive-CTE SQL chain implement the same
    published Snowball German spec — fuzz over umlauts/ß/u-y-marking
    chains + suffix pileups."""
    import duckdb

    import __ray_entry__ as e
    from miru_ray.stem import german_stem

    rng = random.Random(99)
    letters = "abcdefghiklmnorstuäöüß" + "uy"
    words = set(GERMAN_CANONICAL) | set(e.DE_STEM_PROBES)
    sufs = ("en", "er", "ern", "em", "es", "e", "s", "est", "st", "end",
            "ung", "ig", "ik", "isch", "lich", "heit", "keit", "igkeit",
            "lichkeit", "nisse", "igung", "erheit", "enlich")
    for w in list(words):
        for s in sufs:
            words.add(w + s)
    for _ in range(3000):
        k = rng.randint(1, 11)
        words.add("".join(rng.choice(letters) for _ in range(k)))
    words |= {"auaua", "auuua", "ayuya", "yuyu", "aßa", "ßß", "nisse",
              "äuä", "üyü", "a", "ab"}
    words = sorted(words)
    chain, final = e._german_ctes("v")
    vals = ", ".join("('%s')" % w for w in words)
    q = f"WITH v AS (SELECT * FROM (VALUES {vals}) AS x(t)),\n{chain}\nSELECT t, stem FROM {final}"
    res = dict(duckdb.connect().execute(q).fetchall())
    bad = [(w, german_stem(w), res[w]) for w in words if german_stem(w) != res[w]]
    assert not bad, bad[:20]


def test_de_analyzer_chain(ray_session, tmp_path_factory):
    """The de analyzer = unicode tokenize → German stopwords → Snowball
    German stem; cross-form matching works through the stems on a built
    index."""
    a = get_analyzer("de")
    assert a.scalar("Die Kinder laufen") == ["die", "kind", "lauf"]
    assert a.scalar("Die Kinder laufen", use_stopwords=True) == ["kind", "lauf"]

    d = tmp_path_factory.mktemp("de_corpus")
    rows = {
        "conv_id": ["c-0", "c-1"],
        "turn_idx": pa.array([0, 0], pa.int32()),
        "role": ["user"] * 2,
        "text": ["die kinder laufen schnell", "häuser und bücher"],
        "tool": ["t"] * 2,
        "ts": pa.array([1, 2], pa.timestamp("us")),
    }
    pq.write_table(pa.table(rows), str(d / "f.parquet"))
    from miru_ray.build import build_index
    from miru_ray.search import SearchEngine

    idx = str(tmp_path_factory.mktemp("de_idx"))
    meta = build_index(str(d), idx, n_parts=1, analyzer="de")
    assert meta["tokenizer"]["stem"] == "snowball-de"
    eng = SearchEngine(idx)
    # cross-form: kindern (dative plural) matches the indexed 'kinder'
    assert eng.count("kindern") == 1
    assert eng.count("haus") == 1  # häuser → haus at ingest; haus → haus at query
    assert eng.count("laufend") == 0  # different stem (lauf vs laufend→lauf? )


def test_highlight_with_de_analyzer():
    """Review regression: the de chain's highlight must tokenize unicode
    and stem the content side (umlauts + cross-form German matching)."""
    from miru_ray.highlight import highlight

    assert highlight("kindern", "die kinder laufen", analyzer="de") == (
        "die <b>kinder</b> laufen"
    )
    assert highlight("haus", "häuser und bücher", analyzer="de") == (
        "<b>häuser</b> und bücher"
    )
    assert highlight("kindern", "nichts passendes hier", analyzer="de") is None
    # fr/es: unicode tokenization (accents kept whole), no stemming
    assert highlight("señal", "la señal es clara", analyzer="es") == (
        "la <b>señal</b> es clara"
    )
