"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported; nothing
here (nor in miru_ray) calls ``ray.init()`` / ``ray.shutdown()``.

The fulltext queries run the REAL engine end-to-end: they derive the
mandated transcripts shape from the sf dir's ``documents`` table
(miru_ray.transcripts — deterministic, mirrored in the SQL), build the
inverted index with the Ray Data pipeline (cached per sf_dir under /tmp,
resume-aware), and answer through the segment query engine. The SQL
oracles recompute the same contract relationally in DuckDB.

Column-name + value parity notes:
* every integer column is int64 / BIGINT on both sides;
* floats that involve accumulation are rounded to a fixed precision in
  BOTH systems; single-division ratios of exact integers are emitted raw
  (IEEE fp64 division is deterministic);
* the fp32 rank-identity contract of the engine (SURVEY.md §3.3) is gated
  by pytest against the pure-python oracle, not by these fp64 SQL checks.
"""

from __future__ import annotations

import functools
import math
import os
from collections.abc import Callable
from typing import Any

import numpy as np
import pyarrow as pa

# ---------------------------------------------------------------- constants

TOKRE = "[a-z0-9]+"
POSTING_TERMS = ("data", "join", "scan", "the")  # fixed probe terms
TOPK_TERMS = ("the", "scan")  # fixed 2-term AND query for fp64 scoring parity
K_TFIDF = 20
K_BM25 = 20
K_TIME = 15
ANN_NQ = 8
ANN_K = 10
ANN_PLANES = 12
ANN_PROBE = 4
ANN_DIM = 64  # embeddings table dim (constant across sf dirs)

_TOK = f"regexp_extract_all(lower(text), '{TOKRE}')"
_TOKTAB = f"SELECT doc_id, unnest({_TOK}) AS t FROM documents"


def _i64(a) -> pa.Array:
    return pa.array(np.asarray(a, dtype=np.int64), type=pa.int64())


def _doc_ids_from_match(results: list[dict]) -> pa.Table:
    from miru_ray.transcripts import conv_to_doc_id

    ids: list[int] = []
    for r in results:
        ids.extend(conv_to_doc_id(r["conv_id"]).tolist())
    return pa.table({"doc_id": _i64(sorted(ids))})


def _engine(sf_dir: str, n_parts: int):
    """One engine per (sf_dir, n_parts) and Ray session, so its actor pool
    starts once and serves every callable that queries that index. The
    session is part of the key because a pool dies with its session."""
    import ray

    session = ray.get_runtime_context().get_node_id() if ray.is_initialized() else None
    return _open_engine(sf_dir, n_parts, session)


@functools.lru_cache(maxsize=None)
def _open_engine(sf_dir: str, n_parts: int, session: str | None):
    from miru_ray.search import SearchEngine
    from miru_ray.transcripts import ensure_index

    return SearchEngine(ensure_index(sf_dir, n_parts))


# ------------------------------------------------------- fulltext callables


def ft_token_counts(sf_dir: str):
    from miru_ray.textstats import token_count_ds

    return token_count_ds(sf_dir)


def ft_term_stats(sf_dir: str):
    from miru_ray.textstats import term_stats_ds

    return term_stats_ds(sf_dir)


def ft_postings(sf_dir: str) -> pa.Table:
    """Posting contents (term, doc_id, tf) for the probe terms, read from the
    BUILT single-partition index (docId == doc_id by construction)."""
    from miru_ray.codec import decode_posting
    from miru_ray.segments import read_postings_for_terms, term_key
    from miru_ray.transcripts import ensure_index

    index_dir = ensure_index(sf_dir, 1)
    t = read_postings_for_terms(index_dir, 0, [term_key("text", w) for w in POSTING_TERMS])
    terms, docs, tfs = [], [], []
    for i in range(t.num_rows):
        term = t["term"][i].as_py().split("\x1f", 1)[1]
        d, f = decode_posting(
            t["doc_bytes"][i].as_py(), t["tf_bytes"][i].as_py(),
            np.asarray(t["blk_first"][i].as_py()), np.asarray(t["blk_count"][i].as_py()),
        )
        terms.extend([term] * len(d))
        docs.append(d)
        tfs.append(f)
    return pa.table(
        {
            "term": pa.array(terms, type=pa.string()),
            "doc_id": _i64(np.concatenate(docs) if docs else []),
            "tf": _i64(np.concatenate(tfs) if tfs else []),
        }
    )


def ft_doclen(sf_dir: str) -> pa.Table:
    """Doc-length table from the index's forward segment (end-to-end check of
    the build's forward/doc-length path)."""
    from miru_ray.segments import forward_columns
    from miru_ray.transcripts import conv_to_doc_id, ensure_index

    index_dir = ensure_index(sf_dir, 1)
    fwd = forward_columns(index_dir, 0)
    doc_ids = conv_to_doc_id(fwd["conv_id"].to_pylist())
    return pa.table({"doc_id": _i64(doc_ids), "dl": _i64(fwd["dl"])})


def _match(sf_dir: str, query: str) -> pa.Table:
    return _doc_ids_from_match(_engine(sf_dir, 4).match(query))


def ft_match_and(sf_dir: str):
    return _match(sf_dir, "the scan")


def ft_match_or(sf_dir: str):
    return _match(sf_dir, "scan OR merge")


def ft_match_not(sf_dir: str):
    return _match(sf_dir, "scan AND NOT merge")


def ft_match_prefix(sf_dir: str):
    return _match(sf_dir, "sca*")


def ft_match_field(sf_dir: str):
    # role carries the documents `source` column in the derived transcripts
    return _match(sf_dir, "role:src3 scan")


def ft_match_range(sf_dir: str):
    # numeric range terms: turn_idx = doc_id % 41 in the derived transcripts
    # (Prefix.NUMERIC lex-encoded postings + [lo TO hi] term-range scan)
    return _match(sf_dir, "turn_idx:[5 TO 12] scan")


FUZZY_TERM = "part"  # `part~2` expands to {fast, part, sort, spark} here
K_FUZZY = 20


def ft_match_fuzzy(sf_dir: str):
    """FuzzyQuery (`term~N`, Lucene syntax): per-partition term-dictionary
    scan + vectorized Levenshtein≤N expansion (search._fuzzy_filter), then
    the normal OR evaluation — mirrored in SQL via levenshtein()."""
    return _match(sf_dir, f"{FUZZY_TERM}~2")


REGEXP_PAT = "scan|merge|so.t"  # top-level alternation + dot class → {scan, merge, sort}


def ft_match_regexp(sf_dir: str):
    """RegexpQuery (`/pattern/`, Lucene syntax, anchored): dictionary
    expansion via one vectorized anchored RE2 pass, then the normal OR
    evaluation — DuckDB mirrors with regexp_full_match (also RE2)."""
    return _match(sf_dir, f"/{REGEXP_PAT}/")


SUGGEST_TERM = "sow"  # ≤2 edits from {row, slow, sort, ...} in this corpus
SUGGEST_K = 5


def ft_suggest(sf_dir: str) -> pa.Table:
    """Did-you-mean (SearchEngine.suggest, Lucene DirectSpellChecker
    analogue): dictionary candidates within 2 edits ranked by (corpus df
    desc, distance asc, term asc); df summed over a 4-partition index —
    must equal the corpus-level SQL."""
    eng = _engine(sf_dir, 4)
    rows = eng.suggest(SUGGEST_TERM, k=SUGGEST_K, max_dist=2)
    return pa.table(
        {
            "term": pa.array([r[0] for r in rows], type=pa.string()),
            "df": _i64([r[1] for r in rows]),
            "dist": _i64([r[2] for r in rows]),
        }
    )


def ft_match_synonyms(sf_dir: str) -> pa.Table:
    """Query-time synonym expansion (Lucene SynonymQuery spirit,
    filters.expand_synonyms): 'fast' also matches 'slow'/'quick' via the
    multi-valued-FieldFilter union — identical to the OR the user could
    have typed, mirrored as OR in SQL."""
    from miru_ray.transcripts import conv_to_doc_id

    eng = _engine(sf_dir, 4)
    out = []
    for r in eng.match("fast AND NOT batch",
                       synonyms={"fast": ["slow", "quick"]}):
        out.extend(conv_to_doc_id(r["conv_id"]))
    return pa.table({"doc_id": _i64(sorted(out))})


def ft_suggest_prefix(sf_dir: str) -> pa.Table:
    """Autocomplete (SearchEngine.suggest_prefix, Lucene TermsComponent
    analogue): 's'-prefixed dictionary terms ranked by (corpus df desc,
    term asc); df summed over a 4-partition index — must equal the
    corpus-level SQL."""
    eng = _engine(sf_dir, 4)
    rows = eng.suggest_prefix("s", k=10)
    return pa.table(
        {
            "term": pa.array([r[0] for r in rows], type=pa.string()),
            "df": _i64([r[1] for r in rows]),
        }
    )


def ft_topk_fuzzy(sf_dir: str) -> pa.Table:
    """Reference TF-IDF over the fuzzy expansion's union answer, fp64 with
    a fixed sorted-term accumulation order, mirrored in SQL. (The engine's
    fp32 scored path is rank-identity pytest-gated in test_build_search.)"""
    from miru_ray.search import PostingSource
    from miru_ray.transcripts import ensure_index

    index_dir = ensure_index(sf_dir, 1)
    spec = f"{FUZZY_TERM}~2"
    src = PostingSource(index_dir, 0, [("text", spec)], 0)
    terms = src.expand("text", spec)
    assert terms, "fuzzy expansion must not be empty on this corpus"
    answer = np.unique(np.concatenate([src.docs("text", t) for t in terms]))
    score = np.zeros(len(answer), dtype=np.float64)
    for t in sorted(terms):
        docs = src.docs("text", t)
        tfs = src.tfs("text", t).astype(np.float64)
        score[np.searchsorted(answer, docs)] += (1.0 / src.ttf[("text", t)]) * tfs
    order = np.lexsort((-answer, -score))[:K_FUZZY]
    return pa.table(
        {"doc_id": _i64(answer[order]), "score": pa.array(np.round(score[order], 6))}
    )


PHRASE_TERMS = ("table", "scan")
PHRASE_Q = '"' + " ".join(PHRASE_TERMS) + '"'
K_PHRASE = 20


def ft_match_phrase(sf_dir: str):
    """Exact phrase match via the positional index (codec.POS_FIELD
    occurrence streams; candidates = AND of the terms, then a vectorized
    position-adjacency intersect). Beyond-reference: the reference's Lucene
    parser THROWS on PhraseQuery (LuceneBackedQueryParser.java:106-109)."""
    return _match(sf_dir, PHRASE_Q)


NEAR_SLOP = 2


def ft_match_near(sf_dir: str):
    """Ordered proximity (sloppy phrase, `"a b"~N`): the phrase terms in
    order with at most NEAR_SLOP intervening tokens per gap — the windowed
    chain over the positional occurrence streams (search._eval_phrase)."""
    return _match(sf_dir, f'"{" ".join(PHRASE_TERMS)}"~{NEAR_SLOP}')


def ft_count(sf_dir: str) -> pa.Table:
    """No-gather match counts (SearchEngine.count, the Lucene
    IndexSearcher.count analogue): the boolean families evaluated with no
    scoring, no forward gather and zero tf-byte decode."""
    eng = _engine(sf_dir, 4)
    fams = [
        ("and", "the scan"),
        ("or", "scan OR merge"),
        ("not", "join AND NOT window"),
        ("field", "role:src3 scan"),
    ]
    return pa.table(
        {
            "q": pa.array([n for n, _ in fams], pa.string()),
            "n": _i64([eng.count(q) for _, q in fams]),
        }
    )


def ft_match_unear(sf_dir: str):
    """Unordered proximity (`"a b"~~N`, SpanNearQuery inOrder=false
    analogue): either order within the slop window — one two-sided
    searchsorted window probe over the packed occurrence keys."""
    return _match(sf_dir, f'"{" ".join(PHRASE_TERMS)}"~~{NEAR_SLOP}')


def ft_topk_phrase(sf_dir: str) -> pa.Table:
    """TF-IDF top-k restricted to exact-phrase docs: the phrase acts as
    the answer filter, scoring is the component terms' reference TF-IDF
    (search._eval_phrase's collector contract) in fp64, mirrored in SQL."""
    from miru_ray.codec import POS_FIELD
    from miru_ray.filters import FieldFilter, Filter
    from miru_ray.search import PostingSource, _eval_phrase
    from miru_ray.transcripts import ensure_index

    index_dir = ensure_index(sf_dir, 1)
    specs = [("text", w) for w in PHRASE_TERMS] + [(POS_FIELD, w) for w in PHRASE_TERMS]
    src = PostingSource(index_dir, 0, specs, 0)
    filt = Filter("phrase", False, [FieldFilter("text", list(PHRASE_TERMS))], [])
    answer = _eval_phrase(filt, src, None)
    t1, t2 = PHRASE_TERMS
    score = (1.0 / src.ttf[("text", t1)]) * _tf_on(src, t1, answer) + (
        1.0 / src.ttf[("text", t2)]
    ) * _tf_on(src, t2, answer)
    order = np.lexsort((-answer, -score))[:K_PHRASE]
    return pa.table(
        {"doc_id": _i64(answer[order]), "score": pa.array(np.round(score[order], 6))}
    )


def ft_topk_unear(sf_dir: str) -> pa.Table:
    """TF-IDF top-k restricted to the unordered-near answer (`"a b"~~N`
    as the filter, search._eval_phrase's ordered=False window): the
    ft_topk_phrase fp64 chain over the wider order-free match set."""
    from miru_ray.codec import POS_FIELD
    from miru_ray.filters import FieldFilter, Filter
    from miru_ray.search import PostingSource, _eval_phrase
    from miru_ray.transcripts import ensure_index

    index_dir = ensure_index(sf_dir, 1)
    specs = [("text", w) for w in PHRASE_TERMS] + [(POS_FIELD, w) for w in PHRASE_TERMS]
    src = PostingSource(index_dir, 0, specs, 0)
    filt = Filter("phrase", False, [FieldFilter("text", list(PHRASE_TERMS))], [],
                  NEAR_SLOP, False)
    answer = _eval_phrase(filt, src, None)
    t1, t2 = PHRASE_TERMS
    score = (1.0 / src.ttf[("text", t1)]) * _tf_on(src, t1, answer) + (
        1.0 / src.ttf[("text", t2)]
    ) * _tf_on(src, t2, answer)
    order = np.lexsort((-answer, -score))[:K_PHRASE]
    return pa.table(
        {"doc_id": _i64(answer[order]), "score": pa.array(np.round(score[order], 6))}
    )


def _topk_answer(sf_dir: str):
    """AND-match the TOPK_TERMS on the 1-partition index; return
    (src, answer docIds, n_docs, avgdl, dl array) for fp64 scoring."""
    from miru_ray.search import PostingSource
    from miru_ray.segments import forward_columns, read_manifest
    from miru_ray.transcripts import ensure_index

    index_dir = ensure_index(sf_dir, 1)
    man = read_manifest(index_dir, 0)
    n_docs = man["metrics"]["n_docs"]
    avgdl = man["metrics"]["total_tokens"] / n_docs
    src = PostingSource(index_dir, 0, [("text", w) for w in TOPK_TERMS], 0)
    answer = None
    for w in TOPK_TERMS:
        d = src.docs("text", w)
        answer = d if answer is None else np.intersect1d(answer, d, assume_unique=True)
    fwd = forward_columns(index_dir, 0)
    return src, answer, n_docs, avgdl, fwd["dl"]


def _tf_on(src, term: str, answer: np.ndarray) -> np.ndarray:
    docs = src.docs("text", term)
    tfs = src.tfs("text", term)
    pos = np.searchsorted(docs, answer)
    return tfs[pos].astype(np.float64)


def ft_topk_tfidf(sf_dir: str) -> pa.Table:
    """Reference TF-IDF formula (FullText.java:99-220: Σ c_t/Σtf_t · tf) in
    fp64 with a fixed expression order, mirrored exactly in the SQL oracle.
    (The fp32 rank-identity variant is pytest-gated.)"""
    src, answer, *_ = _topk_answer(sf_dir)
    t1, t2 = TOPK_TERMS
    score = (1.0 / src.ttf[("text", t1)]) * _tf_on(src, t1, answer) + (
        1.0 / src.ttf[("text", t2)]
    ) * _tf_on(src, t2, answer)
    order = np.lexsort((-answer, -score))[:K_TFIDF]
    return pa.table(
        {"doc_id": _i64(answer[order]), "score": pa.array(np.round(score[order], 6))}
    )


def ft_topk_bm25(sf_dir: str) -> pa.Table:
    """BM25 (k1=1.2, b=0.75, idf=ln(1+(N-df+.5)/(df+.5))) in fp64, fixed
    expression order mirrored in SQL."""
    src, answer, n_docs, avgdl, dl = _topk_answer(sf_dir)
    dl_a = dl[answer].astype(np.float64)
    knorm = 1.2 * (0.25 + 0.75 * (dl_a / avgdl))
    score = np.zeros(len(answer), dtype=np.float64)
    for w in TOPK_TERMS:
        df = src.df[("text", w)]
        idf = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
        tf = _tf_on(src, w, answer)
        score = score + idf * (tf / (tf + knorm))
    order = np.lexsort((-answer, -score))[:K_BM25]
    return pa.table(
        {"doc_id": _i64(answer[order]), "score": pa.array(np.round(score[order], 6))}
    )


# Stemmed-analyzer probes: surface forms ABSENT from the raw corpus whose
# Porter2 stems ('merg', 'custom') equal the stems of corpus words
# ('merge', 'customer') — an unstemmed engine matches nothing, the en
# analyzer chain matches through ingest-side AND query-side stemming.
STEM_QUERY_TERMS = ("merged", "customers")
K_BM25_EN = 20


def ft_stem_terms(sf_dir: str):
    """Distinct raw-token → Porter2-stem vocabulary map (stem.stem_vocab_ds).
    The SQL oracle is an INDEPENDENT implementation of the published Porter2
    spec as a DuckDB CTE chain (_porter2_ctes) — the two-implementation
    pattern of the splitmix64 hash oracles (DuckDB's stem() lives in the fts
    extension, not installable offline)."""
    from miru_ray.stem import stem_vocab_ds

    return stem_vocab_ds(sf_dir)


# German stemming probes: umlauts, ß, the niss rule, nested d-suffixes,
# and u/y-marking chains — shared verbatim by the engine callable and the
# SQL oracle, each of which stems them with its OWN implementation.
DE_STEM_PROBES = (
    "laufen", "läuft", "kinder", "kindern", "häuser", "bücher", "größe",
    "straßen", "verständnisse", "möglichkeit", "freundlichkeit",
    "beendigung", "endungen", "aufeinanderfolgenden", "schönheit",
    "wirksamkeit", "verständlich", "üblicherweise", "zusammengehörigkeit",
    "bauernhof", "auauua", "ayua", "mayonnaise", "treibst", "nisse",
)


def ft_stem_terms_de(sf_dir: str) -> pa.Table:
    """Corpus vocab ∪ German probe words → Snowball German stems
    (stem.german_stem; the SQL oracle is the independent recursive-CTE
    implementation in _german_ctes)."""
    from miru_ray.stem import stem_array, stem_vocab_ds

    vocab = set(DE_STEM_PROBES)
    for b in stem_vocab_ds(sf_dir, lang="de").iter_batches(batch_format="pyarrow"):
        vocab.update(b["term"].to_pylist())
    terms = pa.array(sorted(vocab), pa.string())
    return pa.table({"term": terms, "stem": stem_array(terms, lang="de")})


# Per-locale stemming probes (ru/nl/es/pt/it — the r5 locale breadth,
# miru_ray/stemmers.py): each list exercises every step of its language's
# published Snowball algorithm — region gating, grouped endings, attached
# pronouns, marking walks, un/doubling, accent handling. Shared verbatim
# by the engine callable and the SQL oracle, each of which stems them
# with its OWN implementation (stemmers.py walk vs snowball_sql.py CTEs).
LOCALE_STEM_PROBES: dict[str, tuple] = {
    "ru": (
        "книга", "книги", "книгами", "красивый", "бегала", "возможность",
        "большой", "ёлка", "пример", "делавши", "прочитав", "умывшись",
        "стараясь", "величайший", "наибольшая", "сильнее", "женщина",
        "женщинами", "говорить", "говорит", "сказала", "новостями",
        "станция", "действительность", "принн", "связь", "связи",
        "осень", "осенью", "программирование", "ует", "ост", "а", "я",
    ),
    "nl": (
        "lichamelijk", "boeken", "maan", "brood", "huizen", "gekken",
        "appelen", "vissen", "katten", "lopend", "koninginnen",
        "grootheid", "mogelijkheden", "belangrijkste", "eigenaardig",
        "zichtbaar", "bruikbare", "eetbaar", "drinkbar", "gemeenten",
        "yoghurt", "baaien", "draaien", "gooien", "kleedje", "vrolijk",
        "gewoonheden", "ogenblikje", "ye",
    ),
    "es": (
        "caminando", "lógica", "canciones", "importancia",
        "generosamente", "felizmente", "capacidades", "comunicativa",
        "nacionalización", "lavándose", "dámelo", "comprándoselos",
        "viviendo", "huyendo", "construyeron", "tuviera", "cantaban",
        "cantarían", "corazón", "razones", "guerra", "llegue", "guía",
        "días", "años", "señorita", "últimamente", "crítica", "único",
    ),
    "pt": (
        "nações", "proposição", "falando", "cantaram", "comeríamos",
        "felizmente", "capacidade", "nacionalidade", "generosidade",
        "grandeza", "belíssimo", "amoroso", "ações", "emoções",
        "corações", "construção", "tradições", "vivendo", "partiu",
        "chegou", "começou", "está", "coração", "irmão", "informação",
        "comunicação", "lógica", "mágico", "rapidamente", "seguiu",
    ),
    "fr": (
        "jouer", "chanter", "chantaient", "continuité", "nationalité",
        "majestueux", "finissait", "logiquement", "éléments", "chevaux",
        "journaux", "amicalement", "abondamment", "évidemment", "yeux",
        "croyiez", "conditionnelle", "baronnes", "chienne", "jetteront",
        "appelle", "précède", "succès", "chanté", "quand", "ennuie",
        "sérieusement", "créatrice", "aiguë", "punissions",
    ),
    "ro": (
        "creativitate", "românesc", "româneşti", "copiii", "frumoasă",
        "lucrează", "muncitorii", "naţional", "naţiune", "abilităţi",
        "iubire", "cartea", "oraşele", "studenţilor", "vorbesc",
        "naționalitate", "țară", "școală", "abilitativitate",
        "icativitate", "lucrurile", "întrebaserăţi", "copilul",
        "frumuseţea", "muncitoare",
    ),
    "da": (
        "undersøgelse", "bogen", "huset", "venligst", "følelsesløst",
        "kongelige", "bakker", "elskede", "kvinderne", "hedens",
        "barnets", "smukkeste", "billigst", "erendes", "kærlighed",
        "møderne", "aftaler", "løst", "husets", "mulighederne",
    ),
    "sv": (
        "undersökningen", "flickorna", "husets", "vackraste",
        "möjlighet", "klokast", "trolöst", "hemskheterna", "pojkarnas",
        "fullt", "väsentligt", "handen", "böckerna", "skolorna",
        "viktigaste", "arbetslöshet", "tidningarnas", "svenskarna",
    ),
    "nb": (
        "undersøkelsen", "bøkene", "husets", "kjærlighetene", "vakrest",
        "forskerne", "hemmelighetens", "merket", "bakkens", "viktigst",
        "hetslov", "arbeidsløshet", "mulighetene", "forskjellige",
        "spørsmålet", "nordmennene", "erte", "kastet",
    ),
    "it": (
        "abbandonata", "nazionale", "felicemente", "importanza",
        "generosità", "comunicazione", "bellissimo", "amichevole",
        "mangiando", "mangiarlo", "prendersela", "dandoglielo",
        "parlare", "parlavano", "finirono", "capiscono", "città",
        "università", "qualità", "perché", "ragazzi", "ragazze",
        "guerra", "acqua", "quindi", "chiudere", "laghi", "amici",
        "luoghi", "abbaiavano",
    ),
}


def _stem_terms_locale(sf_dir: str, lang: str) -> pa.Table:
    """Corpus vocab ∪ locale probe words → Snowball stems for ``lang``
    (stemmers.py; the SQL oracle is the independent CTE-cascade
    implementation in miru_ray/snowball_sql.py)."""
    from miru_ray.stem import stem_array, stem_vocab_ds

    vocab = set(LOCALE_STEM_PROBES[lang])
    for b in stem_vocab_ds(sf_dir, lang=lang).iter_batches(batch_format="pyarrow"):
        vocab.update(b["term"].to_pylist())
    terms = pa.array(sorted(vocab), pa.string())
    return pa.table({"term": terms, "stem": stem_array(terms, lang=lang)})


def ft_stem_terms_ru(sf_dir: str) -> pa.Table:
    return _stem_terms_locale(sf_dir, "ru")


def ft_stem_terms_nl(sf_dir: str) -> pa.Table:
    return _stem_terms_locale(sf_dir, "nl")


def ft_stem_terms_es(sf_dir: str) -> pa.Table:
    return _stem_terms_locale(sf_dir, "es")


def ft_stem_terms_pt(sf_dir: str) -> pa.Table:
    return _stem_terms_locale(sf_dir, "pt")


def ft_stem_terms_it(sf_dir: str) -> pa.Table:
    return _stem_terms_locale(sf_dir, "it")


def ft_stem_terms_fr(sf_dir: str) -> pa.Table:
    return _stem_terms_locale(sf_dir, "fr")


def ft_stem_terms_da(sf_dir: str) -> pa.Table:
    return _stem_terms_locale(sf_dir, "da")


def ft_stem_terms_sv(sf_dir: str) -> pa.Table:
    return _stem_terms_locale(sf_dir, "sv")


def ft_stem_terms_nb(sf_dir: str) -> pa.Table:
    return _stem_terms_locale(sf_dir, "nb")


def ft_stem_terms_ro(sf_dir: str) -> pa.Table:
    return _stem_terms_locale(sf_dir, "ro")


K_BM25_DE = 20
# German-inflected forms of corpus words: the de chain strips -s / -ern
# so the query stems land on the corpus stems (merge→merg, customer→custom)
DE_QUERY_TERMS = ("merges", "customern")


def ft_topk_bm25_de(sf_dir: str) -> pa.Table:
    """BM25 top-k on the de-analyzer (Snowball-German-stemmed) index for
    the STEM_QUERY_TERMS AND query — the German twin of ft_topk_bm25_en:
    stemming at ingest AND at query parse, fp64 fixed expression order;
    the SQL oracle stems corpus and query words with its own recursive-CTE
    German chain (_german_ctes)."""
    from miru_ray.analyzers import get_analyzer
    from miru_ray.search import PostingSource
    from miru_ray.segments import forward_columns, read_manifest
    from miru_ray.transcripts import ensure_index

    index_dir = ensure_index(sf_dir, 1, analyzer="de")
    man = read_manifest(index_dir, 0)
    n_docs = man["metrics"]["n_docs"]
    avgdl = man["metrics"]["total_tokens"] / n_docs
    scalar = get_analyzer("de").scalar
    terms = [t for w in DE_QUERY_TERMS for t in scalar(w)]
    src = PostingSource(index_dir, 0, [("text", w) for w in terms], 0)
    answer = None
    for w in terms:
        d = src.docs("text", w)
        answer = d if answer is None else np.intersect1d(answer, d, assume_unique=True)
    dl = forward_columns(index_dir, 0)["dl"]
    dl_a = dl[answer].astype(np.float64)
    knorm = 1.2 * (0.25 + 0.75 * (dl_a / avgdl))
    score = np.zeros(len(answer), dtype=np.float64)
    for w in terms:
        df = src.df[("text", w)]
        idf = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
        tf = _tf_on(src, w, answer)
        score = score + idf * (tf / (tf + knorm))
    order = np.lexsort((-answer, -score))[:K_BM25_DE]
    return pa.table(
        {"doc_id": _i64(answer[order]), "score": pa.array(np.round(score[order], 6))}
    )


def ft_topk_bm25_en(sf_dir: str) -> pa.Table:
    """BM25 top-k on the en-analyzer (Porter2-stemmed) index for the
    STEM_QUERY_TERMS AND query. Exercises stemming at ingest (index terms
    are stems) and at query parse (the analyzer's scalar twin stems the
    query words); fp64 fixed expression order mirrored in SQL, which stems
    both corpus and query words with its own Porter2 chain."""
    from miru_ray.analyzers import get_analyzer
    from miru_ray.search import PostingSource
    from miru_ray.segments import forward_columns, read_manifest
    from miru_ray.transcripts import ensure_index

    index_dir = ensure_index(sf_dir, 1, analyzer="en")
    man = read_manifest(index_dir, 0)
    n_docs = man["metrics"]["n_docs"]
    avgdl = man["metrics"]["total_tokens"] / n_docs
    scalar = get_analyzer("en").scalar
    terms = [t for w in STEM_QUERY_TERMS for t in scalar(w)]
    src = PostingSource(index_dir, 0, [("text", w) for w in terms], 0)
    answer = None
    for w in terms:
        d = src.docs("text", w)
        answer = d if answer is None else np.intersect1d(answer, d, assume_unique=True)
    dl = forward_columns(index_dir, 0)["dl"]
    dl_a = dl[answer].astype(np.float64)
    knorm = 1.2 * (0.25 + 0.75 * (dl_a / avgdl))
    score = np.zeros(len(answer), dtype=np.float64)
    for w in terms:
        df = src.df[("text", w)]
        idf = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
        tf = _tf_on(src, w, answer)
        score = score + idf * (tf / (tf + knorm))
    order = np.lexsort((-answer, -score))[:K_BM25_EN]
    return pa.table(
        {"doc_id": _i64(answer[order]), "score": pa.array(np.round(score[order], 6))}
    )


K_LMD = 20
LMD_MU = 1500.0


def ft_topk_lmd(sf_dir: str) -> pa.Table:
    """Dirichlet-smoothed query likelihood (Zhai & Lafferty 2004, the
    rank-equivalent sum form: Σ_t ln(1 + tf·T/(μ·ttf)) + |q|·ln(μ/(dl+μ)))
    over the TOPK_TERMS AND answer, fp64 with a fixed expression order
    mirrored in SQL. The engine's fp32 path (scoring="lmd") is
    rank-identity pytest-gated like bm25/tfidf."""
    from miru_ray.segments import read_manifest
    from miru_ray.transcripts import ensure_index

    src, answer, n_docs, avgdl, dl = _topk_answer(sf_dir)
    man = read_manifest(ensure_index(sf_dir, 1), 0)
    T = float(man["metrics"]["total_tokens"])
    dl_a = dl[answer].astype(np.float64)
    score = np.zeros(len(answer), dtype=np.float64)
    for w in TOPK_TERMS:
        ttf = src.ttf[("text", w)]
        tf = _tf_on(src, w, answer)
        score = score + np.log(1.0 + (tf * T) / (LMD_MU * ttf))
    score = score + 2.0 * np.log(LMD_MU / (dl_a + LMD_MU))
    order = np.lexsort((-answer, -score))[:K_LMD]
    return pa.table(
        {"doc_id": _i64(answer[order]), "score": pa.array(np.round(score[order], 6))}
    )


RRF_N = 20
RRF_K = 10
RRF_QVEC = 5
RRF_C = 60  # must equal miru_ray.hybrid.RRF_C (the paper's damping constant)


def ft_rrf(sf_dir: str) -> pa.Table:
    """Hybrid lexical+semantic top-k via reciprocal-rank fusion
    (hybrid.rrf_retrieve; Cormack et al. 2009, the ES/OpenSearch hybrid
    retriever shape): BM25 AND-query candidates (the ft_topk_bm25 fp64
    chain, rank = score desc/doc desc) fused with the RRF_QVEC embedding's
    cosine top-n (the ann_topk round-4 ordering), score = Σ 1/(60+rank).
    Both lists and the fusion are mirrored exactly in SQL."""
    from miru_ray.hybrid import rrf_retrieve

    return rrf_retrieve(sf_dir, TOPK_TERMS, RRF_QVEC, n=RRF_N, k=RRF_K)


K_COLLAPSE = 10


def ft_topk_collapse(sf_dir: str) -> pa.Table:
    """Field-collapsed BM25 top-k (SearchEngine.search(collapse="role"),
    the Lucene CollapsingTopDocsCollector analogue): one best doc per role
    (= documents.source) value, reps ranked (score desc, doc_id desc), in
    fp64 with the fixed ft_topk_bm25 expression order mirrored in SQL.
    (The engine's fp32 collapse path — per-partition per-key bests +
    dedup merge — is rank-identity pytest-gated in tests/test_collapse.py.)"""
    from miru_ray.segments import forward_columns
    from miru_ray.transcripts import ensure_index

    src, answer, n_docs, avgdl, dl = _topk_answer(sf_dir)
    dl_a = dl[answer].astype(np.float64)
    knorm = 1.2 * (0.25 + 0.75 * (dl_a / avgdl))
    score = np.zeros(len(answer), dtype=np.float64)
    for w in TOPK_TERMS:
        df = src.df[("text", w)]
        idf = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
        tf = _tf_on(src, w, answer)
        score = score + idf * (tf / (tf + knorm))
    fwd = forward_columns(ensure_index(sf_dir, 1), 0)
    roles = fwd["role"].take(pa.array(answer)).dictionary_encode()
    codes = roles.combine_chunks().indices.to_numpy(zero_copy_only=False) if isinstance(
        roles, pa.ChunkedArray
    ) else roles.indices.to_numpy(zero_copy_only=False)
    order = np.lexsort((-answer, -score, codes))
    first = np.concatenate([[True], codes[order][1:] != codes[order][:-1]])
    reps = order[first]
    top = reps[np.lexsort((-answer[reps], -score[reps]))][:K_COLLAPSE]
    role_strs = fwd["role"].take(pa.array(answer[top])).to_pylist()
    return pa.table(
        {
            "doc_id": _i64(answer[top]),
            "role": pa.array(role_strs, type=pa.string()),
            "score": pa.array(np.round(score[top], 6)),
        }
    )


GROUP_N = 3
GROUP_M = 2


def ft_group_topk(sf_dir: str) -> pa.Table:
    """Grouped top-k (SearchEngine.group_topk, Lucene grouping / ES
    top_hits): the GROUP_N best roles by their best BM25 hit, each with its
    GROUP_M best docs — fp64 with the ft_topk_bm25 expression order,
    mirrored in SQL window functions. (The engine's two-pass fp32 path is
    rank-identity pytest-gated in tests/test_collapse.py.)"""
    from miru_ray.segments import forward_columns
    from miru_ray.transcripts import ensure_index

    src, answer, n_docs, avgdl, dl = _topk_answer(sf_dir)
    dl_a = dl[answer].astype(np.float64)
    knorm = 1.2 * (0.25 + 0.75 * (dl_a / avgdl))
    score = np.zeros(len(answer), dtype=np.float64)
    for w in TOPK_TERMS:
        df = src.df[("text", w)]
        idf = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
        tf = _tf_on(src, w, answer)
        score = score + idf * (tf / (tf + knorm))
    fwd = forward_columns(ensure_index(sf_dir, 1), 0)
    roles = np.array(fwd["role"].take(pa.array(answer)).to_pylist(), dtype=object)
    # group reps ranked (score desc, doc desc); top GROUP_N roles = the
    # first GROUP_N distinct roles in that order
    order = np.lexsort((-answer, -score))
    top_roles: list = []
    for i in order:
        if roles[i] not in top_roles:
            top_roles.append(roles[i])
            if len(top_roles) == GROUP_N:
                break
    rows_doc, rows_role, rows_score = [], [], []
    for r in top_roles:
        idx = np.flatnonzero(roles == r)
        best = idx[np.lexsort((-answer[idx], -score[idx]))][:GROUP_M]
        rows_doc += list(answer[best])
        rows_role += [r] * len(best)
        rows_score += list(np.round(score[best], 6))
    return pa.table(
        {
            "doc_id": _i64(np.array(rows_doc, dtype=np.int64)),
            "role": pa.array(rows_role, type=pa.string()),
            "score": pa.array(rows_score, type=pa.float64()),
        }
    )


MMR_K = 5
MMR_NCAND = 20


def ft_mmr(sf_dir: str) -> pa.Table:
    """MMR-diversified reranking (ann.mmr_rerank_docs; Carbonell &
    Goldstein 1998): top-20 BM25 AND-query candidates (the ft_topk_bm25
    fp64 chain), then greedy λ·rel − μ·max-cosine-to-selected against the
    documents' embedding vectors (rel rounded 1e-6, cosine 1e-4, ties →
    larger doc_id). The whole chain — candidate cut, rounding contract,
    five greedy stages — is mirrored in SQL (_mmr_oracle_sql)."""
    from miru_ray.ann import mmr_rerank_docs

    return mmr_rerank_docs(sf_dir, TOPK_TERMS, k=MMR_K, n_candidates=MMR_NCAND)


MLT_DOC = 7
MLT_K = 10
MLT_TERMS = 5
MLT_MIN_DF = 2


def ft_mlt(sf_dir: str) -> pa.Table:
    """More-like-this (plugins.more_like_this, Lucene MLT like(text) mode):
    source = documents row MLT_DOC; top-5 terms by tf·ln(N/df), df ≥ 2,
    ties term asc; disjunctive BM25 over the union of the selected terms'
    postings in fp64 with a fixed term order, mirrored in SQL. (The
    engine's fp32 plugin path is rank-identity pytest-gated.)"""
    from collections import Counter

    import pyarrow.compute as pc
    import pyarrow.dataset as pads

    from miru_ray.plugins import term_dfs_partition
    from miru_ray.search import PostingSource
    from miru_ray.segments import forward_columns, read_manifest
    from miru_ray.tokenize import py_tokenize
    from miru_ray.transcripts import ensure_index

    index_dir = ensure_index(sf_dir, 1)
    dt = pads.dataset(
        os.path.join(sf_dir, "documents.parquet"), format="parquet"
    ).to_table(filter=pc.field("doc_id") == MLT_DOC, columns=["text"])
    tf = Counter(py_tokenize(dt["text"][0].as_py()))
    df = term_dfs_partition(index_dir, 0, "text", sorted(tf))
    man = read_manifest(index_dir, 0)
    n_docs = man["metrics"]["n_docs"]
    avgdl = man["metrics"]["total_tokens"] / n_docs
    cands = [t for t in tf if df.get(t, 0) >= MLT_MIN_DF]
    cands.sort(key=lambda t: (-(tf[t] * math.log(n_docs / df[t])), t))
    sel = cands[:MLT_TERMS]
    src = PostingSource(index_dir, 0, [("text", t) for t in sel], 0)
    answer = None
    for t in sel:
        d = src.docs("text", t)
        answer = d if answer is None else np.union1d(answer, d)
    dl_a = forward_columns(index_dir, 0)["dl"][answer].astype(np.float64)
    knorm = 1.2 * (0.25 + 0.75 * (dl_a / avgdl))
    score = np.zeros(len(answer), dtype=np.float64)
    for t in sorted(sel):
        docs = src.docs("text", t)
        tfs = src.tfs("text", t).astype(np.float64)
        idf = math.log(1.0 + (n_docs - df[t] + 0.5) / (df[t] + 0.5))
        pos = np.searchsorted(answer, docs)
        contrib = np.zeros(len(answer), dtype=np.float64)
        contrib[pos] = idf * (tfs / (tfs + knorm[pos]))
        score = score + contrib
    order = np.lexsort((-answer, -score))[:MLT_K]
    return pa.table(
        {"doc_id": _i64(answer[order]), "score": pa.array(np.round(score[order], 6))}
    )


def ft_topk_time(sf_dir: str) -> pa.Table:
    """TIME strategy (FullText.java:222-251): newest K_TIME matching docs,
    score 0 — run through the real engine."""
    eng = _engine(sf_dir, 1)
    hits, _found = eng.search(" ".join(TOPK_TERMS), k=K_TIME, scoring="time")
    from miru_ray.transcripts import conv_to_doc_id

    ids = conv_to_doc_id([h.conv_id for h in hits])
    return pa.table({"doc_id": _i64(ids)})


def ft_topk_time_range(sf_dir: str) -> pa.Table:
    """TIME strategy on a RANGE-partitioned index (the reference's
    time-segment rollover, MiruPartitioner.java:106-165): disjoint ts zone
    maps make the newest-first partition walk short-circuit
    (FullTextAnswerEvaluator.java:18-35) — the serial walk must answer
    without asking every partition, and the answer must equal the
    hash-partitioned ft_topk_time result."""
    from miru_ray.search import SearchEngine
    from miru_ray.transcripts import conv_to_doc_id, ensure_range_index

    eng = SearchEngine(ensure_range_index(sf_dir, n_parts=4))
    hits, _found = eng.search(
        " ".join(TOPK_TERMS), k=K_TIME, scoring="time", parallel=False
    )
    if len(eng.parts) > 1 and eng.last_parts_asked >= len(eng.parts):
        raise AssertionError(
            f"TIME early exit did not fire: asked {eng.last_parts_asked} of "
            f"{len(eng.parts)} range partitions"
        )
    ids = conv_to_doc_id([h.conv_id for h in hits])
    return pa.table({"doc_id": _i64(ids)})


BOOST_N = 3


def ft_topk_boost(sf_dir: str) -> pa.Table:
    """Integer boost (`term^N`, Lucene syntax): the collector counts the
    term N times so its score contribution multiplies by N
    (FullText.java:118-127 c_t multipliers) — reference TF-IDF in fp64
    over the AND answer with t1 boosted, mirrored in SQL with the literal
    coefficient."""
    src, answer, *_ = _topk_answer(sf_dir)
    t1, t2 = TOPK_TERMS
    score = (float(BOOST_N) / src.ttf[("text", t1)]) * _tf_on(src, t1, answer) + (
        1.0 / src.ttf[("text", t2)]
    ) * _tf_on(src, t2, answer)
    order = np.lexsort((-answer, -score))[:K_TFIDF]
    return pa.table(
        {"doc_id": _i64(answer[order]), "score": pa.array(np.round(score[order], 6))}
    )


def ft_export(sf_dir: str) -> pa.Table:
    """Match-export sink (SearchEngine.export_match): the full answer of a
    filter query written as one parquet file per index partition
    (atomic + resumable), read back and compared column-by-column against
    the SQL answer (role/tool/turn_idx/ts are the documented deterministic
    derivations of the documents row)."""
    import shutil
    import tempfile

    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from miru_ray.transcripts import conv_to_doc_id

    eng = _engine(sf_dir, 4)
    out = os.path.join(
        tempfile.gettempdir(),
        f"miru_ray_export_{os.path.basename(os.path.normpath(sf_dir))}",
    )
    shutil.rmtree(out, ignore_errors=True)
    res = eng.export_match("scan AND NOT merge", out)
    assert res["files"] == 4 and not res["skipped"]
    import glob

    t = pa.concat_tables(
        [pq.read_table(f) for f in sorted(glob.glob(os.path.join(out, "part-*.parquet")))]
    )
    ids = conv_to_doc_id(t["conv_id"].to_pylist())
    return pa.table(
        {
            "doc_id": _i64(ids),
            "turn_idx": _i64(t["turn_idx"]),
            "role": pc.cast(t["role"], pa.string()),
            "tool": pc.cast(t["tool"], pa.string()),
            "ts": _i64(t["ts"]),
        }
    )


def ft_export_text(sf_dir: str) -> pa.Table:
    """Corpus extraction with text rejoin (extract.export_corpus): the index
    answer broadcast once, the raw source streamed through a vectorized
    semi-join, written as parquet — the exported TEXT must equal the source
    rows the SQL filter selects."""
    import glob
    import shutil
    import tempfile

    import pyarrow.parquet as pq

    from miru_ray.extract import export_corpus
    from miru_ray.transcripts import conv_to_doc_id, ensure_transcripts_parquet

    eng = _engine(sf_dir, 4)
    src = ensure_transcripts_parquet(sf_dir)
    out = os.path.join(
        tempfile.gettempdir(),
        f"miru_ray_extract_{os.path.basename(os.path.normpath(sf_dir))}",
    )
    shutil.rmtree(out, ignore_errors=True)
    export_corpus(eng, "merge AND NOT scan", src, out,
                  columns=["conv_id", "turn_idx", "text"])
    t = pa.concat_tables(
        pq.read_table(f) for f in sorted(glob.glob(out + "/*.parquet"))
    )
    return pa.table(
        {
            "doc_id": _i64(conv_to_doc_id(t["conv_id"].to_pylist())),
            "text": pc_cast_str(t["text"]),
        }
    )


def pc_cast_str(col) -> pa.Array:
    import pyarrow.compute as pc

    return pc.cast(col, pa.string())


_FED_CACHE: dict[str, Any] = {}
FED_K = 25


def _federated(sf_dir: str):
    """Two independently built 2-part indexes over a doc-parity split of the
    corpus, queried as one via FederatedEngine — the reader-tier fan-out
    (MiruService.java:101-194 askAndMerge across hosts). Parity sharding
    makes both shards span the full ts range, so the cross-index merge must
    truly interleave. Cached on disk per sf_dir."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from miru_ray.build import build_index
    from miru_ray.federate import FederatedEngine
    from miru_ray.segments import INDEX_VERSION
    from miru_ray.transcripts import docs_to_transcripts

    key = os.path.abspath(sf_dir)
    hit = _FED_CACHE.get(key)
    if hit is not None:
        return hit
    tag = key.strip("/").replace("/", "_")
    # version in the dir name: a format bump invalidates stale /tmp caches
    base = f"/tmp/miru_ray_fed_{tag}_v{INDEX_VERSION}"
    t = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text", "lang", "source"],
    )
    t = t.take(pc.sort_indices(t, sort_keys=[("doc_id", "ascending")]))
    ids = t["doc_id"].to_numpy()
    dirs = []
    for parity in (0, 1):
        idx = os.path.join(base, f"idx{parity}")
        if not os.path.exists(os.path.join(idx, "index.json")):
            tx = docs_to_transcripts(t.filter(pa.array(ids % 2 == parity)))
            src = os.path.join(base, f"src{parity}")
            os.makedirs(src, exist_ok=True)
            pq.write_table(tx, os.path.join(src, "shard-00000.parquet"))
            build_index(src, idx, n_parts=2)
        dirs.append(idx)
    eng = FederatedEngine(dirs)
    _FED_CACHE[key] = eng
    return eng


def ft_federated_topk(sf_dir: str) -> pa.Table:
    """Federated TIME top-k: the newest FED_K matches across BOTH parity
    shards — answer identical to one index over the union (the federation
    contract)."""
    from miru_ray.transcripts import conv_to_doc_id

    hits, _found = _federated(sf_dir).search("scan", k=FED_K, scoring="time")
    return pa.table({"doc_id": _i64(conv_to_doc_id([h.conv_id for h in hits]))})


def ft_federated_match(sf_dir: str) -> pa.Table:
    """Federated filter-only answer: the union of every shard's matching
    docs for a boolean query."""
    from miru_ray.transcripts import conv_to_doc_id

    out = []
    for r in _federated(sf_dir).match("scan OR merge"):
        out.extend(conv_to_doc_id(r["conv_id"]))
    return pa.table({"doc_id": _i64(sorted(out))})


def ft_topk_page2(sf_dir: str) -> pa.Table:
    """Deep pagination (Lucene IndexSearcher.searchAfter analogue):
    page 2 of the TIME-scored walk = the K_TIME hits strictly after page
    1's last Hit, chained by the cursor across a 4-partition index.
    Integer-ordered (ts/doc) → exact SQL mirror via OFFSET."""
    from miru_ray.transcripts import conv_to_doc_id

    eng = _engine(sf_dir, 4)
    q = " ".join(TOPK_TERMS)
    p1, _f1 = eng.search(q, k=K_TIME, scoring="time", early_exit=False)
    p2, _f2 = eng.search(
        q, k=K_TIME, scoring="time", after=p1[-1], early_exit=False
    )
    ids = conv_to_doc_id([h.conv_id for h in p2])
    return pa.table({"doc_id": _i64(ids)})


# ----------------------------------------------- plugin-operator callables


def ft_distinct_roles(sf_dir: str) -> pa.Table:
    """Distincts plugin analogue: distinct role (=source) values among docs
    matching 'scan', via the index's forward gather."""
    from miru_ray import plugins

    vals = plugins.distincts(_engine(sf_dir, 4), "role", query="scan")
    return pa.table({"role": pa.array(vals, type=pa.string())})


def ft_uniques(sf_dir: str) -> pa.Table:
    """Uniques plugin analogue (UniquesInjectable.java:36-54: the distincts
    question answered as a cardinality, inside the reference's MANDATORY
    explicit time range): distinct tool (=lang) values among docs matching
    'scan' in a ts window, plus distinct 'w004'-prefixed text terms in the
    same window."""
    from miru_ray import plugins

    eng = _engine(sf_dir, 4)
    lo = 1700000000000000 + 100 * 1_000_000
    hi = 1700000000000000 + 400 * 1_000_000
    u_tool = plugins.uniques(eng, "tool", (lo, hi), query="scan")
    u_text = plugins.uniques(eng, "text", (lo, hi), prefix="w004")
    return pa.table(
        {
            "field": pa.array(["text_w004", "tool"], type=pa.string()),
            "uniques": pa.array([u_text, u_tool], type=pa.int64()),
        }
    )


def ft_agg_counts(sf_dir: str) -> pa.Table:
    """AggregateCounts plugin analogue over the 1-partition index: per role,
    matching-doc count + newest matching docId."""
    from miru_ray import plugins

    rows = plugins.aggregate_counts(_engine(sf_dir, 1), "role", query="scan")
    return pa.table(
        {
            "role": pa.array([r[0] for r in rows], type=pa.string()),
            "n": _i64([r[1] for r in rows]),
            "last_doc": _i64([r[3] for r in rows]),
        }
    )


def ft_agg_counts_inbox(sf_dir: str) -> pa.Table:
    """Inbox/unread AggregateCounts variant (AggregateCounts.java:93-300):
    deterministic stream state — inbox = docs with doc_id%3==0, of which
    doc_id%6==0 are marked read — then per-role newest-first counts with
    endpoints and unread flags among docs matching 'scan'."""
    import pyarrow.parquet as pq

    from miru_ray import plugins
    from miru_ray.segments import add_to_inbox, mark_read
    from miru_ray.transcripts import ensure_index

    index_dir = ensure_index(sf_dir, 1)
    ids = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
    )["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)

    def key(i: int) -> tuple[str, int]:
        return (f"doc-{i:08d}", int(i % 41))

    stream = "inbox-oracle"
    inbox_ids = ids[ids % 3 == 0]
    add_to_inbox(index_dir, stream, [key(i) for i in inbox_ids.tolist()])
    mark_read(index_dir, stream, [key(i) for i in ids[ids % 6 == 0].tolist()])

    rows = plugins.aggregate_counts_inbox(
        _engine(sf_dir, 1), stream, "role", query="scan"
    )
    return pa.table(
        {
            "role": pa.array([r[0] for r in rows], type=pa.string()),
            "n": _i64([r[1] for r in rows]),
            "latest_doc": _i64([r[3] for r in rows]),
            "oldest_doc": _i64([r[5] for r in rows]),
            "any_unread": _i64([int(r[6]) for r in rows]),
            "latest_unread": _i64([int(r[7]) for r in rows]),
            "oldest_unread": _i64([int(r[8]) for r in rows]),
        }
    )


def ft_waveform(sf_dir: str) -> pa.Table:
    """Analytics waveform analogue: hourly matching-doc counts ('the')."""
    from miru_ray import plugins

    wf = plugins.waveform(_engine(sf_dir, 4), 3_600_000_000, query="the")
    buckets = sorted(wf)
    return pa.table(
        {
            "bucket_ts": _i64([b // 1_000_000 for b in buckets]),
            "n": _i64([wf[b] for b in buckets]),
        }
    )


def ft_stumptown(sf_dir: str) -> pa.Table:
    """Stumptown answer (Stumptown.java:37-74): the newest-10 matching
    activities chronologically descending, each carrying its hour bucket
    and that bucket's total matching count (the waveform half)."""
    from miru_ray import plugins
    from miru_ray.transcripts import conv_to_doc_id

    rows = plugins.stumptown(_engine(sf_dir, 4), "the", k=10)
    ids = conv_to_doc_id([r[1] for r in rows])
    return pa.table(
        {
            "rank": _i64([r[0] for r in rows]),
            "doc_id": _i64(ids),
            "ts_sec": _i64([r[3] // 1_000_000 for r in rows]),
            "bucket_ts": _i64([r[4] for r in rows]),
            "bucket_n": _i64([r[5] for r in rows]),
        }
    )


def ft_latest_terms(sf_dir: str) -> pa.Table:
    """IndexFirst/IndexLatest analogue: first/last docId + df per probe term,
    straight from the posting metadata columns."""
    from miru_ray import plugins

    rows = plugins.latest_first(_engine(sf_dir, 1), "text")[0]
    sel = [r for r in rows if r[0] in POSTING_TERMS]
    return pa.table(
        {
            "term": pa.array([r[0] for r in sel], type=pa.string()),
            "first_doc": _i64([r[1] for r in sel]),
            "last_doc": _i64([r[2] for r in sel]),
            "df": _i64([r[3] for r in sel]),
        }
    )


def ft_paired_latest(sf_dir: str) -> pa.Table:
    """PairedLatest plugin analogue (MiruIndexPairedLatest.java:36-151) over
    the 4-partition index: for each (role, tool) value pair, the single
    LATEST activity — read from the `role^tool` pairedLatest postings, with
    the cross-partition max-ts merge. Global doc_id recovered from ts
    (ts = epoch + doc_id seconds, partition docIds are local)."""
    from miru_ray import plugins
    from miru_ray.transcripts import BASE_TS_US

    rows = plugins.paired_latest(_engine(sf_dir, 4), "role", "tool")
    return pa.table(
        {
            "role": pa.array([r[0] for r in rows], type=pa.string()),
            "tool": pa.array([r[1] for r in rows], type=pa.string()),
            "doc_id": _i64([(r[4] - BASE_TS_US) // 1_000_000 for r in rows]),
        }
    )


def ft_match_composite(sf_dir: str) -> pa.Table:
    """Composite-field match (MiruSchema.java:32 `composite`;
    MiruActivityInternExtern.java:97-146): one posting lookup on the packed
    (role, tool) = (source, lang) combination instead of an AND of two
    field filters."""
    return _match(sf_dir, "role_tool:src3^en")


def ft_distinct_composite(sf_dir: str) -> pa.Table:
    """Distinct composite terms present in the corpus, read from the
    composite postings' term dictionary (display joiner '^')."""
    from miru_ray import plugins

    terms = plugins.distincts(_engine(sf_dir, 4), "role_tool")
    return pa.table({"term": pa.array([t.replace("\x1e", "^") for t in terms], type=pa.string())})


# ------------------------------------------------------ analytics callables


def ev_waveform(sf_dir: str):
    from miru_ray.analytics import waveform_ds

    return waveform_ds(sf_dir)


CONTRIB_N = 5


def ev_topk_contrib(sf_dir: str):
    """Top-5 users per event type by count (analytics.top_contributors_ds):
    partials → groupby Sum → per-type top-n map_groups; ties → smaller
    user_id; window-function SQL mirror."""
    from miru_ray.analytics import top_contributors_ds

    return top_contributors_ds(sf_dir, n=CONTRIB_N)


def ev_ewma(sf_dir: str):
    """Dyadic integer EWMA over the hourly waveform
    (analytics.ewma_waveform_ds): s_k = (s_{k-1} + n_k·10⁶) // 2 — exact
    int64, mirrored as a recursive CTE (the PeakDet precedent)."""
    from miru_ray.analytics import ewma_waveform_ds

    return ewma_waveform_ds(sf_dir)


ANOMALY_Z = 3.0


def ev_anomaly(sf_dir: str):
    """Z-score anomalous waveform buckets (analytics.anomaly_buckets_ds):
    hourly buckets > 3 population σ above their event type's mean. Exact
    int64 moments; z in fp64 with the SQL-mirrored expression order."""
    from miru_ray.analytics import anomaly_buckets_ds

    return anomaly_buckets_ds(sf_dir, z_thresh=ANOMALY_Z)


def ev_distinct_users(sf_dir: str):
    from miru_ray.analytics import distinct_users_ds

    return distinct_users_ds(sf_dir)


def ev_latest(sf_dir: str):
    from miru_ray.analytics import latest_ds

    return latest_ds(sf_dir)


def ev_trending(sf_dir: str):
    from miru_ray.analytics import trending_ds

    return trending_ds(sf_dir)


HLL_P = 10
QUANTILES = (0.25, 0.5, 0.9, 0.99)


def ev_distinct_sketch(sf_dir: str):
    """HyperLogLog distinct-user sketch per event_type
    (analytics.hll_distinct_ds): deterministic splitmix64 registers →
    groupby max-merge → estimate with linear-counting correction. The
    whole sketch chain is mirrored in DuckDB — a VALUE-CHECKED approximate
    operator (unlike approx_count_distinct, which is a different sketch)."""
    from miru_ray.analytics import hll_distinct_ds

    return hll_distinct_ds(sf_dir, p=HLL_P)


def ev_quantiles(sf_dir: str):
    """Exact per-event_type value quantiles (analytics.quantiles_ds);
    numpy linear interpolation ≡ SQL quantile_cont."""
    from miru_ray.analytics import quantiles_ds

    return quantiles_ds(sf_dir, qs=QUANTILES)


SESSION_GAP_US = 30 * 60 * 1_000_000


def ev_sessionize(sf_dir: str):
    """Gap-based sessionization (analytics.sessionize_ds): per-user maximal
    event bursts with ≤30-min gaps — the windowed aggregate, SQL-checked
    via lag + conditional cumulative sum."""
    from miru_ray.analytics import sessionize_ds

    return sessionize_ds(sf_dir, gap_us=SESSION_GAP_US)


def ev_sessionize_scaled(sf_dir: str):
    """Whale-safe two-level sessionization (analytics.sessionize_scalable_ds):
    sessionize within (user, coarse window) groups, then chain-merge the
    session PIECES per user — identical answers to ev_sessionize without
    any worker ever holding one user's full event history. Same SQL oracle
    as ev_sessionize (the outputs are defined to be equal); the window is
    set small here (4 gaps) so the boundary-merge path actually fires."""
    from miru_ray.analytics import sessionize_scalable_ds

    return sessionize_scalable_ds(
        sf_dir, gap_us=SESSION_GAP_US, window_us=4 * SESSION_GAP_US
    )


def ev_hopping(sf_dir: str):
    """Hopping windows (3 h width, 1 h hop) with a streaming watermark
    (analytics.hopping_window_ds): arrival = event time + deterministic
    splitmix jitter, watermark = max event time of completed 1 h arrival
    epochs, events trailing it by >15 min dropped as late; live events
    count into every covering window."""
    from miru_ray.analytics import hopping_window_ds

    return hopping_window_ds(sf_dir)


def ev_metric_waveform(sf_dir: str):
    """Anomaly-plugin metricing waveforms (analytics.metric_waveform_ds —
    Anomaly.java:36-130): per (event_type, hour) the metric sum and count,
    plus metricingAvg's value — Java long-division averages where the
    bucket has events, linear interpolation with flat edges (the ix=-1 /
    ix=len knot padding) truncated to long where it doesn't. The bit-plane
    sum reconstruction is an artifact of the reference's bitmap engine;
    Arrow sums the quantized metric column directly."""
    from miru_ray.analytics import metric_waveform_ds

    return metric_waveform_ds(sf_dir)


def ev_retention(sf_dir: str):
    """Retention cohorts (analytics.retention_ds): users cohorted by first
    active epoch-day; n_users = distinct users of a cohort active `period`
    days later. Per-batch-deduped (user, day) pairs → groupby(user) →
    answer-sized cohort×period count."""
    from miru_ray.analytics import retention_ds

    return retention_ds(sf_dir)


FUNNEL_STEPS = ["signup", "view", "purchase"]


def ev_funnel(sf_dir: str):
    """Ordered-funnel completion (analytics.funnel_ds): distinct users whose
    events match the step list in strict time order, each step strictly
    after the previous step's earliest match — min-ts chaining, mirrored
    step-for-step in SQL."""
    from miru_ray.analytics import funnel_ds

    return funnel_ds(sf_dir, FUNNEL_STEPS)


QSK_N, QSK_SEED = 256, 7


def ev_quantiles_sketch(sf_dir: str):
    """Whale-safe approximate quantiles (analytics.quantile_sketch_ds):
    per-key bottom-256-by-splitmix64(event_id^seed) sketch — mergeable,
    deterministic, at most n rows per key per batch on the shuffle — then
    quantile_cont over the sample. The oracle mirrors the hash chain and
    the row_number cut exactly, so even the approximation is value-checked."""
    from miru_ray.analytics import quantile_sketch_ds

    return quantile_sketch_ds(sf_dir, qs=QUANTILES, n=QSK_N, seed=QSK_SEED)


def _qsketch_oracle_sql() -> str:
    sm, last = _sm_ctes("qk", "e0", "x", "h")
    qcols = ", ".join(
        f"round(quantile_cont(v, {q}), 6) AS q{int(q * 100):02d}" for q in QUANTILES
    )
    return f"""WITH e0 AS (SELECT event_type AS key, value AS v, event_id,
    xor(CAST(event_id AS UBIGINT), CAST({QSK_SEED} AS UBIGINT)) AS x FROM events),
{sm},
sel AS (SELECT key, v, event_id,
               row_number() OVER (PARTITION BY key ORDER BY h, event_id) AS rn
        FROM {last})
SELECT key, CAST(count(*) AS BIGINT) AS n_sample, {qcols}
FROM sel WHERE rn <= {QSK_N} GROUP BY key"""


ASOF_LEFT, ASOF_RIGHT = "purchase", "click"
RANGE_WIN_TYPE, RANGE_WIN_US = "error", 10 * 60 * 1_000_000


def ev_asof(sf_dir: str):
    """Backward as-of join (analytics.asof_join_ds): each purchase joined
    to the same user's latest click at-or-before it (ties toward the
    larger event_id), -1/0.0 sentinels for unmatched rows. User-keyed
    shuffle of two pre-filtered types; per-group vectorized searchsorted."""
    from miru_ray.analytics import asof_join_ds

    return asof_join_ds(sf_dir, ASOF_LEFT, ASOF_RIGHT)


def ev_asof_scaled(sf_dir: str):
    """Whale-safe as-of join (analytics.asof_join_scalable_ds): same
    output as ev_asof by definition — level 1 resolves within (user,
    day) windows, level 2 fills unmatched lefts from window-count-sized
    boundary state via a 1:1 (user, window) equi-join. Same SQL oracle."""
    from miru_ray.analytics import asof_join_scalable_ds

    return asof_join_scalable_ds(sf_dir, ASOF_LEFT, ASOF_RIGHT)


def ev_range_join(sf_dir: str) -> pa.Table:
    """Overlapping-interval range join (analytics.range_join_ds): every
    error event opens a 10-minute incident window; count + integer-cent
    sum of ALL events in each window. Broadcast sorted window starts, two
    searchsorteds per batch, per-window partials before the groupby."""
    from miru_ray.analytics import range_join_ds

    return range_join_ds(sf_dir, RANGE_WIN_TYPE, RANGE_WIN_US)


def ev_range_join_scaled(sf_dir: str):
    """Co-partitioned range join (analytics.range_join_scalable_ds): same
    output as ev_range_join by definition, but both sides shuffle by
    ts // width (a fixed-width window spans ≤ 2 buckets, so windows ship
    twice, events once, every pair meets exactly once) — no broadcast, no
    driver-side window table. Shared SQL oracle."""
    from miru_ray.analytics import range_join_scalable_ds

    return range_join_scalable_ds(sf_dir, RANGE_WIN_TYPE, RANGE_WIN_US)


IVJ_LEFT, IVJ_RIGHT = "purchase", "error"
IVJ_BEFORE_US = IVJ_AFTER_US = 15 * 60 * 1_000_000


def ev_interval_join(sf_dir: str):
    """Stream-stream interval join (analytics.interval_join_ds — the Flink
    primitive): same-user (purchase, error) pairs within ±15 minutes,
    signed dt. User-keyed shuffle of two pre-filtered types; per group two
    searchsorteds + the repeat/arange pair expansion."""
    from miru_ray.analytics import interval_join_ds

    return interval_join_ds(sf_dir, IVJ_LEFT, IVJ_RIGHT,
                            IVJ_BEFORE_US, IVJ_AFTER_US)


def ev_trending_peaks(sf_dir: str) -> pa.Table:
    """Reference-strategy trending (PEAKS/LEADER/HIGHEST_PEAK/regression —
    TrendingInjectable.java:143-190). The Billauer PeakDet loop is mirrored
    in DuckDB as a recursive-CTE state machine (see
    _trending_peaks_oracle_sql), so even this one is value-checked; golden
    PeakDet vectors are additionally pytest-gated."""
    from miru_ray.analytics import trending_strategies_ds

    return trending_strategies_ds(sf_dir)


# ---------------------------------------------------------- dedup callables


def dd_exact(sf_dir: str):
    from miru_ray.dedup import exact_dedup_ds

    return exact_dedup_ds(sf_dir)


def dd_minhash(sf_dir: str):
    from miru_ray.dedup import minhash_pairs_ds

    return minhash_pairs_ds(sf_dir)


def dd_simhash_groups(sf_dir: str):
    from miru_ray.dedup import simhash_dup_groups_ds

    return simhash_dup_groups_ds(sf_dir)


def dd_clusters(sf_dir: str):
    from miru_ray.dedup import minhash_clusters

    return minhash_clusters(sf_dir, threshold=0.9)


def dd_keep_best(sf_dir: str):
    """Canonicalizing near-dup dedup: per MinHash cluster keep the member
    with the most tokens (ties → smallest doc_id); one corpus pass ships
    only cluster-member token counts off the workers."""
    from miru_ray.dedup import keep_best_ds

    return keep_best_ds(sf_dir, threshold=0.9)


SUBSTR_L = 10
SUBSTR_MIN = 2


def dd_substr_spans(sf_dir: str):
    """ExactSubstr span detection (Lee et al. 2022, dedup.substring_spans_ds):
    merged per-doc spans of token windows (L=10) occurring ≥2 times
    corpus-wide. Two streaming passes (gram-hash combiner → broadcast dup
    set → vectorized island merge); the oracle counts gram STRINGS — fully
    independent of the engine's 64-bit rolling hash."""
    from miru_ray.dedup import substring_spans_ds

    return substring_spans_ds(sf_dir, L=SUBSTR_L, min_count=SUBSTR_MIN)


def dd_substr_clean(sf_dir: str):
    """ExactSubstr removal transform (dedup.substring_clean_ds): every doc
    with its duplicated-token count and the normalized text with duplicated
    spans cut out — clean_text is value-checked against the SQL mirror."""
    from miru_ray.dedup import substring_clean_ds

    return substring_clean_ds(sf_dir, L=SUBSTR_L, min_count=SUBSTR_MIN)


def dd_cdc(sf_dir: str) -> pa.Table:
    """Content-defined chunk dedup (dedup.cdc_dup_chunks_ds — the
    LBFS/rsync boundary rule at token granularity): a token whose FNV-1a
    hash ≡ 0 (mod 8) starts a new chunk; every chunk appearing ≥2 times
    corpus-wide is reported with its count. Hash/recover two-pass; the
    oracle segments by the same mirrored hash and counts chunk STRINGS."""
    from miru_ray.dedup import cdc_dup_chunks_ds

    return cdc_dup_chunks_ds(sf_dir)


LINE_P = 12


def dd_lines(sf_dir: str):
    """CCNet-style duplicate-paragraph removal (dedup.line_dedup_ds,
    Wenzek et al. 2020): paragraphs = ordinal 12-token blocks of the
    normalized token stream (the corpus has no newlines); corpus-duplicated
    blocks are dropped except at their min-doc_id owner; text re-joined
    from the survivors. The oracle counts block STRINGS — independent of
    the engine's FNV hash."""
    from miru_ray.dedup import line_dedup_ds

    return line_dedup_ds(sf_dir, P=LINE_P)


SIMHASH_NEAR_MAXHAM = 3


def dd_simhash_near(sf_dir: str):
    """SimHash hamming≤3 near-dup pairs (dedup.simhash_hamming_pairs_ds):
    4×16-bit block banding (pigeonhole recall 1.0), exact popcount verify,
    min-dedup across bands — the hash chain mirrored end to end in DuckDB."""
    from miru_ray.dedup import simhash_hamming_pairs_ds

    return simhash_hamming_pairs_ds(sf_dir, max_hamming=SIMHASH_NEAR_MAXHAM)


PASSAGE_MIN_SHARED = 2
PASSAGE_MAX_DF = 64


def dd_passages(sf_dir: str):
    """Cross-doc shared-passage pairs (dedup.shared_passage_pairs_ds):
    winnowing fingerprints (k=3, w=4 — the chain already value-checked by
    txt_fingerprints) → inverted fp index → pairs sharing ≥2 fingerprints,
    hot-fp cap mirrored in SQL."""
    from miru_ray.dedup import shared_passage_pairs_ds

    return shared_passage_pairs_ds(
        sf_dir, min_shared=PASSAGE_MIN_SHARED, max_df=PASSAGE_MAX_DF
    )


NGRAM_JACCARD_THRESHOLD = 0.5
NGRAM_MAX_DF = 64


def dd_ngram_jaccard(sf_dir: str):
    """EXACT n-gram Jaccard pairs, routed through the PREFIX-FILTERED join
    (dedup.ngram_jaccard_prefix_ds) at the same (threshold, max_df) — the
    100-TB default since round 4: pair fan-out bounded by the candidate
    mass instead of Σ df². Answer-identical to the plain inverted-index
    join (pytest-gated equality; the plain path stays as the test oracle),
    so the SQL mirror is unchanged."""
    from miru_ray.dedup import ngram_jaccard_prefix_ds

    return ngram_jaccard_prefix_ds(
        sf_dir, threshold=NGRAM_JACCARD_THRESHOLD, max_df=NGRAM_MAX_DF
    )


JACCARD_PREFIX_THRESHOLD = 0.6
JACCARD_PREFIX_MAX_DF = 256


def dd_jaccard_prefix(sf_dir: str):
    """Prefix-filtered EXACT n-gram Jaccard pairs
    (dedup.ngram_jaccard_prefix_ds — the AllPairs/PPJoin principle, Bayardo
    et al. WWW'07; Vernica et al. SIGMOD'10 for the distributed shape):
    candidates from prefix-gram buckets under a rare-first global order,
    verification restricted to candidates — the Σ df² pair fan-out of the
    plain inverted-index join collapses to the candidate mass, so the
    evidence cap sits at 256 instead of 64. The score is exact; pytest
    asserts answer equality with ngram_jaccard_pairs_ds."""
    from miru_ray.dedup import ngram_jaccard_prefix_ds

    return ngram_jaccard_prefix_ds(
        sf_dir, threshold=JACCARD_PREFIX_THRESHOLD, max_df=JACCARD_PREFIX_MAX_DF
    )


# ------------------------------------------------------------ bloom callable


def bloom_index(sf_dir: str) -> pa.Table:
    """Bloom co-occurrence sketch (BloomIndex.java:50-73 sizing formulas +
    MiruIndexBloom compose): per source, the set-bit count and bit sum of
    its bloom over the text tokens — bits are a pure function of the
    distinct (source, token) pairs, so the summary is SQL-checkable."""
    from miru_ray.bloom import bloom_summary_ds

    return bloom_summary_ds(sf_dir, key_col="source")


# ------------------------------------------------------------ strut callable

STRUT_TERMS = ("scan", "merge", "join", "window", "data")


def strut_model(sf_dir: str) -> pa.Table:
    """Catwalk training semantics (StrutModelScore.java:9-13): per feature
    term, weight = (# docs with feature AND the positive term 'the') /
    (# docs with feature) — exact ratios from distributed partial counts."""
    from miru_ray.strut import train_model

    m = train_model(sf_dir, list(STRUT_TERMS), positive_term="the")
    return pa.table(
        {
            "term": pa.array(list(STRUT_TERMS), pa.string()),
            "weight": pa.array([round(m[t], 6) for t in STRUT_TERMS], pa.float64()),
        }
    )


def strut_score(sf_dir: str):
    """Strut model scoring (Strut.java:37-56): term-weight model trained
    from corpus stats, broadcast to an actor pool, UNIT_WEIGHTED (mean over
    the doc's distinct model features)."""
    from miru_ray.strut import strut_score_ds

    return strut_score_ds(sf_dir, list(STRUT_TERMS), strategy="unit_weighted")


def ft_strut(sf_dir: str) -> pa.Table:
    """INDEX-backed Strut (plugins.strut): feature presence from the model
    terms' postings rather than a corpus scan — the reference's
    Strut-as-index-plugin shape (Strut.java:37-56). Emits (doc_id, score)
    for every doc with ≥1 model feature; weights = the same Σtf/total model
    as strut_score, so the oracle shares that weight CTE."""
    from miru_ray.plugins import run_plugin
    from miru_ray.strut import build_model
    from miru_ray.transcripts import conv_to_doc_id

    eng = _engine(sf_dir, 4)
    model = build_model(sf_dir, list(STRUT_TERMS))
    rows = run_plugin(eng, "strut", model=model, strategy="unit_weighted")
    if not rows:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "score": pa.array([], pa.float64())})
    doc_ids = conv_to_doc_id([r[0] for r in rows])
    return pa.table(
        {"doc_id": _i64(doc_ids), "score": pa.array([r[2] for r in rows], pa.float64())}
    )


STRUT_FEATURES = (("source",), ("lang",), ("source", "lang"))
STRUT_POS = "the"


def strut_fields(sf_dir: str):
    """Multi-field catwalk features (MiruAggregateUtil.java:111-257
    gatherFeatures): the model is keyed by field-COMBINATION values —
    [source], [lang], [source,lang] — each with the catwalk
    numerator/denominator ratio (n docs with the combo AND the positive
    term / n docs with the combo); docs score UNIT_WEIGHTED over their
    present combos."""
    from miru_ray.strut import strut_field_score_ds

    return strut_field_score_ds(
        sf_dir, [list(f) for f in STRUT_FEATURES], STRUT_POS,
        strategy="unit_weighted",
    )


# ------------------------------------------------------------ reco callables

RECO_USER = 3
RECO_K = 10
PPR_ITERS = 5


def reco_ppr(sf_dir: str) -> pa.Table:
    """Personalized-PageRank recommendation (reco.reco_ppr_ds — the
    random-walk-with-restart family next to reco_cf's 3-hop counting):
    seeded integer PageRank on the user↔item bipartite graph, top-k items
    the seed hasn't touched. Distributed join+groupby rounds; exact
    micro-unit arithmetic, oracle = the rounds unrolled in BIGINT SQL."""
    from miru_ray.reco import reco_ppr_ds

    return reco_ppr_ds(sf_dir, user_id=RECO_USER, k=RECO_K, iters=PPR_ITERS)


def _ppr_oracle_sql() -> str:
    from miru_ray.reco import OK_EXCLUDE_TYPE, PPR_UNIT

    seed = 2 * RECO_USER
    base = (15 * PPR_UNIT) // 100
    parts = [
        f"""WITH ev AS (SELECT CAST(user_id AS BIGINT) AS u,
         CAST(regexp_replace(props, '[^0-9]', '', 'g') AS BIGINT) AS item
       FROM events WHERE event_type <> '{OK_EXCLUDE_TYPE}'
         AND regexp_replace(props, '[^0-9]', '', 'g') <> ''),
e0 AS (SELECT DISTINCT u * 2 AS un, item * 2 + 1 AS inode FROM ev),
edges AS MATERIALIZED (SELECT un AS src, inode AS dst FROM e0
                       UNION SELECT inode AS src, un AS dst FROM e0),
deg AS MATERIALIZED (SELECT src, CAST(count(*) AS BIGINT) AS d FROM edges GROUP BY src),
r0 AS MATERIALIZED (SELECT src AS node,
       CAST(CASE WHEN src = {seed} THEN {PPR_UNIT} ELSE 0 END AS BIGINT) AS r FROM deg)"""
    ]
    for i in range(PPR_ITERS):
        parts.append(
            f""",
r{i + 1} AS MATERIALIZED (
  SELECT e.dst AS node,
         CAST(CASE WHEN e.dst = {seed} THEN {base} ELSE 0 END AS BIGINT)
           + (85 * sum(r.r // dg.d)) // 100 AS r
  FROM edges e
  JOIN r{i} r ON r.node = e.src
  JOIN deg dg ON dg.src = e.src
  GROUP BY e.dst)"""
        )
    parts.append(
        f"""
SELECT (node - 1) // 2 AS item, CAST(r AS BIGINT) AS rank FROM r{PPR_ITERS}
WHERE node % 2 = 1
  AND (node - 1) // 2 NOT IN (SELECT item FROM ev WHERE u = {RECO_USER})
ORDER BY r DESC, item ASC LIMIT {RECO_K}"""
    )
    return "".join(parts)


def reco_cf(sf_dir: str) -> pa.Table:
    """Collaborative-filtering 3-hop reco over events
    (CollaborativeFiltering.java:58-213): items user RECO_USER hasn't
    touched, scored by top-contributor counts."""
    from miru_ray.reco import reco_cf_ds

    return reco_cf_ds(sf_dir, user_id=RECO_USER, k=RECO_K)


ITEM_SIM_K = 20
ITEM_SIM_CAP = 256  # must equal miru_ray.reco.ITEM_SIM_CAP


def reco_item_sim(sf_dir: str) -> pa.Table:
    """Item-item CF similarity (reco.reco_item_sim_ds; Sarwar et al. 2001):
    top-20 item pairs by co-occurrence cosine over the ok-events
    (user, item) graph; per-user pair evidence capped at 256 smallest item
    ids (mirrored); sim = one fp64 division of exact integers."""
    from miru_ray.reco import reco_item_sim_ds

    return reco_item_sim_ds(sf_dir, k=ITEM_SIM_K, cap=ITEM_SIM_CAP)


# ------------------------------------------------------ text-analysis + ANN


def txt_ttr(sf_dir: str) -> pa.Table:
    """Per-source lexical diversity (textstats.source_ttr_ds): token count,
    distinct-term count, type-token ratio (one exact-int division)."""
    from miru_ray.textstats import source_ttr_ds

    return source_ttr_ds(sf_dir)


def txt_vocab_growth(sf_dir: str) -> pa.Table:
    """Heaps-law vocabulary-growth curve (textstats.vocab_growth_ds):
    per-term first doc via groupby Min, then the answer-sized running sum
    in doc order."""
    from miru_ray.textstats import vocab_growth_ds

    return vocab_growth_ds(sf_dir)


def txt_quality(sf_dir: str):
    from miru_ray.textstats import quality_ds

    return quality_ds(sf_dir)


def txt_repetition(sf_dir: str):
    from miru_ray.textstats import repetition_ds

    return repetition_ds(sf_dir)


def txt_langid(sf_dir: str):
    from miru_ray.textstats import langid_ds

    return langid_ds(sf_dir)


NB_VOCAB = 16


def txt_nb_classify(sf_dir: str):
    """Self-trained multinomial naive-Bayes source classifier
    (textstats.nb_classify_ds): top-16 corpus tokens as the vocab,
    add-one smoothing, argmax with class-asc tie-break — the full
    train→broadcast→score chain mirrored in SQL."""
    from miru_ray.textstats import nb_classify_ds

    return nb_classify_ds(sf_dir, vocab_size=NB_VOCAB)


def txt_fingerprints(sf_dir: str):
    from miru_ray.textstats import fingerprint_ds

    return fingerprint_ds(sf_dir)


NGRAM_N = 3
BPE_MERGES = 8
BPE_CAP = 100


def txt_bpe(sf_dir: str) -> pa.Table:
    """True BPE merge training (textstats.bpe_train_ds, Sennrich et al.
    2016): one distributed word count capped at the declared top-100 words,
    then 8 greedy merges — best pair by (weighted count desc, pair asc),
    re-segmentation = one left-to-right non-overlapping pass (the exact
    semantics of SQL replace() on the spaced piece string, which is how the
    oracle unrolls the loop)."""
    from miru_ray.textstats import bpe_train_ds

    return bpe_train_ds(sf_dir, n_merges=BPE_MERGES, vocab_cap=BPE_CAP)


def txt_bpe_encode(sf_dir: str):
    """Distributed application of the trained BPE merges
    (textstats.bpe_encode_ds): per doc the word count and total BPE token
    count. Merges ride the object store once per actor; each actor
    segments only the DISTINCT words it sees (memoized across batches).
    The merge semantics are the double-space-delimited replace chain —
    provably the greedy token-level pass, and literally the SQL oracle's
    chained replace() calls."""
    from miru_ray.textstats import bpe_encode_ds

    return bpe_encode_ds(sf_dir, n_merges=BPE_MERGES, vocab_cap=BPE_CAP)


def _bpe_train_ctes() -> list[str]:
    """The bpe_train_ds loop unrolled as CTE parts: each step = a weighted
    adjacent-pair count over the current segmentation + one replace()
    re-segmentation feeding the next step. Shared by the training oracle
    (txt_bpe) and the encode oracle (txt_bpe_encode)."""
    parts = [
        f"""tok AS ({_TOKTAB}),
wc AS (SELECT t AS term, CAST(count(*) AS BIGINT) AS n FROM tok GROUP BY t),
cap AS (SELECT term, n FROM wc ORDER BY n DESC, term ASC LIMIT {BPE_CAP}),
w0 AS MATERIALIZED (SELECT regexp_replace(term, '(.)', ' \\1', 'g') AS s, n FROM cap)"""
    ]
    for i in range(1, BPE_MERGES + 1):
        parts.append(
            f"""b{i} AS MATERIALIZED (
  SELECT split_part(pr, chr(31), 1) AS l, split_part(pr, chr(31), 2) AS r, c
  FROM (SELECT pr, sum(n) AS c FROM (
          SELECT n, unnest(list_transform(range(1, len(pcs)),
                             j -> pcs[j] || chr(31) || pcs[j + 1])) AS pr
          FROM (SELECT string_split(trim(s), ' ') AS pcs, n FROM w{i - 1}))
        GROUP BY pr ORDER BY c DESC, pr ASC LIMIT 1))"""
        )
        parts.append(
            f"""w{i} AS MATERIALIZED (SELECT replace(s,
   ' ' || (SELECT l FROM b{i}) || ' ' || (SELECT r FROM b{i}),
   ' ' || (SELECT l FROM b{i}) || (SELECT r FROM b{i})) AS s, n FROM w{i - 1})"""
        )
    return parts


def _bpe_oracle_sql() -> str:
    selects = "\nUNION ALL ".join(
        f"SELECT {i} AS merge_rank, l AS lhs, r AS rhs, CAST(c AS BIGINT) AS freq FROM b{i}"
        for i in range(1, BPE_MERGES + 1)
    )
    return "WITH " + ",\n".join(_bpe_train_ctes()) + "\n" + selects


def _bpe_encode_oracle_sql() -> str:
    """Training CTEs + the encode chain: every distinct (doc, word) is
    rendered as the double-space-delimited piece string (' a  b  c ' —
    one space each side of a piece, two between pieces), then each merge
    rank applies ONE replace(' l  r ', ' lr ') — replace()'s left-to-right
    non-overlapping scan over that representation IS the greedy token-level
    merge pass (see textstats.bpe_replace_count). Token count per word =
    double-space separators + 1."""
    parts = _bpe_train_ctes()
    parts.append(
        "dw AS (SELECT doc_id, t, CAST(count(*) AS BIGINT) AS cnt"
        " FROM tok GROUP BY doc_id, t)"
    )
    parts.append(
        "e0 AS (SELECT doc_id, cnt,"
        " regexp_replace(t, '(.)', ' \\1 ', 'g') AS s FROM dw)"
    )
    for i in range(1, BPE_MERGES + 1):
        parts.append(
            f"""e{i} AS (SELECT doc_id, cnt,
  CASE WHEN (SELECT l FROM b{i}) IS NULL THEN s
       ELSE replace(s, ' ' || (SELECT l FROM b{i}) || '  ' || (SELECT r FROM b{i}) || ' ',
                       ' ' || (SELECT l FROM b{i}) || (SELECT r FROM b{i}) || ' ') END AS s
  FROM e{i - 1})"""
        )
    final = f"""SELECT CAST(doc_id AS BIGINT) AS doc_id,
       CAST(sum(cnt) AS BIGINT) AS n_words,
       CAST(sum(cnt * ((length(s) - length(replace(s, '  ', ' '))) + 1)) AS BIGINT) AS n_bpe
FROM e{BPE_MERGES} GROUP BY doc_id"""
    return "WITH " + ",\n".join(parts) + "\n" + final


NGRAM_K = 20


def txt_top_ngrams(sf_dir: str) -> pa.Table:
    """Corpus-wide frequent n-grams (boilerplate detection,
    textstats.top_ngrams_ds): top-20 token trigrams by total occurrence
    count, (count desc, gram asc). Two-pass hash/recover — the driver only
    ever sees answer-sized candidate sets."""
    from miru_ray.textstats import top_ngrams_ds

    return top_ngrams_ds(sf_dir, n=NGRAM_N, k=NGRAM_K)


SPLIT_FRACTIONS = {"train": 0.9, "val": 0.05, "test": 0.05}


def txt_splits(sf_dir: str):
    """Deterministic train/val/test assignment (textstats.split_ds): split
    is a pure function of splitmix64(doc_id) — stable under re-runs and
    appends; the hash chain and bucket bounds are mirrored in SQL."""
    from miru_ray.textstats import split_ds

    return split_ds(sf_dir, dict(SPLIT_FRACTIONS))


COLLOC_K = 15
COLLOC_MIN = 5


DSIR_TARGET = "src3"


def txt_dsir(sf_dir: str):
    """DSIR importance weights (textstats.dsir_weights_ds — Xie et al.
    2023): per-doc ln-likelihood-ratio of the target domain's
    hashed-unigram LM vs the rest-of-corpus LM, Laplace smoothed, 8192
    fixed feature buckets (constant-size broadcast at any corpus size)."""
    from miru_ray.textstats import dsir_weights_ds

    return dsir_weights_ds(sf_dir, DSIR_TARGET)


def _dsir_oracle_sql() -> str:
    from miru_ray.textstats import DSIR_BUCKETS

    B = DSIR_BUCKETS
    return f"""WITH tok AS ({_TOKTAB}),
tf AS (SELECT doc_id, CAST({_fnv_sql('t')} % {B} AS BIGINT) AS f FROM tok),
lab AS (SELECT doc_id, source = '{DSIR_TARGET}' AS is_t FROM documents),
cnt AS (SELECT f,
          CAST(sum(CASE WHEN is_t THEN 1 ELSE 0 END) AS BIGINT) AS ct,
          CAST(sum(CASE WHEN is_t THEN 0 ELSE 1 END) AS BIGINT) AS cr
        FROM tf JOIN lab USING (doc_id) GROUP BY f),
tot AS (SELECT CAST(sum(ct) AS BIGINT) AS nt, CAST(sum(cr) AS BIGINT) AS nr FROM cnt),
lnr AS (SELECT f,
          ln(((ct + 1.0) / (nt + {B}.0)) / ((cr + 1.0) / (nr + {B}.0))) AS r
        FROM cnt, tot),
w AS (SELECT tf.doc_id, CAST(count(*) AS BIGINT) AS n_tokens,
             round(sum(r), 6) AS dsir_weight
      FROM tf JOIN lnr USING (f) GROUP BY tf.doc_id)
SELECT d.doc_id, COALESCE(w.n_tokens, 0) AS n_tokens,
       COALESCE(w.dsir_weight, 0.0) AS dsir_weight
FROM documents d LEFT JOIN w USING (doc_id)"""


def txt_triangles(sf_dir: str) -> pa.Table:
    """Per-term triangle counts of the co-occurrence graph
    (textstats.triangle_counts_ds): wedges at the lowest-degree vertex
    closed by a hash join against the lex edge set; counts are
    orientation-invariant integers, so the SQL mirror's plain
    lexicographic wedge join is defined equal."""
    from miru_ray.textstats import triangle_counts_ds

    return triangle_counts_ds(sf_dir)


TEXTRANK_K = 50
TEXTRANK_ITERS = 5


def txt_textrank(sf_dir: str) -> pa.Table:
    """Corpus TextRank (textstats.textrank_ds): integer PageRank over the
    undirected adjacent-token co-occurrence graph — edges AND ranks stay
    distributed Datasets, each round one hash join + int64 groupby Sum.
    Micro-unit floor arithmetic makes every sum exact, so the oracle is
    the same five rounds unrolled as MATERIALIZED BIGINT CTEs."""
    from miru_ray.textstats import textrank_ds

    return textrank_ds(sf_dir, k=TEXTRANK_K, iters=TEXTRANK_ITERS)


def _textrank_oracle_sql() -> str:
    from miru_ray.textstats import TEXTRANK_UNIT

    base = (15 * TEXTRANK_UNIT) // 100
    parts = [
        f"""WITH d AS (SELECT doc_id, {_TOK} AS toks FROM documents),
tok AS (SELECT doc_id, unnest(toks) AS t, generate_subscripts(toks, 1) AS ord FROM d),
big0 AS (SELECT t AS a, lead(t) OVER (PARTITION BY doc_id ORDER BY ord) AS b FROM tok),
e0 AS (SELECT DISTINCT a, b FROM big0 WHERE b IS NOT NULL AND a <> b),
edges AS MATERIALIZED (SELECT a AS src, b AS dst FROM e0
                       UNION SELECT b AS src, a AS dst FROM e0),
deg AS MATERIALIZED (SELECT src, CAST(count(*) AS BIGINT) AS d FROM edges GROUP BY src),
r0 AS MATERIALIZED (SELECT src AS node, CAST({TEXTRANK_UNIT} AS BIGINT) AS r FROM deg)"""
    ]
    for i in range(TEXTRANK_ITERS):
        parts.append(
            f""",
r{i + 1} AS MATERIALIZED (
  SELECT e.dst AS node,
         {base} + (85 * sum(r.r // dg.d)) // 100 AS r
  FROM edges e
  JOIN r{i} r ON r.node = e.src
  JOIN deg dg ON dg.src = e.src
  GROUP BY e.dst)"""
        )
    parts.append(
        f"""
SELECT node AS term, CAST(r AS BIGINT) AS rank FROM r{TEXTRANK_ITERS}
ORDER BY r DESC, term ASC LIMIT {TEXTRANK_K}"""
    )
    return "".join(parts)


def txt_collocations(sf_dir: str):
    """Bigram collocations by PMI (textstats.collocations_ds): top-k
    within-doc adjacent bigrams with count ≥ min by ln((c_xy/N_bi) /
    ((c_x/N_uni)·(c_y/N_uni))) — phrase mining; chain mirrored in SQL
    (the declared cand_cap never binds at oracle scale: distinct bigrams
    ≪ cap)."""
    from miru_ray.textstats import collocations_ds

    return collocations_ds(sf_dir, k=COLLOC_K, min_count=COLLOC_MIN)


def _colloc_oracle_sql() -> str:
    return f"""WITH d AS (SELECT doc_id, {_TOK} AS toks FROM documents),
tok AS (SELECT doc_id, unnest(toks) AS t, generate_subscripts(toks, 1) AS ord FROM d),
big0 AS (SELECT t || ' ' || lead(t) OVER (PARTITION BY doc_id ORDER BY ord) AS bg FROM tok),
big AS (SELECT bg FROM big0 WHERE bg IS NOT NULL),
bc AS (SELECT bg, CAST(count(*) AS BIGINT) AS n FROM big GROUP BY bg
       HAVING count(*) >= {COLLOC_MIN}),
uc AS (SELECT t, CAST(count(*) AS BIGINT) AS c FROM tok GROUP BY t),
tot AS (SELECT CAST(count(*) AS DOUBLE) AS nu FROM tok),
totb AS (SELECT CAST(count(*) AS DOUBLE) AS nb FROM big)
SELECT bc.bg AS bigram, bc.n AS n,
       round(ln((CAST(bc.n AS DOUBLE) / totb.nb) /
                ((CAST(ux.c AS DOUBLE) / tot.nu) * (CAST(uy.c AS DOUBLE) / tot.nu))), 6) AS pmi
FROM bc, tot, totb
JOIN uc ux ON ux.t = split_part(bc.bg, ' ', 1)
JOIN uc uy ON uy.t = split_part(bc.bg, ' ', 2)
ORDER BY ln((CAST(bc.n AS DOUBLE) / totb.nb) /
            ((CAST(ux.c AS DOUBLE) / tot.nu) * (CAST(uy.c AS DOUBLE) / tot.nu))) DESC,
         bc.bg ASC
LIMIT {COLLOC_K}"""


WS_SCALE = 2.0
WS_SEED = 11


def txt_weighted_sample(sf_dir: str):
    """Quality-weighted importance resampling (textstats.weighted_sample_ds):
    keep prob = min(1, 2·stopword_ratio), decided by splitmix64(doc_id^seed)
    unit draws — the whole chain (ratio, hash, unit compare) mirrored in
    SQL."""
    from miru_ray.textstats import weighted_sample_ds

    return weighted_sample_ds(
        sf_dir, weight="stopword_ratio", scale=WS_SCALE, seed=WS_SEED
    )


STRAT_N = 10
STRAT_SEED = 7


def txt_stratified_sample(sf_dir: str):
    """Stratified fixed-n sampling (textstats.stratified_sample_ds): the
    n_per smallest splitmix64(doc_id ^ seed) per source — the "cap every
    source at N docs" curation primitive; selection chain mirrored in SQL
    (row_number over the same hash)."""
    from miru_ray.textstats import stratified_sample_ds

    return stratified_sample_ds(
        sf_dir, by="source", n_per=STRAT_N, seed=STRAT_SEED
    )


def _wsample_oracle_sql() -> str:
    from miru_ray.tokenize import STOPWORDS

    stop_list = ", ".join(f"'{w}'" for w in sorted(STOPWORDS))
    U64F = "18446744073709551616.0"
    ratio = (
        f"CASE WHEN len({_TOK}) > 0 "
        f"THEN CAST(len(list_filter({_TOK}, x -> x IN ({stop_list}))) AS BIGINT) "
        f"/ CAST(len({_TOK}) AS BIGINT) ELSE 0.0 END"
    )
    sm, last = _sm_ctes("ws", "d", "x", "h")
    return f"""WITH d AS (SELECT doc_id, least(1.0, {WS_SCALE} * ({ratio})) AS kp,
    xor(CAST(doc_id AS UBIGINT), CAST({WS_SEED} AS UBIGINT)) AS x FROM documents),
{sm}
SELECT CAST(doc_id AS BIGINT) AS doc_id, round(kp, 6) AS keep_p
FROM {last} WHERE CAST(h AS DOUBLE) / {U64F} < kp"""


def _budget_oracle_sql() -> str:
    sm, last = _sm_ctes("tb", "d", "x", "h")
    return f"""WITH d AS (SELECT doc_id, source, CAST(len({_TOK}) AS BIGINT) AS n_tokens,
    xor(CAST(doc_id AS UBIGINT), CAST({TB_SEED} AS UBIGINT)) AS x FROM documents),
{sm},
pre AS (SELECT doc_id, source, n_tokens,
        CAST(COALESCE(sum(n_tokens) OVER (PARTITION BY source ORDER BY h, doc_id
          ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS BIGINT) AS tokens_before
        FROM {last})
SELECT CAST(doc_id AS BIGINT) AS doc_id, source, n_tokens, tokens_before
FROM pre WHERE tokens_before < {TB_BUDGET}"""


def _budget_epochs_oracle_sql() -> str:
    sm, last = _sm_ctes("te", "d", "x", "h")
    return f"""WITH d AS (SELECT doc_id, source, CAST(len({_TOK}) AS BIGINT) AS n_tokens,
    xor(CAST(doc_id AS UBIGINT), CAST({TB_SEED} AS UBIGINT)) AS x FROM documents),
{sm},
tot AS (SELECT source, CAST(sum(n_tokens) AS BIGINT) AS total FROM d GROUP BY source),
pre AS (SELECT doc_id, source, n_tokens,
        CAST(COALESCE(sum(n_tokens) OVER (PARTITION BY source ORDER BY h, doc_id
          ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS BIGINT) AS tokens_before
        FROM {last}),
e AS (SELECT pre.doc_id, pre.source, pre.n_tokens,
        CAST({TB_EPOCH_BUDGET} // tot.total AS BIGINT)
          + CASE WHEN pre.tokens_before < {TB_EPOCH_BUDGET} % tot.total THEN 1 ELSE 0 END AS n_epochs
      FROM pre JOIN tot USING (source))
SELECT CAST(doc_id AS BIGINT) AS doc_id, source, n_tokens, n_epochs
FROM e WHERE n_epochs > 0"""


def _strat_oracle_sql() -> str:
    sm, last = _sm_ctes("st", "d", "x", "h")
    return f"""WITH d AS (SELECT doc_id, source,
    xor(CAST(doc_id AS UBIGINT), CAST({STRAT_SEED} AS UBIGINT)) AS x FROM documents),
{sm}
SELECT CAST(doc_id AS BIGINT) AS doc_id, stratum FROM (
  SELECT doc_id, source AS stratum,
         row_number() OVER (PARTITION BY source ORDER BY h, doc_id) AS rn
  FROM {last}
) WHERE rn <= {STRAT_N}"""


def _hopping_oracle_sql() -> str:
    from miru_ray.analytics import (
        HW_EPOCH_US, HW_HOP_US, HW_JITTER_US, HW_LATE_US, HW_NWIN,
    )

    sm, last = _sm_ctes("hw", "e0", "eid", "smv")
    return f"""WITH e0 AS (SELECT event_type, epoch_us(ts) AS us,
       CAST(round(value * 100.0) AS BIGINT) AS m,
       CAST(event_id AS UBIGINT) AS eid FROM events),
{sm},
e AS (SELECT event_type, us, m,
             us + CAST(smv % {2 * HW_JITTER_US} AS BIGINT) - {HW_JITTER_US} AS aus
      FROM {last}),
e2 AS (SELECT event_type, us, m, aus // {HW_EPOCH_US} AS ep FROM e),
em AS (SELECT ep, max(us) AS mx FROM e2 GROUP BY ep),
pf AS (SELECT ep, max(mx) OVER (ORDER BY ep
         ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS wm FROM em),
live AS (SELECT e2.event_type, e2.us, e2.m FROM e2 JOIN pf USING (ep)
         WHERE pf.wm IS NULL OR e2.us >= pf.wm - {HW_LATE_US}),
exp AS (SELECT event_type, m, ((us // {HW_HOP_US}) - j) * {HW_HOP_US} AS win
        FROM live CROSS JOIN (SELECT unnest(range(0, {HW_NWIN})) AS j) AS js)
SELECT CAST(win // 1000000 AS BIGINT) AS win_ts, event_type,
       CAST(count(*) AS BIGINT) AS n, CAST(sum(m) AS BIGINT) AS sum_metric
FROM exp GROUP BY win, event_type"""


def _splits_oracle_sql() -> str:
    from miru_ray.textstats import split_bounds

    bounds = split_bounds(SPLIT_FRACTIONS)
    case = " ".join(
        f"WHEN bucket >= {lo} AND bucket < {hi} THEN '{label}'"
        for label, lo, hi in bounds
    )
    cover = " OR ".join(f"(bucket >= {lo} AND bucket < {hi})" for _, lo, hi in bounds)
    sm, sm_last = _sm_ctes("spl", "d", "did", "sm")
    return f"""WITH d AS (SELECT doc_id, CAST(doc_id AS UBIGINT) AS did FROM documents),
{sm},
b AS (SELECT doc_id, CAST(sm >> 44 AS BIGINT) AS bucket FROM {sm_last})
SELECT CAST(doc_id AS BIGINT) AS doc_id, bucket, CASE {case} END AS split
FROM b WHERE {cover}"""


def txt_charlm(sf_dir: str):
    """Char-bigram LM quality score (textstats.charlm_score_ds): mean ln
    P(c₂|c₁) per doc under the corpus's own add-one-smoothed bigram model
    over the tokenizer-normalized stream — the perplexity-proxy filter; the
    entire two-pass chain is mirrored in SQL."""
    from miru_ray.textstats import charlm_score_ds

    return charlm_score_ds(sf_dir)


DECONTAM_EVAL_MAX_DOC_ID = 25
DECONTAM_K = 3


def txt_decontam(sf_dir: str):
    """Benchmark decontamination (textstats.decontaminate_ds): a training
    doc (doc_id ≥ eval bound) is contaminated if it shares any token k-gram
    with the eval slice (doc_id < bound) — the GPT-3 appendix-C / PaLM
    procedure. The eval gram-hash set is the canonical ray.put broadcast
    small side; n_hits counts DISTINCT shared grams. Production k=13; the
    tiny fixtures exercise the machinery at k=3 (the same rolling-hash
    chain mirrored in the SQL gram CTEs)."""
    from miru_ray.textstats import decontaminate_ds

    return decontaminate_ds(sf_dir, DECONTAM_EVAL_MAX_DOC_ID, k=DECONTAM_K)


HH_FRAC = (1, 100)
HH_CAP = 400


def txt_heavy_hitters(sf_dir: str):
    """Exact heavy hitters from a bounded-memory sketch
    (textstats.heavy_hitters_ds): terms with corpus frequency > 1% via a
    two-pass Misra-Gries pipeline — ≤ cap counter rows per batch (the
    merged underestimate ≤ N/(cap+1) guarantees a candidate superset),
    then an exact broadcast-candidate count. Answers are exact, so the
    oracle is the plain frequency-threshold SQL."""
    from miru_ray.textstats import heavy_hitters_ds

    return heavy_hitters_ds(sf_dir, frac_num=HH_FRAC[0], frac_den=HH_FRAC[1],
                            cap=HH_CAP)


PERC_QUERIES = {
    "q_and": "scan merge",
    "q_or": "scan OR join",
    "q_not": "scan AND NOT merge",
    "q_field": "role:src3 scan",
    "q_nested": "(scan OR join) AND table",
}


def ft_percolate(sf_dir: str):
    """Percolation (percolate.percolate_ds — the Elasticsearch percolator /
    the reference's realtimeDelivery intent, MiruActivity.java:34-60):
    five standing boolean queries matched against the document stream in
    one pass, queries compiled once per actor, boolean vector algebra over
    a docs×terms presence matrix. The oracle SQL is GENERATED from the
    same parsed ASTs (list_contains conjunctions in the evaluator's
    operand order), so both sides answer the identical tree."""
    from miru_ray.percolate import percolate_ds

    return percolate_ds(sf_dir, PERC_QUERIES)


def _percolate_oracle_sql() -> str:
    from miru_ray.filters import parse_query
    from miru_ray.percolate import FIELD_COLS

    def bexpr(filt) -> str:
        ops = []
        if filt.inclusive:
            ops.append("TRUE")
        for ff in filt.field_filters:
            cs = []
            for v in ff.values:
                if ff.field == "text":
                    cs.append(f"list_contains({_TOK}, '{v}')")
                else:
                    cs.append(f"{FIELD_COLS[ff.field]} = '{v}'")
            ops.append("(" + " OR ".join(cs) + ")")
        for sub in filt.sub_filters:
            ops.append("(" + bexpr(sub) + ")")
        if not ops:
            return "FALSE"
        if filt.op == "and":
            return " AND ".join(ops)
        if filt.op == "or":
            return " OR ".join(ops)
        return ops[0] + "".join(f" AND NOT {o}" for o in ops[1:])

    selects = [
        f"SELECT CAST(doc_id AS BIGINT) AS doc_id, '{qid}' AS query_id "
        f"FROM documents WHERE {bexpr(parse_query(PERC_QUERIES[qid]))}"
        for qid in sorted(PERC_QUERIES)
    ]
    return "\nUNION ALL ".join(selects)


TB_BUDGET = 600
TB_SEED = 5


def txt_budget_sample(sf_dir: str):
    """Token-budget corpus mixing (textstats.token_budget_sample_ds): per
    source, keep docs in splitmix64(doc_id ^ seed) order until the
    cumulative token count reaches 600 (the crossing doc kept) — the
    "N tokens of source X" pre-training mixing primitive; the bucketed
    two-phase prefix-sum chain is mirrored as one SQL window cumsum."""
    from miru_ray.textstats import token_budget_sample_ds

    return token_budget_sample_ds(sf_dir, budget=TB_BUDGET, seed=TB_SEED)


TB_EPOCH_BUDGET = 2000


def txt_budget_epochs(sf_dir: str):
    """Epoch-aware mixing (textstats.token_budget_epochs_ds): budget 2000
    exceeds every source's total, so each doc gets ⌊budget/total⌋ epochs
    plus one more inside the hash-order remainder prefix — the >1-epoch
    over-sampling of small high-quality sources."""
    from miru_ray.textstats import token_budget_epochs_ds

    return token_budget_epochs_ds(sf_dir, budget=TB_EPOCH_BUDGET, seed=TB_SEED)


CURATE_EVAL_MAX = 25
CURATE_K = 4
CURATE_MIN_TOKENS = 20
CURATE_MAX_DUP = 0.08
CURATE_LANG = "en"


def pipe_curate(sf_dir: str):
    """The composed curation pipeline (curate.curate_ds): quality →
    language → repetition → k=4-gram decontamination → exact dedup, as ONE
    streaming pass (one read, one tokenize per doc) plus one row-sized
    dedup exchange. Per-doc verdict = first failing gate. The full chain —
    signals, the gate order, the k=4 rolling-hash contamination test and
    the min-doc_id dedup keeper — is mirrored in SQL."""
    from miru_ray.curate import curate_ds

    return curate_ds(
        sf_dir,
        eval_max_doc_id=CURATE_EVAL_MAX,
        k=CURATE_K,
        min_tokens=CURATE_MIN_TOKENS,
        max_dup_bigram_frac=CURATE_MAX_DUP,
        lang=CURATE_LANG,
    )


CHUNK_MAX_TOKENS = 64
PACK_BUDGET = 512


def txt_chunks(sf_dir: str):
    """Training-sequence chunking (textstats.chunk_ds): each doc's token
    stream in consecutive ≤64-token windows, chunk_text = tokens joined by
    single spaces — value-checked INCLUDING the text (DuckDB list_slice +
    array_to_string mirrors the window exactly)."""
    from miru_ray.textstats import chunk_ds

    return chunk_ds(sf_dir, max_tokens=CHUNK_MAX_TOKENS)


def txt_packing(sf_dir: str):
    """Linear sequence packing (textstats.pack_ds): docs concatenated in
    doc_id order and cut every 512 tokens; pack_id = tokens-before // 512.
    The global prefix sum is the build's two-phase offset pattern (per-file
    totals → exclusive prefix → broadcast bases) — one int per FILE crosses
    the cluster, never per doc."""
    from miru_ray.textstats import pack_ds

    return pack_ds(sf_dir, budget=PACK_BUDGET)


REDACT_PATTERNS = {"entity": r"\bcustomer\b", "metric": r"\b(fast|slow)\b"}


def _redact_oracle_sql(patterns: dict[str, str]) -> str:
    """DuckDB mirror of textstats.redact_ds, generated from the SAME
    pattern map the query runs (single source of truth): each label counts
    matches on the text state the previous labels produced, then replaces
    them — nested regexp_replace, exactly the sequential-kernel order."""
    expr = "text"
    selects = ["CAST(doc_id AS BIGINT) AS doc_id"]
    for label, pat in patterns.items():
        selects.append(
            f"CAST(len(regexp_extract_all({expr}, '{pat}')) AS BIGINT) AS n_{label}"
        )
        expr = f"regexp_replace({expr}, '{pat}', '<{label}>', 'g')"
    selects.append(f"{expr} AS redacted_text")
    return "SELECT " + ",\n  ".join(selects) + " FROM documents"


def txt_redact(sf_dir: str):
    """Pattern scrubbing (textstats.redact_ds): ordered {label: regex} →
    per-doc match counts + the text with every match replaced by <label>,
    in one vectorized RE2 pass. The synthetic corpus has no real PII, so
    the driver query fires on corpus words; textstats.PII_PRESETS
    (email/phone/ipv4) are the production defaults, unit-tested on strings
    containing real PII shapes."""
    from miru_ray.textstats import redact_ds

    return redact_ds(sf_dir, REDACT_PATTERNS)


KEYWORDS_K = 3


def txt_keywords(sf_dir: str):
    """Per-doc TF-IDF keywords (textstats.keywords_ds): top-3 terms by
    tf·ln(N/df), score rounded 1e-6, ties → term asc. Exact global df via a
    groupby(term) exchange of batch-aggregated (doc, term, tf) rows."""
    from miru_ray.textstats import keywords_ds

    return keywords_ds(sf_dir, k=KEYWORDS_K)


def txt_source_stats(sf_dir: str):
    """Per-source corpus quality report (textstats.source_stats_ds): exact
    integer sums (docs/tokens/stopwords/chars) per source through the
    shuffle, ratios computed once from the final sums."""
    from miru_ray.textstats import source_stats_ds

    return source_stats_ds(sf_dir)


def txt_token_bpe(sf_dir: str):
    """BPE-ish tokenizer-cost counts (textstats.bpe_token_count_ds): piece
    and ≤4-char-subword counts from shared re2 class patterns — the count
    is a pure regex-match count, mirrored verbatim in DuckDB."""
    from miru_ray.textstats import bpe_token_count_ds

    return bpe_token_count_ds(sf_dir)


def _round_rerank(t: pa.Table, k: int) -> pa.Table:
    """Rank on 4-decimal-rounded cosine (tie → neighbor asc) so the DuckDB
    oracle (double math) agrees bit-for-bit with the pipeline (fp32 math)."""
    cs = np.round(t["cos"].to_numpy(zero_copy_only=False), 4)
    q = t["q"].to_numpy(zero_copy_only=False)
    nb = t["neighbor"].to_numpy(zero_copy_only=False)
    order = np.lexsort((nb, -cs, q))
    q, nb, cs = q[order], nb[order], cs[order]
    starts = np.flatnonzero(np.concatenate([[True], q[1:] != q[:-1]]))
    rank = np.arange(len(q)) - np.repeat(starts, np.diff(np.concatenate([starts, [len(q)]])))
    keep = rank < k
    return pa.table({"q": _i64(q[keep]), "neighbor": _i64(nb[keep]), "cos": pa.array(cs[keep])})


def ann_topk(sf_dir: str) -> pa.Table:
    from miru_ray.ann import ann_brute_topk

    return _round_rerank(ann_brute_topk(sf_dir, n_queries=ANN_NQ, k=ANN_K), ANN_K)


JL_OUT_DIM = 16


def ann_jl(sf_dir: str):
    """Johnson–Lindenstrauss random projection (ann.jl_project_ds): every
    embedding × the deterministic gaussian plane matrix (the ann_lsh
    splitmix64/Box–Muller chain), scaled 1/√16; long-form (vec_id, dim,
    value) rows, fp64 rounded 4dp. The matrix is inlined literally in the
    SQL mirror."""
    from miru_ray.ann import jl_project_ds

    return jl_project_ds(sf_dir, out_dim=JL_OUT_DIM, dim=ANN_DIM)


def _jl_oracle_sql() -> str:
    from miru_ray.ann import hyperplanes

    planes = hyperplanes(ANN_DIM, JL_OUT_DIM)
    rows = ",\n".join(
        "({}, [{}]::DOUBLE[])".format(j, ", ".join("%.17g" % w for w in planes[j]))
        for j in range(JL_OUT_DIM)
    )
    scale = "%.17g" % float(np.sqrt(JL_OUT_DIM))
    return f"""WITH r(j, w) AS (VALUES {rows})
SELECT e.vec_id, CAST(r.j AS BIGINT) AS dim,
       round(list_dot_product(e.embedding::DOUBLE[], r.w) / {scale}, 4) AS value
FROM embeddings e CROSS JOIN r"""


IVF_STRIDE = 31
IVF_NPROBE = 4


def ann_ivf(sf_dir: str) -> pa.Table:
    """IVF-flat ANN (ann.ann_ivf_topk): strided deterministic coarse
    quantizer, nearest-centroid assignment (rounded-8dp cosine, tie →
    smaller centroid id), nprobe multi-probe per query. Fully mirrored in
    DuckDB — value-checked like ann_lsh."""
    from miru_ray.ann import ann_ivf_topk

    return _round_rerank(
        ann_ivf_topk(sf_dir, n_queries=ANN_NQ, k=ANN_K, stride=IVF_STRIDE, nprobe=IVF_NPROBE),
        ANN_K,
    )


EMBED_ND_THRESHOLD = 0.4
EMBED_ND_BANDS = 8
EMBED_ND_PPB = 4
EMBED_ND_MAXBUCKET = 256


def dd_embed_cosine(sf_dir: str):
    """Embedding-cosine near-dup pairs (ann.embed_neardup_pairs_ds): sign-LSH
    banded bucketing (8 bands × 4 planes), exact cosine within buckets,
    max-dedup across bands. Deterministic planes → the DuckDB oracle mirrors
    the whole chain and value-checks the result."""
    from miru_ray.ann import embed_neardup_pairs_ds

    return embed_neardup_pairs_ds(
        sf_dir, threshold=EMBED_ND_THRESHOLD, bands=EMBED_ND_BANDS,
        planes_per_band=EMBED_ND_PPB, max_bucket=EMBED_ND_MAXBUCKET, dim=ANN_DIM,
    )


def dd_cross_source(sf_dir: str):
    """Cross-source duplicate leakage (dedup.cross_source_pairs_ds): the
    MinHash-LSH near-dup pairs (the dd_minhash chain, est_jaccard ≥ 0.5)
    rolled up by (source_a ≤ source_b) — the pre-training-mix contamination
    audit. SQL mirror reuses the exact dd_minhash CTE chain."""
    from miru_ray.dedup import cross_source_pairs_ds

    return cross_source_pairs_ds(sf_dir)


SEMDEDUP_T = 0.35


def dd_semdedup(sf_dir: str):
    """Semantic dedup (ann.semdedup_ds, SemDeDup-style): nearest-coarse-
    centroid clustering (the ann_ivf assignment convention) then one
    survivor per within-cluster ε-ball (drop any vector with a smaller-id
    neighbor at rounded cosine ≥ t). Fully mirrored in SQL."""
    from miru_ray.ann import semdedup_ds

    return semdedup_ds(sf_dir, stride=IVF_STRIDE, threshold=SEMDEDUP_T)


def ann_knn(sf_dir: str) -> pa.Table:
    """kNN majority-vote labeling (ann.knn_classify): brute cosine top-k
    neighbors per query (the ann_topk machinery + 4-dp rounded rerank), then
    the majority label among them (tie → votes desc, label asc). The weak-
    labeling primitive; fully mirrored in SQL."""
    from miru_ray.ann import knn_classify

    return knn_classify(sf_dir, n_queries=ANN_NQ, k=ANN_K)


PQ_NSUB = 8


def ann_pq(sf_dir: str) -> pa.Table:
    """PQ/ADC approximate top-k (ann.ann_pq_topk): normalized vectors
    encoded per subspace against the strided codebook (the ann_ivf
    sampled-quantizer convention; Lloyd-refined codebooks are pytest-
    checked), queries scored by the ADC lookup-table gather. Every subspace
    distance is round(Σ(a−b)², 8) before argmin/sum on BOTH engines, so the
    whole chain is value-checked in DuckDB."""
    from miru_ray.ann import ann_pq_topk

    return ann_pq_topk(sf_dir, n_queries=ANN_NQ, k=ANN_K, n_sub=PQ_NSUB, stride=IVF_STRIDE)


def ann_hardneg(sf_dir: str) -> pa.Table:
    """Hard-negative mining (ann.hard_negatives): per query vector, the k
    nearest OPPOSITE-label vectors by 4-dp rounded cosine (tie → neighbor
    asc). The label mask runs inside the distributed scan, so the partial
    top-k stays exact for the filtered answer. Fully mirrored in SQL."""
    from miru_ray.ann import hard_negatives

    return hard_negatives(sf_dir, n_queries=ANN_NQ, k=ANN_K)


def ann_centroid(sf_dir: str) -> pa.Table:
    """Nearest-centroid (Rocchio) labeling (ann.centroid_classify): per-label
    mean embedding from one distributed partial-sum pass, then argmax rounded
    cosine per query (tie → label asc). Mirrored end-to-end in SQL (unnest →
    per-position mean → list_cosine_similarity)."""
    from miru_ray.ann import centroid_classify

    return centroid_classify(sf_dir, n_queries=ANN_NQ, dim=ANN_DIM)


def ann_lsh(sf_dir: str) -> pa.Table:
    """Sign-hyperplane LSH ANN. The hash chain is fully deterministic
    (splitmix64-seeded hyperplanes), so the DuckDB oracle mirrors it END TO
    END — plane literals, sign codes, hamming-probe gating, cosine rank —
    and the result is value-checked, not rows-only."""
    from miru_ray.ann import ann_lsh_topk

    return _round_rerank(
        ann_lsh_topk(sf_dir, n_queries=ANN_NQ, k=ANN_K, n_planes=ANN_PLANES, probe=ANN_PROBE),
        ANN_K,
    )


# ------------------------------------------------------------------- driver


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001: derive transcripts →
    Ray Data index build → BM25 + reference-TF-IDF top-k queries."""
    import pandas as pd

    sf_dir = "/root/testdata/sf0.001"
    eng = _engine(sf_dir, 2)
    rows = []
    for q in ("the scan", "scan OR merge", "join AND NOT window"):
        for scoring in ("bm25", "ref_tfidf", "lmd"):
            hits, found = eng.search(q, k=10, scoring=scoring)
            for rank, h in enumerate(hits):
                rows.append(
                    {
                        "query": q,
                        "scoring": scoring,
                        "rank": rank,
                        "conv_id": h.conv_id,
                        "turn_idx": h.turn_idx,
                        "score": h.score,
                        "found": found,
                    }
                )
    return pd.DataFrame(rows)


def queries() -> dict[str, Callable[[str], Any]]:
    return {
        # --- round-5 rotation (REGISTRY.md): new locale/stem queries +
        # the r4 red row first, then every never-driver-checked row and
        # the r1/r2-only block — this window completes the full sweep
        "ft_stem_terms_de": ft_stem_terms_de,
        "ft_stem_terms_ru": ft_stem_terms_ru,
        "ft_stem_terms_nl": ft_stem_terms_nl,
        "ft_stem_terms_es": ft_stem_terms_es,
        "ft_stem_terms_pt": ft_stem_terms_pt,
        "ft_stem_terms_it": ft_stem_terms_it,
        "ft_stem_terms_fr": ft_stem_terms_fr,
        "ft_stem_terms_da": ft_stem_terms_da,
        "ft_stem_terms_sv": ft_stem_terms_sv,
        "ft_stem_terms_nb": ft_stem_terms_nb,
        "ft_stem_terms_ro": ft_stem_terms_ro,
        "ft_topk_bm25_de": ft_topk_bm25_de,
        "dd_keep_best": dd_keep_best,
        "pipe_curate": pipe_curate,
        "txt_chunks": txt_chunks,
        "txt_packing": txt_packing,
        "txt_redact": txt_redact,
        "txt_keywords": txt_keywords,
        "txt_source_stats": txt_source_stats,
        "dd_cross_source": dd_cross_source,
        "dd_semdedup": dd_semdedup,
        "ann_jl": ann_jl,
        "ann_knn": ann_knn,
        "ann_hardneg": ann_hardneg,
        "ann_pq": ann_pq,
        "ann_centroid": ann_centroid,
        "ann_ivf": ann_ivf,
        "dd_embed_cosine": dd_embed_cosine,
        "txt_bpe_encode": txt_bpe_encode,
        "txt_decontam": txt_decontam,
        "ev_distinct_users": ev_distinct_users,
        "ev_latest": ev_latest,
        "ev_trending": ev_trending,
        "ev_trending_peaks": ev_trending_peaks,
        "bloom_index": bloom_index,
        "strut_model": strut_model,
        "strut_score": strut_score,
        "reco_cf": reco_cf,
        "dd_exact": dd_exact,
        "dd_minhash": dd_minhash,
        "dd_simhash_groups": dd_simhash_groups,
        "dd_clusters": dd_clusters,
        "txt_quality": txt_quality,
        "txt_langid": txt_langid,
        "txt_fingerprints": txt_fingerprints,
        "ann_topk": ann_topk,
        "ann_lsh": ann_lsh,
        "ft_token_counts": ft_token_counts,
        "ft_term_stats": ft_term_stats,
        "ft_postings": ft_postings,
        "ft_doclen": ft_doclen,
        "ft_match_and": ft_match_and,
        "ft_match_or": ft_match_or,
        "ft_match_not": ft_match_not,
        "ft_match_prefix": ft_match_prefix,
        "ft_match_field": ft_match_field,
        "ft_match_range": ft_match_range,
        # --- driver-checked green in r3/r4 (past the window)
        "ft_stem_terms": ft_stem_terms,
        "ft_topk_bm25_en": ft_topk_bm25_en,
        "ev_ewma": ev_ewma,
        "ev_topk_contrib": ev_topk_contrib,
        "ev_sessionize": ev_sessionize,
        "ev_sessionize_scaled": ev_sessionize_scaled,
        "ev_retention": ev_retention,
        "ev_funnel": ev_funnel,
        "ev_hopping": ev_hopping,
        "ev_asof": ev_asof,
        "ev_asof_scaled": ev_asof_scaled,
        "ev_range_join": ev_range_join,
        "ev_range_join_scaled": ev_range_join_scaled,
        "ev_interval_join": ev_interval_join,
        "ev_metric_waveform": ev_metric_waveform,
        "ev_distinct_sketch": ev_distinct_sketch,
        "ev_quantiles": ev_quantiles,
        "ev_quantiles_sketch": ev_quantiles_sketch,
        "strut_fields": strut_fields,
        "ft_strut": ft_strut,
        "reco_item_sim": reco_item_sim,
        "reco_ppr": reco_ppr,
        "dd_simhash_near": dd_simhash_near,
        "dd_substr_spans": dd_substr_spans,
        "dd_substr_clean": dd_substr_clean,
        "dd_lines": dd_lines,
        "dd_cdc": dd_cdc,
        "dd_passages": dd_passages,
        "dd_ngram_jaccard": dd_ngram_jaccard,
        "dd_jaccard_prefix": dd_jaccard_prefix,
        "txt_ttr": txt_ttr,
        "txt_vocab_growth": txt_vocab_growth,
        "txt_repetition": txt_repetition,
        "txt_nb_classify": txt_nb_classify,
        "txt_token_bpe": txt_token_bpe,
        "txt_charlm": txt_charlm,
        "txt_splits": txt_splits,
        "txt_stratified_sample": txt_stratified_sample,
        "txt_budget_sample": txt_budget_sample,
        "txt_budget_epochs": txt_budget_epochs,
        "ft_percolate": ft_percolate,
        "txt_heavy_hitters": txt_heavy_hitters,
        "txt_weighted_sample": txt_weighted_sample,
        "txt_collocations": txt_collocations,
        "txt_textrank": txt_textrank,
        "txt_triangles": txt_triangles,
        "txt_dsir": txt_dsir,
        "txt_top_ngrams": txt_top_ngrams,
        "txt_bpe": txt_bpe,
        "ft_match_fuzzy": ft_match_fuzzy,
        "ft_match_regexp": ft_match_regexp,
        "ft_suggest": ft_suggest,
        "ft_suggest_prefix": ft_suggest_prefix,
        "ft_match_synonyms": ft_match_synonyms,
        "ft_topk_fuzzy": ft_topk_fuzzy,
        "ft_match_phrase": ft_match_phrase,
        "ft_match_near": ft_match_near,
        "ft_match_unear": ft_match_unear,
        "ft_topk_unear": ft_topk_unear,
        "ft_count": ft_count,
        "ft_topk_phrase": ft_topk_phrase,
        "ft_topk_tfidf": ft_topk_tfidf,
        "ft_topk_bm25": ft_topk_bm25,
        "ft_topk_lmd": ft_topk_lmd,
        "ft_rrf": ft_rrf,
        "ft_topk_collapse": ft_topk_collapse,
        "ft_group_topk": ft_group_topk,
        "ft_mmr": ft_mmr,
        "ft_mlt": ft_mlt,
        "ft_topk_time": ft_topk_time,
        "ft_topk_boost": ft_topk_boost,
        "ft_topk_page2": ft_topk_page2,
        "ft_export": ft_export,
        "ft_export_text": ft_export_text,
        "ft_federated_topk": ft_federated_topk,
        "ft_federated_match": ft_federated_match,
        "ft_topk_time_range": ft_topk_time_range,
        "ft_distinct_roles": ft_distinct_roles,
        "ft_uniques": ft_uniques,
        "ft_agg_counts": ft_agg_counts,
        "ft_agg_counts_inbox": ft_agg_counts_inbox,
        "ft_waveform": ft_waveform,
        "ft_latest_terms": ft_latest_terms,
        "ft_stumptown": ft_stumptown,
        "ft_paired_latest": ft_paired_latest,
        "ft_match_composite": ft_match_composite,
        "ft_distinct_composite": ft_distinct_composite,
        "ev_waveform": ev_waveform,
        "ev_anomaly": ev_anomaly,
    }


# -------------------------------------------- hash-chain SQL building blocks
#
# The dedup/fingerprint pipelines are deterministic integer pipelines over
# FNV-1a and splitmix64; both hashes are exactly expressible in DuckDB
# (UHUGEINT multiply mod 2^64, xor/shift on UBIGINT), which lets the
# simhash / winnowing / minhash-LSH results be value-checked end to end
# instead of rows-only.

U64 = "18446744073709551616"
FNV_PRIME = 1099511628211
MERSENNE = 2305843009213693951  # minhash universal-hash modulus


# --------------------------------------- Snowball German stemmer as SQL CTEs
#
# Independent implementation of the published Snowball German algorithm
# (snowballstem.org/algorithms/german/stemmer.html), mirroring
# miru_ray/stem.py:german_stem. The prelude's u/y-between-vowels marking is
# SEQUENTIAL (a freshly marked U is a consonant for the next test), so it
# runs as a per-character recursive CTE — the PeakDet state-machine
# precedent. German tokens come from the unicode tokenizer; DuckDB string
# ops are character-based, so len/left/substr work on umlauts directly.

_DE_V = "aeiouyäöü"


def _german_ctes(src: str, tag: str = "de") -> tuple[str, str]:
    """CTE chain stemming ``src``'s column ``t`` → final CTE ``{tag}f``
    with columns (t, stem)."""
    V = _DE_V
    vin = ", ".join(f"'{c}'" for c in V)
    r1pat = f"^[^{V}]*[{V}]+[^{V}]"
    sql = f"""{tag}ss AS (SELECT t, replace(t, 'ß', 'ss') AS w0 FROM {src}),
{tag}mk AS (
  -- sequential u/y marking: U/Y are consonants for the NEXT character's
  -- left-neighbour test (prev_marked carries the state)
  WITH RECURSIVE walk(t, w0, i, acc, prev_marked) AS (
    SELECT t, w0, 1, '', false FROM {tag}ss
    UNION ALL
    SELECT t, w0, i + 1,
           acc || CASE WHEN substr(w0, i, 1) IN ('u', 'y')
                        AND i > 1 AND i < len(w0)
                        AND substr(w0, i - 1, 1) IN ({vin}) AND NOT prev_marked
                        AND substr(w0, i + 1, 1) IN ({vin})
                   THEN upper(substr(w0, i, 1)) ELSE substr(w0, i, 1) END,
           (substr(w0, i, 1) IN ('u', 'y')
            AND i > 1 AND i < len(w0)
            AND substr(w0, i - 1, 1) IN ({vin}) AND NOT prev_marked
            AND substr(w0, i + 1, 1) IN ({vin}))
    FROM walk WHERE i <= len(w0)
  )
  SELECT t, acc AS w FROM walk WHERE i = len(w0) + 1
     UNION ALL SELECT t, w0 FROM {tag}ss WHERE len(w0) = 0),
{tag}r AS (SELECT t, w,
  GREATEST(CASE WHEN regexp_matches(w, '{r1pat}')
                THEN len(regexp_extract(w, '{r1pat}')) ELSE len(w) END, 3) AS r1
  FROM {tag}mk),
{tag}r2 AS (SELECT t, w, r1,
  CASE WHEN regexp_matches(w, '{r1pat}')
       THEN len(regexp_extract(w, '{r1pat}')) ELSE len(w) END AS r1raw
  FROM {tag}r),
{tag}rr AS (SELECT t, w, r1,
  r1raw + CASE WHEN regexp_matches(substr(w, r1raw + 1), '{r1pat}')
               THEN len(regexp_extract(substr(w, r1raw + 1), '{r1pat}'))
               ELSE len(w) - r1raw END AS r2
  FROM {tag}r2),
{tag}1 AS (SELECT t, r1, r2,
  CASE WHEN ends_with(w,'ern') THEN CASE WHEN len(w)-3 >= r1 THEN left(w,len(w)-3) ELSE w END
       WHEN ends_with(w,'em') OR ends_with(w,'er') THEN
            CASE WHEN len(w)-2 >= r1 THEN left(w,len(w)-2) ELSE w END
       WHEN ends_with(w,'en') OR ends_with(w,'es') THEN
            CASE WHEN len(w)-2 >= r1 THEN
              CASE WHEN ends_with(left(w,len(w)-2),'niss')
                   THEN left(w,len(w)-3) ELSE left(w,len(w)-2) END
            ELSE w END
       WHEN ends_with(w,'e') THEN
            CASE WHEN len(w)-1 >= r1 THEN
              CASE WHEN ends_with(left(w,len(w)-1),'niss')
                   THEN left(w,len(w)-2) ELSE left(w,len(w)-1) END
            ELSE w END
       WHEN ends_with(w,'s') THEN
            CASE WHEN len(w)-1 >= r1 AND regexp_matches(w,'[bdfghklmnrt]s$')
                 THEN left(w,len(w)-1) ELSE w END
       ELSE w END AS w
  FROM {tag}rr),
{tag}2 AS (SELECT t, r1, r2,
  CASE WHEN ends_with(w,'est') THEN CASE WHEN len(w)-3 >= r1 THEN left(w,len(w)-3) ELSE w END
       WHEN ends_with(w,'en') OR ends_with(w,'er') THEN
            CASE WHEN len(w)-2 >= r1 THEN left(w,len(w)-2) ELSE w END
       WHEN ends_with(w,'st') THEN
            CASE WHEN len(w)-2 >= r1 AND len(w) > 5
                  AND regexp_matches(w,'[bdfghklmnt]st$')
                 THEN left(w,len(w)-2) ELSE w END
       ELSE w END AS w
  FROM {tag}1),
{tag}3 AS (SELECT t,
  CASE WHEN ends_with(w,'end') OR ends_with(w,'ung') THEN
            CASE WHEN len(w)-3 >= r2 THEN
              CASE WHEN ends_with(left(w,len(w)-3),'ig')
                        AND len(w)-5 >= r2
                        AND NOT ends_with(left(w,len(w)-3),'eig')
                   THEN left(w,len(w)-5) ELSE left(w,len(w)-3) END
            ELSE w END
       WHEN ends_with(w,'isch') THEN
            CASE WHEN len(w)-4 >= r2 AND NOT ends_with(w,'eisch')
                 THEN left(w,len(w)-4) ELSE w END
       WHEN ends_with(w,'ig') OR ends_with(w,'ik') THEN
            CASE WHEN len(w)-2 >= r2 AND substr(w,len(w)-2,1) <> 'e'
                 THEN left(w,len(w)-2) ELSE w END
       WHEN ends_with(w,'lich') OR ends_with(w,'heit') THEN
            CASE WHEN len(w)-4 >= r2 THEN
              CASE WHEN (ends_with(left(w,len(w)-4),'er') OR ends_with(left(w,len(w)-4),'en'))
                        AND len(w)-6 >= r1
                   THEN left(w,len(w)-6) ELSE left(w,len(w)-4) END
            ELSE w END
       WHEN ends_with(w,'keit') THEN
            CASE WHEN len(w)-4 >= r2 THEN
              CASE WHEN ends_with(left(w,len(w)-4),'lich') AND len(w)-8 >= r2
                   THEN left(w,len(w)-8)
                   WHEN ends_with(left(w,len(w)-4),'ig') AND len(w)-6 >= r2
                   THEN left(w,len(w)-6)
                   ELSE left(w,len(w)-4) END
            ELSE w END
       ELSE w END AS w
  FROM {tag}2),
{tag}f AS (SELECT t,
  replace(replace(replace(replace(replace(w,'U','u'),'Y','y'),'ä','a'),'ö','o'),'ü','u') AS stem
  FROM {tag}3)"""
    return sql, f"{tag}f"


# --------------------------------------------- Porter2 stemmer as SQL CTEs
#
# An INDEPENDENT implementation of the published Snowball English (Porter2)
# algorithm (snowballstem.org/algorithms/english/stemmer.html) as a DuckDB
# CTE chain, mirroring miru_ray/stem.py the way the splitmix64 CTEs mirror
# hashing.py. Engine tokens are [a-z0-9]+, so the apostrophe steps (step 0,
# initial-') are dead paths and omitted here. Regions are carried as
# integer offsets r1/r2 on the Y-marked word; "suffix s in R1" becomes
# len(w) - len(s) >= r1 as the word shrinks from the right.

_P2_VOW = "aeiouy"  # Y (marked consonant-y) is NOT a vowel


def _p2_short(x: str) -> str:
    """SQL: x ends in a short syllable (spec: non-vowel, vowel,
    non-vowel other than w/x/Y at the end; or the whole word is
    vowel + non-vowel)."""
    return (
        f"(regexp_matches({x}, '[^{_P2_VOW}][{_P2_VOW}][^{_P2_VOW}wxY]$')"
        f" OR regexp_matches({x}, '^[{_P2_VOW}][^{_P2_VOW}]$'))"
    )


def _p2_post1b(x: str) -> str:
    """SQL: the step-1b post-deletion fixups applied to the shortened
    stem ``x``: at/bl/iz → +e; double → drop last; short word → +e."""
    return f"""CASE WHEN ends_with({x},'at') OR ends_with({x},'bl') OR ends_with({x},'iz') THEN {x} || 'e'
         WHEN regexp_matches({x}, '(bb|dd|ff|gg|mm|nn|pp|rr|tt)$') THEN left({x}, len({x})-1)
         WHEN {_p2_short(x)} AND r1 >= len({x}) THEN {x} || 'e'
         ELSE {x} END"""


def _porter2_ctes(src: str, tag: str = "p2") -> tuple[str, str]:
    """CTE chain stemming ``src``'s column ``t`` → final CTE ``{tag}f``
    with columns (t, stem)."""
    V = _P2_VOW
    r1pat = f"^[^{V}]*[{V}]+[^{V}]"
    ex1 = " ".join(
        f"WHEN '{k}' THEN '{v}'"
        for k, v in [
            ("skis", "ski"), ("skies", "sky"), ("dying", "die"), ("lying", "lie"),
            ("tying", "tie"), ("idly", "idl"), ("gently", "gentl"), ("ugly", "ugli"),
            ("early", "earli"), ("only", "onli"), ("singly", "singl"), ("sky", "sky"),
            ("news", "news"), ("howe", "howe"), ("atlas", "atlas"),
            ("cosmos", "cosmos"), ("bias", "bias"), ("andes", "andes"),
        ]
    )
    step2 = [
        ("ization", "'ize'"), ("ational", "'ate'"), ("fulness", "'ful'"),
        ("ousness", "'ous'"), ("iveness", "'ive'"), ("tional", "'tion'"),
        ("biliti", "'ble'"), ("lessli", "'less'"), ("entli", "'ent'"),
        ("ation", "'ate'"), ("alism", "'al'"), ("aliti", "'al'"),
        ("ousli", "'ous'"), ("iviti", "'ive'"), ("fulli", "'ful'"),
        ("enci", "'ence'"), ("anci", "'ance'"), ("abli", "'able'"),
        ("izer", "'ize'"), ("ator", "'ate'"), ("alli", "'al'"),
        ("bli", "'ble'"),
    ]
    s2 = "\n       ".join(
        f"WHEN ends_with(w,'{s}') THEN CASE WHEN len(w)-{len(s)} >= r1 "
        f"THEN left(w,len(w)-{len(s)}) || {rep} ELSE w END"
        for s, rep in step2
    )
    step3 = [
        ("ational", "'ate'"), ("tional", "'tion'"), ("alize", "'al'"),
        ("icate", "'ic'"), ("iciti", "'ic'"), (None, None), ("ical", "'ic'"),
        ("ness", "''"), ("ful", "''"),
    ]
    s3_parts = []
    for s, rep in step3:
        if s is None:  # ative → delete only if ALSO in R2
            s3_parts.append(
                "WHEN ends_with(w,'ative') THEN CASE WHEN len(w)-5 >= r1 "
                "AND len(w)-5 >= r2 THEN left(w,len(w)-5) ELSE w END"
            )
        else:
            s3_parts.append(
                f"WHEN ends_with(w,'{s}') THEN CASE WHEN len(w)-{len(s)} >= r1 "
                f"THEN left(w,len(w)-{len(s)}) || {rep} ELSE w END"
            )
    s3 = "\n       ".join(s3_parts)
    step4 = ["ement", "ance", "ence", "able", "ible", "ment", "ant", "ent",
             "ism", "ate", "iti", "ous", "ive", "ize"]
    s4_parts = [
        f"WHEN ends_with(w,'{s}') THEN CASE WHEN len(w)-{len(s)} >= r2 "
        f"THEN left(w,len(w)-{len(s)}) ELSE w END"
        for s in step4
    ]
    s4_parts.append(
        "WHEN ends_with(w,'ion') THEN CASE WHEN len(w)-3 >= r2 "
        "AND regexp_matches(w,'[st]ion$') THEN left(w,len(w)-3) ELSE w END"
    )
    for s in ("al", "er", "ic"):
        s4_parts.append(
            f"WHEN ends_with(w,'{s}') THEN CASE WHEN len(w)-2 >= r2 "
            f"THEN left(w,len(w)-2) ELSE w END"
        )
    s4 = "\n       ".join(s4_parts)
    sql = f"""{tag}0 AS (SELECT t,
  CASE WHEN len(t) <= 2 THEN t ELSE CASE t {ex1} END END AS fixed,
  regexp_replace(regexp_replace(t, '^y', 'Y'), '([{V}])y', '\\1Y', 'g') AS w
  FROM {src}),
{tag}1 AS (SELECT t, fixed, w,
  CASE WHEN starts_with(w,'gener') THEN 5
       WHEN starts_with(w,'commun') THEN 6
       WHEN starts_with(w,'arsen') THEN 5
       WHEN regexp_matches(w, '{r1pat}') THEN len(regexp_extract(w, '{r1pat}'))
       ELSE len(w) END AS r1
  FROM {tag}0),
{tag}2 AS (SELECT t, fixed, w, r1,
  r1 + CASE WHEN regexp_matches(substr(w, r1+1), '{r1pat}')
            THEN len(regexp_extract(substr(w, r1+1), '{r1pat}'))
            ELSE len(w) - r1 END AS r2
  FROM {tag}1),
{tag}a AS (SELECT t, fixed, r1, r2,
  CASE WHEN ends_with(w,'sses') THEN left(w,len(w)-2)
       WHEN ends_with(w,'ied') OR ends_with(w,'ies')
            THEN CASE WHEN len(w) > 4 THEN left(w,len(w)-2) ELSE left(w,len(w)-1) END
       WHEN ends_with(w,'us') OR ends_with(w,'ss') THEN w
       WHEN ends_with(w,'s') AND regexp_matches(left(w,len(w)-2),'[{V}]') THEN left(w,len(w)-1)
       ELSE w END AS w
  FROM {tag}2),
{tag}x AS (SELECT t, fixed, r1, r2, w,
  w IN ('inning','outing','canning','herring','earring','proceed','exceed','succeed') AS done2
  FROM {tag}a),
{tag}b AS (SELECT t, fixed, r1, r2, done2,
  CASE WHEN done2 THEN w
       WHEN ends_with(w,'eedly') THEN CASE WHEN len(w)-5 >= r1 THEN left(w,len(w)-3) ELSE w END
       WHEN ends_with(w,'eed') THEN CASE WHEN len(w)-3 >= r1 THEN left(w,len(w)-1) ELSE w END
       WHEN ends_with(w,'ingly') THEN CASE WHEN regexp_matches(left(w,len(w)-5),'[{V}]')
            THEN {_p2_post1b("left(w,len(w)-5)")} ELSE w END
       WHEN ends_with(w,'edly') THEN CASE WHEN regexp_matches(left(w,len(w)-4),'[{V}]')
            THEN {_p2_post1b("left(w,len(w)-4)")} ELSE w END
       WHEN ends_with(w,'ing') THEN CASE WHEN regexp_matches(left(w,len(w)-3),'[{V}]')
            THEN {_p2_post1b("left(w,len(w)-3)")} ELSE w END
       WHEN ends_with(w,'ed') THEN CASE WHEN regexp_matches(left(w,len(w)-2),'[{V}]')
            THEN {_p2_post1b("left(w,len(w)-2)")} ELSE w END
       ELSE w END AS w
  FROM {tag}x),
{tag}c AS (SELECT t, fixed, r1, r2, done2,
  CASE WHEN done2 THEN w
       WHEN regexp_matches(w, '.[^{V}][yY]$') THEN left(w,len(w)-1) || 'i'
       ELSE w END AS w
  FROM {tag}b),
{tag}d AS (SELECT t, fixed, r1, r2, done2,
  CASE WHEN done2 THEN w
       {s2}
       WHEN ends_with(w,'ogi') THEN CASE WHEN len(w)-3 >= r1 AND ends_with(w,'logi')
            THEN left(w,len(w)-1) ELSE w END
       WHEN ends_with(w,'li') THEN CASE WHEN len(w)-2 >= r1 AND regexp_matches(w,'[cdeghkmnrt]li$')
            THEN left(w,len(w)-2) ELSE w END
       ELSE w END AS w
  FROM {tag}c),
{tag}e AS (SELECT t, fixed, r1, r2, done2,
  CASE WHEN done2 THEN w
       {s3}
       ELSE w END AS w
  FROM {tag}d),
{tag}g AS (SELECT t, fixed, r1, r2, done2,
  CASE WHEN done2 THEN w
       {s4}
       ELSE w END AS w
  FROM {tag}e),
{tag}h AS (SELECT t, fixed, r1, r2,
  CASE WHEN done2 THEN w
       WHEN ends_with(w,'e') THEN CASE WHEN len(w)-1 >= r2
            OR (len(w)-1 >= r1 AND NOT {_p2_short("left(w,len(w)-1)")})
            THEN left(w,len(w)-1) ELSE w END
       WHEN ends_with(w,'ll') THEN CASE WHEN len(w)-1 >= r2 THEN left(w,len(w)-1) ELSE w END
       ELSE w END AS w
  FROM {tag}g),
{tag}f AS (SELECT t, COALESCE(fixed, replace(w, 'Y', 'y')) AS stem FROM {tag}h)"""
    return sql, f"{tag}f"


def _u64sql(e: str) -> str:
    return f"CAST(({e}) % {U64} AS UBIGINT)"


def _mul64(a: str, c: int) -> str:
    return _u64sql(f"CAST({a} AS UHUGEINT) * {c}")


def _add64(a: str, c: int) -> str:
    return _u64sql(f"CAST({a} AS UHUGEINT) + {c}")


def _i64view(e: str) -> str:
    """uint64 → its int64 two's-complement view (the engine emits
    .view(np.int64) columns)."""
    return (
        f"CAST(CASE WHEN {e} >= 9223372036854775808 THEN CAST({e} AS HUGEINT) - {U64} "
        f"ELSE CAST({e} AS HUGEINT) END AS BIGINT)"
    )


def _fnv_sql(col: str) -> str:
    """FNV-1a 64 over the ASCII bytes of a [a-z0-9]+ token (hashing.fnv1a64)."""
    return (
        "list_reduce(list_prepend(CAST(14695981039346656037 AS UBIGINT), "
        f"list_transform(string_split_regex({col}, ''), c -> CAST(ord(c) AS UBIGINT))), "
        f"(h, b) -> {_mul64('xor(h, b)', FNV_PRIME)})"
    )


def _sm_ctes(tag: str, src: str, in_expr: str, out_col: str) -> tuple[str, str]:
    """CTE chain computing splitmix64(in_expr) as ``out_col`` (4 linear
    steps so the expression tree stays linear)."""
    z0, z1, z2 = f"{tag}_z0", f"{tag}_z1", f"{tag}_z2"
    sql = (
        f"{tag}a AS (SELECT *, {_add64(in_expr, 11400714819323198485)} AS {z0} FROM {src}),\n"
        f"{tag}b AS (SELECT *, {_mul64(f'xor({z0}, {z0} >> 30)', 13787848793156543929)} AS {z1} FROM {tag}a),\n"
        f"{tag}c AS (SELECT *, {_mul64(f'xor({z1}, {z1} >> 27)', 10723151780598845931)} AS {z2} FROM {tag}b),\n"
        f"{tag}d AS (SELECT *, xor({z2}, {z2} >> 31) AS {out_col} FROM {tag}c)"
    )
    return sql, f"{tag}d"


def _gram_ctes() -> str:
    """documents → grams(doc_id, pos, g): the rolling k=3 token-gram hash
    (textstats.gram_hashes: h ← splitmix64(h·FNV_PRIME) ⊕ next-token-hash,
    twice; grams spanning doc boundaries dropped)."""
    sm1, sm1_last = _sm_ctes("sg1", "gm1", "m1", "sm1")
    sm2, sm2_last = _sm_ctes("sg2", "gm2", "m2", "sm2")
    return f"""tok AS (SELECT doc_id, unnest(toks) AS t, unnest(range(len(toks))) AS pos
       FROM (SELECT doc_id, {_TOK} AS toks FROM documents)),
th AS (SELECT doc_id, pos, {_fnv_sql('t')} AS h FROM tok),
thl AS (SELECT doc_id, pos, h,
          lead(h, 1) OVER (PARTITION BY doc_id ORDER BY pos) AS h1,
          lead(h, 2) OVER (PARTITION BY doc_id ORDER BY pos) AS h2
        FROM th),
gm1 AS (SELECT *, {_mul64('h', FNV_PRIME)} AS m1 FROM thl),
{sm1},
g1 AS (SELECT *, xor(sm1, h1) AS x1 FROM {sm1_last} WHERE h1 IS NOT NULL),
gm2 AS (SELECT *, {_mul64('x1', FNV_PRIME)} AS m2 FROM g1),
{sm2},
grams AS (SELECT doc_id, pos, xor(sm2, h2) AS g FROM {sm2_last} WHERE h2 IS NOT NULL)"""


def _gram_ctes_k(k: int) -> str:
    """documents → grams(doc_id, pos, g): the rolling k-token-gram hash for
    arbitrary k (textstats.gram_hashes generalized — k−1 rounds of
    h ← splitmix64(h·FNV_PRIME) ⊕ next-token-hash; grams spanning doc
    boundaries dropped by the per-doc lead window)."""
    leads = ", ".join(
        f"lead(h, {j}) OVER (PARTITION BY doc_id ORDER BY pos) AS h{j}"
        for j in range(1, k)
    )
    parts = [
        f"""tok AS (SELECT doc_id, unnest(toks) AS t, unnest(range(len(toks))) AS pos
       FROM (SELECT doc_id, {_TOK} AS toks FROM documents)),
th AS (SELECT doc_id, pos, {_fnv_sql('t')} AS h FROM tok),
thl AS (SELECT doc_id, pos, h, {leads} FROM th)"""
    ]
    prev, src = "h", "thl"
    for j in range(1, k):
        sm, last = _sm_ctes(f"sgk{j}", f"gmk{j}", f"mk{j}", f"smk{j}")
        parts.append(f"gmk{j} AS (SELECT *, {_mul64(prev, FNV_PRIME)} AS mk{j} FROM {src})")
        parts.append(sm)
        if j < k - 1:
            parts.append(
                f"gxk{j} AS (SELECT *, xor(smk{j}, h{j}) AS xk{j} FROM {last} "
                f"WHERE h{j} IS NOT NULL)"
            )
            prev, src = f"xk{j}", f"gxk{j}"
        else:
            parts.append(
                f"grams AS (SELECT doc_id, pos, xor(smk{j}, h{j}) AS g FROM {last} "
                f"WHERE h{j} IS NOT NULL)"
            )
    return ",\n".join(parts)


def _mmr_oracle_sql() -> str:
    """ft_mmr mirror: the ft_topk_bm25 candidate chain (top MMR_NCAND by
    raw fp64 score), pairwise rounded cosines over the candidate set, then
    MMR_K chained greedy stages — stage i picks argmax(λ·rel − μ·max sim
    to sel_{i−1}) with ties → doc_id desc, exactly ann.mmr_select's
    contract (λ and μ are independent literals on both sides)."""
    from miru_ray.ann import MMR_LAMBDA as lam
    from miru_ray.ann import MMR_MU as mu

    t1, t2 = TOPK_TERMS
    parts = [
        f"""tok AS ({_TOKTAB}),
tf AS (SELECT doc_id, t, CAST(count(*) AS BIGINT) AS tf FROM tok GROUP BY doc_id, t),
g AS (SELECT t, CAST(count(*) AS BIGINT) AS df FROM tf GROUP BY t),
stats AS (SELECT CAST(count(*) AS BIGINT) AS n_docs,
                 CAST(sum(CAST(len({_TOK}) AS BIGINT)) AS BIGINT) AS total_tokens FROM documents),
dl AS (SELECT doc_id, CAST(len({_TOK}) AS BIGINT) AS dl FROM documents),
ans AS (
  SELECT a.doc_id,
         ln(1.0 + (stats.n_docs - g1.df + 0.5) / (g1.df + 0.5))
           * (a.tf / (a.tf + 1.2 * (0.25 + 0.75 * (dl.dl / (CAST(stats.total_tokens AS DOUBLE) / stats.n_docs)))))
         + ln(1.0 + (stats.n_docs - g2.df + 0.5) / (g2.df + 0.5))
           * (b.tf / (b.tf + 1.2 * (0.25 + 0.75 * (dl.dl / (CAST(stats.total_tokens AS DOUBLE) / stats.n_docs))))) AS raw
  FROM tf a JOIN tf b ON a.doc_id = b.doc_id
  JOIN dl ON dl.doc_id = a.doc_id
  CROSS JOIN (SELECT df FROM g WHERE t = '{t1}') g1
  CROSS JOIN (SELECT df FROM g WHERE t = '{t2}') g2
  CROSS JOIN stats
  WHERE a.t = '{t1}' AND b.t = '{t2}'),
cand AS (SELECT doc_id, round(raw, 6) AS rel FROM ans
         ORDER BY raw DESC, doc_id DESC LIMIT {MMR_NCAND}),
sim AS (SELECT a.doc_id AS x, b.doc_id AS y,
               round(list_cosine_similarity(ea.embedding, eb.embedding), 4) AS s
        FROM cand a JOIN cand b ON a.doc_id <> b.doc_id
        JOIN embeddings ea ON ea.vec_id = a.doc_id
        JOIN embeddings eb ON eb.vec_id = b.doc_id)"""
    ]
    parts.append(
        f"s1 AS (SELECT doc_id, rel FROM cand ORDER BY {lam} * rel DESC, doc_id DESC LIMIT 1)"
    )
    parts.append("sel1 AS (SELECT doc_id FROM s1)")
    for i in range(2, MMR_K + 1):
        parts.append(
            f"""s{i} AS (SELECT c.doc_id, c.rel FROM cand c
  JOIN sim ON sim.x = c.doc_id AND sim.y IN (SELECT doc_id FROM sel{i - 1})
  WHERE c.doc_id NOT IN (SELECT doc_id FROM sel{i - 1})
  GROUP BY c.doc_id, c.rel
  ORDER BY {lam} * c.rel - {mu} * max(sim.s) DESC, c.doc_id DESC LIMIT 1)"""
        )
        parts.append(
            f"sel{i} AS (SELECT doc_id FROM sel{i - 1} UNION ALL SELECT doc_id FROM s{i})"
        )
    union = "\nUNION ALL ".join(
        f"SELECT doc_id, rel AS score, CAST({i} AS BIGINT) AS rank FROM s{i}"
        for i in range(1, MMR_K + 1)
    )
    return "WITH " + ",\n".join(parts) + "\n" + union


def _perm_values() -> str:
    """The 64 minhash permutation constants (dedup.minhash_signatures:
    a = splitmix64(1..64)|1, b = splitmix64(65..128)) as SQL literals."""
    from miru_ray.hashing import splitmix64

    a = splitmix64(np.arange(1, 65, dtype=np.uint64)) | np.uint64(1)
    b = splitmix64(np.arange(65, 129, dtype=np.uint64))
    return ", ".join(
        f"({j}, CAST({int(a[j])} AS UBIGINT), CAST({int(b[j])} AS UBIGINT))" for j in range(64)
    )


def _minhash_pair_ctes() -> str:
    """documents → mh_pairs(a, b, est_jaccard): signatures (64 perms over
    k=3 gram hashes), 16-band LSH keys (splitmix fold), per-bucket pairs
    (doc-ascending, max_bucket 256) with signature-estimated Jaccard —
    dedup.MinHashStage + _bucket_pairs exactly."""
    chains = []
    src, acc = "band0", "acc"
    for s in range(4):
        xo = f"bx{s}"
        join = (
            f"{xo} AS (SELECT b.doc_id, b.bidx, xor(b.{acc}, s.v) AS t{s} "
            f"FROM {src} b JOIN sig s ON s.doc_id = b.doc_id AND s.j = b.bidx * 4 + {s}),"
        )
        sm, last = _sm_ctes(f"bs{s}", xo, f"t{s}", f"acc{s}")
        chains.append(join + "\n" + sm)
        src, acc = last, f"acc{s}"
    band_chain = ",\n".join(chains)
    return f"""{_gram_ctes()},
xg AS (SELECT doc_id, g % {MERSENNE} AS x FROM grams),
perms(j, a, b) AS (VALUES {_perm_values()}),
sig0 AS (SELECT doc_id, j,
           min(CAST((CAST((CAST(a AS UHUGEINT) * CAST(x AS UHUGEINT)) % {U64} AS UHUGEINT) + CAST(b AS UHUGEINT)) % {U64} AS UBIGINT) % {MERSENNE}) AS v
         FROM xg CROSS JOIN perms GROUP BY doc_id, j),
sig AS (SELECT d.doc_id, p.j, COALESCE(s0.v, CAST(18446744073709551615 AS UBIGINT)) AS v
        FROM documents d CROSS JOIN perms p
        LEFT JOIN sig0 s0 ON s0.doc_id = d.doc_id AND s0.j = p.j),
band0 AS (SELECT d.doc_id, CAST(bb.bidx AS BIGINT) AS bidx, CAST(bb.bidx + 40503 AS UBIGINT) AS acc
          FROM documents d CROSS JOIN (SELECT unnest(range(16)) AS bidx) bb),
{band_chain},
bands AS (SELECT doc_id, bidx, acc3 AS key FROM {src}),
bk AS (SELECT doc_id, key, row_number() OVER (PARTITION BY key ORDER BY doc_id) AS rn FROM bands),
mh_pairs0 AS (SELECT DISTINCT x.doc_id AS a, y.doc_id AS b
              FROM bk x JOIN bk y ON x.key = y.key AND x.doc_id < y.doc_id
              WHERE x.rn <= 256 AND y.rn <= 256),
mh_pairs AS (SELECT p.a, p.b, sum(CASE WHEN sa.v = sb.v THEN 1 ELSE 0 END) / 64.0 AS est_jaccard
             FROM mh_pairs0 p
             JOIN sig sa ON sa.doc_id = p.a
             JOIN sig sb ON sb.doc_id = p.b AND sb.j = sa.j
             GROUP BY p.a, p.b)"""


def _bloom_sql() -> str:
    """Per-source bloom sketch summary: distinct (source, token) → double
    hashing h1 = fnv1a64, h2 = splitmix64(h1)|1, bit_i = (h1 + i·h2) mod m
    — mirrors bloom.BloomStage bit for bit."""
    from miru_ray.bloom import (
        DEFAULT_EXPECTED_INSERTIONS,
        DEFAULT_FPP,
        optimal_num_bits,
        optimal_num_hashes,
    )

    m = optimal_num_bits(DEFAULT_EXPECTED_INSERTIONS, DEFAULT_FPP)
    k = optimal_num_hashes(DEFAULT_EXPECTED_INSERTIONS, m)
    sm, sm_last = _sm_ctes("bl", "h1t", "h1", "smh")
    return f"""WITH pairs AS (SELECT DISTINCT source AS key, t
           FROM (SELECT source, unnest({_TOK}) AS t FROM documents)),
h1t AS (SELECT key, t, {_fnv_sql('t')} AS h1 FROM pairs),
{sm},
hh AS (SELECT key, h1, smh | CAST(1 AS UBIGINT) AS h2 FROM {sm_last}),
bits AS (SELECT DISTINCT key,
           CAST((CAST((CAST(h1 AS UHUGEINT) + CAST(i AS UHUGEINT) * CAST(h2 AS UHUGEINT)) % {U64} AS UBIGINT)) % {m} AS BIGINT) AS bit
         FROM hh CROSS JOIN (SELECT unnest(range({k})) AS i))
SELECT key, CAST(count(*) AS BIGINT) AS n_bits, CAST(sum(bit) AS BIGINT) AS bits_sum
FROM bits GROUP BY key"""


def _locale_stem_oracle(lang: str) -> str:
    """SQL twin of ft_stem_terms_<lang>: corpus vocab ∪ the locale's probe
    words stemmed by the independent DuckDB CTE cascade
    (miru_ray/snowball_sql.py). Corpus text is pure ascii, where the
    unicode tokenizer equals the ascii rule — the probe words carry the
    Cyrillic / accent / marking-walk cases."""
    from miru_ray.snowball_sql import CTE_BUILDERS

    probes = LOCALE_STEM_PROBES[lang]
    body, final = CTE_BUILDERS[lang]("tokd", f"sb{lang}")
    vals = ", ".join(f"('{w}')" for w in probes)
    return f"""WITH tokd AS (SELECT DISTINCT t FROM (
  SELECT unnest({_TOK}) AS t FROM documents
  UNION ALL SELECT * FROM (VALUES {vals}) AS probes(t))),
{body}
SELECT t AS term, stem FROM {final}"""


def oracle_sql() -> dict[str, str]:
    from miru_ray.textstats import LANG_MARKERS, LANG_ORDER
    from miru_ray.tokenize import STOPWORDS

    stop_list = ", ".join(f"'{w}'" for w in sorted(STOPWORDS))
    posting_list = ", ".join(f"'{w}'" for w in POSTING_TERMS)
    t1, t2 = TOPK_TERMS

    def lang_pred_sql() -> str:
        # first-max-wins over LANG_ORDER == numpy argmax tie-break
        conds = []
        for i, lang in enumerate(LANG_ORDER):
            others = [f"{lang}_hits >= {o}_hits" for o in LANG_ORDER[i + 1 :]]
            cond = " AND ".join(others) if others else "TRUE"
            conds.append(f"WHEN {cond} THEN '{lang}'")
        return (
            "CASE WHEN "
            + " AND ".join(f"{x}_hits = 0" for x in LANG_ORDER)
            + " THEN 'und' "
            + " ".join(conds)
            + " END"
        )

    lang_hit_cols = ", ".join(
        "CAST(len(list_filter({tok}, x -> x IN ({mk}))) AS BIGINT) AS {lang}_hits".format(
            tok=_TOK, mk=", ".join(f"'{m}'" for m in LANG_MARKERS[lang]), lang=lang
        )
        for lang in LANG_ORDER
    )

    tf_cte = f"""WITH tok AS ({_TOKTAB}),
tf AS (SELECT doc_id, t, CAST(count(*) AS BIGINT) AS tf FROM tok GROUP BY doc_id, t),
g AS (SELECT t, CAST(sum(tf) AS BIGINT) AS ttf, CAST(count(*) AS BIGINT) AS df FROM tf GROUP BY t),
stats AS (SELECT CAST(count(*) AS BIGINT) AS n_docs,
                 CAST(sum(CAST(len({_TOK}) AS BIGINT)) AS BIGINT) AS total_tokens FROM documents)"""

    out = {
        "ft_token_counts": (
            f"SELECT doc_id, CAST(len({_TOK}) AS BIGINT) AS n_tokens FROM documents"
        ),
        "ft_term_stats": (
            f"WITH tok AS ({_TOKTAB}) "
            "SELECT t AS term, CAST(count(DISTINCT doc_id) AS BIGINT) AS df, "
            "CAST(count(*) AS BIGINT) AS ttf FROM tok GROUP BY t"
        ),
        "ft_postings": (
            f"WITH tok AS ({_TOKTAB}) "
            f"SELECT t AS term, doc_id, CAST(count(*) AS BIGINT) AS tf "
            f"FROM tok WHERE t IN ({posting_list}) GROUP BY t, doc_id"
        ),
        "ft_doclen": (
            f"SELECT doc_id, CAST(len({_TOK}) AS BIGINT) AS dl FROM documents"
        ),
        "ft_match_and": (
            f"SELECT doc_id FROM documents WHERE list_contains({_TOK}, '{t1}') "
            f"AND list_contains({_TOK}, '{t2}')"
        ),
        "ft_match_or": (
            f"SELECT doc_id FROM documents WHERE list_contains({_TOK}, 'scan') "
            f"OR list_contains({_TOK}, 'merge')"
        ),
        "ft_match_not": (
            f"SELECT doc_id FROM documents WHERE list_contains({_TOK}, 'scan') "
            f"AND NOT list_contains({_TOK}, 'merge')"
        ),
        "ft_match_prefix": (
            f"SELECT doc_id FROM documents "
            f"WHERE len(list_filter({_TOK}, x -> x LIKE 'sca%')) > 0"
        ),
        "ft_match_field": (
            f"SELECT doc_id FROM documents WHERE source = 'src3' "
            f"AND list_contains({_TOK}, 'scan')"
        ),
        "ft_match_range": (
            f"SELECT doc_id FROM documents WHERE (doc_id % 41) BETWEEN 5 AND 12 "
            f"AND list_contains({_TOK}, 'scan')"
        ),
        "ft_match_fuzzy": (
            f"SELECT doc_id FROM documents WHERE "
            f"len(list_filter({_TOK}, x -> levenshtein(x, '{FUZZY_TERM}') <= 2)) > 0"
        ),
        "ft_match_regexp": (
            f"SELECT doc_id FROM documents WHERE "
            f"len(list_filter({_TOK}, x -> regexp_full_match(x, '{REGEXP_PAT}'))) > 0"
        ),
        "ft_suggest": (
            f"WITH tok AS ({_TOKTAB}) "
            f"SELECT t AS term, CAST(count(DISTINCT doc_id) AS BIGINT) AS df, "
            f"CAST(levenshtein(t, '{SUGGEST_TERM}') AS BIGINT) AS dist "
            f"FROM tok GROUP BY t "
            f"HAVING levenshtein(t, '{SUGGEST_TERM}') <= 2 "
            f"ORDER BY df DESC, dist, t LIMIT {SUGGEST_K}"
        ),
        "ft_match_synonyms": (
            f"SELECT doc_id FROM documents WHERE "
            f"(list_contains({_TOK}, 'fast') OR list_contains({_TOK}, 'slow') "
            f"OR list_contains({_TOK}, 'quick')) "
            f"AND NOT list_contains({_TOK}, 'batch') ORDER BY doc_id"
        ),
        "ft_suggest_prefix": (
            f"WITH tok AS ({_TOKTAB}) "
            f"SELECT t AS term, CAST(count(DISTINCT doc_id) AS BIGINT) AS df "
                        f"FROM tok WHERE t LIKE 's%' GROUP BY t "
            f"ORDER BY df DESC, t LIMIT 10"
        ),
        "ft_topk_fuzzy": (
            tf_cte
            + f""",
fuzz AS (SELECT t, ttf FROM g WHERE levenshtein(t, '{FUZZY_TERM}') <= 2)
SELECT tf.doc_id AS doc_id, round(sum((1.0 / fuzz.ttf) * tf.tf), 6) AS score
FROM tf JOIN fuzz USING (t)
GROUP BY tf.doc_id
ORDER BY sum((1.0 / fuzz.ttf) * tf.tf) DESC, tf.doc_id DESC
LIMIT {K_FUZZY}"""
        ),
        # adjacency ≡ substring of the space-joined token stream (the
        # tokenizer contract: tokens = regexp_extract_all(lower, '[a-z0-9]+'))
        "ft_match_phrase": (
            f"SELECT doc_id FROM documents WHERE ' ' || array_to_string({_TOK}, ' ') "
            f"|| ' ' LIKE '% {' '.join(PHRASE_TERMS)} %'"
        ),
        # ordered proximity: ordinal self-join with a bounded forward window
        "ft_match_near": (
            f"""WITH d AS (SELECT doc_id, {_TOK} AS toks FROM documents),
tok AS (SELECT doc_id, unnest(toks) AS t, generate_subscripts(toks, 1) AS ord FROM d)
SELECT DISTINCT a.doc_id AS doc_id FROM tok a JOIN tok b
  ON b.doc_id = a.doc_id AND b.ord > a.ord AND b.ord <= a.ord + {NEAR_SLOP + 1}
  AND b.t = '{PHRASE_TERMS[1]}'
WHERE a.t = '{PHRASE_TERMS[0]}'"""
        ),
        "ft_count": (
            f"""WITH t AS (SELECT doc_id, {_TOK} AS tk, source FROM documents)
SELECT 'and' AS q, CAST(count(*) AS BIGINT) AS n FROM t
  WHERE list_contains(tk, 'the') AND list_contains(tk, 'scan')
UNION ALL SELECT 'or', CAST(count(*) AS BIGINT) FROM t
  WHERE list_contains(tk, 'scan') OR list_contains(tk, 'merge')
UNION ALL SELECT 'not', CAST(count(*) AS BIGINT) FROM t
  WHERE list_contains(tk, 'join') AND NOT list_contains(tk, 'window')
UNION ALL SELECT 'field', CAST(count(*) AS BIGINT) FROM t
  WHERE source = 'src3' AND list_contains(tk, 'scan')"""
        ),
        # unordered proximity: same join, absolute window, either order
        "ft_match_unear": (
            f"""WITH d AS (SELECT doc_id, {_TOK} AS toks FROM documents),
tok AS (SELECT doc_id, unnest(toks) AS t, generate_subscripts(toks, 1) AS ord FROM d)
SELECT DISTINCT a.doc_id AS doc_id FROM tok a JOIN tok b
  ON b.doc_id = a.doc_id AND b.ord <> a.ord
  AND abs(b.ord - a.ord) <= {NEAR_SLOP + 1}
  AND b.t = '{PHRASE_TERMS[1]}'
WHERE a.t = '{PHRASE_TERMS[0]}'"""
        ),
        "ft_topk_unear": (
            tf_cte
            + f""",
tokp AS (SELECT doc_id, unnest(toks) AS t, generate_subscripts(toks, 1) AS ord
         FROM (SELECT doc_id, {_TOK} AS toks FROM documents)),
ph AS (SELECT DISTINCT x.doc_id FROM tokp x JOIN tokp y
         ON y.doc_id = x.doc_id AND y.ord <> x.ord
         AND abs(y.ord - x.ord) <= {NEAR_SLOP + 1}
         AND y.t = '{PHRASE_TERMS[1]}'
       WHERE x.t = '{PHRASE_TERMS[0]}')
SELECT a.doc_id AS doc_id,
       round((1.0 / g1.ttf) * a.tf + (1.0 / g2.ttf) * b.tf, 6) AS score
FROM tf a JOIN tf b ON a.doc_id = b.doc_id JOIN ph ON ph.doc_id = a.doc_id
CROSS JOIN (SELECT ttf FROM g WHERE t = '{PHRASE_TERMS[0]}') g1
CROSS JOIN (SELECT ttf FROM g WHERE t = '{PHRASE_TERMS[1]}') g2
WHERE a.t = '{PHRASE_TERMS[0]}' AND b.t = '{PHRASE_TERMS[1]}'
ORDER BY (1.0 / g1.ttf) * a.tf + (1.0 / g2.ttf) * b.tf DESC, a.doc_id DESC
LIMIT {K_PHRASE}"""
        ),
        "ft_topk_phrase": (
            tf_cte
            + f""",
ph AS (SELECT doc_id FROM documents WHERE ' ' || array_to_string({_TOK}, ' ')
       || ' ' LIKE '% {' '.join(PHRASE_TERMS)} %')
SELECT a.doc_id AS doc_id,
       round((1.0 / g1.ttf) * a.tf + (1.0 / g2.ttf) * b.tf, 6) AS score
FROM tf a JOIN tf b ON a.doc_id = b.doc_id JOIN ph ON ph.doc_id = a.doc_id
CROSS JOIN (SELECT ttf FROM g WHERE t = '{PHRASE_TERMS[0]}') g1
CROSS JOIN (SELECT ttf FROM g WHERE t = '{PHRASE_TERMS[1]}') g2
WHERE a.t = '{PHRASE_TERMS[0]}' AND b.t = '{PHRASE_TERMS[1]}'
ORDER BY (1.0 / g1.ttf) * a.tf + (1.0 / g2.ttf) * b.tf DESC, a.doc_id DESC
LIMIT {K_PHRASE}"""
        ),
        "ft_topk_tfidf": (
            tf_cte
            + f"""
SELECT a.doc_id AS doc_id,
       round((1.0 / g1.ttf) * a.tf + (1.0 / g2.ttf) * b.tf, 6) AS score
FROM tf a JOIN tf b ON a.doc_id = b.doc_id
CROSS JOIN (SELECT ttf FROM g WHERE t = '{t1}') g1
CROSS JOIN (SELECT ttf FROM g WHERE t = '{t2}') g2
WHERE a.t = '{t1}' AND b.t = '{t2}'
ORDER BY (1.0 / g1.ttf) * a.tf + (1.0 / g2.ttf) * b.tf DESC, a.doc_id DESC
LIMIT {K_TFIDF}"""
        ),
        "ft_topk_boost": (
            tf_cte
            + f"""
SELECT a.doc_id AS doc_id,
       round(({BOOST_N}.0 / g1.ttf) * a.tf + (1.0 / g2.ttf) * b.tf, 6) AS score
FROM tf a JOIN tf b ON a.doc_id = b.doc_id
CROSS JOIN (SELECT ttf FROM g WHERE t = '{t1}') g1
CROSS JOIN (SELECT ttf FROM g WHERE t = '{t2}') g2
WHERE a.t = '{t1}' AND b.t = '{t2}'
ORDER BY ({BOOST_N}.0 / g1.ttf) * a.tf + (1.0 / g2.ttf) * b.tf DESC, a.doc_id DESC
LIMIT {K_TFIDF}"""
        ),
        "ft_stem_terms": (
            f"""WITH tokd AS (SELECT DISTINCT unnest({_TOK}) AS t FROM documents),
{_porter2_ctes("tokd")[0]}
SELECT t AS term, stem FROM {_porter2_ctes("tokd")[1]}"""
        ),
        "ft_stem_terms_de": (
            # corpus text is pure ascii, where the unicode tokenizer equals
            # the ascii rule — the probe words carry the umlauts/ß cases
            f"""WITH tokd AS (SELECT DISTINCT t FROM (
  SELECT unnest({_TOK}) AS t FROM documents
  UNION ALL SELECT * FROM (VALUES {", ".join(f"('{w}')" for w in DE_STEM_PROBES)}) AS probes(t))),
{_german_ctes("tokd")[0]}
SELECT t AS term, stem FROM {_german_ctes("tokd")[1]}"""
        ),
        "ft_stem_terms_ru": _locale_stem_oracle("ru"),
        "ft_stem_terms_nl": _locale_stem_oracle("nl"),
        "ft_stem_terms_es": _locale_stem_oracle("es"),
        "ft_stem_terms_pt": _locale_stem_oracle("pt"),
        "ft_stem_terms_it": _locale_stem_oracle("it"),
        "ft_stem_terms_fr": _locale_stem_oracle("fr"),
        "ft_stem_terms_da": _locale_stem_oracle("da"),
        "ft_stem_terms_sv": _locale_stem_oracle("sv"),
        "ft_stem_terms_nb": _locale_stem_oracle("nb"),
        "ft_stem_terms_ro": _locale_stem_oracle("ro"),
        "ft_topk_bm25_de": (
            f"""WITH tok AS ({_TOKTAB}),
allv AS (SELECT DISTINCT t FROM (SELECT t FROM tok
         UNION ALL SELECT '{DE_QUERY_TERMS[0]}' UNION ALL SELECT '{DE_QUERY_TERMS[1]}')),
{_german_ctes("allv", "gb")[0]},
q1 AS (SELECT stem AS s FROM {_german_ctes("allv", "gb")[1]} WHERE t = '{DE_QUERY_TERMS[0]}'),
q2 AS (SELECT stem AS s FROM {_german_ctes("allv", "gb")[1]} WHERE t = '{DE_QUERY_TERMS[1]}'),
stok AS (SELECT tok.doc_id, p.stem AS s FROM tok JOIN {_german_ctes("allv", "gb")[1]} p USING (t)),
tf1 AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS tf FROM stok, q1 WHERE stok.s = q1.s GROUP BY doc_id),
tf2 AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS tf FROM stok, q2 WHERE stok.s = q2.s GROUP BY doc_id),
g1 AS (SELECT CAST(count(DISTINCT doc_id) AS BIGINT) AS df FROM stok, q1 WHERE stok.s = q1.s),
g2 AS (SELECT CAST(count(DISTINCT doc_id) AS BIGINT) AS df FROM stok, q2 WHERE stok.s = q2.s),
dl AS (SELECT doc_id, CAST(len({_TOK}) AS BIGINT) AS dl FROM documents),
stats AS (SELECT CAST(count(*) AS BIGINT) AS n_docs,
                 CAST(sum(len({_TOK})) AS BIGINT) AS total_tokens FROM documents),
ans AS (SELECT tf1.doc_id, tf1.tf AS tfa, tf2.tf AS tfb, dl.dl,
         1.2 * (0.25 + 0.75 * (dl.dl / (CAST(stats.total_tokens AS DOUBLE) / stats.n_docs))) AS knorm,
         ln(1.0 + (stats.n_docs - g1.df + 0.5) / (g1.df + 0.5)) AS idf1,
         ln(1.0 + (stats.n_docs - g2.df + 0.5) / (g2.df + 0.5)) AS idf2
  FROM tf1 JOIN tf2 USING (doc_id) JOIN dl ON dl.doc_id = tf1.doc_id
  CROSS JOIN g1 CROSS JOIN g2 CROSS JOIN stats)
SELECT doc_id, round(idf1 * (tfa / (tfa + knorm)) + idf2 * (tfb / (tfb + knorm)), 6) AS score
FROM ans
ORDER BY idf1 * (tfa / (tfa + knorm)) + idf2 * (tfb / (tfb + knorm)) DESC, doc_id DESC
LIMIT {K_BM25_DE}"""
        ),
        "ft_topk_bm25_en": (
            f"""WITH tok AS ({_TOKTAB}),
allv AS (SELECT DISTINCT t FROM (SELECT t FROM tok
         UNION ALL SELECT '{STEM_QUERY_TERMS[0]}' UNION ALL SELECT '{STEM_QUERY_TERMS[1]}')),
{_porter2_ctes("allv")[0]},
q1 AS (SELECT stem AS s FROM {_porter2_ctes("allv")[1]} WHERE t = '{STEM_QUERY_TERMS[0]}'),
q2 AS (SELECT stem AS s FROM {_porter2_ctes("allv")[1]} WHERE t = '{STEM_QUERY_TERMS[1]}'),
stok AS (SELECT tok.doc_id, p.stem AS s FROM tok JOIN {_porter2_ctes("allv")[1]} p USING (t)),
tf1 AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS tf FROM stok, q1 WHERE stok.s = q1.s GROUP BY doc_id),
tf2 AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS tf FROM stok, q2 WHERE stok.s = q2.s GROUP BY doc_id),
g1 AS (SELECT CAST(count(DISTINCT doc_id) AS BIGINT) AS df FROM stok, q1 WHERE stok.s = q1.s),
g2 AS (SELECT CAST(count(DISTINCT doc_id) AS BIGINT) AS df FROM stok, q2 WHERE stok.s = q2.s),
dl AS (SELECT doc_id, CAST(len({_TOK}) AS BIGINT) AS dl FROM documents),
stats AS (SELECT CAST(count(*) AS BIGINT) AS n_docs,
                 CAST(sum(len({_TOK})) AS BIGINT) AS total_tokens FROM documents),
ans AS (SELECT tf1.doc_id, tf1.tf AS tfa, tf2.tf AS tfb, dl.dl,
         1.2 * (0.25 + 0.75 * (dl.dl / (CAST(stats.total_tokens AS DOUBLE) / stats.n_docs))) AS knorm,
         ln(1.0 + (stats.n_docs - g1.df + 0.5) / (g1.df + 0.5)) AS idf1,
         ln(1.0 + (stats.n_docs - g2.df + 0.5) / (g2.df + 0.5)) AS idf2
  FROM tf1 JOIN tf2 USING (doc_id) JOIN dl ON dl.doc_id = tf1.doc_id
  CROSS JOIN g1 CROSS JOIN g2 CROSS JOIN stats)
SELECT doc_id, round(idf1 * (tfa / (tfa + knorm)) + idf2 * (tfb / (tfb + knorm)), 6) AS score
FROM ans
ORDER BY idf1 * (tfa / (tfa + knorm)) + idf2 * (tfb / (tfb + knorm)) DESC, doc_id DESC
LIMIT {K_BM25_EN}"""
        ),
        "ft_topk_bm25": (
            tf_cte
            + f""",
dl AS (SELECT doc_id, CAST(len({_TOK}) AS BIGINT) AS dl FROM documents),
ans AS (
  SELECT a.doc_id, a.tf AS tf1, b.tf AS tf2, dl.dl,
         1.2 * (0.25 + 0.75 * (dl.dl / (CAST(stats.total_tokens AS DOUBLE) / stats.n_docs))) AS knorm,
         ln(1.0 + (stats.n_docs - g1.df + 0.5) / (g1.df + 0.5)) AS idf1,
         ln(1.0 + (stats.n_docs - g2.df + 0.5) / (g2.df + 0.5)) AS idf2
  FROM tf a JOIN tf b ON a.doc_id = b.doc_id
  JOIN dl ON dl.doc_id = a.doc_id
  CROSS JOIN (SELECT df FROM g WHERE t = '{t1}') g1
  CROSS JOIN (SELECT df FROM g WHERE t = '{t2}') g2
  CROSS JOIN stats
  WHERE a.t = '{t1}' AND b.t = '{t2}')
SELECT doc_id, round(idf1 * (tf1 / (tf1 + knorm)) + idf2 * (tf2 / (tf2 + knorm)), 6) AS score
FROM ans
ORDER BY idf1 * (tf1 / (tf1 + knorm)) + idf2 * (tf2 / (tf2 + knorm)) DESC, doc_id DESC
LIMIT {K_BM25}"""
        ),
        "ft_topk_lmd": (
            tf_cte
            + f""",
dl AS (SELECT doc_id, CAST(len({_TOK}) AS BIGINT) AS dl FROM documents),
ans AS (
  SELECT a.doc_id, a.tf AS tf1, b.tf AS tf2, dl.dl,
         stats.total_tokens AS tt, g1.ttf AS ttf1, g2.ttf AS ttf2
  FROM tf a JOIN tf b ON a.doc_id = b.doc_id
  JOIN dl ON dl.doc_id = a.doc_id
  CROSS JOIN (SELECT ttf FROM g WHERE t = '{t1}') g1
  CROSS JOIN (SELECT ttf FROM g WHERE t = '{t2}') g2
  CROSS JOIN stats
  WHERE a.t = '{t1}' AND b.t = '{t2}'),
s AS (SELECT doc_id,
             ln(1.0 + (tf1 * tt) / ({LMD_MU} * ttf1))
           + ln(1.0 + (tf2 * tt) / ({LMD_MU} * ttf2))
           + 2.0 * ln({LMD_MU} / (dl + {LMD_MU})) AS raw_score
      FROM ans)
SELECT doc_id, round(raw_score, 6) AS score FROM s
ORDER BY raw_score DESC, doc_id DESC LIMIT {K_LMD}"""
        ),
        "ft_rrf": (
            tf_cte
            + f""",
dl AS (SELECT doc_id, CAST(len({_TOK}) AS BIGINT) AS dl FROM documents),
ans AS (
  SELECT a.doc_id, a.tf AS tf1, b.tf AS tf2, dl.dl,
         1.2 * (0.25 + 0.75 * (dl.dl / (CAST(stats.total_tokens AS DOUBLE) / stats.n_docs))) AS knorm,
         ln(1.0 + (stats.n_docs - g1.df + 0.5) / (g1.df + 0.5)) AS idf1,
         ln(1.0 + (stats.n_docs - g2.df + 0.5) / (g2.df + 0.5)) AS idf2
  FROM tf a JOIN tf b ON a.doc_id = b.doc_id
  JOIN dl ON dl.doc_id = a.doc_id
  CROSS JOIN (SELECT df FROM g WHERE t = '{t1}') g1
  CROSS JOIN (SELECT df FROM g WHERE t = '{t2}') g2
  CROSS JOIN stats
  WHERE a.t = '{t1}' AND b.t = '{t2}'),
lex AS (SELECT doc_id, CAST(rn AS BIGINT) AS r FROM (
          SELECT doc_id, row_number() OVER (
            ORDER BY idf1 * (tf1 / (tf1 + knorm)) + idf2 * (tf2 / (tf2 + knorm)) DESC,
                     doc_id DESC) AS rn
          FROM ans) WHERE rn <= {RRF_N}),
qv AS (SELECT embedding FROM embeddings WHERE vec_id = {RRF_QVEC}),
sems AS (SELECT e.vec_id AS doc_id,
                round(list_cosine_similarity(e.embedding, qv.embedding), 4) AS cos
         FROM embeddings e CROSS JOIN qv WHERE e.vec_id <> {RRF_QVEC}),
sem AS (SELECT doc_id, CAST(rn AS BIGINT) AS r FROM (
          SELECT doc_id, row_number() OVER (ORDER BY cos DESC, doc_id ASC) AS rn
          FROM sems) WHERE rn <= {RRF_N}),
fused AS (SELECT COALESCE(l.doc_id, s.doc_id) AS doc_id,
                 COALESCE(1.0 / ({RRF_C} + l.r), 0.0)
               + COALESCE(1.0 / ({RRF_C} + s.r), 0.0) AS raw_rrf
          FROM lex l FULL OUTER JOIN sem s ON l.doc_id = s.doc_id)
SELECT doc_id, round(raw_rrf, 6) AS rrf FROM fused
ORDER BY raw_rrf DESC, doc_id DESC LIMIT {RRF_K}"""
        ),
        "ft_topk_collapse": (
            tf_cte
            + f""",
dl AS (SELECT doc_id, CAST(len({_TOK}) AS BIGINT) AS dl FROM documents),
ans AS (
  SELECT a.doc_id, a.tf AS tf1, b.tf AS tf2, dl.dl,
         1.2 * (0.25 + 0.75 * (dl.dl / (CAST(stats.total_tokens AS DOUBLE) / stats.n_docs))) AS knorm,
         ln(1.0 + (stats.n_docs - g1.df + 0.5) / (g1.df + 0.5)) AS idf1,
         ln(1.0 + (stats.n_docs - g2.df + 0.5) / (g2.df + 0.5)) AS idf2
  FROM tf a JOIN tf b ON a.doc_id = b.doc_id
  JOIN dl ON dl.doc_id = a.doc_id
  CROSS JOIN (SELECT df FROM g WHERE t = '{t1}') g1
  CROSS JOIN (SELECT df FROM g WHERE t = '{t2}') g2
  CROSS JOIN stats
  WHERE a.t = '{t1}' AND b.t = '{t2}'),
scored AS (SELECT ans.doc_id, d2.source AS role,
                  idf1 * (tf1 / (tf1 + knorm)) + idf2 * (tf2 / (tf2 + knorm)) AS score
           FROM ans JOIN documents d2 USING (doc_id)),
best AS (SELECT doc_id, role, score,
                row_number() OVER (PARTITION BY role ORDER BY score DESC, doc_id DESC) AS rn
         FROM scored)
SELECT doc_id, role, round(score, 6) AS score FROM best
WHERE rn = 1 ORDER BY score DESC, doc_id DESC LIMIT {K_COLLAPSE}"""
        ),
        "ft_group_topk": (
            tf_cte
            + f""",
dl AS (SELECT doc_id, CAST(len({_TOK}) AS BIGINT) AS dl FROM documents),
ans AS (
  SELECT a.doc_id, a.tf AS tf1, b.tf AS tf2, dl.dl,
         1.2 * (0.25 + 0.75 * (dl.dl / (CAST(stats.total_tokens AS DOUBLE) / stats.n_docs))) AS knorm,
         ln(1.0 + (stats.n_docs - g1.df + 0.5) / (g1.df + 0.5)) AS idf1,
         ln(1.0 + (stats.n_docs - g2.df + 0.5) / (g2.df + 0.5)) AS idf2
  FROM tf a JOIN tf b ON a.doc_id = b.doc_id
  JOIN dl ON dl.doc_id = a.doc_id
  CROSS JOIN (SELECT df FROM g WHERE t = '{t1}') g1
  CROSS JOIN (SELECT df FROM g WHERE t = '{t2}') g2
  CROSS JOIN stats
  WHERE a.t = '{t1}' AND b.t = '{t2}'),
scored AS (SELECT ans.doc_id, d2.source AS role,
                  idf1 * (tf1 / (tf1 + knorm)) + idf2 * (tf2 / (tf2 + knorm)) AS score
           FROM ans JOIN documents d2 USING (doc_id)),
ranked AS (SELECT doc_id, role, score,
                  row_number() OVER (PARTITION BY role ORDER BY score DESC, doc_id DESC) AS rn
           FROM scored),
top_roles AS (SELECT role FROM ranked WHERE rn = 1
              ORDER BY score DESC, doc_id DESC LIMIT {GROUP_N})
SELECT doc_id, role, round(score, 6) AS score FROM ranked
WHERE rn <= {GROUP_M} AND role IN (SELECT role FROM top_roles)"""
        ),
        "ft_mmr": _mmr_oracle_sql(),
        "ft_mlt": (
            f"""WITH tok AS ({_TOKTAB}),
stf AS (SELECT t, CAST(count(*) AS BIGINT) AS tf FROM tok
        WHERE doc_id = {MLT_DOC} GROUP BY t),
gdf AS (SELECT t, CAST(count(DISTINCT doc_id) AS BIGINT) AS df FROM tok GROUP BY t),
stats AS (SELECT CAST(count(*) AS BIGINT) AS n_docs,
                 CAST(sum(len({_TOK})) AS BIGINT) AS total_tokens FROM documents),
sel AS (SELECT stf.t, gdf.df FROM stf JOIN gdf USING (t) CROSS JOIN stats
        WHERE gdf.df >= {MLT_MIN_DF}
        ORDER BY stf.tf * ln(CAST(stats.n_docs AS DOUBLE) / gdf.df) DESC, stf.t ASC
        LIMIT {MLT_TERMS}),
dtf AS (SELECT doc_id, t, CAST(count(*) AS BIGINT) AS tf FROM tok
        WHERE t IN (SELECT t FROM sel) GROUP BY doc_id, t),
dl AS (SELECT doc_id, CAST(len({_TOK}) AS BIGINT) AS dl FROM documents),
contrib AS (SELECT dtf.doc_id,
    sum(ln(1.0 + (stats.n_docs - sel.df + 0.5) / (sel.df + 0.5))
        * (dtf.tf / (dtf.tf + 1.2 * (0.25 + 0.75 * (dl.dl
             / (CAST(stats.total_tokens AS DOUBLE) / stats.n_docs)))))) AS score
  FROM dtf JOIN sel USING (t) JOIN dl USING (doc_id) CROSS JOIN stats
  GROUP BY dtf.doc_id)
SELECT doc_id, round(score, 6) AS score FROM contrib
ORDER BY score DESC, doc_id DESC LIMIT {MLT_K}"""
        ),
        "ft_topk_time": (
            f"SELECT doc_id FROM documents WHERE list_contains({_TOK}, '{t1}') "
            f"AND list_contains({_TOK}, '{t2}') ORDER BY doc_id DESC LIMIT {K_TIME}"
        ),
        "ft_topk_page2": (
            f"SELECT doc_id FROM documents WHERE list_contains({_TOK}, '{t1}') "
            f"AND list_contains({_TOK}, '{t2}') ORDER BY doc_id DESC "
            f"LIMIT {K_TIME} OFFSET {K_TIME}"
        ),
        "ft_export": (
            f"SELECT doc_id, CAST(doc_id % 41 AS BIGINT) AS turn_idx, "
            f"source AS role, lang AS tool, "
            f"CAST(1700000000000000 + doc_id * 1000000 AS BIGINT) AS ts "
            f"FROM documents WHERE list_contains({_TOK}, 'scan') "
            f"AND NOT list_contains({_TOK}, 'merge')"
        ),
        "ft_export_text": (
            f"SELECT doc_id, text FROM documents "
            f"WHERE list_contains({_TOK}, 'merge') "
            f"AND NOT list_contains({_TOK}, 'scan')"
        ),
        # federation contract: two parity-sharded indexes answered as one
        # must equal the single-table SQL over the union
        "ft_federated_topk": (
            f"SELECT doc_id FROM documents WHERE list_contains({_TOK}, 'scan') "
            f"ORDER BY doc_id DESC LIMIT {FED_K}"
        ),
        "ft_federated_match": (
            f"SELECT doc_id FROM documents WHERE list_contains({_TOK}, 'scan') "
            f"OR list_contains({_TOK}, 'merge') ORDER BY doc_id"
        ),
        # same contract on the range-partitioned index: TIME answers are
        # partitioning-invariant (the early exit changes work, not results)
        "ft_topk_time_range": (
            f"SELECT doc_id FROM documents WHERE list_contains({_TOK}, '{t1}') "
            f"AND list_contains({_TOK}, '{t2}') ORDER BY doc_id DESC LIMIT {K_TIME}"
        ),
        "ft_distinct_roles": (
            f"SELECT DISTINCT source AS role FROM documents "
            f"WHERE list_contains({_TOK}, 'scan')"
        ),
        # uniques = distincts cardinality inside the mandatory time range;
        # ts is the documented derivation 1700000000000000 + doc_id*1e6, so
        # the ts window [base+100e6, base+400e6] == doc_id BETWEEN 100 AND 400
        "ft_uniques": (
            f"SELECT * FROM ("
            f"SELECT 'tool' AS field, CAST(COUNT(DISTINCT lang) AS BIGINT) "
            f"AS uniques FROM documents WHERE list_contains({_TOK}, 'scan') "
            f"AND doc_id BETWEEN 100 AND 400 "
            f"UNION ALL "
            f"SELECT 'text_w004', CAST(COUNT(DISTINCT tok) AS BIGINT) FROM ("
            f"SELECT unnest(list_filter({_TOK}, x -> x LIKE 'w004%')) AS tok "
            f"FROM documents WHERE doc_id BETWEEN 100 AND 400)"
            f") ORDER BY field"
        ),
        "ft_agg_counts": (
            f"SELECT source AS role, CAST(count(*) AS BIGINT) AS n, "
            f"CAST(max(doc_id) AS BIGINT) AS last_doc FROM documents "
            f"WHERE list_contains({_TOK}, 'scan') GROUP BY source"
        ),
        "ft_agg_counts_inbox": (
            f"""SELECT source AS role, CAST(count(*) AS BIGINT) AS n,
  CAST(max(doc_id) AS BIGINT) AS latest_doc,
  CAST(min(doc_id) AS BIGINT) AS oldest_doc,
  CAST(max(CASE WHEN doc_id % 6 <> 0 THEN 1 ELSE 0 END) AS BIGINT) AS any_unread,
  CAST(arg_max(CASE WHEN doc_id % 6 <> 0 THEN 1 ELSE 0 END, doc_id) AS BIGINT) AS latest_unread,
  CAST(arg_min(CASE WHEN doc_id % 6 <> 0 THEN 1 ELSE 0 END, doc_id) AS BIGINT) AS oldest_unread
FROM documents WHERE doc_id % 3 = 0 AND list_contains({_TOK}, 'scan')
GROUP BY source"""
        ),
        "ft_stumptown": (
            f"""WITH m AS (SELECT doc_id, CAST(1700000000 + doc_id AS BIGINT) AS ts_sec
           FROM documents WHERE list_contains({_TOK}, 'the')),
wf AS (SELECT (ts_sec // 3600) * 3600 AS bucket_ts,
              CAST(count(*) AS BIGINT) AS bucket_n FROM m GROUP BY 1),
newest AS (SELECT doc_id, ts_sec,
             row_number() OVER (ORDER BY doc_id DESC) - 1 AS rank
           FROM m ORDER BY doc_id DESC LIMIT 10)
SELECT CAST(rank AS BIGINT) AS rank, CAST(doc_id AS BIGINT) AS doc_id,
       ts_sec, CAST((ts_sec // 3600) * 3600 AS BIGINT) AS bucket_ts, wf.bucket_n
FROM newest JOIN wf ON (newest.ts_sec // 3600) * 3600 = wf.bucket_ts"""
        ),
        "ft_waveform": (
            # the derived transcripts' ts is epoch 1 700 000 000 s + doc_id s
            f"SELECT CAST(((1700000000 + doc_id) // 3600) * 3600 AS BIGINT) AS bucket_ts, "
            f"CAST(count(*) AS BIGINT) AS n FROM documents "
            f"WHERE list_contains({_TOK}, 'the') GROUP BY 1"
        ),
        "ft_latest_terms": (
            f"WITH tok AS ({_TOKTAB}) "
            f"SELECT t AS term, CAST(min(doc_id) AS BIGINT) AS first_doc, "
            f"CAST(max(doc_id) AS BIGINT) AS last_doc, "
            f"CAST(count(DISTINCT doc_id) AS BIGINT) AS df "
            f"FROM tok WHERE t IN ({posting_list}) GROUP BY t"
        ),
        "ft_paired_latest": (
            "SELECT source AS role, lang AS tool, CAST(max(doc_id) AS BIGINT) AS doc_id "
            "FROM documents WHERE coalesce(source, '') <> '' AND coalesce(lang, '') <> '' "
            "GROUP BY source, lang"
        ),
        "ft_match_composite": (
            "SELECT doc_id FROM documents WHERE source = 'src3' AND lang = 'en'"
        ),
        "ft_distinct_composite": (
            "SELECT DISTINCT source || '^' || lang AS term FROM documents "
            "WHERE coalesce(source, '') <> '' AND coalesce(lang, '') <> ''"
        ),
        "ev_distinct_sketch": _hll_oracle_sql(),
        "ev_quantiles": (
            "SELECT event_type AS key, "
            + ", ".join(
                f"round(quantile_cont(value, {q}), 6) AS q{int(q * 100):02d}"
                for q in QUANTILES
            )
            + " FROM events GROUP BY event_type"
        ),
        "ev_quantiles_sketch": _qsketch_oracle_sql(),
        "ev_sessionize": (
            f"""WITH e AS (SELECT user_id, event_id, epoch_us(ts) AS ts_us, value FROM events),
l AS (SELECT *, lag(ts_us) OVER (PARTITION BY user_id ORDER BY ts_us, event_id) AS prev FROM e),
s AS (SELECT *, sum(CASE WHEN prev IS NULL OR ts_us - prev > {SESSION_GAP_US}
                         THEN 1 ELSE 0 END)
                OVER (PARTITION BY user_id ORDER BY ts_us, event_id
                      ROWS UNBOUNDED PRECEDING) AS sess
      FROM l)
SELECT CAST(user_id AS BIGINT) AS user_id,
       CAST(min(event_id) AS BIGINT) AS session_id,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(min(ts_us) AS BIGINT) AS start_us,
       CAST(max(ts_us) AS BIGINT) AS end_us,
       round(sum(value), 6) AS sum_value
FROM s GROUP BY user_id, sess"""
        ),
        "ev_hopping": _hopping_oracle_sql(),
        "ev_asof": (
            f"""WITH p AS (SELECT event_id, user_id, epoch_us(ts) AS ts_us FROM events
       WHERE event_type = '{ASOF_LEFT}'),
c AS (SELECT event_id, user_id, epoch_us(ts) AS ts_us, value FROM events
      WHERE event_type = '{ASOF_RIGHT}'),
m AS (SELECT p.event_id,
             c.event_id AS prior_event_id, c.ts_us AS prior_ts_us,
             c.value AS prior_value,
             row_number() OVER (PARTITION BY p.event_id
                                ORDER BY c.ts_us DESC, c.event_id DESC) AS rn
      FROM p JOIN c ON c.user_id = p.user_id AND c.ts_us <= p.ts_us)
SELECT p.event_id, CAST(p.user_id AS BIGINT) AS user_id, p.ts_us,
       COALESCE(m.prior_event_id, -1) AS prior_event_id,
       COALESCE(m.prior_ts_us, -1) AS prior_ts_us,
       COALESCE(m.prior_value, 0.0) AS prior_value
FROM p LEFT JOIN (SELECT * FROM m WHERE rn = 1) m USING (event_id)"""
        ),
        "ev_interval_join": (
            f"""WITH l AS (SELECT event_id, user_id, epoch_us(ts) AS t FROM events
       WHERE event_type = '{IVJ_LEFT}'),
r AS (SELECT event_id, user_id, epoch_us(ts) AS t FROM events
      WHERE event_type = '{IVJ_RIGHT}')
SELECT l.event_id AS left_event_id, r.event_id AS right_event_id,
       CAST(l.user_id AS BIGINT) AS user_id, r.t - l.t AS dt_us
FROM l JOIN r ON r.user_id = l.user_id
 AND r.t >= l.t - {IVJ_BEFORE_US} AND r.t <= l.t + {IVJ_AFTER_US}"""
        ),
        "ev_range_join": (
            f"""WITH w AS (SELECT event_id AS window_id, epoch_us(ts) AS s FROM events
       WHERE event_type = '{RANGE_WIN_TYPE}'),
e AS (SELECT epoch_us(ts) AS t, CAST(round(value * 100) AS BIGINT) AS m FROM events),
j AS (SELECT w.window_id, CAST(count(*) AS BIGINT) AS n, CAST(sum(m) AS BIGINT) AS s
      FROM w JOIN e ON e.t >= w.s AND e.t < w.s + {RANGE_WIN_US} GROUP BY 1)
SELECT w.window_id, COALESCE(j.n, 0) AS n_events, COALESCE(j.s, 0) AS sum_cents
FROM w LEFT JOIN j USING (window_id)"""
        ),
        "ev_metric_waveform": (
            """WITH e AS (SELECT event_type, CAST(floor(epoch_us(ts) / 3600000000) AS BIGINT) AS b,
                  CAST(round(value * 100) AS BIGINT) AS m FROM events),
rng AS (SELECT min(b) AS lo, max(b) AS hi FROM e),
grid AS (SELECT t.event_type, lo + u.i AS b
         FROM (SELECT DISTINCT event_type FROM e) t, rng,
              unnest(range(hi - lo + 1)) AS u(i)),
agg AS (SELECT event_type, b, CAST(count(*) AS BIGINT) AS n, CAST(sum(m) AS BIGINT) AS s
        FROM e GROUP BY 1, 2),
g AS (SELECT grid.event_type, grid.b, COALESCE(n, 0) AS n, COALESCE(s, 0) AS s
      FROM grid LEFT JOIN agg USING (event_type, b)),
w AS (SELECT *, CASE WHEN n > 0 THEN s // n END AS q FROM g),
f AS (SELECT *,
        last_value(q IGNORE NULLS) OVER (PARTITION BY event_type ORDER BY b
          ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS pv,
        last_value(CASE WHEN q IS NOT NULL THEN b END IGNORE NULLS) OVER (PARTITION BY event_type ORDER BY b
          ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS px,
        first_value(q IGNORE NULLS) OVER (PARTITION BY event_type ORDER BY b
          ROWS BETWEEN CURRENT ROW AND UNBOUNDED FOLLOWING) AS nv,
        first_value(CASE WHEN q IS NOT NULL THEN b END IGNORE NULLS) OVER (PARTITION BY event_type ORDER BY b
          ROWS BETWEEN CURRENT ROW AND UNBOUNDED FOLLOWING) AS nx
      FROM w)
SELECT event_type, b * 3600 AS bucket_ts, n, s AS sum_metric,
       CASE WHEN q IS NOT NULL THEN q
            WHEN pv IS NULL THEN nv
            WHEN nv IS NULL THEN pv
            ELSE CAST(floor(pv + ((nv - pv) / CAST(nx - px AS DOUBLE)) * (b - px)) AS BIGINT)
       END AS metric
FROM f"""
        ),
        "ev_funnel": (
            f"""WITH e AS (SELECT user_id, epoch_us(ts) AS t, event_type FROM events),
s0 AS (SELECT user_id, min(t) AS t0 FROM e
       WHERE event_type = '{FUNNEL_STEPS[0]}' GROUP BY user_id),
s1 AS (SELECT e.user_id, min(t) AS t1 FROM e JOIN s0 USING (user_id)
       WHERE event_type = '{FUNNEL_STEPS[1]}' AND t > t0 GROUP BY e.user_id),
s2 AS (SELECT e.user_id, min(t) AS t2 FROM e JOIN s1 USING (user_id)
       WHERE event_type = '{FUNNEL_STEPS[2]}' AND t > t1 GROUP BY e.user_id)
SELECT CAST(0 AS BIGINT) AS step_idx, '{FUNNEL_STEPS[0]}' AS step,
       (SELECT CAST(count(*) AS BIGINT) FROM s0) AS n_users
UNION ALL SELECT 1, '{FUNNEL_STEPS[1]}', (SELECT CAST(count(*) AS BIGINT) FROM s1)
UNION ALL SELECT 2, '{FUNNEL_STEPS[2]}', (SELECT CAST(count(*) AS BIGINT) FROM s2)"""
        ),
        "ev_retention": (
            """WITH ud AS (SELECT DISTINCT user_id,
                     CAST(floor(epoch_us(ts) / 86400000000) AS BIGINT) AS day
             FROM events),
coh AS (SELECT user_id, min(day) AS cohort_day FROM ud GROUP BY user_id)
SELECT c.cohort_day, ud.day - c.cohort_day AS period,
       CAST(count(*) AS BIGINT) AS n_users
FROM ud JOIN coh c USING (user_id) GROUP BY 1, 2"""
        ),
        "ev_waveform": (
            "SELECT event_type, CAST(epoch(date_trunc('hour', ts)) AS BIGINT) AS bucket_ts, "
            "CAST(count(*) AS BIGINT) AS n FROM events GROUP BY 1, 2"
        ),
        "ev_distinct_users": (
            "SELECT event_type, CAST(count(DISTINCT user_id) AS BIGINT) AS n_users "
            "FROM events GROUP BY 1"
        ),
        "ev_topk_contrib": (
            f"""WITH c AS (SELECT event_type, CAST(user_id AS BIGINT) AS user_id,
                 CAST(count(*) AS BIGINT) AS n_events FROM events GROUP BY 1, 2),
r AS (SELECT event_type, user_id, n_events,
             CAST(row_number() OVER (PARTITION BY event_type
                                     ORDER BY n_events DESC, user_id ASC) AS BIGINT) AS rank
      FROM c)
SELECT event_type, user_id, n_events, rank FROM r WHERE rank <= {CONTRIB_N}"""
        ),
        "txt_ttr": (
            f"""WITH tok AS ({_TOKTAB}),
st AS (SELECT d.source, tok.t FROM tok JOIN documents d USING (doc_id))
SELECT source, CAST(count(*) AS BIGINT) AS n_tokens,
       CAST(count(DISTINCT t) AS BIGINT) AS n_types,
       round(count(DISTINCT t) / CAST(count(*) AS DOUBLE), 6) AS ttr
FROM st GROUP BY source"""
        ),
        "txt_vocab_growth": (
            f"""WITH tok AS ({_TOKTAB}),
firsts AS (SELECT t, CAST(min(doc_id) AS BIGINT) AS doc_id FROM tok GROUP BY t),
per_doc AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS new_types
            FROM firsts GROUP BY doc_id)
SELECT doc_id, new_types,
       CAST(sum(new_types) OVER (ORDER BY doc_id) AS BIGINT) AS vocab_size
FROM per_doc"""
        ),
        "ev_ewma": (
            """WITH RECURSIVE w AS (SELECT event_type,
                 CAST(epoch(date_trunc('hour', ts)) AS BIGINT) AS bucket_ts,
                 CAST(count(*) AS BIGINT) AS n FROM events GROUP BY 1, 2),
ord AS (SELECT event_type, bucket_ts, n,
               CAST(row_number() OVER (PARTITION BY event_type ORDER BY bucket_ts) AS BIGINT) AS k
        FROM w),
e AS (
  SELECT event_type, bucket_ts, n, k, n * 1000000 AS s FROM ord WHERE k = 1
  UNION ALL
  SELECT o.event_type, o.bucket_ts, o.n, o.k, (e.s + o.n * 1000000) // 2 AS s
  FROM e JOIN ord o ON o.event_type = e.event_type AND o.k = e.k + 1)
SELECT event_type, bucket_ts, n, CAST(s AS BIGINT) AS ewma FROM e"""
        ),
        "ev_anomaly": (
            f"""WITH w AS (SELECT event_type,
                 CAST(epoch(date_trunc('hour', ts)) AS BIGINT) AS bucket_ts,
                 CAST(count(*) AS BIGINT) AS n FROM events GROUP BY 1, 2),
st AS (SELECT event_type, CAST(count(*) AS BIGINT) AS c,
              CAST(sum(n) AS BIGINT) AS s1, CAST(sum(n * n) AS BIGINT) AS s2
       FROM w GROUP BY 1),
z AS (SELECT w.event_type, w.bucket_ts, w.n,
             (w.n - CAST(st.s1 AS DOUBLE) / st.c)
           / sqrt(CAST(st.s2 * st.c - st.s1 * st.s1 AS DOUBLE)
                  / (CAST(st.c AS DOUBLE) * st.c)) AS zv
      FROM w JOIN st USING (event_type)
      WHERE st.s2 * st.c - st.s1 * st.s1 > 0)
SELECT event_type, bucket_ts, n, round(zv, 6) AS z FROM z WHERE zv > {ANOMALY_Z}"""
        ),
        "ev_latest": (
            "SELECT user_id, CAST(max(epoch_us(ts)) AS BIGINT) AS last_ts, "
            "CAST(min(epoch_us(ts)) AS BIGINT) AS first_ts, "
            "CAST(count(*) AS BIGINT) AS n_events FROM events GROUP BY user_id"
        ),
        "ev_trending_peaks": _trending_peaks_oracle_sql(),
        "ev_trending": (
            """WITH mm AS (SELECT CAST(min(epoch_us(ts)) AS BIGINT) AS lo,
                       CAST(max(epoch_us(ts)) AS BIGINT) AS hi FROM events),
m AS (SELECT lo + (hi - lo) // 2 AS mid FROM mm)
SELECT event_type,
       CAST(sum(CASE WHEN epoch_us(ts) > m.mid THEN 1 ELSE 0 END) AS BIGINT) AS n_recent,
       CAST(sum(CASE WHEN epoch_us(ts) > m.mid THEN 0 ELSE 1 END) AS BIGINT) AS n_older,
       CAST(sum(CASE WHEN epoch_us(ts) > m.mid THEN 1 ELSE -1 END) AS BIGINT) AS delta
FROM events CROSS JOIN m GROUP BY event_type"""
        ),
        "bloom_index": _bloom_sql(),
        "strut_model": (
            f"""WITH tok AS ({_TOKTAB}),
feat(t) AS (VALUES {", ".join(f"('{t}')" for t in STRUT_TERMS)}),
present AS (SELECT DISTINCT doc_id, t FROM tok
            WHERE t IN ({", ".join(f"'{t}'" for t in STRUT_TERMS)})),
posdocs AS (SELECT DISTINCT doc_id FROM tok WHERE t = 'the'),
agg AS (SELECT p.t, CAST(count(*) AS BIGINT) AS n_all,
               CAST(sum(CASE WHEN p.doc_id IN (SELECT doc_id FROM posdocs)
                             THEN 1 ELSE 0 END) AS BIGINT) AS n_pos
        FROM present p GROUP BY p.t)
SELECT f.t AS term,
       round(CASE WHEN COALESCE(agg.n_all, 0) > 0
                  THEN CAST(agg.n_pos AS DOUBLE) / agg.n_all ELSE 0.0 END, 6) AS weight
FROM feat f LEFT JOIN agg ON agg.t = f.t"""
        ),
        "strut_score": (
            f"""WITH tok AS ({_TOKTAB}),
g AS (SELECT t, CAST(count(*) AS BIGINT) AS ttf FROM tok GROUP BY t),
stats AS (SELECT CAST(sum(CAST(len({_TOK}) AS BIGINT)) AS BIGINT) AS total_tokens FROM documents),
model AS (SELECT t, CAST(ttf AS DOUBLE) / stats.total_tokens AS w
          FROM g CROSS JOIN stats WHERE t IN ({", ".join(f"'{t}'" for t in STRUT_TERMS)})),
present AS (SELECT DISTINCT doc_id, t FROM tok WHERE t IN ({", ".join(f"'{t}'" for t in STRUT_TERMS)}))
SELECT d.doc_id, round(coalesce(avg(m.w), 0.0), 6) AS score
FROM documents d
LEFT JOIN present p ON p.doc_id = d.doc_id
LEFT JOIN model m ON m.t = p.t
GROUP BY d.doc_id"""
        ),
        "ft_strut": (
            f"""WITH tok AS ({_TOKTAB}),
g AS (SELECT t, CAST(count(*) AS BIGINT) AS ttf FROM tok GROUP BY t),
stats AS (SELECT CAST(sum(CAST(len({_TOK}) AS BIGINT)) AS BIGINT) AS total_tokens FROM documents),
model AS (SELECT t, CAST(ttf AS DOUBLE) / stats.total_tokens AS w
          FROM g CROSS JOIN stats WHERE t IN ({", ".join(f"'{t}'" for t in STRUT_TERMS)})),
present AS (SELECT DISTINCT doc_id, t FROM tok WHERE t IN ({", ".join(f"'{t}'" for t in STRUT_TERMS)}))
SELECT p.doc_id, round(avg(m.w), 6) AS score
FROM present p JOIN model m ON m.t = p.t GROUP BY p.doc_id"""
        ),
        "strut_fields": (
            f"""WITH tok AS ({_TOKTAB}),
posdocs AS (SELECT DISTINCT doc_id FROM tok WHERE t = '{STRUT_POS}'),
d AS (SELECT doc_id, source, lang,
             (doc_id IN (SELECT doc_id FROM posdocs)) AS pos,
             coalesce(source, '') <> '' AS s_ok,
             coalesce(lang, '') <> '' AS l_ok
      FROM documents),
r0 AS (SELECT source, avg(CASE WHEN pos THEN 1.0 ELSE 0.0 END) AS w
       FROM d WHERE s_ok GROUP BY source),
r1 AS (SELECT lang, avg(CASE WHEN pos THEN 1.0 ELSE 0.0 END) AS w
       FROM d WHERE l_ok GROUP BY lang),
r2 AS (SELECT source, lang, avg(CASE WHEN pos THEN 1.0 ELSE 0.0 END) AS w
       FROM d WHERE s_ok AND l_ok GROUP BY source, lang)
SELECT d.doc_id,
       CASE WHEN (CASE WHEN d.s_ok THEN 1 ELSE 0 END
                  + CASE WHEN d.l_ok THEN 1 ELSE 0 END
                  + CASE WHEN d.s_ok AND d.l_ok THEN 1 ELSE 0 END) > 0
            THEN round((coalesce(CASE WHEN d.s_ok THEN r0.w END, 0)
                        + coalesce(CASE WHEN d.l_ok THEN r1.w END, 0)
                        + coalesce(CASE WHEN d.s_ok AND d.l_ok THEN r2.w END, 0))
                       / (CASE WHEN d.s_ok THEN 1 ELSE 0 END
                          + CASE WHEN d.l_ok THEN 1 ELSE 0 END
                          + CASE WHEN d.s_ok AND d.l_ok THEN 1 ELSE 0 END), 6)
            ELSE 0.0 END AS score
FROM d
LEFT JOIN r0 ON r0.source = d.source
LEFT JOIN r1 ON r1.lang = d.lang
LEFT JOIN r2 ON r2.source = d.source AND r2.lang = d.lang"""
        ),
        "reco_ppr": _ppr_oracle_sql(),
        "reco_item_sim": (
            f"""WITH ev AS (SELECT DISTINCT CAST(user_id AS BIGINT) AS user_id,
            CAST(regexp_replace(props, '[^0-9]', '', 'g') AS BIGINT) AS item
     FROM events WHERE event_type <> 'error'),
capped AS (SELECT user_id, item FROM (
             SELECT user_id, item,
                    row_number() OVER (PARTITION BY user_id ORDER BY item) AS rn
             FROM ev) WHERE rn <= {ITEM_SIM_CAP}),
pr AS (SELECT x.item AS a, y.item AS b, CAST(count(*) AS BIGINT) AS n_common
       FROM capped x JOIN capped y ON x.user_id = y.user_id AND x.item < y.item
       GROUP BY 1, 2),
nc AS (SELECT item, CAST(count(*) AS BIGINT) AS nu FROM ev GROUP BY 1),
s AS (SELECT pr.a, pr.b, pr.n_common,
             pr.n_common / sqrt(CAST(na.nu AS DOUBLE) * nb.nu) AS raw_sim
      FROM pr JOIN nc na ON na.item = pr.a JOIN nc nb ON nb.item = pr.b)
SELECT a AS item_a, b AS item_b, n_common, round(raw_sim, 6) AS sim
FROM s ORDER BY raw_sim DESC, a ASC, b ASC LIMIT {ITEM_SIM_K}"""
        ),
        "reco_cf": (
            f"""WITH ev AS (SELECT CAST(user_id AS BIGINT) AS user_id,
            CAST(regexp_replace(props, '[^0-9]', '', 'g') AS BIGINT) AS item
     FROM events WHERE event_type <> 'error'),
mine AS (SELECT DISTINCT item FROM ev WHERE user_id = {RECO_USER}),
contrib AS (SELECT user_id, CAST(count(*) AS BIGINT) AS n
            FROM ev WHERE user_id <> {RECO_USER} AND item IN (SELECT item FROM mine)
            GROUP BY user_id ORDER BY n DESC, user_id ASC LIMIT {RECO_K}),
cand AS (SELECT DISTINCT e.item, c.user_id, c.n
         FROM ev e JOIN contrib c USING (user_id)
         WHERE e.item NOT IN (SELECT item FROM mine))
SELECT item, CAST(sum(n) AS BIGINT) AS score FROM cand GROUP BY item
ORDER BY score DESC, item ASC LIMIT {RECO_K}"""
        ),
        "dd_exact": (
            "SELECT CAST(min(doc_id) AS BIGINT) AS keep_id, "
            "CAST(count(*) AS BIGINT) AS n_dups FROM documents GROUP BY text"
        ),
        "dd_minhash": (
            f"""WITH {_minhash_pair_ctes()}
SELECT CAST(a AS BIGINT) AS a, CAST(b AS BIGINT) AS b, est_jaccard
FROM mh_pairs WHERE est_jaccard >= 0.5"""
        ),
        "dd_simhash_groups": (
            f"""WITH {_simhash_ctes()}
SELECT CAST(min(doc_id) AS BIGINT) AS keep_id, CAST(count(*) AS BIGINT) AS n_dups
FROM sim GROUP BY simhash"""
        ),
        "dd_cdc": (
            f"""WITH tok AS (SELECT doc_id, unnest(toks) AS t,
                    generate_subscripts(toks, 1) AS ord
             FROM (SELECT doc_id, {_TOK} AS toks FROM documents)),
th AS (SELECT doc_id, ord, t, {_fnv_sql('t')} AS h FROM tok),
seg AS (SELECT doc_id, ord, t,
               CAST(sum(CASE WHEN h % 8 = 0 THEN 1 ELSE 0 END)
                    OVER (PARTITION BY doc_id ORDER BY ord) AS BIGINT) AS cid
        FROM th),
chunks AS (SELECT doc_id, cid, string_agg(t, ' ' ORDER BY ord) AS chunk
           FROM seg GROUP BY 1, 2)
SELECT chunk, CAST(count(*) AS BIGINT) AS n
FROM chunks GROUP BY chunk HAVING count(*) >= 2"""
        ),
        "dd_lines": (
            f"""WITH d AS (SELECT doc_id, {_TOK} AS toks FROM documents),
tok AS (SELECT doc_id, unnest(toks) AS t, generate_subscripts(toks, 1) AS ord FROM d),
blk AS (SELECT doc_id, CAST((ord - 1) // {LINE_P} AS BIGINT) AS b,
               string_agg(t, ' ' ORDER BY ord) AS para
        FROM tok GROUP BY 1, 2),
cnt AS (SELECT para, count(*) AS n, min(doc_id) AS owner FROM blk GROUP BY para),
keepb AS (SELECT blk.doc_id, blk.b, blk.para FROM blk JOIN cnt USING (para)
          WHERE cnt.n = 1 OR cnt.owner = blk.doc_id),
clean AS (SELECT doc_id, string_agg(para, ' ' ORDER BY b) AS text
          FROM keepb GROUP BY doc_id),
drops AS (SELECT blk.doc_id, CAST(count(*) AS BIGINT) AS n_dropped
          FROM blk JOIN cnt USING (para)
          WHERE cnt.n > 1 AND cnt.owner <> blk.doc_id GROUP BY blk.doc_id)
SELECT d0.doc_id, COALESCE(cl.text, '') AS text,
       COALESCE(dr.n_dropped, 0) AS n_dropped
FROM documents d0
LEFT JOIN clean cl ON cl.doc_id = d0.doc_id
LEFT JOIN drops dr ON dr.doc_id = d0.doc_id"""
        ),
        "dd_simhash_near": (
            f"""WITH {_simhash_ctes()},
simu AS (SELECT doc_id, CAST(simhash % {U64} AS UBIGINT) AS sh FROM sim),
bands AS (SELECT doc_id, sh, CAST(b AS BIGINT) AS band,
                 CAST((sh >> (16 * b)) & 65535 AS BIGINT) AS key
          FROM simu CROSS JOIN (SELECT unnest(range(4)) AS b) bb),
capped AS (SELECT band, key, doc_id, sh FROM (
             SELECT band, key, doc_id, sh,
                    row_number() OVER (PARTITION BY band, key ORDER BY doc_id) AS rn
             FROM bands) WHERE rn <= 256),
pairs AS (SELECT DISTINCT x.doc_id AS a, y.doc_id AS b,
                 CAST(bit_count(xor(x.sh, y.sh)) AS BIGINT) AS hamming
          FROM capped x JOIN capped y USING (band, key)
          WHERE x.doc_id < y.doc_id)
SELECT CAST(a AS BIGINT) AS a, CAST(b AS BIGINT) AS b, hamming
FROM pairs WHERE hamming <= {SIMHASH_NEAR_MAXHAM}"""
        ),
        "dd_clusters": (
            f"""WITH RECURSIVE {_minhash_pair_ctes()},
sel AS (SELECT a, b FROM mh_pairs WHERE est_jaccard >= 0.9),
edges AS (SELECT a AS s, b AS d FROM sel UNION SELECT b, a FROM sel),
reach(s, d) AS (SELECT s, d FROM edges
                UNION
                SELECT r.s, e.d FROM reach r JOIN edges e ON r.d = e.s)
SELECT CAST(s AS BIGINT) AS doc_id, CAST(least(s, min(d)) AS BIGINT) AS cluster_id
FROM reach GROUP BY s"""
        ),
        "dd_substr_spans": (
            f"""WITH d AS (SELECT doc_id, {_TOK} AS tk FROM documents),
g AS (SELECT doc_id, CAST(i AS BIGINT) AS pos,
             array_to_string(tk[i + 1:i + {SUBSTR_L}], ' ') AS gram
      FROM d, unnest(range(len(tk) - {SUBSTR_L} + 1)) AS t(i)
      WHERE len(tk) >= {SUBSTR_L}),
dup AS (SELECT gram FROM g GROUP BY gram HAVING count(*) >= {SUBSTR_MIN}),
w AS (SELECT doc_id, pos FROM g JOIN dup USING (gram)),
lagd AS (SELECT doc_id, pos,
                lag(pos) OVER (PARTITION BY doc_id ORDER BY pos) AS prev FROM w),
isl AS (SELECT doc_id, pos,
               sum(CASE WHEN prev IS NULL OR pos - prev > {SUBSTR_L} THEN 1 ELSE 0 END)
                 OVER (PARTITION BY doc_id ORDER BY pos) AS island
        FROM lagd)
SELECT CAST(doc_id AS BIGINT) AS doc_id, CAST(min(pos) AS BIGINT) AS span_start,
       CAST(max(pos) + {SUBSTR_L} AS BIGINT) AS span_end,
       CAST(count(*) AS BIGINT) AS n_windows
FROM isl GROUP BY doc_id, island"""
        ),
        "dd_substr_clean": (
            f"""WITH d AS (SELECT doc_id, {_TOK} AS tk FROM documents),
g AS (SELECT doc_id, CAST(i AS BIGINT) AS pos,
             array_to_string(tk[i + 1:i + {SUBSTR_L}], ' ') AS gram
      FROM d, unnest(range(len(tk) - {SUBSTR_L} + 1)) AS t(i)
      WHERE len(tk) >= {SUBSTR_L}),
dup AS (SELECT gram FROM g GROUP BY gram HAVING count(*) >= {SUBSTR_MIN}),
w AS (SELECT doc_id, pos FROM g JOIN dup USING (gram)),
tok AS (SELECT doc_id, unnest(tk) AS t, generate_subscripts(tk, 1) - 1 AS tpos FROM d),
cov AS (SELECT doc_id, tpos, t,
               EXISTS (SELECT 1 FROM w WHERE w.doc_id = tok.doc_id
                       AND tok.tpos BETWEEN w.pos AND w.pos + {SUBSTR_L} - 1) AS covered
        FROM tok),
agg AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS n_tokens,
               CAST(coalesce(count(*) FILTER (WHERE covered), 0) AS BIGINT) AS n_dup_tokens,
               coalesce(string_agg(t, ' ' ORDER BY tpos) FILTER (WHERE NOT covered), '')
                 AS clean_text
        FROM cov GROUP BY doc_id)
SELECT CAST(dd.doc_id AS BIGINT) AS doc_id,
       coalesce(a.n_tokens, 0) AS n_tokens,
       coalesce(a.n_dup_tokens, 0) AS n_dup_tokens,
       coalesce(a.clean_text, '') AS clean_text
FROM documents dd LEFT JOIN agg a ON a.doc_id = dd.doc_id"""
        ),
        "dd_keep_best": (
            f"""WITH RECURSIVE {_minhash_pair_ctes()},
sel AS (SELECT a, b FROM mh_pairs WHERE est_jaccard >= 0.9),
edges AS (SELECT a AS s, b AS d FROM sel UNION SELECT b, a FROM sel),
reach(s, d) AS (SELECT s, d FROM edges
                UNION
                SELECT r.s, e.d FROM reach r JOIN edges e ON r.d = e.s),
comp AS (SELECT CAST(s AS BIGINT) AS doc_id,
                CAST(least(s, min(d)) AS BIGINT) AS cluster_id
         FROM reach GROUP BY s),
kb_tok AS (SELECT doc_id, CAST(len({_TOK}) AS BIGINT) AS n_tokens
        FROM documents WHERE doc_id IN (SELECT doc_id FROM comp)),
kb_j AS (SELECT comp.doc_id, comp.cluster_id, kb_tok.n_tokens,
             row_number() OVER (PARTITION BY comp.cluster_id
                                ORDER BY kb_tok.n_tokens DESC, comp.doc_id ASC) AS rn
      FROM comp JOIN kb_tok USING (doc_id)),
kb_k AS (SELECT cluster_id, doc_id AS keep_id FROM kb_j WHERE rn = 1)
SELECT kb_j.doc_id, kb_j.cluster_id, kb_k.keep_id, kb_j.n_tokens,
       kb_j.doc_id = kb_k.keep_id AS kept
FROM kb_j JOIN kb_k USING (cluster_id)"""
        ),
        "dd_ngram_jaccard": (
            f"""WITH {_gram_ctes()},
dg AS (SELECT DISTINCT doc_id, g FROM grams),
ndist AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS n FROM dg GROUP BY doc_id),
-- hot-shingle cap: grams in >{NGRAM_MAX_DF} docs contribute no pair evidence
inv AS (SELECT doc_id, g FROM dg
        WHERE g IN (SELECT g FROM dg GROUP BY g
                    HAVING count(*) BETWEEN 2 AND {NGRAM_MAX_DF})),
inter AS (SELECT x.doc_id AS a, y.doc_id AS b, CAST(count(*) AS BIGINT) AS i
          FROM inv x JOIN inv y USING (g) WHERE x.doc_id < y.doc_id
          GROUP BY x.doc_id, y.doc_id)
SELECT CAST(a AS BIGINT) AS a, CAST(b AS BIGINT) AS b,
       round(i / (na.n + nb.n - i), 6) AS jaccard
FROM inter JOIN ndist na ON na.doc_id = a JOIN ndist nb ON nb.doc_id = b
WHERE round(i / (na.n + nb.n - i), 6) >= {NGRAM_JACCARD_THRESHOLD}"""
        ),
        # same exact-Jaccard semantics, wider evidence window — the prefix
        # filter changes the execution shape, not the answer
        "dd_jaccard_prefix": (
            f"""WITH {_gram_ctes()},
dg AS (SELECT DISTINCT doc_id, g FROM grams),
ndist AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS n FROM dg GROUP BY doc_id),
inv AS (SELECT doc_id, g FROM dg
        WHERE g IN (SELECT g FROM dg GROUP BY g
                    HAVING count(*) BETWEEN 2 AND {JACCARD_PREFIX_MAX_DF})),
inter AS (SELECT x.doc_id AS a, y.doc_id AS b, CAST(count(*) AS BIGINT) AS i
          FROM inv x JOIN inv y USING (g) WHERE x.doc_id < y.doc_id
          GROUP BY x.doc_id, y.doc_id)
SELECT CAST(a AS BIGINT) AS a, CAST(b AS BIGINT) AS b,
       round(i / (na.n + nb.n - i), 6) AS jaccard
FROM inter JOIN ndist na ON na.doc_id = a JOIN ndist nb ON nb.doc_id = b
WHERE round(i / (na.n + nb.n - i), 6) >= {JACCARD_PREFIX_THRESHOLD}"""
        ),
        "txt_fingerprints": (
            f"""WITH {_gram_ctes()},
wmin AS (SELECT doc_id, pos,
           min(g) OVER (PARTITION BY doc_id ORDER BY pos ROWS BETWEEN CURRENT ROW AND 3 FOLLOWING) AS wm,
           count(*) OVER (PARTITION BY doc_id ORDER BY pos ROWS BETWEEN CURRENT ROW AND 3 FOLLOWING) AS wn
         FROM grams),
longdoc AS (SELECT DISTINCT doc_id FROM wmin WHERE wn = 4),
fps AS (SELECT DISTINCT doc_id, wm AS fp FROM wmin WHERE wn = 4
        UNION
        SELECT doc_id, min(g) AS fp FROM grams
        WHERE doc_id NOT IN (SELECT doc_id FROM longdoc) GROUP BY doc_id),
ngr AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS n_grams FROM grams GROUP BY doc_id),
fpa AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS n_fingerprints, bit_xor(fp) AS fx FROM fps GROUP BY doc_id)
SELECT d.doc_id, COALESCE(ngr.n_grams, 0) AS n_grams,
       COALESCE(fpa.n_fingerprints, 0) AS n_fingerprints,
       {_i64view('COALESCE(fpa.fx, 0)')} AS fp_xor
FROM documents d LEFT JOIN ngr USING (doc_id) LEFT JOIN fpa USING (doc_id)"""
        ),
        "dd_passages": (
            f"""WITH {_gram_ctes()},
wmin AS (SELECT doc_id, pos,
           min(g) OVER (PARTITION BY doc_id ORDER BY pos ROWS BETWEEN CURRENT ROW AND 3 FOLLOWING) AS wm,
           count(*) OVER (PARTITION BY doc_id ORDER BY pos ROWS BETWEEN CURRENT ROW AND 3 FOLLOWING) AS wn
         FROM grams),
longdoc AS (SELECT DISTINCT doc_id FROM wmin WHERE wn = 4),
fps AS (SELECT DISTINCT doc_id, wm AS fp FROM wmin WHERE wn = 4
        UNION
        SELECT doc_id, min(g) AS fp FROM grams
        WHERE doc_id NOT IN (SELECT doc_id FROM longdoc) GROUP BY doc_id),
inv AS (SELECT doc_id, fp FROM fps
        WHERE fp IN (SELECT fp FROM fps GROUP BY fp
                     HAVING count(*) BETWEEN 2 AND {PASSAGE_MAX_DF})),
pr AS (SELECT x.doc_id AS a, y.doc_id AS b, CAST(count(*) AS BIGINT) AS shared
       FROM inv x JOIN inv y USING (fp) WHERE x.doc_id < y.doc_id
       GROUP BY x.doc_id, y.doc_id)
SELECT CAST(a AS BIGINT) AS a, CAST(b AS BIGINT) AS b, shared
FROM pr WHERE shared >= {PASSAGE_MIN_SHARED}"""
        ),
        "txt_redact": _redact_oracle_sql(REDACT_PATTERNS),
        "txt_keywords": (
            f"""WITH tok AS ({_TOKTAB}),
tf AS (SELECT doc_id, t AS term, CAST(count(*) AS BIGINT) AS tf FROM tok GROUP BY doc_id, t),
df AS (SELECT term, CAST(count(*) AS BIGINT) AS df FROM tf GROUP BY term),
n AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM documents),
sc AS (SELECT tf.doc_id, tf.term,
              round(CAST(tf.tf AS DOUBLE) * ln(n.n / df.df), 6) AS score
       FROM tf JOIN df USING (term) CROSS JOIN n),
rk AS (SELECT doc_id, term, score,
              row_number() OVER (PARTITION BY doc_id ORDER BY score DESC, term ASC) AS rn
       FROM sc)
SELECT doc_id, term, score FROM rk WHERE rn <= {KEYWORDS_K}"""
        ),
        "txt_source_stats": (
            f"""WITH q AS (SELECT source,
        CAST(len({_TOK}) AS BIGINT) AS ntok,
        CAST(len(list_filter({_TOK}, x -> x IN ({stop_list}))) AS BIGINT) AS nstop,
        CAST(length(text) AS BIGINT) AS nchars
      FROM documents)
SELECT source, CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(ntok) AS BIGINT) AS n_tokens,
       CAST(sum(nstop) AS BIGINT) AS n_stopwords,
       CAST(sum(nchars) AS BIGINT) AS n_chars,
       round(CAST(sum(ntok) AS DOUBLE) / greatest(count(*), 1), 6) AS mean_tokens,
       round(CAST(sum(nstop) AS DOUBLE) / greatest(sum(ntok), 1), 6) AS stopword_ratio
FROM q GROUP BY source"""
        ),
        "txt_chunks": (
            f"""WITH tok AS (SELECT doc_id, {_TOK} AS toks FROM documents),
chunks AS (
  SELECT doc_id, CAST(t.i AS BIGINT) AS chunk_idx,
         toks[CAST(t.i*{CHUNK_MAX_TOKENS}+1 AS BIGINT):CAST(least((t.i+1)*{CHUNK_MAX_TOKENS}, len(toks)) AS BIGINT)] AS ct
  FROM tok, unnest(range(CAST(ceil(len(toks)/{CHUNK_MAX_TOKENS}.0) AS BIGINT))) AS t(i)
  WHERE len(toks) > 0)
SELECT CAST(doc_id AS BIGINT) AS doc_id, chunk_idx,
       CAST(len(ct) AS BIGINT) AS n_tokens, array_to_string(ct, ' ') AS chunk_text
FROM chunks"""
        ),
        "txt_packing": (
            f"""WITH n AS (SELECT doc_id, CAST(len({_TOK}) AS BIGINT) AS n_tokens FROM documents),
c AS (SELECT doc_id, n_tokens,
        COALESCE(sum(n_tokens) OVER (ORDER BY doc_id
          ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS tokens_before
      FROM n)
SELECT CAST(doc_id AS BIGINT) AS doc_id, n_tokens,
       CAST(floor(tokens_before / {PACK_BUDGET}) AS BIGINT) AS pack_id
FROM c"""
        ),
        "txt_decontam": (
            f"""WITH {_gram_ctes()},
eg AS (SELECT DISTINCT g FROM grams WHERE doc_id < {DECONTAM_EVAL_MAX_DOC_ID}),
tg AS (SELECT DISTINCT doc_id, g FROM grams WHERE doc_id >= {DECONTAM_EVAL_MAX_DOC_ID}),
hits AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS n_hits
         FROM tg JOIN eg USING (g) GROUP BY doc_id)
SELECT CAST(d.doc_id AS BIGINT) AS doc_id,
       COALESCE(h.n_hits, 0) AS n_hits,
       COALESCE(h.n_hits, 0) > 0 AS contaminated
FROM documents d LEFT JOIN hits h USING (doc_id)
WHERE d.doc_id >= {DECONTAM_EVAL_MAX_DOC_ID}"""
        ),
        "pipe_curate": (
            f"""WITH {_gram_ctes_k(CURATE_K)},
eg AS (SELECT DISTINCT g FROM grams WHERE doc_id < {CURATE_EVAL_MAX}),
tg AS (SELECT DISTINCT doc_id, g FROM grams WHERE doc_id >= {CURATE_EVAL_MAX}),
ch AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS nh FROM tg JOIN eg USING (g) GROUP BY doc_id),
d AS (SELECT doc_id, text, {_TOK} AS tk FROM documents WHERE doc_id >= {CURATE_EVAL_MAX}),
hl AS (SELECT doc_id, text, CAST(len(tk) AS BIGINT) AS n_tokens, """
            + ", ".join(
                "CAST(len(list_filter(tk, x -> x IN ({mk}))) AS BIGINT) AS {lang}_hits".format(
                    mk=", ".join(f"'{m}'" for m in LANG_MARKERS[lang]), lang=lang
                )
                for lang in LANG_ORDER
            )
            + f""" FROM d),
g2 AS (SELECT doc_id, unnest(list_transform(range(1, len(tk)), i -> tk[i] || ' ' || tk[i + 1])) AS g FROM d),
c2 AS (SELECT doc_id, g, count(*) AS c FROM g2 GROUP BY 1, 2),
s2 AS (SELECT doc_id, CAST(sum(c) AS BIGINT) AS total, CAST(count(*) AS BIGINT) AS dist FROM c2 GROUP BY 1),
sig AS (SELECT hl.doc_id, hl.text, n_tokens, {lang_pred_sql()} AS pred_lang,
          COALESCE((s2.total - s2.dist) / s2.total, 0.0) AS dup_bigram_frac,
          COALESCE(ch.nh, 0) AS n_contam_hits
        FROM hl LEFT JOIN s2 USING (doc_id) LEFT JOIN ch USING (doc_id)),
gate AS (SELECT *, CASE WHEN n_tokens < {CURATE_MIN_TOKENS} THEN 'quality'
                        WHEN pred_lang <> '{CURATE_LANG}' THEN 'language'
                        WHEN dup_bigram_frac > {CURATE_MAX_DUP} THEN 'repetition'
                        WHEN n_contam_hits > 0 THEN 'contaminated'
                        ELSE 'pass' END AS g0 FROM sig),
win AS (SELECT text, CAST(min(doc_id) AS BIGINT) AS keep_id
        FROM gate WHERE g0 = 'pass' GROUP BY text)
SELECT g.doc_id, n_tokens, pred_lang, dup_bigram_frac, n_contam_hits,
       CASE WHEN g.g0 <> 'pass' THEN g.g0
            WHEN g.doc_id = w.keep_id THEN 'kept'
            ELSE 'duplicate' END AS verdict
FROM gate g LEFT JOIN win w ON g.g0 = 'pass' AND g.text = w.text"""
        ),
        "txt_charlm": (
            f"""WITH norm AS (SELECT doc_id, array_to_string({_TOK}, ' ') AS s FROM documents),
bg AS (SELECT doc_id, substring(s, CAST(i AS INT), 2) AS b
       FROM (SELECT doc_id, s, unnest(range(1, greatest(length(s), 1))) AS i FROM norm)),
counts AS (SELECT b, CAST(count(*) AS BIGINT) AS n FROM bg GROUP BY b),
rowtot AS (SELECT substring(b, 1, 1) AS c1, CAST(sum(n) AS BIGINT) AS rt
           FROM counts GROUP BY 1),
lp AS (SELECT counts.b, ln((n + 1.0) / (rt + 37.0)) AS l
       FROM counts JOIN rowtot ON rowtot.c1 = substring(counts.b, 1, 1)),
sc AS (SELECT bg.doc_id, CAST(count(*) AS BIGINT) AS n_bigrams,
              round(avg(lp.l), 6) AS lm_score
       FROM bg JOIN lp ON lp.b = bg.b GROUP BY bg.doc_id)
SELECT d.doc_id, COALESCE(sc.n_bigrams, 0) AS n_bigrams,
       COALESCE(sc.lm_score, 0.0) AS lm_score
FROM documents d LEFT JOIN sc USING (doc_id)"""
        ),
        "txt_bpe": _bpe_oracle_sql(),
        "txt_bpe_encode": _bpe_encode_oracle_sql(),
        "txt_splits": _splits_oracle_sql(),
        "txt_budget_sample": _budget_oracle_sql(),
        "txt_budget_epochs": _budget_epochs_oracle_sql(),
        "ft_percolate": _percolate_oracle_sql(),
        "txt_heavy_hitters": (
            f"""WITH tok AS ({_TOKTAB}),
c AS (SELECT t AS term, CAST(count(*) AS BIGINT) AS count FROM tok GROUP BY t),
tot AS (SELECT CAST(count(*) AS BIGINT) AS n FROM tok)
SELECT term, count FROM c, tot
WHERE count * {HH_FRAC[1]} > tot.n * {HH_FRAC[0]}"""
        ),
        "txt_stratified_sample": _strat_oracle_sql(),
        "txt_weighted_sample": _wsample_oracle_sql(),
        "txt_collocations": _colloc_oracle_sql(),
        "txt_textrank": _textrank_oracle_sql(),
        "txt_triangles": (
            f"""WITH d AS (SELECT doc_id, {_TOK} AS toks FROM documents),
tok AS (SELECT doc_id, unnest(toks) AS t, generate_subscripts(toks, 1) AS ord FROM d),
big0 AS (SELECT t AS a, lead(t) OVER (PARTITION BY doc_id ORDER BY ord) AS b FROM tok),
e0 AS (SELECT DISTINCT a, b FROM big0 WHERE b IS NOT NULL AND a <> b),
lex AS (SELECT DISTINCT least(a, b) AS u, greatest(a, b) AS v FROM e0),
wedge AS (SELECT e1.v AS x, e2.v AS y, e1.u AS w
          FROM lex e1 JOIN lex e2 ON e1.u = e2.u AND e1.v < e2.v),
tri AS (SELECT wedge.w AS t1, wedge.x AS t2, wedge.y AS t3
        FROM wedge JOIN lex ON lex.u = wedge.x AND lex.v = wedge.y),
verts AS (SELECT t1 AS term FROM tri UNION ALL SELECT t2 AS term FROM tri
          UNION ALL SELECT t3 AS term FROM tri)
SELECT term, CAST(count(*) AS BIGINT) AS triangles FROM verts GROUP BY term"""
        ),
        "txt_dsir": _dsir_oracle_sql(),
        "txt_top_ngrams": (
            f"""WITH d AS (SELECT doc_id, {_TOK} AS toks FROM documents),
tok AS (SELECT doc_id, unnest(toks) AS t, generate_subscripts(toks, 1) AS ord FROM d),
g AS (SELECT t || ' ' || lead(t, 1) OVER w || ' ' || lead(t, 2) OVER w AS gram
      FROM tok WINDOW w AS (PARTITION BY doc_id ORDER BY ord)),
c AS (SELECT gram, CAST(count(*) AS BIGINT) AS n FROM g WHERE gram IS NOT NULL GROUP BY gram)
SELECT gram, n FROM c ORDER BY n DESC, gram ASC LIMIT {NGRAM_K}"""
        ),
        "txt_token_bpe": (
            """SELECT doc_id,
  CAST(len(regexp_extract_all(lower(text), '[a-z]+|[0-9]|[^a-z0-9\\s]')) AS BIGINT) AS n_pieces,
  CAST(len(regexp_extract_all(lower(text), '[a-z]{1,4}|[0-9]|[^a-z0-9\\s]')) AS BIGINT) AS n_subwords
FROM documents"""
        ),
        "txt_quality": (
            f"""SELECT doc_id,
  CAST(length(text) AS BIGINT) AS n_chars,
  CAST(len({_TOK}) AS BIGINT) AS n_tokens,
  CASE WHEN len({_TOK}) > 0
       THEN CAST(list_sum(list_transform({_TOK}, x -> len(x))) AS BIGINT)
            / CAST(len({_TOK}) AS BIGINT)
       ELSE 0.0 END AS mean_token_len,
  CASE WHEN len({_TOK}) > 0
       THEN CAST(len(list_filter({_TOK}, x -> x IN ({stop_list}))) AS BIGINT)
            / CAST(len({_TOK}) AS BIGINT)
       ELSE 0.0 END AS stopword_ratio
FROM documents"""
        ),
        "txt_repetition": (
            f"""WITH toks AS (SELECT doc_id, {_TOK} AS tk FROM documents),
g2 AS (SELECT doc_id, unnest(list_transform(range(1, len(tk)),
              i -> tk[i] || ' ' || tk[i + 1])) AS g FROM toks),
g3 AS (SELECT doc_id, unnest(list_transform(range(1, len(tk) - 1),
              i -> tk[i] || ' ' || tk[i + 1] || ' ' || tk[i + 2])) AS g FROM toks),
c2 AS (SELECT doc_id, g, count(*) AS c FROM g2 GROUP BY doc_id, g),
c3 AS (SELECT doc_id, g, count(*) AS c FROM g3 GROUP BY doc_id, g),
s2 AS (SELECT doc_id, CAST(sum(c) AS BIGINT) AS total,
              CAST(count(*) AS BIGINT) AS dist,
              CAST(max(c) AS BIGINT) AS mx FROM c2 GROUP BY doc_id),
s3 AS (SELECT doc_id, CAST(sum(c) AS BIGINT) AS total,
              CAST(count(*) AS BIGINT) AS dist,
              CAST(max(c) AS BIGINT) AS mx FROM c3 GROUP BY doc_id)
SELECT d.doc_id,
  COALESCE(s2.total, 0) AS n_bigrams,
  COALESCE((s2.total - s2.dist) / s2.total, 0.0) AS dup_bigram_frac,
  COALESCE(s2.mx / s2.total, 0.0) AS top_bigram_frac,
  COALESCE(s3.total, 0) AS n_trigrams,
  COALESCE((s3.total - s3.dist) / s3.total, 0.0) AS dup_trigram_frac,
  COALESCE(s3.mx / s3.total, 0.0) AS top_trigram_frac
FROM documents d LEFT JOIN s2 USING (doc_id) LEFT JOIN s3 USING (doc_id)"""
        ),
        "txt_langid": (
            f"WITH h AS (SELECT doc_id, {lang_hit_cols} FROM documents) "
            f"SELECT doc_id, "
            + ", ".join(f"{x}_hits" for x in LANG_ORDER)
            + f", {lang_pred_sql()} AS pred_lang FROM h"
        ),
        "txt_nb_classify": (
            f"""WITH tok AS ({_TOKTAB}),
gcnt AS (SELECT t, CAST(count(*) AS BIGINT) AS n FROM tok GROUP BY t),
vocab AS (SELECT t FROM gcnt ORDER BY n DESC, t ASC LIMIT {NB_VOCAB}),
cls AS (SELECT source, CAST(count(*) AS BIGINT) AS docs FROM documents GROUP BY source),
tot AS (SELECT CAST(count(*) AS BIGINT) AS n FROM documents),
cnt AS (SELECT d.source, k.t, CAST(count(*) AS BIGINT) AS c
        FROM tok k JOIN documents d USING (doc_id)
        WHERE k.t IN (SELECT t FROM vocab)
        GROUP BY d.source, k.t),
ctot AS (SELECT cls.source, COALESCE(sum(cnt.c), 0) AS tc
         FROM cls LEFT JOIN cnt USING (source) GROUP BY cls.source),
lik AS (SELECT cls.source, v.t,
               ln((COALESCE(cnt.c, 0) + 1.0) / (ctot.tc + {NB_VOCAB})) AS ll
        FROM cls CROSS JOIN vocab v
        JOIN ctot ON ctot.source = cls.source
        LEFT JOIN cnt ON cnt.source = cls.source AND cnt.t = v.t),
contrib AS (SELECT k.doc_id, l.source, sum(l.ll) AS s
            FROM tok k JOIN lik l ON l.t = k.t GROUP BY k.doc_id, l.source),
allsc AS (SELECT d.doc_id, d.source, cls.source AS cand,
                 ln(CAST(cls.docs AS DOUBLE) / tot.n) + COALESCE(c.s, 0.0) AS score
          FROM documents d CROSS JOIN cls CROSS JOIN tot
          LEFT JOIN contrib c ON c.doc_id = d.doc_id AND c.source = cls.source),
pred AS (SELECT doc_id, source, cand,
                row_number() OVER (PARTITION BY doc_id ORDER BY score DESC, cand ASC) AS rn
         FROM allsc)
SELECT doc_id, source, cand AS pred_source, cand = source AS hit
FROM pred WHERE rn = 1"""
        ),
        "ann_jl": _jl_oracle_sql(),
        "ann_topk": (
            f"""WITH q AS (SELECT vec_id AS qid, embedding FROM embeddings WHERE vec_id < {ANN_NQ}),
scored AS (
  SELECT q.qid AS q, e.vec_id AS neighbor,
         round(list_cosine_similarity(e.embedding, q.embedding), 4) AS cos
  FROM embeddings e CROSS JOIN q WHERE e.vec_id <> q.qid),
ranked AS (
  SELECT q, neighbor, cos,
         row_number() OVER (PARTITION BY q ORDER BY cos DESC, neighbor ASC) AS rn
  FROM scored)
SELECT q, neighbor, cos FROM ranked WHERE rn <= {ANN_K}"""
        ),
        "ann_pq": (
            f"""WITH ev AS (
  SELECT vec_id,
         list_transform(embedding, x -> x::DOUBLE /
           sqrt(list_sum(list_transform(embedding, y -> y::DOUBLE * y::DOUBLE)))) AS v
  FROM embeddings),
cents AS (SELECT vec_id AS cid, v FROM ev WHERE vec_id % {IVF_STRIDE} = 0),
subs AS (SELECT CAST(unnest(range({PQ_NSUB})) AS BIGINT) AS m),
cs AS (SELECT m, cid, v[CAST(m * {ANN_DIM // PQ_NSUB} + 1 AS BIGINT):CAST((m + 1) * {ANN_DIM // PQ_NSUB} AS BIGINT)] AS sub
       FROM cents CROSS JOIN subs),
xs AS (SELECT m, vec_id, v[CAST(m * {ANN_DIM // PQ_NSUB} + 1 AS BIGINT):CAST((m + 1) * {ANN_DIM // PQ_NSUB} AS BIGINT)] AS sub
       FROM ev CROSS JOIN subs),
ad AS (SELECT xs.vec_id, xs.m, cs.cid,
              round(list_distance(xs.sub, cs.sub) ^ 2, 8) AS d2
       FROM xs JOIN cs USING (m)),
codes AS (SELECT vec_id, m, cid FROM (
            SELECT vec_id, m, cid,
                   row_number() OVER (PARTITION BY vec_id, m ORDER BY d2 ASC, cid ASC) AS rn
            FROM ad) WHERE rn = 1),
lut AS (SELECT vec_id AS qid, m, cid, d2 FROM ad WHERE vec_id < {ANN_NQ}),
adc AS (SELECT l.qid AS q, c.vec_id AS neighbor, sum(l.d2) AS adc
        FROM codes c JOIN lut l ON l.m = c.m AND l.cid = c.cid
        WHERE c.vec_id <> l.qid GROUP BY 1, 2),
ranked AS (SELECT q, neighbor, adc,
                  row_number() OVER (PARTITION BY q ORDER BY adc ASC, neighbor ASC) AS rn
           FROM adc)
SELECT q, neighbor, round(adc, 6) AS adc FROM ranked WHERE rn <= {ANN_K}"""
        ),
        "ann_hardneg": (
            f"""WITH q AS (SELECT vec_id AS qid, embedding, label FROM embeddings
           WHERE vec_id < {ANN_NQ}),
scored AS (
  SELECT q.qid AS q, e.vec_id AS neighbor, CAST(e.label AS BIGINT) AS neg_label,
         round(list_cosine_similarity(e.embedding, q.embedding), 4) AS cos
  FROM embeddings e CROSS JOIN q WHERE e.label <> q.label),
ranked AS (
  SELECT q, neighbor, neg_label, cos,
         row_number() OVER (PARTITION BY q ORDER BY cos DESC, neighbor ASC) AS rn
  FROM scored)
SELECT q, neighbor, neg_label, cos FROM ranked WHERE rn <= {ANN_K}"""
        ),
        "dd_cross_source": (
            f"""WITH {_minhash_pair_ctes()},
sel AS (SELECT a, b FROM mh_pairs WHERE est_jaccard >= 0.5),
lab AS (SELECT least(da.source, db.source) AS source_a,
               greatest(da.source, db.source) AS source_b
        FROM sel JOIN documents da ON da.doc_id = sel.a
                 JOIN documents db ON db.doc_id = sel.b)
SELECT source_a, source_b, CAST(count(*) AS BIGINT) AS n_pairs
FROM lab GROUP BY source_a, source_b"""
        ),
        "ann_knn": (
            f"""WITH q AS (SELECT vec_id AS qid, embedding FROM embeddings WHERE vec_id < {ANN_NQ}),
scored AS (
  SELECT q.qid AS q, e.vec_id AS neighbor,
         round(list_cosine_similarity(e.embedding, q.embedding), 4) AS cos
  FROM embeddings e CROSS JOIN q WHERE e.vec_id <> q.qid),
ranked AS (
  SELECT q, neighbor,
         row_number() OVER (PARTITION BY q ORDER BY cos DESC, neighbor ASC) AS rn
  FROM scored),
votes AS (
  SELECT r.q, CAST(e.label AS BIGINT) AS label, count(*) AS n
  FROM ranked r JOIN embeddings e ON e.vec_id = r.neighbor
  WHERE r.rn <= {ANN_K} GROUP BY r.q, e.label),
best AS (SELECT q, label, n,
                row_number() OVER (PARTITION BY q ORDER BY n DESC, label ASC) AS rn
         FROM votes)
SELECT q, label AS pred_label, n AS votes FROM best WHERE rn = 1"""
        ),
        "dd_semdedup": (
            f"""WITH cents AS (SELECT vec_id AS cid, embedding FROM embeddings
               WHERE vec_id % {IVF_STRIDE} = 0),
assign AS (
  SELECT vec_id, cid FROM (
    SELECT e.vec_id, c.cid,
           row_number() OVER (PARTITION BY e.vec_id
             ORDER BY round(list_cosine_similarity(e.embedding::DOUBLE[], c.embedding::DOUBLE[]), 8) DESC,
                      c.cid ASC) AS rn
    FROM embeddings e CROSS JOIN cents c) WHERE rn = 1),
dropped AS (
  SELECT DISTINCT y.vec_id AS j
  FROM assign x JOIN assign y ON x.cid = y.cid AND x.vec_id < y.vec_id
  JOIN embeddings ex ON ex.vec_id = x.vec_id
  JOIN embeddings ey ON ey.vec_id = y.vec_id
  WHERE round(list_cosine_similarity(ex.embedding, ey.embedding), 4) >= {SEMDEDUP_T})
SELECT a.vec_id, CAST(a.cid AS BIGINT) AS cluster,
       a.vec_id NOT IN (SELECT j FROM dropped) AS keep
FROM assign a"""
        ),
        "ann_centroid": (
            f"""WITH ex AS (
  SELECT label, generate_subscripts(embedding, 1) AS pos,
         CAST(unnest(embedding) AS DOUBLE) AS v
  FROM embeddings),
cent AS (SELECT label, pos, sum(v) / count(*) AS cv FROM ex GROUP BY label, pos),
cv AS (SELECT label, list(cv ORDER BY pos) AS c FROM cent GROUP BY label),
q AS (SELECT vec_id AS qid, embedding FROM embeddings WHERE vec_id < {ANN_NQ}),
sc AS (SELECT q.qid AS q, CAST(cv.label AS BIGINT) AS label,
              round(list_cosine_similarity(CAST(q.embedding AS DOUBLE[]), cv.c), 4) AS cos
       FROM q CROSS JOIN cv),
best AS (SELECT q, label, cos,
                row_number() OVER (PARTITION BY q ORDER BY cos DESC, label ASC) AS rn
         FROM sc)
SELECT q, label AS pred_label, cos FROM best WHERE rn = 1"""
        ),
        "ann_lsh": _lsh_oracle_sql(),
        "ann_ivf": (
            f"""WITH cents AS (SELECT vec_id AS cid, embedding FROM embeddings
               WHERE vec_id % {IVF_STRIDE} = 0),
assign AS (
  SELECT vec_id, cid FROM (
    SELECT e.vec_id, c.cid,
           row_number() OVER (PARTITION BY e.vec_id
             ORDER BY round(list_cosine_similarity(e.embedding::DOUBLE[], c.embedding::DOUBLE[]), 8) DESC,
                      c.cid ASC) AS rn
    FROM embeddings e CROSS JOIN cents c) WHERE rn = 1),
q AS (SELECT vec_id AS qid, embedding FROM embeddings WHERE vec_id < {ANN_NQ}),
probe AS (
  SELECT qid, cid FROM (
    SELECT q.qid, c.cid,
           row_number() OVER (PARTITION BY q.qid
             ORDER BY round(list_cosine_similarity(q.embedding::DOUBLE[], c.embedding::DOUBLE[]), 8) DESC,
                      c.cid ASC) AS rn
    FROM q CROSS JOIN cents c) WHERE rn <= {IVF_NPROBE}),
cand AS (SELECT p.qid AS q, a.vec_id AS neighbor
         FROM assign a JOIN probe p USING (cid) WHERE a.vec_id <> p.qid),
scored AS (
  SELECT cand.q, cand.neighbor,
         round(list_cosine_similarity(e.embedding, qe.embedding), 4) AS cos
  FROM cand JOIN embeddings e ON e.vec_id = cand.neighbor
            JOIN embeddings qe ON qe.vec_id = cand.q),
ranked AS (SELECT q, neighbor, cos,
                  row_number() OVER (PARTITION BY q ORDER BY cos DESC, neighbor ASC) rn
           FROM scored)
SELECT q, neighbor, cos FROM ranked WHERE rn <= {ANN_K}"""
        ),
        "dd_embed_cosine": _embed_neardup_oracle_sql(),
    }
    # the scalable two-level sessionize is DEFINED to equal the single-pass
    # one — same oracle, checked independently by the driver
    out["ev_sessionize_scaled"] = out["ev_sessionize"]
    out["ev_asof_scaled"] = out["ev_asof"]
    out["ev_range_join_scaled"] = out["ev_range_join"]
    return out


def _embed_neardup_oracle_sql() -> str:
    """DuckDB mirror of ann.embed_neardup_pairs_ds: the 8×4 banded sign
    codes (same splitmix64 hyperplanes, inlined as exact float64 literals),
    the vec_id-ascending bucket cap, and the 4-decimal-rounded cosine
    threshold — value-checked like the ann_lsh chain."""
    from miru_ray.ann import hyperplanes

    n_planes = EMBED_ND_BANDS * EMBED_ND_PPB
    planes = hyperplanes(ANN_DIM, n_planes)
    rows = ",\n".join(
        "({}, [{}]::DOUBLE[])".format(p, ", ".join("%.17g" % w for w in planes[p]))
        for p in range(n_planes)
    )
    return f"""WITH planes(pid, w) AS (VALUES {rows}),
codes AS (
  SELECT e.vec_id, CAST(p.pid // {EMBED_ND_PPB} AS BIGINT) AS band,
         CAST(sum(CASE WHEN list_dot_product(e.embedding::DOUBLE[], p.w) > 0
                       THEN 1::BIGINT << (p.pid % {EMBED_ND_PPB}) ELSE 0 END) AS BIGINT) AS code
  FROM embeddings e CROSS JOIN planes p GROUP BY e.vec_id, p.pid // {EMBED_ND_PPB}),
capped AS (
  SELECT band, code, vec_id FROM (
    SELECT band, code, vec_id,
           row_number() OVER (PARTITION BY band, code ORDER BY vec_id) AS rn
    FROM codes) WHERE rn <= {EMBED_ND_MAXBUCKET}),
cand AS (SELECT DISTINCT x.vec_id AS a, y.vec_id AS b
         FROM capped x JOIN capped y USING (band, code) WHERE x.vec_id < y.vec_id),
scored AS (
  SELECT a, b, round(list_cosine_similarity(ea.embedding, eb.embedding), 4) AS cos
  FROM cand JOIN embeddings ea ON ea.vec_id = cand.a
            JOIN embeddings eb ON eb.vec_id = cand.b)
SELECT CAST(a AS BIGINT) AS a, CAST(b AS BIGINT) AS b, cos
FROM scored WHERE cos >= {EMBED_ND_THRESHOLD}"""



def _trending_peaks_oracle_sql(n_seg: int = 24) -> str:
    """DuckDB mirror of analytics.trending_strategies_ds — including the
    Billauer peakdet loop (PeakDet.java:44-80) as a RECURSIVE-CTE state
    machine stepping all event types through the dense n_seg waveform in
    lockstep, the Commons-Math LEGACY percentile (p=0.95 quirk preserved)
    for bucket95, regr_slope for SimpleRegression, and the hasCounts
    filter. State update order matters: mx/mn absorb the new value FIRST
    (mx1/mn1), then the trigger tests use the updated values."""
    return f"""WITH RECURSIVE
ev AS (SELECT event_type, epoch_us(ts) AS ts_us FROM events),
bounds AS (SELECT min(ts_us) AS lo, max(ts_us) - min(ts_us) + 1 AS span FROM ev),
counts AS (SELECT event_type, ((ts_us - lo) * {n_seg}) // span AS seg,
                  CAST(count(*) AS DOUBLE) AS n
           FROM ev, bounds GROUP BY 1, 2),
grid AS (SELECT t.event_type, s.seg, COALESCE(c.n, 0.0) AS v
         FROM (SELECT DISTINCT event_type FROM ev) t
         CROSS JOIN (SELECT unnest(range({n_seg})) AS seg) s
         LEFT JOIN counts c ON c.event_type = t.event_type AND c.seg = s.seg),
maxes AS (SELECT event_type, max(v) AS m, sum(v) AS tot FROM grid GROUP BY 1),
b95 AS (SELECT CASE WHEN pos < 1 THEN mx[1] WHEN pos >= n THEN mx[n]
                    ELSE mx[CAST(floor(pos) AS INT)]
                         + (pos - floor(pos))
                           * (mx[CAST(floor(pos) AS INT) + 1] - mx[CAST(floor(pos) AS INT)])
               END AS bucket95
        FROM (SELECT list(m ORDER BY m) AS mx, count(*) AS n,
                     0.95 * (count(*) + 1) / 100.0 AS pos
              FROM maxes)),
deltas AS (SELECT event_type, m / 6.0 + bucket95 / 100.0 AS delta
           FROM maxes, b95),
pd (event_type, i, mx, mn, mxpos, lookformax, peaks, delta) AS (
  SELECT event_type, -1, '-infinity'::DOUBLE, 'infinity'::DOUBLE, 0.0::DOUBLE, true,
         0, CAST(delta AS DOUBLE)
  FROM deltas
  UNION ALL
  SELECT p.event_type, p.i + 1,
         CASE WHEN p.lookformax THEN greatest(p.mx, g.v)
              WHEN g.v > least(p.mn, g.v) + p.delta THEN g.v
              ELSE greatest(p.mx, g.v) END,
         CASE WHEN p.lookformax AND g.v < greatest(p.mx, g.v) - p.delta THEN g.v
              ELSE least(p.mn, g.v) END,
         CASE WHEN NOT p.lookformax AND g.v > least(p.mn, g.v) + p.delta THEN g.v
              WHEN g.v > p.mx THEN g.v ELSE p.mxpos END,
         CASE WHEN p.lookformax THEN g.v >= greatest(p.mx, g.v) - p.delta
              ELSE g.v > least(p.mn, g.v) + p.delta END,
         p.peaks + CASE WHEN p.lookformax AND g.v < greatest(p.mx, g.v) - p.delta
                        THEN 1 ELSE 0 END,
         p.delta
  FROM pd p JOIN grid g ON g.event_type = p.event_type AND g.seg = p.i + 1
  WHERE p.i + 1 < {n_seg}),
live AS (SELECT event_type FROM maxes WHERE tot > 0)
SELECT 'linear_regression' AS strategy, event_type,
       round(regr_slope(v, CAST(seg AS DOUBLE)), 6) AS rank
FROM grid JOIN live USING (event_type) GROUP BY event_type
UNION ALL
SELECT 'leader', event_type, round(sum(v), 6)
FROM grid JOIN live USING (event_type) GROUP BY event_type
UNION ALL
SELECT 'highest_peak', event_type, round(max(v), 6)
FROM grid JOIN live USING (event_type) GROUP BY event_type
UNION ALL
SELECT 'peaks', event_type, round(CAST(peaks AS DOUBLE), 6)
FROM pd JOIN live USING (event_type) WHERE i = {n_seg} - 1"""


def _hll_oracle_sql() -> str:
    """DuckDB mirror of analytics.hll_distinct_ds (p=HLL_P): splitmix64 of
    user_id via the shared _sm_ctes chain, bucket = low p bits, rho from
    the EXACT bit length (length(bin(y)) — no float log2), groupby
    max-merge, alpha·m²/Σ2^-rho with the linear-counting correction."""
    m = 1 << HLL_P
    width = 64 - HLL_P
    alpha = 0.7213 / (1 + 1.079 / m)
    # one float literal (alpha·m²): a bare 0.7213… literal parses as
    # DECIMAL in DuckDB and overflows multiplied by m² — and predividing
    # keeps the float op order identical to the python side
    amm = repr(alpha * m * m)
    sm, sm_last = _sm_ctes("hll", "ev", "uid", "sm")
    return f"""WITH ev AS (SELECT event_type AS key, CAST(user_id AS UBIGINT) AS uid FROM events),
{sm},
hb AS (SELECT key, CAST(sm & {m - 1} AS BIGINT) AS bucket, sm >> {HLL_P} AS y FROM {sm_last}),
rho AS (SELECT key, bucket,
               CASE WHEN y = 0 THEN {width + 1}
                    ELSE {width} - length(bin(y)) + 1 END AS rho
        FROM hb),
regs AS (SELECT key, bucket, max(rho) AS rho FROM rho GROUP BY key, bucket),
est AS (SELECT key,
               CAST({m} - count(*) AS BIGINT) AS zeros,
               CAST(sum(rho) AS BIGINT) AS register_sum,
               sum(power(2.0, -rho)) + ({m} - count(*)) AS denom
        FROM regs GROUP BY key)
SELECT key,
       round(CASE WHEN {amm} / denom <= {2.5 * m} AND zeros > 0
                  THEN {m} * ln({m} / zeros)
                  ELSE {amm} / denom END, 4) AS est_distinct,
       zeros AS n_zero_registers, register_sum
FROM est"""


def _simhash_ctes() -> str:
    """documents → sim(doc_id, simhash): the 64-bit SimHash chain
    (dedup.simhash_batch — per-bit ±1 sums over token FNV hashes), as an
    unsigned HUGEINT value."""
    return f"""tok AS (SELECT doc_id, unnest({_TOK}) AS t FROM documents),
th AS (SELECT doc_id, {_fnv_sql('t')} AS h FROM tok),
bits AS (
  SELECT doc_id, CAST(b AS BIGINT) AS bit,
         sum(CASE WHEN (h >> b) & 1 = 1 THEN 1 ELSE -1 END) AS s
  FROM th CROSS JOIN (SELECT unnest(range(64)) AS b) bb
  GROUP BY doc_id, b),
sim0 AS (
  SELECT doc_id,
         sum(CASE WHEN s > 0 THEN CAST(CAST(1 AS UBIGINT) << bit AS HUGEINT) ELSE 0 END) AS simhash
  FROM bits GROUP BY doc_id),
sim AS (SELECT d.doc_id, COALESCE(sim0.simhash, 0) AS simhash
        FROM documents d LEFT JOIN sim0 USING (doc_id))"""


def _lsh_oracle_sql() -> str:
    """End-to-end DuckDB mirror of the sign-LSH chain (ann.py:162-249):
    the deterministic hyperplanes are inlined as 17-significant-digit
    literals (exact float64 round-trip), sign codes and hamming-probe
    candidate gating run in SQL, and candidates rank on 4-decimal-rounded
    cosine — the same dedup-style hash-chain mirroring that made
    dd_minhash value-checkable. Normalization is omitted on the SQL side:
    sign(dot(e, p)) is scale-invariant."""
    from miru_ray.ann import hyperplanes

    planes = hyperplanes(ANN_DIM, ANN_PLANES)
    rows = ",\n".join(
        "({}, [{}]::DOUBLE[])".format(
            p, ", ".join("%.17g" % w for w in planes[p])
        )
        for p in range(ANN_PLANES)
    )
    return f"""WITH planes(pid, w) AS (VALUES {rows}),
codes AS (
  SELECT e.vec_id,
         CAST(sum(CASE WHEN list_dot_product(e.embedding::DOUBLE[], p.w) > 0
                       THEN 1::BIGINT << p.pid ELSE 0 END) AS BIGINT) AS code
  FROM embeddings e CROSS JOIN planes p GROUP BY e.vec_id),
qc AS (SELECT vec_id AS qid, code AS qcode FROM codes WHERE vec_id < {ANN_NQ}),
cand AS (
  SELECT qc.qid AS q, c.vec_id AS neighbor
  FROM codes c CROSS JOIN qc
  WHERE bit_count(xor(c.code, qc.qcode)) <= {ANN_PROBE} AND c.vec_id <> qc.qid),
scored AS (
  SELECT cand.q, cand.neighbor,
         round(list_cosine_similarity(e.embedding, qe.embedding), 4) AS cos
  FROM cand JOIN embeddings e ON e.vec_id = cand.neighbor
            JOIN embeddings qe ON qe.vec_id = cand.q),
ranked AS (SELECT q, neighbor, cos,
                  row_number() OVER (PARTITION BY q ORDER BY cos DESC, neighbor ASC) rn
           FROM scored)
SELECT q, neighbor, cos FROM ranked WHERE rn <= {ANN_K}"""
