"""Porter2 (Snowball English) stemmer — scalar kernel + vectorized wrapper.

The reference resolves per-locale Lucene analyzer chains with stemming
(miru-plugin/.../query/TermAnalyzers.java:50-136) and its ingest demo
tokenizes with Lucene's EnglishAnalyzer
(wiki-miru-deployable/.../WikiMiruIndexService.java:463-470). This module
is the stemming half of the rebuilt ``en`` analyzer chain (analyzers.py):
the Porter2 / Snowball English algorithm as published at
snowballstem.org/algorithms/english/stemmer.html, implemented from the
spec (NOT a port of any stemmer codebase).

Verification story: the DuckDB ``stem()`` function lives in the fts
extension, which cannot be installed in this offline sandbox — so the
driver-checkable oracle is a SECOND, independent implementation of the
same published spec as a DuckDB SQL expression chain
(``__ray_entry__._porter2_sql``), the same two-implementation pattern the
splitmix64/FNV hash oracles use. ``tests/test_stem.py`` cross-checks the
two on a wordlist exercising every step, plus spec-published example pairs.

Vectorization: stemming is per-token string rewriting, so the batch path
dictionary-encodes the token array and stems only the UNIQUE vocabulary
(bounded by corpus vocab, orders of magnitude smaller than the token
stream at scale), then maps back with one zero-copy ``take``. A module
memo keeps per-actor work sublinear across batches (build actors hold it
for the life of the actor — state in ``__init__``-land, not per batch).

Scale shape: at 10^12 tokens the per-batch unique set stays ~vocab-sized;
no shuffle, no driver state, no Python loop over the token STREAM — only
over new vocabulary entries.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_VOWELS = frozenset("aeiouy")
_DOUBLES = ("bb", "dd", "ff", "gg", "mm", "nn", "pp", "rr", "tt")
_VALID_LI = frozenset("cdeghkmnrt")

# exception1: full-word irregular forms / invariants (the spec's list)
_EXCEPTION1 = {
    "skis": "ski", "skies": "sky", "dying": "die", "lying": "lie",
    "tying": "tie", "idly": "idl", "gently": "gentl", "ugly": "ugli",
    "early": "earli", "only": "onli", "singly": "singl",
    "sky": "sky", "news": "news", "howe": "howe", "atlas": "atlas",
    "cosmos": "cosmos", "bias": "bias", "andes": "andes",
}
# exception2: invariant after step 1a
_EXCEPTION2 = frozenset(
    ["inning", "outing", "canning", "herring", "earring",
     "proceed", "exceed", "succeed"]
)

# step 2/3/4 suffix tables: (suffix, replacement) in longest-first order;
# None replacement = delete. Conditional entries handled inline below.
_STEP2 = [
    ("ization", "ize"), ("ational", "ate"), ("fulness", "ful"),
    ("ousness", "ous"), ("iveness", "ive"), ("tional", "tion"),
    ("biliti", "ble"), ("lessli", "less"), ("entli", "ent"),
    ("ation", "ate"), ("alism", "al"), ("aliti", "al"), ("ousli", "ous"),
    ("iviti", "ive"), ("fulli", "ful"), ("enci", "ence"), ("anci", "ance"),
    ("abli", "able"), ("izer", "ize"), ("ator", "ate"), ("alli", "al"),
    ("bli", "ble"), ("ogi", "og"), ("li", ""),
]
_STEP3 = [
    ("ational", "ate"), ("tional", "tion"), ("alize", "al"),
    ("icate", "ic"), ("iciti", "ic"), ("ative", ""), ("ical", "ic"),
    ("ness", ""), ("ful", ""),
]
_STEP4 = [
    "ement", "ance", "ence", "able", "ible", "ment", "ant", "ent", "ism",
    "ate", "iti", "ous", "ive", "ize", "ion", "al", "er", "ic",
]


def _is_vowel(c: str) -> bool:
    return c in _VOWELS  # Y (marked consonant-y) is not in the set


def _mark_regions(w: str) -> tuple[int, int]:
    """R1/R2 start offsets (spec: region after the first non-vowel
    following a vowel; gener/commun/arsen prefixes override R1)."""
    n = len(w)
    r1 = n
    for p in ("gener", "commun", "arsen"):
        if w.startswith(p):
            r1 = len(p)
            break
    else:
        for i in range(1, n):
            if not _is_vowel(w[i]) and _is_vowel(w[i - 1]):
                r1 = i + 1
                break
    r2 = n
    for i in range(r1 + 1, n):
        if not _is_vowel(w[i]) and _is_vowel(w[i - 1]):
            r2 = i + 1
            break
    return r1, r2


def _ends_short_syllable(w: str) -> bool:
    """spec: (a) non-vowel, vowel, non-vowel≠(w,x,Y) at the end; or
    (b) the word is exactly vowel + non-vowel."""
    n = len(w)
    if n == 2:
        return _is_vowel(w[0]) and not _is_vowel(w[1])
    if n >= 3:
        a, b, c = w[-3], w[-2], w[-1]
        return (
            not _is_vowel(a)
            and _is_vowel(b)
            and (not _is_vowel(c))
            and c not in ("w", "x", "Y")
        )
    return False


def porter2_stem(word: str) -> str:
    """Stem one lowercase token by the published Porter2 spec. The engine's
    tokens are ``[a-z0-9]+`` (no apostrophes can survive tokenization), but
    the apostrophe steps are kept for spec fidelity on raw words."""
    w = word
    if len(w) <= 2:
        return w
    if w.startswith("'"):
        w = w[1:]
    ex = _EXCEPTION1.get(w)
    if ex is not None:
        return ex
    if len(w) <= 2:
        return w
    # mark consonant-y as Y: initial y, or y after a vowel
    chars = list(w)
    if chars[0] == "y":
        chars[0] = "Y"
    for i in range(1, len(chars)):
        if chars[i] == "y" and _is_vowel(chars[i - 1]):
            chars[i] = "Y"
    w = "".join(chars)
    r1, r2 = _mark_regions(w)

    def in_r1(suffix_len: int) -> bool:
        return len(w) - suffix_len >= r1

    def in_r2(suffix_len: int) -> bool:
        return len(w) - suffix_len >= r2

    # ---- step 0: longest of 's'  's  '
    for s in ("'s'", "'s", "'"):
        if w.endswith(s):
            w = w[: -len(s)]
            break
    # ---- step 1a
    if w.endswith("sses"):
        w = w[:-2]
    elif w.endswith("ied") or w.endswith("ies"):
        w = w[:-2] if len(w) > 4 else w[:-1]
    elif w.endswith("us") or w.endswith("ss"):
        pass
    elif w.endswith("s"):
        if any(_is_vowel(c) for c in w[:-2]):
            w = w[:-1]
    if w in _EXCEPTION2:
        return w
    # ---- step 1b
    if w.endswith("eedly"):
        if in_r1(5):
            w = w[:-3]
    elif w.endswith("eed"):
        if in_r1(3):
            w = w[:-1]
    else:
        for s in ("ingly", "edly", "ing", "ed"):
            if w.endswith(s):
                stem_part = w[: -len(s)]
                if any(_is_vowel(c) for c in stem_part):
                    w = stem_part
                    if w.endswith(("at", "bl", "iz")):
                        w = w + "e"
                    elif w.endswith(_DOUBLES):
                        w = w[:-1]
                    elif _ends_short_syllable(w) and r1 >= len(w):
                        w = w + "e"
                break
    # ---- step 1c: y/Y → i after a non-vowel that is not the first letter
    if len(w) > 2 and w[-1] in ("y", "Y") and not _is_vowel(w[-2]):
        w = w[:-1] + "i"
    # ---- step 2 (longest suffix; apply only if in R1)
    for s, rep in _STEP2:
        if w.endswith(s):
            if in_r1(len(s)):
                if s == "ogi":
                    if w.endswith("logi"):
                        w = w[:-1]
                elif s == "li":
                    if len(w) > 2 and w[-3] in _VALID_LI:
                        w = w[:-2]
                else:
                    w = w[: -len(s)] + rep
            break
    # ---- step 3 (longest suffix; apply only if in R1; ative needs R2)
    for s, rep in _STEP3:
        if w.endswith(s):
            if in_r1(len(s)):
                if s == "ative":
                    if in_r2(5):
                        w = w[:-5]
                else:
                    w = w[: -len(s)] + rep
            break
    # ---- step 4 (longest suffix; delete only if in R2; ion needs s/t)
    for s in _STEP4:
        if w.endswith(s):
            if in_r2(len(s)):
                if s == "ion":
                    if len(w) > 3 and w[-4] in ("s", "t"):
                        w = w[:-3]
                else:
                    w = w[: -len(s)]
            break
    # ---- step 5
    if w.endswith("e"):
        if in_r2(1) or (in_r1(1) and not _ends_short_syllable(w[:-1])):
            w = w[:-1]
    elif w.endswith("l"):
        if in_r2(1) and len(w) > 1 and w[-2] == "l":
            w = w[:-1]
    return w.replace("Y", "y")


# --------------------------------------------- Snowball German stemmer
#
# The published Snowball German algorithm
# (snowballstem.org/algorithms/german/stemmer.html), implemented from the
# spec like the English chain above. German runs over the UNICODE
# tokenizer (umlauts are letters there); the SQL twin lives in
# __ray_entry__._german_ctes and tests/test_stem.py cross-checks the two.

_DE_VOWELS = frozenset("aeiouyäöü")
_DE_S_END = frozenset("bdfghklmnrt")
_DE_ST_END = frozenset("bdfghklmnt")


def _de_mark(w: str) -> str:
    """Prelude: ß→ss; u/y BETWEEN vowels marked U/Y (consonant role)."""
    w = w.replace("ß", "ss")
    chars = list(w)
    for i in range(1, len(chars) - 1):
        if chars[i] in ("u", "y") and chars[i - 1] in _DE_VOWELS and chars[i + 1] in _DE_VOWELS:
            # the left-neighbour test reads the MARKED state (a U is a
            # consonant), exactly like the Snowball cursor walk
            if chars[i - 1] in ("U", "Y"):
                continue
            chars[i] = chars[i].upper()
    return "".join(chars)


def _de_regions(w: str) -> tuple[int, int]:
    n = len(w)
    r1 = n
    for i in range(1, n):
        if w[i] not in _DE_VOWELS and w[i - 1] in _DE_VOWELS:
            r1 = i + 1
            break
    r2 = n
    for i in range(r1 + 1, n):
        if w[i] not in _DE_VOWELS and w[i - 1] in _DE_VOWELS:
            r2 = i + 1
            break
    # the region before R1 must hold at least 3 letters
    return max(r1, 3), r2


def german_stem(word: str) -> str:
    """Stem one lowercase token by the published Snowball German spec."""
    w = _de_mark(word)
    r1, r2 = _de_regions(w)

    def in_r1(k: int) -> bool:
        return len(w) - k >= r1

    def in_r2(k: int) -> bool:
        return len(w) - k >= r2

    # ---- step 1 (longest of ern, em, er, en, es, e, s)
    if w.endswith("ern"):
        if in_r1(3):
            w = w[:-3]
    elif w.endswith("em") or w.endswith("er"):
        if in_r1(2):
            w = w[:-2]
    elif w.endswith("en") or w.endswith("es"):
        if in_r1(2):
            w = w[:-2]
            if w.endswith("niss"):
                w = w[:-1]
    elif w.endswith("e"):
        if in_r1(1):
            w = w[:-1]
            if w.endswith("niss"):
                w = w[:-1]
    elif w.endswith("s"):
        if in_r1(1) and len(w) > 1 and w[-2] in _DE_S_END:
            w = w[:-1]
    # ---- step 2 (longest of est, en, er, st)
    if w.endswith("est"):
        if in_r1(3):
            w = w[:-3]
    elif w.endswith("en") or w.endswith("er"):
        if in_r1(2):
            w = w[:-2]
    elif w.endswith("st"):
        if in_r1(2) and len(w) > 5 and w[-3] in _DE_ST_END:
            w = w[:-2]
    # ---- step 3 (d-suffixes)
    if w.endswith("end") or w.endswith("ung"):
        if in_r2(3):
            w = w[:-3]
            if w.endswith("ig") and in_r2(2) and not w.endswith("eig"):
                w = w[:-2]
    elif w.endswith("isch"):
        if in_r2(4) and not w.endswith("eisch"):
            w = w[:-4]
    elif w.endswith("ig") or w.endswith("ik"):
        if in_r2(2) and w[-3:-2] != "e":
            w = w[:-2]
    elif w.endswith("lich") or w.endswith("heit"):
        if in_r2(4):
            w = w[:-4]
            if (w.endswith("er") or w.endswith("en")) and in_r1(2):
                w = w[:-2]
    elif w.endswith("keit"):
        if in_r2(4):
            w = w[:-4]
            if w.endswith("lich") and in_r2(4):
                w = w[:-4]
            elif w.endswith("ig") and in_r2(2):
                w = w[:-2]
    # ---- postlude
    w = w.replace("U", "u").replace("Y", "y")
    return (
        w.replace("ä", "a").replace("ö", "o").replace("ü", "u")
    )


# ------------------------------------------------------------- vectorized

from .stemmers import STEMMERS as _LOCALE_STEMMERS

_STEMMERS = {"en": porter2_stem, "de": german_stem, **_LOCALE_STEMMERS}
# per-language token → stem memo, least recently used first: a hit moves
# its entry to the end, and past the cap the front entries are evicted
_MEMOS: dict[str, OrderedDict[str, str]] = {lang: OrderedDict() for lang in _STEMMERS}
_MEMO_CAP = 1 << 20  # vocab entries per language


def stem_array(tokens: pa.Array | pa.ChunkedArray, lang: str = "en") -> pa.Array:
    """Stem a token string array via dictionary encoding: the Python kernel
    runs once per UNIQUE token (vocab-sized), then one take() rebuilds the
    full stream — the per-batch cost is O(stream) gather + O(new vocab)."""
    if isinstance(tokens, pa.ChunkedArray):
        tokens = tokens.combine_chunks()
    if len(tokens) == 0:
        return tokens
    stem_fn = _STEMMERS[lang]
    d = tokens.dictionary_encode()
    vocab = d.dictionary.to_pylist()
    memo = _MEMOS[lang]
    out = []
    for v in vocab:
        s = memo.get(v)
        if s is None:
            s = stem_fn(v)
            memo[v] = s
        else:
            memo.move_to_end(v)
        out.append(s)
    while len(memo) > _MEMO_CAP:
        memo.popitem(last=False)
    return pa.array(out, pa.string()).take(d.indices)


def _stem_vocab_partial(batch: pa.Table, lang: str = "en") -> pa.Table:
    if lang == "en":
        from .tokenize import tokenize_flat as _flat
    else:
        # every non-English locale tokenizes with the unicode rule
        # (accents / Cyrillic are token characters, not separators)
        from .analyzers import _unicode_flat as _flat

    _, toks = _flat(batch["text"])
    uniq = pc.unique(toks if isinstance(toks, pa.Array) else toks.combine_chunks())
    return pa.table({"term": uniq, "stem": stem_array(uniq, lang=lang)})


def _norm_vocab(b: pa.Table) -> pa.Table:
    # sparse groupby output can include empty degraded-schema blocks
    if b.num_rows == 0 or "term" not in b.schema.names:
        return pa.table(
            {"term": pa.array([], pa.string()), "stem": pa.array([], pa.string())}
        )
    return pa.table(
        {"term": pc.cast(b["term"], pa.string()), "stem": pc.cast(b["stem"], pa.string())}
    )


def stem_vocab_ds(sf_dir: str, lang: str = "en"):
    """(term, stem): the distinct raw-token → stem vocabulary map of the
    documents corpus under the ``lang`` stemmer (en = Porter2 over the
    ascii tokenizer; de = Snowball German over the unicode tokenizer).
    Per-batch unique + stem (vocab-sized partials), then a tiny groupby
    dedups across batches — the stream itself never shuffles, only the
    vocabulary does."""
    import os

    import ray.data as rd
    from ray.data.aggregate import Count

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=["text"])
    return (
        ds.map_batches(
            _stem_vocab_partial, fn_kwargs={"lang": lang},
            batch_format="pyarrow", zero_copy_batch=True,
        )
        .groupby(["term", "stem"])
        .aggregate(Count())
        .map_batches(_norm_vocab, batch_format="pyarrow")
    )
