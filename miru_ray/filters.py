"""Filter AST + query-string parser (the reference's boolean contract).

The reference models every query as a recursive boolean filter tree
``MiruFilter{operation ∈ {and, or, pButNotQ}, inclusiveFilter,
fieldFilters, subFilters}`` (reference:
miru-api/.../filter/MiruFilter.java:9-33) evaluated by
``MiruAggregateUtil.filterInOut`` (miru-plugin/.../solution/
MiruAggregateUtil.java:1123-1202) with a signed *term collector*
(collectTerm, :1204-1220) whose counts become the TF-IDF query-side
multipliers (FullText.java:118-127).

The query-string parser mirrors ``LuceneBackedQueryParser``
(miru-plugin/.../query/LuceneBackedQueryParser.java:48-53,76-144):
default operator AND, term → primary-field term filter, ``foo*`` →
prefix value, boolean MUST/SHOULD/MUST_NOT combined by the exact
``wrap()`` rules (:113-144):

* musts (+ optional shoulds) and mustNots → ``pButNotQ[wrap(musts,
  shoulds), *mustNots]``;
* musts + shoulds → ``and[*musts, or[*shoulds]]``;
* only shoulds → ``or[*shoulds]``;
* only mustNots → ``pButNotQ`` with ``inclusiveFilter=True`` (index mask
  as the positive side).

Grammar (documented contract; reproduces Lucene for the fixture query
families — single terms, AND chains, OR chains, AND NOT, pure NOT,
repeated terms, prefix):

    expr   := and_exp ('OR' and_exp)*          # ≥2 → shoulds
    and_exp := unary+                          # 'AND' optional between
    unary  := 'NOT' atom | atom
    atom   := TERM | TERM '*' | TERM '~' DIGIT? | '(' expr ')'
            | field ':' TERM
            | [field ':'] '"' TERM+ '"'            # exact phrase
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dfield

DEFAULT_FIELD = "text"
# reference default: FullTextQuery.maxWildcardExpansion is query-supplied;
# expansion loop continues while maxWildcardExpansion <= 0 or count < max
# (MiruAggregateUtil.java:1160-1168).
DEFAULT_MAX_WILDCARD_EXPANSION = 500

# Range values: ``field:[lo TO hi]`` (Lucene TermRangeQuery syntax; `{`/`}`
# exclusive, `*` open). Stored verbatim as a FieldFilter value; expansion
# happens per-partition as a term-dictionary range scan — integer bounds are
# lex-encoded to match NUM_FIELDS' numeric term composition (the reference's
# Prefix.NUMERIC ranges, MiruTermComposer.java:130-145, makeUpperExclusive
# :265-280).
RANGE_RE = re.compile(r"^([\[\{])(\S+) TO (\S+)([\]\}])$")
_INT_RE = re.compile(r"^-?\d+$")

# Fuzzy terms: ``term~`` / ``term~N`` (Lucene FuzzyQuery syntax — the
# reference's parser surface is Lucene's QueryParser, whose fuzzy atoms
# resolve through the same per-field term-dictionary walk our wildcard
# expansion uses, MiruAggregateUtil.java:1160-1168). N ∈ {0,1,2} like
# Lucene's LevenshteinAutomata cap; bare ``term~`` → 2
# (FuzzyQuery.defaultMaxEdits); ``~0`` is the exact term. Only an
# all-digit suffix is fuzzy syntax — any other ``~`` is an analyzer
# separator, matching the tokenizer contract. Stored verbatim as
# ``body~N``; expansion is a per-partition dictionary scan + banded
# byte-level Levenshtein filter (terms are ASCII by the tokenizer
# contract, so byte ≡ character edits, and ≡ DuckDB ``levenshtein``).
FUZZY_RE = re.compile(r"^(.+?)~(\d*)$")

# Boosts: ``term^N`` (Lucene boost syntax, integer N ≥ 1 only). The signed
# term collector counts duplicate occurrences (collectTerm,
# MiruAggregateUtil.java:1204-1220) and the scorers multiply by that count
# (FullText.java:118-127), so an integer boost is EXACTLY a term repeated
# N times — the parser emits FieldFilter(field, [term]*N) and no evaluator
# or scorer changes at all. Recognized on the default field only: on
# field-scoped atoms ``^`` is the composite-field display joiner
# (MiruSchema.java:32). Float boosts are rejected (the fp32 collector
# contract is integer counts).
BOOST_RE = re.compile(r"^(.+)\^(\d+)$")


# Regexp terms: ``/pattern/`` (Lucene RegexpQuery syntax, anchored at both
# ends like Lucene's automaton). The pattern is NOT analyzed (Lucene
# behavior) — it matches against stored terms verbatim (lowercase by the
# tokenizer contract). Whitespace/parens/quotes cannot appear in a pattern
# (they are query-tokenizer separators — documented parse-level limit).
# The engine expands with pyarrow's RE2 (match_substring_regex anchored),
# DuckDB mirrors with regexp_full_match (also RE2); the pytest oracle uses
# python re.fullmatch.
def regexp_value(v: str) -> str | None:
    """``"/s.*n/"`` → ``"s.*n"``; None if ``v`` is not a regexp value."""
    if len(v) > 2 and v.startswith("/") and v.endswith("/"):
        return v[1:-1]
    return None


def fuzzy_value(v: str) -> tuple[str, int] | None:
    """``"part~2"`` → ("part", 2); None if ``v`` is not a stored fuzzy
    value. Only suffixes 1/2 are ever stored (0 collapses to the exact
    term at parse time)."""
    m = FUZZY_RE.match(v)
    if m is None or m.group(2) not in ("1", "2"):
        return None
    return m.group(1), int(m.group(2))


def levenshtein(a: str, b: str) -> int:
    """Scalar byte-level Levenshtein (highlighter-side fuzzy matching; the
    engine's expansion path uses the vectorized DP in search.py)."""
    xa, xb = a.encode(), b.encode()
    if len(xa) < len(xb):
        xa, xb = xb, xa
    prev = list(range(len(xb) + 1))
    for i, ca in enumerate(xa, 1):
        cur = [i]
        for j, cb in enumerate(xb, 1):
            cur.append(min(prev[j] + 1, cur[-1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def parse_range_value(v: str) -> tuple[str, str, bool, bool] | None:
    """``"[3 TO 7]"`` → (lo_tok, hi_tok, lo_inclusive, hi_inclusive); None
    if ``v`` is not a range value."""
    m = RANGE_RE.match(v)
    if m is None:
        return None
    return m.group(2), m.group(3), m.group(1) == "[", m.group(4) == "]"


def range_term_bounds(v: str) -> tuple[str | None, str | None, bool, bool] | None:
    """Resolve a range value to term-dictionary bounds.

    Integer bounds are numeric-lex encoded (NUM_FIELDS store encoded
    terms); other bounds are ASCII-lowercased raw strings. ``*`` → open
    (None). Returns (lo, hi, lo_inc, hi_inc) or None if not a range."""
    parsed = parse_range_value(v)
    if parsed is None:
        return None
    lo_tok, hi_tok, lo_inc, hi_inc = parsed
    numeric = all(t == "*" or _INT_RE.match(t) for t in (lo_tok, hi_tok)) and not (
        lo_tok == "*" and hi_tok == "*"
    )

    def enc(tok: str) -> str | None:
        if tok == "*":
            return None
        if numeric:
            from .segments import numeric_lex

            return numeric_lex(int(tok))
        return tok.lower()

    return enc(lo_tok), enc(hi_tok), lo_inc, hi_inc


@dataclass
class FieldFilter:
    """MiruFieldFilter (miru-api/.../filter/MiruFieldFilter.java:14-27).

    ``values`` entries ending in ``*`` denote a prefix range scan."""

    field: str
    values: list[str]


@dataclass
class Filter:
    """MiruFilter (miru-api/.../filter/MiruFilter.java:9-33)."""

    op: str  # 'and' | 'or' | 'pButNotQ' | 'phrase' (beyond-reference)
    inclusive: bool = False
    field_filters: list[FieldFilter] = dfield(default_factory=list)
    sub_filters: list["Filter"] = dfield(default_factory=list)
    # op='phrase' only: ordered proximity window (Lucene-style `"a b"~N`
    # suffix) — each adjacent pair may be separated by up to `slop`
    # intervening tokens; 0 = exact adjacency
    slop: int = 0
    # op='phrase' only: ``"a b"~~N`` (two terms) relaxes the order — the
    # SpanNearQuery(inOrder=false) analogue; |pos_a − pos_b| ≤ slop+1
    ordered: bool = True


def term_filter(field: str, *values: str) -> Filter:
    return Filter("and", False, [FieldFilter(field, list(values))], [])


# quoted phrases tokenize as ONE token (optionally carrying a field prefix:
# `f:"a b"`); Lucene's QueryParser produces a PhraseQuery here, which the
# reference REJECTS (LuceneBackedQueryParser.java:106-109 throws). The
# rebuild accepts it — a beyond-reference feature backed by the opt-in
# positional index (codec.POS_FIELD).
_TOKEN_RE = re.compile(r'[^\s()"]*"[^"]*"(?:~~?\d+)?|\(|\)|[^\s()"]+')


class QueryParseError(ValueError):
    pass


def parse_query(query: str, default_field: str = DEFAULT_FIELD,
                use_stopwords: bool = False, analyzer: str = "default") -> Filter:
    """Parse a query string into a Filter tree (LuceneBackedQueryParser
    contract; default operator AND — :51). ``analyzer`` must be the index's
    build-time analyzer (TermTokenizer.java:34-54: ingest ≡ query); callers
    resolve it from the global manifest."""
    from .analyzers import get_analyzer
    from .segments import META_FIELDS

    _scalar = get_analyzer(analyzer).scalar

    def _keyword(text: str, use_stopwords: bool = False) -> list[str]:
        return [text] if text else []

    if query.count('"') % 2:
        raise QueryParseError("unterminated phrase quote")
    raw = _TOKEN_RE.findall(query)
    if not raw:
        raise QueryParseError("empty query")
    pos = [0]

    def peek():
        return raw[pos[0]] if pos[0] < len(raw) else None

    def take():
        t = raw[pos[0]]
        pos[0] += 1
        return t

    def analyze(tok: str, field: str) -> Filter | None:
        """Term atom → filter, running the ANALYZER on the term text the way
        Lucene's QueryParser does (terms must normalize identically on the
        build and query sides — TermTokenizer.java:34-54). Values of the
        single-term meta fields are raw keywords: the build indexes them
        verbatim (build._single_term_columns)."""
        scalar = _keyword if field in META_FIELDS else _scalar
        if field != default_field and "^" in tok and not tok.endswith("*"):
            # composite-field value `f:va^vb` (MiruSchema.java:32 composite;
            # display joiner '^' → the index's pack joiner). Source values
            # are RAW field values — the term composer packs them unanalyzed
            # (MiruActivityInternExtern.java:97-146), matching the build side.
            parts = tok.split("^")
            if all(parts):
                return Filter("and", False, [FieldFilter(field, ["\x1e".join(parts)])], [])
        if field == default_field:
            bm = BOOST_RE.match(tok)
            if bm is None and re.match(r"^.+\^\d*\.\d+$", tok):
                raise QueryParseError(f"only integer boosts are supported: {tok!r}")
            if bm is not None:
                n = int(bm.group(2))
                if n < 1:
                    raise QueryParseError(f"boost must be >= 1: {tok!r}")
                body = bm.group(1)
                if body.endswith("*") or body.startswith("/") or "~" in body:
                    raise QueryParseError(
                        f"boost is supported on plain terms only: {tok!r}")
                toks_b = _scalar(body, use_stopwords=use_stopwords)
                if not toks_b:
                    return None
                if len(toks_b) == 1:
                    return Filter(
                        "and", False, [FieldFilter(field, [toks_b[0]] * n)], [])
                return Filter("and", False, [], [
                    Filter("and", False, [FieldFilter(field, [t] * n)], [])
                    for t in toks_b
                ])
        fz = FUZZY_RE.match(tok)
        if fz is not None and not tok.endswith("*"):
            # FuzzyQuery atom `body~[N]` (bare `~` → maxEdits 2; Lucene
            # rejects maxEdits > 2 — LevenshteinAutomata.MAXIMUM_SUPPORTED_DISTANCE)
            k = int(fz.group(2)) if fz.group(2) else 2
            if k > 2:
                raise QueryParseError(f"fuzzy distance > 2: {tok!r}")
            toks = scalar(fz.group(1), use_stopwords=use_stopwords)
            if not toks:
                return None
            value = toks[-1] if k == 0 else f"{toks[-1]}~{k}"
            return Filter("and", False, [FieldFilter(field, [value])], [])
        prefix = tok.endswith("*")
        body = tok[:-1] if prefix else tok
        toks = scalar(body, use_stopwords=use_stopwords)
        if not toks:
            return None  # analyzer dropped it (stopword / punctuation)
        if prefix:
            # PrefixQuery → value ("<prefix>", "*") (LuceneBackedQueryParser.java:104-110)
            return Filter("and", False, [FieldFilter(field, [toks[-1] + "*"])], [])
        if len(toks) == 1:
            return Filter("and", False, [FieldFilter(field, [toks[0]])], [])
        # multi-token term text (e.g. "foo-bar") → AND of the parts
        return Filter("and", False, [], [term_filter(field, t) for t in toks])

    def phrase_atom(t: str) -> Filter | None:
        """Quoted atom `[field:]"tok tok ..."[~N]` → op="phrase" node
        (consecutive tokens, or ordered proximity with per-gap slop N;
        candidates AND + positional verify)."""
        field = default_field
        qi = t.index('"')
        head = t[:qi]
        if head:
            if not head.endswith(":") or len(head) == 1:
                raise QueryParseError(f"malformed phrase atom: {t!r}")
            field = head[:-1]
        slop = 0
        ordered = True
        body_end = len(t) - 1
        tilde2 = t.rfind('"~~')
        tilde = t.rfind('"~')
        if tilde2 > qi:
            slop = int(t[tilde2 + 3 :])
            ordered = False
            body_end = tilde2
        elif tilde > qi:
            slop = int(t[tilde + 2 :])
            body_end = tilde
        body = t[qi + 1 : body_end]
        toks = _scalar(body, use_stopwords=use_stopwords)
        if not toks:
            return None
        if len(toks) == 1:  # one-token "phrase" is just the term
            return Filter("and", False, [FieldFilter(field, [toks[0]])], [])
        if not ordered and len(toks) != 2:
            raise QueryParseError(
                'unordered proximity ("a b"~~N) supports exactly two terms'
            )
        return Filter("phrase", False, [FieldFilter(field, toks)], [], slop, ordered)

    def parse_atom() -> Filter | None:
        t = peek()
        if t is None:
            raise QueryParseError("unexpected end of query")
        if t == "(":
            take()
            f = parse_expr()
            if peek() != ")":
                raise QueryParseError("missing )")
            take()
            return f
        if t == ")":
            raise QueryParseError("unexpected )")
        take()
        field = default_field
        if '"' in t:
            return phrase_atom(t)
        if ":" in t and not t.startswith(":"):
            fld, rest = t.split(":", 1)
            if rest:
                field, t = fld, rest
        if t.startswith("/"):
            # RegexpQuery atom `/pattern/` — not analyzed (Lucene behavior).
            # Anything slash-led that is not a complete `/…/` atom is an
            # error, not a silent re-parse (note `(`/`)`/whitespace/quotes
            # split at the query tokenizer and so cannot appear in a
            # pattern — use `[…]` classes and top-level `|` instead).
            if regexp_value(t) is None:
                raise QueryParseError(f"unterminated regexp: {t!r}")
            try:
                re.compile(t[1:-1])
            except re.error as e:
                raise QueryParseError(f"bad regexp {t!r}: {e}")
            return Filter("and", False, [FieldFilter(field, [t])], [])
        if t and t[0] in "[{":
            # range atom: 'f:[lo TO hi]' tokenizes as 'f:[lo', 'TO', 'hi]'
            open_br, lo_tok = t[0], t[1:]
            if not lo_tok:
                lo_tok = take() if peek() is not None else None
            if lo_tok is None:
                raise QueryParseError("malformed range: missing lower bound")
            kw = take() if peek() is not None else None
            if kw is None or kw.upper() != "TO":
                raise QueryParseError("malformed range: expected TO")
            hi_full = take() if peek() is not None else None
            if hi_full is None:
                raise QueryParseError("malformed range: missing upper bound")
            if hi_full in ("]", "}"):
                raise QueryParseError("malformed range: missing upper bound")
            if hi_full[-1] in "]}":
                close, hi_tok = hi_full[-1], hi_full[:-1]
            elif peek() in ("]", "}"):
                close, hi_tok = take(), hi_full
            else:
                raise QueryParseError("malformed range: missing ] or }")
            value = f"{open_br}{lo_tok} TO {hi_tok}{close}"
            if parse_range_value(value) is None:
                raise QueryParseError(f"malformed range: {value!r}")
            return Filter("and", False, [FieldFilter(field, [value])], [])
        return analyze(t, field)

    def parse_and() -> Filter:
        musts: list[Filter] = []
        must_nots: list[Filter] = []
        while True:
            t = peek()
            if t is None or t == ")" or t.upper() == "OR":
                break
            if t.upper() == "AND":
                take()
                continue
            if t.upper() == "NOT" or t == "!":
                take()
                a = parse_atom()
                if a is not None:
                    must_nots.append(a)
                continue
            if t.startswith("-") and len(t) > 1:
                take()
                body = t[1:]
                a = phrase_atom(body) if '"' in body else analyze(body, default_field)
                if a is not None:
                    must_nots.append(a)
                continue
            if t.startswith("+") and len(t) > 1:
                take()
                body = t[1:]
                a = phrase_atom(body) if '"' in body else analyze(body, default_field)
                if a is not None:
                    musts.append(a)
                continue
            a = parse_atom()
            if a is not None:
                musts.append(a)
        if not musts and not must_nots:
            raise QueryParseError("nothing to filter")
        if len(musts) == 1 and not must_nots:
            return musts[0]  # single clause → the query itself (Lucene)
        return _wrap(musts, [], must_nots)

    def parse_expr() -> Filter:
        shoulds = [parse_and()]
        while peek() is not None and peek().upper() == "OR":
            take()
            shoulds.append(parse_and())
        if len(shoulds) == 1:
            return shoulds[0]
        return _wrap([], shoulds, [])

    f = parse_expr()
    if peek() is not None:
        raise QueryParseError(f"trailing tokens at {pos[0]}")
    return f


def _wrap(musts: list[Filter], shoulds: list[Filter], must_nots: list[Filter]) -> Filter:
    """Exact LuceneBackedQueryParser.wrap() (:113-144)."""
    if musts:
        if must_nots:
            return Filter("pButNotQ", False, [], [_wrap(musts, shoulds, [])] + must_nots)
        if shoulds:
            return Filter("and", False, [], musts + [_wrap([], shoulds, [])])
        if len(musts) == 1:
            return musts[0]
        return Filter("and", False, [], musts)
    if shoulds:
        if must_nots:
            return Filter("pButNotQ", False, [], [_wrap([], shoulds, [])] + must_nots)
        return Filter("or", False, [], shoulds)
    if must_nots:
        return Filter("pButNotQ", True, [], must_nots)
    raise QueryParseError("nothing to filter")


def expand_synonyms(
    filt: Filter,
    synonyms: dict[str, list[str]],
    field: str = DEFAULT_FIELD,
    analyzer: str = "default",
) -> Filter:
    """Query-time synonym expansion (Lucene SynonymQuery /
    SynonymGraphFilter spirit, applied at search time so the index never
    changes): every plain term of ``field`` that has an entry in
    ``synonyms`` also matches its synonyms. The rewrite just appends the
    analyzed synonyms to the leaf's value list — multi-valued
    ``MiruFieldFilter`` values are unioned by the evaluator already
    (MiruFieldFilter.java:14-27), so the result is EXACTLY the query the
    user could have typed with ORs (and is SQL-mirrorable the same way).

    Wildcard/range/fuzzy/regexp specs and phrase subtrees are left
    untouched (a spec string can never equal an analyzed dictionary key).
    Keys and synonyms must analyze to ONE token each — a multi-token
    synonym would need a phrase rewrite, which the evaluator treats as a
    different (positional) operator; rejected loudly instead of silently
    narrowing."""
    from .analyzers import get_analyzer

    scalar = get_analyzer(analyzer).scalar
    norm: dict[str, list[str]] = {}
    for k, vs in synonyms.items():
        kt = scalar(k)
        if len(kt) != 1:
            raise ValueError(f"synonym key must analyze to one token: {k!r}")
        outs = []
        for v in vs:
            vt = scalar(v)
            if len(vt) != 1:
                raise ValueError(f"synonym must analyze to one token: {v!r}")
            outs.append(vt[0])
        norm[kt[0]] = outs

    def rewrite(f: Filter) -> Filter:
        if f.op == "phrase":
            return f
        ffs = []
        for ff in f.field_filters:
            if ff.field != field:
                ffs.append(ff)
                continue
            vals = list(ff.values)
            for v in ff.values:
                for s in norm.get(v, ()):
                    if s not in vals:
                        vals.append(s)
            ffs.append(FieldFilter(ff.field, vals))
        return Filter(f.op, f.inclusive, ffs,
                      [rewrite(s) for s in f.sub_filters], f.slop, f.ordered)

    return rewrite(filt)
