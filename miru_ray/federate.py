"""Federated search: several independently built indexes answered as ONE.

The reference's reader tier answers a query by fanning out to every hosted
partition across many hosts and merging the per-partition answers in one
ordered pass (``MiruService.java:101-194`` askAndMerge over local + remote
partitions, ``MiruRemotePartition``); no single node ever holds the whole
tenant. At 100 TB the same shape applies here: the corpus is built as many
per-shard indexes (per time segment, per ingest day, per tenant slice —
each a normal ``build_index`` output, possibly on a different node), and a
``FederatedEngine`` queries them as one logical index. An index dir plays
the role a remote host's hosted-partition set plays in the reference; the
cross-index merge is the SAME ordered fold (``search._merge_two`` over the
engines' columnar answers, ties → current) the single-index engine already
runs across its partitions, so federated answers are bit-identical to the
walk that visits every (index, partition) pair in order. ``Hit``s are
built for the final k only.

Scale notes:
- Non-TIME queries overlap the per-engine Ray fan-outs with a thread per
  engine (each thread only blocks on ``ray.wait``; every member engine's
  partitions are answered by that engine's own partition-pinned actor
  pool on the shared Ray cluster).
- TIME queries walk engines newest→oldest by their ts zone maps and stop
  as soon as the kth hit is provably newer than everything left — with
  time-sharded indexes (the natural 100-TB layout) a newest-first query
  touches ONE index instead of all of them, the cross-cluster analogue of
  the partition early exit (FullTextAnswerEvaluator.java:18-35).
- Engine-level zone pruning: a ``time_range`` skips whole indexes whose
  [ts_min, ts_max] envelope misses the range before any task is launched.
"""

from __future__ import annotations

from .search import _NO_HITS, Hit, SearchEngine, _hits_of, _merge_two

_INF = (1 << 63) - 1


def _engine_bounds(eng: SearchEngine) -> tuple[int, int] | None:
    """[ts_min, ts_max] envelope over the engine's partition zone maps;
    None when any partition predates zone maps (then never pruned)."""
    los, his = [], []
    for p in eng.parts:
        b = eng._ts_bounds(p)
        if b is None:
            return None
        los.append(b[0])
        his.append(b[1])
    if not los:
        return None
    return min(los), max(his)


class FederatedEngine:
    """Query N index dirs as one logical index (reader-tier fan-out).

    ``last_engines_asked`` / ``last_parts_asked`` expose how much of the
    federation the last search actually touched (the early-exit /
    zone-pruning observability the per-index engine already has)."""

    def __init__(self, index_dirs: list[str],
                 replicas: dict[str, list[str]] | None = None,
                 allow_mixed_analyzers: bool = False):
        """``replicas`` maps an index dir to its replica dirs
        (sync.sync_index outputs); each member engine fails a partition
        over to its replicas when the primary's ask raises, and races
        them when its pool stalls — the federation-level availability
        story (MiruLowestLatencySolver analogue).

        Members must share the analysis contract (analyzer + stopwords):
        a federated query is parsed ONCE per member engine with that
        member's analyzer, so mixed analyzers silently ask different term
        sets per member — refused unless ``allow_mixed_analyzers=True``
        (the registry enforces the same invariant at registration)."""
        replicas = replicas or {}
        self.engines = [
            SearchEngine(d, replicas=replicas.get(d))
            for d in index_dirs
        ]
        if not allow_mixed_analyzers and len(self.engines) > 1:
            def contract(e):
                tok = e.meta.get("tokenizer") or {}
                return (tok.get("analyzer", "default"), bool(tok.get("stopwords")),
                        tok.get("stem"))
            first = contract(self.engines[0])
            for e, d in zip(self.engines[1:], index_dirs[1:]):
                if contract(e) != first:
                    raise ValueError(
                        f"federation members disagree on the analysis contract: "
                        f"{index_dirs[0]} has {first}, {d} has {contract(e)} — "
                        "terms would not be comparable (pass "
                        "allow_mixed_analyzers=True to override)"
                    )
        self.last_engines_asked = 0
        self.last_parts_asked = 0

    # ------------------------------------------------------------- search

    def search(
        self,
        query: str,
        k: int = 10,
        scoring: str = "ref_tfidf",
        time_range: tuple[int, int] | None = None,
        early_exit: bool = True,
        parallel: bool | None = None,
        **kw,
    ) -> tuple[list[Hit], int]:
        """Top-k over the federation. Same contract as
        ``SearchEngine.search``; ``found`` sums the asked engines' counts
        (like the reference's short-circuited evaluator, a TIME walk that
        exits early reports only what it asked)."""
        bounds = [_engine_bounds(e) for e in self.engines]
        order = list(range(len(self.engines)))
        if scoring == "time":
            # newest→oldest by zone envelope so the exit fires earliest
            order.sort(key=lambda i: (bounds[i] or (0, _INF))[1], reverse=True)
        active = [
            i
            for i in order
            if not (
                time_range is not None
                and bounds[i] is not None
                and (bounds[i][1] < time_range[0] or bounds[i][0] > time_range[1])
            )
        ]
        kw = dict(
            kw, k=k, scoring=scoring, time_range=time_range,
            early_exit=early_exit, parallel=parallel,
        )
        if scoring == "time" and early_exit and k > 0 and len(active) > 1:
            return self._time_walk(query, kw, active, bounds, k)
        results = self._ask_all(query, kw, active)
        collapse = kw.get("collapse")
        merged, found = _NO_HITS, 0
        for answer, f in results:
            found += f
            # per-engine answers are already one-per-key; a collapse merge
            # dedups keys ACROSS engines too (better-ordered occurrence wins)
            merged = _merge_two(merged, answer, k, collapse)
        self.last_engines_asked = len(active)
        self.last_parts_asked = sum(self.engines[i].last_parts_asked for i in active)
        return _hits_of(merged), found

    def _ask_all(self, query: str, kw: dict, active: list[int]):
        """One blocking sub-search per engine (its columnar answer and
        found), overlapped with a thread per engine (each only waits on its
        pool; compute runs on the cluster)."""
        if len(active) <= 1:
            return [self.engines[i]._search(query, **kw) for i in active]
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=len(active)) as ex:
            futs = [ex.submit(self.engines[i]._search, query, **kw) for i in active]
            return [f.result() for f in futs]

    def _time_walk(self, query, kw, active, bounds, k):
        """Newest→oldest engine walk with the strict zone-map stop rule
        (kth ts strictly newer than every remaining engine's ts_max —
        ties keep walking, same rule as the partition-level walk)."""
        rest_max = [0] * len(active)
        run = -_INF
        for j in range(len(active) - 1, -1, -1):
            rest_max[j] = run
            run = max(run, (bounds[active[j]] or (0, _INF))[1])
        collapse = kw.get("collapse")
        merged, found = _NO_HITS, 0
        asked = parts = 0
        for j, i in enumerate(active):
            answer, f = self.engines[i]._search(query, **kw)
            found += f
            asked += 1
            parts += self.engines[i].last_parts_asked
            merged = _merge_two(merged, answer, k, collapse)
            if len(merged["ts"]) >= k and merged["ts"][k - 1] > rest_max[j]:
                break
        self.last_engines_asked = asked
        self.last_parts_asked = parts
        return _hits_of(merged), found

    # ------------------------------------------------- filter-only answers

    def match(self, query: str, **kw) -> list[dict]:
        """Full filter answer: concatenation of every engine's
        per-partition result dicts, each tagged with ``engine`` (the
        federation-level partition id)."""
        out = []
        for i, eng in enumerate(self.engines):
            for r in eng.match(query, **kw):
                out.append(dict(r, engine=i))
        self.last_engines_asked = len(self.engines)
        return out

    # ------------------------------------------------------------ plugins

    def distincts(self, field: str, prefix: str = "", query: str | None = None,
                  time_range: tuple[int, int] | None = None) -> list[str]:
        """Distinct union across the federation (set-union merge — the
        distincts answer merger's semantics)."""
        from . import plugins

        out: set[str] = set()
        for eng in self.engines:
            out.update(plugins.distincts(eng, field, prefix=prefix,
                                         query=query, time_range=time_range))
        return sorted(out)

    def uniques(self, field: str, time_range: tuple[int, int],
                prefix: str = "", query: str | None = None) -> int:
        """Federated uniques = cardinality of the federated distinct union
        (counts must union-then-count — per-engine counts would double-count
        values present in several shards)."""
        if time_range is None:
            raise ValueError("uniques requires an explicit time range "
                             "(UniquesQuery.java:32-33)")
        return len(self.distincts(field, prefix=prefix, query=query,
                                  time_range=time_range))

    def close(self) -> None:
        for eng in self.engines:
            eng.close()
