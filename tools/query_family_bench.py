"""Warm in-process query latency per query family.

    python tools/query_family_bench.py INDEX_DIR [--seed 1] [--rounds 5]
                                       [--k 10]

Asks the perfbench query pool of ``--seed`` (``perfbench.workloads
.make_queries``: four queries per family, BM25 top-k for ``and2``,
``and3``, ``or2``, ``not``, ``prefix`` and ``field``, TIME for ``time``),
plus an ``absent`` family (four BM25 queries of one term the index lacks:
the per-partition fixed cost of a query with no postings to read, score
or gather), of the index with ``SearchEngine.search(..., parallel=False)``: the
partitions are asked one after another in this process, the path the
benchmark's end-to-end latencies use. One untimed pass warms the caches;
each round then runs the pool once per query in a shuffled order. A
family's p50 is the median of its queries' latencies in one round, and the
printed figure is the minimum of that over ``--rounds`` rounds; ``bm25``
is the same over every BM25 query of the perfbench pool. Prints one line per family and a JSON
summary as the last line. No Ray needed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("index_dir")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--k", type=int, default=10)
    args = ap.parse_args(argv)

    from miru_ray.search import SearchEngine
    from perfbench.workloads import FAMILIES, Query, make_queries

    eng = SearchEngine(args.index_dir)
    pool = make_queries(args.seed)
    groups = {f: [i for i, q in enumerate(pool) if q.family == f] for f in FAMILIES}
    groups["bm25"] = [i for i, q in enumerate(pool) if q.scoring == "bm25"]
    absent = [Query("absent", f"zzabsent{args.seed}q{i}", "bm25") for i in range(4)]
    for q in absent:
        if eng.count(q.text, parallel=False):
            raise SystemExit(f"{q.text!r} is in the index; the absent family needs a missing term")
    groups["absent"] = list(range(len(pool), len(pool) + len(absent)))
    pool += absent
    for q in pool:  # warm pass
        eng.search(q.text, k=args.k, scoring=q.scoring, parallel=False)
    best = {g: float("inf") for g in groups}
    rng = random.Random(args.seed)
    for _ in range(args.rounds):
        lat = [0.0] * len(pool)
        order = list(range(len(pool)))
        rng.shuffle(order)
        for i in order:
            q = pool[i]
            t0 = time.perf_counter()
            eng.search(q.text, k=args.k, scoring=q.scoring, parallel=False)
            lat[i] = time.perf_counter() - t0
        for g, idx in groups.items():
            best[g] = min(best[g], statistics.median(lat[i] for i in idx) * 1e3)
    for g, ms in best.items():
        print(f"{g:8s} p50 {ms:8.3f} ms")
    print(json.dumps({"index_dir": args.index_dir, "n_parts": len(eng.parts),
                      "seed": args.seed, "rounds": args.rounds,
                      "p50_ms": {g: round(ms, 3) for g, ms in best.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
