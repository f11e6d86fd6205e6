"""Posting read cost per partition: the ``pyarrow.dataset`` + ``isin``
filter read against the resident partition's term dictionary
(``segments.partition(index_dir, part).dictionary``), for the same key
sets and the posting columns a query reads (``segments.POSTING_COLUMNS``),
plus the dictionary's load time and the partition's resident bytes: its
term dictionary and its forward columns, which the query path loads too.

    python tools/posting_read_bench.py INDEX_DIR [--sets 20] [--keys 2]
                                       [--reps 3] [--seed 0] [--field text]

Each key set is ``--keys`` terms of ``--field`` drawn at random from the
partition's dictionary. Both readers must return the same rows; a mismatch
exits 1. Times are the minimum over ``--reps`` passes, in milliseconds per
read. Prints one line per partition and a JSON summary as the last line.
No Ray needed.
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


def _best(fn, reps: int) -> tuple[float, object]:
    best, out = float("inf"), None
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def bench_partition(index_dir: str, part: int, args) -> dict:
    import pyarrow.compute as pc
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    from miru_ray.segments import (
        FIELD_SEP, POSTING_COLUMNS, Partition, manifest_epoch, part_dir, partition,
    )

    path = os.path.join(part_dir(index_dir, part), "postings.parquet")
    epoch = manifest_epoch(index_dir, part)
    load_s, _ = _best(lambda: Partition(index_dir, part, epoch).dictionary, args.reps)
    pt = partition(index_dir, part)
    td = pt.dictionary
    pre = args.field + FIELD_SEP
    i, j = td.span(pre, pre + "\U0010ffff")
    pool = td.terms[i:j].tolist()
    rng = random.Random(args.seed * 100_003 + part)
    sets = [rng.sample(pool, min(args.keys, len(pool))) for _ in range(args.sets)]

    def old(keys):
        return pads.dataset(path, format="parquet").to_table(
            filter=pc.field("term").isin(keys), columns=POSTING_COLUMNS)

    def new(keys):
        return td.read(td.find(keys), POSTING_COLUMNS)

    old_ms, new_ms = [], []
    for keys in sets:
        dt_old, t_old = _best(lambda: old(keys), args.reps)
        dt_new, t_new = _best(lambda: new(keys), args.reps)
        if not t_new.equals(t_old):
            raise SystemExit(f"part {part}: rows differ for keys {keys}")
        old_ms.append(dt_old * 1e3)
        new_ms.append(dt_new * 1e3)
    arrow_bytes = pq.read_table(path, columns=["term"]).column("term").nbytes
    pt.forward  # noqa: B018 — load the forward columns, as a query does
    return {
        "part": part,
        "terms": len(td.terms),
        "row_groups": len(td.rg_end),
        "load_ms": load_s * 1e3,
        "dataset_read_ms": statistics.median(old_ms),
        "resident_read_ms": statistics.median(new_ms),
        "resident_bytes": pt.nbytes(),
        "dictionary_bytes": td.nbytes(),
        "arrow_term_bytes": arrow_bytes,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("index_dir")
    ap.add_argument("--sets", type=int, default=20, help="key sets per partition")
    ap.add_argument("--keys", type=int, default=2, help="keys per set")
    ap.add_argument("--reps", type=int, default=3, help="passes; the minimum counts")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--field", default="text")
    args = ap.parse_args(argv)

    from miru_ray.segments import completed_parts

    parts = completed_parts(args.index_dir)
    if not parts:
        print(f"{args.index_dir}: no complete partitions", file=sys.stderr)
        return 2
    rows = []
    print("part  terms  rgs  load_ms  dataset_ms  resident_ms  resident_B  dictionary_B"
          "  arrow_term_B")
    for p in parts:
        r = bench_partition(args.index_dir, p, args)
        rows.append(r)
        print(f"{p:4d} {r['terms']:6d} {r['row_groups']:4d} {r['load_ms']:8.2f} "
              f"{r['dataset_read_ms']:11.2f} {r['resident_read_ms']:12.3f} "
              f"{r['resident_bytes']:11d} {r['dictionary_bytes']:13d} "
              f"{r['arrow_term_bytes']:13d}", flush=True)
    summary = {
        "index_dir": os.path.abspath(args.index_dir),
        "parts": len(rows),
        "keys_per_set": args.keys,
        "sets_per_part": args.sets,
        "terms": sum(r["terms"] for r in rows),
        "resident_bytes": sum(r["resident_bytes"] for r in rows),
        "dictionary_bytes": sum(r["dictionary_bytes"] for r in rows),
        "arrow_term_bytes": sum(r["arrow_term_bytes"] for r in rows),
        "load_ms_total": sum(r["load_ms"] for r in rows),
        "load_ms_median": statistics.median(r["load_ms"] for r in rows),
        "dataset_read_ms_median": statistics.median(r["dataset_read_ms"] for r in rows),
        "resident_read_ms_median": statistics.median(r["resident_read_ms"] for r in rows),
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
