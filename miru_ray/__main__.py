"""CLI entry points — the `ray job submit` surface.

On a cluster:

    ray job submit --working-dir . -- python -m miru_ray build \
        --input /data/transcripts --index /data/index --parts 4096
    ray job submit --working-dir . -- python -m miru_ray search \
        --index /data/index --query "error AND NOT timeout" -k 10 --scoring bm25

Locally the same commands work against `ray.init(address="local")`
(auto-detected). ``main`` shuts down at exit only a Ray session it started
(an in-process caller's session stays up); the library never starts one.
"""

from __future__ import annotations

import argparse
import json
import sys


def _ray_up():
    import ray

    if not ray.is_initialized():
        ray.init(include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def cmd_build(args) -> int:
    _ray_up()
    from .build import build_index

    meta = build_index(
        args.input,
        args.index,
        n_parts=args.parts,
        use_stopwords=args.stopwords,
        resume=not args.no_resume,
        analyzer=args.analyzer,
        positions=args.positions,
    )
    print(json.dumps(meta))
    return 0


def cmd_search(args) -> int:
    _ray_up()
    from .search import SearchEngine

    eng = SearchEngine(args.index)
    if getattr(args, "group_by", None):
        groups, found = eng.group_topk(
            args.query, n_groups=args.k, per_group=args.per_group,
            key=args.group_by, scoring=args.scoring,
        )
        print(json.dumps({
            "query": args.query, "found": found,
            "groups": [
                {"key": kv, "hits": [
                    {"conv_id": h.conv_id, "turn_idx": h.turn_idx,
                     "doc_id": h.doc_id, "part": h.part,
                     "score": round(h.score, 6)} for h in hs
                ]} for kv, hs in groups
            ],
        }))
        return 0
    if getattr(args, "serial", False):
        hits, found = eng.search_serial(args.query, k=args.k, scoring=args.scoring)
    else:
        hits, found = eng.search(args.query, k=args.k, scoring=args.scoring,
                                 collapse=getattr(args, "collapse", None))
    print(
        json.dumps(
            {
                "query": args.query,
                "found": found,
                "hits": [
                    {
                        "conv_id": h.conv_id,
                        "turn_idx": h.turn_idx,
                        "part": h.part,
                        "doc_id": h.doc_id,
                        "score": h.score,
                        "ts": h.ts,
                    }
                    for h in hits
                ],
            }
        )
    )
    return 0


def cmd_extend(args) -> int:
    _ray_up()
    from .build import extend_index

    print(json.dumps(extend_index(args.input, args.index)))
    return 0


def cmd_registry(args) -> int:
    from .registry import Registry

    reg = Registry(args.registry)
    if args.action == "register":
        replicas = {}
        for spec in args.replica or []:
            primary, reps = spec.split("=", 1)
            replicas[primary] = reps.split(",")
        print(json.dumps(reg.register_tenant(args.tenant, args.indexes, replicas)))
    elif args.action == "describe":
        print(json.dumps(reg.describe(args.tenant)))
    elif args.action == "remove":
        reg.remove_tenant(args.tenant)
        print(json.dumps({"removed": args.tenant}))
    else:
        print(json.dumps({"tenants": reg.tenants()}))
    return 0


def cmd_upsert(args) -> int:
    _ray_up()
    from .build import upsert_rows

    print(json.dumps(upsert_rows(args.index, args.updates, args.source,
                                 args.patched_dir)))
    return 0


def cmd_sip(args) -> int:
    _ray_up()
    from .build import sip_watch

    print(
        json.dumps(
            sip_watch(
                args.input,
                args.index,
                interval=args.interval,
                max_cycles=args.max_cycles,
                idle_cycles_to_stop=args.idle_stop,
                retry_on_error=args.retry_on_error,
            )
        )
    )
    return 0


def cmd_compact(args) -> int:
    _ray_up()
    from .build import compact_index

    print(json.dumps(compact_index(args.index)))
    return 0


def cmd_expire(args) -> int:
    from .build import expire_partitions

    print(json.dumps(expire_partitions(args.index, args.older_than,
                                       dry_run=args.dry_run)))
    return 0


def cmd_audit(args) -> int:
    _ray_up()
    from .audit import audit_index

    rep = audit_index(args.index, sample_terms=args.sample_terms)
    print(json.dumps(rep))
    return 0 if rep["ok"] else 1


def cmd_export(args) -> int:
    _ray_up()
    from .search import SearchEngine

    eng = SearchEngine(args.index)
    if args.source:
        from .extract import export_corpus

        res = export_corpus(eng, args.query, args.source, args.out)
    else:
        res = eng.export_match(args.query, args.out)
    print(json.dumps(res))
    return 0


def cmd_sync(args) -> int:
    _ray_up()
    from .sync import sync_index, verify_sync

    if args.verify:
        # the audit keeps verify_sync's checksum=True default — a size-only
        # "verify" cannot catch same-size content drift, which is the one
        # thing an audit exists to catch; --no-checksum opts out explicitly
        print(json.dumps(verify_sync(args.src, args.dst,
                                     checksum=not args.no_checksum)))
    else:
        print(json.dumps(sync_index(args.src, args.dst, checksum=args.checksum)))
    return 0


def cmd_plugin(args) -> int:
    _ray_up()
    from . import plugins
    from .search import SearchEngine

    eng = SearchEngine(args.index)
    kwargs = json.loads(args.args) if args.args else {}
    out = plugins.run_plugin(eng, args.name, **kwargs)
    print(json.dumps(out, default=str))
    return 0


def cmd_pipeline(args) -> int:
    _ray_up()
    import __main__  # noqa: F401

    name = args.name
    if name == "reco":
        from .reco import reco_cf_ds

        out = reco_cf_ds(args.sf_dir, user_id=args.user, k=args.k)
    elif name == "strut":
        from .strut import strut_score_ds

        out = strut_score_ds(args.sf_dir, args.terms.split(","))
    elif name == "bloom":
        from .bloom import bloom_summary_ds

        out = bloom_summary_ds(args.sf_dir)
    elif name == "dedup":
        from .dedup import minhash_clusters

        out = minhash_clusters(args.sf_dir, threshold=0.9)
    elif name == "ngram_jaccard":
        from .dedup import ngram_jaccard_pairs_ds

        out = ngram_jaccard_pairs_ds(args.sf_dir)
    elif name == "simhash_near":
        from .dedup import simhash_hamming_pairs_ds

        out = simhash_hamming_pairs_ds(args.sf_dir)
    elif name == "embed_neardup":
        from .ann import embed_neardup_pairs_ds

        out = embed_neardup_pairs_ds(args.sf_dir)
    elif name == "ann":
        from .ann import ann_ivf_topk

        out = ann_ivf_topk(args.sf_dir, k=args.k)
    elif name == "hybrid":
        from .hybrid import rrf_retrieve

        out = rrf_retrieve(
            args.sf_dir, tuple(args.terms.split(",")), args.user, k=args.k
        )
    elif name == "line_dedup":
        from .dedup import line_dedup_ds

        out = line_dedup_ds(args.sf_dir)
    elif name == "item_sim":
        from .reco import reco_item_sim_ds

        out = reco_item_sim_ds(args.sf_dir, k=args.k)
    elif name == "trending":
        from .analytics import trending_strategies_ds

        out = trending_strategies_ds(args.sf_dir)
    elif name == "curate":
        from .curate import curate_ds

        out = curate_ds(args.sf_dir)
    elif name == "mix":
        from .textstats import token_budget_epochs_ds

        out = token_budget_epochs_ds(args.sf_dir, budget=args.budget)
    elif name == "percolate":
        from .percolate import percolate_ds

        if not args.queries:
            raise SystemExit('percolate needs --queries \'{"qid": "query", ...}\'')
        out = percolate_ds(args.sf_dir, json.loads(args.queries))
    else:
        raise SystemExit(f"unknown pipeline {name!r}")

    import pyarrow as pa

    if args.out:
        # resumable sink: one parquet file per output block under the target
        # dir — the streaming executor writes blocks as they finish, nothing
        # funnels through the driver, never one giant file
        import os

        import ray.data as rd

        ds = rd.from_arrow(out) if isinstance(out, pa.Table) else out
        ds.write_parquet("local://" + os.path.abspath(args.out))
        print(json.dumps({"out": args.out}))
        return 0

    if isinstance(out, pa.Table):
        print(json.dumps(out.to_pylist(), default=str))
        return 0
    # Dataset results: pair/enumeration pipelines can be large — print k
    # rows WITH an explicit truncation marker and point at --out (silent
    # truncation would read as the complete answer)
    rows = out.take(args.k + 1)
    truncated = len(rows) > args.k
    payload = {"rows": rows[: args.k]}
    if truncated:
        payload["truncated"] = True
        payload["hint"] = "result exceeds -k rows; use --out DIR for the full set"
    print(json.dumps(payload, default=str))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="miru_ray")
    sub = ap.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build", help="build the inverted index")
    b.add_argument("--input", required=True, help="parquet file/dir of transcripts")
    b.add_argument("--index", required=True, help="output index dir")
    b.add_argument("--parts", type=int, required=True)
    b.add_argument("--stopwords", action="store_true")
    b.add_argument("--no-resume", action="store_true")
    b.add_argument("--analyzer", default="default",
                   help="analyzer name (analyzers.register_analyzer; e.g. unicode)")
    b.add_argument("--positions", action="store_true",
                   help="also write the positional index (enables phrase queries)")
    b.set_defaults(fn=cmd_build)

    s = sub.add_parser("search", help="query a built index")
    s.add_argument("--index", required=True)
    s.add_argument("--query", required=True)
    s.add_argument("-k", type=int, default=10)
    s.add_argument("--scoring", choices=["ref_tfidf", "bm25", "lmd", "time"], default="bm25")
    s.add_argument("--serial", action="store_true",
                   help="serial partition walk with report carry-forward "
                        "(acceptableBelowMin admission; relevance scorers only)")
    s.add_argument("--collapse", choices=["conv_id", "role"], default=None,
                   help="field collapsing: one best hit per key value")
    s.add_argument("--group-by", choices=["conv_id", "role"], default=None,
                   help="grouped top-k: -k groups × --per-group hits each")
    s.add_argument("--per-group", type=int, default=3)
    s.set_defaults(fn=cmd_search)

    c = sub.add_parser(
        "compact", help="rewrite partitions in canonical posting form (LAB compactor analogue)"
    )
    c.add_argument("--index", required=True)
    c.set_defaults(fn=cmd_compact)

    rg = sub.add_parser(
        "registry",
        help="tenant topology registry: list/register/describe/remove "
        "(versioned schema records; replica wiring for failover)",
    )
    rg.add_argument("action", choices=["list", "register", "describe", "remove"])
    rg.add_argument("--registry", required=True, help="registry dir")
    rg.add_argument("--tenant")
    rg.add_argument("--indexes", nargs="+", default=[])
    rg.add_argument(
        "--replica", action="append",
        help="primary_dir=replica_dir[,replica_dir...] (repeatable)",
    )
    rg.set_defaults(fn=cmd_registry)

    up = sub.add_parser(
        "upsert",
        help="version-gated late-data upsert (keep-max-version REPAIR): "
        "higher-ts updates replace indexed rows; winners persist into a "
        "patched corpus epoch",
    )
    up.add_argument("--index", required=True)
    up.add_argument("--updates", required=True, help="parquet file/dir of update rows")
    up.add_argument("--source", required=True, help="current corpus input (file list dir)")
    up.add_argument("--patched-dir", required=True,
                    help="where patched corpus files are written (the new epoch)")
    up.set_defaults(fn=cmd_upsert)

    sp = sub.add_parser(
        "sip",
        help="watch a corpus dir and keep the index caught up "
        "(heartbeat extend loop)",
    )
    sp.add_argument("--input", required=True, help="corpus dir to watch")
    sp.add_argument("--index", required=True)
    sp.add_argument("--interval", type=float, default=5.0)
    sp.add_argument("--max-cycles", type=int, default=None)
    sp.add_argument(
        "--idle-stop", type=int, default=None,
        help="exit after N consecutive no-change polls (batch catch-up mode)",
    )
    sp.add_argument(
        "--retry-on-error", action="store_true",
        help="daemon posture: record failed extends and retry next heartbeat",
    )
    sp.set_defaults(fn=cmd_sip)

    e = sub.add_parser("extend", help="append new sorted files (sip analogue)")
    e.add_argument("--input", required=True)
    e.add_argument("--index", required=True)
    e.set_defaults(fn=cmd_extend)

    ex = sub.add_parser(
        "expire", help="drop partitions older than a ts cutoff (retention)"
    )
    ex.add_argument("--index", required=True)
    ex.add_argument("--older-than", type=int, required=True,
                    help="microsecond ts cutoff; partitions with ts_max below it drop")
    ex.add_argument("--dry-run", action="store_true")
    ex.set_defaults(fn=cmd_expire)

    au = sub.add_parser(
        "audit", help="fsck the index: re-derive and cross-check invariants"
    )
    au.add_argument("--index", required=True)
    au.add_argument("--sample-terms", type=int, default=64)
    au.set_defaults(fn=cmd_audit)

    xp = sub.add_parser(
        "export", help="materialize a filter query's full answer as parquet"
    )
    xp.add_argument("--index", required=True)
    xp.add_argument("--query", required=True)
    xp.add_argument("--out", required=True)
    xp.add_argument("--source", default=None,
                    help="source parquet dir: rejoin raw rows (text included) "
                         "instead of exporting index metadata only")
    xp.set_defaults(fn=cmd_export)

    sy = sub.add_parser(
        "sync", help="replicate a built index to another dir (miru-sync analogue)"
    )
    sy.add_argument("--src", required=True)
    sy.add_argument("--dst", required=True)
    sy.add_argument("--checksum", action="store_true",
                    help="sync mode: CRC-verify same-size files instead of "
                         "trusting sizes")
    sy.add_argument("--verify", action="store_true",
                    help="read-only audit: report equal/differing partitions "
                         "(CRC-checked by default)")
    sy.add_argument("--no-checksum", action="store_true",
                    help="with --verify: downgrade the audit to size-only")
    sy.set_defaults(fn=cmd_sync)

    p = sub.add_parser("plugin", help="run a registered plugin against an index")
    p.add_argument("--index", required=True)
    p.add_argument("--name", required=True, help="e.g. distincts, aggregate_counts, trending")
    p.add_argument("--args", help='plugin kwargs as JSON, e.g. \'{"field": "role"}\'')
    p.set_defaults(fn=cmd_plugin)

    pl = sub.add_parser("pipeline", help="run a training-data pipeline over an sf dir")
    pl.add_argument("--name", required=True,
                    choices=["reco", "strut", "bloom", "dedup", "ngram_jaccard",
                             "simhash_near", "embed_neardup", "ann", "trending",
                             "curate", "mix", "percolate", "hybrid",
                             "line_dedup", "item_sim"])
    pl.add_argument("--sf-dir", required=True)
    pl.add_argument("--user", type=int, default=3,
                    help="reco: user id / hybrid: query vec_id")
    pl.add_argument("--budget", type=int, default=2000,
                    help="mix: per-source token budget")
    pl.add_argument("--queries", help='percolate: {"qid": "query", ...} JSON')
    pl.add_argument("--terms", default="scan,merge,join", help="strut: feature terms")
    pl.add_argument("-k", type=int, default=10)
    pl.add_argument("--out", help="write the result as partitioned parquet under this dir instead of printing")
    pl.set_defaults(fn=cmd_pipeline)

    args = ap.parse_args(argv)
    import ray

    started = not ray.is_initialized()
    try:
        return args.fn(args)
    finally:
        if started and ray.is_initialized():
            ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())
