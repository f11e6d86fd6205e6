"""Benchmark harness: index-build throughput (turns/sec) + BM25 top-10 query
p50 latency over the synthetic transcripts corpus (BASELINE.json metric).

Default mode: one full run at ``RAY_GRAFT_CPUS`` (default 32) over the scale
implied by ``GRAFT_SF_DIR`` (default /root/testdata/sf0.1 → the 100k-conv
"bench" corpus, ~2.1M turns) and prints ONE JSON line.

``--scaling``: the same job in FRESH processes at 1/2/4/8/32 CPUs; reports
every N→4N efficiency pair (1→4, 2→8, and the mandated 8→32 as the
headline) plus the ``--membw`` control. ``--membw``: a no-Ray pure-memory
LUT-pass scaling control at the same worker counts — the independent
measurement of this shared box's DRAM ceiling.

Every build run carries a single-core membw probe before/after: this VM's
effective memory bandwidth swings >30× with co-tenant load, and the probe
lets a recorded number be read against the window it was taken in.

This file OWNS its Ray session (ray.init/shutdown); the library never does.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

DEFAULT_SF_DIR = "/root/testdata/sf0.1"

# reference-style query set (AND'd dictionary terms + OR/NOT/prefix/field —
# the families of MiruFullTextNGTest.java:215-224 plus parser coverage)
QUERY_SET = {
    "and2": "t1 t7",
    "and3": "t3 AND t9 AND t12",
    "or2": "w00042 OR w00123",
    "not": "t1 AND NOT t9",
    "prefix": "w004*",
    "field": "role:tool t3",
}
QUERY_REPEATS = 5
K = 10


def scale_for(sf_dir: str) -> str:
    name = os.path.basename(os.path.normpath(sf_dir))
    return {"sf0.001": "tiny", "sf0.01": "small"}.get(name, "bench")


def membw_probe(mb: int = 256) -> float:
    """Single-core memory-bandwidth probe (LUT pass over a touched buffer),
    GB/s. This box is a shared VM whose effective DRAM bandwidth swings
    >30× with co-tenant load; every recorded benchmark carries this number
    so a slow build can be distinguished from a slow box."""
    import numpy as np

    a = np.random.randint(0, 256, mb * 1_000_000, dtype=np.uint8)  # touched
    lut = np.arange(256, dtype=np.uint8)
    best = 0.0
    for _ in range(3):
        t0 = time.monotonic()
        b = lut[a]
        dt = time.monotonic() - t0
        best = max(best, a.nbytes / dt / 1e9)
        del b
    return round(best, 2)


def _membw_worker(mb: int, seconds: float, out_q):
    import numpy as np

    a = np.random.randint(0, 256, mb * 1_000_000, dtype=np.uint8)
    lut = np.arange(256, dtype=np.uint8)
    n = 0
    t0 = time.monotonic()
    while time.monotonic() - t0 < seconds:
        b = lut[a]
        del b
        n += 1
    out_q.put(n * a.nbytes / (time.monotonic() - t0) / 1e9)


def membw_scaling(levels=(1, 2, 4, 8, 32), mb: int = 128, seconds: float = 3.0) -> dict:
    """The NON-CIRCULAR scaling control: pure memory traffic (a 256-entry
    LUT pass — no Ray, no algorithm, no exchange) run by N concurrent
    processes over private buffers. If aggregate GB/s stops scaling from 8
    to 32 workers, the ceiling is the box's shared DRAM bus, not any
    property of the pipeline under test."""
    import multiprocessing as mp

    ctx = mp.get_context("spawn")
    out = {}
    for n in levels:
        q = ctx.Queue()
        ps = [ctx.Process(target=_membw_worker, args=(mb, seconds, q)) for _ in range(n)]
        for p in ps:
            p.start()
        total = sum(q.get() for _ in ps)
        for p in ps:
            p.join()
        out[n] = round(total, 2)
    eff = {
        f"{a}_to_{b}": round(out[b] / (out[a] * (b / a)), 3)
        for a, b in ((1, 4), (2, 8), (8, 32))
        if a in out and b in out
    }
    return {"aggregate_gbs": out, "efficiency": eff}


# ------------------------------------------------------- wiki second corpus
#
# The reference's own demo workload (WikiMiruIndexService.java): MediaWiki
# XML dumps → index → query. Synthesized deterministically (seed fixed, no
# external data) with wiki markup AND non-ASCII vocabulary (accents +
# Cyrillic) so the unicode analyzer chain is exercised at bench scale.

_WIKI_VOCAB_ASCII = (
    "data scan merge table index query stream batch shard vector windowed "
    "column filter sort group join order value rowset spark tokenizer"
).split()
_WIKI_VOCAB_UNICODE = (
    "café naïve résumé zürich köln москва данные поиск индекс słowo "
    "kraków español señal año façade née"
).split()


def ensure_wiki_dump(
    n_pages: int, n_files: int = 16, base: str = "/tmp/miru_ray_wiki_dumps"
) -> str:
    """Deterministic synthetic MediaWiki dump dir (cached): ``n_pages``
    main-namespace articles spread over ``n_files`` id-ordered XML files,
    each body mixing markup ({{templates}}, [[links|labels]], <ref>) with
    ascii + non-ASCII vocabulary. ~60 tokens/article."""
    import random

    d = os.path.join(base, f"p{n_pages}_f{n_files}")
    done = os.path.join(d, "_DONE")
    if os.path.exists(done):
        return d
    os.makedirs(d, exist_ok=True)
    rng = random.Random(42)
    vocab = _WIKI_VOCAB_ASCII + _WIKI_VOCAB_UNICODE
    per = -(-n_pages // n_files)
    pid = 1
    for f in range(n_files):
        rows = []
        for _ in range(min(per, n_pages - (pid - 1))):
            words = [rng.choice(vocab) for _ in range(50)]
            # sprinkle markup the ingest must strip
            body = (
                "{{infobox|x=%d}} " % pid
                + " ".join(words[:20])
                + " [[%s|%s]] " % (rng.choice(vocab), rng.choice(vocab))
                + " ".join(words[20:40])
                + " <ref>cite %d</ref> ''em'' " % pid
                + " ".join(words[40:])
            )
            title = "Article %s %d" % (rng.choice(vocab), pid)
            rows.append(
                " <page>\n  <title>%s</title>\n  <ns>0</ns>\n  <id>%d</id>\n"
                "  <revision><text>%s</text></revision>\n </page>\n"
                % (title, pid, body)
            )
            pid += 1
        with open(os.path.join(d, f"dump-{f:05d}.xml"), "w", encoding="utf-8") as fh:
            fh.write(
                '<mediawiki xmlns="http://www.mediawiki.org/xml/export-0.10/">\n'
                + "".join(rows)
                + "</mediawiki>\n"
            )
    with open(done, "w") as fh:
        fh.write("ok")
    return d


WIKI_QUERY_SET = {
    # non-ASCII terms — the unicode analyzer's term-equality contract
    "uni_and": "café москва",
    "uni_or": "zürich OR kraków",
    "uni_not": "данные AND NOT façade",
    "mixed": "index поиск",
}


def run_wiki(num_cpus: int, n_pages: int, n_parts: int) -> dict:
    """Wiki second-corpus pipeline: XML dumps → wiki_ingest (parallel parse
    + markup strip) → unicode-analyzer index build → non-ASCII queries."""
    import ray

    from miru_ray.build import build_index
    from miru_ray.search import SearchEngine
    from miru_ray.wiki import wiki_ingest

    dumps = ensure_wiki_dump(n_pages)
    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    try:
        tx_dir = f"/tmp/miru_ray_wiki_tx_{os.getpid()}"
        index_dir = f"/tmp/miru_ray_wiki_idx_{os.getpid()}"
        membw_before = membw_probe()
        t0 = time.monotonic()
        shards = wiki_ingest(dumps, tx_dir)
        ingest_sec = time.monotonic() - t0
        t0 = time.monotonic()
        manifest = build_index(
            tx_dir, index_dir, n_parts=n_parts, analyzer="unicode", resume=False
        )
        build_sec = time.monotonic() - t0
        n_docs = manifest["totals"]["n_docs"]
        eng = SearchEngine(index_dir)
        q_p50 = {}
        found_by_q = {}
        for name, q in WIKI_QUERY_SET.items():
            times = []
            for _ in range(QUERY_REPEATS):
                tq = time.monotonic()
                _, found = eng.search(q, k=K, scoring="bm25")
                times.append(time.monotonic() - tq)
            q_p50[name] = round(statistics.median(times), 4)
            found_by_q[name] = found
        shutil.rmtree(index_dir, ignore_errors=True)
        shutil.rmtree(tx_dir, ignore_errors=True)
        return {
            "num_cpus": num_cpus,
            "n_pages": n_docs,
            "n_files": len(shards),
            "ingest_sec": round(ingest_sec, 2),
            "build_sec": round(build_sec, 2),
            "pages_per_sec": round(n_docs / (ingest_sec + build_sec), 1),
            "analyzer": "unicode",
            "queries": q_p50,
            "query_found": found_by_q,
            "membw_gbs_before": membw_before,
            "membw_gbs_after": membw_probe(),
        }
    finally:
        ray.shutdown()


def run_once(num_cpus: int, sf_dir: str, n_parts: int, build_attempts: int = 1) -> dict:
    import ray

    from miru_ray.build import build_index
    from miru_ray.fixtures import ensure_transcripts
    from miru_ray.search import SearchEngine

    scale = scale_for(sf_dir)
    src = ensure_transcripts(scale)  # cached corpus generation — not timed

    ray.init(
        address="local", num_cpus=num_cpus, include_dashboard=False, logging_level="ERROR"
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    try:
        # warm the worker pool (process spawn + imports are one-time session
        # costs on a long-lived cluster, not build throughput)
        import numpy as _np
        import ray.data as rd

        rd.from_items([{"x": i} for i in range(num_cpus * 4)]).map_batches(
            lambda b: b, batch_size=1, batch_format="pyarrow",
            concurrency=max(1, min(num_cpus, num_cpus - 2) or 1), num_cpus=1,
        ).materialize()

        index_dir = f"/tmp/miru_ray_bench_idx_{os.getpid()}"
        membw_before = membw_probe()
        build_secs = []
        for _ in range(max(1, build_attempts)):
            shutil.rmtree(index_dir, ignore_errors=True)
            t0 = time.monotonic()
            manifest = build_index(src, index_dir, n_parts=n_parts, resume=False)
            build_secs.append(time.monotonic() - t0)
        membw_after = membw_probe()
        build_sec = min(build_secs)
        n_turns = manifest["totals"]["n_docs"]

        eng = SearchEngine(index_dir)
        q_p50 = {}
        for name, q in QUERY_SET.items():
            times = []
            for _ in range(QUERY_REPEATS):
                tq = time.monotonic()
                eng.search(q, k=K, scoring="bm25")
                times.append(time.monotonic() - tq)
            q_p50[name] = round(statistics.median(times), 4)
        shutil.rmtree(index_dir, ignore_errors=True)
    finally:
        ray.shutdown()

    return {
        "num_cpus": num_cpus,
        "scale": scale,
        "n_turns": n_turns,
        "n_parts": n_parts,
        "build_sec": round(build_sec, 2),
        "build_secs_all": [round(s, 2) for s in build_secs],
        "turns_per_sec": round(n_turns / build_sec, 1),
        "posting_bytes": manifest["totals"]["posting_bytes"],
        "queries": q_p50,
        "query_p50_sec": round(statistics.median(q_p50.values()), 4),
        # noise context: single-core DRAM GB/s right before/after the build
        # (this shared VM swings >30x with co-tenant load)
        "membw_gbs_before": membw_before,
        "membw_gbs_after": membw_after,
    }


def run_qps(num_cpus: int, sf_dir: str, n_parts: int, clients: int = 8,
            seconds: float = 10.0) -> dict:
    """Concurrent-query throughput against the partition-pinned actor
    engine: ``clients`` driver threads issue the reference query mix
    back-to-back for ``seconds``; reports aggregate QPS and latency
    percentiles (the reader-tier serving story, complementing the
    single-query p50 of the default mode)."""
    import threading

    import ray

    from miru_ray.build import build_index
    from miru_ray.fixtures import ensure_transcripts
    from miru_ray.search import SearchEngine

    src = ensure_transcripts(scale_for(sf_dir))
    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    try:
        index_dir = f"/tmp/miru_ray_bench_qps_{os.getpid()}"
        manifest = build_index(src, index_dir, n_parts=n_parts, resume=False)
        eng = SearchEngine(index_dir)
        queries = list(QUERY_SET.items())
        for _, q in queries:  # warm actors + posting caches once
            eng.search(q, k=K, scoring="bm25")
        lat: list[tuple[str, float]] = []
        lock = threading.Lock()
        t_start = time.monotonic()
        stop_at = t_start + seconds

        def client(cid: int):
            i = cid  # deterministic stagger so clients interleave families
            local = []
            while time.monotonic() < stop_at:
                name, q = queries[i % len(queries)]
                t0 = time.monotonic()
                eng.search(q, k=K, scoring="bm25")
                local.append((name, time.monotonic() - t0))
                i += 1
            with lock:
                lat.extend(local)

        threads = [threading.Thread(target=client, args=(c,)) for c in range(clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.monotonic() - t_start
        times = sorted(s for _, s in lat)

        def pct(p):
            return round(times[min(len(times) - 1, int(p * len(times)))], 4)

        per_q = {}
        for name, _ in queries:
            qs = sorted(s for n, s in lat if n == name)
            if qs:
                per_q[name] = round(qs[len(qs) // 2], 4)
        shutil.rmtree(index_dir, ignore_errors=True)
        return {
            "num_cpus": num_cpus,
            "clients": clients,
            "seconds": round(elapsed, 2),
            "n_queries": len(times),
            "qps": round(len(times) / elapsed, 1),
            "p50_sec": pct(0.50),
            "p95_sec": pct(0.95),
            "p99_sec": pct(0.99),
            "per_query_p50": per_q,
            "n_turns": manifest["totals"]["n_docs"],
            "membw_gbs": membw_probe(),
        }
    finally:
        ray.shutdown()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--scaling", action="store_true")
    ap.add_argument("--membw", action="store_true",
                    help="pure-memory-traffic scaling control (no Ray)")
    ap.add_argument("--qps", action="store_true",
                    help="concurrent-query throughput against the actor engine")
    ap.add_argument("--wiki", action="store_true",
                    help="wiki second corpus: XML dumps → ingest → unicode "
                         "index → non-ASCII queries")
    ap.add_argument("--wiki-pages", type=int, default=1_000_000)
    ap.add_argument("--clients", type=int, default=8)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--sub", action="store_true", help="internal: single scaling run")
    ap.add_argument("--cpus", type=int, default=None)
    ap.add_argument("--parts", type=int, default=32)
    ap.add_argument("--repeat", type=int, default=2, help="best-of-N per scaling level")
    args = ap.parse_args()

    sf_dir = os.environ.get("GRAFT_SF_DIR", DEFAULT_SF_DIR)
    cpus = args.cpus or int(os.environ.get("RAY_GRAFT_CPUS", "32"))

    if args.membw:
        print(json.dumps(dict(
            {"metric": "aggregate DRAM GB/s, N concurrent LUT-pass processes "
                       "(non-circular scaling control: no Ray, no pipeline)",
             "unit": "GB/s"},
            **membw_scaling(),
        )))
        return

    if args.wiki:
        print(json.dumps(dict(
            {"metric": "wiki dump ingest + unicode index build (pages/sec) "
                       "+ non-ASCII BM25 p50", "unit": "pages/sec"},
            **run_wiki(cpus, args.wiki_pages, args.parts),
        )))
        return

    if args.qps:
        print(json.dumps(dict(
            {"metric": "BM25 top-10 QPS, concurrent clients vs the "
                       "partition-pinned actor engine", "unit": "qps",
             "sf": sf_dir},
            **run_qps(cpus, sf_dir, args.parts, args.clients, args.seconds),
        )))
        return

    if args.sub:
        print(json.dumps(run_once(cpus, sf_dir, args.parts)))
        return

    if args.scaling:
        # Same job at five parallelism levels in fresh processes (the
        # sandbox stand-in for N- vs 4N-node clusters). All three N→4N
        # pairs are reported AS PEERS (1→4, 2→8, and the mandated 8→32);
        # the headline value is the mandated 8→32 pair. The membw control
        # (pure LUT traffic, no Ray — `--membw`) is run alongside so the
        # single-box DRAM ceiling is measured independently of the
        # pipeline rather than inferred from its own slowdown. The
        # 1→4-models-multi-node reading (each real node brings its own
        # memory controllers) remains a hypothesis until measured on real
        # multi-node hardware. best-of-N per level with all runs listed:
        # co-tenant interference on this shared VM only ever slows a run.
        results = {}
        runs_all = {}
        for n in (1, 2, 4, 8, 32):
            best = None
            runs_all[n] = []
            for _ in range(args.repeat):
                # per-sub-run timeout + one retry: Ray can (rarely) stall
                # scheduling under heavy co-tenant pressure — observed once
                # as a driver blocked on a raylet socket with every worker
                # IDLE. A wedged level must not hang the whole matrix.
                for attempt in (1, 2):
                    try:
                        out = subprocess.run(
                            [sys.executable, os.path.abspath(__file__), "--sub",
                             "--cpus", str(n), "--parts", str(args.parts)],
                            capture_output=True, text=True, check=True,
                            timeout=900,
                            env=dict(os.environ, GRAFT_SF_DIR=sf_dir),
                        )
                        break
                    except subprocess.TimeoutExpired:
                        if attempt == 2:
                            raise
                        subprocess.run(["ray", "stop", "--force"],
                                       capture_output=True)
                r = json.loads(out.stdout.strip().splitlines()[-1])
                runs_all[n].append(
                    {"turns_per_sec": r["turns_per_sec"],
                     "membw_gbs": [r["membw_gbs_before"], r["membw_gbs_after"]]}
                )
                if best is None or r["turns_per_sec"] > best["turns_per_sec"]:
                    best = r
            results[n] = best
        control = membw_scaling()
        thr = {n: results[n]["turns_per_sec"] for n in results}
        eff = {
            f"{a}_to_{b}": round(thr[b] / ((b / a) * thr[a]), 3)
            for a, b in ((1, 4), (2, 8), (8, 32))
        }
        print(
            json.dumps(
                {
                    "metric": "throughput scaling efficiency N→4N cpus (fresh sessions, same input); headline = the mandated 8→32 pair, all pairs + the no-Ray membw control reported alongside",
                    "value": eff["8_to_32"],
                    "unit": "ratio",
                    "sf": sf_dir,
                    "turns_per_sec": thr,
                    "efficiency": eff,
                    "membw_control": control,
                    "runs": runs_all,
                    "detail": results,
                }
            )
        )
        return

    # 5 attempts, min: attempt 1 pays the session's one-time costs (worker
    # spawn + imports + first-touch), and this shared VM's co-tenant load
    # swings effective DRAM bandwidth >30× between minutes — more samples
    # materially improve the odds that one lands in a usable window (~40 s
    # each; the whole default run stays under 5 min). All attempts are
    # reported (build_secs_all) beside the membw probes.
    r = run_once(cpus, sf_dir, args.parts, build_attempts=5)
    # second corpus folded into the default line (VERDICT r5 #8): the
    # 1M-page wiki dump → ingest → unicode index → non-ASCII query p50s,
    # so a regression on the second corpus shows up in BENCH_r{N} loudly.
    # Failure degrades to an error string rather than killing the bench.
    try:
        w = run_wiki(cpus, args.wiki_pages, args.parts)
        wiki = {k: w[k] for k in ("n_pages", "ingest_sec", "build_sec",
                                  "pages_per_sec", "queries")}
    except Exception as e:  # noqa: BLE001
        wiki = {"error": repr(e)[:200]}
    print(
        json.dumps(
            {
                "metric": "index-build wall sec (+ BM25 top-10 p50 per query)",
                "value": r["build_sec"],
                "unit": "sec",
                "queries": r["queries"],
                "sf": sf_dir,
                "num_cpus": cpus,
                "n_turns": r["n_turns"],
                "turns_per_sec": r["turns_per_sec"],
                "query_p50_sec": r["query_p50_sec"],
                "posting_bytes": r["posting_bytes"],
                "build_secs_all": r["build_secs_all"],
                "membw_gbs_before": r["membw_gbs_before"],
                "membw_gbs_after": r["membw_gbs_after"],
                "wiki": wiki,
            }
        )
    )


if __name__ == "__main__":
    main()
