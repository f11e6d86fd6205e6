"""Traced mode: replay a workload's timed operations in this process, with
timing wrappers around the calls into each ``miru_ray`` layer.

The Ray run spreads its work over worker processes that the tracer cannot
see, so the same operations are replayed here through the same public
functions, in the order the Ray plan runs them at ``RAY_CPUS`` CPUs:

* build (the query workload's set-up): ``scan_file_meta`` per file,
  ``sparse_bases``, ``FileIndexer`` over the same file groups with the spill
  exchange, ``finalize_spilled_partition`` per partition;
* extend: ``scan_file_meta``, ``FileIndexer`` one file per call (groupby
  exchange), then ``SegmentExtender`` per partition;
* queries: ``SearchEngine.search(..., parallel=False)``, which calls
  ``search_partition`` for the same partitions and merges in the same order.

Each replay runs twice, untraced then traced, on separate directories; the
wall-time difference is the tracing overhead. Layer busy times are self
times. The remainder of the Ray wall time, which the replay does not spend,
is named: ``build.ray_overhead_s`` per build or epoch. The Ray run times its
queries in process; ``fanout_latency`` times the same pool through the Ray
fan-out as well, and ``search.dispatch_ms`` is the difference.
"""

from __future__ import annotations

import glob
import os
import shutil
import time

import numpy as np

from . import trace as tr
from . import workloads as wl

INGEST_LAYERS = (
    "build.scan_s", "analyzers.tokenize_s", "build.runs_encode_s", "codec.merge_s",
    "build.finalize_s", "segments.write_s",
)
QUERY_LAYERS_US = (
    "filters.parse_us", "search.expand_us", "search.posting_source_us",
    "segments.posting_read_us", "codec.decode_us", "search.eval_us", "wand.topk_us",
    "segments.forward_us", "search.score_us", "search.merge_us",
)
RAY_WARM_PASSES = 4  # fan-out passes before the timed ones
RAY_PASSES = 3  # timed fan-out passes, each beside one in-process pass
COVERAGE_TOLERANCE = 0.10  # |1 - coverage| the benchmark's tests accept
QUERY_PASSES = 2  # warm pool passes per query-workload replay


# ------------------------------------------------------------------ replays


def _file_groups(files: list[str], per_task: int) -> list[list[int]]:
    return [list(range(i, min(len(files), i + per_task))) for i in range(0, len(files), per_task)]


def _build_files_per_task(n_files: int) -> int:
    # build_index_streaming's grouping at RAY_CPUS actors
    return int(min(max(1, n_files), min(8, max(3, n_files // max(1, 6 * wl.RAY_CPUS)))))


def replay_build(files: list[str], index_dir: str, spill_dir: str, ref_index: str,
                 stats: dict) -> None:
    """The spill-path build of ``files`` into ``index_dir``, in process."""
    import pyarrow as pa
    import ray

    import miru_ray.build as build

    os.makedirs(index_dir, exist_ok=True)
    metas = [build.scan_file_meta(f, wl.N_PARTS, "hash") for f in files]
    bases, n_docs_by_part = build.sparse_bases(metas)
    fi = build.FileIndexer(index_dir, wl.N_PARTS, frozenset(), spill_dir=spill_dir,
                           bases_ref=ray.put(bases))
    for grp in _file_groups(files, _build_files_per_task(len(files))):
        fi(pa.table({"path": [files[i] for i in grp], "fidx": [i for i in grp]}))
    packs = glob.glob(os.path.join(spill_dir, "part=*", "pack-*.arrow"))
    stats["packs"] = stats.get("packs", 0) + len(packs)
    stats["spill_bytes"] = stats.get("spill_bytes", 0) + sum(os.path.getsize(p) for p in packs)
    lineage = {"input_files": files, "strategy": "stream",
               "rows_per_file": [int(m["rows"]) for m in metas]}
    for p in sorted(n_docs_by_part):
        build.finalize_spilled_partition(index_dir, spill_dir, p, n_docs_by_part[p], lineage)
    shutil.rmtree(spill_dir, ignore_errors=True)
    # the global manifest is bookkeeping the query engine reads; the Ray
    # build of the same files wrote the same one
    shutil.copy(os.path.join(ref_index, "index.json"), os.path.join(index_dir, "index.json"))


def replay_extend(files: list[str], index_dir: str, label: str, stats: dict) -> None:
    """One extend epoch of ``files`` onto ``index_dir``, in process."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    import miru_ray.build as build
    from miru_ray.segments import read_manifest

    metas = [build.scan_file_meta(f, wl.N_PARTS, "hash") for f in files]
    base_off = np.array(
        [(read_manifest(index_dir, p) or {"metrics": {"n_docs": 0}})["metrics"]["n_docs"]
         for p in range(wl.N_PARTS)], dtype=np.int64)
    bases, new_docs_by_part = build.sparse_bases(metas, base_off=base_off)
    fi = build.FileIndexer(index_dir, wl.N_PARTS, frozenset(), bases_ref=ray.put(bases))
    # extend_index gives each FileIndexer call one file at RAY_CPUS CPUs
    packs = pa.concat_tables([
        fi(pa.table({"path": [f], "fidx": [i]})) for i, f in enumerate(files)
    ])
    stats["packs"] = stats.get("packs", 0) + packs.num_rows
    stats["spill_bytes"] = stats.get("spill_bytes", 0) + int(
        pc.sum(pc.binary_length(packs["payload"])).as_py() or 0)
    ext = build.SegmentExtender(index_dir, new_docs_by_part, label,
                                {"extend_input": files, "strategy": "stream"})
    parts = packs["part"].to_numpy(zero_copy_only=False)
    for p in sorted(set(parts.tolist())):
        ext(packs.filter(pa.array(parts == p)))


def fanout_latency(keep: dict, queries) -> tuple[list[wl.QueryRun], list[wl.QueryRun]]:
    """The pool on the run's final index through the Ray fan-out (one Ray
    task per partition) and in process, in alternating warm passes. Each
    Ray worker keeps its own caches and a partition task lands on any of
    them, so warm-up passes come first."""
    from miru_ray.search import SearchEngine

    eng = SearchEngine(keep["index"])
    for _ in range(RAY_WARM_PASSES):
        wl.run_queries(eng, queries, parallel=True)
    wl.run_queries(eng, queries)
    ray_runs, local_runs = [], []
    for _ in range(RAY_PASSES):
        ray_runs += wl.run_queries(eng, queries, parallel=True)
        local_runs += wl.run_queries(eng, queries)
    return ray_runs, local_runs


def _replay_queries(engine, queries) -> tuple[float, list[wl.QueryRun]]:
    t0 = time.perf_counter()
    runs = wl.run_queries(engine, queries, parallel=False)
    return time.perf_counter() - t0, runs


def replay(ctx: wl.Context, keep: dict, dest: str, tracer: tr.Tracer | None) -> dict:
    """Replay the run's timed operations into ``dest``. Returns the replay's
    wall time (tracer installed for exactly that span), its op counts and
    query answers."""
    stats: dict = {}
    runs: list[wl.QueryRun] = []
    os.makedirs(dest, exist_ok=True)

    def install():
        if tracer is not None:
            tr.install_build_hooks(tracer)
            tr.install_query_hooks(tracer)

    from miru_ray.search import SearchEngine

    idx = os.path.join(dest, "index")
    if ctx.workload == "query":
        # the set-up build (what query's ingest_turns_per_s times), then the
        # pool on the Ray run's warm index
        eng = SearchEngine(keep["index"])
        _replay_queries(eng, keep["pool"])  # warm this process's caches
        install()
        t0 = time.perf_counter()
        replay_build(keep["files"], idx, os.path.join(dest, "spill"), keep["index"], stats)
        runs = _replay_queries(eng, keep["pool"] * QUERY_PASSES)[1]
        wall = time.perf_counter() - t0
        stats.update(n_ingest=1)
    else:
        shutil.copytree(keep["setup_copy"], idx)
        install()
        t0 = time.perf_counter()
        eng = SearchEngine(idx)
        for e, files in enumerate(keep["epochs"]):
            replay_extend(files, idx, f"replay-{e}", stats)
            runs += _replay_queries(eng, keep["batch"])[1]
        wall = time.perf_counter() - t0
        stats.update(n_ingest=len(keep["epochs"]))
    if tracer is not None:
        tracer.restore()
    stats.update(wall=wall, runs=runs, n_queries=len(runs), index=idx)
    return stats


# ------------------------------------------------------------------ metrics


def layer_metrics(ctx: wl.Context, out: wl.Outcome, keep: dict) -> dict:
    """Run both replays and turn the traced one into the per-layer metrics."""
    base = replay(ctx, keep, os.path.join(ctx.workdir, "replay-untraced"), None)
    tracer = tr.Tracer()
    traced = replay(ctx, keep, os.path.join(ctx.workdir, "replay-traced"), tracer)
    _check_replay(ctx, out, keep, base, traced)

    busy, incl, calls, counts = tracer.busy, tracer.incl, tracer.calls, tracer.counts
    n_ing, n_q = traced["n_ingest"], traced["n_queries"]
    m = {name: 0.0 for name, _ in wl.PER_LAYER}
    if n_ing:
        for layer in INGEST_LAYERS:
            m[layer] = busy.get(layer, 0.0) / n_ing
        m["analyzers.tokens"] = counts.get("analyzers.tokens", 0) / n_ing
        m["codec.merge_input_runs"] = counts.get("codec.merge_input_runs", 0) / n_ing
        m["segments.bytes_written"] = counts.get("segments.bytes_written", 0) / n_ing
        m["build.packs"] = traced.get("packs", 0) / n_ing
        m["build.spill_bytes"] = traced.get("spill_bytes", 0) / n_ing
        ingest_busy = sum(busy.get(layer, 0.0) for layer in INGEST_LAYERS)
        m["build.ray_overhead_s"] = float(np.mean(out.ingest_seconds())) - ingest_busy / n_ing
    if n_q:
        for layer in QUERY_LAYERS_US:
            m[layer] = busy.get(layer, 0.0) / n_q * 1e6
        m["search.expanded_terms"] = counts.get("search.expanded_terms", 0) / n_q
        m["segments.posting_keys_read"] = counts.get("segments.posting_keys_read", 0) / n_q
        m["codec.postings_decoded"] = counts.get("codec.postings_decoded", 0) / n_q
        asked = counts.get("search.posting_keys_asked", 0)
        if asked:
            m["search.posting_cache_hit_ratio"] = 1.0 - counts.get("segments.posting_keys_read", 0) / asked
        n_wand = calls.get("wand.topk_us", 0)
        m["wand.calls"] = n_wand / n_q
        if n_wand:
            m["wand.pruned_fraction"] = counts.get("wand.pruned_sum", 0.0) / n_wand
        n_part = calls.get("search.score_us", 0)
        if n_part:
            m["search.partition_us"] = incl["search.score_us"] / n_part * 1e6
        m["search.partitions_asked"] = n_part / n_q
    queries = keep["pool"] if ctx.workload == "query" else keep["batch"]
    ray_runs, local_runs = fanout_latency(keep, queries)
    for a, b in zip(ray_runs, local_runs, strict=True):
        out.check(wl.same_answer(a.answer, b.answer), f"ray vs in-process: {a.query.text!r}")
    ray_mean_ms = float(np.mean([r.seconds for r in ray_runs])) * 1e3
    local_mean_ms = float(np.mean([r.seconds for r in local_runs])) * 1e3
    m["search.dispatch_ms"] = ray_mean_ms - local_mean_ms
    m["query.ray_p50_ms"] = wl.median([r.seconds for r in ray_runs if r.query.scoring != "time"]) * 1e3
    if out.queries:
        m["query.p95_ms"] = wl.p95([r.seconds for r in out.queries]) * 1e3
        m["query.qps"] = 1.0 / out.query_mean_s()
    for fam in wl.FAMILIES:
        lat = [r.seconds for r in out.queries if r.query.family == fam]
        if lat:
            m[f"query.{fam}_p50_ms"] = wl.median(lat) * 1e3
    m["trace.coverage"] = tracer.total_busy() / traced["wall"]
    m["trace.overhead_frac"] = traced["wall"] / base["wall"] - 1.0
    if tracer.missing:
        out.notes.append("trace hooks missing: " + ", ".join(tracer.missing))
    keep["trace"] = {"busy": dict(busy), "wall": traced["wall"], "untraced_wall": base["wall"],
                     "ray_query_mean_ms": ray_mean_ms, "local_query_mean_ms": local_mean_ms}
    return m


def _check_replay(ctx, out, keep, base, traced) -> None:
    """The replays must answer exactly like the Ray run they mirror."""
    ray_answers = {}
    for r in out.queries:
        ray_answers.setdefault(r.query, r.answer)
    for rep in (base, traced):
        if ctx.workload == "query":
            expected = [ray_answers[r.query] for r in rep["runs"]]
        else:  # the same batches, epoch by epoch
            expected = [r.answer for r in out.queries]
        for r, exp in zip(rep["runs"], expected, strict=True):
            out.check(wl.same_answer(r.answer, exp), f"replay vs ray: {r.query.text!r}")
        out.check(_totals(rep["index"]) == _totals(keep["index"]), "replay index totals")


def _totals(index_dir: str) -> tuple[int, int]:
    from miru_ray.segments import completed_parts, read_manifest

    docs = posting = 0
    for p in completed_parts(index_dir):
        mt = read_manifest(index_dir, p)["metrics"]
        docs += int(mt["n_docs"])
        posting += int(mt["posting_bytes"])
    return docs, posting
