"""Warm ingest wall time: ``build_index`` runs and ``extend_index`` epochs.

    python tools/ingest_bench.py CORPUS [--runs 5]

``CORPUS`` is ``small`` or ``tiny`` (the perfbench corpus of that scale,
written under ``--work``), a directory of transcript Parquet files, or a
scale-factor data directory such as ``sf0.01``, which maps to the fixtures
transcript corpus the way ``bench.py`` maps it (``sf0.01`` → ``small``).

Starts perfbench's local Ray session (its CPU count, warmed worker pool)
and builds at its partition count: one untimed build and ``--runs`` timed
builds of every file. The extend
side builds the first half of the files once and then, ``--runs`` times
over a fresh copy of that base, applies each remaining file as one timed
epoch. Every timed call starts after a garbage collection and once every
logical CPU is free. Prints min and median seconds and the median turns/s
per side, with the single-core memory-bandwidth probe before and after
(the box's noise, not a metric), and a JSON summary as the last line. The
tool puts its own checkout first on ``sys.path`` and on the Ray workers'
``PYTHONPATH``, so run a scratch copy's tool to time that copy.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import statistics
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)


def corpus_files(corpus: str, work: str) -> list[str]:
    import pyarrow.parquet as pq

    if corpus in ("small", "tiny"):
        from perfbench.workloads import SCALES, Corpus

        sc = SCALES[corpus]
        return Corpus(sc).write(range(sc.shards), os.path.join(work, f"corpus-{corpus}"))
    files = sorted(glob.glob(os.path.join(corpus, "*.parquet")))
    if not files:
        raise SystemExit(f"no parquet files under {corpus!r}")
    if "conv_id" in pq.read_schema(files[0]).names:
        return files
    from bench import scale_for
    from miru_ray.fixtures import ensure_transcripts

    return sorted(glob.glob(os.path.join(ensure_transcripts(scale_for(corpus)), "*.parquet")))


def summary(secs: list[float], turns: list[int]) -> dict:
    return {"min_s": round(min(secs), 3), "median_s": round(statistics.median(secs), 3),
            "turns_per_s": round(statistics.median(t / s for t, s in zip(turns, secs))),
            "runs_s": [round(s, 3) for s in secs]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("corpus")
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--work", default=os.path.join(REPO, ".ingest_bench_work"))
    args = ap.parse_args(argv)

    import ray

    from miru_ray.build import build_index, extend_index
    from perfbench.run import membw_probe
    from perfbench.workloads import N_PARTS, RAY_CPUS, input_stats, ray_quiesce, ray_start

    files = corpus_files(args.corpus, args.work)
    if len(files) < 2:
        raise SystemExit("the extend side needs at least two input files")
    half = len(files) // 2
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [REPO] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    ray_start(args.work)
    idx = os.path.join(args.work, "index")
    base = os.path.join(args.work, "base")
    try:
        membw_before = membw_probe()
        build_index(files, idx, n_parts=N_PARTS, resume=False)  # warm-up
        n_turns = input_stats(files)[0]
        build_s = []
        for _ in range(args.runs):
            shutil.rmtree(idx, ignore_errors=True)
            ray_quiesce()
            t0 = time.perf_counter()
            build_index(files, idx, n_parts=N_PARTS, resume=False)
            build_s.append(time.perf_counter() - t0)
        shutil.rmtree(base, ignore_errors=True)
        build_index(files[:half], base, n_parts=N_PARTS, resume=False)
        extend_s, extend_turns = [], []
        for _ in range(args.runs):
            shutil.rmtree(idx, ignore_errors=True)
            shutil.copytree(base, idx)
            for f in files[half:]:
                ray_quiesce()
                t0 = time.perf_counter()
                extend_index([f], idx)
                extend_s.append(time.perf_counter() - t0)
                extend_turns.append(input_stats([f])[0])
        membw_after = membw_probe()
    finally:
        ray.shutdown()
        shutil.rmtree(idx, ignore_errors=True)
        shutil.rmtree(base, ignore_errors=True)
    out = {"corpus": args.corpus, "files": len(files), "turns": n_turns,
           "cpus": RAY_CPUS, "parts": N_PARTS,
           "build": summary(build_s, [n_turns] * len(build_s)),
           "extend": summary(extend_s, extend_turns),
           "membw_gbs_before": round(membw_before, 2),
           "membw_gbs_after": round(membw_after, 2)}
    for side in ("build", "extend"):
        s = out[side]
        print(f"{side:6s} min {s['min_s']:7.3f} s  median {s['median_s']:7.3f} s  "
              f"{s['turns_per_s']:8d} turns/s  ({len(s['runs_s'])} runs)")
    print(f"membw  {out['membw_gbs_before']} → {out['membw_gbs_after']} GB/s")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
