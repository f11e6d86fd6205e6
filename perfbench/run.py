"""Benchmark entry point.

    python3 perfbench/run.py --workload query|extend --seed N \
        --seconds S --trace 0|1 [--scale small|tiny]

Run from the repository root. The workload runs in a child process whose
standard output and error (Ray's and Ray Data's logs included) go to a log
file in the run directory; this process prints one context line and then
the result as the last line of standard output:

    {"correct": true, "attempted": 31, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced in-process replay (see replay.py). A child that hangs
is killed with everything it started and the run counts as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
CHILD_TIMEOUT_S = 165  # the whole run must end within 180 s


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["query", "extend"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", choices=["small", "tiny"], default="small")
    ap.add_argument("--child", metavar="RUN_DIR", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def membw_probe(mb: int = 32) -> float:
    """Single-core memory bandwidth in GB/s (the best of three LUT passes over
    a touched buffer, as bench.py's membw_probe): noise context printed
    beside each run, never a metric."""
    import numpy as np

    a = np.random.default_rng(0).integers(0, 256, mb * 1_000_000, dtype=np.uint8)
    lut = np.arange(256, dtype=np.uint8)
    best = 0.0
    for _ in range(3):
        t0 = time.perf_counter()
        lut[a]
        best = max(best, a.nbytes / (time.perf_counter() - t0) / 1e9)
    return best


# ------------------------------------------------------------------ child


def child_main(args) -> int:
    """Run the workload in this process and write result.json."""
    sys.path.insert(0, ROOT)
    from perfbench import workloads as wl

    run_dir = args.child
    ctx = wl.Context(args.workload, args.seed, args.seconds, args.scale, run_dir)
    if args.trace:
        ctx.setup_reps = 1
    t_start = time.perf_counter()
    phases = {}

    def mark(name):
        phases[name] = time.perf_counter() - t_start - sum(phases.values())

    context = {"membw_gbs_before": membw_probe(), "phases_s": phases}
    out = wl.Outcome()
    keep: dict = {}
    mark("probe")
    wl.ray_start(run_dir)
    mark("ray_start")
    try:
        wl.WORKLOADS[args.workload](ctx, out, keep)
        mark("workload")
        wl.check_answers(ctx, out, keep)
        mark("checks")
        if args.trace:
            from perfbench import replay

            metrics = replay.layer_metrics(ctx, out, keep)
            units = dict(wl.PER_LAYER)
            context["trace"] = keep["trace"]
        else:
            metrics = out.e2e()
            units = dict(wl.E2E)
    finally:
        wl.ray_stop()
    mark("trace_and_stop")
    context["membw_gbs_after"] = membw_probe()
    context["samples"] = {"queries": len(out.queries), "ingest_s": out.ingest_seconds(),
                          "setup_s": out.setup_s,
                          "query_mean_ms": out.query_mean_s() * 1e3}
    context["failures"] = out.notes[:20]
    result = {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    with open(os.path.join(run_dir, "result.json.tmp"), "w") as f:
        json.dump({"result": result, "context": context}, f)
    os.replace(os.path.join(run_dir, "result.json.tmp"), os.path.join(run_dir, "result.json"))
    return 0


# ------------------------------------------------------------------ parent


def _kill_group(pgid: int, wait_s: float = 20.0) -> None:
    """SIGKILL the child's process group (Ray's raylet, GCS and workers
    inherit it) and wait until no member is left."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + wait_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.1)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    if not os.path.isdir(os.path.join(ROOT, "miru_ray")):
        print(f"perfbench: no miru_ray package under {ROOT}; run from a checkout",
              file=sys.stderr)
        return 2
    run_dir = os.path.join(WORK_ROOT, f"run-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    env = dict(os.environ)
    env["PYTHONPATH"] = ROOT + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["MIRU_RAY_SPILL_BASE"] = os.path.join(run_dir, "spill")  # not /dev/shm
    env.pop("MIRU_RAY_TIMING", None)
    env["RAY_DEDUP_LOGS"] = "0"
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--scale", args.scale, "--child", run_dir]
    log_path = os.path.join(run_dir, "child.log")
    hung = False
    # a terminated benchmark takes its workload down with it
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        with open(log_path, "wb") as log:
            proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log,
                                    stderr=subprocess.STDOUT, start_new_session=True)
            try:
                code = proc.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                hung, code = True, None
            finally:
                _kill_group(proc.pid)
                if proc.poll() is None:
                    proc.wait()
        res_path = os.path.join(run_dir, "result.json")
        if hung or code != 0 or not os.path.exists(res_path):
            with open(log_path, "rb") as f:
                tail = f.read()[-4000:].decode("utf-8", "replace")
            why = f"hung for {CHILD_TIMEOUT_S} s" if hung else f"exit code {code}"
            print(f"perfbench: {args.workload} run failed ({why}); log tail:\n{tail}",
                  file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
            return 1
        with open(res_path) as f:
            payload = json.load(f)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
    print(json.dumps({"context": payload["context"]}))
    print(json.dumps(payload["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
