"""Build and extend run as Ray Data tasks, so their result depends neither
on the task cap nor on the cluster's size.

The tiny corpus is cut by conv_id into 40 sorted files: a 24-file base and
two extend batches of 12 and 4 files. The reference index is built and
extended in the test session (4 CPUs, the default cap). Every other run of
the same files must write the same bytes:

* ``concurrency=1`` changes the task grouping: 24 files make 6 tasks of 4
  instead of 8 tasks of 3, and the 12-file batch makes tasks of 2 instead
  of 1, so the partitions merge a different number of spill packs;
* a separate Ray of 1 and of 2 CPUs (a subprocess, since the session holds
  its own Ray) must finish under a hard timeout, and hand every logical CPU
  back within 2 s of each call, with no garbage collection."""

import json
import os
import signal
import subprocess
import sys

import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from miru_ray.build import build_index, extend_index

N_PARTS = 4
N_FILES = 40
BATCHES = {"base": range(0, 24), "a": range(24, 36), "b": range(36, 40)}
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SMALL_RAY_TIMEOUT_S = 300
CPU_FREE_S = 2.0


@pytest.fixture(scope="module")
def batches(tiny_transcripts_dir, tmp_path_factory):
    """{batch name: sorted list of file paths}."""
    import glob

    t = pq.read_table(sorted(glob.glob(tiny_transcripts_dir + "/*.parquet"))[0])
    convs = sorted(set(t["conv_id"].to_pylist()))
    step = len(convs) // N_FILES
    src = tmp_path_factory.mktemp("ingest_src")
    files = []
    for i in range(N_FILES):
        hi = convs[(i + 1) * step] if i + 1 < N_FILES else None
        keep = pc.greater_equal(t["conv_id"], convs[i * step])
        if hi is not None:
            keep = pc.and_(keep, pc.less(t["conv_id"], hi))
        path = str(src / f"f-{i:03d}.parquet")
        pq.write_table(t.filter(keep), path)
        files.append(path)
    return {name: [files[i] for i in idx] for name, idx in BATCHES.items()}


def _ingest(batches, index_dir, partitioning="hash", **kw):
    build_index(batches["base"], index_dir, n_parts=N_PARTS, positions=True,
                partitioning=partitioning, **kw)
    extend_index(batches["a"], index_dir, **kw)
    extend_index(batches["b"], index_dir, **kw)


def _files(index_dir):
    """{relative path: bytes} of every index file."""
    out = {}
    for root, _, names in os.walk(index_dir):
        for n in names:
            p = os.path.join(root, n)
            with open(p, "rb") as fh:
                out[os.path.relpath(p, index_dir)] = fh.read()
    return out


@pytest.fixture(scope="module")
def reference(ray_session, batches, tmp_path_factory):
    refs = {}
    for mode in ("hash", "range"):
        d = str(tmp_path_factory.mktemp(f"ingest_ref_{mode}"))
        _ingest(batches, d, mode)
        refs[mode] = d
    return refs


@pytest.mark.parametrize("partitioning", ["hash", "range"])
def test_task_cap_leaves_index_bytes_alone(reference, batches, tmp_path, partitioning):
    d = str(tmp_path / "idx")
    _ingest(batches, d, partitioning, concurrency=1)
    got, want = _files(d), _files(reference[partitioning])
    assert sorted(got) == sorted(want)
    assert any(n.endswith("postings.parquet") for n in want)
    assert any(n.endswith("forward.parquet") for n in want)
    assert [n for n in want if got[n] != want[n]] == []


_SMALL_RAY = """
import json, sys, time
import ray
from ray.data import DataContext
from miru_ray.build import build_index, extend_index

n_cpus, index_dir, batches = int(sys.argv[1]), sys.argv[2], json.loads(sys.argv[3])
ray.init(address="local", num_cpus=n_cpus, include_dashboard=False,
         logging_level="ERROR", log_to_driver=False,
         object_store_memory=128 * 1024 * 1024)
DataContext.get_current().enable_progress_bars = False

def free_wait():
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < %(limit)r:
        if ray.available_resources().get("CPU", 0) >= n_cpus:
            return time.perf_counter() - t0
        time.sleep(0.02)
    return None

waits = []
build_index(batches["base"], index_dir, n_parts=%(n_parts)d, positions=True)
waits.append(free_wait())
for name in ("a", "b"):
    extend_index(batches[name], index_dir)
    waits.append(free_wait())
ray.shutdown()
print(json.dumps({"waits": waits}))
""" % {"limit": CPU_FREE_S, "n_parts": N_PARTS}


@pytest.mark.parametrize("n_cpus", [1, 2])
def test_small_ray_finishes_and_frees_its_cpus(reference, batches, tmp_path, n_cpus):
    d = str(tmp_path / "idx")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [REPO] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.Popen(
        [sys.executable, "-c", _SMALL_RAY, str(n_cpus), d, json.dumps(batches)],
        cwd=str(tmp_path), env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=SMALL_RAY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"build + 2 extends at {n_cpus} Ray CPU(s) did not finish "
                    f"in {SMALL_RAY_TIMEOUT_S} s")
    assert proc.returncode == 0, err[-4000:]
    waits = json.loads(out.strip().splitlines()[-1])["waits"]
    # one wait per call: the build, then each extend
    assert None not in waits, f"a CPU stayed held for more than {CPU_FREE_S} s: {waits}"
    got, want = _files(d), _files(reference["hash"])
    assert sorted(got) == sorted(want)
    assert [n for n in want if got[n] != want[n]] == []
