"""An extend that crashed inside a partition's segment write is refused on
resume, naming the partition.

``finalize_segment`` replaces ``postings.parquet``, then ``forward.parquet``,
then the manifest. A crash between them leaves a partition whose files hold
the epoch's new docIds under the old manifest; the emulation copies those
files from a clean extend of the same index into a pre-extend copy. Merging
an epoch onto such a partition used to re-encode the overlapping runs
silently (duplicated positional occurrences, wrong postings) or fail with an
unrelated message; ``extend_index`` now raises before it writes the
partition."""

import glob
import json
import os
import shutil

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from miru_ray.build import build_index, extend_index
from miru_ray.segments import part_dir

N_PARTS = 4
CRASHED = 0


@pytest.fixture(scope="module")
def resume_setup(ray_session, tiny_transcripts_dir, tmp_path_factory):
    """The tiny corpus split by conv_id into a base and two sorted batches;
    the base built with positions, and a clean extend of it with batch A."""
    t = pa.concat_tables(
        [pq.read_table(f) for f in sorted(glob.glob(tiny_transcripts_dir + "/*.parquet"))]
    )
    convs = sorted(set(t["conv_id"].to_pylist()))
    cut_a, cut_b = convs[len(convs) // 2], convs[3 * len(convs) // 4]
    srcs = {}
    for name, lo, hi in [("base", None, cut_a), ("a", cut_a, cut_b), ("b", cut_b, None)]:
        keep = pc.less(t["conv_id"], hi) if hi is not None else None
        if lo is not None:
            ge = pc.greater_equal(t["conv_id"], lo)
            keep = ge if keep is None else pc.and_(keep, ge)
        srcs[name] = str(tmp_path_factory.mktemp(f"resume_src_{name}"))
        pq.write_table(t.filter(keep), os.path.join(srcs[name], "shard.parquet"))
    pre = str(tmp_path_factory.mktemp("resume_pre"))
    build_index(srcs["base"], pre, n_parts=N_PARTS, positions=True)
    clean = str(tmp_path_factory.mktemp("resume_clean")) + "/idx"
    shutil.copytree(pre, clean)
    extend_index(srcs["a"], clean)
    return srcs, pre, clean


def _crashed_copy(pre, clean, dst, files):
    """A pre-extend copy whose CRASHED partition holds ``files`` from the
    clean extend under its old manifest."""
    shutil.copytree(pre, dst)
    for f in files:
        shutil.copyfile(os.path.join(part_dir(clean, CRASHED), f),
                        os.path.join(part_dir(dst, CRASHED), f))


def _manifests(d):
    out = {}
    for p in sorted(glob.glob(os.path.join(d, "part=*", "_MANIFEST.json"))) + [
            os.path.join(d, "index.json")]:
        with open(p) as fh:
            out[os.path.relpath(p, d)] = json.load(fh)
    return out


@pytest.mark.parametrize("batch, files", [
    ("a", ["postings.parquet"]),
    ("b", ["postings.parquet"]),
    ("a", ["postings.parquet", "forward.parquet"]),
], ids=["same-batch", "other-batch", "postings-and-forward"])
def test_extend_refuses_crashed_partition(resume_setup, tmp_path, batch, files):
    srcs, pre, clean = resume_setup
    d = str(tmp_path / "idx")
    _crashed_copy(pre, clean, d, files)
    before = _manifests(d)
    with pytest.raises(Exception, match=f"part={CRASHED:05d} does not match its committed"):
        extend_index(srcs[batch], d)
    after = _manifests(d)
    # nothing committed: the crashed partition's manifest and index.json stand
    name = f"part={CRASHED:05d}/_MANIFEST.json"
    assert after[name] == before[name]
    assert after["index.json"] == before["index.json"]
