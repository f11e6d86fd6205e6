import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def tiny_transcripts_dir():
    from miru_ray.fixtures import ensure_transcripts

    return ensure_transcripts("tiny")


@pytest.fixture(scope="session")
def tiny_rows(tiny_transcripts_dir):
    """The tiny corpus as python row dicts (oracle input), ts in microseconds."""
    import glob

    import pyarrow.parquet as pq

    rows = []
    for f in sorted(glob.glob(tiny_transcripts_dir + "/*.parquet")):
        t = pq.read_table(f)
        d = t.to_pydict()
        for i in range(t.num_rows):
            rows.append(
                {
                    "conv_id": d["conv_id"][i],
                    "turn_idx": d["turn_idx"][i],
                    "role": d["role"][i],
                    "text": d["text"][i],
                    "tool": d["tool"][i],
                    "ts": int(d["ts"][i].timestamp() * 1_000_000),
                }
            )
    return rows


@pytest.fixture(scope="session")
def tiny_oracle(tiny_rows):
    from miru_ray.oracle import build_oracle_partitions

    return build_oracle_partitions(tiny_rows, n_parts=4)


@pytest.fixture()
def drop_resident():
    """Call to drop every resident partition and its cached entries, as a
    fresh process would start (segments.partition reloads on next use)."""
    import miru_ray.segments as SG

    def drop():
        SG._PARTITIONS.clear()
        for lru in SG._LRUS.values():
            lru.clear()

    return drop


@pytest.fixture(scope="session")
def inprocess_build():
    """The streaming build's phases run in this process (no Ray Data job):
    phase-1 scans, one FileIndexer call spilling into ``spill_dir``, then
    finalize_spilled_partition per partition. Module globals patched by a
    test (CHUNK_DOCS) and hooks registered here (lifecycle callbacks) are
    the ones these calls see. Needs ``ray_session`` for the bases ray.put."""

    def run(files, index_dir, spill_dir, n_parts, parts=None):
        import pyarrow as pa
        import ray

        import miru_ray.build as B

        metas = [B.scan_file_meta(f, n_parts) for f in files]
        bases, n_docs_by_part = B.sparse_bases(metas)
        fi = B.FileIndexer(index_dir, n_parts, frozenset(), spill_dir=spill_dir,
                           bases_ref=ray.put(bases))
        fi(pa.table({"path": files, "fidx": list(range(len(files)))}))
        for p in sorted(n_docs_by_part) if parts is None else parts:
            B.finalize_spilled_partition(index_dir, spill_dir, p, n_docs_by_part[p], {})

    return run
