"""Hypothesis property tests for the round-3 pure per-group/per-array
kernels (no Ray session needed): sessionization group function, simhash
banding, n-gram bucket pairs."""

import numpy as np
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from miru_ray.analytics import _sessionize_group
from miru_ray.dedup import _gram_bucket_pairs, _simhash_band_map


@st.composite
def event_groups(draw):
    n = draw(st.integers(1, 60))
    ts = sorted(draw(st.lists(st.integers(0, 10**7), min_size=n, max_size=n)))
    return pa.table(
        {
            "user_id": pa.array([7] * n, pa.int64()),
            "event_id": pa.array(list(range(100, 100 + n)), pa.int64()),
            "ts": pa.array(ts, pa.timestamp("us")),
            "value": pa.array([float(i % 5) for i in range(n)], pa.float64()),
        }
    )


@given(event_groups(), st.integers(1, 10**6))
@settings(max_examples=60, deadline=None)
def test_sessionize_group_invariants(group, gap):
    out = _sessionize_group(group, gap)
    n_events = out["n_events"].to_pylist()
    starts = out["start_us"].to_pylist()
    ends = out["end_us"].to_pylist()
    # partition: sessions cover every event exactly once
    assert sum(n_events) == group.num_rows
    # sessions are ordered, non-overlapping, and split by gaps > gap
    for i in range(len(starts)):
        assert starts[i] <= ends[i]
        if i:
            assert starts[i] - ends[i - 1] > gap
    # a session's span is consistent with its event count and the gap bound
    for ne, s, e in zip(n_events, starts, ends):
        assert e - s <= (ne - 1) * gap


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_simhash_band_map_roundtrip(hashes):
    sh = np.array(hashes, dtype=np.uint64)
    batch = pa.table(
        {"doc_id": pa.array(range(len(sh)), pa.int64()), "simhash": pa.array(sh.view(np.int64))}
    )
    out = _simhash_band_map(batch, blocks=4, width=16)
    assert out.num_rows == 4 * len(sh)
    band = out["band"].to_numpy(zero_copy_only=False)
    key = out["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
    doc = out["doc_id"].to_numpy(zero_copy_only=False)
    # reassembling the four 16-bit block keys reproduces the hash
    rebuilt = np.zeros(len(sh), dtype=np.uint64)
    for b in range(4):
        sel = band == b
        rebuilt[doc[sel]] |= key[sel] << np.uint64(16 * b)
    assert (rebuilt == sh).all()


@given(st.lists(st.integers(0, 30), min_size=0, max_size=50), st.integers(1, 10))
@settings(max_examples=60, deadline=None)
def test_gram_bucket_pairs_cap_and_order(ids, cap):
    g = pa.table({"doc_id": pa.array(ids, pa.int64())})
    out = _gram_bucket_pairs(g, cap)
    a = out["a"].to_pylist()
    b = out["b"].to_pylist()
    if len(ids) < 2 or len(ids) > cap:  # dropped whole (the hot-gram cap)
        expect = 0
    else:
        expect = len(ids) * (len(ids) - 1) // 2
    assert len(a) == expect
    for x, y in zip(a, b):
        assert x <= y


@given(st.integers(2, 7))
@settings(max_examples=12, deadline=None)
def test_split_bounds_cover_grid_when_total_one(n_labels):
    """Equal fractions summing to 1 must label EVERY bucket (the last label
    absorbs the rounding remainder — review finding: thirds left the top
    bucket unlabeled)."""
    from miru_ray.textstats import _SPLIT_GRID, split_bounds

    bounds = split_bounds({f"l{i}": 1.0 / n_labels for i in range(n_labels)})
    assert bounds[0][1] == 0 and bounds[-1][2] == _SPLIT_GRID
    for (_, _, hi), (_, lo2, _) in zip(bounds, bounds[1:]):
        assert hi == lo2


_BPE_ALPHA = "abc01"


@given(
    st.text(_BPE_ALPHA, min_size=0, max_size=16),
    st.lists(
        st.tuples(
            st.text(_BPE_ALPHA, min_size=1, max_size=3),
            st.text(_BPE_ALPHA, min_size=1, max_size=3),
        ),
        max_size=6,
    ),
)
@settings(max_examples=300, deadline=None)
def test_bpe_replace_count_equals_segment(word, merges):
    """The double-space-delimited replace chain (the SQL oracle's semantics,
    textstats.bpe_replace_count) must equal the greedy token-level merge
    pass (bpe_segment) for ANY word and ANY merge list — including merges
    whose pieces never arise from real training, overlapping self-merges
    (l == r), and pieces that are prefixes/suffixes of one another (the
    boundary cases the delimiter scheme exists to make unambiguous)."""
    from miru_ray.textstats import bpe_replace_count, bpe_segment

    assert bpe_replace_count(word, merges) == len(bpe_segment(word, merges)), (
        word,
        merges,
    )
