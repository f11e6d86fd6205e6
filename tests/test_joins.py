"""joins.bucket_join — the shuffle-safe Dataset.join replacement: full
inner-join semantics (many-to-many expansion), composite string/int
keys, typed payloads, and the sparse-partition condition that crashed
Ray's join operator in round 4."""

import numpy as np
import pyarrow as pa
import pytest

from miru_ray.joins import bucket_join


def _rows(ds, cols):
    return sorted(tuple(r[c] for c in cols) for r in ds.take_all())


def test_inner_join_semantics(ray_session):
    import ray.data as rd

    left = rd.from_arrow(pa.table({
        "k": pa.array([1, 2, 3, 9], pa.int64()),
        "x": pa.array([10, 20, 30, 90], pa.int64()),
    })).repartition(8)
    right = rd.from_arrow(pa.table({
        "k": pa.array([1, 2, 4], pa.int64()),
        "v": pa.array([1.5, 2.5, 4.5], pa.float64()),
    })).repartition(8)
    out = bucket_join(left, right, on=("k",),
                      left_cols={"x": pa.int64()},
                      right_cols={"v": pa.float64()}, num_buckets=16)
    assert _rows(out, ("k", "x", "v")) == [(1, 10, 1.5), (2, 20, 2.5)]


def test_many_to_many_expansion(ray_session):
    """Every matching (left, right) pair is emitted — the triangle wedge
    enumeration contract a lookup join would break."""
    import ray.data as rd

    left = rd.from_arrow(pa.table({
        "k": pa.array([1, 1, 2], pa.int64()),
        "x": pa.array([10, 11, 20], pa.int64()),
    }))
    right = rd.from_arrow(pa.table({
        "k": pa.array([1, 1, 2, 2, 2], pa.int64()),
        "y": pa.array([100, 101, 200, 201, 202], pa.int64()),
    }))
    out = bucket_join(left, right, on=("k",),
                      left_cols={"x": pa.int64()},
                      right_cols={"y": pa.int64()}, num_buckets=4)
    got = _rows(out, ("k", "x", "y"))
    assert len(got) == 2 * 2 + 1 * 3
    assert (1, 10, 100) in got and (1, 11, 101) in got and (2, 20, 202) in got


def test_composite_string_int_keys_and_right_on(ray_session):
    import ray.data as rd

    left = rd.from_arrow(pa.table({
        "u": pa.array(["a", "a", "b", "z"]),
        "w": pa.array([1, 2, 1, 9], pa.int64()),
        "x": pa.array([100, 101, 102, 109], pa.int64()),
    })).repartition(6)
    right = rd.from_arrow(pa.table({
        "ku": pa.array(["a", "b", "c"]),
        "kw": pa.array([1, 1, 1], pa.int64()),
        "v": pa.array([1.5, 2.5, 3.5], pa.float64()),
    })).repartition(6)
    out = bucket_join(left, right, on=("u", "w"), right_on=("ku", "kw"),
                      key_types={"u": pa.string()},
                      left_cols={"x": pa.int64()},
                      right_cols={"v": pa.float64()}, num_buckets=16)
    assert _rows(out, ("u", "w", "x", "v")) == [
        ("a", 1, 100, 1.5), ("b", 1, 102, 2.5)
    ]


def test_sparse_partitions_no_crash(ray_session):
    """The r4 crash class: far more hash partitions than rows leaves most
    shuffle partitions EMPTY; bucket_join must stay correct (Dataset.join
    raised ArrowInvalid on key resolution here)."""
    import ray.data as rd

    left = rd.from_arrow(pa.table({
        "k": pa.array([5], pa.int64()), "x": pa.array([50], pa.int64()),
    })).repartition(32)
    right = rd.from_arrow(pa.table({
        "k": pa.array([5], pa.int64()), "v": pa.array([55], pa.int64()),
    })).repartition(32)
    out = bucket_join(left, right, on=("k",),
                      left_cols={"x": pa.int64()},
                      right_cols={"v": pa.int64()}, num_buckets=64)
    assert _rows(out, ("k", "x", "v")) == [(5, 50, 55)]


def test_empty_sides(ray_session):
    import ray.data as rd

    empty = rd.from_arrow(pa.table({
        "k": pa.array([], pa.int64()), "x": pa.array([], pa.int64()),
    }))
    right = rd.from_arrow(pa.table({
        "k": pa.array([1], pa.int64()), "v": pa.array([2], pa.int64()),
    }))
    out = bucket_join(empty, right, on=("k",),
                      left_cols={"x": pa.int64()},
                      right_cols={"v": pa.int64()})
    assert out.count() == 0


def _with_nulls(rng, values, frac=0.15):
    """``values`` with about ``frac`` of the entries replaced by null."""
    mask = rng.random(len(values)) < frac
    return [None if m else v for v, m in zip(values.tolist(), mask)]


def test_matches_duckdb_reference(ray_session):
    """Randomized differential test against DuckDB's JOIN on the same
    tables (multiset equality of the full result), including null int keys
    and null string keys — which never match, as in SQL."""
    import duckdb
    import ray.data as rd

    rng = np.random.default_rng(7)
    lt = pa.table({
        "k": pa.array(_with_nulls(rng, rng.integers(0, 20, 300)), pa.int64()),
        "s": pa.array(_with_nulls(rng, rng.integers(0, 3, 300).astype(str))),
        "x": pa.array(rng.integers(0, 1000, 300), pa.int64()),
    })
    rt = pa.table({
        "k": pa.array(_with_nulls(rng, rng.integers(0, 20, 100)), pa.int64()),
        "s": pa.array(_with_nulls(rng, rng.integers(0, 3, 100).astype(str))),
        "v": pa.array(rng.random(100).round(6), pa.float64()),
    })
    con = duckdb.connect()
    con.register("lt", lt)
    con.register("rt", rt)
    for on, where in (
        (("k", "s"), "lt.k = rt.k AND lt.s = rt.s"),
        (("k",), "lt.k = rt.k"),
        (("s",), "lt.s = rt.s"),
    ):
        out = bucket_join(
            rd.from_arrow(lt).repartition(8), rd.from_arrow(rt).repartition(8),
            on=on, key_types={"s": pa.string()}, left_cols={"x": pa.int64()},
            right_cols={"v": pa.float64()}, num_buckets=16,
        )
        got = sorted(tuple(r[c] for c in on) + (r["x"], r["v"]) for r in out.take_all())
        keys = ", ".join(f"lt.{c}" for c in on)
        want = sorted(map(tuple, con.execute(
            f"SELECT {keys}, lt.x, rt.v FROM lt JOIN rt ON {where}"
        ).fetchall()))
        assert got == want, on


def test_missing_column_raises(ray_session, monkeypatch):
    """A non-empty batch without a named key or payload column is a caller
    error, never an empty join."""
    import ray.data as rd
    from ray.data import DataContext

    monkeypatch.setattr(DataContext.get_current(), "raise_original_map_exception", True)
    left = rd.from_arrow(pa.table({
        "k": pa.array([1, 2], pa.int64()), "x": pa.array([10, 20], pa.int64()),
    }))
    right = rd.from_arrow(pa.table({
        "k": pa.array([1, 2], pa.int64()), "v": pa.array([1, 2], pa.int64()),
    }))
    with pytest.raises(KeyError, match="'xx'"):
        bucket_join(left, right, on=("k",), left_cols={"xx": pa.int64()},
                    right_cols={"v": pa.int64()}).take_all()
    with pytest.raises(KeyError, match="'kk'"):
        bucket_join(left, right, on=("k",), right_on=("kk",),
                    left_cols={"x": pa.int64()},
                    right_cols={"v": pa.int64()}).take_all()
