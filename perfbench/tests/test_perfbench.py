"""The benchmark's own tests, at ``--scale tiny``.

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, ROOT)

from perfbench import replay, workloads as wl  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOADS = ("query", "extend")


def _run(workload: str, trace: int, cwd: str = ROOT, script=None) -> tuple[int, list[str]]:
    script = script or os.path.join(ROOT, "perfbench", "run.py")
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def _result(lines: list[str]) -> dict:
    res = json.loads(lines[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    return res


def test_metric_names_and_units():
    names = [n for n, _ in wl.E2E + wl.PER_LAYER]
    assert len(names) == len(set(names))
    for name, unit in wl.E2E + wl.PER_LAYER:
        assert NAME_RE.match(name), name
        assert UNIT_RE.match(unit), unit


def test_benchmark_json_matches_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == wl.E2E
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == wl.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.fixture(scope="module")
def tiny_oracle(tmp_path_factory):
    corpus = wl.Corpus(wl.SCALES["tiny"])
    files = corpus.write(range(wl.SCALES["tiny"].shards), str(tmp_path_factory.mktemp("corpus")))
    return wl.Oracle(files)


def test_answer_check_catches_planted_wrong_answers(tiny_oracle):
    q = wl.Query("and2", "t1 t7", "bm25")
    good = tiny_oracle.answer(q)
    assert len(good.keys) == wl.K and good.found > wl.K
    plants = {
        "swapped ranks": wl.Answer(good.keys[1::-1] + good.keys[2:], good.scores, good.found),
        "wrong doc": wl.Answer(good.keys[:-1] + [(good.keys[-1][0], good.keys[-1][1] + 1)],
                               good.scores, good.found),
        "dropped hit": wl.Answer(good.keys[:-1], good.scores[:-1], good.found),
        "score off": wl.Answer(good.keys, [good.scores[0] * 1.001] + good.scores[1:], good.found),
        "found off": wl.Answer(good.keys, good.scores, good.found + 1),
    }
    out = wl.Outcome()
    runs = [wl.QueryRun(q, 0.001, good)] + [wl.QueryRun(q, 0.001, a) for a in plants.values()]
    wl.check_against(out, runs, tiny_oracle.answer, "planted")
    assert (out.attempted, out.failed) == (1 + len(plants), len(plants))


def test_time_walk_found_may_shrink_only_when_it_stopped_early(tiny_oracle):
    q = wl.Query("time", "t1 t7", "time")
    full = tiny_oracle.answer(q)
    early = wl.Answer(full.keys, full.scores, full.found - 5, parts_asked=wl.N_PARTS - 2)
    assert wl.same_answer(early, full)
    assert not wl.same_answer(wl.Answer(full.keys, full.scores, full.found - 5), full)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_end_to_end(workload):
    code, lines = _run(workload, trace=0)
    assert code == 0, lines
    res = _result(lines)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert {k: v["unit"] for k, v in res["metrics"].items()} == dict(wl.E2E)
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_layers_add_up(workload):
    code, lines = _run(workload, trace=1)
    assert code == 0, lines
    res = _result(lines)
    ctx = json.loads(lines[-2])["context"]
    assert res["correct"] and res["failed"] == 0
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == dict(wl.PER_LAYER)
    # layer self times cover the traced replay's wall time
    assert abs(1.0 - m["trace.coverage"]) <= replay.COVERAGE_TOLERANCE
    assert sum(ctx["trace"]["busy"].values()) == pytest.approx(
        m["trace.coverage"] * ctx["trace"]["wall"])
    # and the named remainders complete the Ray run's wall time
    ingest = sum(m[layer] for layer in replay.INGEST_LAYERS)
    mean_ray = sum(ctx["samples"]["ingest_s"]) / len(ctx["samples"]["ingest_s"])
    assert ingest + m["build.ray_overhead_s"] == pytest.approx(mean_ray)
    # dispatch is timed on the warm pool; extend's replayed queries are cold
    if workload == "query":
        per_query_ms = (m["search.partition_us"] * m["search.partitions_asked"]
                        + m["search.merge_us"]) / 1e3 + m["search.dispatch_ms"]
        assert per_query_ms == pytest.approx(ctx["trace"]["ray_query_mean_ms"],
                                             rel=replay.COVERAGE_TOLERANCE)


def test_refused_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = _run("query", trace=0, cwd=str(tmp_path),
                       script=str(tmp_path / "perfbench" / "run.py"))
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
