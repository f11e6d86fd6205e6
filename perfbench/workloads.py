"""The benchmark workloads and everything they share: the corpus, the seeded
queries, the Ray session, and the answer checks.

Runs inside the child process that ``run.py`` supervises; Ray's and Ray
Data's output goes to that child's log file, never to the result stream.
"""

from __future__ import annotations

import os
import random
import shutil
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

# ------------------------------------------------------------------ settings

# logical CPUs for every workload: with 1, extend_index never finishes
# (README, known defects)
RAY_CPUS = 3
N_PARTS = 8
K = 10
UNIVERSE_CONVS = 100_000  # the fixtures "bench" corpus (its ts ranks span it)
# set-ups per run; setup_s and query's ingest_turns_per_s are their
# medians. The first index build of a session runs up to 1.7x slower than
# the next ones, and the median sheds it
SETUP_REPS = {"query": 5, "extend": 3}
# timed extend epochs per run: MIN_EPOCHS plus one per EPOCH_S of
# --seconds, at most MAX_EPOCHS; the count is fixed, not timed, so every
# run's last epochs query an index of the same size
EPOCH_S = 5.0
MIN_EPOCHS = 4
MAX_EPOCHS = 8
PER_FAMILY = 4  # seeded queries per family in the pool
EXTEND_PER_FAMILY = 1  # extend: queries per family after each epoch (cold)
SCORE_RTOL = 2e-5  # engine fp32 scores vs the oracle's (tests/test_build_search.py)
OBJECT_STORE_BYTES = 512 * 1024 * 1024
QUIESCE_LIMIT_S = 20.0
# Ray's unix socket paths live under its temp dir and must stay < 108 bytes
RAY_TEMP_MAX_LEN = 40


@dataclass(frozen=True)
class Scale:
    shard_convs: int  # conversations per parquet shard (~21 turns each)
    shards: int  # shards of the query corpus
    base_shards: int  # extend: shards built during set-up
    epoch_shards: int  # extend: shards applied per epoch


SCALES = {
    # ~17k turns, ~1.7M tokens in 4 shards: sized so the benchmark's runs
    # fit its time budget (every Ray Data job carries
    # ~3 s of fixed cost on the shared VM it was tuned on)
    "small": Scale(shard_convs=200, shards=4, base_shards=2, epoch_shards=1),
    "tiny": Scale(shard_convs=25, shards=4, base_shards=2, epoch_shards=1),
}

FAMILIES = ("and2", "and3", "or2", "not", "prefix", "field", "time")
# body terms w<rank> are Zipf-distributed: draw from a band of ranks whose
# document frequencies differ by less than 2x, and prefixes w004*..w006*,
# whose 100-term expansions differ in total postings by less than 1.5x
BODY_BAND = (100, 200)
PREFIX_DIGITS = (4, 5, 6)

# end-to-end metrics: (name, unit); every workload reports all of them
E2E = [
    ("setup_s", "s"),
    ("ingest_turns_per_s", "1/s"),
    ("index_bytes_per_input_byte", "ratio"),
    ("query_p50_ms", "ms"),
]

# per-layer metrics: (name, unit); every traced run reports all of them,
# 0 for a layer the workload leaves idle
PER_LAYER = [
    ("build.scan_s", "s"),
    ("analyzers.tokenize_s", "s"),
    ("analyzers.tokens", "count"),
    ("build.runs_encode_s", "s"),
    ("build.spill_bytes", "bytes"),
    ("build.packs", "count"),
    ("codec.merge_s", "s"),
    ("codec.merge_input_runs", "count"),
    ("build.finalize_s", "s"),
    ("segments.write_s", "s"),
    ("segments.bytes_written", "bytes"),
    ("build.ray_overhead_s", "s"),
    ("filters.parse_us", "us"),
    ("search.expand_us", "us"),
    ("search.expanded_terms", "count"),
    ("search.posting_source_us", "us"),
    ("segments.posting_read_us", "us"),
    ("segments.posting_keys_read", "count"),
    ("codec.decode_us", "us"),
    ("codec.postings_decoded", "count"),
    ("search.posting_cache_hit_ratio", "ratio"),
    ("search.eval_us", "us"),
    ("wand.topk_us", "us"),
    ("wand.calls", "count"),
    ("wand.pruned_fraction", "ratio"),
    ("segments.forward_us", "us"),
    ("search.score_us", "us"),
    ("search.partition_us", "us"),
    ("search.merge_us", "us"),
    ("search.dispatch_ms", "ms"),
    ("query.ray_p50_ms", "ms"),
    ("search.partitions_asked", "count"),
] + [(f"query.{f}_p50_ms", "ms") for f in FAMILIES] + [
    ("query.p95_ms", "ms"),
    ("query.qps", "1/s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
]


# ------------------------------------------------------------------ corpus


class Corpus:
    """The first conversations of the fixtures transcripts universe, written
    as globally sorted parquet shards on demand; ``make_transcripts`` is
    slice-invariant, so shard i holds the same rows however it is cut.

    The window is the same for every seed. Warm query latency differed by
    up to 1.6x between windows of equal size, for every query family alike
    (README, open findings), which a seeded window turned into run-to-run
    spread."""

    def __init__(self, scale: Scale):
        self.scale = scale

    def shard(self, i: int, out_dir: str) -> str:
        import pyarrow.parquet as pq

        from miru_ray.fixtures import make_transcripts

        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"shard-{i:05d}.parquet")
        if not os.path.exists(path):
            lo = i * self.scale.shard_convs
            t = make_transcripts(UNIVERSE_CONVS, lo, lo + self.scale.shard_convs)
            pq.write_table(t, path + ".tmp")
            os.replace(path + ".tmp", path)
        return path

    def write(self, indices, out_dir: str) -> list[str]:
        return [self.shard(i, out_dir) for i in indices]


def input_stats(files: list[str]) -> tuple[int, int]:
    """(turns, text bytes) of the given shards."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    turns = text = 0
    for f in files:
        t = pq.read_table(f, columns=["text"])
        turns += t.num_rows
        text += int(pc.sum(pc.binary_length(t["text"])).as_py() or 0)
    return turns, text


def dir_bytes(path: str) -> int:
    total = 0
    for d, _, names in os.walk(path):
        for n in names:
            total += os.path.getsize(os.path.join(d, n))
    return total


# ------------------------------------------------------------------ queries


@dataclass(frozen=True)
class Query:
    family: str
    text: str
    scoring: str


def _core(rng: random.Random, n: int) -> list[str]:
    from miru_ray.fixtures import CORE_TERMS

    return rng.sample(CORE_TERMS, n)


def _body(rng: random.Random) -> str:
    return f"w{rng.randrange(*BODY_BAND):05d}"


def _family_text(rng: random.Random, family: str) -> str:
    if family == "and2":
        a, b = _core(rng, 2)
        return f"{a} {b}"
    if family == "and3":
        a, b = _core(rng, 2)
        return f"{a} AND {b} AND {_body(rng)}"
    if family == "or2":
        return f"{_body(rng)} OR {_body(rng)}"
    if family == "not":
        a, b = _core(rng, 2)
        return f"{a} AND NOT {b}"
    if family == "prefix":
        return f"w00{rng.choice(PREFIX_DIGITS)}*"
    if family == "field":
        role = rng.choice(["user", "assistant", "tool"])
        return f"role:{role} {_core(rng, 1)[0]}"
    raise ValueError(family)


def make_queries(seed: int) -> list[Query]:
    """``PER_FAMILY`` seeded queries per family: BM25 top-10 for the six
    reference families and a TIME-scored two-term AND. The seed draws terms,
    not shapes, and draws them from bands of similar document frequency, so
    the pool's cost barely depends on the seed. Duplicates are kept: the
    pool's family mix is the same for every seed."""
    rng = random.Random(seed * 7919 + 17)
    out = []
    for _ in range(PER_FAMILY):
        for fam in FAMILIES:
            if fam == "time":
                out.append(Query(fam, _family_text(rng, "and2"), "time"))
            else:
                out.append(Query(fam, _family_text(rng, fam), "bm25"))
    return out


@dataclass
class Answer:
    keys: list[tuple[int, int]]  # (part, doc_id) in answer order
    scores: list[float]
    found: int
    parts_asked: int = -1  # -1: every partition (oracle)


def answer_of(hits, found: int, parts_asked: int = -1) -> Answer:
    return Answer([(int(h.part), int(h.doc_id)) for h in hits],
                  [float(h.score) for h in hits], int(found), parts_asked)


def same_answer(got: Answer, exp: Answer, n_parts: int = N_PARTS) -> bool:
    """Rank identity: same (part, doc_id) sequence, fp32 scores within
    SCORE_RTOL, same ``found``. A TIME walk that stopped early reports
    ``found`` over the partitions it asked only, so then found may be lower."""
    if got.keys != exp.keys:
        return False
    if len(got.scores) and not np.allclose(got.scores, exp.scores, rtol=SCORE_RTOL, atol=1e-7):
        return False
    asked = [n_parts if a.parts_asked < 0 else a.parts_asked for a in (got, exp)]
    if asked[0] == asked[1]:
        return got.found == exp.found
    fewer, more = (got, exp) if asked[0] < asked[1] else (exp, got)
    return fewer.found <= more.found


class Oracle:
    """The brute-force ``miru_ray.oracle`` over the given shards, built once
    outside the timed region; answers are memoised per query."""

    def __init__(self, files: list[str]):
        import pyarrow as pa
        import pyarrow.parquet as pq

        from miru_ray.oracle import build_oracle_partitions

        rows = []
        for f in files:
            t = pq.read_table(f)
            t = t.set_column(t.schema.get_field_index("ts"), "ts", t["ts"].cast(pa.int64()))
            rows.extend(t.to_pylist())
        self.parts = build_oracle_partitions(rows, N_PARTS)
        self._memo: dict[Query, Answer] = {}

    def answer(self, q: Query) -> Answer:
        from miru_ray.oracle import oracle_search

        if q not in self._memo:
            hits, found = oracle_search(self.parts, q.text, K, q.scoring)
            self._memo[q] = answer_of(hits, found)
        return self._memo[q]


# ------------------------------------------------------------------ ray


def ray_start(workdir: str) -> None:
    """Local Ray with a fixed logical CPU count, its temp dir inside the run
    directory when the socket paths fit, progress bars off, and the default
    worker pool warmed (imports paid once, outside every measurement)."""
    import logging

    import ray

    temp = os.path.join(workdir, "ray")
    kwargs = {"_temp_dir": temp} if len(temp) <= RAY_TEMP_MAX_LEN else {}
    ray.init(address="local", num_cpus=RAY_CPUS, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=OBJECT_STORE_BYTES, **kwargs)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)

    @ray.remote(num_cpus=1)
    def _warm(delay: float) -> int:
        import miru_ray.build  # noqa: F401
        import miru_ray.search  # noqa: F401

        time.sleep(delay)  # hold the CPU so the next task lands on another worker
        return os.getpid()

    ray.get([_warm.remote(0.2) for _ in range(RAY_CPUS)])


def ray_quiesce(limit_s: float = QUIESCE_LIMIT_S) -> float:
    """Collect garbage and wait until every logical CPU is free again. A
    finished Ray Data job keeps its actor pool (and the CPUs it holds) until
    the calling process's cyclic garbage collector frees the executor; a job
    planned while they are held can stall (README, known defects). Returns
    the wait."""
    import gc

    import ray

    t0 = time.perf_counter()
    gc.collect()
    while time.perf_counter() - t0 < limit_s:
        if ray.available_resources().get("CPU", 0) >= RAY_CPUS:
            break
        time.sleep(0.05)
    return time.perf_counter() - t0


def ray_stop() -> None:
    """Shut the session down and remove its session dir when Ray had to put
    it outside the run directory."""
    import ray

    if not ray.is_initialized():
        return
    session = None
    try:
        session = ray._private.worker._global_node.get_session_dir_path()
    except AttributeError:
        pass
    ray.shutdown()
    if session and not session.startswith(os.getcwd()):
        shutil.rmtree(session, ignore_errors=True)


# ------------------------------------------------------------------ measurement


def median(xs) -> float:
    return float(statistics.median(xs))


def p95(xs) -> float:
    xs = sorted(xs)
    if len(xs) == 1:
        return float(xs[0])
    return float(statistics.quantiles(xs, n=20, method="inclusive")[18])


@dataclass
class QueryRun:
    query: Query
    seconds: float
    answer: Answer


@dataclass
class Outcome:
    """What a workload measured and checked."""

    setup_s: list[float] = field(default_factory=list)
    ingest: list[tuple[int, float]] = field(default_factory=list)  # (turns, seconds)
    index_bytes: int = 0
    input_text_bytes: int = 0
    queries: list[QueryRun] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)

    def ingest_seconds(self) -> list[float]:
        return [s for _, s in self.ingest]

    def query_mean_s(self) -> float:
        return float(np.mean([r.seconds for r in self.queries]))

    def e2e(self) -> dict:
        # BM25 queries only: a TIME query walks the partitions newest-first
        # and stops once the zone maps allow, after 1 to 8 partitions
        # depending on which partition holds the window's newest
        # conversation, so its cost depends on the seed. query.time_p50_ms
        # and search.partitions_asked report it.
        lat = [r.seconds for r in self.queries if r.query.scoring != "time"]
        turns = [t / s for t, s in self.ingest]
        return {
            "setup_s": median(self.setup_s),
            "ingest_turns_per_s": median(turns),
            "index_bytes_per_input_byte": self.index_bytes / self.input_text_bytes,
            "query_p50_ms": median(lat) * 1e3,
        }


def run_queries(engine, queries: list[Query], parallel: bool = False) -> list[QueryRun]:
    """Closed loop, one query at a time. ``parallel=False`` is the engine's
    in-process path (the partitions asked one after another in this
    process, as ``SearchEngine`` does whenever Ray is down); the end-to-end
    latencies use it. Through the Ray fan-out the same warm query took
    25 ms and 47 ms a minute apart in one session, while the in-process
    path moved by about 15%; the fan-out is timed in traced runs
    (``query.ray_p50_ms``, ``search.dispatch_ms``)."""
    out = []
    for q in queries:
        t0 = time.perf_counter()
        hits, found = engine.search(q.text, k=K, scoring=q.scoring, parallel=parallel)
        dt = time.perf_counter() - t0
        out.append(QueryRun(q, dt, answer_of(hits, found, engine.last_parts_asked)))
    return out


def check_against(out: Outcome, runs: list[QueryRun], expect, label: str) -> None:
    for r in runs:
        out.check(same_answer(r.answer, expect(r.query)), f"{label}: {r.query.text!r} ({r.query.scoring})")


def timed(fn, *args, **kwargs):
    """(result, seconds) of one Ray operation, started on an idle cluster."""
    ray_quiesce()
    t0 = time.perf_counter()
    res = fn(*args, **kwargs)
    return res, time.perf_counter() - t0


# ------------------------------------------------------------------ workloads


class Context:
    """Everything one run needs: arguments, its directory, the corpus."""

    def __init__(self, workload: str, seed: int, seconds: float, scale: str, workdir: str):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.scale = SCALES[scale]
        self.workdir = workdir
        self.corpus = Corpus(self.scale)
        self.setup_reps = SETUP_REPS[workload]
        self._n = 0

    def fresh_dir(self, tag: str) -> str:
        self._n += 1
        d = os.path.join(self.workdir, f"{tag}-{self._n}")
        shutil.rmtree(d, ignore_errors=True)
        return d


def _build(files: list[str], index_dir: str) -> dict:
    from miru_ray.build import build_index

    return build_index(files, index_dir, n_parts=N_PARTS, resume=False)


def _engine(index_dir: str):
    from miru_ray.search import SearchEngine

    return SearchEngine(index_dir)  # default arguments, as the CLI opens it


def workload_query(ctx: Context, out: Outcome, keep: dict) -> None:
    """Set-up (``setup_reps`` times): build the index, open the engine, run
    the pool's first query. The first set-up's index serves the timed
    queries; the whole pool runs once on it to warm the caches. Timed: one
    client, a closed loop over the pool, in one slice of ``seconds /
    setup_reps`` after each set-up. The VM's speed drifts over tens of
    seconds, so the builds and the query slices take turns and every median
    samples the whole run."""
    files = ctx.corpus.write(range(ctx.scale.shards), os.path.join(ctx.workdir, "corpus"))
    turns, text = input_stats(files)
    out.input_text_bytes = text
    pool = make_queries(ctx.seed)
    order = list(range(len(pool)))
    random.Random(ctx.seed).shuffle(order)
    idx = eng = None
    runs: list[QueryRun] = []
    i = 0
    for r in range(ctx.setup_reps):
        rep_idx = ctx.fresh_dir("index")
        ray_quiesce()
        t0 = time.perf_counter()
        meta, dt = timed(_build, files, rep_idx)
        rep_eng = _engine(rep_idx)
        run_queries(rep_eng, pool[:1])
        out.setup_s.append(time.perf_counter() - t0)
        out.ingest.append((turns, dt))
        out.check(meta["totals"]["n_docs"] == turns, f"build n_docs {meta['totals']['n_docs']} != {turns}")
        if r == 0:
            idx, eng = rep_idx, rep_eng
            out.index_bytes = dir_bytes(idx)
            run_queries(eng, pool)
        else:
            shutil.rmtree(rep_idx, ignore_errors=True)
        ray_quiesce()
        t_end = time.perf_counter() + ctx.seconds / ctx.setup_reps
        while time.perf_counter() < t_end or i < len(pool):
            runs += run_queries(eng, [pool[order[i % len(pool)]]])
            i += 1
    out.queries = runs
    keep.update(files=files, index=idx, pool=pool, turns=turns)


def workload_extend(ctx: Context, out: Outcome, keep: dict) -> None:
    """Set-up (``setup_reps`` times) builds the index from the base shards;
    the first one's index is extended, the others run between epochs, so
    that the set-up median samples the whole run as the epochs do. Timed:
    extend_index epochs of new shards, each followed by a query batch on
    the same engine (epoch-keyed caches make those posting reads cold)."""
    sc = ctx.scale
    base = ctx.corpus.write(range(sc.base_shards), os.path.join(ctx.workdir, "base"))
    base_turns, _ = input_stats(base)

    def set_up() -> str:
        rep_idx = ctx.fresh_dir("index")
        meta, dt = timed(_build, base, rep_idx)
        out.setup_s.append(dt)
        out.check(meta["totals"]["n_docs"] == base_turns, "base build n_docs")
        return rep_idx

    idx = set_up()
    setup_copy = os.path.join(ctx.workdir, "index-at-setup")
    shutil.copytree(idx, setup_copy)
    eng = _engine(idx)
    batch = make_queries(ctx.seed)[:EXTEND_PER_FAMILY * len(FAMILIES)]
    from miru_ray.build import extend_index

    applied = list(base)
    epochs: list[list[str]] = []
    runs: list[QueryRun] = []
    turns_now = base_turns
    n_epochs = min(MAX_EPOCHS, MIN_EPOCHS + int(ctx.seconds // EPOCH_S))
    while len(epochs) < n_epochs:
        first = sc.base_shards + len(epochs) * sc.epoch_shards
        new = ctx.corpus.write(range(first, first + sc.epoch_shards),
                               os.path.join(ctx.workdir, f"epoch-{len(epochs)}"))
        new_turns, _ = input_stats(new)
        gmeta, dt = timed(extend_index, new, idx)
        turns_now += new_turns
        out.ingest.append((new_turns, dt))
        out.check(gmeta["totals"]["n_docs"] == turns_now, f"extend n_docs {gmeta['totals']['n_docs']} != {turns_now}")
        applied += new
        epochs.append(new)
        ray_quiesce()
        runs += run_queries(eng, batch)
        if len(out.setup_s) < ctx.setup_reps:
            shutil.rmtree(set_up(), ignore_errors=True)
    out.queries = runs
    _, text = input_stats(applied)
    out.input_text_bytes = text
    out.index_bytes = dir_bytes(idx)
    keep.update(files=applied, epochs=epochs, index=idx, setup_copy=setup_copy,
                batch=batch, turns=turns_now)


WORKLOADS = {"query": workload_query, "extend": workload_extend}


def check_answers(ctx: Context, out: Outcome, keep: dict) -> None:
    """Answer checks, outside every timed region: query answers against the
    brute-force oracle; extend's last batch against a fresh build of the
    same files."""
    if ctx.workload == "extend":
        fresh = ctx.fresh_dir("fresh")
        meta = _build(keep["files"], fresh)
        out.check(meta["totals"]["n_docs"] == keep["turns"], "fresh build n_docs")
        eng = _engine(fresh)
        expect = {r.query: r.answer for r in run_queries(eng, keep["batch"], parallel=False)}
        last = out.queries[-len(keep["batch"]):]
        check_against(out, last, expect.__getitem__, "extend vs fresh build")
        return
    oracle = Oracle(keep["files"])
    check_against(out, out.queries, oracle.answer, "engine vs oracle")
