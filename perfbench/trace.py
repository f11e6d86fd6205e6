"""Self-time spans around calls into miru_ray's public functions.

The tracer lives entirely in the benchmark: it swaps module attributes and
class methods of ``miru_ray`` for timing wrappers while a replay runs in this
process, then puts the originals back. Nothing inside ``miru_ray`` knows it
is being traced.

A layer's busy time is its *self* time: the span's duration minus the part
of it covered by nested traced spans, so busy times never double count and
their sum is the traced share of the replay's wall time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable

# Count hooks see (counts, result, args, kwargs) after the call returns.
CountFn = Callable[[dict, object, tuple, dict], None]


class Tracer:
    def __init__(self) -> None:
        self.busy: dict[str, float] = defaultdict(float)  # layer -> self seconds
        self.incl: dict[str, float] = defaultdict(float)  # layer -> inclusive seconds
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []  # hooks whose target no longer exists
        self._stack: list[float] = []  # child seconds of each open span
        self._undo: list[Callable[[], None]] = []  # run in reverse on restore

    # ------------------------------------------------------------ spans
    def _wrap(self, layer: str, fn, count: CountFn | None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._stack.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = tracer._stack.pop()
                tracer.busy[layer] += dt - child
                tracer.incl[layer] += dt
                tracer.calls[layer] += 1
                if tracer._stack:
                    tracer._stack[-1] += dt
            if count is not None:
                count(tracer.counts, out, args, kwargs)
            return out

        traced.__wrapped_by_tracer__ = fn
        return traced

    def patch_function(self, module_name: str, name: str, layer: str,
                       count: CountFn | None = None) -> None:
        """Wrap ``module.name`` and every ``miru_ray`` module attribute that
        holds the same function object (``from .x import f`` copies)."""
        mod = sys.modules.get(module_name)
        orig = getattr(mod, name, None) if mod is not None else None
        if orig is None:
            self.missing.append(f"{module_name}.{name}")
            return
        wrapped = self._wrap(layer, orig, count)
        for mname, m in list(sys.modules.items()):
            if m is None or not (mname == "miru_ray" or mname.startswith("miru_ray.")):
                continue
            for attr, val in list(vars(m).items()):
                if val is orig:
                    self._set(m, attr, wrapped)

    def patch_method(self, cls, name: str, layer: str,
                     count: CountFn | None = None) -> None:
        orig = cls.__dict__.get(name)
        if orig is None:
            self.missing.append(f"{cls.__name__}.{name}")
            return
        self._set(cls, name, self._wrap(layer, orig, count))

    def _set(self, obj, name: str, value) -> None:
        orig = getattr(obj, name)
        self._undo.append(lambda: setattr(obj, name, orig))
        setattr(obj, name, value)

    def restore(self) -> None:
        for undo in reversed(self._undo):
            undo()
        self._undo.clear()

    def total_busy(self) -> float:
        return float(sum(self.busy.values()))


# ------------------------------------------------------------------ hooks
#
# Layer names follow the modules that own the code: build.*, analyzers.*,
# codec.*, segments.*, filters.*, search.*, wand.*.


def _count_tokens(counts, out, args, kwargs):
    counts["analyzers.tokens"] += len(out[1])


def _count_merge(counts, out, args, kwargs):
    counts["codec.merge_input_runs"] += args[0].num_rows


def _count_segment_bytes(counts, out, args, kwargs):
    import os

    from miru_ray.segments import part_dir

    d = part_dir(args[0], args[1])
    counts["segments.bytes_written"] += sum(
        os.path.getsize(os.path.join(d, f)) for f in os.listdir(d)
    )


def _count_expanded(counts, out, args, kwargs):
    counts["search.expanded_terms"] += len(out)


def _count_keys_read(counts, out, args, kwargs):
    counts["segments.posting_keys_read"] += len(args[2])


def _count_decoded(counts, out, args, kwargs):
    counts["codec.postings_decoded"] += 1


def _count_wand(counts, out, args, kwargs):
    counts["wand.pruned_sum"] += float(out[3])


def install_build_hooks(tr: Tracer) -> None:
    """Build and extend layers (phase-1 scan, tokenize, runs encode + spill,
    merge, phase-3 finalize, segment write)."""
    import miru_ray.build as build
    import miru_ray.codec  # noqa: F401 — resolved through sys.modules
    import miru_ray.segments  # noqa: F401

    tr.patch_function("miru_ray.build", "scan_file_meta", "build.scan_s")
    _patch_analyzers(tr)
    # FileIndexer.__call__ holds _one_file: the per-file sort, posting-run
    # and meta-run encode, forward slices and (build) the spill writes
    tr.patch_method(build.FileIndexer, "__call__", "build.runs_encode_s")
    tr.patch_function("miru_ray.codec", "merge_runs", "codec.merge_s", _count_merge)
    tr.patch_function("miru_ray.build", "finalize_spilled_partition", "build.finalize_s")
    tr.patch_method(build.SegmentExtender, "__call__", "build.finalize_s")
    tr.patch_function("miru_ray.segments", "finalize_segment", "segments.write_s",
                      _count_segment_bytes)


def _patch_analyzers(tr: Tracer) -> None:
    """Wrap every registered analyzer's flat tokenizer. FileIndexer binds
    ``get_analyzer(name).flat`` at construction, so this must run before
    the replay creates its indexers."""
    from miru_ray import analyzers

    for name in analyzers.analyzer_names():
        an = analyzers.get_analyzer(name)
        if getattr(an.flat, "__wrapped_by_tracer__", None) is not None:
            continue
        tr._undo.append(lambda an=an: analyzers.register_analyzer(an))
        analyzers.register_analyzer(analyzers.Analyzer(
            an.name, tr._wrap("analyzers.tokenize_s", an.flat, _count_tokens), an.scalar
        ))


def install_query_hooks(tr: Tracer) -> None:
    """Query layers inside one partition (parse, expansion, posting read +
    decode, filter eval, WAND, forward gather, scoring) and the engine's
    ordered merge above them."""
    import miru_ray.search as search
    import miru_ray.wand  # noqa: F401

    tr.patch_function("miru_ray.filters", "parse_query", "filters.parse_us")
    tr.patch_function("miru_ray.search", "expand_spec", "search.expand_us", _count_expanded)
    tr.patch_function("miru_ray.segments", "read_postings_for_terms",
                      "segments.posting_read_us", _count_keys_read)
    tr.patch_function("miru_ray.codec", "decode_posting", "codec.decode_us", _count_decoded)
    tr.patch_function("miru_ray.codec", "decode_tf_range", "codec.decode_us")
    tr.patch_method(search.PostingSource, "__init__", "search.posting_source_us",
                    _count_keys_asked)
    tr.patch_function("miru_ray.search", "eval_filter_np", "search.eval_us")
    tr.patch_function("miru_ray.wand", "wand_topk", "wand.topk_us", _count_wand)
    tr.patch_function("miru_ray.segments", "forward_columns", "segments.forward_us")
    # search_partition's self time is the scoring / top-k / gather code that
    # no nested layer covers; its inclusive time is the partition time
    tr.patch_function("miru_ray.search", "search_partition", "search.score_us")
    tr.patch_function("miru_ray.search", "_hits_of", "search.merge_us")
    tr.patch_function("miru_ray.search", "_merge_two", "search.merge_us")


def _count_keys_asked(counts, out, args, kwargs):
    """Distinct posting keys one PostingSource looked up (cache hits plus
    reads): plain terms once, wildcard specs by their trimmed expansion."""
    src, specs = args[0], args[3]
    keys = set()
    for field, v in specs:
        for t in src.expansions.get((field, v), [v]):
            keys.add((field, t))
    counts["search.posting_keys_asked"] += len(keys)
