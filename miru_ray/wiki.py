"""MediaWiki XML dump → transcripts-shaped parquet (the reference's corpus
ingest demo: wiki-miru-deployable/.../WikiMiruIndexService.java — stream
dump pages, keep main-namespace articles (page.isMain(), :175), render the
wiki markup to plain text (:404), tokenize title + body (:408) and index
them as activities).

This adapter is the Ray-native equivalent: one Ray task per dump file
parses pages with a streaming ``iterparse`` (constant memory per worker —
a dump file never loads whole), strips markup with a deterministic rule
set (the reference delegates to a wiki renderer; we fix an explicit,
testable subset), and writes one transcripts-shaped parquet shard per
input file:

    conv_id  = 'wiki-' || zero-padded page id   (dumps are id-ordered, so
               shard-internal row order is already the engine's global
               (conv_id, turn_idx) order; the build verifies it in phase 1
               and sorts the rows first if a dump violates it)
    turn_idx = 0 (one article = one single-turn conversation)
    role     = 'article', tool = 'wiki'
    text     = title + ' ' + plain body   (the reference tokenizes
               title.toLowerCase() + ' ' + plainBody.toLowerCase(), :408 —
               lowercasing is the tokenizer's job here)
    ts       = epoch + page id seconds

Markup stripping (applied innermost-first until fixpoint where nested):
``{{templates}}`` dropped, ``<ref>...</ref>`` and html tags dropped,
``[[File:...]]``/``[[Image:...]]`` links dropped, ``[[target|label]]`` →
label, ``[[target]]`` → target, ``[url label]`` → label, quote runs
(''/''') removed, whitespace collapsed.
"""

from __future__ import annotations

import os
import re

import pyarrow as pa

BASE_TS_US = 1_700_000_000_000_000

_TEMPLATE_RE = re.compile(r"\{\{[^{}]*\}\}", re.S)
_REF_RE = re.compile(r"<ref[^>/]*/>|<ref[^>]*>.*?</ref>", re.S | re.I)
_TAG_RE = re.compile(r"<[^>]+>")
_FILE_RE = re.compile(r"\[\[(?:File|Image):[^\[\]]*\]\]", re.I)
_LINK_LABEL_RE = re.compile(r"\[\[[^\[\]|]*\|([^\[\]]*)\]\]")
_LINK_RE = re.compile(r"\[\[([^\[\]]*)\]\]")
_EXTLINK_RE = re.compile(r"\[\S+ ([^\]]*)\]")
_QUOTES_RE = re.compile(r"'{2,}")
_WS_RE = re.compile(r"\s+")


def strip_markup(text: str) -> str:
    """Deterministic wiki-markup → plain text (the testable subset)."""
    t = text or ""
    # templates nest — remove innermost-first until fixpoint
    while True:
        t2 = _TEMPLATE_RE.sub(" ", t)
        if t2 == t:
            break
        t = t2
    t = _REF_RE.sub(" ", t)
    t = _FILE_RE.sub(" ", t)
    t = _LINK_LABEL_RE.sub(r"\1", t)
    t = _LINK_RE.sub(r"\1", t)
    t = _EXTLINK_RE.sub(r"\1", t)
    t = _TAG_RE.sub(" ", t)
    t = _QUOTES_RE.sub("", t)
    return _WS_RE.sub(" ", t).strip()


def iter_pages(path: str):
    """Stream (page_id, ns, title, raw_text) from a dump file with
    constant memory (elements are cleared as they complete)."""
    import xml.etree.ElementTree as ET

    def local(tag: str) -> str:
        return tag.rsplit("}", 1)[-1]

    # track the root: cleared <page> elements stay attached to it, so a
    # multi-million-page dump would accumulate millions of empty children —
    # detach them as we go to keep memory truly constant
    it = ET.iterparse(path, events=("start", "end"))
    root = None
    for event, elem in it:
        if root is None:
            root = elem
        if event != "end" or local(elem.tag) != "page":
            continue
        pid, ns, title, text = None, 0, "", ""
        for child in elem:
            lc = local(child.tag)
            if lc == "id" and pid is None:
                pid = int(child.text)
            elif lc == "ns":
                ns = int(child.text or 0)
            elif lc == "title":
                title = child.text or ""
            elif lc == "revision":
                for rc in child:
                    if local(rc.tag) == "text":
                        text = rc.text or ""
        yield pid, ns, title, text
        elem.clear()
        if root is not None and len(root):
            # drop completed top-level children (pages, siteinfo)
            for done in list(root)[:-1]:
                root.remove(done)


def parse_dump_file(path: str) -> pa.Table:
    """One dump file → a transcripts-shaped Arrow table (main-namespace
    pages only, markup stripped)."""
    conv, txt, ts = [], [], []
    for pid, ns, title, raw in iter_pages(path):
        if ns != 0 or pid is None:  # page.isMain() — articles only
            continue
        conv.append(f"wiki-{pid:012d}")
        txt.append((title + " " + strip_markup(raw)).strip())
        ts.append(BASE_TS_US + pid * 1_000_000)
    n = len(conv)
    return pa.table(
        {
            "conv_id": pa.array(conv, pa.string()),
            "turn_idx": pa.array([0] * n, pa.int32()),
            "role": pa.array(["article"] * n, pa.string()),
            "text": pa.array(txt, pa.string()),
            "tool": pa.array(["wiki"] * n, pa.string()),
            "ts": pa.array(ts, pa.timestamp("us")),
        }
    )


def wiki_ingest(xml_paths: list[str] | str, out_dir: str) -> list[str]:
    """Dump files → transcripts parquet shards (one per input, parsed in
    parallel Ray tasks, shard names preserve input order so id-ordered
    dumps stay globally sorted). Returns the shard paths; feed ``out_dir``
    to ``build_index``."""
    import glob as _glob

    import pyarrow.parquet as pq
    import ray

    if isinstance(xml_paths, str):
        xml_paths = sorted(_glob.glob(os.path.join(xml_paths, "*.xml"))) if os.path.isdir(
            xml_paths
        ) else [xml_paths]
    os.makedirs(out_dir, exist_ok=True)

    @ray.remote(num_cpus=1)
    def _one(i: int, path: str) -> str:
        t = parse_dump_file(path)
        # dumps are id-ordered; sort defensively so each shard satisfies
        # the engine's (conv_id, turn_idx) invariant on its own
        import pyarrow.compute as pc

        t = t.take(pc.sort_indices(t, sort_keys=[("conv_id", "ascending")]))
        out = os.path.join(out_dir, f"wiki-{i:05d}.parquet")
        pq.write_table(t, out + ".tmp")
        os.replace(out + ".tmp", out)
        return out

    return list(ray.get([_one.remote(i, p) for i, p in enumerate(xml_paths)]))
