"""miru_ray — a Ray-Data-native full-text index build + top-k query engine.

A from-scratch rebuild of the query/data-processing capabilities of the
reference engine (KevinCorcor/miru, see SURVEY.md) expressed idiomatically on
ray.data.Dataset: tokenization inside ``map_batches`` over zero-copy Arrow
batches, posting-list construction via pre-aggregated per-batch runs merged
per partition in plain Ray tasks, delta+varbyte compression in
fixed-size blocks, and a BM25 / reference-TF-IDF top-k query engine with
per-partition fan-out and ordered cross-partition merge.

This is NOT a port of the reference (a Java/Roaring/LSM engine); the
architecture is Ray-Data-first. Reference citations in docstrings are
file:line under /root/reference and identify the *behavioural contract* only.
"""

__version__ = "0.1.0"
