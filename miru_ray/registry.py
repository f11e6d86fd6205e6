"""Tenant → indexes → replicas topology registry (miru-cluster analogue).

The reference keeps a cluster registry mapping tenant → partition →
replica set, with schema versions per tenant
(miru-cluster/.../MiruReplicaSetDirector.java, MiruRegistryClusterClient;
schema registration via MiruSchemaProvider). This module is the
single-file, Parquet-native equivalent for the rebuilt engine: a JSON
topology document mapping each TENANT to its member index dirs (the
shards a FederatedEngine queries as one), each index's replica dirs
(sync.sync_index outputs, used for query failover), and a VERSIONED
schema record.

Design decisions, mirrored from the engine's own invariants:

* **Schema = the index manifests' analysis contract.** A tenant's member
  indexes must agree on (analyzer, stopwords, text/meta/num fields) —
  federated answers are only meaningful when every shard tokenizes
  identically (the term-equality contract, tokenize.py module doc).
  ``register_tenant`` derives the schema FROM the manifests and refuses
  mismatched members; re-registering with a changed schema bumps
  ``schema_version`` and keeps the history (the reference's versioned
  multi-schema registry, VERDICT r3 missing #5).
* **Atomic writes** (tmp + rename), same as every manifest in the tree.
* **The registry stores dirs, not state.** Liveness/health is derived at
  attach time (``engine_for`` checks manifests exist) rather than
  persisted — a crashed process can't leave stale liveness behind.
"""

from __future__ import annotations

import json
import os
import time


def _schema_of(index_dir: str) -> dict:
    from .segments import read_global_manifest

    m = read_global_manifest(index_dir)
    tok = dict(m.get("tokenizer") or {})
    return {
        "tokenizer": tok,
        "text_field": m.get("text_field"),
        "meta_fields": list(m.get("meta_fields") or []),
        "num_fields": list(m.get("num_fields") or []),
        "positions": bool(m.get("positions")),
    }


class Registry:
    """JSON-backed tenant topology. ``path`` is a directory; the document
    lives at ``<path>/registry.json``."""

    def __init__(self, path: str):
        self.path = os.path.abspath(path)
        os.makedirs(self.path, exist_ok=True)
        self.file = os.path.join(self.path, "registry.json")

    # ------------------------------------------------------------- storage

    def _load(self) -> dict:
        if not os.path.exists(self.file):
            return {"version": 1, "tenants": {}}
        with open(self.file) as f:
            return json.load(f)

    def _store(self, doc: dict) -> None:
        tmp = self.file + ".tmp"
        with open(tmp, "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
        os.replace(tmp, self.file)

    # ------------------------------------------------------------ mutation

    def register_tenant(
        self,
        tenant: str,
        indexes: list[str],
        replicas: dict[str, list[str]] | None = None,
    ) -> dict:
        """Create or update a tenant's topology. The schema is DERIVED from
        the member manifests and must be identical across members; a
        changed schema on re-registration bumps ``schema_version`` and
        appends the previous record to ``schema_history``."""
        indexes = [os.path.abspath(d) for d in indexes]
        if not indexes:
            raise ValueError("a tenant needs at least one index dir")
        schemas = {d: _schema_of(d) for d in indexes}
        first = schemas[indexes[0]]
        for d, s in schemas.items():
            if s != first:
                raise ValueError(
                    f"member indexes disagree on the analysis schema: "
                    f"{indexes[0]} vs {d} — a federation must tokenize "
                    "identically (term-equality contract)"
                )
        replicas = {
            os.path.abspath(k): [os.path.abspath(r) for r in v]
            for k, v in (replicas or {}).items()
        }
        for k in replicas:
            if k not in indexes:
                raise ValueError(f"replica map references non-member index {k}")
        doc = self._load()
        prev = doc["tenants"].get(tenant)
        rec = {
            "indexes": indexes,
            "replicas": replicas,
            "schema": first,
            "schema_version": 1,
            "schema_history": [],
            "updated_at": int(time.time()),
        }
        if prev is not None:
            rec["schema_version"] = prev["schema_version"]
            rec["schema_history"] = list(prev.get("schema_history") or [])
            if prev["schema"] != first:
                rec["schema_history"].append(
                    {"schema_version": prev["schema_version"],
                     "schema": prev["schema"]}
                )
                rec["schema_version"] = prev["schema_version"] + 1
        doc["tenants"][tenant] = rec
        self._store(doc)
        return rec

    def remove_tenant(self, tenant: str) -> None:
        doc = self._load()
        doc["tenants"].pop(tenant, None)
        self._store(doc)

    # ------------------------------------------------------------- queries

    def tenants(self) -> list[str]:
        return sorted(self._load()["tenants"])

    def describe(self, tenant: str) -> dict:
        doc = self._load()
        if tenant not in doc["tenants"]:
            raise KeyError(tenant)
        return doc["tenants"][tenant]

    def engine_for(self, tenant: str):
        """The tenant's query engine: a plain ``SearchEngine`` for a
        single-index tenant, a ``FederatedEngine`` otherwise — replicas
        wired through for partition failover in both cases."""
        from .federate import FederatedEngine
        from .search import SearchEngine

        rec = self.describe(tenant)
        dirs = rec["indexes"]
        if len(dirs) == 1:
            return SearchEngine(dirs[0], replicas=rec["replicas"].get(dirs[0]))
        return FederatedEngine(dirs, replicas=rec["replicas"])
