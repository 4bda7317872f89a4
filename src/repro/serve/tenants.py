"""Per-tenant artifact namespaces with hot-swap on version change.

Each tenant maps to one deploy artifact — a monolithic ``.npz`` path or
a ``<store-dir>#<name>`` ref into a sharded
:class:`~repro.store.ArtifactStore`.  The tenant's
:class:`~repro.infer.plan.InferencePlan` is compiled lazily on first use
via :meth:`InferencePlan.from_artifact` and *pinned against the
artifact's weight version*, the same contract
:meth:`~repro.bnn.layers.BinaryConv2d.prepare` applies to a live layer's
packed kernel: the expensive derived form (there: channel-packed words,
here: a whole compiled plan) is cached against an identity token of the
weights it was built from, and replacing the weights transparently
invalidates it.

The identity token is a *content hash*.  For a store ref it is the
manifest hash the ref resolves to (an O(1) read — flipping the ref is
the deploy).  For a monolithic file it is the SHA-256 of the file's
bytes, with the stat fingerprint kept only as a rehash-avoidance hint:
if ``(inode, size, mtime_ns)`` is unchanged the cached digest stands,
otherwise the file is re-hashed.  This fixes both failure modes of the
old stat-only token: a copy-based deploy of *identical* bytes (new
inode, new mtime) hashes to the same version and does **not** recompile,
and a same-size in-place rewrite *does* swap because the content digest
changes.  ``bump()`` still forces a swap for side channels no probe can
see (e.g. an in-place mmap write that preserves the stat).

A probe failure (the artifact mid-replace during an unlink-then-rename
deploy) no longer takes down in-flight traffic: when a compiled plan
exists the tenant keeps serving it and retries the probe on the next
batch; only a tenant with nothing compiled propagates the error.
"""

from __future__ import annotations

import hashlib
import os
import threading
from typing import Dict, List, Optional, Tuple

from ..infer import InferencePlan
from ..store import ArtifactStore, StoreRef

__all__ = ["Tenant", "TenantRegistry", "UnknownTenantError"]


class UnknownTenantError(KeyError):
    """Raised when a request names a tenant that was never registered."""


#: content hash standing in for the artifact's weight version — the
#: manifest hash for store refs, the file digest for monolithic files
VersionToken = str

#: stat triple used only to skip re-hashing an unchanged file
_StatHint = Tuple[int, int, int]


def _file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _artifact_version(path: str) -> VersionToken:
    """Content hash of the artifact (uncached; see ``Tenant._probe``)."""
    ref = StoreRef.coerce(path)
    if ref is not None:
        return ArtifactStore(ref.root, create=False).resolve(ref.name)
    return _file_sha256(path)


class Tenant:
    """One serving namespace: an artifact source plus its compiled plan."""

    def __init__(
        self,
        name: str,
        artifact: str,
        cache_size: Optional[int] = None,
        strategy: str = "gemm",
        threads: Optional[int] = None,
    ) -> None:
        self.name = name
        self.artifact = str(artifact)
        self.cache_size = cache_size
        self.strategy = strategy
        self.threads = threads
        self._lock = threading.RLock()
        self._plan: Optional[InferencePlan] = None
        self._pinned_version: Optional[VersionToken] = None
        self._stat_hint: Optional[_StatHint] = None
        self._hashed_version: Optional[VersionToken] = None
        self._forced_stale = False
        self.swaps = 0  # completed recompiles after the first

    def _probe(self) -> VersionToken:
        """The artifact's current content version (caller holds the lock).

        Store refs resolve to their manifest hash directly.  Monolithic
        files re-hash only when the stat fingerprint moved, so steady
        traffic pays one ``stat()`` per batch, not one digest.
        """
        ref = StoreRef.coerce(self.artifact)
        if ref is not None:
            return ArtifactStore(ref.root, create=False).resolve(ref.name)
        stat = os.stat(self.artifact)
        hint = (stat.st_ino, stat.st_size, stat.st_mtime_ns)
        if hint != self._stat_hint or self._hashed_version is None:
            self._hashed_version = _file_sha256(self.artifact)
            self._stat_hint = hint
        return self._hashed_version

    def plan(self) -> Tuple[InferencePlan, bool]:
        """The current plan, compiling or hot-swapping as needed.

        Returns ``(plan, swapped)`` where ``swapped`` is True when this
        call replaced a previously served plan (the first lazy compile
        is not a swap).  Thread-safe: the daemon's executor threads may
        race a version check; the lock makes compile-and-pin atomic.
        When the version probe fails (e.g. the artifact is mid-replace
        in an unlink-then-rename deploy) an already-compiled plan keeps
        serving and the probe is retried on the next call.
        """
        with self._lock:
            try:
                version = self._probe()
            except (OSError, KeyError):
                if self._plan is not None:
                    return self._plan, False
                raise
            if (
                self._plan is None
                or self._forced_stale
                or version != self._pinned_version
            ):
                swapped = self._plan is not None
                self._plan = InferencePlan.from_artifact(
                    self.artifact,
                    cache_size=self.cache_size,
                    strategy=self.strategy,
                    threads=self.threads,
                )
                self._pinned_version = version
                self._forced_stale = False
                if swapped:
                    self.swaps += 1
                return self._plan, swapped
            return self._plan, False

    def bump(self) -> None:
        """Mark the pinned plan stale regardless of the content probe."""
        with self._lock:
            self._forced_stale = True

    def describe(self) -> Dict:
        """JSON-ready tenant descriptor for the metrics surface.

        Store-ref tenants additionally report their ``store`` fetch
        counters (distinct blobs faulted in, media reads, bytes) via
        :meth:`InferencePlan.fetch_stats
        <repro.infer.plan.InferencePlan.fetch_stats>` — ``None`` for
        monolithic ``.npz`` tenants, whose reader loads eagerly.
        Compiled tenants also report ``contraction``: the plan's
        per-strategy tile/thread telemetry
        (:meth:`InferencePlan.contraction_stats
        <repro.infer.plan.InferencePlan.contraction_stats>`).
        """
        with self._lock:
            compiled = self._plan is not None
            return {
                "artifact": self.artifact,
                "cache_size": self.cache_size,
                "strategy": self.strategy,
                "threads": self.threads,
                "compiled": compiled,
                "swaps": self.swaps,
                "version": self._pinned_version,
                "plan_steps": len(self._plan) if compiled else None,
                "kernel_cache": (
                    self._plan.cache_stats() if compiled else None
                ),
                "store": (
                    self._plan.fetch_stats() if compiled else None
                ),
                "contraction": (
                    self._plan.contraction_stats() if compiled else None
                ),
            }


class TenantRegistry:
    """Name -> :class:`Tenant` map shared by the daemon and the CLI."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._tenants: Dict[str, Tenant] = {}

    def register(
        self,
        name: str,
        artifact: str,
        cache_size: Optional[int] = None,
        strategy: str = "gemm",
        threads: Optional[int] = None,
    ) -> Tenant:
        """Create (or replace) a tenant namespace.

        Registration is cheap — nothing is decoded or compiled until the
        tenant's first request arrives.  Re-registering a name replaces
        the namespace wholesale, dropping any compiled plan.
        """
        tenant = Tenant(
            name,
            artifact,
            cache_size=cache_size,
            strategy=strategy,
            threads=threads,
        )
        with self._lock:
            self._tenants[name] = tenant
        return tenant

    def get(self, name: str) -> Tenant:
        with self._lock:
            tenant = self._tenants.get(name)
        if tenant is None:
            raise UnknownTenantError(
                f"tenant {name!r} is not registered "
                f"(known: {sorted(self.names()) or 'none'})"
            )
        return tenant

    def names(self) -> List[str]:
        with self._lock:
            return list(self._tenants)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._tenants

    def __len__(self) -> int:
        with self._lock:
            return len(self._tenants)

    def describe(self) -> Dict[str, Dict]:
        """JSON-ready descriptor of every namespace."""
        with self._lock:
            tenants = dict(self._tenants)
        return {name: tenant.describe() for name, tenant in sorted(tenants.items())}
