"""Bounded, thread-safe LRU cache for decoded kernel operands.

An artifact-backed :class:`~repro.infer.plan.InferencePlan` decodes each
layer's compressed stream only when the layer actually executes, and
keeps the resulting channel-packed words in an LRU cache.  By default
the plan sizes the cache to its binary-conv count, so every layer
decodes once and steady traffic only hits; an explicit capacity below
that bounds the decoded working set, as the decoding unit's scratchpad
does in hardware, and evicted layers are re-decoded on their next use.

The cache is thread-safe and is tier 1 of the store's two-tier caching:
the serving daemon (:mod:`repro.serve`) executes batches on a thread
pool, so one plan's cache is hit from several worker threads at once.
A short-lived map lock guards the entry table and counters; the
``build()`` call itself runs under a *per-key* build lock.  Two workers
missing the *same* key still build it exactly once (the second blocks,
then hits), but workers missing *different* keys decode in parallel —
the property the daemon's thread pool needs to overlap distinct layers'
decodes, which the previous single re-entrant lock held across
``build()`` serialised.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable

__all__ = ["LruCache"]


class LruCache:
    """A tiny ``{key: value}`` cache with least-recently-used eviction.

    ``get(key, build)`` returns the cached value, building (and possibly
    evicting) on a miss.  ``hits`` / ``misses`` / ``evictions`` expose
    the cache behaviour for reports and tests.  Map operations hold one
    internal lock so lookups, counter updates and eviction stay atomic;
    ``build()`` runs outside it under a per-key lock, so concurrent
    misses on different keys build in parallel while a contended
    same-key miss builds once (each key misses exactly once while it
    stays resident; every other access is a hit).
    """

    def __init__(self, maxsize: int = 8) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        # one transient lock per key currently being built; re-entrant so
        # a build() callback may consult the cache it lives in (e.g. a
        # decode that probes a sibling entry — or, recursively, its own)
        self._key_locks: Dict[Hashable, threading.RLock] = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """The cached value for ``key``, building it on first use."""
        with self._lock:
            if key in self._entries:
                self.hits += 1
                self._entries.move_to_end(key)
                return self._entries[key]
            key_lock = self._key_locks.get(key)
            if key_lock is None:
                key_lock = threading.RLock()
                self._key_locks[key] = key_lock
        with key_lock:
            with self._lock:
                # built by whoever held the key lock while we waited
                if key in self._entries:
                    self.hits += 1
                    self._entries.move_to_end(key)
                    return self._entries[key]
            try:
                value = build()
            except BaseException:
                with self._lock:
                    self._key_locks.pop(key, None)
                raise
            with self._lock:
                self.misses += 1
                self._entries[key] = value
                self._entries.move_to_end(key)
                if len(self._entries) > self.maxsize:
                    self._entries.popitem(last=False)
                    self.evictions += 1
                self._key_locks.pop(key, None)
                return value

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict:
        """JSON-ready counter snapshot (taken atomically)."""
        with self._lock:
            return {
                "size": len(self._entries),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
