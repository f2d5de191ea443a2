"""Content-addressed LRU result cache for the solver service.

Serving traffic repeats itself: the same covariance matrix, the same
graph Laplacian, the same test problem arrives again and again.  Because
the whole pipeline is deterministic, a solve is a pure function of
``(matrix bytes, resolved plan)`` — so results can be replayed
bit-identically from a cache keyed by
:func:`repro.core.validation.matrix_fingerprint` plus the plan's
canonical :meth:`~repro.plan.EVDPlan.cache_token` (:func:`plan_cache_key`).
Keying on the *resolved* plan rather than the raw submitted kwargs means
equivalent spellings — ``method="proposed"`` and its fully-expanded DBBR
kwargs — share one entry and coalesce in flight.

Replay is *bit-identical* by construction: the cache stores the exact
:class:`~repro.core.evd.EVDResult` the first computation produced, with
its result arrays frozen (``writeable=False``) so no caller can corrupt
the shared entry.  A hit therefore returns the same bits a fresh direct
``eigh`` call would produce (property-tested in
``tests/serve/test_determinism.py``).

Only requests that resolve to a plan are cacheable — anything exotic (a
live backend object pinned in the options) silently bypasses the cache
rather than risking a wrong-key collision.

**Escalated results.**  A fallback-chain execution that escalated
(:class:`~repro.resilience.FallbackOutcome` with records) did *not* run
the plan its cache token names — caching it under the submitting plan's
key would poison bit-identical replay with another pipeline's bits.
The serving layer therefore stores an escalated result only under
:func:`plan_cache_key` of the plan that actually *produced* it (where
the bits are exactly what direct execution of that plan yields), and
failed results are never cached at all.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any

import numpy as np

from ..core.validation import matrix_fingerprint
from ..plan.config import EVDPlan

__all__ = [
    "ResultCache",
    "plan_cache_key",
]


def plan_cache_key(A: np.ndarray, plan: EVDPlan | None) -> str | None:
    """Cache key for ``execute_plan(A, plan)``: matrix fingerprint plus
    the plan's canonical token.  ``None`` (uncacheable) when the request
    could not be planned — a non-square input, or options pinning a live
    backend/context object whose identity a string key cannot capture."""
    if plan is None:
        return None
    return f"{matrix_fingerprint(A)}|{plan.cache_token()}"


def _freeze(result) -> None:
    """Make the shared result arrays read-only (cache entries are handed
    to every future hit; a writable array would let one caller corrupt
    another's replay)."""
    for arr in (result.eigenvalues, result.eigenvectors):
        if isinstance(arr, np.ndarray):
            arr.setflags(write=False)
    tri = result.tridiag
    if tri is not None:
        for arr in (tri.d, tri.e):
            if isinstance(arr, np.ndarray):
                arr.setflags(write=False)


class ResultCache:
    """Bounded LRU mapping cache keys to solved results.

    Hit/miss/eviction counters are exposed through :meth:`stats` and
    surface in ``SolverService.stats()``.  A ``None`` key (an
    uncacheable request) is transparent: it never hits, never stores
    and is not counted.
    """

    def __init__(self, max_entries: int = 256) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = int(max_entries)
        self._entries: OrderedDict[str, Any] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get(self, key: str | None):
        """Return the cached result (promoting it to most-recent) or None."""
        if key is None:
            return None
        with self._lock:
            result = self._entries.get(key)
            if result is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return result

    def put(self, key: str | None, result) -> None:
        """Cache ``result`` (its arrays frozen) under ``key``, evicting
        the least recently used entry past capacity."""
        if key is None:
            return
        _freeze(result)
        with self._lock:
            self._entries[key] = result
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self._evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        with self._lock:
            lookups = self._hits + self._misses
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "hit_rate": (self._hits / lookups) if lookups else 0.0,
            }
