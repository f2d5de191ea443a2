"""Unit tests for the content-addressed LRU result cache."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.serve.cache import ResultCache


def fake_result(n: int = 4, vectors: bool = True):
    return SimpleNamespace(
        eigenvalues=np.arange(n, dtype=np.float64),
        eigenvectors=np.eye(n) if vectors else None,
        tridiag=None,
    )


class TestResultCache:
    def test_miss_then_hit(self):
        cache = ResultCache(max_entries=4)
        assert cache.get("k") is None
        res = fake_result()
        cache.put("k", res)
        assert cache.get("k") is res
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == pytest.approx(0.5)

    def test_lru_eviction_order(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", fake_result())
        cache.put("b", fake_result())
        cache.get("a")          # promote a; b is now the LRU entry
        cache.put("c", fake_result())
        assert cache.get("b") is None
        assert cache.get("a") is not None
        assert cache.get("c") is not None
        assert cache.stats()["evictions"] == 1
        assert len(cache) == 2

    def test_none_key_is_transparent(self):
        cache = ResultCache(max_entries=2)
        cache.put(None, fake_result())
        assert cache.get(None) is None
        stats = cache.stats()
        # uncacheable requests must not pollute the counters
        assert stats["hits"] == 0 and stats["misses"] == 0 and len(cache) == 0

    def test_zero_capacity_is_rejected(self):
        with pytest.raises(ValueError, match="max_entries"):
            ResultCache(max_entries=0)

    def test_entries_are_frozen(self):
        cache = ResultCache(max_entries=2)
        res = fake_result()
        cache.put("k", res)
        got = cache.get("k")
        with pytest.raises(ValueError):
            got.eigenvalues[0] = 99.0
        with pytest.raises(ValueError):
            got.eigenvectors[0, 0] = 99.0
