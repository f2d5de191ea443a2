"""The service surface ``benchmarks/evd/evd_worker.py`` relies on: the
``ServiceConfig`` it builds, and the ``stats()`` keys its traced
``serve_stream`` run reads.  A dropped key fails here, next to the
service, instead of only in the benchmark's smoke run."""

from __future__ import annotations

import dataclasses
import inspect
import sys
import threading

import numpy as np

from repro.serve import ResultCache, ServiceConfig, SolverService
from repro.serve.batcher import RequestQueue


def goe(n: int, seed: int) -> np.ndarray:
    g = np.random.default_rng(seed).standard_normal((n, n))
    return (g + g.T) / 2.0


def test_config_has_five_settings():
    assert [f.name for f in dataclasses.fields(ServiceConfig)] == [
        "workers", "backend", "queue_limit", "backpressure", "submit_timeout_s",
    ]


def test_removed_service_surface_is_gone():
    assert "priority" not in inspect.signature(SolverService.submit).parameters
    assert not hasattr(SolverService, "submit_many")
    assert not hasattr(RequestQueue, "ewma_interarrival_s")
    assert not hasattr(ResultCache, "get_entry")
    assert not hasattr(ResultCache, "put_escalated")


def test_benchmark_config_and_stats_keys():
    """``evd_worker.service_config`` and the keys ``run_serve`` reads."""
    config = ServiceConfig(workers=2, queue_limit=8, backpressure="block")
    pool = [goe(n, seed) for seed, n in enumerate((24, 24, 32))]
    with SolverService(config) as svc:
        futs = [
            svc.submit(A, method=method)
            for A in pool + pool
            for method in ("proposed", "dense")
        ]
        for fut in futs:
            fut.result(timeout=60)
        stats = svc.stats()
    cache, metrics = stats["cache"], stats["metrics"]
    assert isinstance(cache["hits"], int) and isinstance(cache["misses"], int)
    assert isinstance(metrics["coalesced"], int)
    assert isinstance(metrics["stacked_batches"], int)
    batches = metrics["batch_sizes"]
    assert batches and all(int(size) >= 1 and c >= 1 for size, c in batches.items())
    assert metrics["queue_wait_s"]["p50"] >= 0.0
    assert metrics["latency_s"]["p50"] > 0.0


class TestOneCacheLookupPerRequest:
    """Each request that is not coalesced looks the cache up exactly
    once, at submit, so ``hit_rate`` is hits over computed-or-replayed
    requests."""

    def test_repeat_then_new_matrix(self):
        A, B = goe(24, 1), goe(24, 2)
        with SolverService(ServiceConfig(workers=1)) as svc:
            svc.submit(A).result(timeout=60)
            svc.submit(A).result(timeout=60)
            svc.submit(B, method="dense").result(timeout=60)
            stats = svc.stats()
        cache, metrics = stats["cache"], stats["metrics"]
        assert (cache["hits"], cache["misses"]) == (1, 2)
        assert cache["hits"] + cache["misses"] == (
            metrics["submitted"] - metrics["coalesced"]
        )
        assert abs(cache["hit_rate"] - 1 / 3) < 1e-12

    def test_coalesced_requests_skip_the_lookup(self):
        A = goe(160, 3)  # slow enough that the twins arrive in flight
        with SolverService(ServiceConfig(workers=1)) as svc:
            futs = [svc.submit(A) for _ in range(3)]
            for fut in futs:
                fut.result(timeout=60)
            stats = svc.stats()
        cache, metrics = stats["cache"], stats["metrics"]
        assert metrics["coalesced"] == 2
        assert cache["hits"] + cache["misses"] == (
            metrics["submitted"] - metrics["coalesced"]
        )

    def test_concurrent_submitters_keep_the_count(self):
        """Submitters racing on a few repeated matrices (more threads than
        cores, a short switch interval): every request is either
        coalesced or looks the cache up exactly once, and every result
        is the one computed for its matrix."""
        pool = [goe(12, seed) for seed in range(4)]
        futures: list = []
        lock = threading.Lock()

        def submitter(svc, offset):
            for k in range(24):
                fut = svc.submit(pool[(offset + k) % len(pool)], method="dense")
                with lock:
                    futures.append(((offset + k) % len(pool), fut))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with SolverService(ServiceConfig(workers=3)) as svc:
                threads = [
                    threading.Thread(target=submitter, args=(svc, t))
                    for t in range(6)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                results = [(j, f.result(timeout=60)) for j, f in futures]
                stats = svc.stats()
        finally:
            sys.setswitchinterval(old)
        cache, metrics = stats["cache"], stats["metrics"]
        assert metrics["submitted"] == len(results) == 6 * 24
        assert cache["hits"] + cache["misses"] == (
            metrics["submitted"] - metrics["coalesced"]
        )
        first = {}
        for j, res in results:
            ref = first.setdefault(j, res)
            assert np.array_equal(res.eigenvalues, ref.eigenvalues)
            assert np.array_equal(res.eigenvectors, ref.eigenvectors)
