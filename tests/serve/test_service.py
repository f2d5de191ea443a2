"""Behavioural tests for :class:`repro.serve.SolverService`: submission,
caching, coalescing, backpressure, robustness, and shutdown."""

from __future__ import annotations

import time
from concurrent.futures import CancelledError

import numpy as np
import pytest

import repro
from repro.bench.workloads import goe
from repro.core.validation import NonFiniteError, NonSquareError
from repro.serve import (
    ServiceClosed,
    ServiceConfig,
    ServiceOverloaded,
    SolverService,
    SubmitTimeout,
)


def small_config(**overrides) -> ServiceConfig:
    base = dict(workers=2, backend="numpy", queue_limit=64)
    base.update(overrides)
    return ServiceConfig(**base)


class TestSubmission:
    def test_result_matches_direct_eigh(self):
        A = goe(24, seed=0)
        with SolverService(small_config()) as svc:
            got = svc.submit(A).result(timeout=30)
        ref = repro.eigh(A)
        assert np.array_equal(got.eigenvalues, ref.eigenvalues)
        assert np.array_equal(got.eigenvectors, ref.eigenvectors)

    def test_dense_method_matches_direct(self):
        A = goe(24, seed=1)
        with SolverService(small_config()) as svc:
            got = svc.submit(A, method="dense").result(timeout=30)
        ref = repro.eigh(A, method="dense")
        assert np.array_equal(got.eigenvalues, ref.eigenvalues)
        assert np.array_equal(got.eigenvectors, ref.eigenvectors)

    def test_submit_many(self):
        mats = [goe(16, seed=s) for s in range(5)]
        with SolverService(small_config()) as svc:
            futs = [svc.submit(A, method="dense") for A in mats]
            results = [f.result(timeout=30) for f in futs]
        for A, res in zip(mats, results):
            ref = repro.eigh(A, method="dense")
            assert np.array_equal(res.eigenvalues, ref.eigenvalues)

    def test_solver_opts_are_honoured(self):
        A = goe(20, seed=2)
        with SolverService(small_config()) as svc:
            got = svc.submit(A, compute_vectors=False).result(timeout=30)
        assert got.eigenvectors is None

    def test_stats_schema(self):
        with SolverService(small_config()) as svc:
            svc.submit(goe(12, seed=3), method="dense").result(timeout=30)
            stats = svc.stats()
        assert set(stats) >= {
            "workers", "backend", "closed", "queue_depth", "queue_limit",
            "backpressure", "cache", "metrics", "resilience",
        }
        assert stats["metrics"]["completed"] >= 1


class TestCacheAndCoalescing:
    def test_repeat_hits_cache_bit_identically(self):
        A = goe(20, seed=4)
        with SolverService(small_config()) as svc:
            first = svc.submit(A, method="dense").result(timeout=30)
            time.sleep(0.05)  # let the leader's done-callbacks settle
            second = svc.submit(A.copy(), method="dense").result(timeout=30)
            stats = svc.stats()
        assert stats["cache"]["hits"] == 1
        assert np.array_equal(first.eigenvalues, second.eigenvalues)
        assert np.array_equal(first.eigenvectors, second.eigenvectors)

    def test_cached_arrays_are_read_only(self):
        A = goe(16, seed=5)
        with SolverService(small_config()) as svc:
            res = svc.submit(A, method="dense").result(timeout=30)
        with pytest.raises(ValueError):
            res.eigenvalues[0] = 0.0

    def test_inflight_duplicates_coalesce(self):
        # n=64 through the full pipeline takes long enough that a burst
        # of twins is submitted while the leader is still in flight.
        A = goe(64, seed=6)
        with SolverService(small_config(workers=4)) as svc:
            futs = [svc.submit(A) for _ in range(5)]
            results = [f.result(timeout=60) for f in futs]
            stats = svc.stats()
        assert stats["metrics"]["coalesced"] == 4
        for res in results[1:]:
            assert np.array_equal(res.eigenvalues, results[0].eigenvalues)
            assert np.array_equal(res.eigenvectors, results[0].eigenvectors)

    def test_cache_disabled_still_correct(self):
        """Requests the cache cannot serve (distinct matrices) each
        compute, and compute the direct call's bits."""
        mats = [goe(16, seed=s) for s in (7, 8)]
        with SolverService(small_config()) as svc:
            got = [svc.submit(A, method="dense").result(timeout=30) for A in mats]
            cache = svc.stats()["cache"]
        assert cache["hits"] == 0 and cache["misses"] == 2
        for A, res in zip(mats, got):
            ref = repro.eigh(A, method="dense")
            assert np.array_equal(res.eigenvalues, ref.eigenvalues)


class TestDenseFastpath:
    """There is no dense fast path: the service runs the method a request
    names (the dense tier only for ``method="dense"``), at any ``n``."""

    def test_pinned_method_is_not_promoted(self):
        A = goe(24, seed=9)
        with SolverService(small_config()) as svc:
            got = svc.submit(A, method="proposed").result(timeout=30)
        ref = repro.eigh(A, method="proposed")
        assert got.solver != "dense"
        assert np.array_equal(got.eigenvalues, ref.eigenvalues)

    def test_large_n_not_promoted(self):
        A = goe(48, seed=10)
        with SolverService(small_config()) as svc:
            got = svc.submit(A).result(timeout=60)
        assert got.solver != "dense"


class TestBackpressure:
    def _flood(self, svc, count=40, n=96):
        """Submit distinct slow requests until one raises, else fail."""
        rng = np.random.default_rng(123)
        futs = []
        with pytest.raises((ServiceOverloaded, SubmitTimeout)) as exc_info:
            for _ in range(count):
                A = rng.standard_normal((n, n))
                A = (A + A.T) / 2.0
                futs.append(svc.submit(A))
        return futs, exc_info

    def test_reject_policy(self):
        cfg = small_config(workers=1, queue_limit=1, backpressure="reject")
        with SolverService(cfg) as svc:
            futs, exc_info = self._flood(svc)
            assert exc_info.type is ServiceOverloaded
            for f in futs:
                f.result(timeout=60)
            assert svc.stats()["metrics"]["rejected"] >= 1

    def test_timeout_policy(self):
        cfg = small_config(
            workers=1, queue_limit=1, backpressure="timeout",
            submit_timeout_s=0.01,
        )
        with SolverService(cfg) as svc:
            futs, exc_info = self._flood(svc)
            assert exc_info.type is SubmitTimeout
            for f in futs:
                f.result(timeout=60)

    def test_block_policy_completes_everything(self):
        cfg = small_config(workers=2, queue_limit=2, backpressure="block")
        mats = [goe(32, seed=s) for s in range(8)]
        with SolverService(cfg) as svc:
            futs = [svc.submit(A, method="dense") for A in mats]
            results = [f.result(timeout=60) for f in futs]
        assert len(results) == 8

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            ServiceConfig(backpressure="drop")


class TestRobustness:
    @pytest.mark.parametrize("opts", [{}, {"method": "dense"}])
    def test_non_finite_fails_only_its_own_future(self, opts):
        bad = goe(16, seed=11)
        bad[3, 3] = np.nan
        good_before = goe(16, seed=12)
        good_after = goe(16, seed=13)
        with SolverService(small_config()) as svc:
            f_before = svc.submit(good_before, **opts)
            f_bad = svc.submit(bad, **opts)
            f_after = svc.submit(good_after, **opts)
            with pytest.raises(NonFiniteError):
                f_bad.result(timeout=30)
            # ... and the service keeps serving
            ref_b = repro.eigh(good_before, **opts)
            ref_a = repro.eigh(good_after, **opts)
            assert np.array_equal(
                f_before.result(timeout=30).eigenvalues, ref_b.eigenvalues
            )
            assert np.array_equal(
                f_after.result(timeout=30).eigenvalues, ref_a.eigenvalues
            )
            assert svc.stats()["metrics"]["failed"] == 1

    def test_non_square_fails_future_not_submit(self):
        with SolverService(small_config()) as svc:
            fut = svc.submit(np.zeros((3, 5)))
            with pytest.raises(NonSquareError):
                fut.result(timeout=30)

    def test_bad_matrix_inside_stacked_batch(self):
        """A NaN twin in a dense batch must not poison its batchmates."""
        bad = goe(16, seed=14)
        bad[0, 0] = np.inf
        goods = [goe(16, seed=s) for s in range(20, 26)]
        with SolverService(small_config(workers=1)) as svc:
            # A pipeline solve holds the one worker while the dense
            # requests queue up behind it, so they pop as one batch.
            blocker = svc.submit(goe(160, seed=15))
            futs = [svc.submit(A, method="dense") for A in [bad] + goods]
            blocker.result(timeout=60)
            with pytest.raises(NonFiniteError):
                futs[0].result(timeout=30)
            for A, f in zip(goods, futs[1:]):
                ref = repro.eigh(A, method="dense")
                assert np.array_equal(f.result(timeout=30).eigenvalues,
                                      ref.eigenvalues)
            assert svc.stats()["metrics"]["batch_sizes"].get("7") == 1


class TestShutdown:
    def test_drain_completes_queued_work(self):
        mats = [goe(24, seed=s) for s in range(6)]
        svc = SolverService(small_config(workers=1))
        futs = [svc.submit(A, method="dense") for A in mats]
        svc.close(drain=True)
        for A, f in zip(mats, futs):
            ref = repro.eigh(A, method="dense")
            assert np.array_equal(f.result(timeout=1).eigenvalues,
                                  ref.eigenvalues)
        assert svc.closed

    def test_submit_after_close_raises(self):
        svc = SolverService(small_config())
        svc.close()
        with pytest.raises(ServiceClosed):
            svc.submit(goe(8, seed=0))

    def test_close_is_idempotent(self):
        svc = SolverService(small_config())
        svc.close()
        svc.close()

    def test_non_drain_cancels_queued(self):
        # One worker grinds a slow pipeline solve while cheap requests
        # pile up; closing without drain must cancel the queue without
        # deadlocking.
        rng = np.random.default_rng(99)
        slow = rng.standard_normal((128, 128))
        slow = (slow + slow.T) / 2.0
        svc = SolverService(small_config(workers=1))
        first = svc.submit(slow)
        time.sleep(0.05)  # ensure the worker has the slow solve in flight
        rest = [svc.submit(goe(16, seed=s)) for s in range(8)]
        svc.close(drain=False, timeout=60)
        assert not first.cancelled()        # in-flight work finishes
        first.result(timeout=1)
        cancelled = sum(1 for f in rest if f.cancelled())
        assert cancelled >= 1
        for f in rest:
            if not f.cancelled():
                f.result(timeout=1)
            else:
                with pytest.raises(CancelledError):
                    f.result(timeout=1)

    def test_context_manager_drains(self):
        with SolverService(small_config()) as svc:
            fut = svc.submit(goe(16, seed=1), method="dense")
        assert fut.done() and fut.result().eigenvalues.shape == (16,)
