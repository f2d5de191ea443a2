"""Plan-token cache keying: equivalent request spellings share one entry.

Satellite regression (PR 7): the service keys its result cache and
single-flight coalescing on the *resolved* plan's ``cache_token`` rather
than the raw submitted kwargs, so ``method="proposed"`` and its
fully-expanded DBBR spelling hit the same ``ResultCache`` entry.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.plan import PlanError, plan_evd
from repro.serve import ServiceConfig, SolverService, plan_cache_key
from repro.serve.cache import ResultCache


def goe(n: int, seed: int = 0) -> np.ndarray:
    g = np.random.default_rng(seed).standard_normal((n, n))
    return (g + g.T) / 2.0


def expanded_proposed_kwargs(n: int) -> dict:
    """The fully-spelled-out kwargs equivalent of ``method="proposed"``."""
    p = plan_evd(n, "proposed")
    return dict(
        method="dbbr",
        bandwidth=p.tridiag.bandwidth,
        second_block=p.tridiag.second_block,
    )


class TestPlanCacheKey:
    def test_none_plan_is_uncacheable(self):
        assert plan_cache_key(goe(4), None) is None

    def test_key_contains_fingerprint_and_token(self):
        A = goe(4)
        plan = plan_evd(4, "proposed")
        key = plan_cache_key(A, plan)
        assert key is not None and key.endswith(plan.cache_token())
        # Same bytes, same key; different matrix, different key.
        assert plan_cache_key(A.copy(), plan) == key
        assert plan_cache_key(goe(4, seed=99), plan) != key

    def test_equivalent_spellings_share_key(self):
        A = goe(24)
        a = plan_cache_key(A, plan_evd(24, "proposed"))
        b = plan_cache_key(A, plan_evd(24, **expanded_proposed_kwargs(24)))
        assert a == b


class TestServiceCoalescing:
    def test_preset_and_expanded_spelling_share_cache_entry(self):
        A = goe(24, seed=7)
        with SolverService(ServiceConfig(workers=2)) as svc:
            r1 = svc.submit(A, method="proposed").result(timeout=60)
            r2 = svc.submit(A, **expanded_proposed_kwargs(24)).result(timeout=60)
            stats = svc.stats()["cache"]
        assert stats["entries"] == 1
        assert stats["hits"] >= 1
        np.testing.assert_array_equal(r1.eigenvalues, r2.eigenvalues)
        np.testing.assert_array_equal(r1.eigenvectors, r2.eigenvectors)

    def test_distinct_pipelines_do_not_collide(self):
        A = goe(24, seed=8)
        with SolverService(ServiceConfig(workers=2)) as svc:
            r1 = svc.submit(A, method="proposed").result(timeout=60)
            r2 = svc.submit(A, method="magma").result(timeout=60)
            stats = svc.stats()["cache"]
        assert stats["entries"] == 2
        # Different pipelines, same spectrum — but separate cache slots.
        np.testing.assert_allclose(r1.eigenvalues, r2.eigenvalues, atol=1e-8)

    def test_invalid_knob_fails_fast_at_submit(self):
        with SolverService(ServiceConfig(workers=1)) as svc:
            with pytest.raises(PlanError, match="unknown pipeline knob"):
                svc.submit(goe(8), bandwith=4)

    def test_results_bit_identical_to_direct_eigh(self):
        import repro

        A = goe(24, seed=9)
        with SolverService(ServiceConfig(workers=1)) as svc:
            got = svc.submit(A, method="proposed").result(timeout=60)
        ref = repro.eigh(A, method="proposed")
        np.testing.assert_array_equal(got.eigenvalues, ref.eigenvalues)
        np.testing.assert_array_equal(got.eigenvectors, ref.eigenvectors)

    def test_dense_promotion_and_explicit_dense_coalesce(self):
        """The fastpath's effective ``method="dense"`` resolves to the
        same plan token as an explicit dense submission."""
        A = goe(8, seed=10)
        with SolverService(
            ServiceConfig(workers=1, dense_fastpath_max_n=16)
        ) as svc:
            svc.submit(A).result(timeout=60)  # promoted to dense
            svc.submit(A, method="dense").result(timeout=60)
            stats = svc.stats()["cache"]
        assert stats["entries"] == 1
        assert stats["hits"] >= 1

    def test_replay_is_frozen(self):
        A = goe(12, seed=11)
        with SolverService(ServiceConfig(workers=1)) as svc:
            first = svc.submit(A, method="proposed").result(timeout=60)
            replay = svc.submit(A.copy(), method="proposed").result(timeout=60)
        assert replay is first
        assert not replay.eigenvalues.flags.writeable


class TestCacheStillGeneric:
    def test_result_cache_accepts_plan_keys(self):
        cache = ResultCache(max_entries=2)
        A = goe(6)
        key = plan_cache_key(A, plan_evd(6, "cusolver"))

        class Dummy:
            eigenvalues = np.zeros(6)
            eigenvectors = None
            tridiag = None

        cache.put(key, Dummy())
        assert cache.get(key) is not None
        assert cache.stats()["hits"] == 1


class TestEscalatedResultsNeverPoisonTheCache:
    """Satellite regression (PR 8): a failed or fallback-escalated result
    must never be cached under the original plan's cache token — the
    escalated bits belong to a different pipeline."""

    def _dummy(self, n=6):
        class Dummy:
            eigenvalues = np.zeros(n)
            eigenvectors = None
            tridiag = None

        return Dummy()

    def test_put_refuses_escalated_stores(self):
        cache = ResultCache(max_entries=4)
        A = goe(6)
        key = plan_cache_key(A, plan_evd(6, "proposed"))
        cache.put(key, self._dummy(), escalated=True)
        assert cache.get(key) is None
        assert len(cache) == 0
        assert cache.stats()["escalated_rejections"] == 1

    def test_put_escalated_keys_under_producing_plan(self):
        cache = ResultCache(max_entries=4)
        A = goe(6)
        producer = plan_cache_key(A, plan_evd(6, "dense"))
        cache.put_escalated(producer, self._dummy())
        entry = cache.get_entry(producer)
        assert entry is not None and entry.escalated
        assert cache.get(producer) is entry.result

    def test_failed_solve_is_never_cached(self):
        import repro
        from repro.resilience import (
            FaultSpec,
            VerificationError,
            clear_faults,
            injected_faults,
        )

        A = goe(24, seed=20)
        try:
            with SolverService(ServiceConfig(workers=1)) as svc:
                with injected_faults(FaultSpec("runner.result", "nan", times=1)):
                    with pytest.raises(VerificationError):
                        svc.submit(A, method="proposed").result(timeout=60)
                assert svc.stats()["cache"]["entries"] == 0
                # Faults off: same submission recomputes and caches the
                # healthy bits.
                got = svc.submit(A, method="proposed").result(timeout=60)
                assert svc.stats()["cache"]["entries"] == 1
        finally:
            clear_faults()
        ref = repro.eigh(A, method="proposed")
        np.testing.assert_array_equal(got.eigenvalues, ref.eigenvalues)

    def test_escalated_service_result_rekeys_under_producer(self):
        import repro
        from repro.resilience import FaultSpec, clear_faults, injected_faults

        A = goe(32, seed=21)
        try:
            with SolverService(ServiceConfig(workers=1)) as svc:
                with injected_faults(FaultSpec("dc.merge", "convergence", times=1)):
                    svc.submit(A, fallback="chain").result(timeout=60)
                stats = svc.stats()["cache"]
                assert stats["escalated_rejections"] == 1
                assert stats["entries"] == 1  # only the producing key
                # A direct dense submission replays the escalated entry.
                dense_hit = svc.submit(A, method="dense").result(timeout=60)
                assert svc.stats()["cache"]["hits"] >= 1
        finally:
            clear_faults()
        ref = repro.eigh(A, method="dense")
        np.testing.assert_array_equal(dense_hit.eigenvalues, ref.eigenvalues)
