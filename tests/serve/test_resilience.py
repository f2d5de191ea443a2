"""Service-level fault tolerance: verification wiring, deadlines, worker
supervision, and the per-backend circuit breaker."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.resilience import (
    BackendFault,
    DeadlineExceeded,
    FaultSpec,
    VerificationError,
    WorkerCrashError,
    clear_faults,
    injected_faults,
)
from repro.serve import ServiceConfig, SolverService
from repro.serve.service import _BREAKER_THRESHOLD, _MAX_CRASH_RETRIES


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    clear_faults()
    yield
    clear_faults()


def goe(n: int, seed: int = 0) -> np.ndarray:
    g = np.random.default_rng(seed).standard_normal((n, n))
    return (g + g.T) / 2.0


class TestVerificationWiring:
    def test_every_result_is_verified_by_default(self):
        with SolverService(ServiceConfig(workers=2)) as svc:
            futs = [svc.submit(goe(24, i)) for i in range(5)]
            for f in futs:
                f.result(timeout=60)
            res = svc.stats()["metrics"]["resilience"]
        assert res["verifications"] == 5
        assert res["residuals"]["count"] == 5
        assert res["residuals"]["max"] < 1e-12
        assert res["orth_errors"]["count"] == 5

    def test_poisoned_result_fails_future_typed(self):
        with injected_faults(FaultSpec("runner.result", "nan", times=1)):
            with SolverService(ServiceConfig(workers=1)) as svc:
                fut = svc.submit(goe(24, 7))
                with pytest.raises(VerificationError):
                    fut.result(timeout=60)
                res = svc.stats()["metrics"]["resilience"]
        assert res["verification_failures"] == 1

    def test_verify_stage_surfaces_in_stage_times(self):
        with SolverService(ServiceConfig(workers=1)) as svc:
            svc.submit(goe(24, 2)).result(timeout=60)
            stages = svc.stats()["metrics"]["stage_times"]
        assert "verify_evd" in stages


class TestFallbackThroughService:
    def test_escalation_visible_in_stats(self):
        with injected_faults(FaultSpec("dc.merge", "convergence", times=1)):
            with SolverService(ServiceConfig(workers=1)) as svc:
                A = goe(160, 3)  # above the 128 leaf size: merges
                out = svc.submit(A, fallback="chain").result(timeout=60)
                st = svc.stats()
        dense = repro.eigh(A, method="dense")
        np.testing.assert_array_equal(out.eigenvalues, dense.eigenvalues)
        assert st["metrics"]["resilience"]["escalations"] == 1

    def test_escalated_result_never_caches_under_original_key(self):
        A = goe(160, 4)  # above the 128 leaf size: merges
        with SolverService(ServiceConfig(workers=1)) as svc:
            with injected_faults(FaultSpec("dc.merge", "convergence", times=1)):
                svc.submit(A, fallback="chain").result(timeout=60)
            assert svc.stats()["metrics"]["resilience"]["escalations"] == 1
            # Faults cleared: the same submission must recompute through
            # the proposed pipeline, not replay the dense escalation.
            out = svc.submit(A, fallback="chain").result(timeout=60)
        direct = repro.eigh(A)
        np.testing.assert_array_equal(out.eigenvalues, direct.eigenvalues)
        np.testing.assert_array_equal(out.eigenvectors, direct.eigenvectors)


class TestDeadlines:
    def test_expired_deadline_fails_typed(self):
        with SolverService(ServiceConfig(workers=1)) as svc:
            fut = svc.submit(goe(16, 5), deadline_s=-1.0)
            with pytest.raises(DeadlineExceeded):
                fut.result(timeout=60)
            assert svc.stats()["metrics"]["resilience"]["deadline_expired"] == 1

    def test_generous_deadline_succeeds(self):
        with SolverService(ServiceConfig(workers=1)) as svc:
            out = svc.submit(goe(16, 7), deadline_s=600.0).result(timeout=60)
        assert out.eigenvalues.size == 16


class TestWorkerSupervision:
    def test_crashed_request_is_requeued_and_completes(self):
        with injected_faults(FaultSpec("serve.worker", "crash", times=1)):
            with SolverService(ServiceConfig(workers=2)) as svc:
                A = goe(24, 8)
                out = svc.submit(A).result(timeout=60)
                res = svc.stats()["metrics"]["resilience"]
        direct = repro.eigh(A)
        np.testing.assert_array_equal(out.eigenvalues, direct.eigenvalues)
        assert res["worker_crashes"] == 1
        assert res["crash_requeues"] == 1
        assert res["worker_respawns"] == 1

    def test_retry_budget_exhaustion_fails_typed(self):
        # One crash more than the retry budget: the first run and every
        # retry die, and the request fails typed instead of looping.
        crashes = _MAX_CRASH_RETRIES + 1
        with injected_faults(FaultSpec("serve.worker", "crash", times=crashes)):
            with SolverService(ServiceConfig(workers=1)) as svc:
                fut = svc.submit(goe(16, 9))
                with pytest.raises(WorkerCrashError):
                    fut.result(timeout=60)
                res = svc.stats()["metrics"]["resilience"]
        assert res["worker_crashes"] == crashes
        assert res["crash_requeues"] == _MAX_CRASH_RETRIES

    def test_service_survives_crash_and_keeps_serving(self):
        with injected_faults(FaultSpec("serve.worker", "crash", times=1)):
            with SolverService(ServiceConfig(workers=1)) as svc:
                first = svc.submit(goe(16, 10)).result(timeout=60)
                second = svc.submit(goe(16, 11)).result(timeout=60)
        assert first.eigenvalues.size == second.eigenvalues.size == 16


class TestCircuitBreaker:
    def test_trips_open_and_reroutes_to_numpy(self):
        # Distinct matrices: every request computes (none is a cache hit).
        trips = _BREAKER_THRESHOLD
        with injected_faults(FaultSpec("serve.backend", "backend", times=trips)):
            cfg = ServiceConfig(workers=1, backend="torch")
            with SolverService(cfg) as svc:
                for i in range(trips):
                    with pytest.raises(BackendFault):
                        svc.submit(goe(16, i)).result(timeout=60)
                # Breaker open: the next request reroutes to numpy and
                # succeeds even though the torch backend is unavailable.
                out = svc.submit(goe(16, 50)).result(timeout=60)
                st = svc.stats()
        assert out.eigenvalues.size == 16
        res = st["metrics"]["resilience"]
        assert res["backend_faults"] == trips
        assert res["breaker_fallbacks"] == 1
        br = st["resilience"]["breakers"]["torch"]
        assert br["state"] == "open" and br["trips"] == 1

    def test_numpy_backend_never_engages_breaker(self):
        with SolverService(ServiceConfig(workers=1)) as svc:
            svc.submit(goe(16, 1)).result(timeout=60)
            assert svc.stats()["resilience"]["breakers"] == {}


class TestStatsSchema:
    def test_resilience_sections_present(self):
        with SolverService(ServiceConfig(workers=1)) as svc:
            st = svc.stats()
        assert set(st["resilience"]) == {"breakers"}
        assert "resilience" in st["metrics"]
