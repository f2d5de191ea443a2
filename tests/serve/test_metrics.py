"""Unit tests for the service metric primitives."""

from __future__ import annotations

import threading

import pytest

from repro.backend.context import StageEvent
from repro.serve.metrics import (
    CountHistogram,
    Counter,
    ServiceMetrics,
    StageTimes,
    ValueHistogram,
)


class TestCounter:
    def test_inc(self):
        c = Counter()
        c.inc()
        c.inc(3)
        assert c.value == 4

    def test_concurrent_increments(self):
        c = Counter()
        threads = [
            threading.Thread(target=lambda: [c.inc() for _ in range(1000)])
            for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 4000


class TestValueHistogram:
    def test_empty_snapshot(self):
        assert ValueHistogram().snapshot() == {"count": 0}

    def test_summary_statistics(self):
        h = ValueHistogram()
        for v in [1.0, 2.0, 3.0, 4.0]:
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 4
        assert snap["mean"] == pytest.approx(2.5)
        assert snap["min"] == 1.0 and snap["max"] == 4.0
        assert set(snap) >= {"p50", "p90", "p99"}
        assert snap["p50"] == pytest.approx(2.5)

    def test_reservoir_bounds_memory_but_not_counts(self):
        h = ValueHistogram(max_samples=8)
        for v in range(100):
            h.observe(float(v))
        snap = h.snapshot()
        assert snap["count"] == 100          # exact over the full stream
        assert snap["min"] == 0.0 and snap["max"] == 99.0
        assert snap["p50"] >= 90.0           # percentiles from the window


class TestCountHistogram:
    def test_counts_and_sorted_keys(self):
        h = CountHistogram()
        for v in [3, 1, 3, 2, 3]:
            h.observe(v)
        assert h.snapshot() == {"1": 1, "2": 1, "3": 3}
        assert h.total_observations == 5


class TestStageTimes:
    def test_accumulates_end_events_only(self):
        st = StageTimes()
        st.hook(StageEvent("band_reduction", "start", "numpy"))
        st.hook(StageEvent("band_reduction", "end", "numpy", duration_s=0.5))
        st.hook(StageEvent("band_reduction", "end", "numpy", duration_s=0.25))
        snap = st.snapshot()
        assert snap == {
            "band_reduction": {"seconds": pytest.approx(0.75), "count": 2}
        }


class TestServiceMetrics:
    def test_snapshot_schema(self):
        m = ServiceMetrics()
        m.submitted.inc()
        m.latency_s.observe(0.01)
        m.batch_sizes.observe(2)
        snap = m.snapshot()
        assert set(snap) == {
            "submitted", "completed", "failed", "rejected", "cancelled",
            "coalesced", "batches", "stacked_batches",
            "latency_s", "queue_wait_s", "batch_sizes",
            "queue_depth_at_dequeue", "stage_times", "resilience",
            "precision",
        }
        assert set(snap["precision"]) == {
            "refinement_iterations", "escalations",
        }
        assert set(snap["resilience"]) == {
            "verifications", "verification_failures", "escalations",
            "fallback_exhausted", "worker_crashes", "worker_respawns",
            "crash_requeues", "deadline_expired", "backend_faults",
            "breaker_fallbacks", "residuals", "orth_errors",
        }
        assert snap["submitted"] == 1
        assert snap["latency_s"]["count"] == 1
        assert snap["batch_sizes"] == {"2": 1}


class TestDCStageAttribution:
    def test_dc_substages_surface_in_service_stats(self):
        """Worker contexts forward the D&C merge sub-stage events, so
        `stats()` attributes solver time below `tridiag_solver`."""
        import numpy as np

        from repro.serve import ServiceConfig, SolverService

        rng = np.random.default_rng(5)
        g = rng.standard_normal((160, 160))  # above the 128 leaf size
        A = (g + g.T) / 2.0
        cfg = ServiceConfig(workers=1)
        with SolverService(cfg) as svc:
            svc.submit(A).result(timeout=60)
            stage_times = svc.stats()["metrics"]["stage_times"]
        assert {"dc_deflate", "dc_secular", "dc_gemm"} <= set(stage_times)
        assert all(v["seconds"] >= 0.0 for v in stage_times.values())


class TestBackTransformStageAttribution:
    def test_back_transform_substages_surface_in_service_stats(self):
        """`Q1` and `Q_sbr` show as `bc_back` / `sbr_back` beside the
        `back_transform` stage they split."""
        import numpy as np

        from repro.serve import ServiceConfig, SolverService

        g = np.random.default_rng(6).standard_normal((96, 96))
        A = (g + g.T) / 2.0
        with SolverService(ServiceConfig(workers=1)) as svc:
            res = svc.submit(A).result(timeout=60)
            stage_times = svc.stats()["metrics"]["stage_times"]
        assert {"back_transform", "bc_back", "sbr_back"} <= set(stage_times)
        assert stage_times["bc_back"]["count"] == stage_times["back_transform"]["count"]
        # The result's factorization belongs to the worker's context; the
        # caller's thread can still apply it (timed on a fresh context).
        X = np.eye(96)
        res.tridiag.apply_q(X)
        res.tridiag.apply_q_transpose(X)
        assert np.allclose(X, np.eye(96), atol=1e-12)
