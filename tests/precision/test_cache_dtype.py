"""Dtype audit of the content-addressed cache keys (regression).

The serving layer's bit-identical replay hinges on the matrix
fingerprint covering *dtype* as well as bytes: an fp32 cast of a matrix
must never alias its fp64 original, and a ``precision="mixed"`` plan
must never alias the fp64 plan for the same bytes."""

import numpy as np

from repro.core.validation import matrix_fingerprint
from repro.plan import plan_evd
from repro.serve.cache import plan_cache_key


def goe(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    return (A + A.T) / 2.0


class TestFingerprintDtype:
    def test_fp32_cast_has_a_distinct_fingerprint(self):
        A = goe(32, seed=0)
        assert matrix_fingerprint(A) != matrix_fingerprint(A.astype(np.float32))

    def test_round_trip_cast_restores_neither(self):
        """fp64 -> fp32 -> fp64 loses bits: all three fingerprints differ."""
        A = goe(32, seed=1)
        A32 = A.astype(np.float32)
        A_round = A32.astype(np.float64)
        fps = {
            matrix_fingerprint(A),
            matrix_fingerprint(A32),
            matrix_fingerprint(A_round),
        }
        assert len(fps) == 3

    def test_same_bytes_same_dtype_same_fingerprint(self):
        A = goe(32, seed=2)
        assert matrix_fingerprint(A) == matrix_fingerprint(A.copy())


class TestPlanCacheKeyDtype:
    def test_fp32_cast_and_fp64_get_distinct_entries(self):
        A = goe(64, seed=3)
        plan = plan_evd(64, "proposed")
        assert plan_cache_key(A, plan) != plan_cache_key(
            A.astype(np.float32), plan
        )

    def test_precision_policies_get_distinct_entries(self):
        A = goe(64, seed=4)
        mixed = plan_evd(64, "proposed", precision="mixed")
        keys = {
            plan_cache_key(A, plan_evd(64, "proposed")),
            plan_cache_key(A, mixed),
            plan_cache_key(A.astype(np.float32), mixed),
        }
        assert len(keys) == 3

    def test_service_level_no_aliasing(self):
        """End to end: submitting the fp32 cast after the fp64 original
        must compute (and cache) separately, not replay fp64 bits."""
        from repro.serve import ServiceConfig, SolverService

        A = goe(48, seed=5)
        A32 = A.astype(np.float32)
        with SolverService(ServiceConfig(workers=1)) as svc:
            r64 = svc.submit(A).result(timeout=60)
            r32 = svc.submit(A32).result(timeout=60)
            stats = svc.stats()
        assert stats["cache"]["hits"] == 0
        assert not np.array_equal(r64.eigenvalues, r32.eigenvalues)
