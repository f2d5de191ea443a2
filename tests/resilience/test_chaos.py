"""Property-style chaos suite: under every injected fault class, every
submitted future resolves — to a verified result or a typed
:class:`~repro.resilience.ReproError` — and with faults disabled the
service is bit-identical to direct execution.

The seed set is shifted by ``REPRO_CHAOS_SEED`` so CI can sweep
different schedules (the ``chaos`` job runs offsets 0, 1, 2) without
editing the suite.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

import repro
from repro.resilience import (
    FaultSpec,
    ReproError,
    clear_faults,
    injected_faults,
    verify_evd,
)
from repro.serve import ServiceConfig, SolverService

SEED_OFFSET = int(os.environ.get("REPRO_CHAOS_SEED", "0"))
SEEDS = [SEED_OFFSET, SEED_OFFSET + 1, SEED_OFFSET + 2]

#: One spec-set per fault class the harness can inject, each firing
#: probabilistically so the schedule varies across seeds.
FAULT_CLASSES = {
    "nan": lambda seed: [
        FaultSpec("runner.result", "nan", times=4, probability=0.6, seed=seed)
    ],
    "convergence": lambda seed: [
        FaultSpec("dc.merge", "convergence", times=4, probability=0.6, seed=seed),
        FaultSpec("secular.newton", "convergence", times=2, probability=0.4,
                  seed=seed + 1),
    ],
    "crash": lambda seed: [
        FaultSpec("serve.worker", "crash", times=2, probability=0.5, seed=seed)
    ],
    "backend": lambda seed: [
        FaultSpec("serve.backend", "backend", times=3, probability=0.5, seed=seed)
    ],
}


def goe(n: int, seed: int) -> np.ndarray:
    g = np.random.default_rng(seed).standard_normal((n, n))
    return (g + g.T) / 2.0


def workload(seed: int, count: int = 10):
    rng = np.random.default_rng(1000 + seed)
    # Sizes straddle the 128 D&C leaf size, so merge faults can fire.
    return [goe(int(rng.integers(8, 200)), seed=int(rng.integers(0, 2**31)))
            for _ in range(count)]


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    clear_faults()
    yield
    clear_faults()


class TestNoFutureIsEverLost:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("fault_class", sorted(FAULT_CLASSES))
    def test_every_future_resolves_typed_or_verified(self, fault_class, seed):
        matrices = workload(seed)
        specs = FAULT_CLASSES[fault_class](seed)
        config = ServiceConfig(workers=2)
        with injected_faults(*specs):
            with SolverService(config) as svc:
                futures = [svc.submit(A, fallback="chain") for A in matrices]
                outcomes = []
                for fut in futures:
                    try:
                        outcomes.append(("ok", fut.result(timeout=60)))
                    except ReproError as exc:
                        outcomes.append(("error", exc))
        assert len(outcomes) == len(matrices)
        # Every success is numerically healthy; every failure is typed.
        for (status, payload), A in zip(outcomes, matrices):
            if status == "ok":
                assert verify_evd(A, payload).ok
            else:
                assert isinstance(payload, ReproError)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_chain_recovers_convergence_faults_completely(self, seed):
        # With the fallback chain armed, a D&C convergence fault is not
        # even a failure: every future succeeds via escalation.
        matrices = workload(seed, count=6)
        config = ServiceConfig(workers=2)
        with injected_faults(
            FaultSpec("dc.merge", "convergence", times=3, probability=0.7,
                      seed=seed)
        ) as plan:
            with SolverService(config) as svc:
                futures = [svc.submit(A, fallback="chain") for A in matrices]
                for fut, A in zip(futures, matrices):
                    assert verify_evd(A, fut.result(timeout=60)).ok
                stats = svc.stats()
            fired = sum(s["fired"] for s in plan.stats())
        assert fired > 0
        assert stats["metrics"]["resilience"]["escalations"] == fired


class TestFaultsOffBitIdentity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_service_matches_direct_execution_bit_for_bit(self, seed):
        matrices = workload(seed, count=6)
        direct = [repro.eigh(A) for A in matrices]
        with SolverService(ServiceConfig(workers=2)) as svc:
            futures = [svc.submit(A) for A in matrices]
            served = [f.result(timeout=60) for f in futures]
        for d, s in zip(direct, served):
            np.testing.assert_array_equal(d.eigenvalues, s.eigenvalues)
            np.testing.assert_array_equal(d.eigenvectors, s.eigenvectors)

    @pytest.mark.parametrize("seed", SEEDS[:1])
    def test_spent_fault_budget_restores_bit_identity(self, seed):
        # After a plan's budget is exhausted the instrumented sites are
        # pass-through: results must match the unfaulted bits again.
        A = goe(160, seed=seed)  # above the 128 leaf size: merges
        baseline = repro.eigh(A)
        with injected_faults(
            FaultSpec("dc.merge", "convergence", times=1, seed=seed)
        ):
            with pytest.raises(ReproError):
                repro.eigh(A)
            after = repro.eigh(A)
        np.testing.assert_array_equal(baseline.eigenvalues, after.eigenvalues)
        np.testing.assert_array_equal(baseline.eigenvectors, after.eigenvectors)
