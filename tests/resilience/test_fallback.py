"""Fallback-chain execution: escalation order, recoverable-vs-fatal
classification, and the ``eigh(fallback="chain")`` entry point."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core import SymmetryError
from repro.plan import plan_evd
from repro.resilience import (
    FallbackExhausted,
    FaultSpec,
    NonFiniteError,
    VerificationError,
    clear_faults,
    execute_plan_with_fallback,
    injected_faults,
    resolve_fallback_chain,
)
from repro.resilience.fallback import _is_recoverable


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    clear_faults()
    yield
    clear_faults()


def goe(n: int, seed: int = 0) -> np.ndarray:
    g = np.random.default_rng(seed).standard_normal((n, n))
    return (g + g.T) / 2.0


class TestChainResolution:
    def test_proposed_chain_escalates_to_dense(self):
        plan = plan_evd(64, "proposed", fallback="chain")
        chain = resolve_fallback_chain(plan)
        assert [p.method for p in chain] == ["proposed", "dense"]
        assert [p.solver.kind for p in chain] == ["dc", "dense"]
        # Every link is directly executable: fallback is cleared.
        assert all(p.fallback == "none" for p in chain)

    def test_dense_chain_escalates_to_proposed(self):
        plan = plan_evd(64, "dense", fallback="chain")
        chain = resolve_fallback_chain(plan)
        assert [p.method for p in chain] == ["dense", "proposed"]
        assert [p.solver.kind for p in chain] == ["dense", "dc"]

    def test_mixed_chain_escalates_to_dense(self):
        # The fp64 twin is the precision driver's escalation, not a link.
        plan = plan_evd(64, "proposed", precision="mixed", fallback="chain")
        chain = resolve_fallback_chain(plan)
        assert [(p.method, p.precision) for p in chain] == [
            ("proposed", "mixed"), ("dense", "fp64")
        ]

    def test_chain_preserves_vectors_flag_and_backend(self):
        plan = plan_evd(48, "proposed", compute_vectors=False, fallback="chain")
        for link in resolve_fallback_chain(plan):
            assert link.solver.compute_vectors is False
            assert link.backend == "numpy"


class TestExecutor:
    def test_healthy_plan_no_escalation(self):
        A = goe(40, seed=1)
        plan = plan_evd(40, "proposed", fallback="chain")
        outcome = execute_plan_with_fallback(A, plan)
        assert not outcome.escalated
        assert outcome.report is not None and outcome.report.ok
        assert outcome.plan.method == "proposed"
        direct = repro.eigh(A)
        np.testing.assert_array_equal(outcome.result.eigenvalues,
                                      direct.eigenvalues)
        np.testing.assert_array_equal(outcome.result.eigenvectors,
                                      direct.eigenvectors)

    def test_convergence_failure_escalates_to_dense(self):
        A = goe(160, seed=2)  # above the 128 leaf size: merges
        plan = plan_evd(160, "proposed", fallback="chain")
        with injected_faults(FaultSpec("dc.merge", "convergence", times=1)):
            outcome = execute_plan_with_fallback(A, plan)
        assert outcome.escalated
        assert outcome.plan.method == "dense"
        assert outcome.report is not None and outcome.report.ok
        (rec,) = outcome.escalations
        assert (rec.step, rec.method, rec.error_type) == (
            0, "proposed", "ConvergenceError"
        )
        # The escalated result is the dense path's, bit for bit.
        dense = repro.eigh(A, method="dense")
        np.testing.assert_array_equal(outcome.result.eigenvalues,
                                      dense.eigenvalues)

    def test_nan_corruption_is_caught_and_escalated(self):
        A = goe(32, seed=3)
        plan = plan_evd(32, "proposed", fallback="chain")
        with injected_faults(FaultSpec("runner.result", "nan", times=1)):
            outcome = execute_plan_with_fallback(A, plan)
        assert outcome.escalated
        assert outcome.escalations[0].error_type == "VerificationError"
        assert outcome.report.ok

    def test_plain_plan_failure_raises_without_chain(self):
        A = goe(32, seed=4)
        plan = plan_evd(32, "proposed")  # fallback="none"
        with injected_faults(FaultSpec("runner.result", "nan", times=1)):
            with pytest.raises(VerificationError):
                execute_plan_with_fallback(A, plan)

    def test_exhausted_chain_raises_with_full_trail(self):
        A = goe(32, seed=5)
        plan = plan_evd(32, "proposed", fallback="chain")
        # Corrupt every link's output: both fail verification.
        with injected_faults(FaultSpec("runner.result", "nan", times=2)):
            with pytest.raises(FallbackExhausted) as info:
                execute_plan_with_fallback(A, plan)
        attempts = info.value.attempts
        assert [a.method for a in attempts] == ["proposed", "dense"]
        assert all(a.error_type == "VerificationError" for a in attempts)

    def test_non_recoverable_error_propagates_immediately(self):
        plan = plan_evd(8, "proposed", fallback="chain")
        with pytest.raises(SymmetryError):
            execute_plan_with_fallback(np.triu(np.ones((8, 8))), plan)

    def test_overflowed_tridiagonal_escalates_to_dense(self):
        # At max|A| ~ 1e160 the chase's reflector norms overflow: the
        # proposed link raises NonFiniteError and the dense link (LAPACK,
        # which scales internally) answers.
        A = goe(64, seed=0)
        plan = plan_evd(64, "proposed", fallback="chain")
        with np.errstate(over="ignore", invalid="ignore"):
            outcome = execute_plan_with_fallback(A * 1e160, plan)
        assert outcome.plan.method == "dense"
        (rec,) = outcome.escalations
        assert (rec.step, rec.method, rec.error_type) == (
            0, "proposed", "NonFiniteError"
        )
        ref = np.linalg.eigvalsh(A)
        got = outcome.result.eigenvalues / 1e160
        assert np.max(np.abs(got - ref)) <= 200 * 64 * np.finfo(float).eps * (
            np.linalg.norm(A)
        )

    def test_non_finite_error_is_recoverable(self):
        assert _is_recoverable(NonFiniteError("overflow", site="tridiagonalize"))

    def test_ctx_is_the_only_keyword(self):
        import inspect

        params = inspect.signature(execute_plan_with_fallback).parameters
        assert list(params) == ["A", "plan", "ctx"]


class TestEighEntryPoint:
    def test_eigh_fallback_chain_survives_dc_failure(self):
        A = goe(160, seed=7)  # above the 128 leaf size: merges
        with injected_faults(FaultSpec("dc.merge", "convergence", times=1)):
            res = repro.eigh(A, fallback="chain")
        dense = repro.eigh(A, method="dense")
        np.testing.assert_array_equal(res.eigenvalues, dense.eigenvalues)

    def test_eigh_fallback_chain_is_bit_identical_when_healthy(self):
        A = goe(40, seed=8)
        chained = repro.eigh(A, fallback="chain")
        plain = repro.eigh(A)
        np.testing.assert_array_equal(chained.eigenvalues, plain.eigenvalues)
        np.testing.assert_array_equal(chained.eigenvectors, plain.eigenvectors)

    def test_eigh_rejects_unknown_fallback(self):
        from repro.plan import PlanError

        with pytest.raises(PlanError):
            repro.eigh(goe(8), fallback="retry-forever")

    def test_plan_fallback_field_excluded_from_cache_token(self):
        plain = plan_evd(64, "proposed")
        chained = plan_evd(64, "proposed", fallback="chain")
        assert plain.cache_token() == chained.cache_token()
        assert chained.to_dict()["fallback"] == "chain"
