"""The mixed-precision execution path: end-to-end accuracy, fp64
bit-identity, fault-driven escalation, and the serve integration."""

import numpy as np
import pytest

import repro
from repro.plan import plan_evd
from repro.plan.runner import execute_plan
from repro.precision import PrecisionWarning
from repro.resilience import (
    FaultSpec,
    clear_faults,
    install_faults,
    verify_evd,
)


@pytest.fixture(autouse=True)
def _no_leaked_faults():
    clear_faults()
    yield
    clear_faults()


def goe(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    return (A + A.T) / 2.0


class TestMixedEndToEnd:
    @pytest.mark.parametrize("method", ["proposed", "magma", "cusolver"])
    def test_mixed_passes_fp64_verification(self, method):
        n = 96
        A = goe(n, seed=5)
        res = repro.eigh(A, method=method, precision="mixed")
        assert res.refinement is not None
        assert res.refinement.converged
        assert not res.refinement.escalated
        assert res.eigenvalues.dtype == np.float64
        assert res.eigenvectors.dtype == np.float64
        verify_evd(A, res).raise_if_failed()

    def test_mixed_pipeline_actually_ran_fp32(self):
        """The low-precision stages must genuinely run in float32 — the
        tridiagonal factors the result carries are the proof."""
        A = goe(80, seed=6)
        res = repro.eigh(A, method="proposed", precision="mixed")
        tri = res.tridiag
        assert tri is not None
        assert tri.band_result is not None
        # DBBR panel/WY factors follow the working dtype.
        blk = tri.band_result.blocks[0]
        assert blk.W.dtype == np.float32

    def test_fp64_precision_is_bit_identical_to_default(self):
        A = goe(64, seed=9)
        base = repro.eigh(A, method="proposed")
        viaknob = repro.eigh(A, method="proposed", precision="fp64")
        assert np.array_equal(base.eigenvalues, viaknob.eigenvalues)
        assert np.array_equal(base.eigenvectors, viaknob.eigenvectors)
        assert viaknob.refinement is None

    def test_eigenvalues_only_mixed_is_rejected(self):
        from repro.plan import PlanError

        A = goe(48, seed=12)
        with pytest.raises(PlanError, match="compute_vectors=True"):
            repro.eigh(A, precision="mixed", compute_vectors=False)


class TestEscalation:
    def test_injected_refine_fault_escalates_to_fp64(self):
        n = 64
        A = goe(n, seed=20)
        install_faults([
            FaultSpec("precision.refine", "convergence", times=10)
        ])
        res = repro.eigh(A, method="proposed", precision="mixed")
        assert res.refinement is not None
        assert res.refinement.escalated
        assert not res.refinement.converged
        recs = res.refinement.escalations
        assert recs and recs[0].method.endswith("[precision=mixed]")
        # The escalated result is the full fp64 pipeline's output.
        clear_faults()
        base = repro.eigh(A, method="proposed")
        assert np.array_equal(res.eigenvalues, base.eigenvalues)
        assert np.array_equal(res.eigenvectors, base.eigenvectors)
        verify_evd(A, res).raise_if_failed()

    def test_fp32_overflow_escalates_without_an_injected_fault(self):
        # Entries near 1e30 square past float32's range in the chase's
        # reflector norms; the fp64 twin handles them.
        n = 128
        A = goe(n, seed=22) * 1e30
        with np.errstate(over="ignore", invalid="ignore"):
            res = execute_plan(A, plan_evd(n, "proposed", precision="mixed"))
        assert res.refinement is not None and res.refinement.escalated
        assert res.refinement.escalations[0].error_type == "NonFiniteError"
        verify_evd(A, res).raise_if_failed()

    def test_fp64_twin_runs_without_fallback(self):
        # A mixed "chain" plan fails under execute_plan exactly as its
        # fp64 plan does; the dense tier is the fallback chain's alone.
        from repro.resilience import ConvergenceError, execute_plan_with_fallback

        n = 160  # above the 128 leaf size: the D&C merges
        A = goe(n, seed=23)
        always = FaultSpec("dc.merge", "convergence", times=10**6)
        for precision in ("fp64", "mixed"):
            install_faults([always])
            with pytest.raises(ConvergenceError):
                execute_plan(A, plan_evd(n, "proposed", precision=precision,
                                         fallback="chain"))
        install_faults([always])
        outcome = execute_plan_with_fallback(
            A, plan_evd(n, "proposed", precision="mixed", fallback="chain")
        )
        assert outcome.plan.is_dense
        assert [(r.step, r.method, r.error_type) for r in outcome.escalations] == [
            (0, "proposed", "ConvergenceError")
        ]
        install_faults([always])
        res = repro.eigh(A, precision="mixed", fallback="chain")
        clear_faults()
        dense = repro.eigh(A, method="dense")
        assert res.solver == "dense"
        assert np.array_equal(res.eigenvalues, dense.eigenvalues)
        assert np.array_equal(res.eigenvectors, dense.eigenvectors)

    def test_escalated_result_is_deterministic(self):
        A = goe(48, seed=21)
        outs = []
        for _ in range(2):
            install_faults([
                FaultSpec("precision.refine", "convergence", times=10)
            ])
            outs.append(repro.eigh(A, method="proposed", precision="mixed"))
            clear_faults()
        assert np.array_equal(outs[0].eigenvalues, outs[1].eigenvalues)
        assert np.array_equal(outs[0].eigenvectors, outs[1].eigenvectors)

    def test_chain_runs_the_fp64_twin_once_then_dense(self):
        # n=160 is above the 128-wide D&C leaf, so every pipeline solve
        # reaches a merge and fails there: the mixed attempt, then the
        # driver's one fp64 twin, then the chain's dense tier answers.
        n = 160
        A = goe(n, seed=24)
        plan = install_faults([
            FaultSpec("dc.merge", "convergence", times=10**6)
        ])
        res = repro.eigh(A, precision="mixed", fallback="chain")
        (merge,) = plan.stats()
        assert merge["fired"] == 2  # mixed + one fp64 twin
        clear_faults()
        dense = repro.eigh(A, method="dense")
        assert np.array_equal(res.eigenvalues, dense.eigenvalues)
        assert np.array_equal(res.eigenvectors, dense.eigenvectors)
        assert res.tridiag is None

    def test_execute_plan_routes_precision(self):
        A = goe(56, seed=23)
        plan = plan_evd(56, "proposed", precision="mixed")
        res = execute_plan(A, plan)
        assert res.refinement is not None
        verify_evd(A, res).raise_if_failed()


class TestUpcastWarning:
    def test_float32_input_on_fp64_path_warns_once(self):
        A32 = goe(32, seed=30).astype(np.float32)
        with pytest.warns(PrecisionWarning, match="mixed"):
            repro.eigh(A32, method="proposed")

    def test_no_warning_under_an_explicit_policy(self):
        import warnings

        A32 = goe(32, seed=31).astype(np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error", PrecisionWarning)
            repro.eigh(A32, method="proposed", precision="mixed")

    def test_no_warning_for_float64_input(self):
        import warnings

        A = goe(32, seed=32)
        with warnings.catch_warnings():
            warnings.simplefilter("error", PrecisionWarning)
            repro.eigh(A, method="proposed")


class TestServeIntegration:
    def test_mixed_requests_served_and_metered(self):
        from repro.serve import ServiceConfig, SolverService

        A = goe(64, seed=40)
        with SolverService(ServiceConfig(workers=1)) as svc:
            res = svc.submit(A, precision="mixed").result(timeout=60)
            assert res.refinement is not None
            stats = svc.stats()
        prec = stats["metrics"]["precision"]
        assert sum(int(v) for v in prec["refinement_iterations"].values()) == 1
        assert prec["escalations"] == 0

    def test_escalation_counter_increments(self):
        from repro.serve import ServiceConfig, SolverService

        A = goe(48, seed=41)
        install_faults([
            FaultSpec("precision.refine", "convergence", times=10)
        ])
        with SolverService(ServiceConfig(workers=1)) as svc:
            res = svc.submit(A, precision="mixed").result(timeout=60)
            assert res.refinement is not None and res.refinement.escalated
            stats = svc.stats()
        assert stats["metrics"]["precision"]["escalations"] == 1
