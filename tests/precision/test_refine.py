"""Ogita–Aishima refinement property tests: GOE matrices, clustered
spectra, quadratic residual contraction, typed stalls."""

import numpy as np
import pytest

from repro.backend import ExecutionContext
from repro.bench.workloads import clustered_spectrum, symmetric_with_spectrum
from repro.plan import plan_evd
from repro.plan.runner import execute_plan
from repro.precision import RefinementStalled, refine_eigh, resolve_policy
from repro.precision.driver import _pipeline_result
from repro.resilience import verify_evd

EPS64 = float(np.finfo(np.float64).eps)


def goe(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    return (A + A.T) / 2.0


def fp32_start(A: np.ndarray):
    """An fp32-accurate eigendecomposition: LAPACK in single precision."""
    lam, V = np.linalg.eigh(A.astype(np.float32))
    return np.asarray(lam, dtype=np.float64), np.asarray(V, dtype=np.float64)


class TestGOERefinement:
    @pytest.mark.parametrize("n", [8, 64, 256])
    def test_fp32_start_reaches_fp64_tolerances(self, n):
        A = goe(n, seed=n)
        lam0, V0 = fp32_start(A)
        lam, V, report = refine_eigh(A, lam0, V0)
        assert report.converged
        norm = np.linalg.norm(A)
        res = np.linalg.norm(A @ V - V * lam[None, :]) / norm
        orth = np.linalg.norm(V.T @ V - np.eye(n))
        bound = 200.0 * n * EPS64
        assert res <= bound
        assert orth <= bound
        # Ascending order is part of the contract.
        assert np.all(np.diff(lam) >= 0.0)

    @pytest.mark.parametrize("n", [64, 256])
    def test_residual_decreases_quadratically(self, n):
        A = goe(n, seed=1000 + n)
        lam0, V0 = fp32_start(A)
        _, _, report = refine_eigh(A, lam0, V0)
        # Entering residuals: index 0 is the unrefined fp32 start.  Each
        # sweep should square the error (allow generous slack above the
        # eps64 floor): r_{k+1} <= C * r_k^1.5 is already far stronger
        # than the stall criterion and only quadratic contraction
        # achieves it from 1e-6 in <= 3 steps.
        rs = report.residuals
        assert len(rs) >= 2
        for prev, cur in zip(rs, rs[1:]):
            if cur <= 100.0 * n * EPS64:
                break  # hit the fp64 floor — nothing more to contract
            assert cur <= max(prev**1.5 * 50.0, 100.0 * n * EPS64)

    def test_refined_result_passes_verify_evd(self):
        n = 128
        A = goe(n, seed=7)
        lam0, V0 = fp32_start(A)
        lam, V, _ = refine_eigh(A, lam0, V0)
        from repro.core.evd import EVDResult

        result = EVDResult(
            eigenvalues=lam, eigenvectors=V, tridiag=None, solver="dc"
        )
        verify_evd(A, result).raise_if_failed()


class TestClusteredSpectra:
    @pytest.mark.parametrize("n", [32, 96])
    def test_tight_clusters_are_resolved(self, n):
        """Eigenvalues in near-degenerate groups: the elementwise update
        cannot separate them, the Rayleigh-Ritz cluster rotation must."""
        rng = np.random.default_rng(n)
        # Three tight clusters separated by O(1) gaps.
        base = np.repeat([-1.0, 0.5, 2.0], n // 3)
        base = np.concatenate([base, 3.0 + np.arange(n - base.size)])
        lam_true = np.sort(base + rng.uniform(0.0, 1e-9, size=n))
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        A = (Q * lam_true) @ Q.T
        A = (A + A.T) / 2.0
        lam0, V0 = fp32_start(A)
        lam, V, report = refine_eigh(A, lam0, V0)
        assert report.converged
        assert report.clusters >= 1
        norm = np.linalg.norm(A)
        res = np.linalg.norm(A @ V - V * lam[None, :]) / norm
        orth = np.linalg.norm(V.T @ V - np.eye(n))
        bound = 200.0 * n * EPS64
        assert res <= bound and orth <= bound

    def test_identity_like_matrix_all_one_cluster(self):
        n = 24
        rng = np.random.default_rng(3)
        A = np.eye(n) + 1e-10 * goe(n, seed=4)
        A = (A + A.T) / 2.0
        lam0, V0 = fp32_start(A)
        lam, V, report = refine_eigh(A, lam0, V0)
        assert report.converged
        assert np.allclose(lam, 1.0, atol=1e-8)
        assert np.linalg.norm(V.T @ V - np.eye(n)) <= 200.0 * n * EPS64
        del rng


def clustered(n: int, clusters: int, spread: float, seed: int = 0) -> np.ndarray:
    """A random-basis matrix whose spectrum is ``clusters`` groups of
    standard deviation ``spread``."""
    rng = np.random.default_rng((seed, n, clusters, round(-np.log10(spread))))
    lam = clustered_spectrum(n, clusters=clusters, spread=spread, seed=rng)
    return symmetric_with_spectrum(lam, seed=rng)


def solve(A: np.ndarray, precision: str):
    return execute_plan(A, plan_evd(A.shape[0], method="proposed", precision=precision))


def unrefined(A: np.ndarray):
    """The mixed pipeline's result before refinement."""
    plan = plan_evd(A.shape[0], method="proposed", precision="mixed")
    return _pipeline_result(A, plan, resolve_policy("mixed"), ExecutionContext())


class TestClusterComponents:
    """Eigenvalues joined through a chain of close neighbours form one
    component: the update must not divide by the gap between any two of
    them, however far apart the chain's ends are."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pipeline_start_on_two_tight_clusters_converges(self, seed):
        # Two clusters of spread 1e-9: their ends sit a few 1e-9 apart,
        # near the error after one sweep.
        A = clustered(256, clusters=2, spread=1e-9, seed=seed)
        start = unrefined(A)
        lam, V, report = refine_eigh(A, start.eigenvalues, start.eigenvectors)
        assert report.converged
        assert report.clusters == 2
        norm = np.linalg.norm(A)
        bound = 200.0 * A.shape[0] * EPS64
        assert np.linalg.norm(A @ V - V * lam[None, :]) / norm <= bound
        assert np.linalg.norm(V.T @ V - np.eye(A.shape[0])) <= bound

    @pytest.mark.parametrize("spacing", [5e-5, 1e-4])
    def test_long_chain_is_one_component(self, spacing):
        # 64 eigenvalues in a row, each pair of neighbours inside the
        # grouping threshold but pairs further along the chain outside
        # it: dividing by those gaps stalls refinement.
        n = 256
        lam = np.sort(np.concatenate(
            [np.linspace(-1.0, 1.0, n - 64), 0.503 + spacing * np.arange(64)]
        ))
        A = symmetric_with_spectrum(lam, seed=64)
        start = unrefined(A)
        _, _, report = refine_eigh(A, start.eigenvalues, start.eigenvectors)
        assert report.converged
        assert report.iterations <= 4

    @pytest.mark.parametrize(
        "clusters,spread",
        [(c, s) for s in (1e-12, 1e-9, 1e-7, 1e-5) for c in (2, 8, 32)]
        + [(0, 0.0)],
        ids=lambda v: f"{v:g}",
    )
    def test_mixed_solve_never_escalates(self, clusters, spread):
        n = 256
        if clusters:
            A = clustered(n, clusters=clusters, spread=spread)
        else:  # eigenvalues 1e-8..1: one long chain of widening gaps
            A = symmetric_with_spectrum(np.logspace(-8, 0, n), seed=n)
        res = solve(A, "mixed")
        assert res.refinement is not None
        assert not res.refinement.escalated
        assert res.refinement.converged
        verify_evd(A, res).raise_if_failed()
        err = np.max(np.abs(res.eigenvalues - np.linalg.eigvalsh(A)))
        assert err <= 200.0 * n * EPS64 * np.linalg.norm(A)


class TestRayleighRitzGroups:
    def test_narrow_groups_share_one_product_with_a(self):
        from repro.precision.refine import _rayleigh_ritz_clusters

        class CountingMatrix(np.ndarray):
            products = 0

            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                if ufunc is np.matmul:
                    type(self).products += 1
                inputs = tuple(np.asarray(x) for x in inputs)
                return getattr(ufunc, method)(*inputs, **kwargs)

        A = goe(96, seed=5)
        lam, V = fp32_start(A)
        # Narrow groups, far below the batch width: A is read once.
        groups = [slice(3, 5), slice(10, 13), slice(40, 42), slice(90, 96)]
        lam_ref, V_ref = lam.copy(), V.copy()
        for sl in groups:  # the group-by-group definition
            Vc = V_ref[:, sl]
            M = Vc.T @ (A @ Vc)
            w, W = np.linalg.eigh((M + M.T) / 2.0)
            V_ref[:, sl] = Vc @ W
            lam_ref[sl] = w
        _rayleigh_ritz_clusters(A.view(CountingMatrix), V, lam, groups)
        assert CountingMatrix.products == 1
        assert np.max(np.abs(lam - lam_ref)) <= 1e-13 * np.linalg.norm(A)
        assert np.max(np.abs(np.abs(V) - np.abs(V_ref))) <= 1e-12


class TestStall:
    def test_garbage_start_raises_typed_stall(self):
        n = 48
        A = goe(n, seed=11)
        rng = np.random.default_rng(12)
        lam0 = np.sort(rng.standard_normal(n))
        V0 = rng.standard_normal((n, n))  # not remotely orthogonal
        with pytest.raises(RefinementStalled):
            refine_eigh(A, lam0, V0, max_iter=3)

    def test_stall_is_a_convergence_error(self):
        from repro.resilience import ConvergenceError

        assert issubclass(RefinementStalled, ConvergenceError)

    def test_already_converged_input_is_a_single_measurement(self):
        n = 40
        A = goe(n, seed=21)
        lam0, V0 = np.linalg.eigh(A)
        lam, V, report = refine_eigh(A, lam0, V0)
        assert report.converged
        assert report.iterations == 1
        assert np.array_equal(lam, np.asarray(lam0))

    def test_report_to_dict_round_trip_fields(self):
        n = 16
        A = goe(n, seed=31)
        lam0, V0 = fp32_start(A)
        _, _, report = refine_eigh(A, lam0, V0)
        d = report.to_dict()
        assert d["converged"] is True
        assert d["iterations"] == report.iterations
        assert len(d["residuals"]) == len(report.residuals)
