"""``execute_plan`` is bit-identical to hand-composed stage dispatch.

The tentpole refactor's contract: routing ``eigh``/``eigh_partial``/
``svd`` through the shared plan runner must not change a single bit of
any NumPy result.  The oracle here composes the stages manually — call
``tridiagonalize``, pick the solver, apply the back transformation —
exactly as the pre-plan entry points did inline, and asserts bitwise
equality over the full preset x solver x vectors grid, including the
n = 1 / n = 2 degenerate sizes.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.backend import ExecutionContext
from repro.core.svd import svd
from repro.eig import dc_eigh, eigh_bisect, tridiag_qr_eigh
from repro.plan import make_solver_config, plan_evd, solve_tridiagonal_planned
from tests.oracles import dc_eigh_scalar

PRESET_KWARGS = {
    "proposed": dict(method="dbbr"),
    "magma": dict(method="sbr", max_sweeps=1),
    "cusolver": dict(method="direct"),
    "plasma": dict(method="tile", max_sweeps=1),
}


def goe(n: int, seed: int = 0) -> np.ndarray:
    g = np.random.default_rng(seed).standard_normal((n, n))
    return (g + g.T) / 2.0


def oracle_eigh(A, method, solver, compute_vectors, secular_mode="batched"):
    """The pre-refactor ``eigh`` body, composed by hand; ``secular_mode=
    "scalar"`` solves with the tests-side scalar secular oracle."""
    ctx = ExecutionContext(backend="numpy")
    tri = repro.tridiagonalize(A, backend=ctx, **PRESET_KWARGS[method])
    if solver == "dc":
        solve = dc_eigh if secular_mode == "batched" else dc_eigh_scalar
        lam, U = solve(tri.d, tri.e, compute_vectors=compute_vectors, ctx=ctx)
    elif solver == "qr":
        lam, U = tridiag_qr_eigh(tri.d, tri.e, compute_vectors=compute_vectors)
    else:
        lam, U = eigh_bisect(tri.d, tri.e, compute_vectors=compute_vectors)
    V = None
    if compute_vectors:
        V = np.array(U, copy=True)
        tri.apply_q(V)
    return lam, V, tri


def assert_same(a: np.ndarray | None, b: np.ndarray | None) -> None:
    if a is None or b is None:
        assert a is None and b is None
        return
    np.testing.assert_array_equal(a, b)
    assert a.dtype == b.dtype and a.shape == b.shape


@pytest.mark.parametrize("n", [1, 2, 7, 24])
@pytest.mark.parametrize("method", sorted(PRESET_KWARGS))
@pytest.mark.parametrize("solver", ["dc", "qr", "bisect"])
@pytest.mark.parametrize("compute_vectors", [True, False])
def test_eigh_matches_manual_composition(n, method, solver, compute_vectors):
    A = goe(n, seed=n)
    got = repro.eigh(A, method=method, solver=solver,
                     compute_vectors=compute_vectors)
    lam, V, tri = oracle_eigh(A, method, solver, compute_vectors)
    assert_same(got.eigenvalues, lam)
    assert_same(got.eigenvectors, V)
    np.testing.assert_array_equal(got.tridiag.d, tri.d)
    np.testing.assert_array_equal(got.tridiag.e, tri.e)
    assert got.solver == solver


@pytest.mark.parametrize("n", [1, 2, 3, 64, 150])
@pytest.mark.parametrize("solver", ["dc", "qr", "bisect"])
def test_magma_back_transform_is_ormqr_order(n, solver):
    """``magma`` applies ``Q_sbr`` in MAGMA's ``ormqr`` order: ``Q1``, then
    the SBR panel blocks one by one, rightmost first — bit for bit."""
    A = goe(n, seed=n)
    got = repro.eigh(A, method="magma", solver=solver)
    tri = got.tridiag
    _, U = solve_tridiagonal_planned(tri.d, tri.e, make_solver_config(solver, True))
    V = np.array(U, copy=True)
    tri.bc_result.apply_q1(V)
    for blk in reversed(tri.band_result.blocks):
        blk.apply_left(V)
    assert_same(got.eigenvectors, V)


@pytest.mark.parametrize("secular_mode", ["batched", "scalar"])
def test_secular_modes_bitexact(secular_mode):
    """Plans run the one secular engine; at this size (a single leaf)
    the scalar ``dc_eigh`` oracle composes to the same bits."""
    A = goe(24, seed=9)
    got = repro.eigh(A, method="proposed")
    lam, V, _ = oracle_eigh(A, "proposed", "dc", True, secular_mode=secular_mode)
    assert_same(got.eigenvalues, lam)
    assert_same(got.eigenvectors, V)


@pytest.mark.parametrize("n", [1, 2, 16])
def test_dense_tier_matches_stacked(n):
    A = goe(n, seed=n + 100)
    got = repro.eigh(A, method="dense")
    ref = repro.eigh_stacked(A[None])[0]
    assert_same(got.eigenvalues, ref.eigenvalues)
    assert_same(got.eigenvectors, ref.eigenvectors)
    assert got.tridiag is None


@pytest.mark.parametrize("method", ["proposed", "cusolver"])
def test_eigh_partial_matches_manual_composition(method):
    from repro.eig import eigvals_bisect, inverse_iteration

    A = goe(20, seed=3)
    lo, hi = 2, 6
    got = repro.eigh_partial(A, (lo, hi), method=method)

    ctx = ExecutionContext(backend="numpy")
    tri = repro.tridiagonalize(A, backend=ctx, **PRESET_KWARGS[method])
    idx = np.arange(lo, hi + 1)
    lam = eigvals_bisect(tri.d, tri.e, indices=idx)
    U = np.zeros((20, idx.size))
    scale = max(float(np.max(np.abs(lam))), 1.0)
    cluster = []
    for j in range(idx.size):
        against = cluster if (j > 0 and lam[j] - lam[j - 1] <= 1e-3 * scale) else None
        if against is None:
            cluster = []
        v = inverse_iteration(tri.d, tri.e, float(lam[j]), against=against)
        U[:, j] = v
        cluster.append(v)
    tri.apply_q(U)
    assert_same(got.eigenvalues, lam)
    assert_same(got.eigenvectors, U)


@pytest.mark.parametrize("compute_vectors", [True, False])
def test_planned_tridiagonal_solve_is_dc_eigh(compute_vectors):
    """The SVD path's solve: ``solve_tridiagonal_planned`` must be a pure
    dispatch — bit-identical to calling the solver directly."""
    rng = np.random.default_rng(5)
    d = rng.standard_normal(17)
    e = rng.standard_normal(16)
    ctx = ExecutionContext(backend="numpy")
    cfg = make_solver_config("dc", compute_vectors)
    lam, U = solve_tridiagonal_planned(d, e, cfg, ctx=ctx)
    ctx2 = ExecutionContext(backend="numpy")
    lam_ref, U_ref = dc_eigh(d, e, compute_vectors=compute_vectors, ctx=ctx2)
    assert_same(lam, lam_ref)
    assert_same(U, U_ref)


@pytest.mark.parametrize("solver", ["qr", "bisect"])
def test_planned_tridiagonal_solve_other_kinds(solver):
    rng = np.random.default_rng(6)
    d = rng.standard_normal(12)
    e = rng.standard_normal(11)
    cfg = make_solver_config(solver, True)
    lam, U = solve_tridiagonal_planned(d, e, cfg)
    ref = tridiag_qr_eigh if solver == "qr" else eigh_bisect
    lam_ref, U_ref = ref(d, e, compute_vectors=True)
    assert_same(lam, lam_ref)
    assert_same(U, U_ref)


def test_svd_still_correct_through_planned_solve():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((12, 8))
    s, U, V = svd(A)
    np.testing.assert_allclose(U @ np.diag(s) @ V.T, A, atol=1e-10)
    with pytest.raises(TypeError, match="secular_mode"):
        svd(A, secular_mode="turbo")


def test_stage_events_preserved():
    """The plan runner must emit the same stage names the entry points
    always did (dashboards and the metrics layer key on them)."""
    events = []
    ctx = ExecutionContext(backend="numpy", hooks=[lambda ev: events.append(ev.stage)])
    repro.eigh(goe(16, seed=1), method="proposed", backend=ctx)
    assert "tridiagonalize" in events
    assert "tridiag_solver" in events
    assert "back_transform" in events


def test_execute_plan_rejects_mismatched_n():
    from repro.plan import PlanError, execute_plan

    plan = plan_evd(8, "proposed")
    with pytest.raises(PlanError, match="resolved for n = 8"):
        execute_plan(goe(9), plan)
