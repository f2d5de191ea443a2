"""``execute_plan`` is bit-identical to hand-composed stage dispatch.

The plan runner's contract: routing ``eigh``/``eigh_partial``
through the shared plan runner must not change a single bit of
any NumPy result.  The oracle here composes the stages manually — call
``tridiagonalize``, solve the tridiagonal, apply the back
transformation — exactly as the pre-plan entry points did inline, and
asserts bitwise equality over the full preset x vectors grid, including
the n = 1 / n = 2 degenerate sizes.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.backend import ExecutionContext
from repro.eig import dc_eigh, select_eigh
from repro.plan import make_solver_config, plan_evd, solve_tridiagonal_planned
from tests.oracles import dc_eigh_scalar

PRESET_KWARGS = {
    "proposed": dict(method="dbbr"),
    "magma": dict(method="sbr", max_sweeps=1),
    "cusolver": dict(method="direct"),
}


def goe(n: int, seed: int = 0) -> np.ndarray:
    g = np.random.default_rng(seed).standard_normal((n, n))
    return (g + g.T) / 2.0


def oracle_eigh(A, method, compute_vectors, secular_mode="batched"):
    """The pre-refactor ``eigh`` body, composed by hand; ``secular_mode=
    "scalar"`` solves with the tests-side scalar secular oracle."""
    ctx = ExecutionContext(backend="numpy")
    tri = repro.tridiagonalize(A, backend=ctx, **PRESET_KWARGS[method])
    solve = dc_eigh if secular_mode == "batched" else dc_eigh_scalar
    lam, U = solve(tri.d, tri.e, compute_vectors=compute_vectors, ctx=ctx)
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


# ``solver`` is the result's solver tag, divide and conquer on every
# tridiagonal plan; the parameter keeps the grid's test ids.
@pytest.mark.parametrize("n", [1, 2, 7, 24])
@pytest.mark.parametrize("method", sorted(PRESET_KWARGS))
@pytest.mark.parametrize("solver", ["dc"])
@pytest.mark.parametrize("compute_vectors", [True, False])
def test_eigh_matches_manual_composition(n, method, solver, compute_vectors):
    A = goe(n, seed=n)
    got = repro.eigh(A, method=method, compute_vectors=compute_vectors)
    lam, V, tri = oracle_eigh(A, method, compute_vectors)
    assert_same(got.eigenvalues, lam)
    assert_same(got.eigenvectors, V)
    np.testing.assert_array_equal(got.tridiag.d, tri.d)
    np.testing.assert_array_equal(got.tridiag.e, tri.e)
    assert got.solver == solver


@pytest.mark.parametrize("n", [1, 2, 3, 64, 150])
@pytest.mark.parametrize("solver", ["dc"])
def test_magma_back_transform_is_ormqr_order(n, solver):
    """``magma`` applies ``Q_sbr`` in MAGMA's ``ormqr`` order: ``Q1``, then
    the SBR panel blocks one by one, rightmost first — bit for bit."""
    A = goe(n, seed=n)
    got = repro.eigh(A, method="magma")
    assert got.solver == solver
    tri = got.tridiag
    _, U = solve_tridiagonal_planned(tri.d, tri.e, make_solver_config(True))
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
    lam, V, _ = oracle_eigh(A, "proposed", True, secular_mode=secular_mode)
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
    A = goe(20, seed=3)
    lo, hi = 2, 6
    got = repro.eigh_partial(A, (lo, hi), method=method)

    ctx = ExecutionContext(backend="numpy")
    tri = repro.tridiagonalize(A, backend=ctx, **PRESET_KWARGS[method])
    lam, U = select_eigh(tri.d, tri.e, lo, hi)
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
    cfg = make_solver_config(compute_vectors)
    lam, U = solve_tridiagonal_planned(d, e, cfg, ctx=ctx)
    ctx2 = ExecutionContext(backend="numpy")
    lam_ref, U_ref = dc_eigh(d, e, compute_vectors=compute_vectors, ctx=ctx2)
    assert_same(lam, lam_ref)
    assert_same(U, U_ref)


def test_planned_tridiagonal_solve_rejects_other_kinds():
    """A plan whose solver is not divide and conquer (the dense tier's
    config, or a retired kind) cannot reach the tridiagonal solve."""
    from repro.plan import PlanError, SolverConfig

    d, e = np.ones(4), np.ones(3)
    for kind in ("dense", "bisect"):
        with pytest.raises(PlanError, match="valid choices are 'dc'$"):
            solve_tridiagonal_planned(d, e, SolverConfig(kind=kind))


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
