"""Convergence guards: iterative kernels raise a typed, contextful
:class:`~repro.resilience.ConvergenceError` instead of spinning or
silently returning unconverged roots."""

from __future__ import annotations

import numpy as np
import pytest

from repro.eig.secular import rank_one_eigh
from repro.resilience import (
    ConvergenceError,
    FaultSpec,
    clear_faults,
    injected_faults,
)
from tests.oracles import rank_one_eigh_scalar


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    clear_faults()
    yield
    clear_faults()


def secular_problem(n: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    d = np.sort(rng.standard_normal(n))
    z = rng.standard_normal(n)
    z /= np.linalg.norm(z)
    return d, z, 1.0


def zero_weight_problem(n: int, seed: int = 0):
    """A secular problem with one ``z`` entry left exactly zero: deflation
    would have removed it, and ``dlaed9``'s ``dlaed4`` cannot converge on
    a root next to it (``INFO = 1``)."""
    d, z, rho = secular_problem(n, seed)
    z[n // 2] = 0.0
    return d, z, rho


class TestSecularGuard:
    def test_undeflated_zero_weight_raises_typed(self):
        d, z, rho = zero_weight_problem(64, seed=1)
        with pytest.raises(ConvergenceError) as info:
            rank_one_eigh(d, z, rho)
        exc = info.value
        assert exc.site == "secular.newton"
        assert "INFO=1" in str(exc)
        # Names the offending root: one of the two beside the zero weight.
        assert exc.indices in ([31], [32])

    @pytest.mark.parametrize("mode", ["batched", "scalar"])
    def test_default_budget_converges(self, mode):
        solve = rank_one_eigh if mode == "batched" else rank_one_eigh_scalar
        d, z, rho = secular_problem(64, seed=2)
        lam, _ = solve(d, z, rho)
        # Interlacing: d_i < lam_i < d_{i+1} (rho > 0).
        assert np.all(lam[:-1] >= d[:-1])
        assert np.all(np.isfinite(lam))

    def test_guard_is_catchable_as_linalgerror(self):
        d, z, rho = zero_weight_problem(32, seed=3)
        with pytest.raises(np.linalg.LinAlgError):
            rank_one_eigh(d, z, rho)


class TestInjectedGuards:
    def test_secular_site_fires_before_any_work(self):
        d, z, rho = secular_problem(16, seed=6)
        with injected_faults(FaultSpec("secular.newton", "convergence")):
            with pytest.raises(ConvergenceError):
                rank_one_eigh(d, z, rho)
