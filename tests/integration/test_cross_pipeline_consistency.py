"""Cross-pipeline consistency: independent decompositions of the same
matrix must agree on shared invariants."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.bench.workloads import goe
from tests.oracles import jacobi_eigh


class TestJacobiVsPipeline:
    def test_jacobi_agrees_with_pipeline(self):
        A = goe(32, seed=5)
        lam_j, _ = jacobi_eigh(A, compute_vectors=False)
        res = repro.eigh(A, compute_vectors=False, bandwidth=4, second_block=8)
        assert np.max(np.abs(lam_j - res.eigenvalues)) < 1e-10


class TestPartialVsFull:
    @pytest.mark.parametrize("window", [(0, 4), (20, 29), (35, 39)])
    def test_partial_matches_full(self, window):
        A = goe(40, seed=9)
        full = repro.eigh(A, bandwidth=4, second_block=8)
        part = repro.eigh_partial(A, window, bandwidth=4, second_block=8)
        lo, hi = window
        assert np.max(np.abs(part.eigenvalues - full.eigenvalues[lo : hi + 1])) < 1e-9
        # Vectors agree up to sign.
        for j in range(hi - lo + 1):
            dot = abs(part.eigenvectors[:, j] @ full.eigenvectors[:, lo + j])
            assert dot > 1.0 - 1e-7
