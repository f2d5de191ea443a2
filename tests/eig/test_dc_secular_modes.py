"""The production secular stage against the scalar oracle through the
full divide-and-conquer tree.

The acceptance grid: clustered spectra, heavy and *full* deflation,
``rho < 0`` reflection, and degenerate merge sizes — each solved by
``dc_eigh`` and by ``dc_eigh`` over the scalar secular oracles of
``tests/oracles.py``, and held to the oracle at machine-precision scale
(eigenvalues to ``~4*eps*||T||``, eigenvector orthogonality/residual at
roundoff).
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from repro.backend.context import ExecutionContext
from repro.band.storage import dense_from_band
from repro.eig import dc as dc_module
from repro.eig.dc import dc_eigh
from tests.oracles import dc_eigh_scalar

_EPS = np.finfo(np.float64).eps


def tridiag_scale(d, e):
    T = dense_from_band(d, e)
    return max(float(np.linalg.norm(T, ord=1)), 1.0), T


def solve_both(d, e, base_size=24, merges=True, **kwargs):
    """Both solves over ``base_size``-wide leaves.  Unless ``merges`` is
    false the tree must merge: a single leaf is LAPACK in both solves and
    would compare nothing of the secular stage."""
    lam_s, U_s = dc_eigh_scalar(d, e, base_size=base_size, **kwargs)
    lam_b, U_b, stats = dc_eigh(
        d, e, base_size=base_size, return_stats=True, **kwargs
    )
    assert stats.merges > 0 or not merges
    return lam_s, U_s, lam_b, U_b


def assert_oracle_agreement(d, e, base_size=24, merges=True):
    n = d.size
    scale, T = tridiag_scale(d, e)
    lam_s, U_s, lam_b, U_b = solve_both(d, e, base_size=base_size, merges=merges)
    # Eigenvalues: batched tracks the scalar oracle to a few eps of ||T||.
    assert np.max(np.abs(lam_s - lam_b)) <= 4.0 * _EPS * scale
    # Both factorizations stand on their own at machine precision.
    for lam, U in ((lam_s, U_s), (lam_b, U_b)):
        assert np.linalg.norm(U.T @ U - np.eye(n)) < n * 2e-14
        assert np.linalg.norm(T @ U - U * lam) < 5e-13 * max(np.linalg.norm(T), 1.0)
    # And against an independent reference.
    lref = eigh_tridiagonal(d, e, eigvals_only=True) if n > 1 else np.sort(d)
    assert np.max(np.abs(lam_b - lref)) < 5e-13 * scale


class TestOracleGrid:
    def test_random_dense_spectrum(self, rng):
        assert_oracle_agreement(rng.standard_normal(150), rng.standard_normal(149))

    def test_clustered_spectrum(self, rng):
        # Blocks of (near-)equal diagonal entries with weak coupling:
        # merge poles land in tight clusters and deflation fires heavily.
        d = np.repeat([1.0, 1.0 + 1e-9, 2.0], 40)
        e = np.full(d.size - 1, 1e-8)
        assert_oracle_agreement(d, e)

    def test_full_deflation_merges(self, rng):
        # Constant diagonal + negligible coupling: every z entry deflates,
        # so merges hit the nd.size == 0 early-out in production and
        # in the oracle.
        d = np.ones(96)
        e = np.full(95, 1e-16)
        lam_s, U_s, lam_b, U_b = solve_both(d, e)
        assert np.array_equal(lam_s, lam_b)
        assert np.allclose(lam_b, 1.0)
        assert np.linalg.norm(U_b.T @ U_b - np.eye(96)) < 1e-12

    def test_negative_rho_reflection(self, rng):
        # All-negative couplings force the rho < 0 reflection every merge.
        d = rng.standard_normal(120)
        e = -np.abs(rng.standard_normal(119)) - 0.1
        assert_oracle_agreement(d, e)

    def test_mixed_sign_couplings(self, rng):
        d = rng.standard_normal(130)
        e = rng.standard_normal(129)
        e[::3] *= -1.0
        assert_oracle_agreement(d, e)

    def test_wilkinson_pairs(self, rng):
        # Wilkinson W21+: eigenvalues in near-degenerate pairs.
        m = 10
        d = np.abs(np.arange(-m, m + 1)).astype(np.float64)
        e = np.ones(2 * m)
        assert_oracle_agreement(d, e, base_size=5)

    def test_graded_spectrum(self, rng):
        d = np.geomspace(1.0, 1e10, 100)
        e = rng.standard_normal(99)
        lam_s, _, lam_b, _ = solve_both(d, e)
        assert np.max(np.abs(lam_s - lam_b) / (1.0 + np.abs(lam_s))) < 1e-13


class TestGolubKahan:
    def test_gk_solve_matches_scalar_secular_oracle(self, rng):
        # The Golub-Kahan tridiagonal of an upper bidiagonal (q, f): zero
        # diagonal, off-diagonal (q_0, f_0, q_1, ..., q_{n-1}), eigenvalues
        # the +-sigma pairs of the bidiagonal.  (q, f) follow the chi
        # bidiagonal model of an n x n Gaussian matrix (Dumitriu-Edelman).
        # Its size 2n = 160 is above the 128-wide D&C leaf, so both solves
        # run a merge.
        n = 80
        d, e = np.zeros(2 * n), np.empty(2 * n - 1)
        e[0::2] = np.sqrt(rng.chisquare(np.arange(n, 0, -1)))
        e[1::2] = np.sqrt(rng.chisquare(np.arange(n - 1, 0, -1)))
        lam_b, _, stats = dc_eigh(d, e, return_stats=True)
        assert stats.merges > 0
        lam_s, _ = dc_eigh_scalar(d, e, compute_vectors=False)
        s_b = np.maximum(lam_b[2 * n - 1 : n - 1 : -1], 0.0)
        s_s = np.maximum(lam_s[2 * n - 1 : n - 1 : -1], 0.0)
        assert np.max(np.abs(s_b - s_s)) < 1e-12 * max(s_s[0], 1.0)


class TestDegenerateMerges:
    """Tiny secular problems: N = 1 and N = 2 non-deflated survivors."""

    def test_n4_base3_forces_tiny_merges(self, rng):
        # n=4 with base_size=3 splits 2+2: a single merge of size 4.
        d = rng.standard_normal(4)
        e = rng.standard_normal(3)
        assert_oracle_agreement(d, e, base_size=3)

    def test_merge_with_single_survivor(self, rng):
        # Deflation wipes out all but ~one z entry: secular size 1-2.
        d = np.concatenate([np.ones(24), np.full(24, 2.0)])
        e = np.full(47, 1e-16)
        e[23] = 0.3  # one real coupling at the top tear
        lam_s, _, lam_b, U_b = solve_both(d, e)
        assert np.max(np.abs(lam_s - lam_b)) <= 4.0 * _EPS * 3.0
        assert np.linalg.norm(U_b.T @ U_b - np.eye(48)) < 1e-12

    # n = 4 over 3-wide leaves is one merge of two 2 x 2 leaves torn at
    # e[1].  With e[0] = e[2] = 0 the leaves are diagonal, so two of the
    # four z entries are zero and deflate; equal poles d[1] = d[2] then
    # Givens-deflate one of the other two.  A negative e[1] makes the
    # merge's rho negative (the reflection).
    @pytest.mark.parametrize(
        "d, rho, survivors",
        [
            ([0.3, 1.0, 2.0, -0.7], 0.5, 2),
            ([0.3, 1.0, 1.0, -0.7], 0.5, 1),
            ([0.3, 1.0, 2.0, -0.7], -0.5, 2),
            ([0.3, 1.0, 1.0, -0.7], -0.5, 1),
        ],
    )
    def test_dlaed9_tiny_survivors(self, monkeypatch, d, rho, survivors):
        d, e = np.array(d), np.array([0.0, rho, 0.0])
        lam_s, U_s = dc_eigh_scalar(d, e, base_size=3)
        sizes = []
        production = dc_module.rank_one_eigh

        def spy(dk, zk, rhok):
            sizes.append(dk.size)
            return production(dk, zk, rhok)

        monkeypatch.setattr(dc_module, "rank_one_eigh", spy)
        lam, U, stats = dc_eigh(d, e, base_size=3, return_stats=True)
        assert stats.merges > 0 and sizes == [survivors]
        T = dense_from_band(d, e)
        assert np.max(np.abs(lam - np.linalg.eigvalsh(T))) <= 8.0 * _EPS * 2.0
        assert np.max(np.abs(lam - lam_s)) <= 4.0 * _EPS * 2.0
        assert np.linalg.norm(U.T @ U - np.eye(4)) < 1e-14
        assert np.linalg.norm(T @ U - U * lam) < 1e-14

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_tiny_problems(self, rng, n):
        d = rng.standard_normal(n)
        e = rng.standard_normal(max(n - 1, 0))
        # n <= 3 is a single leaf; from n = 4 the tree merges.
        assert_oracle_agreement(d, e, base_size=3, merges=n > 3)


class TestLevelOrderExecution:
    def test_stats_expose_tree_shape(self, rng):
        d = rng.standard_normal(200)
        e = rng.standard_normal(199)
        _, _, stats = dc_eigh(d, e, return_stats=True, base_size=10)
        assert stats.leaves >= 2
        assert stats.levels >= 3
        assert stats.merges == stats.leaves - 1
        # Merge sizes are recorded bottom-up: never decreasing level sums.
        assert max(stats.sizes) == 200

    def test_stage_events_emitted_per_substage(self, rng):
        events = []
        ctx = ExecutionContext(hooks=[events.append])
        d = rng.standard_normal(80)
        e = rng.standard_normal(79)
        dc_eigh(d, e, ctx=ctx, base_size=24)
        stages = {ev.stage for ev in events}
        assert {"dc_leaf", "dc_deflate", "dc_secular", "dc_gemm"} <= stages
        assert {"dc_leaf", "dc_deflate", "dc_secular", "dc_gemm"} <= set(
            ctx.stage_times
        )
        # Secular events carry the problem size for attribution.
        sec = [ev for ev in events if ev.stage == "dc_secular" and ev.phase == "end"]
        assert sec and all(ev.meta["n"] >= 1 for ev in sec)
        assert all(ev.duration_s >= 0.0 for ev in sec)

    def test_eigenvalues_only_matches_vector_path_both_modes(self, rng):
        d = rng.standard_normal(90)
        e = rng.standard_normal(89)
        for solve in (dc_eigh_scalar, dc_eigh):
            lam_v, _ = solve(d, e, compute_vectors=True, base_size=24)
            lam_n, U = solve(d, e, compute_vectors=False, base_size=24)
            assert U is None
            assert np.max(np.abs(lam_v - lam_n)) < 1e-13

    def test_unknown_secular_mode_rejected(self, rng):
        # There is one secular engine: the retired knob fails loudly.
        with pytest.raises(TypeError):
            dc_eigh(np.zeros(8), np.zeros(7), secular_mode="turbo")
