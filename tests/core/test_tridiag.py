"""Unit tests for the top-level tridiagonalization driver."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.band.storage import dense_from_band
from repro.core.tridiag import auto_params, tridiagonalize
from repro.core.validation import OperandShapeError
from repro.resilience import ReproError
from tests.conftest import make_symmetric


class TestDriver:
    @pytest.mark.parametrize("method", ["dbbr", "sbr", "direct", "tile"])
    def test_reconstruction(self, method):
        A = make_symmetric(48, seed=42)
        res = tridiagonalize(A, method=method, bandwidth=4, second_block=12)
        T = dense_from_band(res.d, res.e)
        Q = res.q()
        assert np.linalg.norm(Q @ T @ Q.T - A) / np.linalg.norm(A) < 1e-12

    @pytest.mark.parametrize("method", ["dbbr", "sbr", "direct", "tile"])
    def test_same_spectrum_across_methods(self, method):
        A = make_symmetric(40, seed=43)
        lam_ref = np.linalg.eigvalsh(A)
        res = tridiagonalize(A, method=method, bandwidth=3, second_block=9)
        T = dense_from_band(res.d, res.e)
        assert np.max(np.abs(np.linalg.eigvalsh(T) - lam_ref)) < 1e-11

    def test_apply_q_matches_materialized(self, rng):
        A = make_symmetric(30, seed=44)
        res = tridiagonalize(A, method="dbbr", bandwidth=3, second_block=6)
        X = rng.standard_normal((30, 4))
        Y = X.copy()
        res.apply_q(Y)
        assert np.allclose(Y, res.q() @ X, atol=1e-12)

    def test_apply_q_transpose_inverts(self, rng):
        A = make_symmetric(26, seed=45)
        for method in ["dbbr", "sbr", "direct", "tile"]:
            res = tridiagonalize(A, method=method, bandwidth=3, second_block=6)
            X = rng.standard_normal((26, 3))
            Y = X.copy()
            res.apply_q(Y)
            res.apply_q_transpose(Y)
            assert np.allclose(X, Y, atol=1e-12), method

    @pytest.mark.parametrize("method", ["dbbr", "sbr", "direct", "tile"])
    @pytest.mark.parametrize("shape", [(45, 3), (35, 3), (40,), (40, 2, 2)])
    def test_wrong_shape_operand_is_typed_error(self, method, shape):
        # A taller operand used to be half-updated in silence by the tile
        # path, and a 1-D one raised a bare IndexError.
        res = tridiagonalize(
            make_symmetric(40, seed=47), method=method, bandwidth=4, second_block=8
        )
        for apply in (res.apply_q, res.apply_q_transpose):
            X = np.ones(shape)
            with pytest.raises(OperandShapeError, match=r"\(40, k\)"):
                apply(X)
            assert np.all(X == 1.0)
        assert issubclass(OperandShapeError, ReproError)
        assert issubclass(OperandShapeError, ValueError)

    def test_pipelined_and_sequential_identical(self):
        from repro.core.bulge_chasing import bulge_chase
        from tests.conftest import chase_in_schedule

        A = make_symmetric(36, seed=46)
        kw = dict(method="dbbr", bandwidth=4, second_block=8)
        r = tridiagonalize(A, **kw)
        ref = bulge_chase(r.band_result.band, 4)
        # The pipelined schedule only reorders commuting tasks, so the
        # sequential task kernel run in round order is bit-identical to
        # the sequential chase, whatever the in-flight cap.
        for cap in (None, 1, 2, 5):
            r1, _ = chase_in_schedule(r.band_result.band, 4, max_sweeps=cap)
            assert np.array_equal(r1.d, ref.d), cap
            assert np.array_equal(r1.e, ref.e), cap
        # The wavefront-batched engine evaluates the same updates with a
        # different summation order, so it agrees to roundoff instead —
        # also with one sweep in flight (the magma/plasma schedule).
        for cap in (None, 1):
            r3 = tridiagonalize(A, max_sweeps=cap, **kw)
            assert np.allclose(r3.d, ref.d, atol=1e-12), cap
            assert np.allclose(r3.e, ref.e, atol=1e-12), cap

    def test_unknown_bc_driver_rejected(self):
        # Every chase runs the wavefront engine; there is no driver knob
        # to pass.
        with pytest.raises(TypeError, match="bc_driver"):
            tridiagonalize(make_symmetric(12), bc_driver="warp")

    def test_pipeline_stats_present_when_pipelined(self):
        # Every two-stage result carries schedule stats: a sequential
        # chase is the same schedule with one sweep in flight.
        A = make_symmetric(30, seed=47)
        for method in ("dbbr", "sbr", "tile"):
            res = tridiagonalize(A, method=method, bandwidth=3, second_block=6)
            assert res.pipeline_stats is not None, method
            assert res.pipeline_stats.total_tasks > 0
            assert res.pipeline_stats.max_parallel > 1
        assert tridiagonalize(A, method="direct").pipeline_stats is None
        for preset in ("magma", "plasma"):
            stats = repro.eigh(A, method=preset).tridiag.pipeline_stats
            assert stats is not None and stats.max_parallel == 1, preset

    def test_max_sweeps_forwarded(self):
        A = make_symmetric(30, seed=48)
        res = tridiagonalize(
            A, method="dbbr", bandwidth=3, second_block=6, max_sweeps=2
        )
        assert res.pipeline_stats.max_parallel <= 2

    def test_auto_params(self):
        A = make_symmetric(64, seed=49)
        res = tridiagonalize(A)  # everything defaulted
        assert res.bandwidth >= 1
        T = dense_from_band(res.d, res.e)
        assert np.max(
            np.abs(np.linalg.eigvalsh(T) - np.linalg.eigvalsh(A))
        ) < 1e-11

    def test_auto_params_contract(self):
        for n in [8, 50, 300, 5000]:
            b, k = auto_params(n)
            assert b >= 2 and k >= b and k % b == 0

    @pytest.mark.parametrize("n", range(5, 17))
    def test_auto_params_tiny_n_clamped(self, n):
        # k must never exceed n (DBBR would defer updates past the
        # trailing edge); the invariants still hold at every tiny size.
        b, k = auto_params(n)
        assert b >= 2 and k >= b and k % b == 0
        assert k <= n

    @pytest.mark.parametrize("n", range(5, 17))
    def test_tiny_n_end_to_end(self, n):
        # The defaulted driver must actually work at these sizes, not
        # just produce admissible parameters.
        A = make_symmetric(n, seed=60 + n)
        res = tridiagonalize(A)
        T = dense_from_band(res.d, res.e)
        assert np.max(
            np.abs(np.linalg.eigvalsh(T) - np.linalg.eigvalsh(A))
        ) < 1e-11

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            tridiagonalize(make_symmetric(10), method="quantum")

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            tridiagonalize(np.zeros((3, 4)))

    def test_second_block_rounded_to_multiple(self):
        A = make_symmetric(40, seed=50)
        # k=10 with b=4 -> rounded down to 8.
        res = tridiagonalize(A, method="dbbr", bandwidth=4, second_block=10)
        T = dense_from_band(res.d, res.e)
        assert np.max(
            np.abs(np.linalg.eigvalsh(T) - np.linalg.eigvalsh(A))
        ) < 1e-11

    def test_back_transform_method_recorded(self):
        # One SBR back transform; its group width follows the method:
        # b for SBR (MAGMA's ormqr order), k for DBBR (Figure 13).
        A = make_symmetric(24, seed=51)
        res = tridiagonalize(A, method="sbr", bandwidth=3)
        assert res.back_transform_method == "incremental"
        assert res.back_transform_group == 3
        res = tridiagonalize(A, method="dbbr", bandwidth=3, second_block=9)
        assert res.back_transform_group == 9

    def test_syr2k_kind_removed(self):
        # DBBR's deferred update runs the two-GEMM syr2k; no schedule knob.
        with pytest.raises(TypeError, match="syr2k_kind"):
            tridiagonalize(make_symmetric(12), syr2k_kind="square")

    def test_back_transform_knobs_removed(self):
        A = make_symmetric(12, seed=52)
        with pytest.raises(TypeError, match="back_transform"):
            tridiagonalize(A, back_transform="blocked")
        with pytest.raises(TypeError, match="back_transform_group"):
            tridiagonalize(A, back_transform_group=8)
