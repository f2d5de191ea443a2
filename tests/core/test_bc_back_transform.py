"""Unit tests for the diamond-blocked BC back transformation (``Q1``)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.band.ops import random_symmetric_band
from repro.core import load_tridiag, save_tridiag, tridiagonalize
from repro.core.bc_back_transform import apply_q1_blocks, blocked_bc_back_time
from repro.core.bc_wavefront import bulge_chase_wavefront
from repro.core.bulge_chasing import BulgeChasingResult, bulge_chase
from repro.gpusim import H100
from repro.gpusim.roofline import sustained_gemm_tflops
from tests.conftest import blocks_from_log


@pytest.fixture
def chase(rng):
    n, b = 36, 4
    A = random_symmetric_band(n, b, rng)
    return n, b, bulge_chase(A, b)


class TestBlocking:
    @pytest.mark.parametrize("group", [1, 2, 4, 8, 64])
    def test_matches_scalar_application(self, chase, rng, group):
        n, b, bc = chase
        blocks = blocks_from_log(bc, b, group)
        X = rng.standard_normal((n, 6))
        Y_scalar = X.copy()
        bc.apply_q1(Y_scalar)
        Y_blocked = X.copy()
        apply_q1_blocks(blocks, Y_blocked)
        assert np.allclose(Y_scalar, Y_blocked, atol=1e-12)

    def test_transpose_matches(self, chase, rng):
        n, b, bc = chase
        blocks = blocks_from_log(bc, b, 4)
        X = rng.standard_normal((n, 3))
        Y1 = X.copy()
        bc.apply_q1_transpose(Y1)
        Y2 = X.copy()
        apply_q1_blocks(blocks, Y2, transpose=True)
        assert np.allclose(Y1, Y2, atol=1e-12)

    def test_blocked_q_is_orthogonal(self, chase):
        n, b, bc = chase
        Q = np.eye(n)
        apply_q1_blocks(blocks_from_log(bc, b, 8), Q)
        assert np.linalg.norm(Q.T @ Q - np.eye(n)) < 1e-11

    def test_group_one_is_one_block_per_reflector(self, chase):
        _, b, bc = chase
        blocks = blocks_from_log(bc, b, 1)
        assert blocks.count == len(bc.reflectors)
        assert blocks.V.shape[2] == 1

    def test_blocks_never_mix_steps(self, chase):
        # A diamond block holds one step of g consecutive sweeps: block
        # k's offset is i0 + 1 + t*b with i0 a multiple of g.
        _, b, bc = chase
        g = 4
        blocks = blocks_from_log(bc, b, g)
        keys = {(r.sweep // g, r.step) for r in bc.reflectors}
        assert blocks.count == len(keys)
        expected = sorted(keys, key=lambda k: (k[0], -k[1]))
        assert blocks.offsets.tolist() == [i * g + 1 + t * b for i, t in expected]

    def test_block_row_spans_are_contiguous_windows(self, chase):
        _, b, bc = chase
        for g in (1, 4, 8):
            # g reflectors shifted by one row each span b + g - 1 rows.
            assert blocks_from_log(bc, b, g).V.shape[1:] == (b + g - 1, g)

    def test_invalid_group(self, chase):
        _, b, bc = chase
        with pytest.raises(ValueError):
            blocks_from_log(bc, b, 0)

    def test_empty_reflector_log(self, rng):
        A = random_symmetric_band(10, 1, rng)
        bc = bulge_chase(A, 1)
        assert blocks_from_log(bc, 1, 4).count == 0

    def test_pipelined_log_groups_and_stays_exact(self, rng):
        """The pipelined schedule commits reflectors in interleaved order;
        the diamond order is another topological order of the same DAG,
        so the blocked application is exact AND gets real grouping."""
        from tests.conftest import chase_in_schedule

        n, b = 48, 4
        A = random_symmetric_band(n, b, rng)
        bc, _ = chase_in_schedule(A, b)
        blocks = blocks_from_log(bc, b, 16)
        assert blocks.count < len(bc.reflectors) / 3  # real compression
        X = rng.standard_normal((n, 4))
        Y1 = X.copy()
        bc.apply_q1(Y1)
        Y2 = X.copy()
        apply_q1_blocks(blocks, Y2)
        assert np.allclose(Y1, Y2, atol=1e-12)


def _wavefront_and_oracle(A, b, max_sweeps=None):
    wf, _ = bulge_chase_wavefront(A, b, max_sweeps=max_sweeps)
    return wf, BulgeChasingResult(d=wf.d, e=wf.e, reflectors=wf.reflectors)


def _assert_matches_oracle(wf, oracle, X, atol):
    for wf_apply, oracle_apply in (
        (wf.apply_q1, oracle.apply_q1),
        (wf.apply_q1_transpose, oracle.apply_q1_transpose),
    ):
        Y1, Y2 = X.copy(), X.copy()
        wf_apply(Y1)
        oracle_apply(Y2)
        assert Y1.dtype == X.dtype
        assert np.allclose(Y1, Y2, rtol=0.0, atol=atol)


class TestWavefrontQ1:
    """The production ``apply_q1`` against the scalar-log oracle."""

    @pytest.mark.parametrize("max_sweeps", [None, 1, 2, 5])
    @pytest.mark.parametrize("b", [2, 3, 5, 8, 32])
    @pytest.mark.parametrize("n", [3, 4, "b+1", "2b+1", 97, 150])
    def test_matches_scalar_log(self, rng, n, b, max_sweeps):
        n = {"b+1": b + 1, "2b+1": 2 * b + 1}.get(n, n)
        # b >= n - 1 makes the "band" a full matrix.
        A = random_symmetric_band(n, min(b, n - 1), rng)
        wf, oracle = _wavefront_and_oracle(A, b, max_sweeps)
        _assert_matches_oracle(wf, oracle, rng.standard_normal((n, 5)), 1e-12)

    def test_float32_reflectors(self, rng):
        n, b = 97, 8
        A = random_symmetric_band(n, b, rng).astype(np.float32)
        wf, oracle = _wavefront_and_oracle(A, b)
        assert wf.round_groups[0].V.dtype == np.float32
        X = rng.standard_normal((n, 4)).astype(np.float32)
        _assert_matches_oracle(wf, oracle, X, 1e-5)

    @pytest.mark.parametrize(
        "view",
        [
            lambda a: a,
            np.asfortranarray,
            lambda a: a[:, ::-1],
            lambda a: a[:, :1],
            lambda a: a[:, :0],
        ],
        ids=["C", "F", "reversed", "one_column", "no_columns"],
    )
    def test_operand_layouts(self, rng, view):
        n, b = 97, 5
        wf, oracle = _wavefront_and_oracle(random_symmetric_band(n, b, rng), b)
        U = rng.standard_normal((n, 7))
        for wf_apply, oracle_apply in (
            (wf.apply_q1, oracle.apply_q1),
            (wf.apply_q1_transpose, oracle.apply_q1_transpose),
        ):
            # Update views in place, so the operand keeps its strides.
            Y1, Y2 = view(U.copy()), view(U.copy())
            wf_apply(Y1)
            oracle_apply(Y2)
            assert np.allclose(Y1, Y2, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("kind", ["diagonal", "tridiagonal", "narrower_band"])
    def test_zero_tau_reflectors(self, rng, kind):
        # Inputs already (partly) reduced: some reflectors have nothing to
        # annihilate and come out with tau == 0.
        n, b = 40, 5
        width = {"diagonal": 0, "tridiagonal": 1, "narrower_band": 3}[kind]
        A = random_symmetric_band(n, width, rng) if width else np.diag(
            rng.standard_normal(n)
        )
        wf, oracle = _wavefront_and_oracle(A, b)
        assert any(r.tau == 0.0 for r in oracle.reflectors)
        _assert_matches_oracle(wf, oracle, rng.standard_normal((n, 3)), 1e-12)

    def test_repeat_calls_bit_identical(self, rng):
        n, b = 150, 8
        wf, _ = _wavefront_and_oracle(random_symmetric_band(n, b, rng), b)
        X = rng.standard_normal((n, 6))
        Y1, Y2 = X.copy(), X.copy()
        wf.apply_q1(Y1)
        wf.apply_q1(Y2)
        assert np.array_equal(Y1, Y2)

    def test_q1_is_orthogonal(self, rng):
        n, b = 150, 8
        wf, _ = _wavefront_and_oracle(random_symmetric_band(n, b, rng), b)
        Q = np.eye(n)
        wf.apply_q1(Q)
        assert np.linalg.norm(Q.T @ Q - np.eye(n)) < 1e-12 * n
        wf.apply_q1_transpose(Q)
        assert np.allclose(Q, np.eye(n), atol=1e-12)

    def test_serialization_round_trip_bit_exact(self, rng, tmp_path):
        g = rng.standard_normal((97, 97))
        tri = tridiagonalize((g + g.T) / 2, method="dbbr", bandwidth=4, second_block=8)
        path = tmp_path / "tri.npz"
        save_tridiag(path, tri)
        back = load_tridiag(path)
        X = rng.standard_normal((97, 5))
        for apply in ("apply_q1", "apply_q1_transpose"):
            Y1, Y2 = X.copy(), X.copy()
            getattr(tri.bc_result, apply)(Y1)
            getattr(back.bc_result, apply)(Y2)
            assert np.array_equal(Y1, Y2)


class TestCostModel:
    """The device model prices the diamond geometry: ``b+g-1`` rows at
    inner width ``g``, plus the ``T`` product and the ``larft`` build."""

    def test_blocked_beats_rank1_replay(self):
        # Every group width beats applying the reflectors one rank-1
        # update at a time (inner dimension 1).
        n, b = 49152, 32
        rank1 = 2.0 * n**3 / (sustained_gemm_tflops(H100, b, n, 1) * 1e12)
        for g in (8, 32, 64, 128):
            assert blocked_bc_back_time(H100, n, b, g) < rank1 / 2

    @pytest.mark.parametrize("b", [16, 32, 64])
    def test_group_optimum_tracks_bandwidth(self, b):
        # Wider blocks raise the GEMM rate but add g-1 rows of zeros to
        # every window: the modeled optimum sits at g == b.
        n = 49152
        groups = (8, 16, 32, 64, 128)
        times = [blocked_bc_back_time(H100, n, b, g) for g in groups]
        assert groups[times.index(min(times))] == b
