"""Unit tests for TridiagResult serialization."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.workloads import goe
from repro.core.serialization import load_tridiag, save_tridiag
from repro.core.tridiag import tridiagonalize


@pytest.fixture
def tmp_npz(tmp_path):
    return tmp_path / "factor.npz"


class TestRoundTrip:
    @pytest.mark.parametrize("method", ["dbbr", "sbr", "direct", "tile"])
    def test_q_application_identical(self, tmp_npz, method, rng):
        A = goe(48, seed=60)
        res = tridiagonalize(A, method=method, bandwidth=4, second_block=8)
        save_tridiag(tmp_npz, res)
        loaded = load_tridiag(tmp_npz)
        assert np.array_equal(loaded.d, res.d)
        assert np.array_equal(loaded.e, res.e)
        assert loaded.method == res.method
        X = rng.standard_normal((48, 5))
        for apply in ("apply_q", "apply_q_transpose"):
            Y1, Y2 = X.copy(), X.copy()
            getattr(res, apply)(Y1)
            getattr(loaded, apply)(Y2)
            assert np.array_equal(Y1, Y2), apply
        if method == "direct":
            # Format 3: the panel WY blocks go through the block_* keys.
            with np.load(tmp_npz) as z:
                assert "block_W" in z and "direct_V" not in z
            assert loaded.back_transform_group == res.back_transform_group

    def test_back_transform_settings_preserved(self, tmp_npz):
        A = goe(30, seed=61)
        for method, group in (("sbr", 3), ("dbbr", 9)):
            res = tridiagonalize(A, method=method, bandwidth=3, second_block=9)
            assert res.back_transform_group == group
            save_tridiag(tmp_npz, res)
            with np.load(tmp_npz) as z:
                assert int(z["format_version"]) == 3 and "bt_method" not in z
            loaded = load_tridiag(tmp_npz)
            assert loaded.back_transform_group == group

    def test_reconstruction_after_reload(self, tmp_npz):
        from repro.band.storage import dense_from_band

        A = goe(40, seed=62)
        save_tridiag(tmp_npz, tridiagonalize(A, bandwidth=4, second_block=8))
        loaded = load_tridiag(tmp_npz)
        T = dense_from_band(loaded.d, loaded.e)
        Q = loaded.q()
        assert np.linalg.norm(Q @ T @ Q.T - A) / np.linalg.norm(A) < 1e-12

    def test_eigenvector_pipeline_from_disk(self, tmp_npz):
        from repro.eig.dc import dc_eigh

        A = goe(36, seed=63)
        save_tridiag(tmp_npz, tridiagonalize(A, bandwidth=3, second_block=6))
        loaded = load_tridiag(tmp_npz)
        lam, U = dc_eigh(loaded.d, loaded.e)
        V = np.array(U)
        loaded.apply_q(V)
        assert np.linalg.norm(A @ V - V * lam) / np.linalg.norm(A) < 1e-12

    def test_tiny_matrix_no_reflectors(self, tmp_npz):
        A = goe(2, seed=64)  # already tridiagonal: no panels, no sweeps
        res = tridiagonalize(A, method="sbr", bandwidth=4)
        save_tridiag(tmp_npz, res)
        loaded = load_tridiag(tmp_npz)
        assert loaded.band_result is not None
        assert len(loaded.band_result.blocks) == 0

    def test_version_check(self, tmp_npz):
        A = goe(10, seed=65)
        save_tridiag(tmp_npz, tridiagonalize(A, bandwidth=2, second_block=4))
        data = dict(np.load(tmp_npz))
        data["format_version"] = np.array(99)
        np.savez_compressed(tmp_npz, **data)
        with pytest.raises(ValueError):
            load_tridiag(tmp_npz)

    def test_file_is_compact(self, tmp_npz):
        n = 64
        A = goe(n, seed=66)
        save_tridiag(tmp_npz, tridiagonalize(A, bandwidth=4, second_block=16))
        # Factors are O(n^2); the archive should stay within a small
        # multiple of the dense matrix itself.
        assert tmp_npz.stat().st_size < 12 * n * n * 8


class TestFormatVersion1:
    """Format-1 archives named the SBR schedule in ``bt_method``."""

    @staticmethod
    def _write_v1(path, res, bt_method: str, bt_group: int) -> None:
        save_tridiag(path, res)
        data = dict(np.load(path))
        data["format_version"] = np.array(1)
        data["bt_method"] = np.array(bt_method)
        data["bt_group"] = np.array(bt_group)
        np.savez_compressed(path, **data)

    @pytest.mark.parametrize("bt_method", ["blocked", "incremental", "recursive"])
    def test_v1_archive_loads(self, tmp_npz, rng, bt_method):
        A = goe(48, seed=67)
        res = tridiagonalize(A, method="dbbr", bandwidth=4, second_block=8)
        self._write_v1(tmp_npz, res, bt_method, bt_group=12)
        loaded = load_tridiag(tmp_npz)
        X = rng.standard_normal((48, 5))
        # Format 1's "blocked": Q1, then the panel blocks one by one.
        ref = X.copy()
        res.bc_result.apply_q1(ref)
        for blk in reversed(res.band_result.blocks):
            blk.apply_left(ref)
        Y = X.copy()
        loaded.apply_q(Y)
        if bt_method == "blocked":
            assert loaded.back_transform_group == 1
            assert np.array_equal(Y, ref)
        else:
            # The stored width; "recursive" merged everything, which is
            # numerically the same product.
            assert loaded.back_transform_group == 12
            assert np.allclose(Y, ref, atol=1e-12)
        loaded.apply_q_transpose(Y)
        assert np.allclose(Y, X, atol=1e-12)


class TestFormatVersion2Direct:
    """Formats 1 and 2 stored a direct result's reflectors column by
    column (``direct_V``/``direct_taus``); they load as width-32 WY
    blocks."""

    @pytest.mark.parametrize("n", [2, 3, 9, 16, 40])
    def test_v2_direct_archive_loads(self, tmp_npz, rng, n):
        from repro.core.householder import make_householder

        A = goe(n, seed=69)
        # Unblocked Householder tridiagonalization: H_j acts on rows j+1:.
        T = A.copy()
        V = np.zeros((n, max(n - 2, 0)))
        taus = np.zeros(max(n - 2, 0))
        Q = np.eye(n)
        for j in range(n - 2):
            v, tau, _ = make_householder(T[j + 1 :, j])
            H = np.eye(n)
            H[j + 1 :, j + 1 :] -= tau * np.outer(v, v)
            T = H @ T @ H
            Q = Q @ H
            V[j + 1 :, j] = v
            taus[j] = tau
        d, e = np.diagonal(T).copy(), np.diagonal(T, -1).copy()
        np.savez_compressed(
            tmp_npz,
            format_version=np.array(2),
            d=d,
            e=e,
            method=np.array("direct"),
            bandwidth=np.array(1),
            bt_group=np.array(1),
            direct_V=V,
            direct_taus=taus,
            direct_flops=np.array(0.0),
            direct_blas2=np.array(0.0),
        )
        loaded = load_tridiag(tmp_npz)
        assert [b.offset for b in loaded.direct_result.blocks] == [
            j0 + 1 for j0 in range(0, n - 2, 32)
        ]
        X = rng.standard_normal((n, 4))
        Y = X.copy()
        loaded.apply_q(Y)
        assert np.max(np.abs(Y - Q @ X)) < 1e-13
        loaded.apply_q_transpose(Y)
        assert np.max(np.abs(Y - X)) < 1e-13
        from repro.band.storage import dense_from_band

        QT = loaded.q()
        R = QT @ dense_from_band(d, e) @ QT.T
        assert np.linalg.norm(R - A) / np.linalg.norm(A) < 1e-13


class TestOneStack:
    """The chase's reflectors are stored as one stack: ``wf_sizes`` has a
    single entry, and archives that split the stack by pipeline round
    (one ``wf_sizes`` entry per round) load to the same arrays."""

    @pytest.mark.parametrize("method", ["dbbr", "sbr", "tile"])
    def test_single_entry_and_split_archive_bit_exact(self, tmp_npz, rng, method):
        A = goe(48, seed=70)
        res = tridiagonalize(A, method=method, bandwidth=4, second_block=8)
        bc = res.bc_result
        save_tridiag(tmp_npz, res)
        data = dict(np.load(tmp_npz))
        assert data["wf_sizes"].tolist() == [bc.num_reflectors]
        assert np.array_equal(data["wf_offsets"], bc.sweeps + 1 + bc.steps * 4)
        # The per-round layout: same wf_* arrays, many wf_sizes entries.
        data["wf_sizes"] = np.asarray(res.pipeline_stats.occupancy, dtype=np.int64)
        assert data["wf_sizes"].size > 1
        np.savez_compressed(tmp_npz, **data)
        loaded = load_tridiag(tmp_npz)
        for name in ("sweeps", "steps", "V", "tau"):
            assert np.array_equal(getattr(loaded.bc_result, name), getattr(bc, name))
        X = rng.standard_normal((48, 5))
        for apply in ("apply_q", "apply_q_transpose"):
            Y1, Y2 = X.copy(), X.copy()
            getattr(res, apply)(Y1)
            getattr(loaded, apply)(Y2)
            assert np.array_equal(Y1, Y2), apply

    def test_empty_per_round_archive_loads(self, tmp_npz):
        # Per-round writers stored no wf_* arrays for a chase with no tasks.
        res = tridiagonalize(goe(3, seed=71), method="dbbr", bandwidth=4)
        save_tridiag(tmp_npz, res)
        data = {k: v for k, v in np.load(tmp_npz).items() if not k.startswith("wf_")}
        data["wf_sizes"] = np.zeros(0, dtype=np.int64)
        np.savez_compressed(tmp_npz, **data)
        loaded = load_tridiag(tmp_npz)
        assert loaded.bc_result.num_reflectors == 0
        Q = loaded.q()
        assert np.array_equal(Q, res.q())


class TestScalarReflectorLog:
    """Archives written while ``magma``/``plasma`` ran the scalar chase
    hold a per-reflector log (``refl_*``, each vector trimmed at the
    matrix edge); it loads as a stack padded to the bandwidth."""

    @pytest.mark.parametrize("method", ["sbr", "tile"])
    def test_round_trip(self, tmp_npz, rng, method):
        from dataclasses import replace

        from repro.core.bulge_chasing import apply_q1_reference, bulge_chase

        n, b = 40, 4
        A = goe(n, seed=68)
        wf = tridiagonalize(A, method=method, bandwidth=b)
        band = (wf.band_result or wf.tile_result).band
        bc = bulge_chase(band, b)
        res = replace(wf, d=bc.d, e=bc.e, bc_result=bc, pipeline_stats=None)
        save_tridiag(tmp_npz, res)
        data = {k: v for k, v in np.load(tmp_npz).items() if not k.startswith("wf_")}
        offsets = bc.sweeps + 1 + bc.steps * b
        lens = np.minimum(b, n - offsets)
        data.update(
            refl_sweep=bc.sweeps,
            refl_step=bc.steps,
            refl_offset=offsets,
            refl_tau=bc.tau,
            refl_len=lens,
            refl_v=np.concatenate([v[:m] for v, m in zip(bc.V, lens)]),
        )
        np.savez_compressed(tmp_npz, **data)
        loaded = load_tridiag(tmp_npz)
        assert np.array_equal(loaded.d, res.d)
        assert np.array_equal(loaded.e, res.e)
        assert np.array_equal(loaded.bc_result.V, bc.V)
        X = rng.standard_normal((n, 5))
        for transpose in (False, True):
            Y1, Y2 = X.copy(), X.copy()
            apply_q1_reference(bc, Y1, transpose=transpose)
            (loaded.bc_result.apply_q1_transpose if transpose else loaded.bc_result.apply_q1)(Y2)
            assert np.allclose(Y1, Y2, rtol=0.0, atol=1e-12)


class TestEVDRoundTrip:
    def test_round_trip_with_source_matrix(self, tmp_path):
        import repro
        from repro.core.serialization import load_evd, save_evd

        A = goe(40, seed=61)
        res = repro.eigh(A)
        path = tmp_path / "evd.npz"
        save_evd(path, res, A=A)
        loaded, A_back = load_evd(path)
        assert np.array_equal(loaded.eigenvalues, res.eigenvalues)
        assert np.array_equal(loaded.eigenvectors, res.eigenvectors)
        assert np.array_equal(A_back, A)
        assert loaded.solver == res.solver
        assert loaded.tridiag is None

    def test_round_trip_eigenvalues_only_no_matrix(self, tmp_path):
        import repro
        from repro.core.serialization import load_evd, save_evd

        A = goe(24, seed=62)
        res = repro.eigh(A, compute_vectors=False)
        path = tmp_path / "lam.npz"
        save_evd(path, res)
        loaded, A_back = load_evd(path)
        assert np.array_equal(loaded.eigenvalues, res.eigenvalues)
        assert loaded.eigenvectors is None and A_back is None

    def test_load_evd_rejects_tridiag_archive(self, tmp_path):
        from repro.core.serialization import load_evd

        A = goe(24, seed=63)
        res = tridiagonalize(A, method="dbbr", bandwidth=4, second_block=8)
        path = tmp_path / "tri.npz"
        save_tridiag(path, res)
        with pytest.raises(ValueError, match="not an EVD archive"):
            load_evd(path)

    def test_loaded_result_verifies(self, tmp_path):
        import repro
        from repro.core.serialization import load_evd, save_evd
        from repro.resilience import verify_evd

        A = goe(32, seed=64)
        path = tmp_path / "evd.npz"
        save_evd(path, repro.eigh(A), A=A)
        result, A_back = load_evd(path)
        assert verify_evd(A_back, result).ok
