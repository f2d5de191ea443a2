"""Unit tests for the PLASMA-style tile band reduction."""

from __future__ import annotations

import numpy as np
import pytest

from repro.band.ops import bandwidth_of, symmetric_error
from repro.core.dbbr import dbbr
from repro.core.tile_sbr import tile_sbr, tile_task_dag
from tests.conftest import make_symmetric


class TestTileSBR:
    @pytest.mark.parametrize("n,b", [(24, 4), (33, 4), (30, 5), (25, 2), (16, 8)])
    def test_band_contract(self, n, b):
        A = make_symmetric(n, seed=n + b)
        res = tile_sbr(A, b)
        assert bandwidth_of(res.band, tol=1e-9) <= b
        assert symmetric_error(res.band) < 1e-12

    @pytest.mark.parametrize("n,b", [(20, 3), (28, 4), (35, 6)])
    def test_similarity(self, n, b):
        A = make_symmetric(n, seed=2 * n + b)
        res = tile_sbr(A, b)
        assert np.linalg.norm(res.reconstruct() - A) / np.linalg.norm(A) < 1e-12
        Q = res.q()
        assert np.linalg.norm(Q.T @ Q - np.eye(n)) < 1e-12

    def test_same_spectrum_as_panel_sbr(self):
        A = make_symmetric(32, seed=7)
        lam_tile = np.linalg.eigvalsh(tile_sbr(A, 4).band)
        lam_panel = np.linalg.eigvalsh(dbbr(A, 4, 4).band)
        assert np.max(np.abs(lam_tile - lam_panel)) < 1e-11

    def test_tile_size_one_gives_tridiagonal(self):
        A = make_symmetric(12, seed=8)
        res = tile_sbr(A, 1)
        assert bandwidth_of(res.band, tol=1e-10) <= 1

    def test_reflector_kinds(self):
        A = make_symmetric(24, seed=9)
        res = tile_sbr(A, 4)
        kinds = {r.kind for r in res.reflectors}
        assert kinds == {"geqrt", "tsqrt"}
        # tsqrt factors with i > k+2 span two non-contiguous tile rows
        # (the adjacent-tile case i == k+2 is contiguous by construction).
        max_gap = max(
            int(np.max(np.diff(r.rows)))
            for r in res.reflectors
            if r.kind == "tsqrt"
        )
        assert max_gap > 1

    @pytest.mark.parametrize("n,b", [(27, 4), (24, 4), (10, 1)])
    def test_reflector_shapes(self, n, b):
        # Every tile factor keeps the reflectors with a subdiagonal part:
        # min(m - 1, w) of them on an m-row, w-wide (stacked) tile.
        res = tile_sbr(make_symmetric(n, seed=n), b)
        for r in res.reflectors:
            m = r.rows.size
            assert r.W.shape == r.Y.shape == (m, min(m - 1, b))

    def test_input_not_modified(self):
        A = make_symmetric(18, seed=10)
        A0 = A.copy()
        tile_sbr(A, 3)
        assert np.array_equal(A, A0)

    def test_validation(self):
        with pytest.raises(ValueError):
            tile_sbr(np.zeros((3, 4)), 2)
        with pytest.raises(ValueError):
            tile_sbr(np.zeros((4, 4)), 0)

    def test_feeds_bulge_chasing(self):
        """Tile band reduction composes with the rest of the pipeline."""
        from repro.band.storage import dense_from_band
        from repro.core.bulge_chasing import bulge_chase

        A = make_symmetric(30, seed=11)
        res = tile_sbr(A, 3)
        bc = bulge_chase(res.band, 3)
        T = dense_from_band(bc.d, bc.e)
        assert np.max(
            np.abs(np.linalg.eigvalsh(T) - np.linalg.eigvalsh(A))
        ) < 1e-10


class TestTaskDag:
    def test_task_counts(self):
        # nt tiles -> sum_{k} (1 + (nt - k - 2)) tasks.
        tasks = tile_task_dag(24, 4)  # nt = 6
        assert len(tasks) == sum(1 + (6 - k - 2) for k in range(5))

    def test_order_matches_execution(self):
        A = make_symmetric(24, seed=12)
        res = tile_sbr(A, 4)
        dag = tile_task_dag(24, 4)
        assert len(dag) == len(res.reflectors)
        for (kind, _, _), refl in zip(dag, res.reflectors):
            assert kind == refl.kind

    def test_parallelism_exists(self):
        # Tile rows of (k, i) tasks with distinct i are disjoint -> the
        # PLASMA scheduler can run them concurrently.
        tasks = tile_task_dag(64, 8)
        tsqrt_k0 = [(k, i) for kind, k, i in tasks if kind == "tsqrt" and k == 0]
        assert len(tsqrt_k0) >= 2
