"""Backend layer: protocol conformance, registry resolution, context."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import (
    ArrayBackend,
    BackendUnavailable,
    ExecutionContext,
    NumpyBackend,
    StageEvent,
    WorkspacePool,
    available_backends,
    get_backend,
    resolve_context,
)
from repro.backend import registry
from repro.backend.base import assert_f64

BACKEND_NAMES = ["numpy", "torch"]


@pytest.fixture(params=BACKEND_NAMES, ids=[f"backend-{b}" for b in BACKEND_NAMES])
def backend(request) -> ArrayBackend:
    if request.param != "numpy":
        pytest.importorskip(request.param)
    return get_backend(request.param)


class TestProtocolConformance:
    """Every constructible backend satisfies the ArrayBackend contract."""

    def test_roundtrip_host_conversion(self, backend):
        x = np.arange(12, dtype=np.float64).reshape(3, 4)
        native = backend.from_numpy(x)
        assert backend.owns(native)
        back = backend.to_numpy(native)
        assert isinstance(back, np.ndarray)
        assert np.array_equal(back, x)

    def test_asarray_produces_f64(self, backend):
        native = backend.asarray([[1, 2], [3, 4]])
        assert str(native.dtype) in ("float64", "torch.float64")
        assert_f64(native)  # must not raise

    def test_asarray_and_from_numpy_keep_float32(self, backend):
        # Like NumpyBackend, every backend keeps a float32 operand at the
        # mixed-precision working width and widens anything else.
        # (torch runs this in CI's backend-torch job.)
        f32 = np.arange(4, dtype=np.float32).reshape(2, 2)
        for native in (
            backend.asarray(f32),
            backend.asarray(backend.from_numpy(f32)),
            backend.from_numpy(f32),
        ):
            assert backend.to_numpy(native).dtype == np.float32
        for x in (f32.astype(np.float64), f32.astype(np.int64), [[1.5, 2.5]]):
            assert backend.to_numpy(backend.asarray(x)).dtype == np.float64

    def test_creation_ops(self, backend):
        xp = backend.xp
        assert tuple(xp.empty((2, 3), dtype=np.float64).shape) == (2, 3)
        z = xp.zeros((4,), dtype=np.float64)
        assert float(backend.to_numpy(z).sum()) == 0.0
        ar = backend.to_numpy(xp.arange(5))
        assert np.array_equal(ar, np.arange(5))

    def test_float32_requests_stay_float32(self, backend):
        # The mixed-precision chase asks for float32 workspaces and
        # hands float32 host arrays over; neither may widen to float64.
        xp = backend.xp
        made = [
            xp.empty((2, 3), dtype=xp.float32),
            xp.zeros((3,), dtype=np.float32),
            xp.full((2,), 1.5, dtype=np.float32),
            xp.eye(2, dtype=np.float32),
            xp.asarray(backend.from_numpy(np.ones(2, dtype=np.float32))),
        ]
        for buf in made:
            assert backend.to_numpy(buf).dtype == np.float32
        pool = WorkspacePool(backend)
        assert backend.to_numpy(pool.stack("t", (2, 2), dtype=np.float32)).dtype == np.float32

    def test_matmul_with_out(self, backend):
        xp = backend.xp
        rng = np.random.default_rng(7)
        A = backend.from_numpy(rng.standard_normal((4, 5)))
        B = backend.from_numpy(rng.standard_normal((5, 3)))
        out = xp.empty((4, 3), dtype=np.float64)
        xp.matmul(A, B, out=out)
        ref = backend.to_numpy(A) @ backend.to_numpy(B)
        assert np.allclose(backend.to_numpy(out), ref, atol=1e-14)

    def test_batched_matmul(self, backend):
        rng = np.random.default_rng(8)
        A = rng.standard_normal((6, 3, 4))
        B = rng.standard_normal((6, 4, 2))
        got = backend.to_numpy(backend.from_numpy(A) @ backend.from_numpy(B))
        assert np.allclose(got, A @ B, atol=1e-14)

    def test_out_into_strided_views(self, backend):
        # The bulge chase writes v^T P into row 0 of an (S, 2, w) stack
        # and tau v into column 0 of an (S, b, 2) stack.
        xp = backend.xp
        rng = np.random.default_rng(10)
        V, P = rng.standard_normal((3, 4)), rng.standard_normal((3, 4, 6))
        R = xp.zeros((3, 2, 6), dtype=np.float64)
        xp.matmul(backend.from_numpy(V)[:, None, :], backend.from_numpy(P),
                  out=R[:, :1, :])
        got = backend.to_numpy(R)
        assert np.allclose(got[:, 0, :], np.einsum("sb,sbw->sw", V, P), atol=1e-14)
        assert not got[:, 1, :].any()
        L = xp.zeros((3, 4, 2), dtype=np.float64)
        xp.multiply(backend.from_numpy(V), 2.0, out=L[:, :, 0])
        got = backend.to_numpy(L)
        assert np.array_equal(got[:, :, 0], 2.0 * V) and not got[:, :, 1].any()

    def test_take_with_out(self, backend):
        xp = backend.xp
        flat = backend.from_numpy(np.arange(20, dtype=np.float64))
        idx = np.array([[3, 1], [0, 19]], dtype=np.int64)
        idx_native = idx if backend.is_host else backend.from_numpy(idx)
        out = xp.empty((2, 2), dtype=np.float64)
        xp.take(flat, idx_native, out=out)
        assert np.array_equal(backend.to_numpy(out), np.arange(20.0)[idx])

    def test_elementwise_out_ops(self, backend):
        xp = backend.xp
        a = backend.from_numpy(np.array([1.0, -4.0, 9.0]))
        assert np.allclose(backend.to_numpy(xp.abs(a)), [1.0, 4.0, 9.0])
        assert np.allclose(
            backend.to_numpy(xp.copysign(xp.abs(a), a)), [1.0, -4.0, 9.0]
        )
        out = xp.empty((3,), dtype=np.float64)
        xp.multiply(a, a, out=out)
        assert np.allclose(backend.to_numpy(out), [1.0, 16.0, 81.0])

    def test_tril_structure_ops(self, backend):
        xp = backend.xp
        A = backend.from_numpy(np.arange(9, dtype=np.float64).reshape(3, 3))
        ref = np.tril(np.arange(9.0).reshape(3, 3), -1)
        assert np.array_equal(backend.to_numpy(xp.tril(A, -1)), ref)
        i, j = xp.tril_indices(3)
        ri, rj = np.tril_indices(3)
        assert np.array_equal(backend.to_numpy(xp.asarray(i)), ri)
        assert np.array_equal(backend.to_numpy(xp.asarray(j)), rj)

    def test_copy_is_independent(self, backend):
        xp = backend.xp
        a = backend.from_numpy(np.zeros(3))
        c = xp.copy(a)
        c[0] = 5.0
        assert float(backend.to_numpy(a)[0]) == 0.0

    def test_solve_triangular(self, backend):
        rng = np.random.default_rng(9)
        L = np.tril(rng.standard_normal((4, 4))) + 4.0 * np.eye(4)
        B = rng.standard_normal((4, 2))
        X = backend.to_numpy(
            backend.solve_triangular(backend.from_numpy(L), backend.from_numpy(B))
        )
        assert np.allclose(L @ X, B, atol=1e-12)

    def test_synchronize_is_callable(self, backend):
        backend.synchronize()  # must not raise


class TestNumpyBackendIsTransparent:
    def test_xp_is_numpy_module(self):
        assert NumpyBackend.xp is np

    def test_from_numpy_is_identity(self):
        x = np.zeros(3)
        assert get_backend("numpy").from_numpy(x) is x


class TestRegistry:
    def test_none_and_default_resolve_to_numpy(self):
        assert get_backend(None).name == "numpy"
        assert get_backend().name == "numpy"

    def test_instance_passthrough(self):
        be = NumpyBackend()
        assert get_backend(be) is be

    def test_unknown_name_raises_valueerror(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_backend("tpu")

    def test_missing_library_raises_backend_unavailable(self):
        avail = available_backends()
        assert "numpy" in avail
        for name in ("cupy", "torch"):
            if name not in avail:
                with pytest.raises(BackendUnavailable):
                    get_backend(name)

    def test_auto_falls_back_to_numpy(self, monkeypatch):
        # Pin every GPU probe to unavailable: auto must land on numpy.
        def unavailable():
            raise BackendUnavailable("pinned off for the test")

        monkeypatch.setitem(
            registry._PROBES, "cupy", (unavailable, unavailable)
        )
        monkeypatch.setitem(
            registry._PROBES, "torch", (unavailable, unavailable)
        )
        assert get_backend("auto").name == "numpy"

    def test_auto_prefers_gpu_probe_order(self, monkeypatch):
        # A fake CuPy probe must win over everything downstream.
        winner = NumpyBackend()
        winner.name = "fake-cupy"
        monkeypatch.setitem(
            registry._PROBES, "cupy", (lambda: winner, lambda: winner)
        )
        assert get_backend("auto") is winner

    def test_auto_torch_requires_cuda(self):
        # On a CUDA-less machine auto never selects torch, even when the
        # library is importable (CPU torch loses to numpy for FP64).
        torch = pytest.importorskip("torch")
        if torch.cuda.is_available():  # pragma: no cover - CPU CI
            pytest.skip("CUDA present; auto-selecting torch is correct here")
        assert get_backend("auto").name == "numpy"


class TestAssertF64:
    def test_accepts_f64_f32_rejects_other_dtypes_and_nonarrays(self):
        assert_f64(np.zeros(2))
        # float32 is the mixed-precision working width — accepted too.
        assert_f64(np.zeros(2, dtype=np.float32))
        with pytest.raises(TypeError, match="float64"):
            assert_f64(np.zeros(2, dtype=np.int64))
        with pytest.raises(TypeError, match="float64"):
            assert_f64([1.0, 2.0])


class TestWorkspacePool:
    def test_reuses_when_trailing_dims_match(self):
        pool = WorkspacePool(get_backend("numpy"))
        a = pool.stack("t", (8, 3, 3))
        b = pool.stack("t", (5, 3, 3))
        assert b.base is a.base or b.base is a  # view of the same buffer
        assert b.shape == (5, 3, 3)

    def test_grows_and_reshapes(self):
        pool = WorkspacePool(get_backend("numpy"))
        pool.stack("t", (4, 2, 2))
        big = pool.stack("t", (9, 2, 2))
        assert big.shape == (9, 2, 2)
        other = pool.stack("t", (4, 5))
        assert other.shape == (4, 5)

    def test_clear_and_nbytes(self):
        pool = WorkspacePool(get_backend("numpy"))
        pool.stack("t", (4, 4))
        assert pool.nbytes == 4 * 4 * 8
        pool.clear()
        assert pool.nbytes == 0


class TestExecutionContext:
    def test_stage_times_and_hook_order(self):
        events: list[StageEvent] = []
        ctx = ExecutionContext(backend="numpy", hooks=[events.append])
        with ctx.stage("demo", n=7):
            pass
        assert [e.phase for e in events] == ["start", "end"]
        assert events[0].stage == "demo" and events[0].meta == {"n": 7}
        assert events[1].duration_s is not None
        assert ctx.stage_times["demo"] >= 0.0

    def test_stage_times_accumulate(self):
        ctx = ExecutionContext(backend="numpy")
        with ctx.stage("s"):
            pass
        first = ctx.stage_times["s"]
        with ctx.stage("s"):
            pass
        assert ctx.stage_times["s"] >= first

    def test_resolve_context_paths(self):
        ctx = ExecutionContext(backend="numpy")
        assert resolve_context(ctx) is ctx
        fresh = resolve_context(None)
        assert fresh.is_numpy and fresh.xp is np
        named = resolve_context("numpy")
        assert named.backend.name == "numpy"

    def test_to_numpy_copy_never_aliases(self):
        ctx = resolve_context(None)
        x = np.arange(4, dtype=np.float64)
        y = ctx.to_numpy_copy(x)
        y[0] = -1.0
        assert x[0] == 0.0


class TestPipelineIntegration:
    """The backend= argument on the public entry points."""

    def _matrix(self, n=48):
        rng = np.random.default_rng(42)
        A = rng.standard_normal((n, n))
        return (A + A.T) / 2.0

    def test_tridiagonalize_numpy_backend_bit_identical(self):
        import repro

        A = self._matrix()
        base = repro.tridiagonalize(A)
        via = repro.tridiagonalize(A, backend="numpy")
        assert np.array_equal(base.d, via.d)
        assert np.array_equal(base.e, via.e)
        assert via.backend == "numpy"

    def test_eigh_records_stage_times(self):
        import repro

        ctx = ExecutionContext(backend="numpy")
        res = repro.eigh(self._matrix(), backend=ctx)
        assert res.residual(self._matrix()) < 1e-12
        for stage in ("tridiagonalize", "tridiag_solver", "back_transform"):
            assert stage in ctx.stage_times

    def test_eigh_on_backend_matches_numpy(self, backend):
        import repro

        A = self._matrix(40)
        ref = np.linalg.eigvalsh(A)
        res = repro.eigh(A, backend=backend)
        assert np.max(np.abs(res.eigenvalues - ref)) < 1e-10
        assert res.residual(A) < 1e-10
