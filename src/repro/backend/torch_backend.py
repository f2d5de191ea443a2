"""PyTorch backend: the pipeline's kernels on ``torch.Tensor`` storage.

The interesting property of this backend is not CPU torch (which is what
CI exercises) but that the *identical* kernel code paths run on a CUDA
device when one is present — the retargeting the paper's follow-up work
(multi-GPU EVD, memory-aware bulge chasing) builds on.

``torch`` is an optional dependency: importing this module never fails,
but constructing :class:`TorchBackend` without torch installed raises
:class:`~repro.backend.base.BackendUnavailable`.

The :class:`_TorchNamespace` shim exposes the NumPy-compatible operation
subset the kernels use (see :mod:`repro.backend.base` for the list).  It
is deliberately forgiving about mixed operands — schedule metadata stays
host-side NumPy, so binary ops coerce ndarray operands with
``torch.as_tensor`` (zero-copy on CPU).
"""

from __future__ import annotations

import numpy as np

from .base import ArrayBackend, BackendUnavailable

try:  # pragma: no cover - exercised only when torch is installed
    import torch as _torch
except ImportError:  # pragma: no cover
    _torch = None

__all__ = ["TorchBackend"]


def _dtype(dt):
    """Map a NumPy dtype request onto a torch dtype (float64 default)."""
    if dt is None:
        return _torch.float64
    name = getattr(dt, "__name__", None) or str(np.dtype(dt))
    return {
        "float64": _torch.float64,
        "float32": _torch.float32,
        "int64": _torch.int64,
        "bool": _torch.bool,
    }.get(name, _torch.float64)


class _TorchLinalg:
    """The ``xp.linalg`` sub-namespace subset."""

    @staticmethod
    def norm(x):
        return _torch.linalg.norm(_torch.as_tensor(x))


class _TorchNamespace:
    """NumPy-compatible operation namespace over ``torch.Tensor``.

    Every function accepts tensors or host ndarrays (coerced zero-copy on
    CPU) and returns tensors; ``out=`` arguments must be tensors.
    """

    linalg = _TorchLinalg()
    float64 = np.float64  # kernels pass dtype=xp.float64; mapped by _dtype
    float32 = np.float32
    int64 = np.int64

    # -- creation -----------------------------------------------------
    @staticmethod
    def asarray(x, dtype=None):
        t = _torch.as_tensor(x)
        want = _dtype(dtype) if dtype is not None else (
            t.dtype
            if t.dtype in (_torch.int64, _torch.bool, _torch.float32)
            else _torch.float64
        )
        return t.to(want) if t.dtype != want else t

    @staticmethod
    def array(x, dtype=None, copy=True):
        t = _TorchNamespace.asarray(x, dtype)
        return t.clone() if copy else t

    @staticmethod
    def copy(x):
        return _torch.as_tensor(x).clone()

    @staticmethod
    def empty(shape, dtype=None):
        return _torch.empty(shape, dtype=_dtype(dtype))

    @staticmethod
    def zeros(shape, dtype=None):
        return _torch.zeros(shape, dtype=_dtype(dtype))

    @staticmethod
    def full(shape, fill, dtype=None):
        return _torch.full(shape, fill, dtype=_dtype(dtype))

    @staticmethod
    def eye(n, dtype=None):
        return _torch.eye(n, dtype=_dtype(dtype))

    @staticmethod
    def arange(*args, dtype=None):
        t = _torch.arange(*args)
        return t.to(_dtype(dtype)) if dtype is not None else t

    # -- structure ----------------------------------------------------
    @staticmethod
    def hstack(arrs):
        arrs = [_torch.as_tensor(a) for a in arrs]
        return _torch.cat(arrs, dim=1 if arrs[0].dim() > 1 else 0)

    @staticmethod
    def vstack(arrs):
        return _torch.cat([_torch.atleast_2d(_torch.as_tensor(a)) for a in arrs], dim=0)

    @staticmethod
    def concatenate(arrs, axis=0):
        return _torch.cat([_torch.as_tensor(a) for a in arrs], dim=axis)

    @staticmethod
    def outer(a, b):
        return _torch.outer(_torch.as_tensor(a), _torch.as_tensor(b))

    @staticmethod
    def tril(a, k=0):
        return _torch.tril(_torch.as_tensor(a), diagonal=k)

    @staticmethod
    def triu(a, k=0):
        return _torch.triu(_torch.as_tensor(a), diagonal=k)

    @staticmethod
    def tril_indices(n, k=0):
        idx = _torch.tril_indices(n, n, offset=k)
        return idx[0], idx[1]

    @staticmethod
    def ix_(rows, cols):
        return (
            _torch.as_tensor(rows).reshape(-1, 1),
            _torch.as_tensor(cols).reshape(1, -1),
        )

    @staticmethod
    def diagonal(a, offset=0):
        return _torch.diagonal(_torch.as_tensor(a), offset=offset)

    # -- elementwise (out=-capable where the kernels need it) ----------
    @staticmethod
    def add(a, b, out=None):
        return _torch.add(_torch.as_tensor(a), _torch.as_tensor(b), out=out)

    @staticmethod
    def subtract(a, b, out=None):
        return _torch.sub(_torch.as_tensor(a), _torch.as_tensor(b), out=out)

    @staticmethod
    def multiply(a, b, out=None):
        return _torch.mul(_torch.as_tensor(a), _torch.as_tensor(b), out=out)

    @staticmethod
    def divide(a, b, out=None):
        return _torch.div(_torch.as_tensor(a), _torch.as_tensor(b), out=out)

    @staticmethod
    def sqrt(x):
        return _torch.sqrt(_torch.as_tensor(x))

    @staticmethod
    def abs(x):
        return _torch.abs(_torch.as_tensor(x))

    @staticmethod
    def copysign(a, b):
        return _torch.copysign(_torch.as_tensor(a), _torch.as_tensor(b))

    @staticmethod
    def minimum(a, b):
        return _torch.minimum(_torch.as_tensor(a), _torch.as_tensor(b))

    @staticmethod
    def maximum(a, b):
        return _torch.maximum(_torch.as_tensor(a), _torch.as_tensor(b))

    @staticmethod
    def where(cond, a, b):
        return _torch.where(
            _torch.as_tensor(cond), _torch.as_tensor(a), _torch.as_tensor(b)
        )

    @staticmethod
    def sum(x, axis=None):
        t = _torch.as_tensor(x)
        return t.sum() if axis is None else t.sum(dim=axis)

    # -- BLAS3 / reductions / gather ----------------------------------
    @staticmethod
    def matmul(a, b, out=None):
        a, b = _torch.as_tensor(a), _torch.as_tensor(b)
        if out is None or out.is_contiguous():
            return _torch.matmul(a, b, out=out)
        # The kernels write into strided views of preallocated stacks
        # (the bulge chase's rank-2 factor rows); write through them.
        out.copy_(_torch.matmul(a, b))
        return out

    @staticmethod
    def einsum(spec, *ops):
        return _torch.einsum(spec, *[_torch.as_tensor(o) for o in ops])

    @staticmethod
    def dot(a, b):
        return _torch.dot(_torch.as_tensor(a), _torch.as_tensor(b))

    @staticmethod
    def take(a, idx, out=None):
        r = _torch.take(_torch.as_tensor(a), _torch.as_tensor(idx))
        if out is not None:
            out.copy_(r)
            return out
        return r


class TorchBackend(ArrayBackend):
    """Execute the hot paths on torch tensors (CPU or CUDA).

    Parameters
    ----------
    device : str
        Torch device string (``"cpu"`` default; ``"cuda"`` when available).
    """

    name = "torch"

    def __init__(self, device: str = "cpu"):
        if _torch is None:
            raise BackendUnavailable(
                "torch backend requested but PyTorch is not installed"
            )
        self.device = _torch.device(device)
        self.is_host = self.device.type == "cpu"
        self.xp = _TorchNamespace()

    def asarray(self, x):
        # As NumpyBackend: float32 keeps the mixed-precision working
        # width, anything else becomes float64.  Non-tensors go through
        # NumPy first, so a list of floats is float64 as it is there
        # (torch's own default would be float32).
        t = _torch.as_tensor(x if _torch.is_tensor(x) else np.asarray(x))
        dt = _torch.float32 if t.dtype == _torch.float32 else _torch.float64
        return t.to(device=self.device, dtype=dt)

    def from_numpy(self, x: np.ndarray):
        # A float32 host array keeps the mixed-precision working width,
        # as on the NumPy backend; anything else becomes float64.
        x = np.ascontiguousarray(x)
        dt = _torch.float32 if x.dtype == np.float32 else _torch.float64
        return _torch.as_tensor(x, dtype=dt).to(self.device)

    def to_numpy(self, x) -> np.ndarray:
        if isinstance(x, np.ndarray):
            return x
        return x.detach().cpu().numpy()

    def owns(self, x) -> bool:
        return _torch is not None and isinstance(x, _torch.Tensor)

    def solve_triangular(self, L, B, lower: bool = True, transpose: bool = False):
        L = self.asarray(L)
        B = self.asarray(B)
        if transpose:
            L = L.mT if L.dim() > 1 else L
            lower = not lower
        B2 = B if B.dim() > 1 else B.reshape(-1, 1)
        X = _torch.linalg.solve_triangular(L, B2, upper=not lower)
        return X if B.dim() > 1 else X.reshape(-1)

    def eigh(self, A):
        return _torch.linalg.eigh(self.asarray(A))

    def synchronize(self) -> None:
        if self.device.type == "cuda":  # pragma: no cover - needs a GPU
            _torch.cuda.synchronize(self.device)
