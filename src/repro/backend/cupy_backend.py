"""CuPy backend: the kernels unchanged on a CUDA device.

CuPy mirrors the NumPy API closely enough that ``CupyBackend.xp`` is the
``cupy`` module itself — the same property that makes ``NumpyBackend``
bit-exact makes CuPy a near-drop-in GPU substrate.  The only extra
machinery is host/device transfer and the structured solver hooks.

Optional dependency: importing this module never fails; constructing
:class:`CupyBackend` without cupy (or without a visible CUDA device)
raises :class:`~repro.backend.base.BackendUnavailable`.
"""

from __future__ import annotations

import numpy as np

from .base import ArrayBackend, BackendUnavailable

try:  # pragma: no cover - exercised only when cupy is installed
    import cupy as _cupy
except ImportError:  # pragma: no cover
    _cupy = None

__all__ = ["CupyBackend"]


class CupyBackend(ArrayBackend):
    """Execute the hot paths on CuPy arrays (CUDA)."""

    name = "cupy"
    is_host = False

    def __init__(self):
        if _cupy is None:
            raise BackendUnavailable(
                "cupy backend requested but CuPy is not installed"
            )
        try:
            _cupy.cuda.runtime.getDeviceCount()
        except Exception as exc:  # pragma: no cover - no CUDA in CI
            raise BackendUnavailable(f"cupy installed but no CUDA device: {exc}")
        self.xp = _cupy

    def asarray(self, x):
        # As NumpyBackend: float32 keeps the mixed-precision working
        # width, anything else becomes float64.
        dt = np.float32 if getattr(x, "dtype", None) == np.float32 else np.float64
        return _cupy.asarray(x, dtype=dt)

    def from_numpy(self, x: np.ndarray):
        return self.asarray(x)

    def to_numpy(self, x) -> np.ndarray:
        if isinstance(x, np.ndarray):
            return x
        return _cupy.asnumpy(x)

    def owns(self, x) -> bool:
        return _cupy is not None and isinstance(x, _cupy.ndarray)

    def solve_triangular(self, L, B, lower: bool = True, transpose: bool = False):
        import cupyx.scipy.linalg as cpx_linalg  # pragma: no cover

        return cpx_linalg.solve_triangular(  # pragma: no cover
            self.asarray(L), self.asarray(B), lower=lower,
            trans="T" if transpose else "N",
        )

    def eigh(self, A):  # pragma: no cover - needs a GPU
        return _cupy.linalg.eigh(self.asarray(A))

    def synchronize(self) -> None:  # pragma: no cover - needs a GPU
        _cupy.cuda.runtime.deviceSynchronize()
