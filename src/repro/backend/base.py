"""The array-backend protocol: the ~20 ops the hot paths actually use.

The whole point of the paper is that one algorithm (DBBR + pipelined
bulge chasing) runs at wildly different speeds depending on *where* its
BLAS3 operations execute.  :class:`ArrayBackend` is the seam that makes
the execution substrate pluggable: every kernel in :mod:`repro.core`
performs its hot-path array operations through a backend's ``xp``
namespace (a NumPy-compatible module view) and the few structured
operations listed below, never through ``numpy`` directly.

Contract
--------
A backend owns arrays of one *native* type (``numpy.ndarray``,
``torch.Tensor``, ``cupy.ndarray``, ...) in float64, or in float32
where the caller hands float32 over (the mixed-precision working
width).  Backends must neither silently downcast float64 nor widen
float32.
The required surface is:

=====================  =====================================================
group                  operations
=====================  =====================================================
creation               ``xp.empty``, ``xp.zeros``, ``xp.eye``,
                       ``xp.arange``, ``xp.full``, ``asarray``
conversion             ``to_numpy``, ``from_numpy`` (host <-> device)
elementwise            ``xp.add/subtract/multiply/divide`` (with ``out=``),
                       ``xp.sqrt``, ``xp.copysign``, ``xp.abs``,
                       ``xp.where``, ``xp.minimum``/``xp.maximum``
BLAS3 / batched        ``xp.matmul`` (2-D and stacked 3-D, with ``out=``),
                       the ``@`` operator on native arrays
reductions             ``xp.dot`` / batched inner products, ``norm``
gather / scatter       ``xp.take`` (flat-index, with ``out=``), fancy
                       integer indexing for flat-index scatter
structure              ``xp.hstack``/``xp.vstack``, ``xp.tril``/``xp.triu``
                       (with ``k=``/offset), ``xp.outer``, ``xp.copy``
solvers                ``solve_triangular`` (lower), ``eigh`` (fallback
                       dense solver for cross-checks)
=====================  =====================================================

Host/device split
-----------------
Only *data-plane* operations go through the backend.  Control-plane work
— pipeline schedules, index templates, flop accounting, scalar
Householder generation inside the panel QR (the BLAS2-bound part the
paper accepts on the host, exactly like MAGMA's hybrid CPU-panel/GPU-
update design) — stays in host NumPy.  The boundary is the same one a
real GPU implementation draws between kernel launches and the driver
loop that computes launch geometry.

``NumpyBackend`` is the bit-exact default: its ``xp`` *is* the ``numpy``
module, so threading a numpy-backed :class:`ExecutionContext` through the
pipeline changes no arithmetic whatsoever.
"""

from __future__ import annotations

from typing import Any

import numpy as np

__all__ = ["ArrayBackend", "BackendUnavailable"]


class BackendUnavailable(RuntimeError):
    """Requested backend's underlying library is not importable (or has no
    usable device).  Raised by :func:`repro.backend.get_backend`."""


class ArrayBackend:
    """Base class for array backends.

    Subclasses must set :attr:`name` and :attr:`xp` and implement the
    conversion and solver hooks.  ``xp`` is a NumPy-compatible namespace:
    for the default backend it is literally the ``numpy`` module; for
    others it is a shim exposing the operation subset documented in the
    module docstring, operating on the backend's native array type.
    """

    #: Registry name ("numpy", "torch", "cupy").
    name: str = "abstract"
    #: NumPy-compatible operation namespace (module or shim object).
    xp: Any = None
    #: True when native arrays live in host memory shared with NumPy.
    is_host: bool = True

    # -- conversion ---------------------------------------------------
    def asarray(self, x: Any) -> Any:
        """Coerce ``x`` to a native array (no copy if possible): float32
        stays float32, every other dtype becomes float64."""
        raise NotImplementedError

    def from_numpy(self, x: np.ndarray) -> Any:
        """Host ndarray -> native array (zero-copy when is_host)."""
        raise NotImplementedError

    def to_numpy(self, x: Any) -> np.ndarray:
        """Native array -> host ndarray (zero-copy when is_host)."""
        raise NotImplementedError

    def owns(self, x: Any) -> bool:
        """True if ``x`` is this backend's native array type."""
        raise NotImplementedError

    # -- structured solvers (beyond the xp namespace) ------------------
    def solve_triangular(self, L: Any, B: Any, lower: bool = True,
                         transpose: bool = False) -> Any:
        """Solve ``L X = B`` (or ``L^T X = B``) for triangular ``L``."""
        raise NotImplementedError

    def eigh(self, A: Any) -> tuple[Any, Any]:
        """Dense symmetric eigendecomposition fallback (cross-checks)."""
        raise NotImplementedError

    # -- bookkeeping ---------------------------------------------------
    def synchronize(self) -> None:
        """Barrier for async devices (no-op on host backends); benchmark
        timers call this so device work is not under-counted."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"


def assert_f64(x: Any, what: str = "array") -> None:
    """Kernel-side dtype contract: *assert*, never convert.

    Entry points (:func:`repro.core.tridiag.tridiagonalize`,
    :func:`repro.core.evd.eigh`) coerce inputs to the working precision
    exactly once — float64 by default, float32 under a mixed-precision
    policy; inner kernels only verify, so a dtype bug (an integer array,
    a complex leak) surfaces at its source instead of being papered over
    by per-call ``asarray`` copies.  The name is historical: the accepted
    working widths are float64 and float32.
    """
    dt = getattr(x, "dtype", None)
    if dt is None or str(dt) not in (
        "float64",
        "torch.float64",
        "float32",
        "torch.float32",
    ):
        raise TypeError(
            f"{what} must already be float64 or float32 (got dtype={dt!r}); "
            "coerce at the tridiagonalize/eigh entry point, not inside kernels"
        )
