"""Secular equation machinery for the divide-and-conquer eigensolver.

A Cuppen merge step reduces to the symmetric rank-one eigenproblem

    D + rho z z^T,   D = diag(d_1 < d_2 < ... < d_N),  rho > 0,

whose eigenvalues are the roots of the *secular equation*

    f(lam) = 1 + rho * sum_j z_j^2 / (d_j - lam) = 0,

one root strictly inside each interval ``(d_i, d_{i+1})`` plus one beyond
``d_N`` (interlacing).  This module provides:

* :func:`solve_all_roots` — all ``N`` roots, each by one call of LAPACK
  ``dlaed4``, as MAGMA's ``Dstedc`` merge (``dlaex3``) solves them on the
  host.  A root is returned as ``(anchor index, offset)`` so that
  ``lam - d_j`` can later be formed without cancellation;
* :func:`refine_z` — the Gu–Eisenstat trick: recompute the rank-one vector
  ``z_hat`` from the *computed* roots (Löwner's formula), which makes the
  analytic eigenvector formula numerically orthogonal even for tightly
  clustered eigenvalues;
* :func:`secular_eigenvectors` — eigenvectors ``u_i propto z_hat_j /
  (d_j - lam_i)`` built from the refined vector, or their product with a
  few basis rows.

``dlaed4`` is bound with :mod:`ctypes` from NumPy's own OpenBLAS (the
ILP64 ``scipy_dlaed4_64_``), like the band-reduction panels'
``?geqrt`` in :mod:`repro.core.panel_qr`; where that symbol is missing,
the ``dlaed4`` capsule of ``scipy.linalg.cython_lapack`` is used.  Each
root costs ``O(N)`` per iteration and ``dlaed4`` converges in a few.

The refinement and the eigenvectors walk L2-sized tiles of about 1 MiB
(``_TILE_BYTES``):

* the Löwner refinement evaluates the paired ratios
  ``(lam_i - d_j) / (d_{i or i+1} - d_j)`` in column tiles (each ratio is
  O(1) by interlacing, so the column products stay bounded) and reduces
  each with a single ``prod``;
* the eigenvector formula is one broadcasted outer division plus a row
  normalization per tile of roots; given basis rows, each tile is
  multiplied in at once and the ``(N, N)`` matrix is never formed.

Every ratio column and eigenvector is computed independently of the
others, so results do not depend on the tile size.  Scratch can be served
from a caller-provided workspace pool (``workspace=``, duck-typed to
:meth:`repro.backend.WorkspacePool.matrix`) so repeated merges inside the
divide-and-conquer tree allocate nothing in steady state.  The scalar
per-root oracles these kernels are tested against live with the tests.

``rho < 0`` is handled by the caller (:mod:`repro.eig.dc`) through the
reflection ``eig(D + rho z z^T) = -rev(eig(-rev(D) + |rho| rev(z) rev(z)^T))``.
"""

from __future__ import annotations

import ctypes
import functools

import numpy as np

from ..resilience.errors import ConvergenceError
from ..resilience.faults import maybe_raise

__all__ = [
    "SecularRoots",
    "solve_all_roots",
    "refine_z",
    "secular_eigenvectors",
    "secular_f",
]

# Bytes of float64 scratch per tile: about half of a 2 MiB L2, so a
# Löwner or eigenvector tile stays cache-resident while it is formed.
_TILE_BYTES = 1 << 20


def _scratch_matrix(workspace, tag: str, shape: tuple[int, int]) -> np.ndarray:
    """An uninitialized (rows, cols) scratch matrix, pooled when possible."""
    if workspace is None:
        return np.empty(shape, dtype=np.float64)
    return workspace.matrix(tag, shape, dtype=np.float64)


def secular_f(lam: float, d: np.ndarray, z2: np.ndarray, rho: float) -> float:
    """Evaluate ``f(lam) = 1 + rho * sum z_j^2 / (d_j - lam)`` (diagnostics)."""
    return 1.0 + rho * float(np.sum(z2 / (d - lam)))


class SecularRoots:
    """Roots stored as ``lam_i = d[anchor_i] + offset_i``.

    Keeping the anchor/offset split lets downstream code compute
    ``lam_i - d_j = (d[anchor_i] - d_j) + offset_i`` with one subtraction
    of exact inputs plus one small correction — no catastrophic
    cancellation next to a pole.
    """

    def __init__(
        self,
        d: np.ndarray,
        anchors: np.ndarray,
        offsets: np.ndarray,
    ):
        self.d = d
        self.anchors = anchors
        self.offsets = offsets

    @property
    def values(self) -> np.ndarray:
        """The eigenvalues ``lam`` (ascending)."""
        return self.d[self.anchors] + self.offsets

    def minus_d(self, j: int) -> np.ndarray:
        """Vector ``lam_i - d_j`` for all roots ``i``, cancellation-free."""
        return (self.d[self.anchors] - self.d[j]) + self.offsets

    def gaps(self, i: int) -> np.ndarray:
        """Vector ``d_j - lam_i`` for all ``j``, cancellation-free."""
        return (self.d - self.d[self.anchors[i]]) - self.offsets[i]


def _numpy_dlaed4():
    """``dlaed4`` from the OpenBLAS NumPy links, or ``None`` if absent.

    ``dlsym`` on the handle of NumPy's LAPACK extension also searches the
    libraries it depends on, so the lookup needs no file path.  Only the
    ILP64 ``scipy_dlaed4_64_`` symbol is used: its integer width is part
    of its name.  The handle is a :class:`ctypes.PyDLL`, so a call keeps
    the GIL: a call takes microseconds, and releasing and re-taking the
    GIL around each one made two solver threads no faster.
    """
    try:
        from numpy.linalg import _umath_linalg

        fn = ctypes.PyDLL(_umath_linalg.__file__).scipy_dlaed4_64_
    except (ImportError, OSError, AttributeError):
        return None
    fn.argtypes = [ctypes.c_void_p] * 8
    fn.restype = None
    return fn, ctypes.c_int64


def _scipy_dlaed4():
    """``dlaed4`` from the capsule in ``scipy.linalg.cython_lapack`` (LP64,
    imported here, lazily), called with the GIL held like the NumPy one."""
    from scipy.linalg.cython_lapack import __pyx_capi__

    capsule = __pyx_capi__["dlaed4"]
    api = ctypes.pythonapi
    api.PyCapsule_GetName.restype = ctypes.c_char_p
    api.PyCapsule_GetName.argtypes = [ctypes.py_object]
    api.PyCapsule_GetPointer.restype = ctypes.c_void_p
    api.PyCapsule_GetPointer.argtypes = [ctypes.py_object, ctypes.c_char_p]
    addr = api.PyCapsule_GetPointer(capsule, api.PyCapsule_GetName(capsule))
    return ctypes.PYFUNCTYPE(None, *[ctypes.c_void_p] * 8)(addr), ctypes.c_int32


@functools.cache
def _dlaed4():
    """``(dlaed4, its integer type)``: NumPy's OpenBLAS, else scipy."""
    return _numpy_dlaed4() or _scipy_dlaed4()


def _two_pole_roots(d: np.ndarray, z2: np.ndarray, rho: float) -> SecularRoots:
    """The roots of ``N <= 2`` in closed form, as LAPACK's ``dlaed5``
    (which ``dlaed4`` calls for ``N = 2``, returning an eigenvector
    instead of pole differences)."""
    N = d.size
    anchors = np.arange(N, dtype=np.int64)
    offsets = rho * z2[:N]
    if N == 2:
        gap = d[1] - d[0]
        w = rho * (z2[0] + z2[1])
        # Offsets tau from d_1 solve tau^2 - b tau - c = 0.
        b, c = w - gap, rho * z2[1] * gap
        disc = np.sqrt(b * b + 4.0 * c)
        offsets[1] = (b + disc) / 2.0 if b > 0.0 else 2.0 * c / (disc - b)
        if 1.0 + 2.0 * rho * (z2[1] - z2[0]) / gap > 0.0:
            # f(midpoint) > 0: root 0 is nearer d_0, whose offsets solve
            # tau^2 - (gap + w) tau + rho z_0^2 gap = 0 (smaller root).
            b0, c0 = gap + w, rho * z2[0] * gap
            offsets[0] = 2.0 * c0 / (b0 + np.sqrt(abs(b0 * b0 - 4.0 * c0)))
        else:
            anchors[0] = 1
            offsets[0] = -2.0 * c / (b + disc) if b > 0.0 else (b - disc) / 2.0
    return SecularRoots(d, anchors, offsets)


def solve_all_roots(d: np.ndarray, z: np.ndarray, rho: float) -> SecularRoots:
    """All ``N`` secular roots for ``D + rho z z^T`` (``rho > 0``,
    ``d`` strictly ascending, ``z`` fully non-deflated).

    Each root is one LAPACK ``dlaed4`` call on ``z / ||z||`` and
    ``rho ||z||^2`` (``dlaed4`` assumes a unit ``z``, as ``dlaed2``
    arranges).  ``dlaed4`` returns ``DELTA_j = (d_j - d_origin) - tau``
    for the pole it iterated from; the root is anchored to the bracketing
    pole with the smaller ``|DELTA|`` and its offset is ``-DELTA`` there,
    so ``lam - d_j`` stays cancellation-free downstream.  ``N <= 2`` is
    solved in closed form.

    Raises
    ------
    ConvergenceError
        ``dlaed4`` reported ``INFO != 0`` for a root (site
        ``"secular.newton"``, carrying its index) — it ran out of its
        fixed iteration budget, e.g. on a zero ``z`` entry left
        undeflated.
    """
    maybe_raise("secular.newton")
    if rho <= 0:
        raise ValueError("solve_all_roots requires rho > 0")
    d = np.ascontiguousarray(d, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if d.ndim != 1 or z.shape != d.shape:
        raise ValueError(f"d and z must be vectors of one length, got {d.shape} and {z.shape}")
    N = d.size
    if N <= 2:
        return _two_pole_roots(d, z * z, rho)

    fn, cint = _dlaed4()
    znorm2 = float(z @ z)
    zu = np.ascontiguousarray(z / np.sqrt(znorm2))
    delta = np.empty(N, dtype=np.float64)
    # Python floats from a ctypes view: cheaper per root than indexing NumPy.
    dv = (ctypes.c_double * N).from_buffer(delta)
    n_c, i_c, info = cint(N), cint(0), cint(0)
    rho_c, dlam = ctypes.c_double(rho * znorm2), ctypes.c_double(0.0)
    args = (
        ctypes.addressof(n_c), ctypes.addressof(i_c), d.ctypes.data,
        zu.ctypes.data, delta.ctypes.data, ctypes.addressof(rho_c),
        ctypes.addressof(dlam), ctypes.addressof(info),
    )
    anchors = np.empty(N, dtype=np.int64)
    offsets = np.empty(N, dtype=np.float64)
    for i in range(N):
        i_c.value = i + 1
        fn(*args)
        if info.value != 0:
            raise ConvergenceError(
                f"dlaed4 did not converge on secular root {i} of {N} "
                f"(INFO={info.value})",
                site="secular.newton",
                indices=[i],
            )
        # The last root is anchored to d_{N-1}, the others to their
        # nearer bracketing pole.
        a = i if i == N - 1 or abs(dv[i]) <= abs(dv[i + 1]) else i + 1
        anchors[i] = a
        offsets[i] = -dv[a]
    return SecularRoots(d, anchors, offsets)


def _row_tiles(rows: int, cols: int):
    """Consecutive slices of ``range(rows)``, each covering at most
    ``_TILE_BYTES`` of float64 rows ``cols`` wide (at least one row)."""
    step = max(1, _TILE_BYTES // (8 * max(cols, 1)))
    for start in range(0, rows, step):
        yield slice(start, min(start + step, rows))


def refine_z(
    roots: SecularRoots, z: np.ndarray, rho: float, workspace=None
) -> np.ndarray:
    """Gu–Eisenstat refinement: the rank-one vector consistent with the
    *computed* roots.

    By Löwner's formula, exact roots ``lam_i`` of ``D + rho z z^T`` satisfy

        z_j^2 = prod_i (lam_i - d_j) / (rho * prod_{i != j} (d_i - d_j)).

    Evaluating this with the computed roots yields ``z_hat`` such that the
    computed roots are *exact* for ``D + rho z_hat z_hat^T``; eigenvectors
    formed from ``z_hat`` are then orthogonal to machine precision.

    The products are accumulated as paired ratios: every factor
    ``(lam_i - d_j) / (d_p - d_j)`` pairs a root with the pole on the same
    side (``p = i`` below the diagonal, ``p = i + 1`` at/above), so each
    ratio is O(1) by interlacing and the column products stay bounded —
    no logs needed, no Python loops per entry.  The ``(N, N)`` ratio
    matrix is walked in L2-sized column tiles (poles ``j``); each column's
    product runs over all roots in order, so the tiling changes no bit.
    """
    d = roots.d
    N = d.size
    lam_anchor = d[roots.anchors]
    val = np.empty(N, dtype=np.float64)
    for cols in _row_tiles(N, N):
        c0, c1 = cols.start, cols.stop
        dj = d[None, cols]
        # L[i, j] = lam_i - d_j, cancellation-free.
        L = _scratch_matrix(workspace, "secular.tile", (N, c1 - c0))
        np.subtract(lam_anchor[:, None], dj, out=L)
        L += roots.offsets[:, None]
        if N == 1:
            val[cols] = L[0] / rho
            continue
        # R[i, j] = d_p - d_j: p = i for rows i < c0 (all i < j), p = i + 1
        # for rows i >= c1 - 1 (all i >= j), mixed in the diagonal block.
        R = _scratch_matrix(workspace, "secular.loewner_ratio", (N - 1, c1 - c0))
        np.subtract(d[:c0, None], dj, out=R[:c0])
        np.subtract(d[c1:, None], dj, out=R[c1 - 1 :])
        i = np.arange(c0, c1 - 1)[:, None]
        R[c0 : c1 - 1] = d[i + (i >= np.arange(c0, c1)[None, :])] - dj
        np.divide(L[: N - 1], R, out=R)
        val[cols] = np.prod(R, axis=0) * (L[N - 1] / rho)
    # Roundoff can leave a tiny negative value for hard clusters.
    return np.copysign(np.sqrt(np.abs(val)), z)


def secular_eigenvectors(
    roots: SecularRoots,
    zhat: np.ndarray,
    workspace=None,
    basis: np.ndarray | None = None,
) -> np.ndarray:
    """Eigenvector matrix of ``D + rho z_hat z_hat^T`` from the analytic
    formula ``u_i(j) = z_hat_j / (d_j - lam_i)``, columns normalized.

    The matrix is built in L2-sized tiles of roots, each one broadcasted
    outer division plus a row normalization.  When ``workspace`` is given
    the returned matrix is pool-backed scratch — valid until the next
    secular call on the same pool (the divide-and-conquer merge consumes
    it immediately in its GEMM).

    With ``basis`` (``k x N``) the product ``basis @ U`` is returned
    instead, multiplied in tile by tile, so the ``(N, N)`` matrix is never
    formed (the eigenvalues-only merge, ``k = 2``).
    """
    d = roots.d
    N = zhat.size
    lam_anchor = d[roots.anchors]
    if basis is None:
        UT = _scratch_matrix(workspace, "secular.U", (N, N))
    else:
        out = np.empty((basis.shape[0], N), dtype=np.float64)
    for rows in _row_tiles(N, N):
        if basis is None:
            T = UT[rows]
        else:
            T = _scratch_matrix(workspace, "secular.tile", (rows.stop - rows.start, N))
        # T[i, j] = d_j - lam_i, cancellation-free.
        np.subtract(d[None, :], lam_anchor[rows, None], out=T)
        T -= roots.offsets[rows, None]
        np.divide(zhat[None, :], T, out=T)
        T /= np.sqrt(np.einsum("ij,ij->i", T, T))[:, None]
        if basis is not None:
            out[:, rows] = basis @ T.T
    return UT.T if basis is None else out

