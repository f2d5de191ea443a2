"""Input validation shared by the public entry points.

Real-world matrices arrive slightly asymmetric (accumulated roundoff from
whoever built them) or outright broken (NaN/Inf).  The drivers accept the
former — the pipeline only reads the lower triangle anyway, and we
symmetrize — but refuse quietly wrong inputs: non-finite entries, a
non-square array, an empty matrix, or asymmetry large enough that "the
symmetric eigenproblem of A" is not a well-posed request.

Every rejection is a *typed* ``ValueError`` subclass (also rooted at
:class:`~repro.resilience.ReproError`, the base of every deliberate
failure in the stack) so callers (and the serving layer, which must map
a bad request to a failed future without tearing down the worker) can
distinguish the failure modes without string-matching messages.

:func:`matrix_fingerprint` is the content-addressing primitive of the
result cache in :mod:`repro.serve`: a stable hash over shape, dtype and
raw bytes, so two bitwise-identical inputs share a cache entry and any
single-bit difference does not.
"""

from __future__ import annotations

import hashlib
import warnings

import numpy as np

from ..resilience.errors import ReproError

__all__ = [
    "check_symmetric",
    "matrix_fingerprint",
    "PrecisionWarning",
    "SymmetryError",
    "NonSquareError",
    "NonFiniteError",
    "EmptyMatrixError",
    "OperandShapeError",
]

#: Relative asymmetry beyond which the input is rejected rather than
#: symmetrized (||A - A^T|| / ||A||).
DEFAULT_SYMMETRY_TOL = 1e-8

#: Tile edge of the symmetry pass: a tile and its mirror are both
#: cache-resident, where a full ``A.T`` reads ``A`` with stride ``n``.
_SYM_TILE = 64


class SymmetryError(ReproError, ValueError):
    """The input is too far from symmetric to treat as a symmetric
    eigenproblem."""


class NonSquareError(ReproError, ValueError):
    """The input is not a 2-D square matrix."""


class NonFiniteError(ReproError, ValueError):
    """The input contains NaN or Inf entries."""


class EmptyMatrixError(ReproError, ValueError):
    """The input has zero rows/columns — there is no eigenproblem to
    solve (and the kernels' ``n >= 1`` assumptions would trip)."""


class OperandShapeError(ReproError, ValueError):
    """An operand of ``Q``/``Q^T`` is not 2-D with ``n`` rows."""


class PrecisionWarning(UserWarning):
    """A float32 input was silently widened to float64 at an entry point.

    The pipeline's working precision defaults to float64, so a float32
    matrix is upcast on entry — it costs the fp64 compute rate without
    gaining fp64 input accuracy.  Callers who *meant* to trade precision
    for speed should request ``precision="mixed"`` (fp32 pipeline with
    refinement back to fp64 tolerances, see :mod:`repro.precision`),
    which suppresses this warning.
    """


def check_symmetric(
    A: np.ndarray,
    tol: float = DEFAULT_SYMMETRY_TOL,
    symmetrize: bool = True,
    dtype: np.dtype | None = None,
    warn_on_upcast: bool = True,
) -> np.ndarray:
    """Validate a symmetric-matrix input and return a clean working copy.

    ``dtype`` is the working precision of the returned copy — float64
    by default (the historical contract, bit-identical); a
    mixed-precision policy passes float32 here, the *single*
    dtype-coercion point of the pipeline.  A float32 input silently
    widened to float64 emits :class:`PrecisionWarning` (disable with
    ``warn_on_upcast=False`` — the precision driver does, because under
    an explicit policy the upcast is intentional).

    Raises
    ------
    NonSquareError
        Not a 2-D square array.
    EmptyMatrixError
        Square but with zero rows/columns.
    NonFiniteError
        Contains NaN or Inf.
    SymmetryError
        ``||A - A^T||_F > tol * ||A||_F``.

    Returns
    -------
    ndarray
        ``(A + A^T)/2`` in the working dtype (or the coerced copy
        itself when already exactly symmetric), never aliasing the
        input.
    """
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise NonSquareError(f"expected a square matrix, got shape {A.shape}")
    if A.shape[0] == 0:
        raise EmptyMatrixError("expected a non-empty matrix, got shape (0, 0)")
    target = np.dtype(np.float64) if dtype is None else np.dtype(dtype)
    if (
        warn_on_upcast
        and A.dtype == np.float32
        and target == np.float64
    ):
        warnings.warn(
            "float32 input is being widened to float64: the solve pays the "
            "fp64 compute rate without fp64 input accuracy; pass "
            "precision='mixed' to run the pipeline in fp32 with refinement "
            "back to fp64 tolerances (see repro.precision)",
            PrecisionWarning,
            stacklevel=3,
        )
    A = np.array(A, dtype=target, copy=True)
    if not np.all(np.isfinite(A)):
        raise NonFiniteError("matrix contains NaN or Inf entries")
    # The symmetry gate is always judged in fp64: a float32 working copy
    # must not loosen (or re-randomize) the acceptance threshold.
    norm = np.linalg.norm(np.asarray(A, dtype=np.float64))
    asym, differs = _asymmetry(A)
    if asym > tol * max(norm, np.finfo(np.float64).tiny):
        raise SymmetryError(
            f"input is not symmetric: ||A - A^T||/||A|| = {asym / max(norm, 1e-300):.2e}"
            f" exceeds tol = {tol:g}"
        )
    if differs and symmetrize:
        _symmetrize(A)
    return A


def _tile_pairs(n: int):
    """``(rows, cols)`` slice pairs of the upper tiles, diagonal included."""
    for i in range(0, n, _SYM_TILE):
        for j in range(i, n, _SYM_TILE):
            yield slice(i, i + _SYM_TILE), slice(j, j + _SYM_TILE)


def _asymmetry(A: np.ndarray) -> tuple[float, bool]:
    """``(||A - A^T||_F in fp64, whether any entry differs from its mirror)``.

    The second value is exact where the squared sum can underflow to 0.
    """
    sq = 0.0
    differs = False
    for I, J in _tile_pairs(A.shape[0]):
        D = np.asarray(A[I, J], dtype=np.float64) - A[J, I].T
        d = D.ravel()
        s = float(d @ d)
        # An off-diagonal tile pair holds each difference twice in A - A^T.
        sq += s if I == J else 2.0 * s
        differs = differs or bool(d.any())
    return float(np.sqrt(sq)), differs


def _symmetrize(A: np.ndarray) -> None:
    """``A <- (A + A^T) / 2`` in place and in ``A``'s dtype, tile pair by
    tile pair (elementwise the same arithmetic as the full-matrix form)."""
    two = np.asarray(2.0, dtype=A.dtype)
    for I, J in _tile_pairs(A.shape[0]):
        S = (A[I, J] + A[J, I].T) / two
        A[I, J] = S
        A[J, I] = S.T


def matrix_fingerprint(A: np.ndarray) -> str:
    """Stable content hash of an array: shape + dtype + raw bytes.

    Two arrays fingerprint identically iff they are bitwise identical
    (same dtype, same shape, same element bytes) — the property the serve
    result cache needs for deterministic replay.  Note that dtype is part
    of the identity: a float32 matrix and its float64 widening hash
    differently even when numerically equal, which errs on the side of
    recomputing rather than conflating.

    Returns a short hex digest (BLAKE2b-128), cheap enough to compute per
    request at serving sizes.
    """
    A = np.asarray(A)
    h = hashlib.blake2b(digest_size=16)
    h.update(str(A.dtype).encode())
    h.update(np.asarray(A.shape, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(A).tobytes())
    return h.hexdigest()
