"""Symmetric band matrix storage layouts.

Bulge chasing operates on a symmetric band matrix with (half-)bandwidth
``b``.  Two layouts are provided:

* :class:`LowerBandStorage` — the LAPACK ``sbmv``-style lower band layout:
  a dense ``(b+1) x n`` array ``ab`` with ``ab[i, j] == A[j + i, j]``
  (diagonal in row 0, ``i``-th subdiagonal in row ``i``).  Column-major
  walks of the band touch non-consecutive memory in the originating dense
  matrix — the access pattern the paper's Figure 10 calls out.
* :class:`PackedBandStorage` — the paper's Figure-10 layout: the band
  entries of each column stored *consecutively* in one flat buffer (taking
  advantage of symmetry, only the lower band is kept).  On a GPU this makes
  the whole working set a single contiguous ~``n*(b+1)*8`` byte region that
  fits in the H100's 50 MB L2 for the sizes the paper uses; here it gives
  the simulator an exact byte count and the numerics a cache-friendly walk.

Both layouts support round-tripping to dense and to each other, and expose
``column_slice``/``window`` accessors used by the bulge-chasing kernels.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "LowerBandStorage",
    "PackedBandStorage",
    "band_from_dense",
    "dense_from_band",
]


class LowerBandStorage:
    """LAPACK-style lower symmetric band storage ``ab[(b+1), n]``.

    ``ab[i, j] = A[j + i, j]`` for ``0 <= i <= b`` and ``j + i < n``; unused
    trailing entries of each column are kept at zero.
    """

    def __init__(self, ab: np.ndarray, bandwidth: int):
        ab = np.asarray(ab)
        if ab.dtype not in (np.float32, np.float64):
            ab = ab.astype(np.float64)
        if ab.ndim != 2 or ab.shape[0] != bandwidth + 1:
            raise ValueError(
                f"ab must be (b+1) x n with b={bandwidth}, got {ab.shape}"
            )
        self.ab = ab
        self.b = int(bandwidth)
        self.n = ab.shape[1]

    @classmethod
    def from_dense(cls, A: np.ndarray, bandwidth: int) -> "LowerBandStorage":
        """Extract the lower band of symmetric ``A`` (entries outside the
        band are ignored, callers should validate separately if needed)."""
        A = np.asarray(A)
        if A.dtype not in (np.float32, np.float64):
            A = A.astype(np.float64)
        n = A.shape[0]
        b = int(bandwidth)
        ab = np.zeros((b + 1, n), dtype=A.dtype)
        for i in range(min(b, n - 1) + 1):
            ab[i, : n - i] = np.diagonal(A, -i)
        return cls(ab, b)

    def to_dense(self) -> np.ndarray:
        """Materialize the full symmetric dense matrix."""
        n, b = self.n, self.b
        A = np.zeros((n, n), dtype=self.ab.dtype)
        for i in range(b + 1):
            idx = np.arange(n - i)
            A[idx + i, idx] = self.ab[i, : n - i]
            if i > 0:
                A[idx, idx + i] = self.ab[i, : n - i]
        return A

    def copy(self) -> "LowerBandStorage":
        return LowerBandStorage(self.ab.copy(), self.b)

    def diagonal(self) -> np.ndarray:
        """The main diagonal (a view into the storage)."""
        return self.ab[0]

    def subdiagonal(self, i: int = 1) -> np.ndarray:
        """The ``i``-th subdiagonal, length ``n - i`` (a view)."""
        if not (1 <= i <= self.b):
            raise IndexError(f"subdiagonal {i} outside band 1..{self.b}")
        return self.ab[i, : self.n - i]

    def nbytes(self) -> int:
        """Bytes of the stored band (what the GPU working set would be)."""
        return self.ab.nbytes

    def __eq__(self, other: object) -> bool:  # pragma: no cover - convenience
        return (
            isinstance(other, LowerBandStorage)
            and self.b == other.b
            and np.array_equal(self.ab, other.ab)
        )


class PackedBandStorage:
    """Figure-10 packed layout: each column's band entries are consecutive.

    The flat ``data`` buffer holds, for column ``j``, the ``min(b+1, n-j)``
    entries ``A[j, j], A[j+1, j], ..., A[min(j+b, n-1), j]`` starting at
    ``offsets[j]``.  Total size is ``n*(b+1) - b*(b+1)/2`` doubles — the
    number the simulator compares against L2 capacity.
    """

    def __init__(self, data: np.ndarray, offsets: np.ndarray, n: int, bandwidth: int):
        data = np.asarray(data)
        if data.dtype not in (np.float32, np.float64):
            data = data.astype(np.float64)
        self.data = data
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.n = int(n)
        self.b = int(bandwidth)

    @classmethod
    def from_dense(cls, A: np.ndarray, bandwidth: int) -> "PackedBandStorage":
        A = np.asarray(A)
        if A.dtype not in (np.float32, np.float64):
            A = A.astype(np.float64)
        n = A.shape[0]
        b = int(bandwidth)
        lengths = np.minimum(b + 1, n - np.arange(n))
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        data = np.zeros(int(offsets[-1]), dtype=A.dtype)
        for j in range(n):
            lj = int(lengths[j])
            data[offsets[j] : offsets[j] + lj] = A[j : j + lj, j]
        return cls(data, offsets, n, b)

    @classmethod
    def from_lower_band(cls, lb: LowerBandStorage) -> "PackedBandStorage":
        n, b = lb.n, lb.b
        lengths = np.minimum(b + 1, n - np.arange(n))
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        data = np.zeros(int(offsets[-1]), dtype=lb.ab.dtype)
        for j in range(n):
            lj = int(lengths[j])
            data[offsets[j] : offsets[j] + lj] = lb.ab[:lj, j]
        return cls(data, offsets, n, b)

    def column(self, j: int) -> np.ndarray:
        """Band entries of column ``j`` (``A[j:j+len, j]``), as a view."""
        return self.data[self.offsets[j] : self.offsets[j + 1]]

    def to_lower_band(self) -> LowerBandStorage:
        ab = np.zeros((self.b + 1, self.n), dtype=self.data.dtype)
        for j in range(self.n):
            col = self.column(j)
            ab[: col.size, j] = col
        return LowerBandStorage(ab, self.b)

    def to_dense(self) -> np.ndarray:
        return self.to_lower_band().to_dense()

    def nbytes(self) -> int:
        """Bytes of the packed band — the L2 working set of Figure 10."""
        return self.data.nbytes


def band_from_dense(A: np.ndarray, bandwidth: int) -> LowerBandStorage:
    """Convenience alias for :meth:`LowerBandStorage.from_dense`."""
    return LowerBandStorage.from_dense(A, bandwidth)


def dense_from_band(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Build the dense symmetric tridiagonal matrix from ``(d, e)``."""
    d = np.asarray(d, dtype=np.float64)
    e = np.asarray(e, dtype=np.float64)
    n = d.size
    if e.size != n - 1:
        raise ValueError(f"e must have length n-1={n - 1}, got {e.size}")
    T = np.diag(d)
    idx = np.arange(n - 1)
    T[idx + 1, idx] = e
    T[idx, idx + 1] = e
    return T
