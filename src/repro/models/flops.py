"""Floating-point operation counts for every pipeline stage.

Conventions follow the paper (and LAPACK working notes):

* tridiagonalization (any method): ``4/3 n^3`` — this is the denominator
  of every "TFLOPs" number in the paper (e.g. 19.6 TFLOPs = ``4/3 n^3``
  over the measured tridiagonalization time);
* ``syr2k``: ``2 n^2 k`` (Table 1's convention);
* bulge chasing: ``~12 n^2 b`` as implemented (each of ``~n^2/(2b)`` tasks
  updates a two-sided ``b x 3b`` window; under 10% of the total, per
  Section 3.1);
* back transformations: ``2 n^3`` each for applying the SBR blocks and the
  BC reflectors to an ``n x n`` eigenvector matrix.

The test suite cross-checks these formulas against the exact counters the
numeric kernels accumulate.
"""

from __future__ import annotations

__all__ = [
    "tridiag_flops",
    "syr2k_flops",
    "sbr_flops",
    "dbbr_flops",
    "bulge_chasing_flops",
    "bc_task_count",
    "sbr_back_transform_flops",
    "bc_back_transform_flops",
    "stedc_flops",
    "evd_flops",
]


def tridiag_flops(n: int) -> float:
    """The paper's tridiagonalization flop convention: ``4/3 n^3``."""
    return 4.0 / 3.0 * float(n) ** 3


def syr2k_flops(n: int, k: int) -> float:
    """``C += A B^T + B A^T`` on the symmetric half: ``2 n^2 k``."""
    return 2.0 * float(n) * n * k


def sbr_flops(n: int, b: int) -> float:
    """Single-blocking band reduction: ``~4/3 n^3`` (split evenly between
    the ``A W`` products and the ``syr2k`` trailing updates), plus the
    ``O(n^2 b)`` panel QR term."""
    return 4.0 / 3.0 * float(n) ** 3 + 2.0 * float(n) ** 2 * b


def dbbr_flops(n: int, b: int, k: int) -> float:
    """Double-blocking band reduction: SBR's ``4/3 n^3`` plus the deferred
    update's look-ahead corrections, ``~3 n^2 k`` (the extra GEMMs that
    keep later panels consistent with earlier, unapplied pairs)."""
    return sbr_flops(n, b) + 3.0 * float(n) ** 2 * k


def bc_task_count(n: int, b: int) -> float:
    """Total bulge tasks: ``sum_i (1 + floor((n-3-i)/b)) ~ n^2/(2b)``."""
    if b < 2 or n < 3:
        return 0.0
    import numpy as np

    i = np.arange(n - 2, dtype=np.int64)
    return float(np.sum(1 + (n - 3 - i) // b))


def bulge_chasing_flops(n: int, b: int) -> float:
    """As-implemented bulge chasing work: ``~12 n^2 b`` (each task applies
    a two-sided update over a ``b x 3b`` window, both triangles)."""
    return 12.0 * float(n) ** 2 * b


def sbr_back_transform_flops(n: int, ncols: int | None = None) -> float:
    """Applying all SBR WY blocks to an ``n x ncols`` matrix (``ormqr``):
    ``2 n^2 ncols`` multiply-adds x 2 GEMMs per block telescopes to
    ``~2 n^2 ncols``."""
    m = ncols if ncols is not None else n
    return 2.0 * float(n) ** 2 * m


def bc_back_transform_flops(n: int, b: int, ncols: int | None = None) -> float:
    """Applying the ``~n^2/(2b)`` bulge-chasing reflectors (length ``b``)
    to an ``n x ncols`` matrix: ``4 b ncols`` per reflector ->
    ``~2 n^2 ncols`` — as large as the SBR back transform but in tiny
    rank-1 pieces, which is why it dominates the eigenvector path
    (61% of the proposed EVD, Section 6.2)."""
    m = ncols if ncols is not None else n
    return 2.0 * float(n) ** 2 * m


def stedc_flops(n: int, compute_vectors: bool) -> float:
    """Divide and conquer on the tridiagonal: the eigenvector GEMMs give
    ``~4/3 n^3`` (no deflation); eigenvalues-only is ``O(n^2 log n)``."""
    if compute_vectors:
        return 4.0 / 3.0 * float(n) ** 3
    import math

    return 30.0 * float(n) ** 2 * max(math.log2(max(n, 2)), 1.0)


def evd_flops(n: int, b: int, compute_vectors: bool) -> float:
    """End-to-end EVD flop budget for the two-stage pipeline."""
    total = tridiag_flops(n) + stedc_flops(n, compute_vectors)
    if compute_vectors:
        total += bc_back_transform_flops(n, b) + sbr_back_transform_flops(n)
    return total
