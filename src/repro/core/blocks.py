"""Shared result types for the band-reduction stage (SBR and DBBR).

Both reductions produce (a) a symmetric band matrix orthogonally similar to
the input and (b) an ordered list of embedded WY blocks whose product is the
similarity transform.  The back-transformation routines
(:mod:`repro.core.back_transform`) consume exactly this representation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["WYBlock", "BandReductionResult"]


@dataclass
class WYBlock:
    """One panel's orthogonal factor ``Q_p = I - W Y^T`` embedded at
    rows/columns ``offset .. n`` of the full matrix.

    ``W`` and ``Y`` are ``(n - offset) x width`` with ``Y`` unit lower
    trapezoidal (the Householder vectors) and ``W`` the forward-accumulated
    WY factor, so ``Q_p`` restricted to the trailing window is orthogonal.
    """

    W: np.ndarray
    Y: np.ndarray
    offset: int

    @property
    def width(self) -> int:
        return self.W.shape[1]

    @property
    def rows(self) -> int:
        return self.W.shape[0]

    def embed(self, n: int) -> np.ndarray:
        """Materialize the full ``n x n`` orthogonal matrix (tests only)."""
        Q = np.eye(n)
        Q[self.offset :, self.offset :] -= self.W @ self.Y.T
        return Q

    def apply_left(self, X: np.ndarray) -> None:
        """In place ``X <- Q_p X`` (rows ``offset:`` only are touched)."""
        sub = X[self.offset :, :]
        sub -= self.W @ (self.Y.T @ sub)

    def apply_left_transpose(self, X: np.ndarray) -> None:
        """In place ``X <- Q_p^T X``."""
        sub = X[self.offset :, :]
        sub -= self.Y @ (self.W.T @ sub)


@dataclass
class BandReductionResult:
    """Output of :func:`repro.core.dbbr.dbbr` (SBR is its ``k = b`` case).

    Satisfies ``A = Q @ band @ Q.T`` with ``Q = prod(blocks in order)``
    (block 0 leftmost), where ``band`` is symmetric with bandwidth
    ``bandwidth``.
    """

    band: np.ndarray
    bandwidth: int
    blocks: list[WYBlock] = field(default_factory=list)
    flops: float = 0.0

    @property
    def n(self) -> int:
        return self.band.shape[0]

    def q(self) -> np.ndarray:
        """Materialize the full similarity transform ``Q`` (for tests /
        small problems): ``Q = Q_0 Q_1 ... Q_{p-1}``."""
        Q = np.eye(self.n)
        # Q = Q_0 (Q_1 (... Q_{p-1} I)): apply rightmost block first.
        for blk in reversed(self.blocks):
            blk.apply_left(Q)
        return Q

    def reconstruct(self) -> np.ndarray:
        """``Q @ band @ Q^T`` — should reproduce the original matrix."""
        Q = self.q()
        return Q @ self.band @ Q.T
