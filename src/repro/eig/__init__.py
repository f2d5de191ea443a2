"""Tridiagonal eigensolvers: divide & conquer and bisection (plus Jacobi)."""

from .dc import DCStats, dc_eigh
from .jacobi import jacobi_eigh
from .sturm import (
    eigh_bisect,
    eigvals_bisect,
    inverse_iteration,
    sturm_count,
    tridiag_solve_shifted,
)

__all__ = [
    "DCStats",
    "dc_eigh",
    "eigh_bisect",
    "eigvals_bisect",
    "inverse_iteration",
    "jacobi_eigh",
    "sturm_count",
    "tridiag_solve_shifted",
]
