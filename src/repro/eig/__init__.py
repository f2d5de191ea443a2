"""Tridiagonal eigensolvers: divide & conquer, QL iteration, bisection."""

from .dc import DCStats, dc_eigh
from .jacobi import jacobi_eigh
from .qr_iteration import tridiag_qr_eigh
from .secular import (
    SecularRoots,
    refine_z,
    secular_eigenvectors,
    secular_f,
    solve_all_roots,
)
from .sturm import (
    eigh_bisect,
    eigvals_bisect,
    inverse_iteration,
    sturm_count,
    tridiag_solve_shifted,
)

__all__ = [
    "DCStats",
    "SecularRoots",
    "dc_eigh",
    "eigh_bisect",
    "eigvals_bisect",
    "inverse_iteration",
    "jacobi_eigh",
    "refine_z",
    "secular_eigenvectors",
    "secular_f",
    "solve_all_roots",
    "sturm_count",
    "tridiag_qr_eigh",
    "tridiag_solve_shifted",
]
