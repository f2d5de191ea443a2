"""Tridiagonal eigensolvers: divide & conquer, and LAPACK selection of a
window of eigenpairs."""

from .dc import DCStats, dc_eigh
from .select import select_eigh

__all__ = [
    "DCStats",
    "dc_eigh",
    "select_eigh",
]
