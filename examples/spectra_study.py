"""Domain study: eigensolver behaviour across application-like spectra.

The paper motivates EVD with PCA, tight-binding physics and quantum
chemistry — workloads whose matrices have very different spectra.  This
example runs the full pipeline on four spectrum shapes and reports
accuracy, deflation behaviour of divide & conquer, and its agreement with
LAPACK's bisection (``dstebz``) on the same tridiagonal and with LAPACK
on the dense matrix.

    python examples/spectra_study.py
"""

from __future__ import annotations

import numpy as np

import repro
from repro.bench.workloads import (
    clustered_spectrum,
    geometric_spectrum,
    symmetric_with_spectrum,
    uniform_spectrum,
)
from repro.eig import dc_eigh, select_eigh


def run_case(name: str, lam: np.ndarray, seed: int) -> None:
    lam = np.sort(lam)
    n = lam.size
    A = symmetric_with_spectrum(lam, seed=seed)

    res = repro.eigh(A, method="proposed")
    err = np.max(np.abs(res.eigenvalues - lam)) / max(np.max(np.abs(lam)), 1e-300)

    # Deflation behaviour of D&C on this spectrum.
    tri = res.tridiag
    _, _, stats = dc_eigh(tri.d, tri.e, compute_vectors=False, return_stats=True)

    # Independent solver agreement: LAPACK bisection on T, LAPACK on A.
    lam_lapack = np.linalg.eigvalsh(A)
    lam_bi, _ = select_eigh(tri.d, tri.e, 0, n - 1, compute_vectors=False)
    scale = max(np.max(np.abs(lam)), 1.0)
    agree = max(
        np.max(np.abs(res.eigenvalues - lam_lapack)),
        np.max(np.abs(res.eigenvalues - lam_bi)),
    ) / scale

    print(f"{name:>22}: n={n:4d} | rel err {err:.2e} | "
          f"residual {res.residual(A):.2e} | D&C deflation "
          f"{stats.deflation_fraction:5.1%} | solver agreement {agree:.2e}")


def main() -> None:
    print("Eigensolver study across application-like spectra\n")
    n = 200
    run_case("uniform (PCA-like)", uniform_spectrum(n, -1.0, 1.0), seed=1)
    run_case("geometric (chem.)", geometric_spectrum(n, cond=1e10), seed=2)
    run_case("clustered (bands)", clustered_spectrum(n, clusters=5, spread=1e-9,
                                                     seed=3), seed=3)
    two_level = np.concatenate([np.full(n // 2, -1.0), np.full(n - n // 2, 1.0)])
    run_case("two-level (spin)", two_level + 1e-14 * np.arange(n), seed=4)
    print("\nAll spectra are resolved to machine precision; graded and")
    print("degenerate spectra trigger divide-and-conquer deflation — the")
    print("mechanism that keeps Dstedc cheap in Figure 4.")


if __name__ == "__main__":
    main()
