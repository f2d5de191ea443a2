"""Partial-spectrum EVD and factorization reuse.

A common production pattern: tridiagonalize once (the expensive part),
persist the factors, then answer many cheap spectral queries later —
selected eigenvalue windows, extreme eigenpairs, quadratic forms — without
refactorizing.  This example demonstrates:

  1. `repro.eigh_partial` — selected eigenpairs (LAPACK `dstebz` bisection
     + `dstein` inverse iteration + a back transform over only the
     requested columns);
  2. `save_tridiag` / `load_tridiag` — persisting a factorization and
     back-transforming from disk;
  3. the blocked BC back transformation (the paper's future-work item)
     applied to a wide eigenvector window, against the rank-1 reflector
     replay it replaced (``apply_q1_reference``).

    python examples/partial_spectrum_and_reuse.py
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

import numpy as np

import repro
from repro.core.bulge_chasing import apply_q1_reference
from repro.core.serialization import load_tridiag, save_tridiag
from repro.eig.dc import dc_eigh


def main() -> None:
    n = 400
    rng = np.random.default_rng(42)
    A = rng.standard_normal((n, n))
    A = (A + A.T) / 2.0
    lam_ref = np.linalg.eigvalsh(A)

    # --- 1. Selected eigenpairs ------------------------------------------
    t0 = time.perf_counter()
    window = repro.eigh_partial(A, (0, 9))  # the 10 smallest
    t_partial = time.perf_counter() - t0
    err = np.max(np.abs(window.eigenvalues - lam_ref[:10]))
    V = window.eigenvectors
    resid = np.linalg.norm(A @ V - V * window.eigenvalues) / np.linalg.norm(A)
    print(f"eigh_partial, 10 smallest of {n}: {t_partial:.2f} s "
          f"| eigenvalue err {err:.2e} | residual {resid:.2e}")

    t0 = time.perf_counter()
    full = repro.eigh(A)
    t_full = time.perf_counter() - t0
    print(f"full eigh for comparison:        {t_full:.2f} s "
          f"({t_full / t_partial:.1f}x the partial query)")

    # --- 2. Persist and reuse the factorization --------------------------
    tri = repro.tridiagonalize(A)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "factors.npz"
        save_tridiag(path, tri)
        size_mb = path.stat().st_size / 1e6
        loaded = load_tridiag(path)
        print(f"\nfactorization persisted: {size_mb:.1f} MB on disk")
        # Answer a new query from disk: eigenvectors 190..199.
        lam, U = dc_eigh(loaded.d, loaded.e)
        Vw = np.array(U[:, 190:200])
        loaded.apply_q(Vw)
        r = np.linalg.norm(A @ Vw - Vw * lam[190:200]) / np.linalg.norm(A)
        print(f"mid-spectrum window from disk: residual {r:.2e}")

    # --- 3. Blocked BC back transformation (future work) ------------------
    bc = tri.bc_result
    X = rng.standard_normal((n, 50))
    t0 = time.perf_counter()
    Y_scalar = X.copy()
    apply_q1_reference(bc, Y_scalar)
    t_scalar = time.perf_counter() - t0
    t0 = time.perf_counter()
    Y_blocked = X.copy()
    bc.apply_q1(Y_blocked)
    t_blocked = time.perf_counter() - t0
    dev = np.max(np.abs(Y_scalar - Y_blocked))
    print(f"\nblocked BC back transform: "
          f"{t_scalar * 1e3:.0f} ms scalar -> {t_blocked * 1e3:.0f} ms blocked "
          f"({t_scalar / max(t_blocked, 1e-9):.1f}x), deviation {dev:.2e}")
    print(f"  ({bc.num_reflectors} reflectors collapsed into "
          f"{bc.q1_blocks().count} diamond WY blocks)")


if __name__ == "__main__":
    main()
