"""Walkthrough: every stage of the two-stage tridiagonalization, explicit.

Reproduces the paper's pipeline step by step on a small matrix so each
intermediate object can be inspected:

  1. DBBR (Algorithm 1): full -> band, with deferred rank-2k updates;
  2. pipelined bulge chasing (Algorithm 2): band -> tridiagonal, with the
     gCom-style sweep pipeline run one stacked operation per round;
  3. divide & conquer on the tridiagonal matrix;
  4. back transformation (Q1 then the SBR WY blocks, Figure 13 grouping).

    python examples/two_stage_walkthrough.py
"""

from __future__ import annotations

import numpy as np

from repro.band.ops import bandwidth_of, bandwidth_profile
from repro.band.storage import dense_from_band
from repro.core.back_transform import apply_sbr_q
from repro.core.bc_wavefront import bulge_chase_wavefront
from repro.core.dbbr import dbbr
from repro.eig.dc import dc_eigh


def main() -> None:
    n, b, k = 96, 4, 16
    rng = np.random.default_rng(7)
    A = rng.standard_normal((n, n))
    A = (A + A.T) / 2.0

    print(f"Stage 0: random symmetric A, n = {n} (dense bandwidth {bandwidth_of(A)})")

    # --- Stage 1: double-blocking band reduction -------------------------
    red = dbbr(A, bandwidth=b, second_block=k)
    print(f"\nStage 1: DBBR with b = {b}, k = {k} (one rank-2k update per {k} columns)")
    print(f"  band bandwidth: {bandwidth_of(red.band, tol=1e-10)}")
    print(f"  WY blocks recorded: {len(red.blocks)} "
          f"(widths {sorted({blk.width for blk in red.blocks})})")
    print(f"  flops counted: {red.flops:.3g}")
    recon = np.linalg.norm(red.reconstruct() - A) / np.linalg.norm(A)
    print(f"  similarity check ||A - Q B Q^T||/||A|| = {recon:.2e}")

    # --- Stage 2: pipelined bulge chasing --------------------------------
    bc, stats = bulge_chase_wavefront(red.band, b)
    print(f"\nStage 2: pipelined bulge chasing (wavefront engine)")
    print(f"  tasks: {stats.total_tasks}, lockstep rounds: {stats.rounds}, "
          f"max parallel sweeps: {stats.max_parallel}")
    print(f"  serial would need {stats.total_tasks} rounds -> "
          f"{stats.total_tasks / max(stats.rounds, 1):.1f}x pipeline parallelism")
    prof = bandwidth_profile(dense_from_band(bc.d, bc.e))
    print(f"  output bandwidth profile max: {prof.max()} (tridiagonal)")

    # --- Stage 3: divide & conquer ---------------------------------------
    lam, U, dstats = dc_eigh(bc.d, bc.e, return_stats=True)
    print(f"\nStage 3: divide & conquer on tridiag(d, e)")
    print(f"  merges: {dstats.merges}, deflation fraction: "
          f"{dstats.deflation_fraction:.1%}")
    lam_ref = np.linalg.eigvalsh(A)
    print(f"  eigenvalue error vs numpy: {np.max(np.abs(lam - lam_ref)):.2e}")

    # --- Stage 4: back transformation ------------------------------------
    # V = Q_sbr (Q1 U).  The SBR blocks are merged into WY groups of width
    # k before they are applied; group_width=1 would apply them one by one
    # (MAGMA's ormqr).
    V = U.copy()
    bc.apply_q1(V)
    apply_sbr_q(red.blocks, V, group_width=k)
    resid = np.linalg.norm(A @ V - V * lam) / np.linalg.norm(A)
    orth = np.linalg.norm(V.T @ V - np.eye(n))
    print(f"\nStage 4: back transformation (Figure 13 grouping, width {k})")
    print(f"  eigenpair residual: {resid:.2e}, orthogonality: {orth:.2e}")
    print("\nPipeline complete: A = V diag(lam) V^T.")


if __name__ == "__main__":
    main()
