"""Composed time model of the proposed method (DBBR + GPU BC + optimized
back transformation) — the series behind Figures 9, 11, 14, 15 and 16.

The composition mirrors the implementation in :mod:`repro.core`:

* DBBR: per-panel QR + green-panel update + look-ahead ``A W`` products
  (skinny, ``k = b``), and one deferred square-block ``syr2k`` with
  ``k = second_block`` per outer block — the large-``k`` rate is the whole
  point (Table 1);
* GPU bulge chasing: per-task cost from the memory model, scheduled by the
  pipeline executor;
* back transformation: Figure 13's batched pairwise merges up to width
  ``k`` followed by ``n/k`` width-``k`` GEMM applications, plus the
  (unoptimized, future-work) BC back transformation when eigenvectors are
  requested.
"""

from __future__ import annotations

from ..gpusim.device import DeviceSpec
from ..gpusim.executor import simulate_bc_pipeline
from ..gpusim.kernels import (
    batched_gemm_time,
    bc_task_time_gpu,
    panel_qr_time,
    syr2k_time_square,
)
from ..gpusim.roofline import gemm_time, sustained_gemm_tflops
from . import flops as F
from .baselines import StageTimes, bc_back_transform_time, magma_stedc_time

__all__ = [
    "dbbr_time",
    "gpu_bc_time",
    "proposed_back_transform_time",
    "proposed_tridiag_times",
    "proposed_evd_times",
]

#: Achieved fraction of the streaming roofline for the ``A W`` products —
#: the symmetric trailing matrix is read through a strided lower-triangle
#: pattern, not a perfect stream.  Calibrated so the proposed H100
#: tridiagonalization lands at the paper's ~19.6 TFLOPs.
AW_STREAM_EFFICIENCY = 0.64


def dbbr_time(device: DeviceSpec, n: int, b: int = 32, k: int = 1024) -> float:
    """Double-blocking band reduction wall time.

    Inner loop (per width-``b`` panel): panel QR, the green-panel update
    against the accumulated pairs (average width ``k/2``), and the
    ``A W`` / correction GEMMs.  Outer loop: one square-block ``syr2k``
    with inner dimension ``k``.
    """
    t = 0.0
    nelim = max(0, n - b - 1)
    i = 0
    while i < nelim:
        kk = min(k, nelim - i)
        j = i
        peak = device.syr2k_square_peak_tflops or None
        while j < i + kk:
            m = n - (j + b)
            t += panel_qr_time(device, m, b)
            # A W: (m x b) = (m x m) @ (m x b); skinny output, huge inner
            # dimension — memory-roofline bound on H100, compute-bound on
            # the RTX 4090.  Runs in the proposed kernel suite (same
            # sustained peak as the square syr2k).
            mem_tf = (
                device.mem_bw_gbs * 1e9 * (b / 4.0) * AW_STREAM_EFFICIENCY / 1e12
            )
            rate = min(
                sustained_gemm_tflops(device, m, b, m, peak_tflops=peak), mem_tf
            ) * 1e12
            t += 2.0 * m * m * b / max(rate, 1.0)
            # Green panel + look-ahead corrections against ~k/2 columns.
            acc = max(kk // 2, b)
            t += gemm_time(device, m, b, acc) + gemm_time(device, acc, b, m)
            j += b
        mt = n - (i + kk)
        if mt > 0:
            t += syr2k_time_square(device, mt, kk)
        i += kk
    return t


def gpu_bc_time(
    device: DeviceSpec,
    n: int,
    b: int = 32,
    optimized: bool = True,
    max_sweeps: int | None = None,
) -> float:
    """GPU bulge chasing wall time via the pipeline executor.

    The warp-grouping factor adapts to the problem: the dependency rule
    caps useful parallelism at ~``n / 3b`` sweeps, so small problems run
    one sweep per SM (each warp gets the whole SM's L2 share and the
    critical path ``~3n`` tasks shortens), while large problems pack as
    many sweeps per SM as the occupancy budget allows (4 at the paper's
    b = 32; see :mod:`repro.gpusim.occupancy`).
    """
    import math

    from ..gpusim.occupancy import bc_sweeps_per_sm

    s_dep = max(1, n // (3 * b))
    spm_hw = bc_sweeps_per_sm(device, b, optimized)
    spm = min(spm_hw, max(1, math.ceil(s_dep / device.sm_count)))
    dt, s_hw = bc_task_time_gpu(device, n, b, optimized=optimized, sweeps_per_sm=spm)
    S = min(max_sweeps, s_hw) if max_sweeps is not None else s_hw
    return simulate_bc_pipeline(n, b, S, dt).total_time_s


def proposed_back_transform_time(
    device: DeviceSpec,
    n: int,
    b: int = 32,
    k: int = 2048,
    ncols: int | None = None,
) -> float:
    """Figure 13 back transformation: batched pairwise W merges up to
    width ``k``, then width-``k`` block applications — 1.6x over MAGMA's
    ``ormqr`` despite the extra merge flops (Figure 14)."""
    m_cols = ncols if ncols is not None else n
    t = 0.0
    # Merge tree: level l merges pairs of width b*2^l blocks.
    width = b
    count = max(n // b, 1)
    while width < k and count > 1:
        pairs = count // 2
        # Each merge: W1 (n x w) @ (Y1^T W2) (w x w) plus the cross product.
        t += batched_gemm_time(device, pairs, n, width, width)
        t += batched_gemm_time(device, pairs, width, width, n)
        width *= 2
        count = (count + 1) // 2
    # Apply the n/k width-k groups: two GEMMs each.
    groups = max(n // max(width, 1), 1)
    for _ in range(groups):
        t += gemm_time(device, width, m_cols, n)  # Y^T X (skinny-tall)
        t += gemm_time(device, n, m_cols, width)  # W @ (...)
    return t


def proposed_tridiag_times(
    device: DeviceSpec, n: int, b: int = 32, k: int = 1024
) -> StageTimes:
    """Proposed 2-stage tridiagonalization: DBBR + optimized GPU BC."""
    st = StageTimes()
    st.stages["dbbr"] = dbbr_time(device, n, b, k)
    st.stages["gpu_bc"] = gpu_bc_time(device, n, b, optimized=True)
    return st


def proposed_evd_times(
    device: DeviceSpec,
    n: int,
    compute_vectors: bool,
    b: int = 32,
    k: int = 1024,
    back_k: int = 2048,
) -> StageTimes:
    """Proposed end-to-end EVD (MAGMA's divide and conquer integrated, as
    in Section 6.2)."""
    st = proposed_tridiag_times(device, n, b, k)
    st.stages["stedc"] = magma_stedc_time(device, n, compute_vectors)
    if compute_vectors:
        st.stages["bc_back"] = bc_back_transform_time(device, n, b)
        st.stages["sbr_back"] = proposed_back_transform_time(device, n, b, back_k)
    return st
