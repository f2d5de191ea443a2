"""Composed time models of the baselines: cuSOLVER and MAGMA.

Each routine is priced by composing the kernel cost models exactly the way
the library executes it:

* ``Dsytrd`` (cuSOLVER) — per-column ``symv`` (memory-bound; half the
  flops) + per-panel rank-``2 nb`` trailing GEMM;
* ``Dsy2sb`` (MAGMA SBR) — per-panel QR + ``A W`` product + cuBLAS
  ``syr2k`` with ``k = b``, with a calibrated efficiency factor for the
  two-sided bookkeeping (symmetric mirror writes, skinny panel shapes);
* ``Dsb2st`` (MAGMA BC) — the CPU task pipeline (8 threads) through the
  pipeline executor;
* ``Dstedc`` — divide and conquer, eigenvalues-only ``O(n^2 log n)``
  (memory-bound) or with the ``4/3 n^3`` eigenvector GEMMs;
* ``ormqr``-style back transformations with ``k = b`` GEMMs.

Figure 4's published seconds at ``n = 49152`` are the calibration anchors;
the tests pin the model to them within tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..gpusim.device import CPU_8_CORE, CPUSpec, DeviceSpec
from ..gpusim.executor import simulate_bc_pipeline
from ..gpusim.kernels import (
    bc_task_time_cpu,
    panel_qr_time,
    symv_time,
    syr2k_time_cublas,
)
from ..gpusim.roofline import gemm_time, sustained_gemm_tflops
from . import flops as F

__all__ = [
    "StageTimes",
    "cusolver_sytrd_time",
    "cusolver_stedc_time",
    "cusolver_syevd_times",
    "magma_sy2sb_time",
    "magma_sb2st_time",
    "magma_stedc_time",
    "magma_ormqr_sbr_time",
    "bc_back_transform_time",
    "magma_tridiag_times",
    "magma_evd_times",
]

#: Two-sided bookkeeping efficiency of MAGMA's sy2sb relative to raw GEMM
#: rate (symmetric mirror writes + skinny shapes); calibrated so sy2sb at
#: n = 49152, b = 64 costs ~22 s (Figure 4: SBR 43% of 2-stage tridiag).
MAGMA_SY2SB_EFFICIENCY = 0.35

#: Effective rate factor of the small-reflector BC back transformation
#: relative to a k = b GEMM (irregular diamond blocking).
BC_BACK_EFFICIENCY = 0.7

#: cuSOLVER Dstedc eigenvalues-only constant: ~33 ms at n = 8192
#: (Section 6.2) -> c = 33e-3 / (8192^2 * log2(8192)).
_CUSOLVER_DC_C = 33e-3 / (8192.0**2 * 13.0)

#: MAGMA Dstedc = cuSOLVER x 1.8 + 190 ms fixed (fits the 248 ms vs 33 ms
#: small-n gap and the ~2x ratio at n = 49152).
_MAGMA_DC_FACTOR = 1.8
_MAGMA_DC_FIXED = 0.19


@dataclass
class StageTimes:
    """Per-stage seconds of a composed pipeline."""

    stages: dict[str, float] = field(default_factory=dict)

    @property
    def total(self) -> float:
        return sum(self.stages.values())

    def fraction(self, name: str) -> float:
        return self.stages[name] / self.total if self.total > 0 else 0.0

    def tflops(self, flop_count: float) -> float:
        return flop_count / self.total / 1e12 if self.total > 0 else 0.0


def cusolver_sytrd_time(device: DeviceSpec, n: int, nb: int = 32) -> float:
    """Direct blocked tridiagonalization (cuSOLVER ``Dsytrd``)."""
    if n < 3:
        return 0.0
    # BLAS2 half: one symv per column over the shrinking trailing matrix.
    # sum_c 0.7*8*(n-c)^2 / BW = 0.7*8*n^3/3 / BW, plus n kernel launches.
    bw = device.mem_bw_gbs * 1e9
    # ~4 kernel launches per column (symv + gemv corrections + scal).
    t_symv = 0.7 * 8.0 * n**3 / 3.0 / bw + 4.0 * n * device.kernel_overhead_us * 1e-6
    # BLAS3 half: one rank-2nb trailing update per panel.
    t_blas3 = 0.0
    m = n
    while m > nb:
        m -= nb
        t_blas3 += gemm_time(device, m, m, 2 * nb)
    return t_symv + t_blas3


def cusolver_stedc_time(device: DeviceSpec, n: int, compute_vectors: bool) -> float:
    """cuSOLVER divide and conquer on the tridiagonal matrix."""
    t = _CUSOLVER_DC_C * n * n * max(math.log2(max(n, 2)), 1.0)
    if compute_vectors:
        # The merge GEMMs: ~4/3 n^3 at large-k sustained rate.
        rate = sustained_gemm_tflops(device, n, n, max(n // 2, 1)) * 1e12
        t += F.stedc_flops(n, True) / rate
    return t


def _ormtr_time(device: DeviceSpec, n: int, nb: int) -> float:
    """Apply the sytrd Q to an n x n matrix (cuSOLVER ``ormtr``):
    2 n^3 flops in width-``nb`` blocked applications."""
    rate = sustained_gemm_tflops(device, n, n, 4 * nb) * 1e12
    return 2.0 * float(n) ** 3 / rate


def cusolver_syevd_times(
    device: DeviceSpec, n: int, compute_vectors: bool, nb: int = 32
) -> StageTimes:
    """cuSOLVER ``Dsyevd``: sytrd + stedc (+ ormtr back transformation)."""
    st = StageTimes()
    st.stages["sytrd"] = cusolver_sytrd_time(device, n, nb)
    st.stages["stedc"] = cusolver_stedc_time(device, n, compute_vectors)
    if compute_vectors:
        st.stages["ormtr"] = _ormtr_time(device, n, max(nb, 128))
    return st


def magma_sy2sb_time(device: DeviceSpec, n: int, b: int) -> float:
    """MAGMA single-blocking band reduction (``Dsy2sb``)."""
    t = 0.0
    j = 0
    nelim = max(0, n - b - 1)
    eff = MAGMA_SY2SB_EFFICIENCY
    while j < nelim:
        m = n - (j + b)
        t += panel_qr_time(device, m, b)
        # A @ W (2 m^2 b flops) and the k = b syr2k trailing update.
        rate = sustained_gemm_tflops(device, m, b, m) * eff * 1e12
        t += 2.0 * m * m * b / max(rate, 1.0)
        t += syr2k_time_cublas(device, m, b, call_overhead_factor=0.25) / eff
        j += b
    return t


def magma_sb2st_time(cpu: CPUSpec, n: int, b: int) -> float:
    """MAGMA CPU bulge chasing (``Dsb2st``): the 8-thread task pipeline."""
    dt = bc_task_time_cpu(cpu, n, b)
    return simulate_bc_pipeline(n, b, cpu.threads, dt).total_time_s


def magma_stedc_time(device: DeviceSpec, n: int, compute_vectors: bool) -> float:
    """MAGMA divide and conquer (slower than cuSOLVER's, Section 6.2)."""
    return (
        _MAGMA_DC_FACTOR * cusolver_stedc_time(device, n, compute_vectors)
        + _MAGMA_DC_FIXED
    )


def magma_ormqr_sbr_time(
    device: DeviceSpec, n: int, b: int, ncols: int | None = None
) -> float:
    """Conventional SBR back transformation (MAGMA ``ormqr``): one pair of
    width-``b`` GEMMs per WY block — the Figure 14 baseline."""
    m_cols = ncols if ncols is not None else n
    t = 0.0
    j = 0
    nelim = max(0, n - b - 1)
    while j < nelim:
        m = n - (j + b)
        t += 2.0 * gemm_time(device, m, m_cols, b)
        j += b
    return t


def bc_back_transform_time(
    device: DeviceSpec, n: int, b: int, ncols: int | None = None
) -> float:
    """Applying the bulge-chasing reflectors to the eigenvector matrix
    (``2 n^2 ncols`` flops in length-``b`` pieces) — the stage that
    dominates the eigenvector path (Section 6.2)."""
    m_cols = ncols if ncols is not None else n
    rate = (
        sustained_gemm_tflops(device, n, m_cols, b) * BC_BACK_EFFICIENCY * 1e12
    )
    return F.bc_back_transform_flops(n, b, m_cols) / rate


def magma_tridiag_times(
    device: DeviceSpec, n: int, b: int = 64, cpu: CPUSpec = CPU_8_CORE
) -> StageTimes:
    """MAGMA 2-stage tridiagonalization: sy2sb + sb2st."""
    st = StageTimes()
    st.stages["sy2sb"] = magma_sy2sb_time(device, n, b)
    st.stages["sb2st"] = magma_sb2st_time(cpu, n, b)
    return st


def magma_evd_times(
    device: DeviceSpec,
    n: int,
    compute_vectors: bool,
    b: int = 64,
    cpu: CPUSpec = CPU_8_CORE,
) -> StageTimes:
    """MAGMA end-to-end EVD: 2-stage tridiag + Dstedc (+ back transforms)."""
    st = magma_tridiag_times(device, n, b, cpu)
    st.stages["stedc"] = magma_stedc_time(device, n, compute_vectors)
    if compute_vectors:
        st.stages["bc_back"] = bc_back_transform_time(device, n, b)
        st.stages["sbr_back"] = magma_ormqr_sbr_time(device, n, b)
    return st
