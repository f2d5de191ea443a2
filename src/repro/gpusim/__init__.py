"""Calibrated GPU/CPU performance simulator.

Device models (H100, RTX 4090, an 8-thread MKL host), roofline and
sustained-GEMM rate curves, kernel cost models for every operation in the
tridiagonalization pipeline, an executor that prices the pipelined bulge
chasing's schedule, and memory-hierarchy accounting (including a mechanistic
LRU replay of the Figure-10 layout claim).

All *numerics* in this package's callers run for real in NumPy; this
package only prices them at device scale so the paper's tables and
figures can be regenerated (see EXPERIMENTS.md for the honesty contract).
"""

from .chrome_trace import chrome_trace_events, export_chrome_trace
from .device import CPU_8_CORE, H100, RTX4090, CPUSpec, DeviceSpec, device_by_name
from .executor import BCSimResult, simulate_bc_pipeline, tasks_per_sweep
from .kernels import (
    band_working_set_bytes,
    batched_gemm_time,
    bc_task_bytes,
    bc_task_time_cpu,
    bc_task_time_gpu,
    panel_qr_time,
    symv_time,
    syr2k_flops,
    syr2k_tflops,
    syr2k_time_cublas,
    syr2k_time_square,
)
from .occupancy import (
    KernelResources,
    OccupancyResult,
    bc_sweeps_per_sm,
    occupancy,
)
from .memory import (
    BCMemorySummary,
    LRUCache,
    bc_memory_summary,
    simulate_layout_misses,
)
from .roofline import (
    attainable_tflops,
    gemm_bytes,
    gemm_time,
    memory_time,
    sustained_gemm_tflops,
)
from .trace import ThroughputTimeline, ascii_gantt, throughput_timeline, utilization

__all__ = [
    "BCMemorySummary",
    "BCSimResult",
    "CPU_8_CORE",
    "CPUSpec",
    "DeviceSpec",
    "H100",
    "KernelResources",
    "LRUCache",
    "OccupancyResult",
    "RTX4090",
    "ThroughputTimeline",
    "ascii_gantt",
    "attainable_tflops",
    "band_working_set_bytes",
    "batched_gemm_time",
    "bc_memory_summary",
    "bc_task_bytes",
    "bc_task_time_cpu",
    "chrome_trace_events",
    "bc_sweeps_per_sm",
    "bc_task_time_gpu",
    "device_by_name",
    "export_chrome_trace",
    "gemm_bytes",
    "gemm_time",
    "memory_time",
    "occupancy",
    "panel_qr_time",
    "simulate_bc_pipeline",
    "simulate_layout_misses",
    "sustained_gemm_tflops",
    "symv_time",
    "syr2k_flops",
    "syr2k_tflops",
    "syr2k_time_cublas",
    "syr2k_time_square",
    "tasks_per_sweep",
    "throughput_timeline",
    "utilization",
]
