"""API-surface stability: every documented public name exists and the
package-level ``__all__`` lists are importable.

This is the contract of README's "Architecture" section — accidental
removals or renames fail here before any downstream user notices.
"""

from __future__ import annotations

import importlib

import pytest

PUBLIC_API = {
    "repro": [
        "eigh", "eigh_partial", "eigh_hermitian", "eigh_generalized",
        "eigh_stacked", "matrix_fingerprint",
        "tridiagonalize", "dbbr",
        "dc_eigh", "tridiag_qr_eigh", "eigh_bisect",
        "SolverService", "ServiceConfig",
        "EVDResult", "TridiagResult", "__version__",
        "EVDPlan", "PlanError", "plan_evd", "execute_plan", "explain_plan",
        "ReproError", "ConvergenceError", "VerificationError",
        "verify_evd", "verify_tridiag", "execute_plan_with_fallback",
    ],
    "repro.resilience": [
        "ReproError", "ConvergenceError", "VerificationError",
        "WorkerCrashError", "DeadlineExceeded", "BackendFault",
        "FallbackExhausted", "FaultInjectionError", "InjectedWorkerCrash",
        "VerificationReport", "verify_evd", "verify_tridiag",
        "default_tolerances",
        "FAULT_SITES", "FAULT_KINDS", "FaultSpec", "FaultPlan",
        "install_faults", "clear_faults", "injected_faults", "active_plan",
        "faults_from_env", "parse_fault_specs", "maybe_raise", "maybe_corrupt",
        "CircuitBreaker", "BreakerRegistry",
        "EscalationRecord", "FallbackOutcome",
        "resolve_fallback_chain", "execute_plan_with_fallback",
    ],
    "repro.plan": [
        "EVDPlan", "TridiagConfig", "BulgeChaseConfig", "SolverConfig",
        "PlanError",
        "plan_evd", "plan_tridiag", "auto_params", "make_solver_config",
        "execute_plan", "execute_plan_partial", "solve_tridiagonal_planned",
        "explain_plan", "predicted_stage_times",
        "PRESETS", "PIPELINE_KNOBS",
    ],
    "repro.core": [
        "make_householder", "WYAccumulator", "accumulate_wy", "merge_wy",
        "larft", "panel_qr", "panel_qr_wy", "panel_qr_compact",
        "syr2k_reference", "syr2k_square_blocked", "syr2k_rect_blocked",
        "square_schedule", "rect_schedule",
        "dbbr", "direct_tridiagonalize",
        "bulge_chase", "bulge_chase_wavefront",
        "pipeline_schedule", "sweep_tasks", "apply_bc_task",
        "apply_sbr_q", "q_from_blocks",
        "tridiagonalize", "eigh", "eigh_partial", "eigh_stacked",
        "auto_params", "save_tridiag", "load_tridiag",
        "save_evd", "load_evd",
        "matrix_fingerprint", "check_symmetric",
        "SymmetryError", "NonSquareError", "NonFiniteError",
        "EmptyMatrixError",
        "eigh_hermitian", "eigh_generalized", "cholesky_lower",
    ],
    "repro.eig": [
        "dc_eigh", "tridiag_qr_eigh", "eigh_bisect", "eigvals_bisect",
        "sturm_count", "inverse_iteration", "tridiag_solve_shifted",
        "solve_all_roots", "solve_secular_root", "refine_z",
        "secular_eigenvectors", "jacobi_eigh", "DCStats",
    ],
    "repro.band": [
        "LowerBandStorage", "PackedBandStorage", "dense_from_band",
        "bandwidth_of", "is_banded", "extract_tridiagonal",
        "sbmv", "band_frobenius_norm", "band_gershgorin", "tridiag_matvec",
        "random_symmetric_band",
    ],
    "repro.gpusim": [
        "H100", "RTX4090", "CPU_8_CORE", "DeviceSpec", "device_by_name",
        "sustained_gemm_tflops", "gemm_time", "syr2k_tflops",
        "simulate_bc_pipeline", "bc_task_time_gpu", "bc_task_time_cpu",
        "bc_memory_summary", "simulate_layout_misses",
        "throughput_timeline", "ascii_gantt",
    ],
    "repro.models": [
        "flops", "table1_rows", "figure8_series", "figure5_series",
        "bc_time_model", "total_cycles", "stall_cycles",
        "cusolver_sytrd_time", "magma_sy2sb_time", "magma_sb2st_time",
        "proposed_tridiag_times", "proposed_evd_times",
        "make_figure", "figure_registry",
        "headline_metrics", "conclusions_hold",
    ],
    "repro.bench": [
        "goe", "symmetric_with_spectrum", "wilkinson_tridiagonal",
        "print_table", "print_series", "banner", "measure",
    ],
    "repro.serve": [
        "SolverService", "ServiceConfig", "ServiceMetrics", "ResultCache",
        "CacheEntry",
        "RequestQueue", "BatchPolicy", "plan_cache_key",
        "ServiceClosed", "ServiceOverloaded", "SubmitTimeout",
        "WorkloadSpec", "make_workload", "run_loadgen",
    ],
}


@pytest.mark.parametrize("module_name", sorted(PUBLIC_API))
def test_documented_names_exist(module_name):
    mod = importlib.import_module(module_name)
    missing = [n for n in PUBLIC_API[module_name] if not hasattr(mod, n)]
    assert not missing, f"{module_name} is missing {missing}"


@pytest.mark.parametrize(
    "module_name",
    ["repro", "repro.core", "repro.eig", "repro.band", "repro.gpusim",
     "repro.models", "repro.bench", "repro.serve", "repro.plan",
     "repro.resilience"],
)
def test_all_lists_are_importable(module_name):
    mod = importlib.import_module(module_name)
    assert hasattr(mod, "__all__")
    broken = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert not broken, f"{module_name}.__all__ lists missing names {broken}"


def test_version_is_semver():
    import repro

    parts = repro.__version__.split(".")
    assert len(parts) == 3 and all(p.isdigit() for p in parts)
