"""Core algorithms: the paper's contribution and its numerical baselines."""

from .back_transform import (
    apply_sbr_q,
    apply_sbr_q_transpose,
    q_from_blocks,
)
from .bc_back_transform import blocked_bc_back_time
from .bc_pipeline import PipelineStats, pipeline_schedule, sweep_starts
from .bc_wavefront import (
    BCWavefrontGroup,
    WavefrontBCResult,
    bulge_chase_wavefront,
)
from .blocks import BandReductionResult, WYBlock
from .bulge_chasing import (
    BCReflector,
    BCTask,
    BulgeChasingResult,
    apply_bc_task,
    bc_task_flops,
    bulge_chase,
    num_tasks_in_sweep,
    sweep_tasks,
    task_window,
)
from .dbbr import dbbr
from .direct_tridiag import DirectTridiagResult, direct_tridiagonalize
from .evd import EVDResult, eigh, eigh_partial, eigh_stacked
from .extensions import (
    cholesky_lower,
    eigh_generalized,
    eigh_hermitian,
    solve_triangular_lower,
)
from .householder import (
    WYAccumulator,
    accumulate_wy,
    apply_householder_left,
    apply_householder_right,
    apply_householder_two_sided,
    batched_make_householder,
    build_q_from_compact_wy,
    build_q_from_wy,
    larft,
    make_householder,
    merge_wy,
)
from .panel_qr import explicit_q, panel_qr, panel_qr_compact, panel_qr_wy
from .serialization import load_evd, load_tridiag, save_evd, save_tridiag
from .svd import BidiagResult, bidiagonalize, golub_kahan_tridiagonal, svd
from .tile_sbr import TileBandReductionResult, TileReflector, tile_sbr, tile_task_dag
from .syr2k import (
    Syr2kTask,
    rect_schedule,
    square_schedule,
    symmetrize_lower,
    syr2k_rect_blocked,
    syr2k_reference,
    syr2k_square_blocked,
)
from .tridiag import (
    TridiagResult,
    auto_params,
    tridiagonalize,
    tridiagonalize_planned,
)
from .validation import (
    EmptyMatrixError,
    NonFiniteError,
    NonSquareError,
    OperandShapeError,
    SymmetryError,
    check_symmetric,
    matrix_fingerprint,
)

__all__ = [
    "BCWavefrontGroup",
    "BandReductionResult",
    "BidiagResult",
    "BCReflector",
    "BCTask",
    "BulgeChasingResult",
    "DirectTridiagResult",
    "EVDResult",
    "PipelineStats",
    "Syr2kTask",
    "TileBandReductionResult",
    "TileReflector",
    "TridiagResult",
    "WavefrontBCResult",
    "WYAccumulator",
    "WYBlock",
    "accumulate_wy",
    "apply_bc_task",
    "apply_householder_left",
    "apply_householder_right",
    "apply_householder_two_sided",
    "batched_make_householder",
    "bc_task_flops",
    "apply_sbr_q",
    "apply_sbr_q_transpose",
    "auto_params",
    "build_q_from_compact_wy",
    "blocked_bc_back_time",
    "build_q_from_wy",
    "bidiagonalize",
    "bulge_chase",
    "bulge_chase_wavefront",
    "cholesky_lower",
    "dbbr",
    "direct_tridiagonalize",
    "check_symmetric",
    "eigh",
    "eigh_generalized",
    "eigh_hermitian",
    "eigh_partial",
    "eigh_stacked",
    "EmptyMatrixError",
    "explicit_q",
    "matrix_fingerprint",
    "NonFiniteError",
    "NonSquareError",
    "OperandShapeError",
    "SymmetryError",
    "golub_kahan_tridiagonal",
    "larft",
    "load_evd",
    "load_tridiag",
    "make_householder",
    "merge_wy",
    "num_tasks_in_sweep",
    "panel_qr",
    "panel_qr_compact",
    "panel_qr_wy",
    "pipeline_schedule",
    "q_from_blocks",
    "rect_schedule",
    "save_evd",
    "save_tridiag",
    "solve_triangular_lower",
    "square_schedule",
    "svd",
    "sweep_starts",
    "sweep_tasks",
    "symmetrize_lower",
    "syr2k_rect_blocked",
    "syr2k_reference",
    "syr2k_square_blocked",
    "task_window",
    "tile_sbr",
    "tile_task_dag",
    "tridiagonalize",
    "tridiagonalize_planned",
]
