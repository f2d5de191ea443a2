"""Two-stage (and direct) tridiagonalization drivers — the paper's headline
routine.

:func:`tridiagonalize` reduces a symmetric matrix to tridiagonal form
``A = Q T Q^T`` by one of four methods:

* ``"dbbr"`` (proposed) — double-blocking band reduction to bandwidth ``b``
  with deferred rank-``2k`` updates, followed by pipelined (GPU-style)
  bulge chasing executed by the wavefront-batched engine
  (:mod:`repro.core.bc_wavefront`);
* ``"sbr"`` (MAGMA-like) — classic single-blocking band reduction, which
  is DBBR with ``k = b``, followed by the same bulge-chasing engine (the
  ``magma`` preset caps it at one sweep in flight, MAGMA's sequential
  chase);
* ``"direct"`` (cuSOLVER-like) — one-stage blocked Householder
  tridiagonalization;
* ``"tile"`` (PLASMA-like) — tile-kernel band reduction (GEQRT/TSQRT)
  followed by the same bulge-chasing engine (one sweep in flight under
  the ``plasma`` preset).

The result object hides which path produced it: ``apply_q`` composes
``Q = Q_sbr Q1`` (two-stage) or the panel product (direct), each
reduction's factor going through the same grouped WY apply (tile results
apply their tile reflectors), so downstream EVD code is method-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..backend.base import ArrayBackend
from ..backend.context import ExecutionContext, resolve_context
from ..plan.config import BulgeChaseConfig, EVDPlan, TridiagConfig
from ..plan.planner import auto_params, plan_tridiag
from .bc_pipeline import PipelineStats
from .bc_wavefront import bulge_chase_wavefront
from .blocks import BandReductionResult, WYBlock
from .bulge_chasing import BulgeChasingResult
from .back_transform import apply_sbr_q, apply_sbr_q_transpose
from .dbbr import dbbr
from .direct_tridiag import DirectTridiagResult, direct_tridiagonalize
from .tile_sbr import TileBandReductionResult, tile_sbr
from .validation import OperandShapeError

__all__ = [
    "TridiagResult",
    "tridiagonalize",
    "tridiagonalize_planned",
    "auto_params",
]


@dataclass
class TridiagResult:
    """Output of :func:`tridiagonalize`: ``A = Q @ tridiag(d, e) @ Q^T``.

    For two-stage methods ``Q = Q_sbr @ Q1``; ``band_result``/``bc_result``
    expose the stage outputs (``direct_result`` for the one-stage path,
    where ``Q`` is the panel product alone).  ``back_transform_group`` is
    the group width of the grouped WY apply
    (:func:`repro.core.back_transform.apply_sbr_q`) that applies the
    DBBR/SBR/direct panel blocks.
    """

    d: np.ndarray
    e: np.ndarray
    method: str
    bandwidth: int
    band_result: BandReductionResult | None = None
    tile_result: TileBandReductionResult | None = None
    bc_result: BulgeChasingResult | None = None
    direct_result: DirectTridiagResult | None = None
    pipeline_stats: PipelineStats | None = None
    back_transform_group: int = 1
    backend: str = "numpy"
    ctx: ExecutionContext | None = field(default=None, repr=False, compare=False)

    @property
    def back_transform_method(self) -> str:
        # The EVD benchmark's replay (benchmarks/evd/evd_worker.py) passes
        # this back as ``apply_sbr_q(method=...)``; there is one method.
        return "incremental"

    @property
    def n(self) -> int:
        return self.d.size

    def _check_operand(self, X: np.ndarray) -> None:
        if np.ndim(X) != 2 or np.shape(X)[0] != self.n:
            raise OperandShapeError(
                f"expected an operand of shape ({self.n}, k), got {np.shape(X)}"
            )

    @property
    def _wy_blocks(self) -> list[WYBlock]:
        if self.direct_result is not None:
            return self.direct_result.blocks
        assert self.band_result is not None
        return self.band_result.blocks

    def apply_q(self, X: np.ndarray) -> None:
        """In place ``X <- Q X`` — the full back transformation: ``Q1``
        if there was a chase, then the reduction's factor.

        Raises :class:`OperandShapeError` unless ``X`` is 2-D with ``n`` rows.
        """
        self._check_operand(X)
        if self.bc_result is not None:
            self.bc_result.apply_q1(X)
        if self.tile_result is not None:
            for refl in reversed(self.tile_result.reflectors):
                refl.apply_left(X)
        else:
            apply_sbr_q(self._wy_blocks, X, self.back_transform_group, self.ctx)

    def apply_q_transpose(self, X: np.ndarray) -> None:
        """In place ``X <- Q^T X`` (same operand contract as :meth:`apply_q`)."""
        self._check_operand(X)
        if self.tile_result is not None:
            for refl in self.tile_result.reflectors:
                refl.apply_left_transpose(X)
        else:
            apply_sbr_q_transpose(
                self._wy_blocks, X, self.back_transform_group, self.ctx
            )
        if self.bc_result is not None:
            self.bc_result.apply_q1_transpose(X)

    def q(self) -> np.ndarray:
        Q = np.eye(self.n)
        self.apply_q(Q)
        return Q

    def tridiagonal(self) -> tuple[np.ndarray, np.ndarray]:
        return self.d, self.e


def tridiagonalize(
    A: np.ndarray,
    method: str = "dbbr",
    bandwidth: int | None = None,
    second_block: int | None = None,
    max_sweeps: int | None = None,
    backend: str | ArrayBackend | ExecutionContext | None = None,
    tuning: str = "manual",
    device: str = "h100",
) -> TridiagResult:
    """Tridiagonalize symmetric ``A``.

    Parameters
    ----------
    A : (n, n) ndarray
        Symmetric input (not modified).
    method : {"dbbr", "sbr", "tile", "direct"}
        Algorithm; see module docstring.
    bandwidth : int, optional
        Intermediate bandwidth ``b`` for two-stage methods (auto if None).
    second_block : int, optional
        DBBR second block size ``k`` (auto if None; must be a multiple of
        ``bandwidth``).
    max_sweeps : int, optional
        Cap on concurrently in-flight sweeps ``S`` of the wavefront chase
        (:mod:`repro.core.bc_wavefront`); None = unbounded, ``1`` = the
        sequential (MAGMA) order.
    backend : str, ArrayBackend or ExecutionContext, optional
        Where the hot-path array work executes: a backend name
        (``"numpy"``/``"cupy"``/``"torch"``/``"auto"``), a backend
        instance, or a prepared :class:`~repro.backend.ExecutionContext`
        (e.g. carrying stage-timing hooks).  Default is host NumPy, which
        is bit-identical to the historical implementation.  Dtype
        coercion happens here, once: the input becomes a float64 working
        copy (a float32 input emits
        :class:`~repro.precision.PrecisionWarning`) and the kernels below
        follow the working copy's dtype instead of converting — the
        mixed-precision driver runs them in float32 through
        :func:`tridiagonalize_planned`.
    tuning : {"manual", "model"}
        ``"model"`` lets the calibrated cost models pick ``bandwidth``/
        ``second_block`` for ``device`` where the caller left them unset
        (see :func:`repro.plan.plan_evd`).
    device : str
        Device preset consulted when ``tuning="model"``.

    Raises
    ------
    PlanError
        Unknown method or invalid knob value, at the entry point, naming
        the valid choices (a ``ValueError`` subclass).
    ValueError / SymmetryError
        Non-square input, NaN/Inf entries, or asymmetry beyond roundoff
        (see :mod:`repro.core.validation`).
    """
    from .validation import NonSquareError

    ctx = resolve_context(backend)
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise NonSquareError(f"expected a square matrix, got shape {A.shape}")
    tcfg, bcfg = plan_tridiag(
        A.shape[0],
        method,
        tuning=tuning,
        device=device,
        bandwidth=bandwidth,
        second_block=second_block,
        max_sweeps=max_sweeps,
    )
    return _run_tridiag(A, tcfg, bcfg, ctx)


def tridiagonalize_planned(
    A: np.ndarray,
    plan: EVDPlan,
    ctx: ExecutionContext | None = None,
    dtype: np.dtype | None = None,
) -> TridiagResult:
    """Execute the tridiagonalization branch of a resolved plan.

    The planned twin of :func:`tridiagonalize`: no knob parsing, no
    ``auto_params`` — the plan already carries the resolved block sizes.
    This is the driver :func:`repro.plan.execute_plan` runs.

    ``dtype`` sets the working precision of the reduction (``None`` =
    float64, the historical bit-identical contract); the mixed-precision
    driver passes float32 here to run the whole two-stage reduction in
    single precision.
    """
    if plan.tridiag is None:
        raise ValueError("plan has no tridiagonalization stage (dense tier)")
    return _run_tridiag(
        A,
        plan.tridiag,
        plan.bulge_chase,
        resolve_context(ctx),
        dtype=dtype,
    )


def _run_tridiag(
    A: np.ndarray,
    tcfg: TridiagConfig,
    bcfg: BulgeChaseConfig | None,
    ctx: ExecutionContext,
    dtype: np.dtype | None = None,
) -> TridiagResult:
    """Resolved-config execution body (identical arithmetic and stage
    structure to the historical ``tridiagonalize``)."""
    from .validation import check_symmetric

    # The single dtype-coercion point of the pipeline: check_symmetric
    # hands back a working copy in the requested precision (float64 by
    # default), everything below follows the input dtype.
    A = check_symmetric(A, dtype=dtype)
    n = A.shape[0]

    if tcfg.method == "direct":
        with ctx.stage("tridiag_direct", n=n):
            res = direct_tridiagonalize(A)
        return TridiagResult(
            d=res.d,
            e=res.e,
            method="direct",
            bandwidth=1,
            direct_result=res,
            # Width-32 panels merged into groups of the k the proposed
            # plan uses at this n: the ormtr-style blocked apply.
            back_transform_group=auto_params(n)[1],
            backend=ctx.backend.name,
            ctx=ctx,
        )

    assert bcfg is not None and tcfg.bandwidth is not None
    b = max(1, min(tcfg.bandwidth, max(n - 2, 1)))
    # SBR is DBBR with k = b: the planner resolves its second_block to b.
    k = tcfg.second_block if tcfg.second_block is not None else b

    tile_res: TileBandReductionResult | None = None
    with ctx.stage("band_reduction", n=n, method=tcfg.method, bandwidth=b):
        if tcfg.method in ("dbbr", "sbr"):
            band_res = dbbr(A, b, k, ctx=ctx)
        elif tcfg.method == "tile":
            tile_res = tile_sbr(A, b, ctx=ctx)
            band_res = None
        else:
            raise ValueError(f"unknown tridiagonalization method {tcfg.method!r}")

    band_matrix = tile_res.band if tile_res is not None else band_res.band
    with ctx.stage("bulge_chasing", n=n, bandwidth=b, max_sweeps=bcfg.max_sweeps):
        bc_res, stats = bulge_chase_wavefront(
            band_matrix, b, max_sweeps=bcfg.max_sweeps, ctx=ctx
        )

    return TridiagResult(
        d=bc_res.d,
        e=bc_res.e,
        method=tcfg.method,
        bandwidth=b,
        band_result=band_res,
        tile_result=tile_res,
        bc_result=bc_res,
        pipeline_stats=stats,
        # The SBR back transform merges panel blocks into groups of at
        # least k: Figure 13 for DBBR, MAGMA's ormqr order (no merging)
        # for SBR, where k = b.  Tile results carry no WY blocks.
        back_transform_group=k,
        backend=ctx.backend.name,
        ctx=ctx,
    )
