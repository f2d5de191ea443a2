"""repro — reproduction of "Improving Tridiagonalization Performance on GPU
Architectures" (PPoPP 2025).

Public API highlights
---------------------
``repro.eigh(A)``
    Full symmetric EVD through the paper's pipeline (DBBR + pipelined
    bulge chasing + divide & conquer + incremental back transformation).
``repro.tridiagonalize(A, method="dbbr"|"sbr"|"direct")``
    Just the tridiagonalization, with the MAGMA-like and cuSOLVER-like
    baselines as alternative methods.
``repro.core``
    All the building blocks (Householder/WY machinery, panel QR, syr2k
    schedules, DBBR band reduction, bulge chasing, back transformation).
``repro.eig``
    Tridiagonal eigensolvers (divide & conquer; LAPACK ``dstebz`` +
    ``dstein`` selection of a window of eigenpairs).
``repro.band``
    Band-matrix storage (LAPACK lower band + the paper's packed layout).
``repro.plan``
    The typed planning layer: ``plan_evd(n, method=...)`` resolves
    presets + knobs into a frozen, validated
    :class:`~repro.plan.EVDPlan`; ``execute_plan(A, plan)`` is the one
    stage runner every entry point (``eigh``/``eigh_partial``/the
    serving workers) executes through, and
    ``plan.cache_token()`` is the canonical cache identity the serving
    layer keys on.
``repro.backend``
    Pluggable array backends (NumPy default, optional CuPy/PyTorch) and
    the :class:`~repro.backend.ExecutionContext` threaded through the
    pipeline (``eigh(A, backend="torch")``).
``repro.serve``
    The request-serving layer: :class:`~repro.serve.SolverService` with
    future-based submission, a stacked dense tier, a content-addressed
    result cache, backpressure and metrics (``svc.submit(A).result()``).
``repro.resilience``
    Numerical-health verification (``verify_evd``/``verify_tridiag``),
    the typed :class:`~repro.resilience.ReproError` hierarchy, solver
    fallback chains (``eigh(A, fallback="chain")`` escalates a failed
    or unverifiable pipeline to the dense path), circuit breakers, and
    the deterministic seeded fault-injection harness behind the chaos
    suite (``REPRO_FAULTS`` / ``repro evd --faults``).
``repro.gpusim`` / ``repro.models``
    The calibrated GPU performance simulator and the analytical models
    that regenerate the paper's tables and figures at device scale.
``repro.precision``
    Mixed-precision execution: ``eigh(A, precision="mixed")`` runs the
    two-stage reduction and D&C eigenvector GEMMs in fp32, promotes,
    and iteratively refines the eigenpairs (Ogita–Aishima) back to fp64
    ``verify_evd`` tolerances — escalating to the full fp64 pipeline if
    refinement stalls.  :class:`~repro.precision.PrecisionPolicy`
    presets: ``"fp64"`` (bit-identical default) and ``"mixed"``.
"""

from . import backend, band, core, eig, plan, precision, resilience, serve
from .backend import (
    ArrayBackend,
    BackendUnavailable,
    ExecutionContext,
    available_backends,
    get_backend,
)
from .core import (
    EVDResult,
    TridiagResult,
    dbbr,
    eigh,
    eigh_partial,
    eigh_stacked,
    matrix_fingerprint,
    tridiagonalize,
)
from .eig import dc_eigh
from .plan import EVDPlan, PlanError, execute_plan, explain_plan, plan_evd
from .precision import (
    PrecisionPolicy,
    PrecisionWarning,
    RefinementReport,
    RefinementStalled,
    refine_eigh,
)
from .resilience import (
    ConvergenceError,
    ReproError,
    VerificationError,
    execute_plan_with_fallback,
    verify_evd,
    verify_tridiag,
)
from .serve import ServiceConfig, SolverService

__version__ = "1.0.0"

__all__ = [
    "ArrayBackend",
    "BackendUnavailable",
    "ConvergenceError",
    "EVDPlan",
    "EVDResult",
    "ExecutionContext",
    "PlanError",
    "PrecisionPolicy",
    "PrecisionWarning",
    "RefinementReport",
    "RefinementStalled",
    "ReproError",
    "TridiagResult",
    "VerificationError",
    "available_backends",
    "backend",
    "band",
    "core",
    "dbbr",
    "get_backend",
    "dc_eigh",
    "eig",
    "eigh",
    "eigh_partial",
    "eigh_stacked",
    "execute_plan",
    "execute_plan_with_fallback",
    "explain_plan",
    "matrix_fingerprint",
    "plan",
    "plan_evd",
    "precision",
    "refine_eigh",
    "resilience",
    "serve",
    "verify_evd",
    "verify_tridiag",
    "ServiceConfig",
    "SolverService",
    "tridiagonalize",
    "__version__",
]
