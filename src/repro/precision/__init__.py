"""Mixed-precision execution policies and eigenpair refinement.

The paper's premise is that the two-stage reduction should run as fast
as the hardware allows — and the single biggest lever beyond kernel
shape is *precision*: fp32 GEMM/SYR2K throughput is ~2x fp64 even on
CPU BLAS, and far more on GPU tensor cores.  This subsystem makes that
lever safe to pull:

* :mod:`repro.precision.policy` — the two :class:`PrecisionPolicy`
  presets naming a dtype per pipeline stage (tridiagonalization /
  tridiagonal solver / back transformation): ``"fp64"`` (the historical
  bit-exact path) and ``"mixed"`` (fp32 pipeline + fp64 refinement);
* :mod:`repro.precision.refine` — :func:`refine_eigh`, a vectorized
  Ogita–Aishima/Newton–Schulz eigenpair refinement that takes a
  low-precision eigendecomposition and iterates residual and
  orthogonality down to fp64 :func:`~repro.resilience.verify_evd`
  tolerances, with cluster-aware grouping and a typed
  :class:`RefinementStalled` on non-convergence;
* :mod:`repro.precision.driver` — the ``precision="mixed"`` execution
  path of :func:`repro.plan.execute_plan`: fp32 two-stage reduction and
  D&C, promotion to fp64, refinement, verification — and, when
  refinement stalls or the result fails verification, the one
  escalation to the plan's full-fp64 twin.

The policy rides on :class:`~repro.plan.EVDPlan` as the ``precision=``
knob of :func:`repro.plan.plan_evd` / :func:`repro.eigh` and
participates in :meth:`~repro.plan.EVDPlan.cache_token`, so mixed and
fp64 results can never alias in the serving layer's result cache.
"""

from ..core.validation import PrecisionWarning
from .driver import execute_plan_precision
from .policy import (
    PRECISION_PRESETS,
    PrecisionPolicy,
    resolve_policy,
)
from .refine import RefinementReport, RefinementStalled, refine_eigh

__all__ = [
    "PRECISION_PRESETS",
    "PrecisionPolicy",
    "PrecisionWarning",
    "RefinementReport",
    "RefinementStalled",
    "execute_plan_precision",
    "refine_eigh",
    "resolve_policy",
]
