"""The two precision policies.

A :class:`PrecisionPolicy` names the floating dtype each pipeline stage
runs in — tridiagonalization, tridiagonal eigensolver, back
transformation.  Policies are identified by a string token (what
:class:`~repro.plan.EVDPlan` stores and what participates in
``cache_token()``), resolved here by :func:`resolve_policy`:

* ``"fp64"`` — every stage in float64.  The historical path,
  bit-identical to a plan with no precision knob at all.
* ``"mixed"`` — fp32 reduction + fp32 D&C eigenvector carrying + fp32
  back transformation, then promotion to fp64 and Ogita–Aishima
  refinement down to fp64 ``verify_evd`` tolerances.  Eigen*values*
  stay fp64 throughout: the D&C secular machinery is scalar-sensitive
  and cheap (``O(n^2)``), so only the ``O(n^3)`` BLAS-3 work drops to
  fp32 — the same staging the multi-GPU pipelined-EVD and GPU-D&C-SVD
  lineages use.

The solver stage's dtype governs the D&C *eigenvector* arithmetic (leaf
rotations, Givens ordering, the merge GEMM); the secular root finding
always runs in fp64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..plan.errors import bad_choice

__all__ = ["PRECISION_PRESETS", "PrecisionPolicy", "resolve_policy"]


@dataclass(frozen=True)
class PrecisionPolicy:
    """The dtype of each pipeline stage under one precision token.

    ``name`` is the token the policy resolves from — the identity used
    by :meth:`repro.plan.EVDPlan.cache_token`.
    """

    name: str
    tridiag_dtype: np.dtype
    solver_dtype: np.dtype
    back_transform_dtype: np.dtype


_FP64 = np.dtype(np.float64)
_FP32 = np.dtype(np.float32)

#: The canonical presets (token -> policy).
PRECISION_PRESETS: dict[str, PrecisionPolicy] = {
    "fp64": PrecisionPolicy("fp64", _FP64, _FP64, _FP64),
    "mixed": PrecisionPolicy("mixed", _FP32, _FP32, _FP32),
}


def resolve_policy(precision: str) -> PrecisionPolicy:
    """The :class:`PrecisionPolicy` of a precision token, raising
    :class:`~repro.plan.PlanError` naming the valid tokens for any
    other — the same failure style as every other plan knob."""
    policy = PRECISION_PRESETS.get(precision)
    if policy is None:
        raise bad_choice("precision", precision, tuple(PRECISION_PRESETS))
    return policy
