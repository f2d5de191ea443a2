"""repro.serve — batched asynchronous EVD solver service.

The request-serving layer over the EVD pipeline: an in-process
:class:`SolverService` with future-based submission, a bounded priority
queue with configurable backpressure, worker threads owning long-lived
execution contexts, adaptive micro-batching with a stacked small-``n``
dense tier, a content-addressed LRU result cache, and full metric
instrumentation.  See ``docs/serve.md`` for the architecture and the
determinism contract.

Quickstart::

    from repro.serve import ServiceConfig, SolverService

    with SolverService(ServiceConfig(workers=4)) as svc:
        fut = svc.submit(A)                    # Future[EVDResult]
        lam = fut.result().eigenvalues
        print(svc.stats()["cache"])
"""

from .batcher import BatchPolicy, RequestQueue
from .cache import CacheEntry, ResultCache, plan_cache_key
from .loadgen import WorkloadSpec, make_workload, run_loadgen
from .metrics import ServiceMetrics
from .service import (
    ServiceClosed,
    ServiceConfig,
    ServiceOverloaded,
    SolverService,
    SubmitTimeout,
)

__all__ = [
    "BatchPolicy",
    "CacheEntry",
    "RequestQueue",
    "ResultCache",
    "ServiceClosed",
    "ServiceConfig",
    "ServiceMetrics",
    "ServiceOverloaded",
    "SolverService",
    "SubmitTimeout",
    "WorkloadSpec",
    "make_workload",
    "plan_cache_key",
    "run_loadgen",
]
