"""repro.serve — batched asynchronous EVD solver service.

The request-serving layer over the EVD pipeline: an in-process
:class:`SolverService` with future-based submission, a bounded FIFO
queue with configurable backpressure, worker threads owning long-lived
execution contexts, a stacked dense tier that batches the compatible
requests already queued, a content-addressed LRU result cache, and full
metric instrumentation.  See ``docs/serve.md`` for the architecture and
the determinism contract.

Quickstart::

    from repro.serve import ServiceConfig, SolverService

    with SolverService(ServiceConfig(workers=4)) as svc:
        fut = svc.submit(A)                    # Future[EVDResult]
        lam = fut.result().eigenvalues
        print(svc.stats()["cache"])
"""

from .batcher import RequestQueue
from .cache import ResultCache, plan_cache_key
from .metrics import ServiceMetrics
from .service import (
    ServiceClosed,
    ServiceConfig,
    ServiceOverloaded,
    SolverService,
    SubmitTimeout,
)

__all__ = [
    "RequestQueue",
    "ResultCache",
    "ServiceClosed",
    "ServiceConfig",
    "ServiceMetrics",
    "ServiceOverloaded",
    "SolverService",
    "SubmitTimeout",
    "plan_cache_key",
]
