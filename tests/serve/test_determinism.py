"""The service's determinism contract, property-style.

For ANY interleaving of submissions, batch sizes, and cache states, a
result delivered by :class:`~repro.serve.SolverService` must be
bit-identical to a direct single-call ``repro.eigh`` with the request's
options on the numpy backend.  We drive randomized request streams
(random order, a random dense share, deliberate duplicates for cache
hits and in-flight coalescing) through random worker counts and queue
limits, and bit-compare every single result against its reference.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.resilience import FaultSpec, clear_faults, injected_faults
from repro.serve import ServiceConfig, SolverService

SIZES = (12, 16, 24, 32)


def make_stream(rng, n_unique=10, n_requests=28):
    """A randomized request stream with duplicates and mixed options."""
    dense_share = rng.uniform(0.2, 0.8)
    pool = []
    for _ in range(n_unique):
        n = int(rng.choice(SIZES))
        A = rng.standard_normal((n, n))
        A = (A + A.T) / 2.0
        opts = {}
        if rng.random() < dense_share:
            opts["method"] = "dense"
        # else: the library default (the full DBBR + BC pipeline)
        if rng.random() < 0.3:
            opts["compute_vectors"] = bool(rng.random() < 0.5)
        pool.append((A, opts))
    picks = rng.integers(0, n_unique, n_requests)
    return [pool[int(i)] for i in picks]


def assert_bit_identical(got, ref, label):
    assert np.array_equal(got.eigenvalues, ref.eigenvalues), label
    assert (got.eigenvectors is None) == (ref.eigenvectors is None), label
    if ref.eigenvectors is not None:
        assert np.array_equal(got.eigenvectors, ref.eigenvectors), label


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_randomized_streams_bit_identical(seed):
    rng = np.random.default_rng(seed)
    stream = make_stream(rng)
    config = ServiceConfig(
        workers=int(rng.integers(1, 5)),
        queue_limit=int(rng.integers(4, 64)),
    )
    with SolverService(config) as svc:
        futures = [svc.submit(A, **opts) for A, opts in stream]
        results = [f.result(timeout=120) for f in futures]

    for i, ((A, opts), got) in enumerate(zip(stream, results)):
        ref = repro.eigh(A, **opts)
        assert_bit_identical(got, ref, f"request {i}: n={A.shape[0]} opts={opts}")


def test_forced_stacking_matches_singles():
    """Many same-n dense requests in one burst — guaranteed stacked
    batches — must match one-at-a-time dense calls bit-for-bit."""
    rng = np.random.default_rng(7)
    mats = []
    for _ in range(12):
        A = rng.standard_normal((20, 20))
        mats.append((A + A.T) / 2.0)
    with SolverService(ServiceConfig(workers=1)) as svc:
        # A pipeline solve holds the one worker while the dense burst
        # queues up behind it.
        g = rng.standard_normal((160, 160))
        svc.submit((g + g.T) / 2.0)
        futs = [svc.submit(A, method="dense") for A in mats]
        results = [f.result(timeout=60) for f in futs]
        sizes = svc.stats()["metrics"]["batch_sizes"]
    assert max(int(k) for k in sizes) > 1  # the burst really did stack
    for A, got in zip(mats, results):
        assert_bit_identical(got, repro.eigh(A, method="dense"), "stacked")


def test_cache_replay_is_bit_identical():
    """A result served from the cache is the same bits as the computed
    one, and both equal the direct call."""
    A = np.random.default_rng(11).standard_normal((24, 24))
    A = (A + A.T) / 2.0
    with SolverService(ServiceConfig(workers=1)) as svc:
        first = svc.submit(A, method="dense").result(timeout=30)
        replay = svc.submit(A.copy(), method="dense").result(timeout=30)
    ref = repro.eigh(A, method="dense")
    assert_bit_identical(first, ref, "computed")
    assert_bit_identical(replay, ref, "replayed")


def test_mixed_sizes_and_fallback_bit_identical():
    """Proposed and dense requests at the edge sizes (one element, one
    D&C leaf, one merge) with and without vectors, then a
    ``fallback="chain"`` request whose D&C merge fails: every result
    equals the direct ``repro.eigh`` call bit for bit."""
    rng = np.random.default_rng(21)
    stream = []
    for n in (1, 2, 64, 129, 256):
        for method in ("proposed", "dense"):
            for vectors in (True, False):
                g = rng.standard_normal((n, n))
                opts = {"method": method, "compute_vectors": vectors}
                stream.append(((g + g.T) / 2.0, opts))
    g = rng.standard_normal((160, 160))  # above the 128 leaf size: merges
    chained = (g + g.T) / 2.0
    fault = FaultSpec("dc.merge", "convergence", times=1)
    try:
        with SolverService(ServiceConfig(workers=2)) as svc:
            futures = [svc.submit(A, **opts) for A, opts in stream]
            results = [f.result(timeout=120) for f in futures]
            with injected_faults(fault):
                served = svc.submit(chained, fallback="chain").result(timeout=60)
            escalations = svc.stats()["metrics"]["resilience"]["escalations"]
        with injected_faults(fault):
            direct = repro.eigh(chained, fallback="chain")
    finally:
        clear_faults()
    assert escalations == 1
    assert_bit_identical(served, direct, "fallback chain")
    for (A, opts), got in zip(stream, results):
        ref = repro.eigh(A, **opts)
        assert_bit_identical(got, ref, f"n={A.shape[0]} opts={opts}")
