"""Edge-case regressions: the wavefront engine and the pipelined
schedule vs the sequential oracle.

``"wavefront"`` is the production engine; ``"pipelined"`` runs the
sequential task kernel in ``pipeline_schedule`` round order (the
test-only ``chase_in_schedule`` oracle).  Both share one task geometry
but clip it at the matrix edge; these cases pin the awkward corners —
``n`` not divisible by ``b``, bandwidth swallowing (almost) the whole
matrix, tiny ``n``, and the already-tridiagonal ``b == 1`` no-op.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.band.ops import random_symmetric_band
from repro.core.bc_wavefront import bulge_chase_wavefront
from repro.core.bulge_chasing import bulge_chase
from tests.conftest import chase_in_schedule

DRIVERS = {
    "pipelined": lambda A, b: chase_in_schedule(A, b)[0],
    "wavefront": lambda A, b: bulge_chase_wavefront(A, b)[0],
}

EDGE_CASES = [
    (25, 4),  # n % b != 0: last sweep's tasks are all clipped
    (23, 7),  # n % b != 0 with b not a power of two
    (10, 9),  # b == n - 1: single full-width sweep geometry
    (9, 8),   # b == n - 1, odd n
    (12, 11),
    (3, 2),   # smallest matrix with any chase work
    (4, 2),
    (4, 3),
    (2, 1),   # no sweeps at all
    (3, 1),   # b == 1: already tridiagonal
    (12, 1),
]


@pytest.mark.parametrize("driver", sorted(DRIVERS))
@pytest.mark.parametrize("n,b", EDGE_CASES)
def test_matches_sequential_oracle(rng, driver, n, b):
    A = random_symmetric_band(n, b, rng)
    oracle = bulge_chase(A, b)
    res = DRIVERS[driver](A, b)
    assert np.max(np.abs(res.d - oracle.d), initial=0.0) < 1e-12, driver
    assert np.max(np.abs(res.e - oracle.e), initial=0.0) < 1e-12, driver
    assert len(res.reflectors) == len(oracle.reflectors)


@pytest.mark.parametrize("driver", sorted(DRIVERS))
@pytest.mark.parametrize("n", [3, 8, 15])
def test_b_equals_one_is_identity(rng, driver, n):
    # A tridiagonal input needs no chasing: d/e pass through untouched
    # and the reflector log stays empty.
    A = random_symmetric_band(n, 1, rng)
    res = DRIVERS[driver](A, 1)
    assert np.array_equal(res.d, np.diagonal(A))
    assert np.array_equal(res.e, np.diagonal(A, -1))
    assert len(res.reflectors) == 0


@pytest.mark.parametrize("driver", sorted(DRIVERS))
@pytest.mark.parametrize("n,b", [(25, 4), (10, 9), (4, 2)])
def test_q1_reconstructs_band(rng, driver, n, b):
    from repro.band.storage import dense_from_band

    A = random_symmetric_band(n, b, rng)
    res = DRIVERS[driver](A, b)
    Q1 = np.eye(n)
    res.apply_q1(Q1)
    T = dense_from_band(res.d, res.e)
    scale = max(np.linalg.norm(A), 1.0)
    assert np.linalg.norm(Q1 @ T @ Q1.T - A) / scale < 1e-12, driver
