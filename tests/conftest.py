"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bc_back_transform import Q1_GROUP, q1_blocks


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic per-test RNG."""
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture
def sym64(rng) -> np.ndarray:
    """A 64 x 64 GOE matrix — the workhorse input."""
    g = rng.standard_normal((64, 64))
    return (g + g.T) / 2.0


def make_symmetric(n: int, seed: int = 0) -> np.ndarray:
    g = np.random.default_rng(seed).standard_normal((n, n))
    return (g + g.T) / 2.0


def reconstruction_error(A: np.ndarray, Q: np.ndarray, B: np.ndarray) -> float:
    """Relative ``||A - Q B Q^T||_F``."""
    return float(np.linalg.norm(A - Q @ B @ Q.T) / max(np.linalg.norm(A), 1e-300))


def orthogonality_error(Q: np.ndarray) -> float:
    n = Q.shape[0]
    return float(np.linalg.norm(Q.T @ Q - np.eye(n)))


def blocks_from_log(bc, b: int, group: int = Q1_GROUP):
    """Pack a scalar reflector log into the builder's ``(N, b)`` stack."""
    refl = bc.reflectors
    V = np.zeros((len(refl), b))
    for k, r in enumerate(refl):
        V[k, : r.v.size] = r.v
    return q1_blocks(
        np.array([r.sweep for r in refl], dtype=np.int64),
        np.array([r.step for r in refl], dtype=np.int64),
        V,
        np.array([r.tau for r in refl]),
        group=group,
    )
