"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bc_back_transform import Q1_GROUP, q1_blocks
from repro.core.bc_pipeline import PipelineStats, pipeline_schedule
from repro.core.bulge_chasing import BCReflector, BulgeChasingResult, apply_bc_task


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


def chase_in_schedule(band: np.ndarray, b: int, max_sweeps: int | None = None):
    """Schedule-safety oracle: run the sequential chase's task kernel in
    :func:`pipeline_schedule` round order on a dense copy of ``band``.

    Rounds only reorder data-disjoint tasks, so the result must be
    bit-identical to :func:`repro.core.bulge_chasing.bulge_chase`.
    Returns ``(BulgeChasingResult, PipelineStats)``.
    """
    A = np.array(band, dtype=np.float64, copy=True)
    n = A.shape[0]
    reflectors: list[BCReflector] = []
    stats = PipelineStats()
    if b >= 2 and n >= 3:
        rounds, stats = pipeline_schedule(n, b, max_sweeps)
        for tasks in rounds:
            for task in tasks:
                off, v, tau = apply_bc_task(A, b, task)
                reflectors.append(
                    BCReflector(
                        sweep=task.sweep,
                        step=task.step,
                        offset=off,
                        v=v,
                        tau=tau,
                        seq=len(reflectors),
                    )
                )
    d = np.diagonal(A).copy()
    e = np.diagonal(A, -1).copy()
    return BulgeChasingResult(d=d, e=e, reflectors=reflectors), stats
