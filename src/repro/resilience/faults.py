"""Deterministic, seeded fault injection at named sites.

Chaos testing a numerical stack only works when the chaos is
*reproducible*: a fault schedule must fire at the same call of the same
site every run, or a failing seed cannot be replayed.  This module keeps
a process-global :class:`FaultPlan` of :class:`FaultSpec` entries, each
naming a **site** (a registered injection point in production code), a
**kind** (what happens when it fires), a fire budget (``times``), an
optional firing ``probability``, and a ``seed`` driving its private
:class:`numpy.random.Generator` — so the firing pattern is a pure
function of (spec, call sequence).

Production code touches this module through exactly two calls, both
no-ops costing one global read when no plan is installed:

* :func:`maybe_raise` — raises the installed spec's exception
  (:class:`~repro.resilience.errors.ConvergenceError` for kind
  ``"convergence"``, :class:`~repro.resilience.errors.BackendFault` for
  ``"backend"``, :class:`~repro.resilience.errors.InjectedWorkerCrash`
  for ``"crash"``);
* :func:`maybe_corrupt` — for kind ``"nan"``, returns a copy of the
  payload with a seeded entry replaced by NaN (the array is otherwise
  returned *unchanged, same object* — the bit-exactness contract with
  faults disabled).

Install via :func:`install_faults` / :func:`clear_faults`, the
:func:`injected_faults` context manager (what the chaos suite uses), or
the ``REPRO_FAULTS`` environment variable / ``repro evd --faults`` CLI
hook, whose grammar is::

    site:kind[:times[:probability[:seed]]][;site:kind...]
    e.g.  REPRO_FAULTS="dc.merge:convergence:1;serve.worker:crash:2:0.5:7"

Sites are a closed registry (:data:`FAULT_SITES`): an unknown site in a
spec raises :class:`~repro.resilience.errors.FaultInjectionError` at
install time, so a typo cannot silently disarm a chaos test.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from .errors import (
    BackendFault,
    ConvergenceError,
    FaultInjectionError,
    InjectedWorkerCrash,
)

__all__ = [
    "FAULT_SITES",
    "FAULT_KINDS",
    "FaultSpec",
    "FaultPlan",
    "install_faults",
    "clear_faults",
    "injected_faults",
    "active_plan",
    "faults_from_env",
    "parse_fault_specs",
    "maybe_raise",
    "maybe_corrupt",
]

#: Registered injection sites -> where they live in production code.
FAULT_SITES: dict[str, str] = {
    "secular.newton": "repro.eig.secular.solve_all_roots — the batched "
    "rational / scalar guarded-Newton root sweep",
    "dc.leaf": "repro.eig.dc._dc_level_order — the stacked LAPACK leaf solves "
    "of divide and conquer",
    "dc.merge": "repro.eig.dc._rank_one_update — the secular stage of one "
    "divide-and-conquer merge",
    "qr.sweep": "repro.eig.qr_iteration.tridiag_qr_eigh — the implicit QL sweep",
    "jacobi.sweep": "repro.eig.jacobi.jacobi_eigh — the cyclic Jacobi sweep",
    "runner.result": "repro.plan.runner.execute_plan — the assembled result "
    "payload (NaN corruption target)",
    "serve.worker": "repro.serve.SolverService worker executing a request "
    "(crash target)",
    "serve.backend": "repro.serve.SolverService plan execution on the worker "
    "backend (backend-fault target)",
    "precision.refine": "repro.precision.refine.refine_eigh — one Ogita–Aishima "
    "refinement sweep of a mixed-precision result (stall target: a "
    "convergence fault here forces the fp64 escalation path)",
}

FAULT_KINDS = ("nan", "convergence", "crash", "backend")


@dataclass
class FaultSpec:
    """One scheduled fault: fire ``kind`` at ``site`` up to ``times``
    times, each eligible call firing with ``probability`` drawn from a
    generator seeded with ``seed`` (deterministic per spec)."""

    site: str
    kind: str
    times: int = 1
    probability: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise FaultInjectionError(
                f"unknown fault site {self.site!r}: registered sites are "
                f"{', '.join(sorted(FAULT_SITES))}"
            )
        if self.kind not in FAULT_KINDS:
            raise FaultInjectionError(
                f"unknown fault kind {self.kind!r}: valid kinds are "
                f"{', '.join(FAULT_KINDS)}"
            )
        if int(self.times) < 1:
            raise FaultInjectionError(f"times must be >= 1, got {self.times}")
        if not (0.0 < float(self.probability) <= 1.0):
            raise FaultInjectionError(
                f"probability must be in (0, 1], got {self.probability}"
            )
        self.times = int(self.times)
        self.probability = float(self.probability)
        self.seed = int(self.seed)


class FaultPlan:
    """A set of :class:`FaultSpec` entries with thread-safe, seeded
    firing state.  ``fired`` / ``calls`` counters are exposed for the
    chaos suite's accounting."""

    def __init__(self, specs: list[FaultSpec]) -> None:
        self.specs = list(specs)
        self._lock = threading.Lock()
        self._rngs = [np.random.default_rng(s.seed) for s in self.specs]
        self._fired = [0 for _ in self.specs]
        self._calls = [0 for _ in self.specs]

    def fire(self, site: str, kinds: tuple[str, ...]) -> FaultSpec | None:
        """The first matching spec that fires at this call, or ``None``.

        A spec matches when its site equals ``site`` and its kind is in
        ``kinds``; it fires while its budget lasts, each eligible call
        passing an independent seeded Bernoulli draw.
        """
        with self._lock:
            for i, spec in enumerate(self.specs):
                if spec.site != site or spec.kind not in kinds:
                    continue
                self._calls[i] += 1
                if self._fired[i] >= spec.times:
                    continue
                if spec.probability < 1.0 and (
                    float(self._rngs[i].random()) >= spec.probability
                ):
                    continue
                self._fired[i] += 1
                return spec
        return None

    def corrupt_index(self, spec: FaultSpec, size: int) -> int:
        """Deterministic index of the entry to poison in a ``size``-long
        payload (seeded by the spec's generator stream)."""
        with self._lock:
            i = self.specs.index(spec)
            return int(self._rngs[i].integers(0, max(size, 1)))

    def stats(self) -> list[dict]:
        with self._lock:
            return [
                {
                    "site": s.site,
                    "kind": s.kind,
                    "times": s.times,
                    "fired": self._fired[i],
                    "calls": self._calls[i],
                }
                for i, s in enumerate(self.specs)
            ]


# The one process-global plan.  Reads are a single attribute load (the
# fast path every production site takes); writes go through the lock.
_ACTIVE: FaultPlan | None = None
_INSTALL_LOCK = threading.Lock()


def install_faults(plan: FaultPlan | list[FaultSpec] | FaultSpec) -> FaultPlan:
    """Install a fault plan process-wide (replacing any existing one)."""
    global _ACTIVE
    if isinstance(plan, FaultSpec):
        plan = FaultPlan([plan])
    elif isinstance(plan, list):
        plan = FaultPlan(plan)
    with _INSTALL_LOCK:
        _ACTIVE = plan
    return plan


def clear_faults() -> None:
    """Remove the installed plan; every site becomes a no-op again."""
    global _ACTIVE
    with _INSTALL_LOCK:
        _ACTIVE = None


def active_plan() -> FaultPlan | None:
    """The currently-installed plan (``None`` when faults are off)."""
    return _ACTIVE


@contextmanager
def injected_faults(*specs: FaultSpec) -> Iterator[FaultPlan]:
    """Scoped installation: install ``specs`` on entry, restore the
    previous plan on exit (the chaos suite's primary API)."""
    global _ACTIVE
    previous = _ACTIVE
    plan = install_faults(list(specs))
    try:
        yield plan
    finally:
        with _INSTALL_LOCK:
            _ACTIVE = previous


def parse_fault_specs(text: str) -> list[FaultSpec]:
    """Parse the ``site:kind[:times[:probability[:seed]]]`` grammar
    (``;``-separated specs); raises :class:`FaultInjectionError` on any
    malformed field."""
    specs: list[FaultSpec] = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) < 2 or len(parts) > 5:
            raise FaultInjectionError(
                f"malformed fault spec {chunk!r}: expected "
                "site:kind[:times[:probability[:seed]]]"
            )
        try:
            spec = FaultSpec(
                site=parts[0],
                kind=parts[1],
                times=int(parts[2]) if len(parts) > 2 else 1,
                probability=float(parts[3]) if len(parts) > 3 else 1.0,
                seed=int(parts[4]) if len(parts) > 4 else 0,
            )
        except ValueError as exc:
            if isinstance(exc, FaultInjectionError):
                raise
            raise FaultInjectionError(
                f"malformed fault spec {chunk!r}: {exc}"
            ) from exc
        specs.append(spec)
    return specs


def faults_from_env(environ: Mapping[str, str] | None = None) -> FaultPlan | None:
    """Build (but do not install) a plan from ``REPRO_FAULTS``; ``None``
    when the variable is unset/empty."""
    env = os.environ if environ is None else environ
    text = env.get("REPRO_FAULTS", "").strip()
    if not text:
        return None
    specs = parse_fault_specs(text)
    return FaultPlan(specs) if specs else None


def maybe_raise(site: str) -> None:
    """Raise the installed fault for ``site``, if one fires.

    Kind ``"convergence"`` raises :class:`ConvergenceError`,
    ``"backend"`` raises :class:`BackendFault`, ``"crash"`` raises
    :class:`InjectedWorkerCrash`.  No plan installed -> free no-op.
    """
    plan = _ACTIVE
    if plan is None:
        return
    spec = plan.fire(site, ("convergence", "backend", "crash"))
    if spec is None:
        return
    if spec.kind == "convergence":
        raise ConvergenceError(
            f"injected convergence failure at fault site {site!r}",
            site=site,
            iterations=0,
        )
    if spec.kind == "backend":
        raise BackendFault(f"injected backend fault at site {site!r}")
    raise InjectedWorkerCrash(site)


def maybe_corrupt(site: str, payload: np.ndarray) -> np.ndarray:
    """Poison one seeded entry of ``payload`` with NaN when a ``"nan"``
    fault fires at ``site``; otherwise return ``payload`` itself
    (same object — zero-copy, bit-exact when faults are off)."""
    plan = _ACTIVE
    if plan is None:
        return payload
    spec = plan.fire(site, ("nan",))
    if spec is None or payload.size == 0:
        return payload
    corrupted = np.array(payload, copy=True)
    # .flat works for any memory order (reshape(-1) on a Fortran-ordered
    # array would return a copy and the write would be lost).
    corrupted.flat[plan.corrupt_index(spec, corrupted.size)] = np.nan
    return corrupted
