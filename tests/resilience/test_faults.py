"""Deterministic fault injection: the harness fires exactly as scheduled,
and is a bit-exact no-op when disarmed."""

from __future__ import annotations

import numpy as np
import pytest

from repro.resilience import (
    FAULT_KINDS,
    FAULT_SITES,
    BackendFault,
    ConvergenceError,
    FaultInjectionError,
    FaultPlan,
    FaultSpec,
    InjectedWorkerCrash,
    active_plan,
    clear_faults,
    faults_from_env,
    injected_faults,
    install_faults,
    maybe_corrupt,
    maybe_raise,
    parse_fault_specs,
)


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    clear_faults()
    yield
    clear_faults()


class TestSpecValidation:
    def test_unknown_site_rejected_at_install_time(self):
        with pytest.raises(FaultInjectionError, match="unknown fault site"):
            FaultSpec("no.such.site", "nan")

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultInjectionError, match="unknown fault kind"):
            FaultSpec("dc.merge", "explode")

    def test_bad_times_and_probability_rejected(self):
        with pytest.raises(FaultInjectionError):
            FaultSpec("dc.merge", "nan", times=0)
        with pytest.raises(FaultInjectionError):
            FaultSpec("dc.merge", "nan", probability=0.0)
        with pytest.raises(FaultInjectionError):
            FaultSpec("dc.merge", "nan", probability=1.5)

    def test_registry_is_closed_and_documented(self):
        assert set(FAULT_SITES) == {
            "secular.newton", "dc.leaf", "dc.merge", "runner.result", "serve.worker", "serve.backend",
            "precision.refine",
        }
        assert FAULT_KINDS == ("nan", "convergence", "crash", "backend")


class TestGrammar:
    def test_full_spec(self):
        (spec,) = parse_fault_specs("serve.worker:crash:2:0.5:7")
        assert (spec.site, spec.kind, spec.times, spec.probability, spec.seed) == (
            "serve.worker", "crash", 2, 0.5, 7
        )

    def test_multiple_specs_and_defaults(self):
        specs = parse_fault_specs("dc.merge:convergence; runner.result:nan:3")
        assert len(specs) == 2
        assert specs[0].times == 1 and specs[0].probability == 1.0
        assert specs[1].times == 3

    def test_malformed_specs_raise(self):
        for text in ("dc.merge", "dc.merge:nan:x", "a:b:c:d:e:f",
                     "dc.merge:convergence:1:nope"):
            with pytest.raises(FaultInjectionError):
                parse_fault_specs(text)

    def test_faults_from_env(self):
        assert faults_from_env({}) is None
        assert faults_from_env({"REPRO_FAULTS": "  "}) is None
        plan = faults_from_env({"REPRO_FAULTS": "dc.leaf:convergence"})
        assert isinstance(plan, FaultPlan)
        assert plan.specs[0].site == "dc.leaf"


class TestFiring:
    def test_no_plan_is_a_noop(self):
        maybe_raise("dc.merge")  # must not raise
        a = np.arange(4.0)
        assert maybe_corrupt("runner.result", a) is a

    def test_kinds_raise_their_exception(self):
        with injected_faults(FaultSpec("dc.merge", "convergence")):
            with pytest.raises(ConvergenceError) as info:
                maybe_raise("dc.merge")
            assert info.value.site == "dc.merge"
        with injected_faults(FaultSpec("serve.backend", "backend")):
            with pytest.raises(BackendFault):
                maybe_raise("serve.backend")
        with injected_faults(FaultSpec("serve.worker", "crash")):
            with pytest.raises(InjectedWorkerCrash):
                maybe_raise("serve.worker")

    def test_budget_limits_firing(self):
        with injected_faults(FaultSpec("dc.leaf", "convergence", times=2)) as plan:
            for _ in range(2):
                with pytest.raises(ConvergenceError):
                    maybe_raise("dc.leaf")
            maybe_raise("dc.leaf")  # budget spent: no-op
            (st,) = plan.stats()
            assert st["fired"] == 2 and st["calls"] == 3

    def test_site_mismatch_does_not_fire(self):
        with injected_faults(FaultSpec("dc.merge", "convergence")):
            maybe_raise("dc.leaf")  # different site

    def test_probability_pattern_is_seeded(self):
        def pattern(seed):
            fired = []
            with injected_faults(
                FaultSpec("dc.merge", "convergence", times=100,
                          probability=0.5, seed=seed)
            ):
                for _ in range(40):
                    try:
                        maybe_raise("dc.merge")
                        fired.append(False)
                    except ConvergenceError:
                        fired.append(True)
            return fired

        assert pattern(7) == pattern(7)
        assert pattern(7) != pattern(8)
        assert any(pattern(7)) and not all(pattern(7))


class TestCorruption:
    def test_nan_lands_at_seeded_index(self):
        a = np.zeros(16)
        with injected_faults(FaultSpec("runner.result", "nan", seed=3)):
            out = maybe_corrupt("runner.result", a)
        assert out is not a  # copy, input untouched
        assert np.isfinite(a).all()
        assert np.isnan(out).sum() == 1

    def test_fortran_ordered_payload_is_corrupted(self):
        # Regression: reshape(-1) on an F-ordered array returns a copy,
        # silently dropping the NaN write; .flat must be used instead.
        a = np.asfortranarray(np.zeros((8, 8)))
        with injected_faults(FaultSpec("runner.result", "nan")):
            out = maybe_corrupt("runner.result", a)
        assert np.isnan(out).sum() == 1

    def test_budget_spent_returns_same_object(self):
        a = np.zeros(4)
        with injected_faults(FaultSpec("runner.result", "nan", times=1)):
            first = maybe_corrupt("runner.result", a)
            second = maybe_corrupt("runner.result", a)
        assert np.isnan(first).sum() == 1
        assert second is a


class TestInstallation:
    def test_injected_faults_restores_previous_plan(self):
        outer = install_faults(FaultSpec("dc.merge", "convergence"))
        with injected_faults(FaultSpec("dc.leaf", "convergence")) as inner:
            assert active_plan() is inner
        assert active_plan() is outer

    def test_clear_faults_disarms(self):
        install_faults(FaultSpec("dc.merge", "convergence"))
        clear_faults()
        assert active_plan() is None
        maybe_raise("dc.merge")
