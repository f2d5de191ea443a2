"""Precision policies: presets, validation, plan wiring, cache identity."""

import numpy as np
import pytest

from repro.plan import PlanError, plan_evd
from repro.precision import PRECISION_PRESETS, resolve_policy


class TestPolicy:
    def test_presets_cover_the_two_tokens(self):
        assert set(PRECISION_PRESETS) == {"fp64", "mixed"}

    def test_fp64_preset_is_the_identity_policy(self):
        p = resolve_policy("fp64")
        assert p.tridiag_dtype == np.float64
        assert p.solver_dtype == np.float64
        assert p.back_transform_dtype == np.float64

    def test_mixed_preset_drops_every_stage_and_refines(self):
        p = resolve_policy("mixed")
        assert p.tridiag_dtype == np.float32
        assert p.solver_dtype == np.float32
        assert p.back_transform_dtype == np.float32

    @pytest.mark.parametrize("token", ["bf16", "fp32"])
    def test_unknown_token_rejected(self, token):
        assert resolve_policy("mixed") is PRECISION_PRESETS["mixed"]
        with pytest.raises(PlanError, match="valid choices are 'fp64', 'mixed'"):
            resolve_policy(token)

    def test_policy_is_frozen(self):
        p = resolve_policy("mixed")
        with pytest.raises(Exception):
            p.tridiag_dtype = np.dtype(np.float64)


class TestPlannerGates:
    def test_plan_accepts_and_stores_precision(self):
        plan = plan_evd(128, "proposed", precision="mixed")
        assert plan.precision == "mixed"

    def test_default_is_fp64(self):
        assert plan_evd(128, "proposed").precision == "fp64"

    def test_unknown_precision_rejected(self):
        with pytest.raises(PlanError, match="precision"):
            plan_evd(128, "proposed", precision="tf32")

    def test_non_numpy_backend_rejected(self):
        with pytest.raises(PlanError, match="backend"):
            plan_evd(128, "proposed", precision="mixed", backend="torch")

    def test_dense_method_rejected(self):
        with pytest.raises(PlanError):
            plan_evd(128, "dense", precision="mixed")

    def test_mixed_requires_vectors(self):
        with pytest.raises(PlanError):
            plan_evd(128, "proposed", precision="mixed", compute_vectors=False)

    def test_fp32_is_refused_everywhere(self):
        import repro
        from repro.serve import ServiceConfig, SolverService

        A = np.eye(16)
        refusals = [
            lambda: plan_evd(16, "proposed", precision="fp32"),
            lambda: plan_evd(16, "proposed", precision="fp32", compute_vectors=False),
            lambda: repro.eigh(A, precision="fp32"),
        ]
        with SolverService(ServiceConfig(workers=1)) as svc:
            refusals.append(lambda: svc.submit(A, precision="fp32"))
            for call in refusals:
                with pytest.raises(PlanError, match="'fp64', 'mixed'"):
                    call()

    def test_fp32_is_not_a_cli_choice(self, capsys):
        from repro.cli import build_parser

        for command in ("evd", "plan"):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args([command, "--precision", "fp32"])
            assert exc.value.code == 2
            assert "invalid choice: 'fp32'" in capsys.readouterr().err


class TestCacheToken:
    def test_fp64_token_matches_the_historical_spelling(self):
        # Old tokens stay stable: the fp64 policy adds nothing.
        with_knob = plan_evd(128, "proposed", precision="fp64")
        without = plan_evd(128, "proposed")
        assert with_knob.cache_token() == without.cache_token()
        assert "precision" not in without.cache_token()

    def test_non_fp64_token_is_distinct(self):
        t64 = plan_evd(128, "proposed").cache_token()
        tmx = plan_evd(128, "proposed", precision="mixed").cache_token()
        assert t64 != tmx
        assert tmx == t64 + ";precision=mixed"

    def test_round_trips_through_dict(self):
        from repro.plan import EVDPlan

        plan = plan_evd(128, "proposed", precision="mixed")
        again = EVDPlan.from_dict(plan.to_dict())
        assert again.precision == "mixed"
        assert again.cache_token() == plan.cache_token()
