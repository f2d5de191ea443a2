"""Planner validation + normalization: the typed knob surface.

Satellite regression (PR 7): a misspelled pipeline knob used to surface
as a ``TypeError`` deep inside ``tridiagonalize``; it must now be a
:class:`repro.plan.PlanError` raised at the ``eigh``/``plan_evd``
boundary, naming the valid knobs.
"""

from __future__ import annotations

import re
from dataclasses import fields

import numpy as np
import pytest

import repro
from repro.plan import (
    PIPELINE_KNOBS,
    EVDPlan,
    PlanError,
    TridiagConfig,
    auto_params,
    plan_evd,
    plan_tridiag,
)


def goe(n: int, seed: int = 0) -> np.ndarray:
    g = np.random.default_rng(seed).standard_normal((n, n))
    return (g + g.T) / 2.0


class TestUnknownKnobs:
    def test_eigh_rejects_misspelled_knob_at_entry(self):
        """The satellite regression: ``bandwith`` (sic) must fail fast
        with a PlanError listing every valid knob — not a TypeError from
        somewhere inside the pipeline."""
        with pytest.raises(PlanError) as exc_info:
            repro.eigh(goe(8), bandwith=4)
        msg = str(exc_info.value)
        assert "bandwith" in msg
        for knob in PIPELINE_KNOBS:
            assert knob in msg

    def test_plan_error_is_a_value_error(self):
        # Callers catching ValueError (the historical contract) keep working.
        assert issubclass(PlanError, ValueError)
        with pytest.raises(ValueError):
            plan_evd(8, bogus_knob=1)

    def test_multiple_unknown_knobs_all_named(self):
        with pytest.raises(PlanError, match="knob_a.*knob_b"):
            plan_evd(8, knob_a=1, knob_b=2)

    def test_plan_tridiag_rejects_unknown_knob(self):
        with pytest.raises(PlanError, match="unknown pipeline knob"):
            plan_tridiag(8, "dbbr", second_blck=4)

    def test_eigh_partial_rejects_unknown_knob(self):
        with pytest.raises(PlanError, match="unknown pipeline knob"):
            repro.eigh_partial(goe(8), (0, 2), max_sweps=3)


class TestChoiceValidation:
    def test_unknown_method_names_choices(self):
        with pytest.raises(PlanError, match="'proposed'.*'dense'"):
            plan_evd(8, method="lapack")

    @pytest.mark.parametrize("method", ["plasma", "tile"])
    def test_retired_tile_methods_removed(self, method):
        # The plasma preset ran the tile band reduction; neither is a plan
        # choice now, and the error lists the methods that remain.
        with pytest.raises(
            PlanError,
            match=f"{method!r}: valid choices are 'proposed', 'magma', "
            "'cusolver', 'dense'$",
        ):
            plan_evd(64, method=method)

    @pytest.mark.parametrize("method", ["dbbr", "sbr", "direct"])
    def test_raw_tridiag_methods_are_not_evd_methods(self, method):
        # method= takes the four presets; the raw tridiagonalization
        # methods are tridiagonalize()'s and plan_tridiag()'s.
        with pytest.raises(PlanError, match=f"unknown method {method!r}"):
            plan_evd(64, method=method)
        assert plan_tridiag(64, method)[0].method == method

    def test_unknown_solver(self):
        # The tridiagonal solver is not a choice: solver= is an unknown knob.
        with pytest.raises(PlanError, match="unknown pipeline knob.*'solver'"):
            plan_evd(8, solver="jacobi")

    def test_qr_solver_removed(self):
        # The QL iteration is a test oracle, not a plan choice.
        with pytest.raises(PlanError, match="unknown pipeline knob.*'solver'"):
            plan_evd(8, solver="qr")

    @pytest.mark.parametrize("solver", ["dc", "bisect"])
    def test_solver_keyword_removed(self, solver):
        # Divide and conquer is the one tridiagonal solver; eigh_partial
        # selects its window with LAPACK.  Every entry point refuses the
        # keyword, naming the knobs that exist.
        A = goe(8)
        for call in (
            lambda: plan_evd(8, solver=solver),
            lambda: repro.eigh(A, solver=solver),
            lambda: repro.eigh_partial(A, (0, 2), solver=solver),
        ):
            with pytest.raises(PlanError, match="'solver': valid knobs are"):
                call()

    def test_bad_secular_mode(self):
        # secular_mode is no longer a plan knob: the scalar per-root loops
        # are reachable only through dc_eigh, and asking a plan for them
        # fails loudly, naming the knobs that do exist.
        with pytest.raises(PlanError, match="'secular_mode'") as exc_info:
            repro.eigh(goe(8), secular_mode="scalar")
        for knob in PIPELINE_KNOBS:
            assert knob in str(exc_info.value)

    def test_bad_bc_driver(self):
        # Every chase runs the wavefront engine; the removed driver knob
        # is rejected, naming the knobs that do exist.
        with pytest.raises(PlanError, match="'bc_driver'") as exc_info:
            repro.eigh(goe(8), bc_driver="pipelined")
        for knob in PIPELINE_KNOBS:
            assert knob in str(exc_info.value)

    def test_bad_syr2k_kind(self):
        # DBBR's deferred update runs one syr2k (the two-GEMM form); the
        # removed schedule knob fails loudly, naming the knobs that exist.
        assert len(PIPELINE_KNOBS) == 3
        assert [f.name for f in fields(TridiagConfig)] == [
            "method", "bandwidth", "second_block"
        ]
        for call in (lambda: plan_evd(64, "proposed", syr2k_kind="square"),
                     lambda: repro.eigh(goe(8), syr2k_kind="reference")):
            with pytest.raises(PlanError, match="'syr2k_kind'") as exc_info:
                call()
            for knob in PIPELINE_KNOBS:
                assert knob in str(exc_info.value)

    def test_bad_back_transform(self):
        # One SBR back transform whose group width follows the method:
        # both removed knobs fail loudly, naming the knobs that do exist.
        assert len(PIPELINE_KNOBS) == 3
        for knob, value in (("back_transform", "blocked"), ("back_transform_group", 8)):
            with pytest.raises(PlanError, match=f"'{knob}'") as exc_info:
                repro.eigh(goe(8), **{knob: value})
            for valid in PIPELINE_KNOBS:
                assert valid in str(exc_info.value)

    def test_non_integer_bandwidth(self):
        with pytest.raises(PlanError, match="bandwidth must be an integer"):
            plan_evd(8, method="proposed", bandwidth="wide")

    @pytest.mark.parametrize(
        "knob,value",
        [
            ("bandwidth", 2.7),
            ("bandwidth", True),
            ("second_block", 16.5),
            ("max_sweeps", True),
            ("max_sweeps", np.float64(1.5)),
            ("direct_block", False),
        ],
    )
    def test_integer_knobs_reject_bool_and_fractions(self, knob, value):
        # Used to be silently truncated (2.7 -> 2, True -> 1).  The removed
        # direct_block knob is rejected by name, whatever its value.
        method, match = (
            ("cusolver", "unknown pipeline knob\\(s\\) 'direct_block'")
            if knob == "direct_block"
            else ("proposed", f"{knob} must be an integer")
        )
        with pytest.raises(PlanError, match=match):
            plan_evd(64, method=method, **{knob: value})

    def test_direct_block_is_an_unknown_knob(self):
        # The one-stage path always runs sytrd's 32-wide panels.
        assert len(PIPELINE_KNOBS) == 3
        for call in (lambda: plan_evd(64, "cusolver", direct_block=16),
                     lambda: repro.eigh(goe(8), method="cusolver", direct_block=16)):
            with pytest.raises(PlanError, match="'direct_block'") as exc_info:
                call()
            for knob in PIPELINE_KNOBS:
                assert knob in str(exc_info.value)

    def test_tridiagonalize_has_no_direct_block_parameter(self):
        with pytest.raises(TypeError, match="direct_block"):
            repro.tridiagonalize(goe(8), direct_block=16)

    def test_integer_knobs_accept_numpy_integers(self):
        plan = plan_evd(
            64, "proposed", bandwidth=np.int64(4), second_block=np.int32(16),
            max_sweeps=np.int16(3),
        )
        assert plan == plan_evd(
            64, "proposed", bandwidth=4, second_block=16, max_sweeps=3,
        )
        assert type(plan.tridiag.bandwidth) is int

    @pytest.mark.parametrize(
        "value", [True, False, "no", 1, 0, None, np.bool_(False)],
        ids=["True", "False", "no", "1", "0", "None", "numpy-False"],
    )
    def test_pipelined_is_an_unknown_knob(self, value):
        # A sequential chase is the wavefront schedule with max_sweeps=1,
        # so the pipelined knob is gone; asking for it names the knobs
        # that do exist.
        for call in (lambda: plan_evd(64, pipelined=value),
                     lambda: repro.eigh(goe(8), pipelined=value)):
            with pytest.raises(PlanError, match="'pipelined'") as exc_info:
                call()
            for knob in PIPELINE_KNOBS:
                assert knob in str(exc_info.value)

    def test_tridiagonalize_has_no_pipelined_parameter(self):
        with pytest.raises(TypeError, match="pipelined"):
            repro.tridiagonalize(goe(8), pipelined=False)

    def test_bandwidth_minimum(self):
        with pytest.raises(PlanError, match="bandwidth must be >= 1"):
            plan_evd(8, method="proposed", bandwidth=0)

    def test_bad_n(self):
        with pytest.raises(PlanError, match="n must be"):
            plan_evd("many")
        with pytest.raises(PlanError, match="n must be"):
            plan_evd(-1)

    def test_bad_tuning(self):
        # There is no tuning switch: auto_params is the one rule.
        with pytest.raises(PlanError, match="unknown pipeline knob.*'tuning'"):
            plan_evd(8, tuning="oracle")

    def test_auto_tuning_removed(self):
        with pytest.raises(PlanError, match="unknown pipeline knob.*'tuning'"):
            plan_evd(64, tuning="auto")
        with pytest.raises(PlanError, match="unknown pipeline knob.*'tuning'"):
            plan_evd(64, tuning="model")
        with pytest.raises(PlanError, match="unknown pipeline knob.*'device'"):
            plan_evd(64, device="h100")

    def test_non_string_backend(self):
        with pytest.raises(PlanError, match="backend name string"):
            plan_evd(8, backend=object())


class TestResolution:
    def test_resolved_fields_match_auto_params(self):
        b, k = auto_params(200)
        plan = plan_evd(200, "proposed")
        assert plan.tridiag.bandwidth == b
        assert plan.tridiag.second_block == max(b, (max(k, b) // b) * b)
        assert plan.bulge_chase.max_sweeps is None

    def test_bandwidth_clamped_to_matrix(self):
        # Historical clamp: b <= max(n - 2, 1).
        plan = plan_evd(10, "proposed", bandwidth=64)
        assert plan.tridiag.bandwidth == 8

    def test_second_block_rounded_to_bandwidth_multiple(self):
        plan = plan_evd(100, "proposed", bandwidth=8, second_block=30)
        assert plan.tridiag.second_block == 24  # (30 // 8) * 8

    def test_direct_method_has_no_band_stages(self):
        plan = plan_evd(64, "cusolver")
        assert plan.tridiag == TridiagConfig(method="direct")
        assert plan.bulge_chase is None
        assert "direct one-stage (block=32)" in plan.describe()

    def test_dense_plan_has_no_pipeline(self):
        plan = plan_evd(64, "dense")
        assert plan.is_dense
        assert plan.tridiag is None
        assert plan.solver.kind == "dense"



def _bk(plan: EVDPlan) -> tuple[int | None, int | None]:
    assert plan.tridiag is not None
    return plan.tridiag.bandwidth, plan.tridiag.second_block


class TestValuesOnlyBandwidth:
    """Eigenvalues-only plans on the wavefront DBBR chase resolve
    ``b = max(2, min(16, n // 8))``; every other plan keeps its ``(b, k)``."""

    @pytest.mark.parametrize("n", [64, 127, 128, 256, 2048])
    def test_values_only_proposed_resolves_narrow_band(self, n):
        b, k = _bk(plan_evd(n, "proposed", compute_vectors=False))
        assert b == max(2, min(16, n // 8))
        assert (b, k) == auto_params(n, vectors=False)
        assert k % b == 0

    def test_n2048_blocks(self):
        assert _bk(plan_evd(2048, "proposed", compute_vectors=False)) == (16, 512)
        assert _bk(plan_evd(2048, "proposed")) == (32, 512)

    @pytest.mark.parametrize("n", [200, 300, 2048])
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(method="magma"),
            # magma with unbounded sweeps is the plain SBR plan.
            pytest.param(
                dict(method="magma", max_sweeps=None), id="method=sbr-unbounded"
            ),
            dict(method="proposed", bandwidth=10),
        ],
        ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()),
    )
    def test_excluded_plans_keep_vectors_blocks(self, n, kwargs):
        values_only = plan_evd(n, compute_vectors=False, **kwargs)
        vectors = plan_evd(n, compute_vectors=True, **kwargs)
        assert _bk(values_only) == _bk(vectors)
        if "bandwidth" not in kwargs:
            b, k = auto_params(n)
            assert values_only.tridiag is not None
            assert values_only.tridiag.bandwidth == b
            if values_only.tridiag.method == "dbbr":
                assert values_only.tridiag.second_block == k

    def test_tridiagonalize_keeps_vectors_blocks(self):
        # tridiagonalize does not know whether Q1 will be applied.
        cfg, _ = plan_tridiag(2048, "dbbr")
        assert (cfg.bandwidth, cfg.second_block) == auto_params(2048)

    @pytest.mark.parametrize("n", [64, 2048])
    def test_values_only_and_vectors_tokens_differ(self, n):
        values_only = plan_evd(n, "proposed", compute_vectors=False)
        assert values_only.cache_token() != plan_evd(n, "proposed").cache_token()


class TestCacheToken:
    def test_preset_and_expanded_spelling_share_token(self):
        """The coalescing property the serving layer relies on."""
        n = 96
        p = plan_evd(n, "proposed")
        expanded = plan_evd(
            n,
            "proposed",
            bandwidth=p.tridiag.bandwidth,
            second_block=p.tridiag.second_block,
        )
        assert p.cache_token() == expanded.cache_token()

    def test_magma_spelling_coalesces(self):
        for n in (64, 96, 2048):
            p = plan_evd(n, "magma")
            expanded = plan_evd(
                n,
                "magma",
                bandwidth=p.tridiag.bandwidth,
                max_sweeps=1,
            )
            assert p.cache_token() == expanded.cache_token()
            assert "bc=max_sweeps=1;" in p.cache_token()
            # The uncapped chase is a different schedule (different bits).
            uncapped = plan_evd(n, "magma", max_sweeps=None)
            assert "bc=max_sweeps=None;" in uncapped.cache_token()
            assert uncapped.cache_token() != p.cache_token()

    def test_irrelevant_knobs_normalized_away(self):
        # Direct path: band knobs are inert and must not split the token.
        assert (
            plan_evd(64, "cusolver", bandwidth=8).cache_token()
            == plan_evd(64, "cusolver").cache_token()
        )
        # Dense tier: every pipeline knob is inert.
        assert (
            plan_evd(64, "dense", bandwidth=8).cache_token()
            == plan_evd(64, "dense").cache_token()
        )

    def test_distinct_computations_get_distinct_tokens(self):
        base = plan_evd(64, "proposed").cache_token()
        assert plan_evd(65, "proposed").cache_token() != base
        assert plan_evd(64, "magma").cache_token() != base
        assert plan_evd(64, "proposed", compute_vectors=False).cache_token() != base
        assert plan_evd(64, "proposed", backend="torch").cache_token() != base
        assert plan_evd(64, "proposed", bandwidth=4).cache_token() != base


class TestSerialization:
    @pytest.mark.parametrize("method", ["proposed", "magma", "cusolver", "dense"])
    def test_dict_round_trip(self, method):
        plan = plan_evd(128, method)
        data = plan.to_dict()
        back = EVDPlan.from_dict(data)
        assert back == plan
        assert back.cache_token() == data["cache_token"]

    def test_parent_format_dict_is_a_typed_error(self):
        """Plan documents written before the bc_driver/secular_mode knobs
        were removed carry both fields; loading one must name them."""
        data = plan_evd(128, "proposed").to_dict()
        data["bulge_chase"]["bc_driver"] = "wavefront"
        data["solver"]["secular_mode"] = "batched"
        with pytest.raises(PlanError, match="unknown bulge_chase field.*'bc_driver'") as exc:
            EVDPlan.from_dict(data)
        assert "valid fields are max_sweeps" in str(exc.value)
        del data["bulge_chase"]["bc_driver"]
        with pytest.raises(PlanError, match="unknown solver field.*'secular_mode'") as exc:
            EVDPlan.from_dict(data)
        assert "valid fields are kind, compute_vectors" in str(exc.value)

    @pytest.mark.parametrize("tuning", ["manual", "model"])
    def test_parent_format_tuning_key_is_a_typed_error(self, tuning):
        """Plan documents written while the tuning switch existed hold a
        top-level ``tuning``; loading one must name the valid keys."""
        data = plan_evd(128, "proposed").to_dict()
        data["tuning"] = tuning
        with pytest.raises(PlanError, match="unknown plan key.*'tuning'") as exc:
            EVDPlan.from_dict(data)
        assert "valid keys are n, method, backend" in str(exc.value)
        del data["tuning"]
        assert EVDPlan.from_dict(data) == plan_evd(128, "proposed")

    @pytest.mark.parametrize("method", ["magma", "proposed"])
    def test_parent_format_pipelined_field_is_a_typed_error(self, method):
        """Plan documents written while the pipelined knob existed hold
        ``bulge_chase.pipelined``; loading one must name the valid field."""
        data = plan_evd(128, method).to_dict()
        data["bulge_chase"]["pipelined"] = method == "proposed"
        with pytest.raises(PlanError, match="unknown bulge_chase field.*'pipelined'") as exc:
            EVDPlan.from_dict(data)
        assert "valid fields are max_sweeps" in str(exc.value)
        del data["bulge_chase"]["pipelined"]
        assert EVDPlan.from_dict(data) == plan_evd(128, method)

    def test_parent_format_direct_block_field_is_a_typed_error(self):
        """Plan documents written while the direct_block knob existed hold
        ``tridiag.direct_block``; loading one must name the valid fields."""
        data = plan_evd(128, "cusolver").to_dict()
        data["tridiag"]["direct_block"] = 32
        with pytest.raises(PlanError, match="unknown tridiag field.*'direct_block'") as exc:
            EVDPlan.from_dict(data)
        assert "valid fields are method, bandwidth, second_block" in str(exc.value)
        del data["tridiag"]["direct_block"]
        assert EVDPlan.from_dict(data) == plan_evd(128, "cusolver")

    @pytest.mark.parametrize("method", ["proposed", "magma"])
    def test_parent_format_syr2k_kind_field_is_a_typed_error(self, method):
        """Plan documents written while the syr2k_kind knob existed hold
        ``tridiag.syr2k_kind``; loading one must name the valid fields."""
        data = plan_evd(128, method).to_dict()
        data["tridiag"]["syr2k_kind"] = "square" if method == "proposed" else None
        with pytest.raises(PlanError, match="unknown tridiag field.*'syr2k_kind'") as exc:
            EVDPlan.from_dict(data)
        assert "valid fields are method, bandwidth, second_block" in str(exc.value)
        del data["tridiag"]["syr2k_kind"]
        assert EVDPlan.from_dict(data) == plan_evd(128, method)

    def test_parent_format_back_transform_branch_is_a_typed_error(self):
        """Plan documents written before the back-transform branch was
        removed still hold it; loading one must name the valid keys."""
        data = plan_evd(128, "proposed").to_dict()
        data["back_transform"] = {"method": "incremental", "group": 16}
        with pytest.raises(PlanError, match="unknown plan key.*'back_transform'") as exc:
            EVDPlan.from_dict(data)
        for key in ("n", "method", "tridiag", "bulge_chase", "solver", "cache_token"):
            assert key in str(exc.value)
        del data["back_transform"]
        assert EVDPlan.from_dict(data) == plan_evd(128, "proposed")

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("tridiag", "method"), "tile",
             "unknown tridiagonalization method 'tile': valid choices are "
             "'dbbr', 'sbr', 'direct'"),
            (("solver", "kind"), "qr",
             "unknown tridiagonal solver 'qr': valid choices are "
             "'dc', 'dense'"),
            (("method",), "plasma", "unknown method 'plasma'"),
            (("precision",), "bf16", "unknown precision 'bf16'"),
            (("fallback",), "retry", "unknown fallback 'retry'"),
            (("solver", "kind"), "bisect",
             "unknown tridiagonal solver 'bisect': valid choices are "
             "'dc', 'dense'"),
            (("method",), "dbbr",
             "unknown method 'dbbr': valid choices are 'proposed', "
             "'magma', 'cusolver', 'dense'"),
            (("precision",), "fp32",
             "unknown precision 'fp32': valid choices are 'fp64', 'mixed'"),
        ],
    )
    def test_retired_or_unknown_choice_is_a_typed_error(self, path, value, message):
        """A plan document whose choice field holds a value the planner
        refuses (a retired ``tile`` method, the retired ``qr`` and
        ``bisect`` solvers, a raw method name at the top level, the
        retired ``fp32`` precision)
        fails to load instead of failing later inside ``execute_plan``."""
        data = plan_evd(64, "magma").to_dict()
        *branch, field = path
        (data[branch[0]] if branch else data)[field] = value
        with pytest.raises(PlanError, match=re.escape(message)):
            EVDPlan.from_dict(data)

    @pytest.mark.parametrize("branch", ["tridiag", "bulge_chase"])
    def test_unknown_field_in_any_branch(self, branch):
        data = plan_evd(128, "proposed").to_dict()
        data[branch]["bogus"] = 1
        with pytest.raises(PlanError, match=f"unknown {branch} field.*'bogus'"):
            EVDPlan.from_dict(data)

    def test_describe_mentions_every_stage(self):
        text = plan_evd(256, "proposed").describe()
        assert "dbbr" in text
        assert "bulge chase" in text
        assert "back transform" in text
        assert "cache token" in text


class TestPlanTridiag:
    def test_raw_methods_only(self):
        with pytest.raises(PlanError, match="'dbbr', 'sbr', 'direct'$"):
            plan_tridiag(64, "proposed")

    def test_matches_evd_branch(self):
        tcfg, bcfg = plan_tridiag(200, "dbbr")
        plan = plan_evd(200, "proposed")
        assert tcfg == plan.tridiag
        assert bcfg == plan.bulge_chase

    def test_core_reexports_auto_params(self):
        assert repro.core.auto_params is auto_params
