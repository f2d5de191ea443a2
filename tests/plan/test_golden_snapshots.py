"""Golden-snapshot stability of resolved plans.

``tests/plan/golden_plans.json`` pins the fully-resolved plan (block
sizes, normalized branches, cache token) for each paper preset at
n in {64, 512, 2048}, plus eigenvalues-only plans keyed
``"<preset>/n=<n>/values_only"``.  Drift means either an intentional planner change
(regenerate with ``python scripts/check_plan_snapshots.py --write``) or
an accidental one that would re-key the serving cache — either way it
must be a visible diff, not a silent behavior change.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

from repro.plan import EVDPlan, plan_evd

REPO = pathlib.Path(__file__).resolve().parents[2]
GOLDEN = pathlib.Path(__file__).with_name("golden_plans.json")


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("key", sorted(load_golden()))
def test_resolved_plan_matches_golden(key):
    preset, n_part, *values_only = key.split("/")
    n = int(n_part.removeprefix("n="))
    plan = plan_evd(n, preset, compute_vectors=not values_only)
    assert plan.to_dict() == load_golden()[key]


@pytest.mark.parametrize("key", sorted(load_golden()))
def test_golden_entries_round_trip(key):
    data = load_golden()[key]
    plan = EVDPlan.from_dict(data)
    assert plan.cache_token() == data["cache_token"]


def test_check_script_verifies():
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "check_plan_snapshots.py")],
        capture_output=True,
        text=True,
        cwd=REPO,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "plan snapshots OK" in proc.stdout
