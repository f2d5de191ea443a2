#!/usr/bin/env python
"""Golden-snapshot check for the EVD plan layer.

The resolved plans for the four paper presets at n in {64, 512, 2048},
plus the eigenvalues-only ``proposed`` plan at n=2048 (whose chase runs
a narrower band), are serialized to ``tests/plan/golden_plans.json``.  CI runs this script
in verify mode: any drift in preset expansion, ``auto_params``, knob
clamping, or cache-token format fails loudly with a diff, so an
accidental planner change cannot silently re-key the serving cache or
re-block every solve.

Usage::

    PYTHONPATH=src python scripts/check_plan_snapshots.py          # verify
    PYTHONPATH=src python scripts/check_plan_snapshots.py --write  # regenerate
"""

from __future__ import annotations

import argparse
import difflib
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.plan import plan_evd  # noqa: E402

GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "tests" / "plan" / "golden_plans.json"
PRESETS = ("proposed", "magma", "cusolver", "plasma")
SIZES = (64, 512, 2048)
#: (preset, n) pairs also pinned as eigenvalues-only plans, keyed
#: ``"<preset>/n=<n>/values_only"``.
VALUES_ONLY = (("proposed", 2048),)


def current_snapshots() -> dict:
    snaps = {
        f"{preset}/n={n}": plan_evd(n, preset).to_dict()
        for preset in PRESETS
        for n in SIZES
    }
    for preset, n in VALUES_ONLY:
        plan = plan_evd(n, preset, compute_vectors=False)
        snaps[f"{preset}/n={n}/values_only"] = plan.to_dict()
    return snaps


def render(snapshots: dict) -> str:
    return json.dumps(snapshots, indent=2, sort_keys=True) + "\n"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true",
                    help="regenerate the golden file instead of verifying")
    args = ap.parse_args(argv)

    text = render(current_snapshots())
    if args.write:
        GOLDEN.write_text(text)
        print(f"wrote {GOLDEN} ({len(json.loads(text))} plans)")
        return 0
    if not GOLDEN.exists():
        print(f"missing golden file {GOLDEN}; run with --write", file=sys.stderr)
        return 1
    golden = GOLDEN.read_text()
    if golden == text:
        print(f"plan snapshots OK ({len(json.loads(text))} plans)")
        return 0
    diff = difflib.unified_diff(
        golden.splitlines(keepends=True),
        text.splitlines(keepends=True),
        fromfile="golden_plans.json",
        tofile="current",
    )
    sys.stderr.writelines(diff)
    print(
        "\nplan snapshots drifted — if intentional, regenerate with "
        "`python scripts/check_plan_snapshots.py --write`",
        file=sys.stderr,
    )
    return 1


if __name__ == "__main__":
    sys.exit(main())
