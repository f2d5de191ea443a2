"""The docs, the CI workflow and the verify notes name only things that
exist: every cited repository path, every ``python -m repro``
subcommand and every dotted ``repro.*`` name.

A deleted script, module or CLI command leaves its references behind
unless something fails; this is that something.
"""

from __future__ import annotations

import importlib
import pathlib
import re

import pytest

from repro.cli import build_parser

ROOT = pathlib.Path(__file__).resolve().parent.parent

SCANNED = [
    "README.md",
    "DESIGN.md",
    *sorted(str(p.relative_to(ROOT)) for p in (ROOT / "docs").glob("*.md")),
    "examples/README.md",
    ".github/workflows/ci.yml",
    ".claude/skills/verify/SKILL.md",
]

# Output directories that runs create; they are not committed.
GENERATED = {"benchmarks/out/"}

_PATH = re.compile(r"(?<![\w/.-])((?:benchmarks|scripts|examples|src/repro)/[\w./*<>-]*)")
_SUBCOMMAND = re.compile(r"python3? -m repro ([\w|-]+)")
_DOTTED = re.compile(r"(?<![\w./-])(repro(?:\.[A-Za-z_]\w*)+)")


def _texts():
    for name in SCANNED:
        yield name, (ROOT / name).read_text()


def _cited(pattern: re.Pattern) -> list[tuple[str, str]]:
    return sorted(
        {(m.group(1).rstrip("."), name) for name, text in _texts() for m in pattern.finditer(text)}
    )


def _exists(cited: str) -> bool:
    if cited in GENERATED:
        return True
    # A placeholder such as bench_<x>.py or a glob such as examples/*.py
    # must match at least one file.
    pattern = re.sub(r"<[^>]*>", "*", cited)
    if "*" in pattern:
        return any(ROOT.glob(pattern))
    return (ROOT / cited).exists()


def _resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def test_cited_paths_exist():
    cited = _cited(_PATH)
    assert cited, "the scan found no paths at all; the pattern is broken"
    dangling = [f"{path} (in {name})" for path, name in cited if not _exists(path)]
    assert not dangling, "dangling path references:\n" + "\n".join(dangling)


def test_cited_subcommands_are_registered(capsys):
    parser = build_parser()
    cited = {sub for spelled, _ in _cited(_SUBCOMMAND) for sub in spelled.split("|")}
    assert "evd" in cited
    unknown = []
    for sub in sorted(cited):
        with pytest.raises(SystemExit) as exit_info:
            parser.parse_args([sub, "--help"])
        if exit_info.value.code != 0:
            unknown.append(sub)
    capsys.readouterr()
    assert not unknown, f"unregistered `python -m repro` subcommands: {unknown}"


def test_cited_dotted_names_resolve():
    cited = _cited(_DOTTED)
    assert cited
    dangling = [f"{dotted} (in {name})" for dotted, name in cited if not _resolves(dotted)]
    assert not dangling, "dangling repro.* references:\n" + "\n".join(dangling)
