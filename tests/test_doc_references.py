"""The docs, the CI workflow and the verify notes name only things that
exist: every cited repository path, every ``python -m repro``
subcommand, every dotted ``repro.*`` name and every backticked class
name.

A deleted script, module or CLI command leaves its references behind
unless something fails; this is that something.
"""

from __future__ import annotations

import builtins
import concurrent.futures
import dataclasses
import functools
import importlib
import pathlib
import pkgutil
import re

import numpy.linalg
import pytest

import repro
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
# A backticked CamelCase name, optionally with attributes or a call:
# `TridiagResult`, `BulgeChasingResult.apply_q1`, `SolverService()`.
_CLASS = re.compile(r"`([A-Z]\w*?[a-z]\w*(?:\.\w+)*)(?:\(\))?`")

# Names the docs cite from outside the package: exceptions raised
# through the API, and LAPACK routines.
_EXTERNAL = (builtins, concurrent.futures, numpy.linalg)
_LAPACK = {"Dsb2st", "Dstedc", "Dsy2sb", "Dsyr2k", "Dsytrd"}


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


@functools.cache
def _package_names() -> dict:
    """Every name bound at module level anywhere in ``repro``."""
    names: dict = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):  # runs the CLI on import
            names.update(vars(importlib.import_module(info.name)))
    return names


def _class_resolves(cited: str) -> bool:
    name, *attrs = cited.split(".")
    if name in _LAPACK or any(hasattr(mod, name) for mod in _EXTERNAL):
        return True
    if name not in _package_names():
        return False
    obj = _package_names()[name]
    for attr in attrs:
        if dataclasses.is_dataclass(obj) and attr in {f.name for f in dataclasses.fields(obj)}:
            return True  # a field without a class-level default
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_cited_class_names_resolve():
    cited = _cited(_CLASS)
    assert cited
    dangling = [f"{name} (in {doc})" for name, doc in cited if not _class_resolves(name)]
    assert not dangling, "dangling class references:\n" + "\n".join(dangling)
