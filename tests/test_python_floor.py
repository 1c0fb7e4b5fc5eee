"""The package keeps to the Python floor that ``pyproject.toml`` declares.

Two things that a newer interpreter accepts would break the package on the
floor without failing any other test run on the newer one: syntax of a
later grammar, and the possessive quantifiers and atomic groups that
``re`` has accepted only since Python 3.11 (``a*+``, ``a++``, ``a?+``,
``a{2}+``, ``(?>...)``).
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "diexact").glob("*.py"))


def declared_floor() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'requires-python\s*=\s*">=(\d+)\.(\d+)"', text).groups()
    return int(major), int(minor)


def newer_re_syntax(pattern: str) -> str | None:
    """The first possessive quantifier or atomic group in a pattern, or
    None.  Escaped characters and character classes are skipped, so
    ``\\++`` and ``[*+]`` are not flagged."""
    i, quantified = 0, False
    while i < len(pattern):
        c = pattern[i]
        if c == "\\":
            i, quantified = i + 2, False
            continue
        if c == "[":
            i += 2 if pattern.startswith("[^", i) else 1
            i += 2 if pattern[i] == "\\" else 1  # the first member, which may be "]"
            while pattern[i] != "]":
                i += 2 if pattern[i] == "\\" else 1
            i, quantified = i + 1, False
            continue
        if pattern.startswith("(?>", i):
            return "(?>"
        if c == "+" and quantified:
            return pattern[i - 1] + "+"
        quantified = c in "*+?}" and not (c == "?" and i and pattern[i - 1] == "(")
        i += 1
    return None


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_module_parses_under_the_floor_grammar(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=declared_floor())


@pytest.mark.parametrize(
    "pattern, found",
    [
        (r"a*+", "*+"),
        (r"a++", "++"),
        (r"a?+b", "?+"),
        (r"a{2}+", "}+"),
        (r"(?>ab)", "(?>"),
        (r"\++", None),
        (r"[*+]+", None),
        (r"[^]+]*", None),
        (r"[\]*]+", None),
        (r"(a)*+", "*+"),
        (r"a+?", None),
        (r"(?:a)+", None),
        (r"\(\s*(x)\s*,\s*(y)\s*\)", None),
    ],
)
def test_the_scan_finds_newer_syntax_only(pattern, found):
    assert newer_re_syntax(pattern) == found


def patterns_in_the_package() -> list[tuple[str, str]]:
    """Every compiled pattern a module keeps at its top level, however its
    text was built, and every string literal passed to an ``re``
    function."""
    found = []
    for path in SOURCES:
        module = importlib.import_module(f"diexact.{path.stem}")
        found += [
            (f"{path.stem}.{name}", value.pattern)
            for name, value in vars(module).items()
            if isinstance(value, re.Pattern)
        ]
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "re"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                found.append((f"{path.name}:{node.lineno}", node.args[0].value))
    return found


def test_no_pattern_uses_possessive_quantifiers_or_atomic_groups():
    patterns = patterns_in_the_package()
    assert len(patterns) > 9
    assert [(where, p) for where, p in patterns if newer_re_syntax(p)] == []
