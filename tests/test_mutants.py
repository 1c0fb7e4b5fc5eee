"""The mutant switch: activation scope and name checks; and one owner each
for mutant names, generated element names and the text form of values."""

import ast
from pathlib import Path

import pytest

from diexact import mutants
from diexact.suites import SuiteConfig, suite_certificates

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "diexact").glob("*.py"))


def test_exception_inside_enabled_leaves_nothing_active():
    with pytest.raises(RuntimeError):
        with mutants.enabled(mutants.DROP_ROR):
            assert mutants.active() and mutants.active(mutants.DROP_ROR)
            assert not mutants.active(mutants.SKIP_MONO)
            raise RuntimeError("leaving the block")
    assert not mutants.active()


def test_unknown_name_is_refused_with_the_known_names():
    with pytest.raises(ValueError) as refused:
        with mutants.enabled("flip-all-bits"):
            pass
    message = str(refused.value)
    assert "'flip-all-bits'" in message
    assert all(name in message for name in mutants.KNOWN)
    assert not mutants.active()


def test_direct_suite_call_runs_under_its_config_mutant():
    config = SuiteConfig(max_size=2, exhaustive=True, mutant=mutants.DROP_ROR)
    assert suite_certificates(config).failures
    assert not mutants.active()


def _function_parameters(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            named = args.posonlyargs + args.args + args.kwonlyargs
            named += [a for a in (args.vararg, args.kwarg) if a is not None]
            yield from ((node.lineno, a.arg) for a in named)


def test_mutants_are_named_and_switched_in_one_module():
    assert "mutants.py" in [path.name for path in SOURCES]
    spelled, threaded = [], []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.name != "mutants.py":
            spelled += [
                (path.name, node.lineno, node.value)
                for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and node.value in mutants.KNOWN
            ]
        threaded += [
            (path.name, line, name)
            for line, name in _function_parameters(tree)
            if name in ("mutations", "symmetric")
        ]
    assert spelled == []
    assert threaded == []


def _template(fstring: ast.JoinedStr) -> str:
    """The f-string's text with each replacement field written ``{}``."""
    return "".join(
        "{}" if isinstance(part, ast.FormattedValue) else part.value
        for part in fstring.values
    )


def test_generated_names_and_value_text_are_made_in_fsets():
    spelled, copies = [], []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                path.name != "fsets.py"
                and isinstance(node, ast.JoinedStr)
                and _template(node) in ("({},{})", "l:{}", "r:{}")
            ):
                spelled.append((path.name, node.lineno, _template(node)))
            if isinstance(node, ast.FunctionDef) and node.name in (
                "render_set",
                "render_function",
                "render_relation",
            ):
                copies.append((path.name, node.lineno, node.name))
    assert spelled == []
    assert copies == []
