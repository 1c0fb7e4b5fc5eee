"""The mutant switch: activation scope and name checks; mutants that plant
defects in constructions only, and pass the routes' own checks through one
gate; the nonsymmetric-closure quotient against its forward-closure
reference; one owner each for mutant names, generated element names and
the text form of values; cross-validators that call no
oracle, construction or route; fast oracles that build no colimit;
suites that share one instance loop; suites and routes that repeat no
construction; generated carriers built from positions by one builder
each; no loop that reads a function's value names per element; the calls
the traced benchmark swaps, which stay bare-name calls; and no definition
in the package without a program caller."""

import ast
import dataclasses
import random
from pathlib import Path

import pytest

from diexact import mutants
from diexact.certificates import is_pushout_square
from diexact.enumeration import (
    all_equivalences,
    exhaustive_malcev_spans,
    letters,
    random_malcev_span,
)
from diexact.fsets import FiniteSet, SetFunction, canonical_pushout, coproduct
from diexact.pushouts import malcev_pushout_direct, pushout_equivalence
from diexact.relations import span_to_relation, tabulate
from diexact.suites import SuiteConfig, suite_certificates

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "diexact").glob("*.py"))


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


def test_nonsymmetric_closure_changes_the_direct_square():
    """The mutant sabotages the direct route itself: some small span gets a
    different square from it than without the mutant."""
    changed = []
    for label, s in exhaustive_malcev_spans(2):
        square = malcev_pushout_direct(s).square
        with mutants.enabled(mutants.NONSYMMETRIC):
            if malcev_pushout_direct(s).square != square:
                changed.append(label)
    assert changed


def _forward_closure(s):
    """The nonsymmetric-closure quotient by its definition: drop the links
    of the block relation that run from B back to A, and send each element
    of A + B to the least element it reaches along the rest."""
    total, _, inr = coproduct(*s.feet)
    right = set(inr.values)
    e = pushout_equivalence(span_to_relation(s))
    one_way = [(x, y) for x, y in e.pairs() if x not in right or y in right]
    least = {x: x for x in total}
    for _ in total:  # a shortest path has fewer links than A + B has elements
        for x, y in one_way:
            least[x] = min(least[x], least[y])
    names = tuple(least.values())
    return SetFunction(total, FiniteSet(tuple(set(names))), names)


def test_nonsymmetric_closure_is_the_forward_closure():
    """Under nonsymmetric-closure the direct route quotients by the
    equivalence that the two diagonal blocks generate; since a difunctional
    relation makes both blocks equivalences, that is the forward closure
    without the R° block, on every span up to size 3, the tabulation of
    every equivalence up to size 4 and 3000 seeded spans up to size 7."""
    corpus = [s for _, s in exhaustive_malcev_spans(3)]
    corpus += [
        tabulate(e) for size in range(5) for _, e in all_equivalences(letters("a", size))
    ]
    rng = random.Random(20)
    corpus += [random_malcev_span(rng, 7)[1] for _ in range(3000)]
    assert len(corpus) == 241 + 24 + 3000
    with mutants.enabled(mutants.NONSYMMETRIC):
        differ = [s for s in corpus if malcev_pushout_direct(s).quotient != _forward_closure(s)]
    assert differ == []


@pytest.mark.parametrize("mutant", mutants.KNOWN)
def test_mutants_leave_the_reference_and_the_oracle_alone(mutant):
    """Under every mutant, the reference colimit and the pushout oracle's
    verdict on an unmutated square are what they are without it.  A span
    keeps its reference colimit, so the mutant half builds it on fresh
    equal spans, which keep nothing, and so runs its body under the
    mutant."""
    corpus = [s for _, s in exhaustive_malcev_spans(2)]
    squares = [malcev_pushout_direct(s).square for s in corpus]
    expected = [(canonical_pushout(s), is_pushout_square(q)) for s, q in zip(corpus, squares)]
    fresh = [dataclasses.replace(s) for s in corpus]
    assert not any(hasattr(s, "_pushout") for s in fresh)
    with mutants.enabled(mutant):
        got = [(canonical_pushout(s), is_pushout_square(q)) for s, q in zip(fresh, squares)]
    assert got == expected


def test_only_constructions_ask_for_a_mutant():
    """``mutants.active`` is read in ``pushouts`` and ``pointed`` alone, so
    no oracle, reference colimit or cross-validator can be mutated."""
    asking = sorted(
        {
            path.name
            for path in SOURCES
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "active"
                and isinstance(node.value, ast.Name)
                and node.value.id == "mutants"
            )
            or (
                isinstance(node, ast.ImportFrom)
                and (node.module or "").endswith("mutants")
                and any(alias.name == "active" for alias in node.names)
            )
        }
    )
    assert asking == ["pointed.py", "pushouts.py"]


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


def _spells_a_generated_name(template: str) -> bool:
    """A pair name anywhere in the text, or a coproduct tag on its own."""
    return "({},{})" in template or template in ("l:{}", "r:{}", "{}:{}")


def test_generated_names_and_value_text_are_made_in_fsets():
    """Pair names and coproduct tags are spelled only in ``names`` (which
    ``fsets`` and ``errors`` both import), and values print only through the
    ``fsets`` reprs."""
    spelled, copies = [], []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                path.name != "names.py"
                and isinstance(node, ast.JoinedStr)
                and _spells_a_generated_name(_template(node))
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


def test_commutativity_culprit_is_spelled_once_in_fsets():
    """Every commutativity check reports its culprit through
    ``fsets.disagreement_text``; no other module spells the text."""
    spelled = [
        (path.name, node.lineno)
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and "has images" in node.value
    ]
    assert [name for name, _ in spelled] == ["fsets.py"]


CROSS_VALIDATORS = (
    "pushout_by_universal_property",
    "pushout_by_universal_property_bruteforce",
    "pullback_by_universal_property",
    "stable_by_all_pullbacks",
    "_require_bound",
    "_codes",
    "_weights",
    "_matches",
    "_fibers",
    "_base_change_is_pushout",
)
FAST_ORACLES = ("is_pushout_square", "is_pullback_square", "is_stable_pushout")


def _top_level(module: str) -> list[ast.stmt]:
    path = next(path for path in SOURCES if path.name == module)
    return ast.parse(path.read_text(encoding="utf-8")).body


def test_cross_validators_stay_assumption_free():
    """The universal-property and base-change validators decide squares on
    index tables alone: their bodies name no fast oracle and no function or
    class of ``fsets``, ``relations`` or ``pushouts``, so they run no
    construction and no route.  Parameter annotations are not bodies."""
    forbidden = set(FAST_ORACLES)
    for module in ("fsets.py", "relations.py", "pushouts.py"):
        forbidden |= {
            node.name
            for node in _top_level(module)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        }
    bodies = {
        node.name: node.body
        for node in _top_level("certificates.py")
        if isinstance(node, ast.FunctionDef) and node.name in CROSS_VALIDATORS
    }
    assert sorted(bodies) == sorted(CROSS_VALIDATORS)
    named = [
        (name, node.lineno, node.id if isinstance(node, ast.Name) else node.func.attr)
        for name, body in bodies.items()
        for statement in body
        for node in ast.walk(statement)
        if isinstance(node, ast.Name)
        or (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute))
    ]
    assert [entry for entry in named if entry[2] in forbidden] == []


COLIMIT_BUILDERS = ("coproduct", "copair", "mediating_map")


def test_fast_oracles_build_no_colimit():
    """The fast oracles, and every function of ``certificates`` they reach,
    build no colimit: they name no coproduct, copair, quotient, canonical
    construction or mediating map, so they share no colimit code with the
    routes."""
    functions = {
        node.name: node
        for node in _top_level("certificates.py")
        if isinstance(node, ast.FunctionDef)
    }
    reached, todo = set(), list(FAST_ORACLES)
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        todo += [
            node.id
            for statement in functions[name].body
            for node in ast.walk(statement)
            if isinstance(node, ast.Name) and node.id in functions
        ]
    named = [
        (name, node.lineno, node.id if isinstance(node, ast.Name) else node.attr)
        for name in sorted(reached)
        for statement in functions[name].body
        for node in ast.walk(statement)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]
    assert "is_pushout_square" in {
        node.id for node in ast.walk(functions["is_stable_pushout"]) if isinstance(node, ast.Name)
    }
    assert [
        entry
        for entry in named
        if entry[2] in COLIMIT_BUILDERS
        or entry[2].startswith(("quotient_by_", "canonical_"))
    ] == []


def _per_element_parts(node: ast.AST) -> list[ast.AST]:
    """The parts of a loop or comprehension evaluated once per element: a
    loop's body; a comprehension's element, its conditions and every
    iterable after the first."""
    if isinstance(node, (ast.For, ast.While)):
        return node.body
    if isinstance(node, ast.DictComp):
        parts = [node.key, node.value]
    elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
        parts = [node.elt]
    else:
        return []
    for i, generator in enumerate(node.generators):
        parts += generator.ifs + ([generator.iter] if i else [])
    return parts


def _values_reads_in_loops(tree: ast.Module) -> list[int]:
    """Lines where a loop body or comprehension element reads a ``.values``
    attribute; a call ``.values()`` is a dict's and is not counted."""
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    return sorted(
        node.lineno
        for loop in ast.walk(tree)
        for part in _per_element_parts(loop)
        for node in ast.walk(part)
        if isinstance(node, ast.Attribute) and node.attr == "values" and id(node) not in called
    )


def test_no_loop_reads_function_values():
    """``SetFunction.values`` derives the names from the table on every
    read, so the package reads it in a loop's iterable or before the loop,
    never once per element."""
    assert _values_reads_in_loops(ast.parse("for i in t:\n    x = h.values[i]\n")) == [2]
    assert _values_reads_in_loops(ast.parse("[f.values[i] for i in t]")) == [1]
    assert _values_reads_in_loops(ast.parse("[x for g in t for x in g.values]")) == [1]
    assert _values_reads_in_loops(ast.parse("for x in f.values:\n    d.values()\n")) == []
    assert _values_reads_in_loops(ast.parse("[x for x in f.values if x]")) == []
    reads = [
        (path.name, line)
        for path in SOURCES
        for line in _values_reads_in_loops(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert reads == []


def _unused_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """Names a module imports and never reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(
        (line, name)
        for name, line in imported.items()
        if name not in read and name != "annotations"
    )


def test_modules_read_every_name_they_import():
    """Every module but the package root, whose imports are its re-exports,
    reads each name it imports."""
    unused = [
        (path.name, line, name)
        for path in SOURCES
        if path.name != "__init__.py"
        for line, name in _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert unused == []


def _package_imports(module: str) -> set[str]:
    """The modules of the package that ``module`` imports."""
    tree = ast.parse((SOURCES[0].parent / f"{module}.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                imported.add(node.module)
            else:
                imported.update(alias.name for alias in node.names)
    return imported


def test_the_span_corpus_asks_for_no_mutant():
    """T2 and D share one corpus per run, whatever its mutant; so
    ``enumeration`` and every module it reaches are neither the mutant
    switch nor a module that asks it."""
    reached, todo = set(), ["enumeration"]
    while todo:
        module = todo.pop()
        if module not in reached:
            reached.add(module)
            todo += _package_imports(module)
    assert "fsets" in reached
    assert reached.isdisjoint({"mutants", "pushouts", "pointed"})


ROUTES = ("malcev_pushout_direct", "malcev_pushout_decomposed", "pushout_epi_leg")


def _function(module: str, name: str) -> ast.FunctionDef:
    return next(
        node
        for node in _top_level(module)
        if isinstance(node, ast.FunctionDef) and node.name == name
    )


def test_d_builds_no_route_result_of_its_own():
    """``suite_certificates`` names no construction route: it reads the
    direct results of the run it shares with T2."""
    named = {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(_function("suites.py", "suite_certificates"))
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    assert {"_SpanRun", "direct"} <= named
    assert named.isdisjoint(ROUTES)


def _top_level_names_where(module: str, matches) -> list[str]:
    """The top-level statements of a module, once per node in them that
    ``matches`` accepts: a definition by its name, another statement by its
    kind."""
    return [
        getattr(node, "name", type(node).__name__)
        for node in _top_level(module)
        for inner in ast.walk(node)
        if matches(inner)
    ]


def test_the_suites_keep_one_instance_loop():
    """In ``suites``, ``SuiteFailure`` is built only by ``_run`` and P0's
    ``suite_zero_object``, and ``mutants.enabled`` is named only by ``_run``,
    so no suite forks the instance loop and every direct result is built
    under the loop's mutant.

    ``_run``'s dict, local to one call, is the only memo of instance
    results: besides it only ``_SpanRun`` stores by key, into the direct
    results of one run.  ``suites`` imports no ``functools``, and no
    top-level assignment holds a container, so nothing outlives a run."""
    built = _top_level_names_where(
        "suites.py",
        lambda node: isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "SuiteFailure",
    )
    enabling = _top_level_names_where(
        "suites.py",
        lambda node: isinstance(node, ast.Attribute)
        and node.attr == "enabled"
        and isinstance(node.value, ast.Name)
        and node.value.id == "mutants",
    )
    assert built == ["_run", "suite_zero_object"]
    assert enabling == ["_run"]
    stored = _top_level_names_where(
        "suites.py",
        lambda node: isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store),
    )
    assert set(stored) == {"_SpanRun", "_run"}
    imported = set()
    for node in _top_level("suites.py"):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    assert "functools" not in imported
    containers = _top_level_names_where(
        "suites.py",
        lambda node: isinstance(
            node, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
        ),
    )
    assert {"Assign", "AnnAssign"}.isdisjoint(containers)


def _annotations(tree: ast.AST) -> set[int]:
    """The ids of every node inside an annotation of the tree."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            roots.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            roots.append(node.annotation)
    return {id(inner) for root in roots if root is not None for inner in ast.walk(root)}


def test_route_squares_pass_one_gate():
    """In ``pushouts`` only ``_square`` names ``CommutativeSquare`` other
    than in an annotation, so every route square, checked or not, is built
    through that gate; ``pointed`` names ``PointedMap._unchecked`` once."""
    tree = ast.parse((SOURCES[0].parent / "pushouts.py").read_text(encoding="utf-8"))
    annotated = _annotations(tree)
    naming = [
        getattr(statement, "name", type(statement).__name__)
        for statement in tree.body
        for node in ast.walk(statement)
        if isinstance(node, ast.Name)
        and node.id == "CommutativeSquare"
        and id(node) not in annotated
    ]
    assert naming == ["_square", "_square"]
    unchecked = _top_level_names_where(
        "pushouts.py",
        lambda node: isinstance(node, ast.Attribute) and node.attr == "_unchecked",
    )
    assert unchecked == ["_square"]
    pointed = _top_level_names_where(
        "pointed.py",
        lambda node: isinstance(node, ast.Attribute) and node.attr == "_unchecked",
    )
    assert pointed == ["pointed_malcev_pushout"]


def test_block_quotient_leaves_the_quotients_to_their_kernels():
    """``_block_quotient`` quotients through ``quotient_by_equivalence`` or
    ``quotient_by_generated`` and builds no function or set itself."""
    named = {
        node.id
        for node in ast.walk(_function("pushouts.py", "_block_quotient"))
        if isinstance(node, ast.Name)
    }
    assert {"quotient_by_equivalence", "quotient_by_generated"} <= named
    assert named.isdisjoint({"SetFunction", "FiniteSet"})


# The builders of generated carriers, and the one builder each must end in.
CARRIER_BUILDERS = {
    ("fsets.py", "pair_span"): None,
    ("fsets.py", "pullback"): "pair_span",
    ("relations.py", "tabulate"): "pair_span",
    ("fsets.py", "image_factorization"): None,
    ("fsets.py", "quotient_by_generated"): "image_factorization",
    ("relations.py", "quotient_by_equivalence"): "image_factorization",
}


def _bare_call_sites(module: str, name: str) -> list[str]:
    """The top-level function, or ``Class.method``, of each call of a bare
    name in a module."""
    sites = []
    for node in _top_level(module):
        is_class = isinstance(node, ast.ClassDef)
        for member in node.body if is_class else [node]:
            sites += [
                f"{node.name}.{member.name}" if is_class else getattr(node, "name", "")
                for inner in ast.walk(member)
                if isinstance(inner, ast.Call)
                and isinstance(inner.func, ast.Name)
                and inner.func.id == name
            ]
    return sites


def test_generated_carriers_are_built_from_positions():
    """Pairs become a carrier only in ``pair_span``, and both least-member
    quotients end in ``image_factorization``; none of these builders looks
    a value up by name through the name-valued ``SetFunction`` constructor,
    and in ``fsets`` and ``relations`` only ``pair_span``, by ``pair_names``,
    and the relation's ``repr``, by ``pair_name``, spell a pair name."""
    for (module, name), builder in CARRIER_BUILDERS.items():
        called = _bare_calls(module, (name,))
        assert "SetFunction" not in called, name
        assert builder is None or builder in called, name
    naming = [
        (site, name)
        for module in ("fsets.py", "relations.py")
        for name in ("pair_name", "pair_names")
        for site in _bare_call_sites(module, name)
    ]
    assert naming == [("pair_span", "pair_names"), ("Relation.__repr__", "pair_name")]


def test_the_decomposed_route_calls_the_epi_leg_body():
    """``malcev_pushout_decomposed`` checks each stage span itself, so it
    calls the epi-leg body and not ``pushout_epi_leg``, which would decide
    the Mal'cev precondition again."""
    called = [
        node.func.id
        for node in ast.walk(_function("pushouts.py", "malcev_pushout_decomposed"))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    ]
    assert "pushout_epi_leg" not in called
    assert called.count("_epi_leg_square") == 2


def _bare_calls(module: str, functions: tuple[str, ...]) -> list[str]:
    """The names called as bare names in the given top-level functions."""
    return [
        node.func.id
        for name in functions
        for node in ast.walk(_function(module, name))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    ]


def _module_names(module: str) -> set[str]:
    """The names a module binds at its top level by import or ``def``."""
    names = set()
    for node in _top_level(module):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.FunctionDef):
            names.add(node.name)
    return names


@pytest.mark.parametrize(
    "module, functions, pinned",
    [
        (
            "cli.py",
            ("cmd_pushout", "_agreement_verdict"),
            {
                "parse_document": 1,
                "malcev_pushout_direct": 1,
                "malcev_pushout_decomposed": 2,
                "canonical_comparison": 2,
                "certify": 1,
                "render_certificate": 1,
            },
        ),
        (
            "suites.py",
            ("run_all_suites", "theorem_suites", "pointed_diexact_suite"),
            {
                "suite_coproducts": 1,
                "suite_equivalences": 1,
                "suite_agreement": 1,
                "suite_certificates": 1,
                "suite_zero_object": 1,
                "suite_pointed_pushouts": 1,
            },
        ),
    ],
)
def test_traced_calls_are_bare_names_of_the_module(module, functions, pinned):
    """The traced benchmark times these calls by swapping the module
    attribute the caller looks each one up by, so each stays a call of a
    bare name that the module binds at its top level, made as often as
    pinned here; a call through another name, or one more or fewer, would
    move or lose its time."""
    called = _bare_calls(module, functions)
    assert {name: called.count(name) for name in pinned} == pinned
    assert set(pinned) <= _module_names(module)


# Definitions that no program code names, each kept for its public callers.
UNCALLED = {
    "fset": "the shorthand constructor of the tests and the README's examples",
    "pushout_epi_leg": "the public epi-leg route; the program calls its body, _epi_leg_square",
    "recheck_certificate": "re-checks a certificate from its evidence, for library callers",
}


def _definitions(tree: ast.Module) -> list[str]:
    """The top-level functions and classes of a module, and the methods of
    its classes other than the dunder methods the language calls."""
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.append(node.name)
        if isinstance(node, ast.ClassDef):
            defined += [
                f"{node.name}.{member.name}"
                for member in node.body
                if isinstance(member, ast.FunctionDef)
                and not (member.name.startswith("__") and member.name.endswith("__"))
            ]
    return defined


def test_every_definition_has_a_program_caller():
    """Each function, class and method of the package is named, as a name
    or an attribute, by the package's own modules (not the re-exports of
    ``__init__``), ``scripts/`` or ``perfbench/``; code that only tests call
    belongs in the tests.  The few exceptions are listed with a reason, and
    each is still defined and still uncalled."""
    callers = [path for path in SOURCES if path.name != "__init__.py"]
    callers += sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    named = set()
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    defined = [
        name
        for path in SOURCES
        for name in _definitions(ast.parse(path.read_text(encoding="utf-8")))
    ]
    uncalled = [name for name in defined if name.rpartition(".")[2] not in named]
    assert sorted(uncalled) == sorted(UNCALLED)
