"""Line-oriented input format for sets, functions, relations and spans.

Grammar (one declaration per line; blank lines and ``#`` comments ignored):

    set A = {a1, a2}
    point A = a1
    fun f : A -> B = {a1 |-> b1, a2 |-> b1}
    rel R : A -|> B = {(a1,b1), (a2,b1)}
    span S = <f, g>

Element names are nonempty strings over ``[A-Za-z0-9_*']``; parentheses,
commas and the ``l:`` / ``r:`` prefixes are reserved for generated names.
A document's kind is that of its last declaration; a span whose three
carriers all carry ``point`` declarations is a pointed span, and an
endo-relation that happens to be an equivalence is reported as one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ParseError
from .fsets import FiniteSet, SetFunction, Span, span
from .pointed import PointedMap, PointedSet, PointedSpan
from .relations import Relation, is_equivalence

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")
_ELEMENT = re.compile(r"[A-Za-z0-9_*']+$")

_SET = re.compile(r"set\s+(\S+)\s*=\s*\{(.*)\}$")
_POINT = re.compile(r"point\s+(\S+)\s*=\s*(\S+)$")
_FUN = re.compile(r"fun\s+(\S+)\s*:\s*(\S+)\s*->\s*(\S+)\s*=\s*\{(.*)\}$")
_REL = re.compile(r"rel\s+(\S+)\s*:\s*(\S+)\s*-\|>\s*(\S+)\s*=\s*\{(.*)\}$")
_SPAN = re.compile(r"span\s+(\S+)\s*=\s*<\s*(\S+)\s*,\s*(\S+)\s*>$")
_PAIR = re.compile(r"\(\s*([A-Za-z0-9_*']+)\s*,\s*([A-Za-z0-9_*']+)\s*\)$")


@dataclass(frozen=True)
class Declaration:
    kind: str
    name: str
    value: object


@dataclass(frozen=True)
class Document:
    """A parsed input file: all declarations in order, plus the payload the
    last declaration defines."""

    kind: str
    payload: object
    declarations: tuple[Declaration, ...]
    points: tuple[tuple[str, str], ...]


def _check_identifier(token: str, line: int) -> str:
    if not _NAME.match(token):
        raise ParseError(f"invalid identifier {token!r}", line)
    return token


def _check_element(token: str, line: int) -> str:
    if not _ELEMENT.match(token):
        raise ParseError(
            f"invalid element name {token!r} (allowed characters: letters, "
            "digits, underscore, * and ')",
            line,
        )
    return token


def _split_items(body: str) -> list[str]:
    items = [item.strip() for item in body.split(",")]
    return [item for item in items if item]


def _split_pairs(body: str, line: int) -> list[tuple[str, str]]:
    depth = 0
    current = ""
    chunks = []
    for ch in body:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced parenthesis in pair list", line)
        if ch == "," and depth == 0:
            chunks.append(current)
            current = ""
        else:
            current += ch
    chunks.append(current)
    pairs = []
    for chunk in chunks:
        chunk = chunk.strip()
        if not chunk:
            continue
        match = _PAIR.match(chunk)
        if not match:
            raise ParseError(f"expected a pair like (a,b), got {chunk!r}", line)
        pairs.append((match.group(1), match.group(2)))
    return pairs


class _Env:
    def __init__(self) -> None:
        self.sets: dict[str, FiniteSet] = {}
        self.functions: dict[str, SetFunction] = {}
        self.points: dict[str, str] = {}
        self.declarations: dict[str, Declaration] = {}

    def declare(self, kind: str, name: str, value: object, line: int) -> Declaration:
        if name in self.declarations:
            raise ParseError(f"name {name!r} is already declared", line)
        self.declarations[name] = Declaration(kind, name, value)
        return self.declarations[name]

    def get_set(self, name: str, line: int) -> FiniteSet:
        if name not in self.sets:
            raise ParseError(f"unknown set {name!r}", line)
        return self.sets[name]


def parse_document(text: str) -> Document:
    env = _Env()
    last: Declaration | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if match := _SET.match(line):
            name = _check_identifier(match.group(1), line_no)
            elements = [
                _check_element(tok, line_no) for tok in _split_items(match.group(2))
            ]
            if len(set(elements)) != len(elements):
                raise ParseError(f"set {name!r} repeats an element", line_no)
            value = FiniteSet(tuple(elements))
            last = env.declare("set", name, value, line_no)
            env.sets[name] = value
        elif match := _POINT.match(line):
            name = _check_identifier(match.group(1), line_no)
            element = _check_element(match.group(2), line_no)
            carrier = env.get_set(name, line_no)
            if element not in carrier:
                raise ParseError(
                    f"basepoint {element!r} is not an element of set {name!r}", line_no
                )
            if name in env.points:
                raise ParseError(f"set {name!r} already has a basepoint", line_no)
            env.points[name] = element
        elif match := _FUN.match(line):
            name = _check_identifier(match.group(1), line_no)
            dom = env.get_set(match.group(2), line_no)
            cod = env.get_set(match.group(3), line_no)
            mapping: dict[str, str] = {}
            for entry in _split_items(match.group(4)):
                if "|->" not in entry:
                    raise ParseError(f"expected 'a |-> b', got {entry!r}", line_no)
                source, _, target = entry.partition("|->")
                source = _check_element(source.strip(), line_no)
                target = _check_element(target.strip(), line_no)
                if source in mapping:
                    raise ParseError(f"{source!r} is assigned twice", line_no)
                mapping[source] = target
            try:
                value = SetFunction.from_mapping(dom, cod, mapping)
            except ValueError as exc:
                raise ParseError(str(exc), line_no) from None
            last = env.declare("function", name, value, line_no)
            env.functions[name] = value
        elif match := _REL.match(line):
            name = _check_identifier(match.group(1), line_no)
            source_set = env.get_set(match.group(2), line_no)
            target_set = env.get_set(match.group(3), line_no)
            pairs = _split_pairs(match.group(4), line_no)
            for a, b in pairs:
                if a not in source_set:
                    raise ParseError(f"{a!r} is not in set {match.group(2)!r}", line_no)
                if b not in target_set:
                    raise ParseError(f"{b!r} is not in set {match.group(3)!r}", line_no)
            value = Relation.from_pairs(source_set, target_set, pairs)
            last = env.declare("relation", name, value, line_no)
        elif match := _SPAN.match(line):
            name = _check_identifier(match.group(1), line_no)
            left_name, right_name = match.group(2), match.group(3)
            for fn in (left_name, right_name):
                if fn not in env.functions:
                    raise ParseError(f"unknown function {fn!r}", line_no)
            left, right = env.functions[left_name], env.functions[right_name]
            if left.domain != right.domain:
                raise ParseError(
                    f"span legs {left_name!r} and {right_name!r} have different domains",
                    line_no,
                )
            value = span(left, right)
            last = env.declare("span", name, value, line_no)
        else:
            raise ParseError(f"unrecognised declaration {line!r}", line_no)
    if last is None:
        raise ParseError("document contains no declarations", 1)
    kind, payload = _resolve_payload(last, env)
    return Document(
        kind=kind,
        payload=payload,
        declarations=tuple(env.declarations.values()),
        points=tuple(sorted(env.points.items())),
    )


def _resolve_payload(last: Declaration, env: _Env) -> tuple[str, object]:
    if last.kind == "relation":
        value: Relation = last.value
        if value.source == value.target and is_equivalence(value):
            return "equivalence", value
        return "relation", value
    if last.kind == "span":
        value_span: Span = last.value
        pointed = _pointed_span(value_span, env)
        if pointed is not None:
            return "pointed-span", pointed
        return "span", value_span
    return last.kind, last.value


def _pointed_span(value: Span, env: _Env) -> PointedSpan | None:
    by_value: dict[FiniteSet, str] = {}
    for set_name, base in env.points.items():
        carrier = env.sets[set_name]
        if carrier in by_value and env.points[by_value[carrier]] != base:
            raise ParseError(
                f"sets {by_value[carrier]!r} and {set_name!r} are equal but carry "
                "different basepoints",
                1,
            )
        by_value[carrier] = set_name
    needed = (value.apex, value.left.codomain, value.right.codomain)
    if not all(carrier in by_value for carrier in needed):
        return None
    apex = PointedSet(value.apex, env.points[by_value[value.apex]])
    left_cod = PointedSet(
        value.left.codomain, env.points[by_value[value.left.codomain]]
    )
    right_cod = PointedSet(
        value.right.codomain, env.points[by_value[value.right.codomain]]
    )
    try:
        left = PointedMap(apex, left_cod, value.left)
        right = PointedMap(apex, right_cod, value.right)
    except ValueError as exc:
        raise ParseError(f"span is not pointed: {exc}", 1) from None
    return PointedSpan(apex, left, right)


def render_document(doc: Document) -> str:
    """Canonical text for a document; parsing the result reproduces it."""
    set_names: dict[FiniteSet, str] = {}
    fun_names: dict[SetFunction, str] = {}
    lines = []
    points = dict(doc.points)
    for decl in doc.declarations:
        if decl.kind == "set":
            set_names[decl.value] = decl.name
            lines.append(f"set {decl.name} = {decl.value!r}")
            if decl.name in points:
                lines.append(f"point {decl.name} = {points[decl.name]}")
        elif decl.kind == "function":
            fun_names.setdefault(decl.value, decl.name)
            value: SetFunction = decl.value
            lines.append(
                f"fun {decl.name} : {set_names[value.domain]} -> "
                f"{set_names[value.codomain]} = {value!r}"
            )
        elif decl.kind == "relation":
            rel: Relation = decl.value
            lines.append(
                f"rel {decl.name} : {set_names[rel.source]} -|> "
                f"{set_names[rel.target]} = {rel!r}"
            )
        elif decl.kind == "span":
            value_span: Span = decl.value
            lines.append(
                f"span {decl.name} = <{fun_names[value_span.left]}, "
                f"{fun_names[value_span.right]}>"
            )
    return "\n".join(lines) + "\n"
