"""Line-oriented input format for sets, functions, relations and spans.

Grammar (one declaration per line; blank lines and ``#`` comments ignored):

    set A = {a1, a2}
    point A = a1
    fun f : A -> B = {a1 |-> b1, a2 |-> b1}
    rel R : A -|> B = {(a1,b1), (a2,b1)}
    span S = <f, g>

Element names are nonempty strings over ``[A-Za-z0-9_*']``; parentheses,
commas and the ``l:`` / ``r:`` prefixes are reserved for generated names.
A ``rel`` pair list is comma-separated items, each blank or one pair
``(a,b)`` with whitespace around it and its parts.  It is split in one
regex call, and only a refused list is walked again to word the refusal:
a ``)`` that closes nothing is refused as ``unbalanced parenthesis in pair
list``, else the first item (cut at the commas outside parentheses) that
is neither blank nor a pair as ``expected a pair like (a,b), got
'<item>'``.
A document's kind is that of its last declaration; a span whose three
carriers all carry ``point`` declarations is a pointed span, and an
endo-relation that happens to be an equivalence is reported as one.
"""

from __future__ import annotations

import itertools
import operator
import re
from dataclasses import dataclass

from .errors import ParseError
from .fsets import FiniteSet, SetFunction, Span, span
from .pointed import PointedMap, PointedSet, PointedSpan
from .relations import Relation, is_equivalence

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")
_ELEMENT_NAME = r"[A-Za-z0-9_*']+"  # the one spelling of an element name
_ELEMENT = re.compile(_ELEMENT_NAME + "$")

_SET = re.compile(r"set\s+(\S+)\s*=\s*\{(.*)\}$")
_POINT = re.compile(r"point\s+(\S+)\s*=\s*(\S+)$")
_FUN = re.compile(r"fun\s+(\S+)\s*:\s*(\S+)\s*->\s*(\S+)\s*=\s*\{(.*)\}$")
_REL = re.compile(r"rel\s+(\S+)\s*:\s*(\S+)\s*-\|>\s*(\S+)\s*=\s*\{(.*)\}$")
_SPAN = re.compile(r"span\s+(\S+)\s*=\s*<\s*(\S+)\s*,\s*(\S+)\s*>$")
_PAIR = re.compile(rf"\(\s*({_ELEMENT_NAME})\s*,\s*({_ELEMENT_NAME})\s*\)")
_SEPARATORS = re.compile(r"[\s,]*")


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
    """The pairs of a ``rel`` body, split out by one ``_PAIR.split`` call.

    The split alternates gap, source, target, ..., gap.  The gaps are
    checked in bulk: joined, they hold only commas and whitespace, and each
    gap between two pairs holds a comma.
    """
    parts = _PAIR.split(body)
    gaps = parts[::3]
    if not _SEPARATORS.fullmatch("".join(gaps)) or not all(
        map(operator.contains, gaps[1:-1], itertools.repeat(","))
    ):
        raise _pair_list_error(body, line)
    return list(zip(parts[1::3], parts[2::3]))


def _pair_list_error(body: str, line: int) -> ParseError:
    """Why ``_split_pairs`` refused the body, in the module docstring's words."""
    depth, cuts = 0, [-1]
    for at, ch in enumerate(body):
        depth += (ch == "(") - (ch == ")")
        if depth < 0:
            return ParseError("unbalanced parenthesis in pair list", line)
        if ch == "," and depth == 0:
            cuts.append(at)
    items = (body[i + 1 : j].strip() for i, j in zip(cuts, cuts[1:] + [len(body)]))
    bad = next(c for c in items if c and not _PAIR.fullmatch(c))
    return ParseError(f"expected a pair like (a,b), got {bad!r}", line)


class _Env:
    def __init__(self) -> None:
        self.sets: dict[str, FiniteSet] = {}
        self.functions: dict[str, SetFunction] = {}
        self.points: dict[str, str] = {}
        self.point_lines: dict[str, int] = {}
        self.declarations: dict[str, Declaration] = {}
        self.last_line = 1

    def declare(self, kind: str, name: str, value: object, line: int) -> Declaration:
        if name in self.declarations:
            raise ParseError(f"name {name!r} is already declared", line)
        self.declarations[name] = Declaration(kind, name, value)
        self.last_line = line
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
            env.point_lines[name] = line_no
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
            try:
                value = Relation.from_pairs(source_set, target_set, pairs)
            except KeyError:
                # Word the refusal by the first pair, source before target,
                # that names an element outside its set.
                for a, b in pairs:
                    if a not in source_set:
                        raise ParseError(
                            f"{a!r} is not in set {match.group(2)!r}", line_no
                        ) from None
                    if b not in target_set:
                        raise ParseError(
                            f"{b!r} is not in set {match.group(3)!r}", line_no
                        ) from None
                raise
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
    """The span pointed by the ``point``s of its apex and feet, or None if
    one has none; points on sets the span does not use are ignored."""
    needed = (value.apex, value.left.codomain, value.right.codomain)
    by_value: dict[FiniteSet, str] = {}
    for set_name, base in env.points.items():
        carrier = env.sets[set_name]
        if carrier not in needed:
            continue
        if carrier in by_value and env.points[by_value[carrier]] != base:
            raise ParseError(
                f"sets {by_value[carrier]!r} and {set_name!r} are equal but carry "
                "different basepoints",
                env.point_lines[set_name],
            )
        by_value[carrier] = set_name
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
        raise ParseError(f"span is not pointed: {exc}", env.last_line) from None
    return PointedSpan(apex, left, right)
