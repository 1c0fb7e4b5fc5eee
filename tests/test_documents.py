"""Input-format parsing, kind resolution, and render round trips."""

import re

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from diexact.cli import main
from diexact.documents import Document, _split_pairs, parse_document
from diexact.errors import ParseError
from diexact.fsets import FiniteSet, SetFunction, Span
from diexact.pointed import PointedSpan
from diexact.relations import Relation

SPAN_DOC = """\
set C = {c1, c2}
set A = {a1, a2}
set B = {b1}
fun f : C -> A = {c1 |-> a1, c2 |-> a2}
fun g : C -> B = {c1 |-> b1, c2 |-> b1}
span S = <f, g>
"""

POINTED_DOC = """\
set C = {c1}
point C = c1
set A = {*, a1}
point A = *
set B = {*}
point B = *
fun f : C -> A = {c1 |-> *}
fun g : C -> B = {c1 |-> *}
span S = <f, g>
"""


class TestParsing:
    def test_set_document(self):
        doc = parse_document("set A = {b, a}")
        assert doc.kind == "set"
        assert doc.payload == FiniteSet(("a", "b"))

    def test_empty_set(self):
        doc = parse_document("set A = {}")
        assert len(doc.payload) == 0

    def test_function_document(self):
        doc = parse_document(
            "set A = {a}\nset B = {x, y}\nfun f : A -> B = {a |-> y}"
        )
        assert doc.kind == "function"
        assert doc.payload("a") == "y"

    def test_relation_document(self):
        doc = parse_document(
            "set A = {a}\nset B = {x}\nrel R : A -|> B = {(a,x)}"
        )
        assert doc.kind == "relation"
        assert doc.payload.holds("a", "x")

    def test_equivalence_kind(self):
        doc = parse_document(
            "set A = {a, b}\nrel E : A -|> A = {(a,a), (b,b)}"
        )
        assert doc.kind == "equivalence"

    def test_non_equivalence_endo_relation_stays_relation(self):
        doc = parse_document("set A = {a, b}\nrel R : A -|> A = {(a,b)}")
        assert doc.kind == "relation"

    def test_span_document(self):
        doc = parse_document(SPAN_DOC)
        assert doc.kind == "span"
        assert isinstance(doc.payload, Span)

    def test_pointed_span_document(self):
        doc = parse_document(POINTED_DOC)
        assert doc.kind == "pointed-span"
        assert isinstance(doc.payload, PointedSpan)
        assert doc.payload.apex.basepoint == "c1"

    def test_comments_and_blank_lines(self):
        doc = parse_document("# heading\n\nset A = {a}  # trailing\n")
        assert doc.kind == "set"


class TestParseErrors:
    def test_unknown_declaration(self):
        with pytest.raises(ParseError) as err:
            parse_document("sets A = {a}")
        assert err.value.line == 1

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_document("set A = {a}\nset B = {b}\nfun f : A -> Z = {a |-> b}")
        assert err.value.line == 3

    def test_invalid_element_name(self):
        with pytest.raises(ParseError, match="invalid element"):
            parse_document("set A = {a:b}")

    def test_duplicate_name(self):
        with pytest.raises(ParseError, match="already declared"):
            parse_document("set A = {a}\nset A = {b}")

    def test_duplicate_element(self):
        with pytest.raises(ParseError, match="repeats"):
            parse_document("set A = {a, a}")

    def test_partial_function(self):
        with pytest.raises(ParseError, match="total"):
            parse_document("set A = {a, b}\nset B = {x}\nfun f : A -> B = {a |-> x}")

    @pytest.mark.parametrize(
        "pairs, refusal",
        [
            ("(a,x), (z,x)", "'z' is not in set 'A'"),
            ("(a,x), (a,y)", "'y' is not in set 'B'"),
            ("(a,y), (z,x)", "'y' is not in set 'B'"),
            ("(z,y), (a,x)", "'z' is not in set 'A'"),
        ],
    )
    def test_pair_outside_its_sets_is_refused_in_list_order_source_first(
        self, pairs, refusal
    ):
        text = "set A = {a}\nset B = {x}\nrel R : A -|> B = {" + pairs + "}"
        with pytest.raises(ParseError) as err:
            parse_document(text)
        assert str(err.value) == f"line 3: {refusal}"

    def test_bad_pair_syntax(self):
        with pytest.raises(ParseError, match="pair"):
            parse_document("set A = {a}\nset B = {x}\nrel R : A -|> B = {a,x}")

    def test_span_with_mismatched_domains(self):
        text = (
            "set C = {c}\nset D = {d}\nset A = {a}\n"
            "fun f : C -> A = {c |-> a}\nfun g : D -> A = {d |-> a}\n"
            "span S = <f, g>"
        )
        with pytest.raises(ParseError, match="different domains"):
            parse_document(text)

    def test_point_outside_set(self):
        with pytest.raises(ParseError, match="not an element"):
            parse_document("set A = {a}\npoint A = b")

    def test_unpointed_function_in_pointed_span(self):
        text = (
            "set C = {c1, c2}\npoint C = c1\n"
            "set A = {*, a1}\npoint A = *\n"
            "set B = {*}\npoint B = *\n"
            "fun f : C -> A = {c1 |-> a1, c2 |-> a1}\n"
            "fun g : C -> B = {c1 |-> *, c2 |-> *}\n"
            "span S = <f, g>"
        )
        with pytest.raises(ParseError, match="not pointed"):
            parse_document(text)

    def test_unpointed_span_names_the_span_line(self):
        text = (
            "# comment\n"
            "set C = {c1, c2}\npoint C = c1\n"
            "set A = {*, a1}\npoint A = *\n"
            "set B = {*}\npoint B = *\n"
            "fun f : C -> A = {c1 |-> a1, c2 |-> a1}\n"
            "fun g : C -> B = {c1 |-> *, c2 |-> *}\n"
            "span S = <f, g>"
        )
        with pytest.raises(ParseError, match="not pointed") as err:
            parse_document(text)
        assert err.value.line == 10

    def test_conflicting_basepoints_name_the_second_point_line(self):
        text = (
            "# comment\n"
            "set A = {a1, a2}\npoint A = a1\n"
            "set B = {a1, a2}\n\npoint B = a2\n"
            "fun f : A -> B = {a1 |-> a1, a2 |-> a2}\n"
            "span S = <f, f>"
        )
        with pytest.raises(ParseError, match="different basepoints") as err:
            parse_document(text)
        assert err.value.line == 6

    def test_conflicting_basepoints_on_sets_the_span_does_not_use(self, tmp_path, capsys):
        text = (
            "set X = {p, q}\npoint X = p\n"
            "set Y = {p, q}\npoint Y = q\n"
            "set C = {c1}\nset A = {a1}\nset B = {b1}\n"
            "fun f : C -> A = {c1 |-> a1}\n"
            "fun g : C -> B = {c1 |-> b1}\n"
            "span S = <f, g>"
        )
        doc = parse_document(text)
        assert doc.kind == "span"
        assert doc.points == (("X", "p"), ("Y", "q"))
        path = tmp_path / "doc.txt"
        path.write_text(text, encoding="utf-8")
        assert main(["pushout", str(path)]) == 0
        assert capsys.readouterr().out.startswith("input: span\n")

    def test_conflicting_basepoints_on_a_used_carrier(self, tmp_path, capsys):
        text = (
            "set X = {p, q}\npoint X = p\n"
            "set Y = {p, q}\npoint Y = q\n"
            "set C = {c1}\n"
            "fun f : C -> X = {c1 |-> p}\n"
            "fun g : C -> Y = {c1 |-> p}\n"
            "span S = <f, g>"
        )
        with pytest.raises(ParseError, match="different basepoints") as err:
            parse_document(text)
        assert err.value.line == 4
        path = tmp_path / "doc.txt"
        path.write_text(text, encoding="utf-8")
        assert main(["pushout", str(path)]) == 2
        assert capsys.readouterr().err == (
            "parse error: line 4: sets 'X' and 'Y' are equal but carry "
            "different basepoints\n"
        )

    def test_empty_document(self):
        with pytest.raises(ParseError, match="no declarations"):
            parse_document("# nothing here\n")


_REFERENCE_PAIR = re.compile(r"\(\s*([A-Za-z0-9_*']+)\s*,\s*([A-Za-z0-9_*']+)\s*\)$")


def reference_split_pairs(body: str, line: int) -> list[tuple[str, str]]:
    """The pair-list grammar as a character walk: split at the commas
    outside parentheses, refuse a ``)`` that closes nothing before looking
    at any item, skip blank items, and refuse the first item that is not
    one pair."""
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
        match = _REFERENCE_PAIR.match(chunk)
        if not match:
            raise ParseError(f"expected a pair like (a,b), got {chunk!r}", line)
        pairs.append((match.group(1), match.group(2)))
    return pairs


def _outcome(split, body: str):
    try:
        return split(body, 7)
    except ParseError as exc:
        return str(exc)


PAIR_LIST_TOKENS = (
    "(", ")", ",", " ", "\t", "\u3000", "\u00a0", "a", "b1", "*", "'", ":",
    "(a,b)", "( a , b )", "(x1,y')", "(a,b", "a,b)", "((", "))", ",,",
)


class TestPairList:
    """The pair list of a ``rel`` line: exact refusal texts, and agreement
    with the character walk ``reference_split_pairs``."""

    @pytest.mark.parametrize(
        "body, message",
        [
            ("(a,b)), (c,d)", "unbalanced parenthesis in pair list"),
            ("x, (a,b))", "unbalanced parenthesis in pair list"),
            (")(a,b)(", "unbalanced parenthesis in pair list"),
            ("((a,b))", "expected a pair like (a,b), got '((a,b))'"),
            ("(a,b)(c,d)", "expected a pair like (a,b), got '(a,b)(c,d)'"),
            ("a,x", "expected a pair like (a,b), got 'a'"),
            ("(a,b", "expected a pair like (a,b), got '(a,b'"),
            ("(a,b), (c,d, (e,f)", "expected a pair like (a,b), got '(c,d, (e,f)'"),
            ("(a,b),\u00a0x\u3000", "expected a pair like (a,b), got 'x'"),
            ("(a:b,c)", "expected a pair like (a,b), got '(a:b,c)'"),
        ],
    )
    def test_refusal_texts(self, body, message):
        for split in (_split_pairs, reference_split_pairs):
            assert _outcome(split, body) == f"line 7: {message}"

    def test_refusal_names_the_rel_line(self):
        text = "set A = {a}\nset B = {x}\n\nrel R : A -|> B = {(a,x)(a,x)}\n"
        with pytest.raises(ParseError) as err:
            parse_document(text)
        assert err.value.line == 4
        assert str(err.value) == "line 4: expected a pair like (a,b), got '(a,x)(a,x)'"

    @pytest.mark.parametrize(
        "body, pairs",
        [
            ("", []),
            (" , ,, ", []),
            (",(a,b),,( c ,d ),", [("a", "b"), ("c", "d")]),
            ("(a,b),", [("a", "b")]),
            ("\u3000(a,\u00a0b)\u2003,\u2009(c\t,d)", [("a", "b"), ("c", "d")]),
            ("(*,x'),(*,x')", [("*", "x'"), ("*", "x'")]),
        ],
    )
    def test_accepted_lists(self, body, pairs):
        assert _split_pairs(body, 1) == pairs
        assert reference_split_pairs(body, 1) == pairs

    @settings(max_examples=2000)
    @given(
        st.one_of(
            st.lists(st.sampled_from(PAIR_LIST_TOKENS), max_size=14).map("".join),
            st.text(alphabet="(),ab1 \t\u00a0\u3000:", max_size=24),
        )
    )
    def test_agrees_with_the_character_walk(self, body):
        assert _outcome(_split_pairs, body) == _outcome(reference_split_pairs, body)

    def test_long_line_and_its_last_pair(self):
        pairs = [(f"a{i}", f"b{j}") for i in range(200) for j in range(100)]
        body = ", ".join(f"({a},{b})" for a, b in pairs)
        assert _split_pairs(body, 3) == pairs
        with pytest.raises(ParseError) as err:
            _split_pairs(body[:-1], 3)
        assert str(err.value) == "line 3: expected a pair like (a,b), got '(a199,b99'"


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


class TestRendering:
    @pytest.mark.parametrize(
        "text",
        [
            "set A = {a, b}\n",
            "set A = {a}\nset B = {x, y}\nfun f : A -> B = {a |-> y}\n",
            "set A = {a, b}\nrel R : A -|> A = {(a,a), (a,b)}\n",
            SPAN_DOC,
            POINTED_DOC,
        ],
    )
    def test_round_trip_is_identity_on_canonical_documents(self, text):
        canonical = render_document(parse_document(text))
        assert render_document(parse_document(canonical)) == canonical

    def test_render_reorders_set_elements_canonically(self):
        doc = parse_document("set A = {b, a}")
        assert render_document(doc) == "set A = {a, b}\n"

    def test_payload_survives_round_trip(self):
        doc = parse_document(SPAN_DOC)
        again = parse_document(render_document(doc))
        assert again.kind == doc.kind
        assert again.payload == doc.payload
