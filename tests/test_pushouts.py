"""The construction routes: direct, epi-leg, amalgamation, decomposition."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import arbitrary_spans, malcev_spans, sized_sets
from diexact import mutants
from diexact.certificates import certify, is_pushout_square
from diexact.enumeration import (
    all_equivalences,
    exhaustive_malcev_spans,
    letters,
)
from diexact.errors import (
    NotEpiError,
    NotEquivalenceError,
    NotJointlyMonicError,
    NotMalcevError,
    NotMonoError,
)
from diexact.fsets import (
    Cospan,
    FiniteSet,
    SetFunction,
    Span,
    all_functions,
    canonical_comparison,
    canonical_pushout,
    compose,
    fset,
    identity,
    image_factorization,
    inverse,
    is_epi,
    is_iso,
    is_mono,
    kernel_pair,
    pullback,
    span,
)
from diexact.pushouts import (
    coequalizer_via_pushout,
    coproduct_via_pushout,
    malcev_pushout_decomposed,
    malcev_pushout_direct,
    mono_span_pushout,
    pushout_epi_leg,
    subobject_union,
)
from diexact.relations import (
    Relation,
    equivalence_classes,
    graph_of,
    span_to_relation,
    tabulate,
)


def rel(source, target, *pairs):
    return Relation.from_pairs(fset(*source), fset(*target), pairs)


def reference_amalgamation(s: Span) -> Cospan:
    """The mono amalgamation with its coproduct tags and class names built
    by hand, as it was first written; ``mono_span_pushout`` must agree."""
    x_set, y_set = s.feet
    picked: dict[str, str] = {}
    for x, y in zip(s.left.values, s.right.values):
        picked.setdefault(x, y)
    blocks: dict[str, list[str]] = {y: [f"r:{y}"] for y in y_set}
    loose: list[list[str]] = []
    for x in x_set:
        if x in picked:
            blocks[picked[x]].append(f"l:{x}")
        else:
            loose.append([f"l:{x}"])
    all_blocks = [sorted(block) for block in blocks.values()] + loose
    name_of: dict[str, str] = {}
    for block in all_blocks:
        least = min(block)
        for member in block:
            name_of[member] = least
    corner = FiniteSet(tuple(sorted({min(block) for block in all_blocks})))
    into_left = SetFunction(x_set, corner, tuple(name_of[f"l:{x}"] for x in x_set))
    into_right = SetFunction(y_set, corner, tuple(name_of[f"r:{y}"] for y in y_set))
    return Cospan(into_left, into_right)


@st.composite
def injective_spans(draw, max_size: int = 4) -> Span:
    n = draw(st.integers(0, max_size))
    a = draw(sized_sets("a", min_size=n, max_size=max_size))
    b = draw(sized_sets("b", min_size=n, max_size=max_size))
    apex = FiniteSet(tuple(f"c{i}" for i in range(n)))
    left = SetFunction(apex, a, draw(st.permutations(a.elements))[:n])
    right = SetFunction(apex, b, draw(st.permutations(b.elements))[:n])
    return span(left, right)


class TestDirectPushout:
    def test_empty_relation_gives_coproduct(self):
        result = malcev_pushout_direct(tabulate(rel("a", "b")))
        assert result.corner == fset("l:a", "r:b")
        assert is_mono(result.h) and is_mono(result.k)

    def test_matched_pairs(self):
        r = rel("ab", "xy", ("a", "x"), ("b", "y"))
        result = malcev_pushout_direct(tabulate(r))
        assert len(result.corner) == 2
        assert equivalence_classes(result.e) == [("l:a", "r:x"), ("l:b", "r:y")]
        recovered, _ = pullback(result.square.cospan)
        assert span_to_relation(recovered) == r

    def test_diagonal_span_gives_isos(self):
        a = fset("a1", "a2")
        result = malcev_pushout_direct(tabulate(Relation.diagonal(a)))
        assert is_iso(result.h) and is_iso(result.k)
        assert result.h == result.k

    def test_rejects_non_jointly_monic(self):
        apex = fset("c1", "c2")
        a, b = fset("a"), fset("b")
        s = Span(
            apex,
            SetFunction(apex, a, ("a", "a")),
            SetFunction(apex, b, ("b", "b")),
        )
        with pytest.raises(NotJointlyMonicError) as err:
            malcev_pushout_direct(s)
        assert err.value.first == "c1" and err.value.second == "c2"

    def test_rejects_non_difunctional_with_quadruple(self):
        r = rel("ab", "xy", ("a", "x"), ("a", "y"), ("b", "x"))
        with pytest.raises(NotMalcevError) as err:
            malcev_pushout_direct(tabulate(r))
        a, b, a2, b2 = err.value.quadruple
        assert r.holds(a, b) and r.holds(a, b2) and r.holds(a2, b)
        assert not r.holds(a2, b2)

    @given(malcev_spans(max_size=3))
    def test_e_recovered_as_kernel_pair_of_quotient(self, s):
        result = malcev_pushout_direct(s)
        assert span_to_relation(kernel_pair(result.quotient)) == result.e

    @given(malcev_spans(max_size=5))
    @settings(max_examples=40)
    def test_sampled_larger_spans_fully_certified(self, s):
        cert = certify(malcev_pushout_direct(s).square)
        assert cert.ok

    def test_negative_witness_square(self):
        # forced through the raw colimit, the three-corner relation gives a
        # pushout that is not a pullback: corner 1, pullback 4, apex 3
        r = rel("ab", "xy", ("a", "x"), ("a", "y"), ("b", "x"))
        raw = canonical_pushout(tabulate(r))
        assert len(raw.corner) == 1
        assert is_pushout_square(raw).ok
        recovered, _ = pullback(raw.cospan)
        assert len(recovered.apex) == 4 and len(raw.span.apex) == 3


class TestCoproductViaPushout:
    def test_both_empty(self):
        result = coproduct_via_pushout(fset(), fset())
        assert len(result.corner) == 0

    def test_singletons_disjoint(self):
        result = coproduct_via_pushout(fset("a"), fset("b"))
        assert len(result.corner) == 2
        meet, _ = pullback(result.square.cospan)
        assert len(meet.apex) == 0

    def test_sizes_add_and_injections_mono(self):
        result = coproduct_via_pushout(letters("a", 3), letters("b", 2))
        assert len(result.corner) == 5
        assert is_mono(result.h) and is_mono(result.k)


class TestCoequalizerViaPushout:
    def test_diagonal_gives_iso(self):
        a = fset("1", "2")
        result = coequalizer_via_pushout(Relation.diagonal(a))
        assert is_iso(result.h)

    def test_full_relation_collapses(self):
        a = fset("1", "2", "3")
        result = coequalizer_via_pushout(Relation.full(a, a))
        assert len(result.h.codomain) == 1
        assert len(kernel_pair(result.h).apex) == 9

    def test_two_classes_frozen(self):
        a = fset("1", "2", "3")
        e = rel(
            "123", "123",
            ("1", "1"), ("2", "2"), ("3", "3"), ("1", "2"), ("2", "1"),
        )
        result = coequalizer_via_pushout(e)
        assert len(result.h.codomain) == 2
        assert span_to_relation(kernel_pair(result.h)) == e

    def test_legs_coincide(self):
        for size in range(4):
            for _, e in all_equivalences(letters("a", size)):
                result = coequalizer_via_pushout(e)
                assert result.h == result.k

    def test_rejects_non_equivalence(self):
        with pytest.raises(NotEquivalenceError):
            coequalizer_via_pushout(rel("12", "12", ("1", "2")))


class TestMonoAmalgamation:
    def test_requires_monos(self):
        a = fset("a1", "a2")
        collapse = SetFunction(a, fset("x"), ("x", "x"))
        with pytest.raises(NotMonoError):
            mono_span_pushout(span(collapse, identity(a)))

    def test_matches_canonical_pushout_on_all_small_mono_spans(self):
        sizes = range(3)
        for ni in sizes:
            apex = FiniteSet(tuple(f"i{x}" for x in range(ni)))
            for na in range(ni, 3):
                a = FiniteSet(tuple(f"a{x}" for x in range(na)))
                for nb in range(ni, 3):
                    b = FiniteSet(tuple(f"b{x}" for x in range(nb)))
                    for left in all_functions(apex, a):
                        if not is_mono(left):
                            continue
                        for right in all_functions(apex, b):
                            if not is_mono(right):
                                continue
                            sq = mono_span_pushout(span(left, right))
                            assert is_pushout_square(sq).ok
                            assert is_mono(sq.cospan.left)
                            assert is_mono(sq.cospan.right)

    @given(injective_spans())
    def test_matches_hand_built_reference(self, s):
        assert mono_span_pushout(s).cospan == reference_amalgamation(s)

    @given(arbitrary_spans(max_size=3))
    def test_matches_hand_built_reference_without_mono_check(self, s):
        with mutants.enabled(mutants.SKIP_MONO):
            assert mono_span_pushout(s).cospan == reference_amalgamation(s)


class TestSubobjectUnion:
    def test_equal_subobjects(self):
        c = fset("a", "b", "c")
        m = SetFunction(fset("a", "b"), c, ("a", "b"))
        induced, sq = subobject_union(m, m)
        assert set(induced.values) == {"a", "b"}
        assert is_iso(sq.cospan.left) and is_iso(sq.cospan.right)

    def test_disjoint_subobjects(self):
        c = fset("a", "b", "c")
        m = SetFunction(fset("a"), c, ("a",))
        n = SetFunction(fset("b"), c, ("b",))
        induced, sq = subobject_union(m, n)
        assert len(sq.corner) == 2
        assert set(induced.values) == {"a", "b"}

    def test_overlapping_subobjects(self):
        c = fset("a", "b", "c")
        m = SetFunction(fset("a", "b"), c, ("a", "b"))
        n = SetFunction(fset("b", "c"), c, ("b", "c"))
        induced, sq = subobject_union(m, n)
        assert len(sq.corner) == 3
        assert set(induced.values) == {"a", "b", "c"}
        assert is_mono(induced)

    def test_rejects_non_mono(self):
        c = fset("a")
        bad = SetFunction(fset("x", "y"), c, ("a", "a"))
        with pytest.raises(NotMonoError):
            subobject_union(bad, identity(c))


class TestEpiLegPushout:
    def test_iso_leg(self):
        r = rel("ab", "xy", ("a", "y"), ("b", "x"))
        s = tabulate(r)
        result = pushout_epi_leg(s)
        assert is_iso(result.h)
        g_inverse = inverse(
            SetFunction(s.apex, s.right.codomain, s.right.values)
        )
        assert result.k == compose(result.h, compose(s.left, g_inverse))

    def test_backwards_graph_of_epi(self):
        f = SetFunction.from_mapping(
            fset("a1", "a2", "a3"), fset("b1", "b2"),
            {"a1": "b1", "a2": "b1", "a3": "b2"},
        )
        s = tabulate(graph_of(f))
        assert is_epi(s.right)
        result = pushout_epi_leg(s)
        assert len(result.corner) == len(f.codomain)
        assert is_iso(result.k)
        assert compose(result.k, f) == result.h

    def test_requires_epi_leg(self):
        r = rel("a", "xy", ("a", "x"))
        with pytest.raises(NotEpiError):
            pushout_epi_leg(tabulate(r))

    def test_equivalence_span_matches_coequalizer(self):
        a = fset("1", "2", "3")
        e = rel(
            "123", "123",
            ("1", "1"), ("2", "2"), ("3", "3"), ("1", "2"), ("2", "1"),
        )
        via_epi = pushout_epi_leg(tabulate(e))
        via_direct = coequalizer_via_pushout(e)
        comparison = canonical_comparison(
            via_direct.square, via_epi.square.cospan
        )
        assert is_iso(comparison)

    @given(malcev_spans(max_size=3))
    def test_agrees_with_direct_construction(self, s):
        if not is_epi(s.right):
            return
        direct = malcev_pushout_direct(s)
        epi = pushout_epi_leg(s)
        comparison = canonical_comparison(direct.square, epi.square.cospan)
        assert is_iso(comparison)

    @given(malcev_spans(max_size=3))
    def test_e_recovered_as_kernel_pair_of_quotient(self, s):
        epi = pushout_epi_leg(span(s.left, image_factorization(s.right)[0]))
        assert span_to_relation(kernel_pair(epi.quotient)) == epi.e


class TestDecomposition:
    def test_mono_leg_makes_first_factor_iso(self):
        r = rel("ab", "xyz", ("a", "x"), ("b", "y"))
        s = tabulate(r)
        assert is_mono(s.right)
        trace = malcev_pushout_decomposed(s)
        assert is_iso(trace.g1)

    def test_matched_pairs_pasted_corner(self):
        r = rel("ab", "xy", ("a", "x"), ("b", "y"))
        s = tabulate(r)
        trace = malcev_pushout_decomposed(s)
        assert len(trace.corner) == 2
        direct = malcev_pushout_direct(s)
        assert is_iso(canonical_comparison(direct.square, trace.pasted.cospan))

    def test_equivalence_span_corner_is_quotient(self):
        a = fset("1", "2", "3")
        e = rel(
            "123", "123",
            ("1", "1"), ("2", "2"), ("3", "3"), ("1", "2"), ("2", "1"),
        )
        trace = malcev_pushout_decomposed(tabulate(e))
        assert len(trace.corner) == 2

    def test_intermediate_squares_are_pushouts(self):
        r = rel("abc", "xy", ("a", "x"), ("b", "x"), ("c", "y"))
        trace = malcev_pushout_decomposed(tabulate(r))
        for sq in trace.squares:
            assert is_pushout_square(sq).ok
        assert is_pushout_square(trace.pasted).ok

    def test_exhaustive_agreement_small(self):
        for label, s in exhaustive_malcev_spans(2):
            direct = malcev_pushout_direct(s)
            trace = malcev_pushout_decomposed(s)
            assert is_iso(
                canonical_comparison(direct.square, trace.pasted.cospan)
            ), label

    @given(malcev_spans(max_size=4))
    @settings(max_examples=60)
    def test_sampled_agreement(self, s):
        direct = malcev_pushout_direct(s)
        trace = malcev_pushout_decomposed(s)
        assert is_iso(canonical_comparison(direct.square, trace.pasted.cospan))

    @given(malcev_spans(max_size=3))
    def test_pasted_squares_certify(self, s):
        trace = malcev_pushout_decomposed(s)
        assert certify(trace.pasted).ok


class TestResultInvariants:
    def test_legs_factor_through_quotient(self):
        r = rel("ab", "xy", ("a", "x"), ("b", "y"))
        result = malcev_pushout_direct(tabulate(r))
        assert result.quotient("l:a") == result.h("a")
        assert result.quotient("r:x") == result.k("x")

    def test_direct_equals_epi_leg_legs_relation(self):
        # contract shared by both routes: E is the quotient's kernel pair
        f = SetFunction.from_mapping(
            fset("a1", "a2"), fset("b1"), {"a1": "b1", "a2": "b1"}
        )
        s = tabulate(graph_of(f))
        result = pushout_epi_leg(s)
        assert span_to_relation(kernel_pair(result.quotient)) == result.e
