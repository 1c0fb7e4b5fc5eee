"""The construction routes: direct, epi-leg, amalgamation, decomposition."""

import dataclasses
import itertools

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from conftest import arbitrary_spans, graph_of, malcev_spans, sized_sets
from diexact import fsets, mutants, pushouts, relations
from diexact.certificates import certify, is_pushout_square
from diexact.enumeration import (
    all_equivalences,
    exhaustive_malcev_spans,
    letters,
)
from diexact.errors import (
    InternalInvariantError,
    NotEpiError,
    NotEquivalenceError,
    NotJointlyMonicError,
    NotMalcevError,
    NotMonoError,
    PreconditionError,
)
from diexact.fsets import (
    CommutativeSquare,
    Cospan,
    FiniteSet,
    SetFunction,
    Span,
    all_functions,
    canonical_comparison,
    canonical_pushout,
    compose,
    copair,
    coproduct,
    fset,
    identity,
    inverse,
    is_epi,
    is_iso,
    is_mono,
    kernel_pair,
    mediating_map,
    pullback,
    require_mono,
    span,
)
from diexact.pushouts import (
    DecompositionTrace,
    MalcevPushoutResult,
    coequalizer_via_pushout,
    coproduct_via_pushout,
    malcev_pushout_decomposed,
    malcev_pushout_direct,
    mono_span_pushout,
    pushout_epi_leg,
)
from diexact.relations import (
    Relation,
    difunctional_closure,
    quotient_by_equivalence,
    span_to_relation,
    tabulate,
)
from test_relations import reference_classes


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


def subobject_union(m: SetFunction, n: SetFunction) -> tuple[SetFunction, CommutativeSquare]:
    """Union of two subobjects of a common set: intersect, amalgamate with
    ``mono_span_pushout``, and induce the inclusion of the amalgam with
    ``mediating_map``.  Returns the induced injection and the amalgamation
    square."""
    require_mono(m, "first subobject")
    require_mono(n, "second subobject")
    if m.codomain != n.codomain:
        raise ValueError("subobjects must live in the same set")
    intersection = pullback(Cospan(m, n))
    sq = mono_span_pushout(span(intersection.left, intersection.right))
    induced = mediating_map(sq, Cospan(m, n))
    assert is_mono(induced), "induced map of a mono amalgamation is not injective"
    return induced, sq


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
        assert reference_classes(result.e) == [("l:a", "r:x"), ("l:b", "r:y")]
        recovered = pullback(result.square.cospan)
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
        recovered = pullback(raw.cospan)
        assert len(recovered.apex) == 4 and len(raw.span.apex) == 3


class TestCoproductViaPushout:
    def test_both_empty(self):
        result = coproduct_via_pushout(fset(), fset())
        assert len(result.corner) == 0

    def test_singletons_disjoint(self):
        result = coproduct_via_pushout(fset("a"), fset("b"))
        assert len(result.corner) == 2
        meet = pullback(result.square.cospan)
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
        result = coequalizer_via_pushout(Relation.from_pairs(a, a, itertools.product(a, a)))
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

    def test_matches_hand_built_reference_on_every_small_span_without_mono_check(self):
        """Every span with apex and feet of size at most 2, injective or
        not: the first preimage of each left element still wins."""
        sets = [FiniteSet(tuple(f"{p}{i}" for i in range(n))) for p in "cab" for n in range(3)]
        apexes, lefts, rights = sets[:3], sets[3:6], sets[6:]
        checked = 0
        with mutants.enabled(mutants.SKIP_MONO):
            for apex, a, b in itertools.product(apexes, lefts, rights):
                for left in all_functions(apex, a):
                    for right in all_functions(apex, b):
                        s = span(left, right)
                        assert mono_span_pushout(s).cospan == reference_amalgamation(s), s
                        checked += 1
        assert checked == 9 + 9 + 25  # (sum of |foot|^|apex| over feet)^2 per apex size


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
        square = pushout_epi_leg(s)
        h, k = square.cospan.left, square.cospan.right
        assert is_iso(h)
        g_inverse = inverse(
            SetFunction(s.apex, s.right.codomain, s.right.values)
        )
        assert k == compose(h, compose(s.left, g_inverse))

    def test_backwards_graph_of_epi(self):
        f = SetFunction.from_mapping(
            fset("a1", "a2", "a3"), fset("b1", "b2"),
            {"a1": "b1", "a2": "b1", "a3": "b2"},
        )
        s = tabulate(graph_of(f))
        assert is_epi(s.right)
        square = pushout_epi_leg(s)
        assert len(square.corner) == len(f.codomain)
        assert is_iso(square.cospan.right)
        assert compose(square.cospan.right, f) == square.cospan.left

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
        comparison = canonical_comparison(via_direct.square, via_epi.cospan)
        assert is_iso(comparison)

    @given(malcev_spans(max_size=3))
    def test_agrees_with_direct_construction(self, s):
        if not is_epi(s.right):
            return
        direct = malcev_pushout_direct(s)
        epi = pushout_epi_leg(s)
        assert epi.span == s
        comparison = canonical_comparison(direct.square, epi.cospan)
        assert is_iso(comparison)

    def test_builds_no_coproduct(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("the epi-leg route built a coproduct")

        for module in (pushouts, fsets):
            monkeypatch.setattr(module, "coproduct", refuse)
            monkeypatch.setattr(module, "copair", refuse)
        epi_spans = [s for _, s in exhaustive_malcev_spans(2) if is_epi(s.right)]
        assert epi_spans
        for s in epi_spans:
            assert isinstance(pushout_epi_leg(s), CommutativeSquare)


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


def widened(square: CommutativeSquare) -> CommutativeSquare:
    """The same span into the corner plus one new element: still commuting,
    but with different legs."""
    corner = square.corner
    widen = SetFunction(corner, FiniteSet(corner.elements + ("z9",)), corner.elements)
    return CommutativeSquare(
        square.span,
        Cospan(compose(widen, square.cospan.left), compose(widen, square.cospan.right)),
    )


def renamed_corner(square: CommutativeSquare) -> CommutativeSquare:
    """The same square with every corner element renamed: the legs keep
    their index tables but land in another set."""
    corner = square.corner
    renamed = FiniteSet(tuple("z" + x for x in corner))
    rename = SetFunction(corner, renamed, renamed.elements)
    return CommutativeSquare(
        square.span,
        Cospan(compose(rename, square.cospan.left), compose(rename, square.cospan.right)),
    )


class TestDecompositionTraceChecks:
    @pytest.fixture
    def trace(self):
        r = rel("abc", "xyz", ("a", "x"), ("b", "x"), ("c", "y"))
        return malcev_pushout_decomposed(tabulate(r))

    def test_factors_are_legs_of_the_squares(self, trace):
        first, second, third = trace.squares
        assert trace.g1 == first.span.right
        assert compose(second.span.left, trace.g1) == trace.pasted.span.right
        assert compose(third.span.left, second.span.right) == first.cospan.right
        assert DecompositionTrace(trace.squares, trace.pasted) == trace

    def test_original_leg_check_fires(self, trace):
        other = malcev_pushout_direct(tabulate(rel("a", "x", ("a", "x")))).square
        with pytest.raises(
            ValueError, match="factorization does not recompose the original leg"
        ):
            DecompositionTrace(trace.squares, other)

    def test_induced_leg_check_fires(self, trace):
        first, second, third = trace.squares
        with pytest.raises(
            ValueError, match="second factorization does not recompose the induced leg"
        ):
            DecompositionTrace((widened(first), second, third), trace.pasted)

    def test_pasted_cospan_check_fires(self, trace):
        with pytest.raises(
            ValueError, match="outer rectangle does not equal the pasted cospan"
        ):
            DecompositionTrace(trace.squares, widened(trace.pasted))

    # The checks compare index tables; a map with the right table into a
    # renamed set must still fail them.

    def test_original_leg_into_a_renamed_foot_fails(self, trace):
        pasted = trace.pasted
        foot = pasted.span.right.codomain
        renamed = FiniteSet(tuple("z" + x for x in foot))
        right = SetFunction(pasted.span.apex, renamed, ["z" + x for x in pasted.span.right.values])
        k = SetFunction(renamed, pasted.corner, pasted.cospan.right.values)
        doctored = CommutativeSquare(
            Span(pasted.span.apex, pasted.span.left, right), Cospan(pasted.cospan.left, k)
        )
        assert right.table == pasted.span.right.table
        with pytest.raises(
            ValueError, match="factorization does not recompose the original leg"
        ):
            DecompositionTrace(trace.squares, doctored)

    def test_induced_leg_into_a_renamed_corner_fails(self, trace):
        first, second, third = trace.squares
        with pytest.raises(
            ValueError, match="second factorization does not recompose the induced leg"
        ):
            DecompositionTrace((renamed_corner(first), second, third), trace.pasted)

    def test_pasted_cospan_into_a_renamed_corner_fails(self, trace):
        with pytest.raises(
            ValueError, match="outer rectangle does not equal the pasted cospan"
        ):
            DecompositionTrace(trace.squares, renamed_corner(trace.pasted))


class TestResultInvariants:
    def test_legs_factor_through_quotient(self):
        r = rel("ab", "xy", ("a", "x"), ("b", "y"))
        result = malcev_pushout_direct(tabulate(r))
        assert result.quotient("l:a") == result.h("a")
        assert result.quotient("r:x") == result.k("x")


class TestEquivalenceStages:
    """Each route checks its relation is an equivalence once, before it
    quotients by it, and reports a failure as its own stage."""

    @pytest.fixture
    def s(self):
        return tabulate(rel("ab", "x", ("a", "x"), ("b", "x")))

    def test_each_route_checks_one_relation_once(self, s, monkeypatch):
        calls = []
        check = relations.is_equivalence

        def counted(e):
            calls.append(e)
            return check(e)

        monkeypatch.setattr(relations, "is_equivalence", counted)
        monkeypatch.setattr(pushouts, "is_equivalence", counted)
        direct = malcev_pushout_direct(s)
        assert calls == [direct.e]
        calls.clear()
        pushout_epi_leg(s)
        assert len(calls) == 1

    def test_direct_route_reports_a_doctored_block_relation(self, s, monkeypatch):
        total = coproduct(*s.feet)[0]
        monkeypatch.setattr(
            pushouts, "pushout_equivalence", lambda r: Relation.from_pairs(total, total, ())
        )
        with pytest.raises(InternalInvariantError) as caught:
            malcev_pushout_direct(s)
        assert caught.value.stage == "direct-pushout"
        assert str(caught.value) == (
            "[direct-pushout] block relation of a difunctional relation "
            "is not an equivalence"
        )

    def test_epi_leg_route_reports_a_doctored_closure(self, s, monkeypatch):
        monkeypatch.setattr(
            pushouts, "union", lambda r, _: Relation.from_pairs(r.source, r.target, ())
        )
        with pytest.raises(InternalInvariantError) as caught:
            pushout_epi_leg(s)
        assert caught.value.stage == "epi-leg-pushout"
        assert str(caught.value) == (
            "[epi-leg-pushout] 1 u R°R of a difunctional relation "
            "is not an equivalence"
        )


class TestMalcevPushoutResultChecks:
    """``MalcevPushoutResult`` stores ``e`` and the square, and its one
    check fires on a doctored input."""

    @pytest.fixture
    def result(self):
        return malcev_pushout_direct(tabulate(rel("ab", "xy", ("a", "x"), ("b", "y"))))

    def test_stores_e_and_square_only(self, result):
        assert [f.name for f in dataclasses.fields(result)] == ["e", "square"]
        assert (result.h, result.k) == (result.square.cospan.left, result.square.cospan.right)
        assert result.quotient == copair(result.h, result.k)
        total, _, _ = coproduct(*result.square.span.feet)
        assert result.quotient == quotient_by_equivalence(total, result.e)
        assert result.corner == result.square.corner

    def test_e_not_on_the_tagged_coproduct(self, result):
        with pytest.raises(
            ValueError, match="e must be an endo-relation on the tagged coproduct"
        ):
            MalcevPushoutResult(Relation.diagonal(result.h.domain), result.square)

    @pytest.mark.parametrize("wrong_end", ["source", "target"])
    def test_e_on_the_tagged_coproduct_at_one_end_only(self, result, wrong_end):
        total, other = result.e.source, result.h.domain
        ends = (other, total) if wrong_end == "source" else (total, other)
        with pytest.raises(
            ValueError, match="e must be an endo-relation on the tagged coproduct"
        ):
            MalcevPushoutResult(Relation.from_pairs(*ends, ()), result.square)


# Names that look like generated ones: coproduct tags, pair names and their
# punctuation, and the empty string.
LOOKALIKE_NAMES = (
    "", "a", "b", "l:a", "r:a", "l:", "(", ")", ",", "a,b", "(a,b)", "r:(a,b)",
)
element_names = st.one_of(
    st.sampled_from(LOOKALIKE_NAMES), st.text(alphabet="ablr:(),", max_size=5)
)


@st.composite
def spans_with_arbitrary_names(draw) -> Span:
    """A jointly monic span whose apex and feet have arbitrary element
    names, tabulating a relation that is difunctional about half the time."""
    a, b = (
        FiniteSet(tuple(draw(st.lists(element_names, max_size=3, unique=True))))
        for _ in range(2)
    )
    r = Relation.from_pairs(
        a, b, [cell for cell in itertools.product(a, b) if draw(st.booleans())]
    )
    if draw(st.booleans()):
        r = difunctional_closure(r)
    pairs = list(r.pairs())
    apex_names = st.lists(
        element_names, min_size=len(pairs), max_size=len(pairs), unique=True
    )
    apex = FiniteSet(tuple(draw(apex_names)))
    left = SetFunction(apex, a, tuple(x for x, _ in pairs))
    right = SetFunction(apex, b, tuple(y for _, y in pairs))
    return Span(apex, left, right)


def pair_name_clash() -> Span:
    """A difunctional span whose fiber product has two pairs named
    ``(x,y,z)``: the routes build its square, and ``certify`` refuses it."""
    a, b, apex = fset("x,y", "x"), fset("z", "y,z"), fset("c1", "c2")
    return Span(
        apex, SetFunction(apex, a, ("x,y", "x")), SetFunction(apex, b, ("z", "y,z"))
    )


class TestNameSafety:
    """Element names that look like generated ones never crash a route or
    slip an uncertified square through: each route refuses the span with a
    ``PreconditionError``, or returns a square that ``certify`` accepts or
    refuses with the ``PreconditionError`` of a pair-name clash."""

    ROUTES = {
        "direct": lambda s: malcev_pushout_direct(s).square,
        "decomposed": lambda s: malcev_pushout_decomposed(s).pasted,
        "epi-leg": pushout_epi_leg,
    }

    @given(spans_with_arbitrary_names())
    @example(pair_name_clash())
    @settings(max_examples=200)
    def test_each_route_refuses_or_certifies(self, s):
        for name, route in self.ROUTES.items():
            if name == "epi-leg" and not is_epi(s.right):
                continue
            try:
                square = route(s)
            except PreconditionError:
                continue
            try:
                cert = certify(square)
            except PreconditionError as refused:
                assert "both get the element name" in str(refused), name
                continue
            assert cert.ok, name

    def test_certify_names_a_pair_name_clash(self):
        square = malcev_pushout_direct(pair_name_clash()).square
        with pytest.raises(PreconditionError, match=r"both get the element name '\(x,y,z\)'"):
            certify(square)
