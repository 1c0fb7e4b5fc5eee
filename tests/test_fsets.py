"""Finite sets, functions and the diagram toolkit."""

import dataclasses
import itertools

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import arbitrary_spans, functions, graph_of, quotient_by_partition, sized_sets
from diexact.errors import CompositionError, PreconditionError
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
    coproduct,
    copair,
    first_disagreement,
    fset,
    identity,
    image_factorization,
    inverse,
    is_epi,
    is_iso,
    is_kernel_pair_trivial,
    is_mono,
    kernel_pair,
    mediating_map,
    pair_span,
    pullback,
    quotient_by_generated,
    span,
)
from diexact.names import pair_name
from diexact.certificates import is_pushout_square, pullback_by_universal_property
from diexact.pushouts import malcev_pushout_decomposed, malcev_pushout_direct, pushout_epi_leg
from diexact.relations import (
    Relation,
    difunctional_closure,
    quotient_by_equivalence,
    span_to_relation,
    tabulate,
)


def table(domain, codomain, mapping):
    return SetFunction.from_mapping(fset(*domain), fset(*codomain), mapping)


class TestFiniteSet:
    def test_canonical_order(self):
        assert FiniteSet(("b", "a", "c")).elements == ("a", "b", "c")
        assert fset("b", "a") == fset("a", "b")

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            FiniteSet(("a", "a"))

    def test_membership_and_index(self):
        s = fset("a", "b")
        assert "a" in s and "z" not in s
        assert s.index("b") == 1
        with pytest.raises(KeyError):
            s.index("z")


class TestSetFunction:
    def test_value_outside_codomain_names_the_first(self):
        with pytest.raises(ValueError, match="value 'y' is not in the codomain"):
            SetFunction(fset("a", "b", "c"), fset("x"), ("x", "y", "z"))

    def test_table_is_codomain_index_of_each_value(self):
        f = SetFunction(fset("a", "b", "c"), fset("x", "y", "z"), ("z", "x", "z"))
        assert f.table == (2, 0, 2)

    def test_equal_fields_equal_and_hash_equal(self):
        a, b = fset("a", "b"), fset("x", "y")
        f = SetFunction(a, b, ("y", "x"))
        g = SetFunction(a, b, ["y", "x"])
        assert f == g and hash(f) == hash(g)
        assert f != SetFunction(a, fset("x", "y", "z"), ("y", "x"))

    def test_table_is_the_only_stored_form_and_repr_unchanged(self):
        f = SetFunction(fset("a", "b"), fset("x", "y"), ("y", "x"))
        assert [field.name for field in dataclasses.fields(f)] == [
            "domain",
            "codomain",
            "table",
        ]
        assert f.values == ("y", "x")
        # Reading the names caches nothing beside the fields.
        assert set(vars(f)) == {"domain", "codomain", "table"}
        assert repr(f) == "{a |-> y, b |-> x}"

    def test_replace_is_refused(self):
        # The constructor takes value names, not the table field, so
        # ``dataclasses.replace`` cannot rebuild a function from its fields.
        f = SetFunction(fset("a", "b"), fset("x", "y"), ("y", "x"))
        with pytest.raises(TypeError):
            dataclasses.replace(f, codomain=fset("w", "x", "y"))
        with pytest.raises(TypeError):
            dataclasses.replace(f, table=(0, 0))


class TestCompose:
    def test_identity_neutral(self):
        f = table("ab", "c", {"a": "c", "b": "c"})
        assert compose(f, identity(f.domain)) == f
        assert compose(identity(f.codomain), f) == f

    def test_singleton_chase(self):
        f = table("a", "b", {"a": "b"})
        g = table("b", "c", {"b": "c"})
        assert compose(g, f)("a") == "c"

    @given(functions(max_size=4), functions(max_size=4))
    def test_matches_pointwise_chase(self, f, g):
        if f.codomain != g.domain:
            with pytest.raises(CompositionError):
                compose(g, f)
            return
        composite = compose(g, f)
        for x in f.domain:
            assert composite(x) == g(f(x))

    def test_associative_and_unital_exhaustive_small(self):
        # all composable triples over canonical sets of size <= 3
        sets = [FiniteSet(tuple(f"s{i}" for i in range(n))) for n in range(4)]
        for w, x, y, z in itertools.product(sets, repeat=4):
            for f in all_functions(w, x):
                assert compose(f, identity(w)) == f
                assert compose(identity(x), f) == f
                for g in all_functions(x, y):
                    gf = compose(g, f)
                    for h in all_functions(y, z):
                        assert compose(h, gf) == compose(compose(h, g), f)


class TestPredicates:
    def test_identity_is_iso(self):
        i = identity(fset("a", "b"))
        assert is_mono(i) and is_epi(i) and is_iso(i)

    def test_constant_epi_not_mono(self):
        f = table("ab", "c", {"a": "c", "b": "c"})
        assert is_epi(f) and not is_mono(f)

    def test_inclusion_mono_not_epi(self):
        f = table("a", "ab", {"a": "a"})
        assert is_mono(f) and not is_epi(f)

    def test_inverse_round_trip(self):
        f = table("ab", "xy", {"a": "y", "b": "x"})
        assert compose(inverse(f), f) == identity(f.domain)
        with pytest.raises(PreconditionError):
            inverse(table("ab", "c", {"a": "c", "b": "c"}))


class TestPullback:
    def test_two_constants(self):
        c = Cospan(table("a", "x", {"a": "x"}), table("b", "x", {"b": "x"}))
        s = pullback(c)
        assert s.apex == fset("(a,b)")
        assert first_disagreement(s, c) is None

    def test_disjoint_subsets(self):
        union = fset("a", "b")
        c = Cospan(table("a", "ab", {"a": "a"}), table("b", "ab", {"b": "b"}))
        s = pullback(c)
        assert len(s.apex) == 0

    def test_enumeration_oracle(self):
        # apex must be exactly the equal-image pairs
        h = table("abc", "xy", {"a": "x", "b": "x", "c": "y"})
        k = table("de", "xy", {"d": "x", "e": "y"})
        s = pullback(Cospan(h, k))
        expected = {
            (a, b) for a in h.domain for b in k.domain if h(a) == k(b)
        }
        got = {(s.left(p), s.right(p)) for p in s.apex}
        assert got == expected and len(s.apex) == len(expected)

    @given(functions(max_size=3), functions(max_size=3))
    def test_universal_property(self, h, k):
        if h.codomain != k.codomain:
            return
        c = Cospan(h, k)
        sq = CommutativeSquare(pullback(c), c)
        assert pullback_by_universal_property(sq, max_apex_size=2)

    def test_universal_property_exhaustive_small_cospans(self):
        # test apexes up to size 3, over every cospan with sets of size <= 2
        sides = [FiniteSet(tuple(f"a{i}" for i in range(n))) for n in range(3)]
        others = [FiniteSet(tuple(f"b{i}" for i in range(n))) for n in range(3)]
        corners = [FiniteSet(tuple(f"d{i}" for i in range(1, n + 1))) for n in range(3)]
        for a in sides:
            for b in others:
                for d in corners:
                    if (len(a) or len(b)) and not len(d):
                        continue
                    for h in all_functions(a, d):
                        for k in all_functions(b, d):
                            c = Cospan(h, k)
                            sq = CommutativeSquare(pullback(c), c)
                            assert pullback_by_universal_property(sq, max_apex_size=3)

    def test_pair_name_collision_is_a_precondition_error(self):
        # ("x", "y,z") and ("x,y", "z") are both named "(x,y,z)"
        point = fset("d")
        h = SetFunction(fset("x", "x,y"), point, ("d", "d"))
        k = SetFunction(fset("z", "y,z"), point, ("d", "d"))
        with pytest.raises(PreconditionError) as caught:
            pullback(Cospan(h, k))
        message = str(caught.value)
        assert "('x', 'y,z')" in message and "('x,y', 'z')" in message
        assert "'(x,y,z)'" in message

    def test_universal_property_fails_on_doctored_apex(self):
        h = table("ab", "x", {"a": "x", "b": "x"})
        sq = CommutativeSquare(pullback(Cospan(h, h)), Cospan(h, h))
        # forget one pair: the survivors no longer form a pullback
        smaller = FiniteSet(sq.span.apex.elements[:-1])
        doctored = CommutativeSquare(
            Span(
                smaller,
                SetFunction(smaller, h.domain, sq.span.left.values[:-1]),
                SetFunction(smaller, h.domain, sq.span.right.values[:-1]),
            ),
            sq.cospan,
        )
        assert not pullback_by_universal_property(doctored, max_apex_size=2)

    def test_universal_property_fails_on_apex_listing_a_pair_twice(self):
        h = table("ab", "x", {"a": "x", "b": "x"})
        sq = CommutativeSquare(pullback(Cospan(h, h)), Cospan(h, h))
        # list the first pair under a second name: it now factors twice
        bigger = FiniteSet(sq.span.apex.elements + ("again",))
        doctored = CommutativeSquare(
            Span(
                bigger,
                SetFunction(bigger, h.domain, sq.span.left.values + sq.span.left.values[:1]),
                SetFunction(bigger, h.domain, sq.span.right.values + sq.span.right.values[:1]),
            ),
            sq.cospan,
        )
        assert not pullback_by_universal_property(doctored, max_apex_size=2)
        assert not reference_pullback_by_universal_property(doctored, 2)


class TestKernelPair:
    def test_mono_gives_diagonal(self):
        f = table("ab", "xyz", {"a": "x", "b": "y"})
        kp = kernel_pair(f)
        assert all(kp.left(p) == kp.right(p) for p in kp.apex)
        assert len(kp.apex) == len(f.domain)

    def test_constant_gives_full_square(self):
        f = table("ab", "c", {"a": "c", "b": "c"})
        assert len(kernel_pair(f).apex) == 4

    def test_surjection_frozen_example(self):
        f = table("123", "xy", {"1": "x", "2": "x", "3": "y"})
        kp = kernel_pair(f)
        got = {(kp.left(p), kp.right(p)) for p in kp.apex}
        assert got == {("1", "1"), ("1", "2"), ("2", "1"), ("2", "2"), ("3", "3")}


class TestCoproduct:
    def test_empty_left(self):
        total, inl, inr = coproduct(fset(), fset("b1", "b2"))
        assert total == fset("r:b1", "r:b2")
        assert is_iso(inr) and len(inl.domain) == 0

    def test_tag_disambiguation(self):
        total, inl, inr = coproduct(fset("a"), fset("a"))
        assert total == fset("l:a", "r:a")
        assert inl("a") != inr("a")

    def test_cardinality_and_joint_image(self):
        a, b = fset("a1", "a2"), fset("b1", "b2", "b3")
        total, inl, inr = coproduct(a, b)
        assert len(total) == 5
        assert set(inl.values) | set(inr.values) == set(total.elements)
        assert set(inl.values).isdisjoint(inr.values)

    def test_injections_disjoint_pullback(self):
        a, b = fset("a1", "a2"), fset("a1", "b")
        total, inl, inr = coproduct(a, b)
        s = pullback(Cospan(inl, inr))
        assert len(s.apex) == 0

    def test_copair_restricts(self):
        h = table("a", "d", {"a": "d"})
        k = table("b", "d", {"b": "d"})
        q = copair(h, k)
        assert q("l:a") == "d" and q("r:b") == "d"


class TestQuotient:
    def test_diagonal_blocks_iso(self):
        a = fset("a", "b")
        q = quotient_by_partition(a, [("a",), ("b",)])
        assert is_iso(q)

    def test_single_block(self):
        q = quotient_by_partition(fset("1", "2", "3"), [("1", "2", "3")])
        assert q.codomain == fset("1")

    def test_two_blocks_frozen(self):
        q = quotient_by_partition(fset("1", "2", "3"), [("1", "2"), ("3",)])
        assert q.codomain == fset("1", "3")
        assert q("1") == "1" and q("2") == "1" and q("3") == "3"

    def test_rejects_non_partition(self):
        with pytest.raises(ValueError, match="partition"):
            quotient_by_partition(fset("1", "2"), [("1",)])

    def test_initial_among_coequalizing_maps(self):
        # any map constant on the blocks factors uniquely through the quotient
        a = fset("1", "2", "3")
        q = quotient_by_partition(a, [("1", "2"), ("3",)])
        x = fset("u", "v", "w")
        for candidate in all_functions(a, x):
            coequalizes = candidate("1") == candidate("2")
            factorizations = [
                m for m in all_functions(q.codomain, x) if compose(m, q) == candidate
            ]
            assert len(factorizations) == (1 if coequalizes else 0)


def reference_generated_classes(a, pairs):
    """The classes the name pairs generate on a: a union-find keyed on
    names, each class in the order of a."""
    parent = {x: x for x in a}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for u, v in pairs:
        parent[find(u)] = find(v)
    classes = {}
    for x in a:
        classes.setdefault(find(x), []).append(x)
    return list(classes.values())


def set_partitions(items):
    """Every partition of the list, as lists of blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in set_partitions(rest):
        yield [[first], *partition]
        for at in range(len(partition)):
            yield partition[:at] + [[first, *partition[at]]] + partition[at + 1 :]


# Names whose sorted order is not their order of writing, tagged as in a
# coproduct.
NAMES = ("r:b", "l:x10", "l:x2", "r:a", "l:*", "r:(a,b)")


class TestQuotientByGenerated:
    """Index pairs against the name-keyed reference and
    ``quotient_by_partition``."""

    def test_every_partition_of_small_sets(self):
        count = 0
        for n in range(6):
            a = FiniteSet(NAMES[:n])
            for blocks in set_partitions(list(range(n))):
                # Link each block's members to the next, last member first.
                pairs = [(j, i) for block in blocks for i, j in zip(block, block[1:])][::-1]
                named = [[a.elements[i] for i in block] for block in blocks]
                q = quotient_by_generated(a, pairs)
                assert q == quotient_by_partition(a, named)
                as_names = [(a.elements[i], a.elements[j]) for i, j in pairs]
                assert q == quotient_by_partition(a, reference_generated_classes(a, as_names))
                count += 1
        assert count == 1 + 1 + 2 + 5 + 15 + 52

    @settings(max_examples=300)
    @given(st.data())
    def test_random_pair_lists(self, data):
        n = data.draw(st.integers(0, len(NAMES)))
        index = st.integers(0, n - 1) if n else st.nothing()
        pairs = data.draw(st.lists(st.tuples(index, index), max_size=3 * n))
        a = FiniteSet(NAMES[:n])
        as_names = [(a.elements[i], a.elements[j]) for i, j in pairs]
        expected = quotient_by_partition(a, reference_generated_classes(a, as_names))
        assert quotient_by_generated(a, pairs) == expected


class TestImageFactorization:
    def test_mono_gives_iso_epi_part(self):
        f = table("ab", "xyz", {"a": "x", "b": "z"})
        e, m = image_factorization(f)
        assert is_iso(e) and is_mono(m) and compose(m, e) == f

    def test_epi_gives_iso_mono_part(self):
        f = table("abc", "xy", {"a": "x", "b": "y", "c": "x"})
        e, m = image_factorization(f)
        assert is_epi(e) and is_iso(m) and compose(m, e) == f

    def test_frozen_example(self):
        f = table("123", "xyz", {"1": "x", "2": "x", "3": "y"})
        e, m = image_factorization(f)
        assert e.codomain == fset("x", "y")
        assert m.values == ("x", "y")

    @given(functions(max_size=3))
    def test_unique_up_to_renaming_iso(self, f):
        e, m = image_factorization(f)
        assert is_epi(e) and is_mono(m) and compose(m, e) == f
        # against every epi-mono factorization through a canonical middle set
        mid = FiniteSet(tuple(f"w{i}" for i in range(len(e.codomain))))
        for e2 in all_functions(f.domain, mid):
            if not is_epi(e2):
                continue
            for m2 in all_functions(mid, f.codomain):
                if not is_mono(m2) or compose(m2, e2) != f:
                    continue
                matches = [
                    r
                    for r in all_functions(e.codomain, mid)
                    if is_iso(r) and compose(r, e) == e2 and compose(m2, r) == m
                ]
                assert len(matches) == 1


class TestCanonicalComparison:
    def test_identity_on_itself(self):
        a, b = fset("a1", "a2"), fset("b1")
        apex = fset("c")
        s = Span(
            apex,
            SetFunction(apex, a, ("a1",)),
            SetFunction(apex, b, ("b1",)),
        )
        canon = canonical_pushout(s)
        comparison = canonical_comparison(canon, canon.cospan)
        assert comparison == identity(canon.corner)

    def test_constant_to_point(self):
        a, b = fset("a1"), fset("b1")
        apex = fset()
        s = Span(apex, SetFunction(apex, a, ()), SetFunction(apex, b, ()))
        canon = canonical_pushout(s)
        point = fset("p")
        candidate = Cospan(
            SetFunction(a, point, ("p",)), SetFunction(b, point, ("p",))
        )
        comparison = canonical_comparison(canon, candidate)
        assert set(comparison.values) == {"p"}

    def test_renaming_bijection(self):
        a, b = fset("a1"), fset("b1")
        apex = fset()
        s = Span(apex, SetFunction(apex, a, ()), SetFunction(apex, b, ()))
        canon = canonical_pushout(s)
        renamed = fset("u", "v")
        rename = SetFunction(canon.corner, renamed, ("u", "v"))
        candidate = Cospan(
            compose(rename, canon.cospan.left), compose(rename, canon.cospan.right)
        )
        comparison = canonical_comparison(canon, candidate)
        assert is_iso(comparison) and comparison == rename

    def test_rejects_non_commuting_candidate(self):
        a, b = fset("a1", "a2"), fset("b1")
        apex = fset("c1", "c2")
        s = Span(
            apex,
            SetFunction(apex, a, ("a1", "a2")),
            SetFunction(apex, b, ("b1", "b1")),
        )
        canon = canonical_pushout(s)
        bad = Cospan(
            SetFunction(a, fset("p", "q"), ("p", "q")),
            SetFunction(b, fset("p", "q"), ("p",)),
        )
        with pytest.raises(PreconditionError, match="does not commute") as err:
            canonical_comparison(canon, bad)
        assert str(err.value) == (
            "candidate cospan does not commute with the span: "
            "apex element 'c2' has images 'q' and 'p'"
        )


class TestSquares:
    @pytest.mark.parametrize("wrong_leg", ["left", "right"])
    def test_span_legs_must_share_the_apex(self, wrong_leg):
        apex, other, a = fset("c"), fset("d"), fset("a")
        legs = {"left": SetFunction(apex, a, ("a",)), "right": SetFunction(apex, a, ("a",))}
        legs[wrong_leg] = SetFunction(other, a, ("a",))
        with pytest.raises(ValueError, match="span legs must share the apex"):
            Span(apex, legs["left"], legs["right"])

    def test_square_checks_commutativity(self):
        a = fset("a1", "a2")
        apex = fset("c")
        s = Span(
            apex, SetFunction(apex, a, ("a1",)), SetFunction(apex, a, ("a2",))
        )
        with pytest.raises(ValueError, match="does not commute") as err:
            CommutativeSquare(s, Cospan(identity(a), identity(a)))
        assert str(err.value) == (
            "square does not commute: apex element 'c' has images 'a1' and 'a2'"
        )

    def test_square_with_a_foot_off_its_leg_raises_composition_error(self):
        a, b, apex = fset("a1"), fset("b1"), fset("c")
        s = Span(apex, SetFunction(apex, a, ("a1",)), SetFunction(apex, a, ("a1",)))
        cospan_ = Cospan(identity(a), SetFunction(b, a, ("a1",)))
        with pytest.raises(
            CompositionError, match=r"cannot compose: codomain \{a1\} != domain \{b1\}"
        ):
            CommutativeSquare(s, cospan_)

    @given(st.data())
    def test_first_disagreement_is_the_first_differing_composite_entry(self, data):
        s = data.draw(arbitrary_spans(max_size=3))
        a, b = s.feet
        if data.draw(st.booleans()):
            cospan_ = canonical_pushout(s).cospan
        else:
            nonempty = 1 if len(a) + len(b) else 0
            corner = data.draw(sized_sets("d", min_size=nonempty, max_size=3))
            cospan_ = Cospan(
                data.draw(functions(domain=a, codomain=corner)),
                data.draw(functions(domain=b, codomain=corner)),
            )
        left, right = compose(cospan_.left, s.left), compose(cospan_.right, s.right)
        differing = (
            (c, u, v) for c, u, v in zip(s.apex, left.values, right.values) if u != v
        )
        assert first_disagreement(s, cospan_) == next(differing, None)

    @given(arbitrary_spans(max_size=3))
    def test_canonical_pushout_commutes_and_covers(self, s):
        sq = canonical_pushout(s)
        assert compose(sq.cospan.left, s.left) == compose(sq.cospan.right, s.right)
        covered = set(sq.cospan.left.values) | set(sq.cospan.right.values)
        assert covered == set(sq.corner.elements)

    def test_totality_on_empty_sets(self):
        empty = fset()
        s = Span(empty, SetFunction(empty, empty, ()), SetFunction(empty, empty, ()))
        sq = canonical_pushout(s)
        assert len(sq.corner) == 0
        total, inl, inr = coproduct(empty, empty)
        assert len(total) == 0
        e, m = image_factorization(SetFunction(empty, fset("x"), ()))
        assert len(e.codomain) == 0 and is_mono(m)


# ---------------------------------------------------------------------------
# The table paths against per-element references.  Element names such as
# a2 and a10 sort differently from their numbers, so a position read where
# a name was meant, or the other way round, changes the result.


@st.composite
def scrambled_sets(draw, prefix: str, min_size: int = 0, max_size: int = 4) -> FiniteSet:
    numbers = draw(
        st.lists(
            st.sampled_from((1, 2, 3, 10, 12, 21, 30)),
            min_size=min_size,
            max_size=max_size,
            unique=True,
        )
    )
    return FiniteSet(tuple(f"{prefix}{n}" for n in numbers))


def draw_map(data, domain: FiniteSet, codomain: FiniteSet) -> SetFunction:
    values = tuple(data.draw(st.sampled_from(codomain.elements)) for _ in domain)
    return SetFunction(domain, codomain, values)


def reference_pairs(h: SetFunction, k: SetFunction) -> set[tuple[str, str]]:
    return {(a, b) for a in h.domain for b in k.domain if h(a) == k(b)}


def reference_pullback_by_universal_property(square, max_apex_size):
    """Every commuting test span with apex up to the bound factors through
    the apex exactly once; elements are quantified by name."""
    f, g = square.span.left, square.span.right
    h, k = square.cospan.left, square.cospan.right
    for size in range(max_apex_size + 1):
        test = range(size)
        for u in itertools.product(h.domain, repeat=size):
            for v in itertools.product(k.domain, repeat=size):
                if any(h(u[t]) != k(v[t]) for t in test):
                    continue
                count = sum(
                    1
                    for m in itertools.product(square.span.apex, repeat=size)
                    if all(f(m[t]) == u[t] and g(m[t]) == v[t] for t in test)
                )
                if count != 1:
                    return False
    return True


def assert_table(fn: SetFunction) -> None:
    assert fn.table == tuple(fn.codomain.index(v) for v in fn.values)


def assert_projections(s: Span, expected: set[tuple[str, str]]) -> None:
    got = [(s.left(p), s.right(p)) for p in s.apex]
    assert set(got) == expected and len(got) == len(expected)
    assert all(p == pair_name(a, b) for p, (a, b) in zip(s.apex, got))
    assert_table(s.left)
    assert_table(s.right)


class TestTablePaths:
    @settings(max_examples=200)
    @given(st.data())
    def test_table_paths_against_per_element_references(self, data):
        d = data.draw(scrambled_sets("d", min_size=1))
        a = data.draw(scrambled_sets("a", min_size=1))
        b = data.draw(scrambled_sets("b", min_size=1))
        c = data.draw(scrambled_sets("c"))
        h, k = draw_map(data, a, d), draw_map(data, b, d)
        f, g = draw_map(data, c, a), draw_map(data, c, b)

        hf = compose(h, f)
        assert [hf(x) for x in c] == [h(f(x)) for x in c]
        assert_table(hf)

        pb = pullback(Cospan(h, k))
        sq = CommutativeSquare(pb, Cospan(h, k))
        assert_projections(pb, reference_pairs(h, k))
        assert_projections(kernel_pair(h), reference_pairs(h, h))
        injective = all(h(x) != h(y) for x, y in itertools.combinations(a, 2))
        assert is_kernel_pair_trivial(h) == injective

        assert set(span_to_relation(span(f, g)).pairs()) == {(f(x), g(x)) for x in c}
        assert set(graph_of(h).pairs()) == {(x, h(x)) for x in a}

        q = copair(h, k)
        assert [q(f"l:{x}") for x in a] == [h(x) for x in a]
        assert [q(f"r:{y}") for y in b] == [k(y) for y in b]
        assert_table(q)

        pushout = canonical_pushout(span(f, g))
        m = draw_map(data, pushout.corner, d)
        candidate = Cospan(compose(m, pushout.cospan.left), compose(m, pushout.cospan.right))
        mediating = mediating_map(pushout, candidate)
        for x in a:
            assert mediating(pushout.cospan.left(x)) == candidate.left(x)
        for y in b:
            assert mediating(pushout.cospan.right(y)) == candidate.right(y)
        assert mediating == m

        for square in (sq, pushout):
            assert pullback_by_universal_property(
                square, max_apex_size=2
            ) == reference_pullback_by_universal_property(square, 2)


# ---------------------------------------------------------------------------
# Functions built from a table they were handed, against the same function
# built from its value names.


def assert_valid_table(fn: SetFunction) -> None:
    """Every table entry is a codomain position, and fn equals the function
    its value names build."""
    assert len(fn.table) == len(fn.domain)
    assert all(type(j) is int and j in range(len(fn.codomain)) for j in fn.table)
    assert fn == SetFunction(fn.domain, fn.codomain, fn.values)


@st.composite
def scrambled_malcev_spans(draw) -> Span:
    """The tabulation of the difunctional closure of a drawn relation
    between scrambled sets."""
    a = draw(scrambled_sets("a"))
    b = draw(scrambled_sets("b"))
    cells = [c for c in itertools.product(a, b) if draw(st.booleans())]
    return tabulate(difunctional_closure(Relation.from_pairs(a, b, cells)))


class TestOfTable:
    @settings(max_examples=200)
    @given(st.data())
    def test_fsets_constructions(self, data):
        d = data.draw(scrambled_sets("d", min_size=1))
        a = data.draw(scrambled_sets("a", min_size=1))
        b = data.draw(scrambled_sets("b"))
        h, k = draw_map(data, a, d), draw_map(data, b, d)
        f = draw_map(data, data.draw(scrambled_sets("c")), a)
        total, inl, inr = coproduct(a, b)
        bijection = SetFunction(
            FiniteSet(tuple("e" + x for x in d)), d, data.draw(st.permutations(d.elements))
        )
        built = [identity(a), identity(d), compose(h, f), copair(h, k), inl, inr]
        built += [inverse(bijection), inverse(identity(d))]
        position = st.sampled_from(range(len(a)))
        cells = data.draw(st.sets(st.tuples(position, st.integers(0, 3))))
        pairs = [(i, j) for i, j in cells if j < len(b)]
        for s in (pair_span(a, b, pairs), pullback(Cospan(h, k)), kernel_pair(h)):
            built += [s.left, s.right]
        built += image_factorization(h) + image_factorization(k)
        links = data.draw(st.lists(st.tuples(position, position)))
        built.append(quotient_by_generated(a, links))
        built.append(quotient_by_equivalence(a, span_to_relation(kernel_pair(h))))
        for fn in built:
            assert_valid_table(fn)
        assert [inl(x) for x in a] == [f"l:{x}" for x in a]
        assert [inr(y) for y in b] == [f"r:{y}" for y in b]
        assert [inverse(bijection)(bijection(x)) for x in bijection.domain] == list(
            bijection.domain
        )

    @settings(max_examples=200)
    @given(scrambled_malcev_spans())
    def test_route_legs_and_oracle_evidence(self, s):
        trace = malcev_pushout_decomposed(s)
        squares = trace.squares + (trace.pasted, malcev_pushout_direct(s).square)
        if is_epi(s.right):
            squares += (pushout_epi_leg(s),)
        for square in squares:
            for fn in (square.cospan.left, square.cospan.right):
                assert_valid_table(fn)
            assert_valid_table(is_pushout_square(square).evidence)
