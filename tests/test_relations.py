"""Relation algebra: composition, converse, difunctionality, tabulation."""

import dataclasses
import gc
import itertools
import random
import sys
import weakref

import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from conftest import (
    arbitrary_spans,
    difunctional_relations_st,
    fixpoint_closure,
    functions,
    graph_of,
    malcev_spans,
    quotient_by_partition,
    relations,
    sized_sets,
)
from diexact.enumeration import (
    all_equivalences,
    all_relations,
    exhaustive_malcev_spans,
    letters,
    random_function,
    random_malcev_span,
)
from diexact.cli import main
from diexact.documents import parse_document
from diexact.errors import CompositionError, NotEquivalenceError, PreconditionError
from diexact.fsets import FiniteSet, SetFunction, Span, fset, is_iso
from diexact.pushouts import pushout_equivalence
from diexact.relations import (
    Relation,
    _bits,
    assemble_block,
    converse,
    difunctional_closure,
    difunctionality_witness,
    is_difunctional,
    is_equivalence,
    is_jointly_monic,
    is_malcev_span,
    is_reflexive,
    is_symmetric,
    is_transitive,
    leq,
    quotient_by_equivalence,
    rel_compose,
    span_to_relation,
    tabulate,
    union,
)


def reference_classes(e: Relation) -> list[tuple[str, ...]]:
    """The blocks of an equivalence relation, each sorted, in order of least
    member, read pair by pair: the reference partition for the row quotient
    of ``quotient_by_equivalence``."""
    if not is_equivalence(e):
        raise NotEquivalenceError(f"relation is not an equivalence: {e!r}")
    seen: set[str] = set()
    blocks = []
    for a in e.source:
        if a not in seen:
            block = tuple(b for b in e.target if e.holds(a, b))
            seen.update(block)
            blocks.append(block)
    return blocks


@st.composite
def near_equivalences(draw, max_size: int = 5) -> Relation:
    """An equivalence on up to ``max_size`` elements, from drawn block
    labels, with up to three drawn cells flipped."""
    carrier = draw(sized_sets("a", max_size=max_size))
    block = {x: draw(st.integers(0, 2)) for x in carrier}
    cells = {(x, y) for x in carrier for y in carrier if block[x] == block[y]}
    if len(carrier):
        point = st.sampled_from(carrier.elements)
        for flip in draw(st.lists(st.tuples(point, point), max_size=3)):
            cells ^= {flip}
    return Relation.from_pairs(carrier, carrier, cells)


def rel(source, target, *pairs):
    return Relation.from_pairs(fset(*source), fset(*target), pairs)


def reference_witness(r):
    """The quartic scan in (a, b, a2, b2) order: the first quadruple that
    ``difunctionality_witness`` must return."""
    for a in r.source:
        for b in r.target:
            if not r.holds(a, b):
                continue
            for a2 in r.source:
                if not r.holds(a2, b):
                    continue
                for b2 in r.target:
                    if r.holds(a, b2) and not r.holds(a2, b2):
                        return (a, b, a2, b2)
    return None


def pairwise_witness(r):
    """The |A|^2 row loop that the column-mask search replaced: for each
    row, the candidates are the rows it meets without containing, found by
    comparing it with every row."""
    rows = r.rows
    columns = converse(r).rows
    for i, row in enumerate(rows):
        candidates = 0
        for i2, other in enumerate(rows):
            if row & other and row & ~other:
                candidates |= 1 << i2
        if not candidates:
            continue
        for j in _bits(row):
            hit = columns[j] & candidates
            if hit:
                i2 = (hit & -hit).bit_length() - 1
                missing = row & ~rows[i2]
                j2 = (missing & -missing).bit_length() - 1
                a, b = r.source.elements, r.target.elements
                return (a[i], b[j], a[i2], b[j2])
    return None


def malcev_factorization_exists(s: Span) -> bool:
    """Equivalent criterion via the triple-pullback factorization: for every
    chain c1, c2, c3 with right(c1) = right(c2) and left(c2) = left(c3),
    some apex element pairs left(c1) with right(c3).

    Kept independent of the composite route ``R R° R <= R``; the two must
    agree on jointly monic spans (and the definition requires joint
    monicity first).
    """
    if not is_jointly_monic(s):
        return False
    images = {(s.left(c), s.right(c)) for c in s.apex}
    for c1, c2, c3 in itertools.product(s.apex, repeat=3):
        if s.right(c1) == s.right(c2) and s.left(c2) == s.left(c3):
            if (s.left(c1), s.right(c3)) not in images:
                return False
    return True


def rows_equal_or_disjoint(r):
    """Riguet's characterisation of difunctionality on the pair set."""
    rows = [frozenset(b for b in r.target if r.holds(a, b)) for a in r.source]
    return all(x == y or not (x & y) for x in rows for y in rows)


class TestRowsForm:
    def test_no_positional_constructor(self):
        with pytest.raises(TypeError):
            Relation(fset("a"), fset("x"), (1,))
        with pytest.raises(TypeError):
            Relation(fset("a"), fset("x"), ((True,),))

    def test_all_relations_in_cell_order(self):
        a, b = letters("a", 2), letters("b", 2)
        cells = list(itertools.product(a, b))
        expected = [
            Relation.from_pairs(a, b, [c for c, bit in zip(cells, bits) if bit])
            for bits in itertools.product((False, True), repeat=4)
        ]
        assert list(all_relations(a, b)) == expected

    def test_seeded_label_is_frozen(self):
        # seed 129 reads differently at density 0.25 or 0.35 and with the
        # columns of each row drawn in reverse order
        label, _ = random_malcev_span(random.Random(129), 4)
        assert label == "sampled |A|=4,|B|=4 R={(a1,b1), (a2,b4), (a3,b2), (a4,b2)}"


class TestCompose:
    def test_identity_neutral(self):
        r = rel("ab", "xy", ("a", "x"), ("b", "x"))
        assert rel_compose(r, Relation.diagonal(r.source)) == r
        assert rel_compose(Relation.diagonal(r.target), r) == r

    @given(functions(max_size=3))
    def test_graph_converse_graph_contains_diagonal(self, f):
        g = graph_of(f)
        composite = rel_compose(converse(g), g)
        assert leq(Relation.diagonal(f.domain), composite)

    @given(relations(max_size=3), relations("b", "c", max_size=3))
    def test_matches_pair_chasing_oracle(self, r, s):
        if r.target != s.source:
            with pytest.raises(CompositionError):
                rel_compose(s, r)
            return
        composite = rel_compose(s, r)
        related = set(r.pairs())
        related_s = set(s.pairs())
        for a in r.source:
            for c in s.target:
                expected = any(
                    (a, b) in related and (b, c) in related_s for b in r.target
                )
                assert composite.holds(a, c) == expected


class TestConverse:
    def test_diagonal_fixed(self):
        d = Relation.diagonal(fset("a", "b"))
        assert converse(d) == d

    def test_involution(self):
        r = rel("ab", "xy", ("a", "x"), ("a", "y"))
        assert converse(converse(r)) == r

    def test_converse_of_non_iso_graph_is_not_a_graph(self):
        f = SetFunction.from_mapping(fset("a", "b"), fset("x"), {"a": "x", "b": "x"})
        back = converse(graph_of(f))
        # a graph is total and single-valued row-wise; this one is not
        row_degrees = [row.bit_count() for row in back.rows]
        assert any(deg != 1 for deg in row_degrees)

    @given(relations(max_size=3), relations("b", "c", max_size=3))
    def test_antihomomorphism(self, r, s):
        if r.target != s.source:
            return
        assert converse(rel_compose(s, r)) == rel_compose(converse(r), converse(s))


class TestUnionOrder:
    def test_idempotent(self):
        r = rel("ab", "xy", ("a", "x"))
        assert union(r, r) == r

    @pytest.mark.parametrize("operation", [union, leq])
    @pytest.mark.parametrize("source, target", [("abc", "xy"), ("ab", "xyz")])
    def test_refuses_relations_that_differ_at_one_end(self, operation, source, target):
        r = rel("ab", "xy", ("a", "x"))
        with pytest.raises(CompositionError, match="same source and target"):
            operation(r, rel(source, target, ("a", "x")))

    @given(relations(max_size=3), relations(max_size=3))
    def test_upper_bound(self, r, s):
        if (r.source, r.target) != (s.source, s.target):
            return
        assert leq(r, union(r, s)) and leq(s, union(r, s))

    @given(
        relations(max_size=3),
        relations(max_size=3),
        relations("b", "c", max_size=3),
    )
    def test_composition_distributes_over_union(self, r, s, t):
        if (r.source, r.target) != (s.source, s.target) or r.target != t.source:
            return
        left = rel_compose(t, union(r, s))
        right = union(rel_compose(t, r), rel_compose(t, s))
        assert left == right

    @given(
        relations("z", "a", max_size=3),
        relations(max_size=3),
        relations(max_size=3),
    )
    def test_distributes_on_the_other_side(self, t, r, s):
        if (r.source, r.target) != (s.source, s.target) or t.target != r.source:
            return
        left = rel_compose(union(r, s), t)
        right = union(rel_compose(r, t), rel_compose(s, t))
        assert left == right


class TestGraph:
    def test_identity_graph_is_diagonal(self):
        a = fset("a", "b")
        assert graph_of(SetFunction(a, a, a.elements)) == Relation.diagonal(a)

    def test_constant_graph_is_full_column(self):
        f = SetFunction.from_mapping(fset("a", "b"), fset("x", "y"), {"a": "x", "b": "x"})
        g = graph_of(f)
        assert set(g.pairs()) == {("a", "x"), ("b", "x")}

    @given(functions(max_size=4))
    @settings(max_examples=200)
    def test_adjunction_inequalities(self, f):
        g = graph_of(f)
        assert leq(rel_compose(g, converse(g)), Relation.diagonal(f.codomain))
        assert leq(Relation.diagonal(f.domain), rel_compose(converse(g), g))


class TestSpanRelationDictionary:
    def test_empty_apex_gives_empty_relation(self):
        a, b = fset("a"), fset("b")
        empty = fset()
        s = Span(empty, SetFunction(empty, a, ()), SetFunction(empty, b, ()))
        assert span_to_relation(s) == Relation.from_pairs(a, b, ())

    @given(relations(max_size=3))
    def test_tabulation_round_trip(self, r):
        assert span_to_relation(tabulate(r)) == r

    @given(functions(max_size=3))
    def test_kernel_pair_span_is_converse_composite(self, f):
        from diexact.fsets import kernel_pair

        g = graph_of(f)
        assert span_to_relation(kernel_pair(f)) == rel_compose(converse(g), g)

    def test_tabulate_empty_and_diagonal(self):
        a = fset("a", "b")
        assert len(tabulate(Relation.from_pairs(a, a, ())).apex) == 0
        diag = tabulate(Relation.diagonal(a))
        assert is_iso(diag.left) and is_iso(diag.right)

    def test_tabulate_three_pairs(self):
        r = rel("ab", "xy", ("a", "x"), ("a", "y"), ("b", "x"))
        s = tabulate(r)
        assert len(s.apex) == 3
        assert {(s.left(p), s.right(p)) for p in s.apex} == set(r.pairs())

    def test_tabulate_refuses_pair_name_collision(self):
        # ("x", "y,z") and ("x,y", "z") are both named "(x,y,z)"
        r = Relation.from_pairs(
            fset("x", "x,y"), fset("z", "y,z"), [("x", "y,z"), ("x,y", "z")]
        )
        with pytest.raises(PreconditionError) as caught:
            tabulate(r)
        message = str(caught.value)
        assert "('x', 'y,z')" in message and "('x,y', 'z')" in message
        assert "'(x,y,z)'" in message

    @given(arbitrary_spans(max_size=3))
    def test_tabulation_of_jointly_monic_span_is_isomorphic(self, s):
        if not is_jointly_monic(s):
            return
        t = tabulate(span_to_relation(s))
        pairing = {c: f"({s.left(c)},{s.right(c)})" for c in s.apex}
        assert sorted(pairing.values()) == list(t.apex.elements)
        for c in s.apex:
            assert t.left(pairing[c]) == s.left(c)
            assert t.right(pairing[c]) == s.right(c)



def fresh_relation(s: Span) -> Relation:
    """The span's relation built anew from its leg tables."""
    return Relation._of_index_pairs(*s.feet, zip(s.left.table, s.right.table))


BLOCK_DOCUMENT = """\
set A = {a1, a2, a3, a4, a5}
set B = {b1, b2, b3, b4, b5, b6}
rel R : A -|> B = {(a1,b1), (a1,b2), (a2,b1), (a2,b2), (a3,b3), (a4,b4), (a4,b5), (a5,b4), (a5,b5)}
"""


class TestSpanRelationMemo:
    """``span_to_relation`` builds a span's relation once and keeps it on
    the span, outside the dataclass fields."""

    def check(self, s: Span) -> None:
        first = span_to_relation(s)
        assert first == fresh_relation(s)
        assert span_to_relation(s) is first

    def test_equals_a_fresh_build(self):
        spans = [s for _, s in exhaustive_malcev_spans(3)]
        assert len(spans) == 241
        rng = random.Random(24)
        spans += [random_malcev_span(rng, 5)[1] for _ in range(300)]
        for _ in range(300):
            apex, a, b = (letters(p, rng.randint(1, 5)) for p in "cab")
            spans.append(
                Span(apex, random_function(rng, apex, a), random_function(rng, apex, b))
            )
        assert sum(not is_jointly_monic(s) for s in spans) > 100
        for s in spans:
            self.check(s)

    def test_fields_equality_hash_and_repr_ignore_it(self):
        s = tabulate(rel("ab", "xy", ("a", "x"), ("a", "y"), ("b", "x")))
        before = (repr(s), hash(s))
        span_to_relation(s)
        assert [field.name for field in dataclasses.fields(Span)] == ["apex", "left", "right"]
        assert (repr(s), hash(s)) == before
        twin = dataclasses.replace(s)
        assert "_relation" in vars(s) and "_relation" not in vars(twin)
        assert twin == s and hash(twin) == hash(s) and repr(twin) == repr(s)

    def test_a_span_is_freed_by_refcounting(self):
        s = tabulate(rel("ab", "xy", ("a", "x"), ("b", "y")))
        span_to_relation(s)
        ref = weakref.ref(s)
        gc.disable()
        try:
            del s
            assert ref() is None
        finally:
            gc.enable()

    def test_pushout_builds_each_span_relation_once(self, monkeypatch, tmp_path, capsys):
        """``--method both`` asks for the relation of three spans, the input
        and the two stage spans of the decomposed route.  The input is the
        tabulation of the document's relation and keeps it, so only the two
        stage spans build theirs, each once."""
        path = tmp_path / "blocks.txt"
        path.write_text(BLOCK_DOCUMENT)
        built = []
        build = Relation._of_index_pairs

        def counted(source, target, pairs):
            built.append(build(source, target, pairs))
            return built[-1]

        monkeypatch.setattr(Relation, "_of_index_pairs", staticmethod(counted))
        asked = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is span_to_relation.__code__:
                asked.append(frame.f_locals["s"])

        sys.setprofile(profile)
        try:
            code = main(["pushout", "--method", "both", str(path)])
        finally:
            sys.setprofile(None)
        monkeypatch.undo()
        assert code == 0 and "AGREEMENT: true" in capsys.readouterr().out
        spans = list({id(s): s for s in asked}.values())
        assert len(spans) == 3 and len(built) == 2
        relation = parse_document(BLOCK_DOCUMENT).payload
        assert spans[0] == tabulate(relation) and span_to_relation(spans[0]) == relation
        assert built == [fresh_relation(s) for s in spans[1:]]


class TestDifunctionality:
    def test_matched_pairs_2x2(self):
        assert is_difunctional(rel("ab", "xy", ("a", "x"), ("b", "y")))

    def test_three_corner_counterexample(self):
        r = rel("ab", "xy", ("a", "x"), ("a", "y"), ("b", "x"))
        assert not is_difunctional(r)
        assert difunctionality_witness(r) == ("a", "x", "b", "y")

    @given(functions(max_size=3))
    def test_graphs_are_difunctional(self, f):
        assert is_difunctional(graph_of(f))

    @given(relations(max_size=3))
    def test_witness_agrees_with_matrix_route(self, r):
        witness = difunctionality_witness(r)
        assert is_difunctional(r) == (witness is None)
        if witness is not None:
            a, b, a2, b2 = witness
            assert r.holds(a, b) and r.holds(a, b2) and r.holds(a2, b)
            assert not r.holds(a2, b2)

    @given(relations(max_size=5), st.data())
    @settings(max_examples=300)
    def test_bitset_kernel_against_pair_set_oracles(self, r, data):
        assert difunctionality_witness(r) == reference_witness(r)
        assert is_difunctional(r) == rows_equal_or_disjoint(r)
        related = set(r.pairs())
        assert set(converse(r).pairs()) == {(b, a) for a, b in related}
        third = data.draw(sized_sets("c", max_size=5))
        cells = data.draw(
            st.lists(st.booleans(), min_size=len(r.target) * len(third),
                     max_size=len(r.target) * len(third))
        )
        s = Relation.from_pairs(
            r.target,
            third,
            (pair for pair, bit in zip(itertools.product(r.target, third), cells) if bit),
        )
        related_s = set(s.pairs())
        assert set(rel_compose(s, r).pairs()) == {
            (a, c) for a, b in related for b2, c in related_s if b == b2
        }
        assert Relation.from_pairs(r.source, r.target, r.pairs()) == r


class TestClosure:
    def test_fixed_point(self):
        r = rel("ab", "xy", ("a", "x"), ("b", "y"))
        assert difunctional_closure(r) == r

    def test_one_step_completion(self):
        r = rel("ab", "xy", ("a", "x"), ("a", "y"), ("b", "x"))
        assert difunctional_closure(r) == rel("ab", "xy", *itertools.product("ab", "xy"))

    @given(relations(max_size=4))
    def test_extensive_idempotent_difunctional(self, r):
        closed = difunctional_closure(r)
        assert leq(r, closed)
        assert is_difunctional(closed)
        assert difunctional_closure(closed) == closed

    @given(relations(max_size=3), relations(max_size=3))
    def test_monotone(self, r, mask):
        if (r.source, r.target) != (mask.source, mask.target):
            return
        smaller = Relation.from_pairs(
            r.source, r.target, set(r.pairs()) & set(mask.pairs())
        )
        assert leq(difunctional_closure(smaller), difunctional_closure(r))


class TestRowKernelsAgainstTheLoopsTheyReplaced:
    """The one-pass closure against the fixpoint, and the column-mask
    witness against the pairwise row loop."""

    def test_every_relation_up_to_4x3_and_3x4(self):
        checked = 0
        for m, n in itertools.product(range(5), range(5)):
            if (m, n) == (4, 4):
                continue
            for r in all_relations(letters("a", m), letters("b", n)):
                assert difunctional_closure(r) == fixpoint_closure(r), r
                assert difunctionality_witness(r) == pairwise_witness(r), r
                checked += 1
        assert checked == 9427

    def test_seeded_relations_up_to_9x9(self):
        """20000 relations of density about 1/4; every other one is closed
        first, and most of those get one cell flipped, so near-blocks meet
        the witness search as often as scattered pairs."""
        rng = random.Random(2026)
        for trial in range(20000):
            m, n = rng.randint(0, 9), rng.randint(0, 9)
            rows = tuple(rng.getrandbits(n) & rng.getrandbits(n) for _ in range(m))
            r = Relation._of_rows(letters("a", m), letters("b", n), rows)
            closed = difunctional_closure(r)
            assert closed == fixpoint_closure(r), r
            if trial % 2:
                rows = list(closed.rows)
                if m and n and rng.random() < 0.7:
                    rows[rng.randrange(m)] ^= 1 << rng.randrange(n)
                r = Relation._of_rows(r.source, r.target, tuple(rows))
            assert difunctionality_witness(r) == pairwise_witness(r), r


class TestEquivalence:
    def test_diagonal_and_full(self):
        a = fset("1", "2", "3")
        assert is_equivalence(Relation.diagonal(a))
        assert is_equivalence(Relation.from_pairs(a, a, itertools.product(a, a)))

    def test_missing_symmetry(self):
        r = rel("12", "12", ("1", "1"), ("2", "2"), ("1", "2"))
        assert not is_equivalence(r)

    def test_non_endo_rejected(self):
        with pytest.raises(PreconditionError):
            is_equivalence(rel("a", "xy", ("a", "x")))

    def test_quotient_requires_equivalence(self):
        r = rel("12", "12", ("1", "1"), ("2", "2"), ("1", "2"))
        with pytest.raises(NotEquivalenceError) as refused:
            quotient_by_equivalence(r.source, r)
        assert str(refused.value) == "relation is not an equivalence: {(1,1), (1,2), (2,2)}"

    def test_quotient_of_diagonal_is_iso(self):
        a = fset("p", "q", "r")
        assert is_iso(quotient_by_equivalence(a, Relation.diagonal(a)))

    def test_row_test_matches_the_three_laws_on_every_small_endo_relation(self):
        checked = 0
        for size in range(4):
            carrier = letters("a", size)
            for e in all_relations(carrier, carrier):
                laws = is_reflexive(e) and is_symmetric(e) and is_transitive(e)
                assert is_equivalence(e) == laws, e
                checked += 1
        assert checked == 531

    @given(near_equivalences())
    def test_row_test_matches_the_three_laws(self, e):
        laws = is_reflexive(e) and is_symmetric(e) and is_transitive(e)
        assert is_equivalence(e) == laws

    def test_row_quotient_matches_the_partition_quotient_up_to_size_5(self):
        checked = 0
        for size in range(6):
            carrier = letters("a", size)
            for label, e in all_equivalences(carrier):
                expected = quotient_by_partition(carrier, reference_classes(e))
                assert quotient_by_equivalence(carrier, e) == expected, label
                checked += 1
        assert checked == 76

    def test_row_quotient_matches_on_every_block_equivalence_of_t2(self):
        """The block equivalences of the spans T2 checks at ``--max-size 2
        --exhaustive``."""
        corpus = list(exhaustive_malcev_spans(2))
        assert len(corpus) == 27
        for label, s in corpus:
            e = pushout_equivalence(span_to_relation(s))
            expected = quotient_by_partition(e.source, reference_classes(e))
            assert quotient_by_equivalence(e.source, e) == expected, label

    def test_quotient_refuses_a_relation_that_is_not_endo_on_its_set(self):
        a = fset("a")
        not_endo = rel("a", "xy", ("a", "x"))
        for a_set, r in ((a, not_endo), (fset("x", "y"), Relation.diagonal(a))):
            with pytest.raises(PreconditionError) as refused:
                quotient_by_equivalence(a_set, r)
            assert type(refused.value) is PreconditionError
            assert str(refused.value) == f"relation is not an endo-relation on {a_set}"

    def test_equivalences_are_reflexive_difunctional_up_to_size_4(self):
        for size in range(5):
            for _, e in all_equivalences(letters("a", size)):
                assert is_reflexive(e) and is_symmetric(e) and is_difunctional(e)

    def test_reflexive_symmetric_difunctional_is_equivalence_up_to_size_4(self):
        # enumerate symmetric reflexive endo-relations via upper-triangle bits
        for size in range(5):
            carrier = FiniteSet(tuple(f"a{i}" for i in range(1, size + 1)))
            cells = list(itertools.combinations(carrier, 2))
            for bits in itertools.product((False, True), repeat=len(cells)):
                pairs = [(x, x) for x in carrier]
                for (x, y), bit in zip(cells, bits):
                    if bit:
                        pairs += [(x, y), (y, x)]
                e = Relation.from_pairs(carrier, carrier, pairs)
                if is_difunctional(e):
                    assert is_equivalence(e)


class TestMalcevSpan:
    @given(arbitrary_spans(max_size=3))
    def test_monic_leg_spans_are_malcev(self, s):
        from diexact.fsets import is_mono

        if is_mono(s.left) or is_mono(s.right):
            if is_jointly_monic(s):
                assert is_malcev_span(s)

    @given(functions(max_size=3), functions(max_size=3))
    def test_pullback_spans_are_malcev(self, h, k):
        from diexact.fsets import Cospan, pullback

        if h.codomain != k.codomain:
            return
        s = pullback(Cospan(h, k))
        assert is_malcev_span(s)

    def test_non_difunctional_tabulation_is_not_malcev(self):
        r = rel("ab", "xy", ("a", "x"), ("a", "y"), ("b", "x"))
        assert not is_malcev_span(tabulate(r))

    @given(arbitrary_spans(max_size=3))
    def test_agrees_with_factorization_criterion(self, s):
        assert is_malcev_span(s) == malcev_factorization_exists(s)

    def test_agreement_exhaustive_small(self):
        # every span with apex of size <= 2 over feet of size <= 2
        from diexact.fsets import all_functions

        apexes = [FiniteSet(tuple(f"c{i}" for i in range(n))) for n in range(3)]
        feet = [FiniteSet(tuple(f"a{i}" for i in range(n))) for n in range(3)]
        feet_b = [FiniteSet(tuple(f"b{i}" for i in range(n))) for n in range(3)]
        for apex in apexes:
            for a in feet:
                for b in feet_b:
                    if len(apex) and (not len(a) or not len(b)):
                        continue
                    for left in all_functions(apex, a):
                        for right in all_functions(apex, b):
                            s = Span(apex, left, right)
                            assert is_malcev_span(s) == malcev_factorization_exists(s)

    def test_agreement_on_all_tabulations_up_to_apex_4(self):
        # tabulations of every 2x2 relation have apexes up to size 4
        for r in all_relations(letters("a", 2), letters("b", 2)):
            s = tabulate(r)
            assert is_malcev_span(s) == malcev_factorization_exists(s)
            assert is_malcev_span(s) == is_difunctional(r)


class TestBlockRelation:
    def test_all_empty_blocks(self):
        a, b = fset("a"), fset("b")
        assembled = assemble_block(
            Relation.from_pairs(a, a, ()),
            Relation.from_pairs(b, a, ()),
            Relation.from_pairs(a, b, ()),
            Relation.from_pairs(b, b, ()),
        )
        assert set(assembled.pairs()) == set()

    def test_diagonal_blocks(self):
        a, b = fset("a"), fset("b")
        assembled = assemble_block(
            Relation.diagonal(a),
            Relation.from_pairs(b, a, ()),
            Relation.from_pairs(a, b, ()),
            Relation.diagonal(b),
        )
        assert assembled == Relation.diagonal(assembled.source)

    def test_shape_mismatch_rejected(self):
        a, b = fset("a"), fset("b")
        with pytest.raises(ValueError, match="block"):
            assemble_block(
                Relation.diagonal(a),
                Relation.from_pairs(a, b, ()),
                Relation.from_pairs(a, b, ()),
                Relation.diagonal(b),
            )

    @pytest.mark.parametrize("wrong_end", ["source", "target"])
    def test_block_wrong_at_one_end_rejected(self, wrong_end):
        """Block [0][1] must run from b to a; each candidate is right at one
        end only."""
        a, b = fset("a"), fset("b")
        top_right = Relation.from_pairs(a, a, ()) if wrong_end == "source" else Relation.from_pairs(b, b, ())
        with pytest.raises(ValueError, match=r"block \[0\]\[1\]"):
            assemble_block(
                Relation.diagonal(a), top_right, Relation.from_pairs(a, b, ()), Relation.diagonal(b)
            )

    def test_matched_pairs_block_equivalence(self):
        r = rel("ab", "xy", ("a", "x"), ("b", "y"))
        e = pushout_equivalence(r)
        assert is_equivalence(e)
        assert reference_classes(e) == [("l:a", "r:x"), ("l:b", "r:y")]

    def test_assembly_matches_blockwise_matrix_arithmetic(self):
        r = rel("ab", "xy", ("a", "x"), ("b", "x"))
        e = pushout_equivalence(r)
        top_left = union(Relation.diagonal(r.source), rel_compose(converse(r), r))
        bottom_right = union(Relation.diagonal(r.target), rel_compose(r, converse(r)))
        for a1 in r.source:
            for a2 in r.source:
                assert e.holds(f"l:{a1}", f"l:{a2}") == top_left.holds(a1, a2)
        for b1 in r.target:
            for b2 in r.target:
                assert e.holds(f"r:{b1}", f"r:{b2}") == bottom_right.holds(b1, b2)
        for a in r.source:
            for b in r.target:
                assert e.holds(f"l:{a}", f"r:{b}") == r.holds(a, b)
                assert e.holds(f"r:{b}", f"l:{a}") == r.holds(a, b)


class TestBlockEquivalenceStructure:
    @given(difunctional_relations_st(max_size=3))
    def test_reflexive_symmetric_transitive(self, r):
        e = pushout_equivalence(r)
        assert is_reflexive(e)
        assert is_symmetric(e)
        assert leq(rel_compose(e, e), e)

    @given(malcev_spans(max_size=3))
    def test_malcev_spans_are_jointly_monic_tabulations(self, s):
        assert is_jointly_monic(s)
        assert is_malcev_span(s)
