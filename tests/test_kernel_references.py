"""The per-pair kernels against the loops they replaced.

Each kernel below decides the common, passing case with one tight loop or
one builtin, and walks its input again only to word a refusal.  The loops
it replaced are kept here as references: a union-find that makes one
``find()`` call per link endpoint, a per-pair clash dict of named pairs, a
per-apex joint-monicity dict, a pullback oracle that builds the fiber
pairs before it looks at the apex, one that builds the canonical pullback
span to word a refusal, a ``finditer`` pair-list scan that
checks each gap as it meets it, a ``from_pairs`` that calls
``FiniteSet.index`` per name, a ``tabulate`` over the nested ``pairs()``
generator, a quotient by equivalence, an image factorization and a
mediating map that build their functions from value names, and an epi-leg
route that checks its induced leg by gathering the landing classes of
every apex element.  Beside them: ``pair_name`` once per pair against the
one ``pair_names`` comprehension, an image factorization that builds a new
image and ranks every map, onto or not, and a ``SetFunction`` repr over the
derived value names.  Each kernel must return exactly what its reference
returns, refusals and their wording included.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import re
from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from diexact.certificates import (
    Verdict,
    _base_change_is_pushout,
    _fibers,
    _pullback_verdict,
    _tables,
    is_pullback_square,
    is_pushout_square,
)
from diexact.documents import _PAIR, _REL, _SEPARATORS, _pair_list_error, _split_pairs
from diexact.enumeration import (
    all_relations,
    exhaustive_malcev_spans,
    letters,
    sample_commuting_squares,
)
from diexact.errors import (
    InternalInvariantError,
    NotEquivalenceError,
    ParseError,
    PreconditionError,
)
from diexact.fsets import (
    CommutativeSquare,
    Cospan,
    FiniteSet,
    SetFunction,
    Span,
    all_functions,
    canonical_pushout,
    compose,
    coproduct,
    disagreement_text,
    first_disagreement,
    image_factorization,
    is_epi,
    mediating_map,
    pair_span,
    pullback,
    quotient_by_generated,
    require_epi,
)
from diexact.names import LEFT, RIGHT, pair_name, pair_names, tagged
from diexact import pushouts
from diexact.pushouts import _epi_leg_square, malcev_pushout_direct, pushout_equivalence
from diexact.relations import (
    Relation,
    converse,
    difunctional_closure,
    is_difunctional,
    is_equivalence,
    joint_monicity_witness,
    quotient_by_equivalence,
    span_to_relation,
    tabulate,
    union,
)
import test_documents
from test_cli import FUZZ_SEEDS, _fuzzed
from test_documents import PAIR_LIST_TOKENS
from test_fsets import set_partitions
from test_pushouts import pair_name_clash


def call_per_find_quotient(a: FiniteSet, pairs) -> SetFunction:
    """``quotient_by_generated`` with one ``find()`` call per link endpoint
    and one more per position to name it."""
    parent = list(range(len(a)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    for i, j in pairs:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    names = tuple([a.elements[find(i)] for i in range(len(a))])
    return SetFunction(a, FiniteSet(tuple(set(names))), names)


def reference_pushout_verdict(square: CommutativeSquare) -> Verdict:
    """``is_pushout_square`` with a ``find()`` call per link endpoint and
    per node, each class named at the node where it is first met."""
    f_t, g_t = square.span.left.table, square.span.right.table
    h_t, k_t = square.cospan.left.table, square.cospan.right.table
    parent = list(range(len(h_t) + len(k_t)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    for i, j in zip(f_t, g_t):
        parent[find(i)] = find(len(h_t) + j)
    names = [tagged(LEFT, a) for a in square.cospan.left.domain]
    names += [tagged(RIGHT, b) for b in square.cospan.right.domain]
    corner = square.corner.elements
    least: dict[int, int] = {}
    seen: dict[int, str] = {}
    for node, d in enumerate(h_t + k_t):
        if least.setdefault(find(node), node) != node:
            continue
        if d in seen:
            return Verdict(
                False,
                f"corner merges the distinct pushout classes {seen[d]!r} "
                f"and {names[node]!r} at {corner[d]!r}",
                (seen[d], names[node], corner[d]),
            )
        seen[d] = names[node]
    unreached = [x for d, x in enumerate(corner) if d not in seen]
    if unreached:
        return Verdict(
            False,
            f"corner element {unreached[0]!r} is not reached from the span",
            unreached[0],
        )
    classes = FiniteSet(tuple(seen.values()))
    comparison = SetFunction(classes, square.corner, tuple(corner[d] for d in seen))
    return Verdict(True, "comparison with the canonical pushout is a bijection", comparison)


def reference_base_change(fibers, x: tuple[int, ...]) -> bool:
    """``_base_change_is_pushout`` with a ``find()`` call per link endpoint
    and per node."""
    a_start, b_start, over = [], [], []
    for t, d in enumerate(x):
        a_start.append(len(over))
        over += [t] * fibers[d][0]
    for t, d in enumerate(x):
        b_start.append(len(over))
        over += [t] * fibers[d][1]
    parent = list(range(len(over)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    for t, d in enumerate(x):
        i0, j0 = a_start[t], b_start[t]
        for i, j in fibers[d][2]:
            parent[find(i0 + i)] = find(j0 + j)
    base: dict[int, int] = {}
    for i, t in enumerate(over):
        if base.setdefault(find(i), t) != t:
            return False
    return sorted(base.values()) == list(range(len(x)))


def reference_pair_set(pairs):
    """The set of the pairs' names, and the pair behind each of its elements
    in carrier order, with one clash-dict step per pair: what ``pair_span``
    names and projects."""
    by_name: dict[str, tuple[str, str]] = {}
    for pair in pairs:
        name = pair_name(*pair)
        if name in by_name:
            raise PreconditionError(
                f"pairs {by_name[name]!r} and {pair!r} both get the element name {name!r}"
            )
        by_name[name] = pair
    carrier = FiniteSet(tuple(by_name))
    return carrier, tuple(by_name[name] for name in carrier)


def reference_joint_monicity_witness(s: Span):
    """``joint_monicity_witness`` with one dict step per apex element."""
    seen: dict[tuple[str, str], str] = {}
    for c, image in zip(s.apex, zip(s.left.values, s.right.values)):
        if image in seen:
            return seen[image], c, image
        seen[image] = c
    return None


def reference_pullback_verdict(square: CommutativeSquare) -> Verdict:
    """``is_pullback_square`` that builds the fiber pairs first, in the
    canonical pullback's order, and then names every apex pair against
    them."""
    h, k = square.cospan.left, square.cospan.right
    pairs, _ = reference_pair_set((a, b) for a in h.domain for b in k.domain if h(a) == k(b))
    f, g = square.span.left, square.span.right
    names = tuple([pair_name(a, b) for a, b in zip(f.values, g.values)])
    seen: dict[str, str] = {}
    for c, name in zip(square.span.apex, names):
        if name in seen:
            return Verdict(
                False,
                f"apex elements {seen[name]!r} and {c!r} both tabulate {name}",
                (seen[name], c, name),
            )
        seen[name] = c
    missing = [p for p in pairs if p not in seen]
    if missing:
        return Verdict(
            False,
            f"pair {missing[0]} has equal images under the cospan but no apex element",
            missing[0],
        )
    pairing = SetFunction(square.span.apex, pairs, names)
    return Verdict(True, "apex tabulates the cospan's fiber product", pairing)


def outcome(function, *args):
    """What a call returns, or the type and text of the error it raises."""
    try:
        return function(*args)
    except PreconditionError as exc:
        return type(exc), str(exc)


SAMPLED_SQUARES = sample_commuting_squares(random.Random(0), 600, 3)


def with_apex(square: CommutativeSquare, pairs: list[tuple[int, int]]) -> CommutativeSquare:
    """The square's cospan under the span whose apex ``e00, e01, ...`` picks
    these (A position, B position) pairs; it commutes when every pair lies
    in the fiber product."""
    a, b = square.span.feet
    apex = FiniteSet(tuple(f"e{n:02d}" for n in range(len(pairs))))
    left = SetFunction(apex, a, tuple([a.elements[i] for i, _ in pairs]))
    right = SetFunction(apex, b, tuple([b.elements[j] for _, j in pairs]))
    return CommutativeSquare(Span(apex, left, right), square.cospan)


def fiber_index_pairs(square: CommutativeSquare) -> list[tuple[int, int]]:
    h_t, k_t = square.cospan.left.table, square.cospan.right.table
    return [(i, j) for i, d in enumerate(h_t) for j, e in enumerate(k_t) if d == e]


class TestQuotientAgainstCallPerFind:
    def test_every_partition_of_sizes_up_to_five(self):
        count = 0
        for n in range(6):
            a = letters("x", n)
            for blocks in set_partitions(list(range(n))):
                chains = [(i, j) for block in blocks for i, j in zip(block, block[1:])]
                stars = [(block[-1], i) for block in blocks for i in block]
                for pairs in (chains, chains[::-1], stars, stars[::-1]):
                    assert quotient_by_generated(a, pairs) == call_per_find_quotient(a, pairs)
                count += 1
        assert count == 1 + 1 + 2 + 5 + 15 + 52

    def test_canonical_pushouts_of_every_span_up_to_three(self):
        count = 0
        for label, s in exhaustive_malcev_spans(3):
            total, inl, inr = coproduct(*s.feet)
            left, right = inl.table, inr.table
            links = [(left[i], right[j]) for i, j in zip(s.left.table, s.right.table)]
            assert quotient_by_generated(total, links) == call_per_find_quotient(
                total, links
            ), label
            count += 1
        assert count == 241

    def test_seeded_link_lists_up_to_200_nodes(self):
        rng = random.Random(22)
        for _ in range(300):
            n = rng.randint(1, 200)
            a = FiniteSet(tuple(f"v{i:03d}" for i in range(n)))
            pairs = [
                (rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))
            ]
            assert quotient_by_generated(a, pairs) == call_per_find_quotient(a, pairs)


class TestPushoutKernelsAgainstCallPerFind:
    def test_pushout_oracle_on_sampled_squares(self):
        verdicts = {True: 0, False: 0}
        for square in SAMPLED_SQUARES:
            verdict = is_pushout_square(square)
            assert verdict == reference_pushout_verdict(square), square
            verdicts[verdict.ok] += 1
        assert verdicts[True] and verdicts[False]

    def test_every_base_change_up_to_three(self):
        verdicts = {True: 0, False: 0}
        for square in SAMPLED_SQUARES:
            fibers = _fibers(square)
            corner = range(len(square.corner))
            for size in range(4):
                for x in itertools.product(corner, repeat=size):
                    verdict = _base_change_is_pushout(fibers, x)
                    assert verdict == reference_base_change(fibers, x), (square, x)
                    verdicts[verdict] += 1
        assert verdicts[True] and verdicts[False]


def pair_span_outcome(pairs):
    """``pair_span`` on named pairs between the sets of their own names, as
    the reference's carrier and parts, or its refusal."""
    a = FiniteSet(tuple({x: None for x, _ in pairs}))
    b = FiniteSet(tuple({y: None for _, y in pairs}))
    index_pairs = [(a.index(x), b.index(y)) for x, y in pairs]
    try:
        s = pair_span(a, b, index_pairs)
    except PreconditionError as exc:
        return type(exc), str(exc)
    assert s.left.codomain is a and s.right.codomain is b
    return s.apex, tuple(zip(s.left.values, s.right.values))


class TestPairSetAgainstTheClashDict:
    """``pair_span`` against the clash dict of named pairs: the same apex,
    the same pair behind each apex element, the same refusals."""

    def test_carrier_and_parts(self):
        rng = random.Random(5)
        for _ in range(200):
            names = [f"{rng.choice('xyz')}{rng.randint(1, 20)}" for _ in range(12)]
            pairs = list(dict.fromkeys(zip(names[:6] * 3, names[6:] * 3)))
            rng.shuffle(pairs)
            assert pair_span_outcome(pairs) == reference_pair_set(iter(pairs))

    @pytest.mark.parametrize(
        "pairs, text",
        [
            (
                [("a", "b"), ("x,y", "z"), ("x", "y,z")],
                "pairs ('x,y', 'z') and ('x', 'y,z') both get the element name '(x,y,z)'",
            ),
            (
                [("a", "b"), ("c", "d"), ("a", "b"), ("c", "d")],
                "pairs ('a', 'b') and ('a', 'b') both get the element name '(a,b)'",
            ),
        ],
    )
    def test_refusal_text(self, pairs, text):
        assert pair_span_outcome(pairs) == (PreconditionError, text)
        assert outcome(reference_pair_set, iter(pairs)) == (PreconditionError, text)


def spans_up_to_three():
    """Every span whose apex and feet have at most three elements."""
    sets = [letters("c", n) for n in range(4)]
    for apex, a, b in itertools.product(range(4), repeat=3):
        if apex and not (a and b):
            continue
        for f in all_functions(sets[apex], letters("a", a)):
            for g in all_functions(sets[apex], letters("b", b)):
                yield Span(sets[apex], f, g)


class TestJointMonicityAgainstTheApexDict:
    def test_every_span_up_to_three(self):
        witnessed = 0
        for s in spans_up_to_three():
            witness = joint_monicity_witness(s)
            assert witness == reference_joint_monicity_witness(s), s
            witnessed += witness is not None
        assert witnessed

    def test_seeded_spans_that_are_not_jointly_monic(self):
        rng = random.Random(7)
        for _ in range(500):
            a, b = letters("a", rng.randint(1, 6)), letters("b", rng.randint(1, 6))
            images = [(rng.choice(a.elements), rng.choice(b.elements)) for _ in range(5)]
            images += rng.sample(images, rng.randint(1, 5))
            rng.shuffle(images)
            apex = FiniteSet(tuple(f"c{i:02d}" for i in range(len(images))))
            s = Span(
                apex,
                SetFunction(apex, a, tuple(x for x, _ in images)),
                SetFunction(apex, b, tuple(y for _, y in images)),
            )
            witness = joint_monicity_witness(s)
            assert witness is not None
            assert witness == reference_joint_monicity_witness(s)


class TestPullbackOracleAgainstFiberPairsFirst:
    """The counting oracle and the one that builds the fiber pairs first
    return the same ``Verdict``, or refuse with the same text."""

    def check(self, square: CommutativeSquare) -> bool:
        """Verdicts are equal when their ok, detail and evidence are."""
        verdict = outcome(is_pullback_square, square)
        assert verdict == outcome(reference_pullback_verdict, square), square
        return isinstance(verdict, Verdict) and verdict.ok

    def test_sampled_squares(self):
        verdicts = [self.check(square) for square in SAMPLED_SQUARES]
        assert any(verdicts) and not all(verdicts)

    def test_duplicate_apex_squares(self):
        """Pairs repeated on top of the fiber product, and, where it has two
        or more pairs, one pair repeated in place of another, so that the
        apex is exactly as large as the fiber product."""
        rng = random.Random(11)
        checked = 0
        for square in SAMPLED_SQUARES:
            fiber = fiber_index_pairs(square)
            if not fiber:
                continue
            extra = fiber + rng.choices(fiber, k=rng.randint(1, 3))
            cases = [extra, fiber[1:] + fiber[-1:]] if len(fiber) > 1 else [extra]
            for pairs in cases:
                rng.shuffle(pairs)
                verdict = is_pullback_square(with_apex(square, pairs))
                assert not verdict.ok and "both tabulate" in verdict.detail
                self.check(with_apex(square, pairs))
                checked += 1
        assert checked > 500

    def test_missing_pair_squares(self):
        rng = random.Random(13)
        checked = 0
        for square in SAMPLED_SQUARES:
            fiber = fiber_index_pairs(square)
            if not fiber:
                continue
            pairs = rng.sample(fiber, rng.randrange(len(fiber)))
            verdict = is_pullback_square(with_apex(square, pairs))
            assert not verdict.ok and "no apex element" in verdict.detail
            self.check(with_apex(square, pairs))
            checked += 1
        assert checked > 300

    def test_a_pair_name_clash_is_refused_in_fiber_pairs(self):
        square = malcev_pushout_direct(pair_name_clash()).square
        text = "both get the element name '(x,y,z)'"
        for candidate in (square, with_apex(square, fiber_index_pairs(square) * 2)):
            refused = outcome(is_pullback_square, candidate)
            assert refused == outcome(reference_pullback_verdict, candidate)
            assert refused[0] is PreconditionError and text in refused[1]



def pullback_built_verdict(square: CommutativeSquare) -> Verdict:
    """``_pullback_verdict`` that builds the canonical ``pullback`` span, both
    legs and the ``Span``, to read the fiber pairs off its apex when a
    square fails the count."""
    f_t, g_t, h_t, k_t = _tables(square)
    a, b = square.span.feet
    names = pair_names(a.elements, b.elements, zip(f_t, g_t))
    over = Counter(k_t)
    if len(set(names)) == len(names) == sum([over[d] for d in h_t]):
        pairing = SetFunction(square.span.apex, FiniteSet(names), names)
        return Verdict(True, "apex tabulates the cospan's fiber product", pairing)
    pairs = pullback(square.cospan).apex
    seen: dict[str, str] = {}
    for c, name in zip(square.span.apex, names):
        if name in seen:
            return Verdict(
                False,
                f"apex elements {seen[name]!r} and {c!r} both tabulate {name}",
                (seen[name], c, name),
            )
        seen[name] = c
    missing = [p for p in pairs if p not in seen]
    return Verdict(
        False,
        f"pair {missing[0]} has equal images under the cospan but no apex element",
        missing[0],
    )


class TestPullbackRefusalAgainstTheBuiltPullback:
    """A refused square is worded from the fiber pairs' names alone, with
    the text and evidence that reading them off the built pullback gives."""

    def check(self, square: CommutativeSquare) -> Verdict | tuple:
        verdict = outcome(_pullback_verdict, square)
        assert verdict == outcome(pullback_built_verdict, square), square
        return verdict

    def test_the_refused_sampled_squares(self):
        squares = sample_commuting_squares(random.Random(0), 3000, 3)
        refused = [square for square in squares if not is_pullback_square(square).ok]
        assert len(refused) == 1303
        kinds = Counter(self.check(square).detail.split()[0] for square in refused)
        assert kinds == {"pair": 872, "apex": 431}

    def test_duplicate_and_missing_apex_pairs(self):
        rng, kinds = random.Random(17), Counter()
        for square in SAMPLED_SQUARES:
            fiber = fiber_index_pairs(square)
            if len(fiber) < 2:
                continue
            for pairs in (fiber + fiber[:1], fiber[1:] + fiber[-1:], rng.sample(fiber, 1)):
                rng.shuffle(pairs)
                verdict = self.check(with_apex(square, pairs))
                assert not verdict.ok
                kinds[verdict.detail.split()[0]] += 1
        assert kinds["pair"] > 100 and kinds["apex"] > 200

    def test_pair_names_that_do_not_sort_in_index_order(self):
        """Reference colimits of tabulations over the stems of
        ``seeded_7x7_relations``: a relation that is not difunctional leaves
        fiber pairs out of the apex, and the least missing name is often
        not the first missing pair in index order."""
        refused = 0
        for r in seeded_7x7_relations(31, 300):
            square = canonical_pushout(tabulate(r))
            refused += not self.check(square).ok
        assert refused > 100

    def test_a_pair_name_clash_among_the_fiber_pairs(self):
        square = malcev_pushout_direct(pair_name_clash()).square
        for pairs in (fiber_index_pairs(square) * 2, fiber_index_pairs(square)[:1]):
            refused = self.check(with_apex(square, pairs))
            assert refused[0] is PreconditionError
            assert "both get the element name '(x,y,z)'" in refused[1]


COMMA_GAP = re.compile(r"\s*,[\s,]*")


def finditer_split_pairs(body: str, line: int) -> list[tuple[str, str]]:
    """``_split_pairs`` by one ``finditer`` scan, each gap checked as it is
    met: commas and whitespace before the first pair and after the last,
    and a comma between two pairs."""
    pairs = []
    gap, end = _SEPARATORS, 0
    for match in _PAIR.finditer(body):
        if not gap.fullmatch(body, end, match.start()):
            raise _pair_list_error(body, line)
        pairs.append(match.group(1, 2))
        gap, end = COMMA_GAP, match.end()
    if not _SEPARATORS.fullmatch(body, end):
        raise _pair_list_error(body, line)
    return pairs


def index_calling_from_pairs(source: FiniteSet, target: FiniteSet, pairs) -> Relation:
    """``Relation.from_pairs`` with one ``FiniteSet.index`` call per name."""
    row_of, column_of = source.index, target.index
    return Relation._of_index_pairs(
        source, target, ((row_of(a), column_of(b)) for a, b in pairs)
    )


def pairs_based_tabulate(r: Relation) -> Span:
    """``tabulate`` over the nested ``Relation.pairs`` generator, with legs
    built from their value names."""
    apex, parts = reference_pair_set(r.pairs())
    left = SetFunction(apex, r.source, tuple([a for a, _ in parts]))
    right = SetFunction(apex, r.target, tuple([b for _, b in parts]))
    return Span(apex, left, right)


def split_outcome(split, body: str):
    """The pairs a splitter returns, or the text of its refusal."""
    try:
        return split(body, 7)
    except ParseError as exc:
        return str(exc)


def parametrized(test, name: str) -> list:
    """The values a ``pytest.mark.parametrize`` mark gives the argument."""
    for mark in test.pytestmark:
        if mark.name == "parametrize" and mark.args[0].split(", ")[0] == name:
            return [case[0] for case in mark.args[1]]
    raise LookupError(name)


def rel_bodies(document: str) -> list[str]:
    """The pair lists of a document's ``rel`` lines."""
    lines = (raw.split("#", 1)[0].strip() for raw in document.splitlines())
    return [match.group(4) for line in lines if (match := _REL.match(line))]


class TestPairListAgainstFinditer:
    def check(self, body: str) -> None:
        assert split_outcome(_split_pairs, body) == split_outcome(finditer_split_pairs, body)

    def test_every_body_of_the_pair_list_tests(self):
        tests = test_documents.TestPairList
        bodies = parametrized(tests.test_refusal_texts, "body")
        bodies += parametrized(tests.test_accepted_lists, "body")
        assert len(bodies) == 16
        long_line = ", ".join(f"(a{i},b{j})" for i in range(200) for j in range(100))
        for body in bodies + [long_line, long_line[:-1]]:
            self.check(body)

    def test_every_rel_line_of_the_fuzzed_documents(self):
        rng = random.Random(20121)
        documents = list(FUZZ_SEEDS) + [
            _fuzzed(rng, FUZZ_SEEDS[i % len(FUZZ_SEEDS)]) for i in range(600)
        ]
        bodies = [body for doc in documents for body in rel_bodies(doc)]
        for body in bodies:
            self.check(body)
        outcomes = [split_outcome(_split_pairs, body) for body in bodies]
        assert any(isinstance(o, str) for o in outcomes)
        assert any(isinstance(o, list) and o for o in outcomes)

    @settings(max_examples=2000)
    @given(st.lists(st.sampled_from(PAIR_LIST_TOKENS), max_size=14).map("".join))
    def test_token_strings(self, body):
        self.check(body)


def key_error_text(function, *args) -> str | None:
    try:
        function(*args)
    except KeyError as exc:
        return str(exc)
    return None


def relations_up_to_3x3():
    for m, n in itertools.product(range(4), repeat=2):
        yield from all_relations(letters("a", m), letters("b", n))


def seeded_7x7_relations(seed: int, count: int):
    """Relations between sets whose names use ``*``, ``'`` and ``_``, so
    that pair names do not sort in index order: ``a`` sorts before
    ``a'``, but ``(a,`` after ``(a',``."""
    rng = random.Random(seed)
    stems = ["a", "a'", "a*", "a_", "a''", "*a", "_a", "a_'", "'a", "a**"]
    for _ in range(count):
        source = FiniteSet(tuple(rng.sample(stems, rng.randint(0, 7))))
        target_stems = rng.sample(stems, rng.randint(0, 7))
        target = FiniteSet(tuple(s.replace("a", "b") for s in target_stems))
        rows = tuple(rng.getrandbits(len(target)) for _ in source)
        yield Relation._of_rows(source, target, rows)


class TestFromPairsAgainstIndexCalls:
    def test_every_relation_up_to_3x3_and_seeded_7x7(self):
        rng = random.Random(24)
        checked = 0
        for r in itertools.chain(relations_up_to_3x3(), seeded_7x7_relations(24, 2000)):
            pairs = list(r.pairs())
            pairs += rng.choices(pairs, k=len(pairs) // 2) if pairs else []
            rng.shuffle(pairs)
            built = Relation.from_pairs(r.source, r.target, iter(pairs))
            assert built == index_calling_from_pairs(r.source, r.target, pairs) == r
            checked += 1
        assert checked == 689 + 2000

    @pytest.mark.parametrize(
        "pairs, text",
        [
            ([("z", "x")], "'z' is not an element of {a, b}"),
            ([("a", "x"), ("b", "w")], "'w' is not an element of {x, y}"),
            ([("z", "w")], "'z' is not an element of {a, b}"),
            ([("a", "w"), ("z", "x")], "'w' is not an element of {x, y}"),
            ([("a", "x"), ("z", "y"), ("b", "w")], "'z' is not an element of {a, b}"),
            ([("a", "x"), ("x", "a"), ("a", "y")], "'x' is not an element of {a, b}"),
        ],
    )
    def test_missing_names(self, pairs, text):
        source, target = FiniteSet(("a", "b")), FiniteSet(("x", "y"))
        for build in (Relation.from_pairs, index_calling_from_pairs):
            assert key_error_text(build, source, target, iter(pairs)) == repr(text)


class TestTabulateAgainstPairs:
    def test_every_relation_up_to_3x3_and_seeded_7x7(self):
        for r in itertools.chain(relations_up_to_3x3(), seeded_7x7_relations(25, 2000)):
            s, t = tabulate(r), pairs_based_tabulate(r)
            assert s == t, r
            assert (s.left.table, s.right.table) == (t.left.table, t.right.table), r

    def test_pair_names_out_of_index_order_occur(self):
        unordered = 0
        for r in seeded_7x7_relations(25, 200):
            apex = tabulate(r).apex.elements
            unordered += apex != tuple(pair_name(a, b) for a, b in r.pairs())
        assert unordered

    @pytest.mark.parametrize("drop", (False, True))
    def test_seeded_block_relations_with_repeated_rows(self, drop):
        """The shapes of the pushout documents: n elements a side dealt into
        k in {1, 2, n/8, n/4} blocks, so the rows of a block are equal,
        and with ``drop`` one pair removed, so that one row differs."""
        repeated = 0
        for r in seeded_block_relations(26, drop):
            s, t = tabulate(r), pairs_based_tabulate(r)
            assert s == t, r
            assert (s.left.table, s.right.table) == (t.left.table, t.right.table), r
            repeated += len(set(r.rows)) < len(r.rows)
        assert repeated == 34


def seeded_block_relations(seed: int, drop: bool):
    """Each side of n in {8, 16, 24, 32, 48} dealt into k blocks for every
    k in {1, 2, n/8, n/4}, twice over; with ``drop``, less one pair."""
    rng = random.Random(seed)
    for n in (8, 16, 24, 32, 48):
        for k in sorted({1, 2, n // 8, n // 4}) * 2:
            block_a = rng.sample([x % k for x in range(n)], n)
            block_b = rng.sample([x % k for x in range(n)], n)
            cells = [(i, j) for i in range(n) for j in range(n) if block_a[i] == block_b[j]]
            if drop:
                cells.pop(rng.randrange(len(cells)))
            yield Relation._of_index_pairs(letters("a", n), letters("b", n), cells)


def index_pairs(r: Relation) -> list[tuple[int, int]]:
    return [(i, j) for i, row in enumerate(r.rows) for j in range(len(r.target)) if row >> j & 1]


class TestPairNamesAgainstPairName:
    def test_every_relation_up_to_3x3_and_seeded_7x7(self):
        """Over the stems of ``seeded_7x7_relations`` too, whose pair names
        sort out of index order; the index pairs may come as one pass of an
        iterator."""
        checked = 0
        for r in itertools.chain(relations_up_to_3x3(), seeded_7x7_relations(31, 2000)):
            a, b = r.source.elements, r.target.elements
            pairs = index_pairs(r)
            expected = [pair_name(a[i], b[j]) for i, j in pairs]
            assert pair_names(a, b, pairs) == expected == pair_names(a, b, iter(pairs)), r
            checked += 1
        assert checked == 689 + 2000


def seeded_block_spans(seed: int, count: int):
    """Mal'cev spans from seeded block relations: each side dealt into
    random blocks, every block a rectangle, feet of up to 40 elements."""
    rng = random.Random(seed)
    for _ in range(count):
        m, n, k = rng.randint(0, 40), rng.randint(0, 40), rng.randint(1, 12)
        block_a = [rng.randrange(k) for _ in range(m)]
        block_b = [rng.randrange(k) for _ in range(n)]
        cells = [(i, j) for i in range(m) for j in range(n) if block_a[i] == block_b[j]]
        yield tabulate(Relation._of_index_pairs(letters("a", m), letters("b", n), cells))


def name_built_quotient_by_equivalence(a: FiniteSet, e: Relation) -> SetFunction:
    """``quotient_by_equivalence`` with its corner and its values built from
    names: the classes are the elements that name their own."""
    assert e.source == a == e.target and is_equivalence(e)
    names = a.elements
    least = [(row & -row).bit_length() - 1 for row in e.rows]
    corner = FiniteSet(tuple([names[i] for i, j in enumerate(least) if i == j]))
    return SetFunction(a, corner, tuple([names[j] for j in least]))


def name_built_image_factorization(f: SetFunction) -> tuple[SetFunction, SetFunction]:
    """``image_factorization`` with the image and both maps built from the
    value names."""
    values = f.values
    image = FiniteSet(tuple(set(values)))
    return SetFunction(f.domain, image, values), SetFunction(image, f.codomain, image.elements)


def rank_built_image_factorization(f: SetFunction) -> tuple[SetFunction, SetFunction]:
    """``image_factorization`` that builds a new image and ranks every
    value, onto or not."""
    hit = sorted(set(f.table))
    names = f.codomain.elements
    image = FiniteSet(tuple([names[j] for j in hit]))
    rank = {j: n for n, j in enumerate(hit)}
    onto = SetFunction._of_table(f.domain, image, tuple([rank[j] for j in f.table]))
    return onto, SetFunction._of_table(image, f.codomain, tuple(hit))


def seeded_maps(seed: int, count: int):
    """Maps between sets of up to seven elements named by the stems of
    ``seeded_7x7_relations``, a third of them made onto."""
    rng = random.Random(seed)
    stems = ["a", "a'", "a*", "a_", "a''", "*a", "_a", "a_'", "'a", "a**"]
    for _ in range(count):
        n = rng.randint(0, 7)
        m = rng.randint(1, 7) if n else 0
        table = [rng.randrange(n) for _ in range(m)]
        if rng.random() < 1 / 3 and m >= n:
            table[:n] = range(n)
            rng.shuffle(table)
        domain = FiniteSet(tuple(rng.sample(stems, m)))
        codomain = FiniteSet(tuple(x.replace("a", "b") for x in rng.sample(stems, n)))
        yield SetFunction._of_table(domain, codomain, tuple(table))


class TestImageFactorizationAgainstRanks:
    def check(self, f: SetFunction) -> bool:
        onto, inclusion = image_factorization(f)
        assert (onto, inclusion) == rank_built_image_factorization(f), f
        assert (onto is f) == is_epi(f), f
        return onto is f

    def test_every_function_up_to_three_to_three(self):
        functions = [
            f
            for m, n in itertools.product(range(4), repeat=2)
            for f in all_functions(letters("a", m), letters("b", n))
        ]
        onto = [self.check(f) for f in functions]
        assert any(onto) and not all(onto)

    def test_seeded_maps_up_to_seven_to_seven(self):
        onto = [self.check(f) for f in seeded_maps(32, 2000)]
        assert 300 < sum(onto) < 1700

    def test_the_decomposed_route_against_rank_built_factors(self, monkeypatch):
        """With every factorization built anew, stage 1 runs on a copy of
        the input span; the trace is equal, and its first square's span is
        the input span exactly when the right leg is onto."""
        spans = [s for _, s in exhaustive_malcev_spans(3)]
        traces = [pushouts.malcev_pushout_decomposed(s) for s in spans]
        monkeypatch.setattr(pushouts, "image_factorization", rank_built_image_factorization)
        for s, trace in zip(spans, traces):
            assert trace == pushouts.malcev_pushout_decomposed(dataclasses.replace(s)), s
            assert (trace.squares[0].span is s) == is_epi(s.right), s


def values_based_repr(f: SetFunction) -> str:
    """``SetFunction.__repr__`` over the derived value names."""
    return "{" + ", ".join(f"{a} |-> {b}" for a, b in zip(f.domain.elements, f.values)) + "}"


class TestReprAgainstValues:
    def test_every_function_up_to_three_to_three_and_seeded_maps(self):
        functions = itertools.chain(
            (
                f
                for m, n in itertools.product(range(4), repeat=2)
                for f in all_functions(letters("a", m), letters("b", n))
            ),
            seeded_maps(33, 2000),
        )
        for f in functions:
            assert repr(f) == values_based_repr(f)

    def test_the_legs_and_composites_of_tabulations(self):
        """Each leg of a tabulation and the composite to the corner of its
        reference colimit, as a report prints them."""
        for r in seeded_7x7_relations(34, 300):
            s = tabulate(r)
            composite = compose(canonical_pushout(s).cospan.left, s.left)
            for f in (s.left, s.right, composite):
                assert repr(f) == values_based_repr(f)


def partition_equivalence(a: FiniteSet, blocks) -> Relation:
    """The equivalence on a whose classes are the blocks of positions."""
    rows = [0] * len(a)
    for block in blocks:
        mask = sum(1 << i for i in block)
        for i in block:
            rows[i] = mask
    return Relation._of_rows(a, a, tuple(rows))


class TestLeastMemberQuotientsAgainstNames:
    """Both quotients and the image factorization, which build from
    positions, against the same constructions built from names."""

    def check_quotients(self, a: FiniteSet, e: Relation, links) -> None:
        q = quotient_by_equivalence(a, e)
        assert q == name_built_quotient_by_equivalence(a, e)
        assert quotient_by_generated(a, links) == call_per_find_quotient(a, links) == q
        assert image_factorization(q) == name_built_image_factorization(q)

    def test_every_partition_up_to_five(self):
        count = 0
        for n in range(6):
            a = letters("x", n)
            for blocks in set_partitions(list(range(n))):
                links = [(block[-1], i) for block in blocks for i in block]
                self.check_quotients(a, partition_equivalence(a, blocks), links)
                count += 1
        assert count == 1 + 1 + 2 + 5 + 15 + 52

    def test_every_function_up_to_three_to_three(self):
        count = 0
        for m, n in itertools.product(range(4), repeat=2):
            for f in all_functions(letters("a", m), letters("b", n)):
                assert image_factorization(f) == name_built_image_factorization(f)
                kernel = [[i for i, d in enumerate(f.table) if d == e] for e in set(f.table)]
                links = [(block[0], i) for block in kernel for i in block]
                self.check_quotients(f.domain, partition_equivalence(f.domain, kernel), links)
                count += 1
        assert count == sum(n**m for m, n in itertools.product(range(4), repeat=2))

    def test_seeded_7x7_relations(self):
        """The block equivalence of each closed relation on A + B, with the
        relation's own cells as links, and the legs of its tabulation."""
        for r in seeded_7x7_relations(28, 500):
            closed = difunctional_closure(r)
            e = pushout_equivalence(closed)
            m = len(r.source)
            n = len(r.target)
            cells = [(i, j) for i, row in enumerate(closed.rows) for j in range(n) if row >> j & 1]
            self.check_quotients(e.source, e, [(i, m + j) for i, j in cells])
            s = tabulate(r)
            for leg in (s.left, s.right):
                assert image_factorization(leg) == name_built_image_factorization(leg)


def refusal_outcome(function, *args):
    """What a call returns, or the type and text of the precondition or
    internal-invariant error it raises."""
    try:
        return function(*args)
    except (PreconditionError, InternalInvariantError) as exc:
        return type(exc), str(exc)


def landings_epi_leg_square(s: Span) -> CommutativeSquare:
    """``_epi_leg_square`` that checks the induced leg with one set of
    landing classes per element of B, filled by one step per apex element.
    It composes through ``pushouts.rel_compose``, as the route does, so a
    test can doctor both closures alike."""
    require_epi(s.right, "right leg of an epi-leg pushout")
    a_set, b_set = s.feet
    r = span_to_relation(s)
    closure = union(Relation.diagonal(a_set), pushouts.rel_compose(converse(r), r))
    try:
        h = quotient_by_equivalence(a_set, closure)
    except NotEquivalenceError:
        raise InternalInvariantError(
            "epi-leg-pushout",
            "1 u R°R of a difunctional relation is not an equivalence",
        ) from None
    h_t = h.table
    landings: list[set[int]] = [set() for _ in b_set]
    for i, j in zip(s.left.table, s.right.table):
        landings[j].add(h_t[i])
    for b, images in zip(b_set, landings):
        if len(images) != 1:
            names = [h.codomain.elements[d] for d in sorted(images)]
            raise InternalInvariantError(
                "epi-leg-pushout",
                f"induced leg is not well defined at {b!r}: preimages land in {names}",
            )
    k = SetFunction._of_table(b_set, h.codomain, tuple([d for (d,) in landings]))
    return CommutativeSquare(s, Cospan(h, k))


def seeded_onto_spans(seed: int, count: int):
    """Spans whose right leg is onto: random legs out of apexes of up to 14
    elements, so most are neither jointly monic nor difunctional, and the
    tabulations of seeded block relations with no empty column."""
    rng = random.Random(seed)
    for _ in range(count):
        m, n = rng.randint(1, 6), rng.randint(0, 6)
        right = list(range(n)) + [rng.randrange(n) for _ in range(rng.randint(0, 8) if n else 0)]
        rng.shuffle(right)
        apex = letters("c", len(right))
        a, b = letters("a", m), letters("b", n)
        left = [rng.randrange(m) for _ in right]
        yield Span(
            apex,
            SetFunction._of_table(apex, a, tuple(left)),
            SetFunction._of_table(apex, b, tuple(right)),
        )
    yield from (s for s in seeded_block_spans(seed, count) if is_epi(s.right))


class TestInducedLegAgainstLandings:
    """The epi-leg route's column-mask test of the induced leg against the
    per-apex landing sets it replaced."""

    def test_seeded_spans_with_onto_right_legs(self):
        seen = {"square": 0, "non-difunctional square": 0, "refused": 0}
        for s in seeded_onto_spans(29, 400):
            kernel = refusal_outcome(_epi_leg_square, s)
            assert kernel == refusal_outcome(landings_epi_leg_square, s)
            if isinstance(kernel, CommutativeSquare):
                seen["square"] += 1
                seen["non-difunctional square"] += not is_difunctional(span_to_relation(s))
            else:
                assert kernel[0] is InternalInvariantError
                assert not is_difunctional(span_to_relation(s))
                seen["refused"] += 1
        assert all(seen.values()), seen

    def test_a_closure_without_its_r_conv_r_term_is_refused_alike(self, monkeypatch):
        """With R°R left out of both closures, the quotient is the identity,
        so every b related to two elements of A is refused, with the same
        text, by the mask test and by the landing sets."""

        def nothing(s: Relation, r: Relation) -> Relation:
            return Relation._of_rows(r.source, s.target, (0,) * len(r.source))

        monkeypatch.setattr(pushouts, "rel_compose", nothing)
        refused = 0
        for s in seeded_onto_spans(30, 200):
            kernel = refusal_outcome(_epi_leg_square, s)
            assert kernel == refusal_outcome(landings_epi_leg_square, s)
            refused += not isinstance(kernel, CommutativeSquare)
        assert refused > 100


def name_built_mediating_map(square: CommutativeSquare, candidate: Cospan) -> SetFunction:
    """``mediating_map`` with its map built from value names, one dict step
    per element of A + B, after deciding up front that the candidate fits
    the span's feet and commutes with the span."""
    s = square.span
    if candidate.left.domain != s.left.codomain or candidate.right.domain != s.right.codomain:
        raise PreconditionError("candidate cospan does not fit the span's feet")
    culprit = first_disagreement(s, candidate)
    if culprit is not None:
        raise PreconditionError(
            "candidate cospan does not commute with the span: " + disagreement_text(culprit)
        )
    corner = square.corner
    assigned: dict[str, str] = {}
    images = square.cospan.left.values + square.cospan.right.values
    for image, target in zip(images, candidate.left.values + candidate.right.values):
        existing = assigned.setdefault(image, target)
        if existing != target:
            raise InternalInvariantError(
                "mediating-map",
                f"corner element {image!r} is forced to both "
                f"{existing!r} and {target!r}; the square is not a pushout",
            )
    unreached = [d for d in corner if d not in assigned]
    if unreached:
        raise InternalInvariantError(
            "mediating-map",
            f"corner element {unreached[0]!r} is not reached by either leg; "
            "the square is not a pushout",
        )
    return SetFunction(corner, candidate.corner, tuple(assigned[d] for d in corner))


class TestMediatingMapAgainstNames:
    REFUSALS = ("does not fit", "does not commute", "forced to both", "not reached")

    def test_sampled_squares_and_their_reference_colimits(self):
        """Each sampled square against its span's reference colimit, both
        ways round, against its own cospan, and, with its reference
        colimit, against a random cospan out of its feet, which mostly does
        not commute with the span: the kernel finds that only at a
        conflict.  With one candidate whose left foot is not the span's,
        the map and all four refusals occur."""
        rng = random.Random(32)

        def random_leg(domain: FiniteSet, corner: FiniteSet) -> SetFunction:
            table = tuple(rng.randrange(len(corner)) for _ in domain)
            return SetFunction._of_table(domain, corner, table)

        cases = []
        for square in SAMPLED_SQUARES:
            canon = canonical_pushout(square.span)
            a, b = square.span.feet
            corner = letters("d", rng.randint(1, 3))
            candidate = Cospan(random_leg(a, corner), random_leg(b, corner))
            cases += [
                (square, canon.cospan),
                (canon, square.cospan),
                (square, square.cospan),
                (square, candidate),
                (canon, candidate),
            ]
        square = SAMPLED_SQUARES[0]
        wider = letters("w", len(square.span.left.codomain) + 1)
        cases.append((square, Cospan(random_leg(wider, square.corner), square.cospan.right)))
        seen = Counter()
        for mediated, candidate in cases:
            kernel = refusal_outcome(mediating_map, mediated, candidate)
            assert kernel == refusal_outcome(name_built_mediating_map, mediated, candidate)
            if isinstance(kernel, SetFunction):
                seen["map"] += 1
            else:
                seen[next(kind for kind in self.REFUSALS if kind in kernel[1])] += 1
        assert set(seen) == {"map", *self.REFUSALS}, seen
