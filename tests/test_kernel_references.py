"""The per-pair kernels against the loops they replaced.

Each kernel below decides the common, passing case with one tight loop or
one builtin, and walks its input again only to word a refusal.  The loops
it replaced are kept here as references: a union-find that makes one
``find()`` call per link endpoint, a per-pair clash dict, a per-apex
joint-monicity dict, and a pullback oracle that builds ``fiber_pairs``
before it looks at the apex.  Each kernel must return exactly what its
reference returns, refusals and their wording included.
"""

from __future__ import annotations

import itertools
import random

import pytest

from diexact.certificates import (
    Verdict,
    _base_change_is_pushout,
    _fibers,
    is_pullback_square,
    is_pushout_square,
)
from diexact.enumeration import exhaustive_malcev_spans, letters, sample_commuting_squares
from diexact.errors import PreconditionError
from diexact.fsets import (
    CommutativeSquare,
    FiniteSet,
    SetFunction,
    Span,
    all_functions,
    coproduct,
    fiber_pairs,
    pair_name,
    pair_set,
    quotient_by_generated,
)
from diexact.names import LEFT, RIGHT, tagged
from diexact.pushouts import malcev_pushout_direct
from diexact.relations import joint_monicity_witness
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
    """``pair_set`` with one clash-dict step per pair."""
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
    """``is_pullback_square`` that builds ``fiber_pairs`` first and then
    names every apex pair against it."""
    pairs, _ = fiber_pairs(square.cospan.left, square.cospan.right)
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


class TestPairSetAgainstTheClashDict:
    def test_carrier_and_parts(self):
        rng = random.Random(5)
        for _ in range(200):
            names = [f"{rng.choice('xyz')}{rng.randint(1, 20)}" for _ in range(12)]
            pairs = list(dict.fromkeys(zip(names[:6] * 3, names[6:] * 3)))
            rng.shuffle(pairs)
            assert pair_set(iter(pairs)) == reference_pair_set(iter(pairs))

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
        assert outcome(pair_set, iter(pairs)) == (PreconditionError, text)
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
    """The counting oracle and the one that builds ``fiber_pairs`` first
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

