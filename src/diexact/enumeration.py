"""Deterministic corpus generation: exhaustive enumeration at small sizes,
seeded random sampling above them.

Canonical test sets use prefixed names (``a1, a2, ...``), so every
enumerated instance has a stable, diffable description.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator, Sequence

from .fsets import (
    CommutativeSquare,
    Cospan,
    FiniteSet,
    SetFunction,
    Span,
    canonical_pushout,
    compose,
)
from .relations import Relation, difunctional_closure, is_difunctional, tabulate


def letters(prefix: str, n: int) -> FiniteSet:
    return FiniteSet(tuple(f"{prefix}{i}" for i in range(1, n + 1)))


def all_relations(source: FiniteSet, target: FiniteSet) -> Iterator[Relation]:
    cells = len(source) * len(target)
    cols = len(target)
    for bits in itertools.product((False, True), repeat=cells):
        matrix = tuple(bits[i * cols : (i + 1) * cols] for i in range(len(source)))
        yield Relation(source, target, matrix)


def difunctional_relations(source: FiniteSet, target: FiniteSet) -> Iterator[Relation]:
    for r in all_relations(source, target):
        if is_difunctional(r):
            yield r


def exhaustive_malcev_spans(max_size: int) -> Iterator[tuple[str, Span]]:
    """Tabulations of every difunctional relation over canonical sets of all
    size pairs up to the bound, each with a stable label."""
    for m in range(max_size + 1):
        for n in range(max_size + 1):
            source, target = letters("a", m), letters("b", n)
            for index, r in enumerate(difunctional_relations(source, target)):
                yield f"|A|={m},|B|={n} #{index} R={r!r}", tabulate(r)


def all_set_partitions(items: Sequence[str]) -> Iterator[list[list[str]]]:
    """All partitions of the items, in a deterministic recursive order."""
    if not items:
        yield []
        return
    head, rest = items[0], list(items[1:])
    for part in all_set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1 :]
        yield [[head]] + part


def equivalence_from_partition(
    a: FiniteSet, blocks: Sequence[Sequence[str]]
) -> Relation:
    pairs = [
        (x, y) for block in blocks for x in block for y in block
    ]
    return Relation.from_pairs(a, a, pairs)


def all_equivalences(a: FiniteSet) -> Iterator[tuple[str, Relation]]:
    for blocks in all_set_partitions(list(a.elements)):
        label = "/".join(",".join(sorted(block)) for block in sorted(map(sorted, blocks)))
        yield f"partition {label or 'empty'}", equivalence_from_partition(a, blocks)


def random_function(rng: random.Random, domain: FiniteSet, codomain: FiniteSet) -> SetFunction:
    if len(domain) > 0 and len(codomain) == 0:
        raise ValueError("no functions from a nonempty set to the empty set")
    return SetFunction(
        domain, codomain, tuple(rng.choice(codomain.elements) for _ in domain)
    )


def random_relation(
    rng: random.Random, source: FiniteSet, target: FiniteSet, density: float = 0.35
) -> Relation:
    matrix = tuple(
        tuple(rng.random() < density for _ in target) for _ in source
    )
    return Relation(source, target, matrix)


def random_difunctional(
    rng: random.Random, source: FiniteSet, target: FiniteSet, density: float = 0.3
) -> Relation:
    return difunctional_closure(random_relation(rng, source, target, density))


def random_malcev_span(rng: random.Random, max_size: int) -> tuple[str, Span]:
    m, n = rng.randint(0, max_size), rng.randint(0, max_size)
    r = random_difunctional(rng, letters("a", m), letters("b", n))
    return f"sampled |A|={m},|B|={n} R={r!r}", tabulate(r)


def _random_plain_square(rng: random.Random, max_size: int) -> CommutativeSquare | None:
    nc = rng.randint(0, max_size)
    na = rng.randint(1 if nc else 0, max_size)
    nb = rng.randint(1 if nc else 0, max_size)
    nd = rng.randint(1 if (na or nb) else 0, max_size)
    a, b = letters("a", na), letters("b", nb)
    c, d = letters("c", nc), letters("d", nd)
    f = random_function(rng, c, a)
    g = random_function(rng, c, b)
    h = random_function(rng, a, d)
    forced: dict[str, str] = {}
    for el in c:
        target = h(f(el))
        if forced.setdefault(g(el), target) != target:
            return None
    values = tuple(
        forced.get(el, rng.choice(d.elements)) if len(d) else forced[el] for el in b
    )
    k = SetFunction(b, d, values)
    return CommutativeSquare(Span(c, f, g), Cospan(h, k))


def _doctored_square(rng: random.Random, square: CommutativeSquare) -> CommutativeSquare:
    """Extend or collapse the corner of a commuting square, preserving
    commutativity but usually destroying the pushout property."""
    corner = square.corner
    if rng.random() < 0.5 or len(corner) < 2:
        bigger = FiniteSet(corner.elements + ("z9",))
        widen = SetFunction(corner, bigger, corner.elements)
        cospan = Cospan(
            compose(widen, square.cospan.left), compose(widen, square.cospan.right)
        )
    else:
        first, second = corner.elements[0], corner.elements[1]
        merged = FiniteSet(tuple(e for e in corner.elements if e != second))
        collapse = SetFunction(
            corner, merged, tuple(first if e == second else e for e in corner)
        )
        cospan = Cospan(
            compose(collapse, square.cospan.left),
            compose(collapse, square.cospan.right),
        )
    return CommutativeSquare(square.span, cospan)


def sample_commuting_squares(
    rng: random.Random, count: int, max_size: int
) -> list[CommutativeSquare]:
    """A deterministic mixed sample: raw random commuting squares, genuine
    canonical pushouts, and doctored near-misses."""
    squares: list[CommutativeSquare] = []
    while len(squares) < count:
        roll = rng.random()
        if roll < 0.55:
            sq = _random_plain_square(rng, max_size)
            if sq is not None:
                squares.append(sq)
        elif roll < 0.8:
            _, s = random_malcev_span(rng, max_size)
            squares.append(canonical_pushout(s))
        else:
            _, s = random_malcev_span(rng, max_size)
            squares.append(_doctored_square(rng, canonical_pushout(s)))
    return squares
