"""Deterministic corpus generation: exhaustive enumeration at small sizes,
seeded random sampling above them.

Canonical test sets use prefixed names (``a1, a2, ...``), so every
enumerated instance has a stable, diffable description.  Both span
corpora, the plain spans of T2 and D and the pointed spans of P1, come
from ``malcev_corpus``: one exhaustive walk, then one sampling loop whose
draw is ``_random_difunctional``.  This module asks for no mutant.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, Iterator, Sequence, TypeVar

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

DENSITY = 0.3  # chance that a pair holds in a seeded random relation

T = TypeVar("T")


def letters(prefix: str, n: int) -> FiniteSet:
    return FiniteSet(tuple(f"{prefix}{i}" for i in range(1, n + 1)))


def all_relations(source: FiniteSet, target: FiniteSet) -> Iterator[Relation]:
    """Every relation, cell by cell in row-major order, false before true."""
    row_values = [
        sum(bit << j for j, bit in enumerate(cells))
        for cells in itertools.product((0, 1), repeat=len(target))
    ]
    for rows in itertools.product(row_values, repeat=len(source)):
        yield Relation._of_rows(source, target, rows)


def difunctional_relations(source: FiniteSet, target: FiniteSet) -> Iterator[Relation]:
    for r in all_relations(source, target):
        if is_difunctional(r):
            yield r


def exhaustive_malcev_spans(max_size: int) -> Iterator[tuple[str, Span]]:
    """Tabulations of every difunctional relation over canonical sets of all
    size pairs up to the bound, each with a stable label."""
    sources = [letters("a", n) for n in range(max_size + 1)]
    targets = [letters("b", n) for n in range(max_size + 1)]
    return malcev_corpus(sources, targets, max_size, None, 0, tabulate)


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


def random_relation(rng: random.Random, source: FiniteSet, target: FiniteSet) -> Relation:
    """Each pair holds with probability ``DENSITY``, drawn row by row."""
    rows = tuple(
        sum(1 << j for j in range(len(target)) if rng.random() < DENSITY)
        for _ in source
    )
    return Relation._of_rows(source, target, rows)


def _random_difunctional(
    rng: random.Random, source: FiniteSet, target: FiniteSet, based: bool = False
) -> Relation:
    """The one seeded draw of both sampled corpora: a ``random_relation``
    between the carriers, holding at the first pair too when ``based`` (a
    canonical pointed set lists its basepoint first), closed to the least
    difunctional relation containing it."""
    raw = random_relation(rng, source, target)
    if based:
        raw = Relation._of_rows(source, target, (raw.rows[0] | 1,) + raw.rows[1:])
    return difunctional_closure(raw)


def random_malcev_relation(rng: random.Random, max_size: int) -> Relation:
    """|A| and |B| drawn up to ``max_size``, then ``_random_difunctional``
    between ``letters("a", |A|)`` and ``letters("b", |B|)``."""
    source = letters("a", rng.randint(0, max_size))
    target = letters("b", rng.randint(0, max_size))
    return _random_difunctional(rng, source, target)


def _sampled_label(r: Relation, word: str = "sampled") -> str:
    return f"{word} |A|={len(r.source)},|B|={len(r.target)} R={r!r}"


def random_malcev_span(rng: random.Random, max_size: int) -> tuple[str, Span]:
    r = random_malcev_relation(rng, max_size)
    return _sampled_label(r), tabulate(r)


def malcev_corpus(
    sources: Sequence[FiniteSet],
    targets: Sequence[FiniteSet],
    bound: int,
    rng: random.Random | None,
    count: int,
    build: Callable[[Relation], T],
    pointed: bool = False,
) -> Iterator[tuple[str, T]]:
    """The one builder of both span corpora, each relation r given as
    ``build(r)``: first every difunctional relation between a source and a
    target of at most ``bound`` elements, labelled by its walk index; then
    ``count`` draws ``_random_difunctional`` between an ``rng.choice`` of
    the sources and one of the targets, labelled ``sample#i``, equal draws
    (by |A|, |B| and rows) sharing one label and instance.  ``pointed``
    keeps the relations that hold at the first pair (a canonical pointed
    set lists its basepoint first), bases each draw there, and names both
    kinds of label ``pointed``."""
    walked, drawn = ("pointed ", "pointed") if pointed else ("", "sampled")
    walked_sources = [a for a in sources if len(a) <= bound]
    walked_targets = [b for b in targets if len(b) <= bound]
    for source, target in itertools.product(walked_sources, walked_targets):
        for index, r in enumerate(difunctional_relations(source, target)):
            if not pointed or (r.rows and r.rows[0] & 1):
                label = f"{walked}|A|={len(source)},|B|={len(target)} #{index} R={r!r}"
                yield label, build(r)
    built: dict[tuple[int, int, tuple[int, ...]], tuple[str, T]] = {}
    for i in range(count):
        r = _random_difunctional(rng, rng.choice(sources), rng.choice(targets), pointed)
        key = (len(r.source), len(r.target), r.rows)
        if key not in built:
            built[key] = _sampled_label(r, drawn), build(r)
        label, instance = built[key]
        yield f"sample#{i} {label}", instance


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
            continue
        sq = canonical_pushout(tabulate(random_malcev_relation(rng, max_size)))
        squares.append(sq if roll < 0.8 else _doctored_square(rng, sq))
    return squares
