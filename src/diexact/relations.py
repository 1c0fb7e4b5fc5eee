"""The calculus of relations between finite sets.

A relation keeps one Python ``int`` per source element: bit j of row i says
that (source[i], target[j]) holds.  Composites, converses, unions, the
difunctionality witness and the difunctional closure are word-parallel
OR/AND operations on those rows, and the pair list is a view derived from
them.  The witness and the closure read Riguet's characterisation (J.
Riguet, *Relations binaires, fermetures, correspondances de Galois*, Bull.
SMF 76, 1948): a relation is difunctional exactly when any two of its rows
are equal or disjoint, so its connected blocks are rectangles.  Relations
come from ``from_pairs``, ``diagonal`` and the calculus; there is no
public positional constructor.  ``from_pairs`` reads a pair list in one
loop, which ORs each pair's column bit, looked up in one dict built per
call, into its row; ``tabulate`` decodes each distinct row once (a
difunctional relation has at most one per block, and the empty row), hands
the rows' bits, as index pairs, to ``fsets.pair_span`` and keeps the
relation on the span it returns; and ``span_to_relation`` builds any other
span's relation once and keeps it on the span.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import CompositionError, NotEquivalenceError, PreconditionError
from .fsets import (
    FiniteSet,
    SetFunction,
    Span,
    _kept,
    coproduct,
    image_factorization,
    pair_span,
)
from .names import pair_name


def _bits(row: int) -> Iterator[int]:
    """Indexes of the set bits of a row, lowest first."""
    while row:
        low = row & -row
        yield low.bit_length() - 1
        row ^= low


@dataclass(frozen=True, init=False)
class Relation:
    """A subset of source x target, one bitmask row per source element."""

    source: FiniteSet
    target: FiniteSet
    rows: tuple[int, ...]

    @classmethod
    def _of_rows(cls, source: FiniteSet, target: FiniteSet, rows: tuple[int, ...]) -> "Relation":
        r = object.__new__(cls)
        object.__setattr__(r, "source", source)
        object.__setattr__(r, "target", target)
        object.__setattr__(r, "rows", rows)
        return r

    @classmethod
    def from_pairs(
        cls, source: FiniteSet, target: FiniteSet, pairs: Iterable[tuple[str, str]]
    ) -> "Relation":
        """The relation holding at each named pair.  One loop subscripts the
        source's index dict and a dict from each target name to its column
        bit, built once per call; at the first pair naming an element
        outside its carrier, source before target, ``FiniteSet.index``
        words the ``KeyError``."""
        rows = [0] * len(source)
        row_of = source._index
        bit_of = {name: 1 << j for name, j in target._index.items()}
        try:
            for a, b in pairs:
                rows[row_of[a]] |= bit_of[b]
        except KeyError:
            source.index(a)
            target.index(b)
            raise
        return cls._of_rows(source, target, tuple(rows))

    @classmethod
    def _of_index_pairs(
        cls, source: FiniteSet, target: FiniteSet, pairs: Iterable[tuple[int, int]]
    ) -> "Relation":
        """The relation holding at each (source position, target position)."""
        rows = [0] * len(source)
        for i, j in pairs:
            rows[i] |= 1 << j
        return cls._of_rows(source, target, tuple(rows))

    @classmethod
    def diagonal(cls, a: FiniteSet) -> "Relation":
        return cls._of_rows(a, a, tuple(1 << i for i in range(len(a))))

    def holds(self, a: str, b: str) -> bool:
        return bool(self.rows[self.source.index(a)] >> self.target.index(b) & 1)

    def pairs(self) -> Iterator[tuple[str, str]]:
        names = self.target.elements
        for a, row in zip(self.source, self.rows):
            for j in _bits(row):
                yield a, names[j]

    def __repr__(self) -> str:
        return "{" + ", ".join(pair_name(a, b) for a, b in self.pairs()) + "}"


def rel_compose(s: Relation, r: Relation) -> Relation:
    """Composite s after r: each row of r ORs together the rows of s it
    selects.  Equal rows of r have equal images, computed once."""
    if r.target != s.source:
        raise CompositionError(
            f"cannot compose: target {r.target} != source {s.source}"
        )
    images = {}
    for row in set(r.rows):
        image = 0
        for j in _bits(row):
            image |= s.rows[j]
        images[row] = image
    return Relation._of_rows(r.source, s.target, tuple(images[row] for row in r.rows))


def converse(r: Relation) -> Relation:
    """Transpose; swaps source and target.  The sources sharing each
    distinct row are gathered into one mask, which is scattered into the
    columns that row holds."""
    sharing: dict[int, int] = {}
    for i, row in enumerate(r.rows):
        sharing[row] = sharing.get(row, 0) | 1 << i
    columns = [0] * len(r.target)
    for row, mask in sharing.items():
        for j in _bits(row):
            columns[j] |= mask
    return Relation._of_rows(r.target, r.source, tuple(columns))


def _require_parallel(r: Relation, s: Relation) -> None:
    if r.source != s.source or r.target != s.target:
        raise CompositionError("relations must have the same source and target")


def union(r: Relation, s: Relation) -> Relation:
    _require_parallel(r, s)
    return Relation._of_rows(
        r.source, r.target, tuple(x | y for x, y in zip(r.rows, s.rows))
    )


def leq(r: Relation, s: Relation) -> bool:
    """Pointwise containment r <= s."""
    _require_parallel(r, s)
    return not any(x & ~y for x, y in zip(r.rows, s.rows))


def span_to_relation(s: Span) -> Relation:
    """The relation a span embodies: (a, b) holds when some apex element maps
    to both.  Equals right-graph composed with the converse of left-graph.

    It is built once per span, from the span's own leg tables, and kept on
    the span as ``_relation``; a tabulation gets it from ``tabulate`` and
    never builds it.  Like ``FiniteSet._index`` that is not a field, so
    equality, hashing and ``repr`` ignore it, and ``dataclasses.replace``
    gives a span without it.  The relation refers to the feet only, never
    back to the span.
    """
    return _kept(
        s, "_relation", lambda: Relation._of_index_pairs(*s.feet, zip(s.left.table, s.right.table))
    )


def tabulate(r: Relation) -> Span:
    """Jointly monic span of projections from the pair set of r: the
    ``pair_span`` of the rows' bits, with r kept on it as ``_relation``.

    Each distinct row is decoded once and its bit list read by every row
    equal to it; the pairs keep their row-major order.  A difunctional
    relation has at most one distinct row per block, and the empty row."""
    decoded = {row: list(_bits(row)) for row in set(r.rows)}
    pairs = [(i, j) for i, row in enumerate(r.rows) for j in decoded[row]]
    s = pair_span(r.source, r.target, pairs)
    object.__setattr__(s, "_relation", r)
    return s


def is_difunctional(r: Relation) -> bool:
    """True when R R° R <= R."""
    return leq(rel_compose(r, rel_compose(converse(r), r)), r)


def difunctionality_witness(r: Relation) -> tuple[str, str, str, str] | None:
    """First quadruple (a, b, a2, b2), in canonical element order, with
    (a,b), (a,b2), (a2,b) all related but (a2,b2) not; None if difunctional.

    This is the elementwise oracle; ``is_difunctional`` is the composite
    route ``R R° R <= R``.  For a row value v, the rows that meet v are the
    OR of the columns v holds, and the rows that contain v are their AND;
    the candidates are the rows that meet v without containing it.  The
    first row with a candidate is row i, j is the first column of row i
    holding a candidate, i2 the least candidate in column j, and j2 the
    least column of row i missing from row i2.  Equal rows have equal
    candidates, so each distinct row value is looked at once, and the whole
    search is O(|R|) row operations.
    """
    rows = r.rows
    columns = converse(r).rows
    everything = (1 << len(rows)) - 1
    seen: set[int] = set()
    for i, row in enumerate(rows):
        if row in seen:
            continue
        seen.add(row)
        meeting, containing = 0, everything
        for j in _bits(row):
            meeting |= columns[j]
            containing &= columns[j]
        candidates = meeting & ~containing
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


def difunctional_closure(r: Relation) -> Relation:
    """Least difunctional relation containing r, in one pass over its rows.

    Rows that share a column are merged into (row mask, column mask)
    blocks, the connected blocks of r; by Riguet the closure relates every
    row of a block to every column of it, and leaves empty rows empty.  The
    column masks of the blocks stay pairwise disjoint, so a row joins
    exactly the blocks its own columns meet.  That is O(|A| · blocks) bit
    operations, with no composite, converse or union.
    """
    blocks: list[tuple[int, int]] = []
    for i, row in enumerate(r.rows):
        if not row:
            continue
        members, columns = 1 << i, row
        apart = []
        for block in blocks:
            if block[1] & row:
                members |= block[0]
                columns |= block[1]
            else:
                apart.append(block)
        apart.append((members, columns))
        blocks = apart
    closed = [0] * len(r.rows)
    for members, columns in blocks:
        for i in _bits(members):
            closed[i] = columns
    return Relation._of_rows(r.source, r.target, tuple(closed))


def is_reflexive(e: Relation) -> bool:
    _require_endo(e)
    return all(row >> i & 1 for i, row in enumerate(e.rows))


def is_symmetric(e: Relation) -> bool:
    _require_endo(e)
    return e == converse(e)


def is_transitive(e: Relation) -> bool:
    _require_endo(e)
    return leq(rel_compose(e, e), e)


def is_equivalence(e: Relation) -> bool:
    """Reflexive, symmetric and transitive, decided on rows.

    e is an equivalence exactly when every row holds its own bit and every
    member j of a row has that same row: then j relates back to i (the row
    of j holds i), and whatever j relates to, i relates to.  Each distinct
    row is checked once, against the rows of its members, so no converse or
    composite is built.  A reflexive difunctional endo-relation need not be
    symmetric as a relation, so the test covers symmetry too.
    """
    _require_endo(e)
    rows = e.rows
    return all(row >> i & 1 for i, row in enumerate(rows)) and all(
        rows[j] == row for row in set(rows) for j in _bits(row)
    )


def _require_endo(e: Relation) -> None:
    if e.source != e.target:
        raise PreconditionError(
            f"expected an endo-relation, got {e.source} to {e.target}"
        )


def quotient_by_equivalence(a: FiniteSet, e: Relation) -> SetFunction:
    """Surjection onto the classes of e, each class named by its least
    member.  Coequalizes the two projections of e.

    The classes of an equivalence are its distinct rows (Riguet), so each
    element's class is named by the element at the lowest set bit of its
    row, which is the least member since carriers are sorted; the quotient
    is the surjective part of the image factorization of that map.
    """
    if e.source != a or e.target != a:
        raise PreconditionError(f"relation is not an endo-relation on {a}")
    if not is_equivalence(e):
        raise NotEquivalenceError(f"relation is not an equivalence: {e!r}")
    least = tuple([(row & -row).bit_length() - 1 for row in e.rows])
    return image_factorization(SetFunction._of_table(a, a, least))[0]


def joint_monicity_witness(s: Span) -> tuple[str, str, tuple[str, str]] | None:
    """Two apex elements with the same image pair, or None if jointly monic.

    The span is jointly monic exactly when its apex has as many distinct
    index pairs ``(f.table[c], g.table[c])`` as elements; only a span that
    is not is walked for the first repeated pair."""
    if len(set(zip(s.left.table, s.right.table))) == len(s.apex):
        return None
    seen: dict[tuple[str, str], str] = {}
    for c, image in zip(s.apex, zip(s.left.values, s.right.values)):
        if image in seen:
            return seen[image], c, image
        seen[image] = c
    return None


def is_jointly_monic(s: Span) -> bool:
    return joint_monicity_witness(s) is None


def is_malcev_span(s: Span) -> bool:
    """Jointly monic with a difunctional underlying relation."""
    return is_jointly_monic(s) and is_difunctional(span_to_relation(s))


def assemble_block(
    top_left: Relation, top_right: Relation, bottom_left: Relation, bottom_right: Relation
) -> Relation:
    """The relation on the tagged coproduct a + b of the diagonal blocks'
    sources with the four blocks as restrictions: block [i][j] relates
    summand j to summand i.

    The coproduct lists every ``l:`` element, in the order of a, before every
    ``r:`` element, in the order of b; so summand b starts at bit |a|.
    """
    a, b = top_left.source, bottom_right.source
    for i, j, block, src, tgt in (
        (0, 0, top_left, a, a),
        (0, 1, top_right, b, a),
        (1, 0, bottom_left, a, b),
        (1, 1, bottom_right, b, b),
    ):
        if block.source != src or block.target != tgt:
            raise ValueError(
                f"block [{i}][{j}] must be a relation {src} to {tgt}, "
                f"got {block.source} to {block.target}"
            )
    total, _, _ = coproduct(a, b)
    offset = len(a)
    rows = tuple(x | y << offset for x, y in zip(top_left.rows, bottom_left.rows))
    rows += tuple(x | y << offset for x, y in zip(top_right.rows, bottom_right.rows))
    return Relation._of_rows(total, total, rows)
