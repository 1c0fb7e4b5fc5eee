"""Finite sets, functions, and the small-diagram toolkit.

Every value is immutable and canonically represented: a ``FiniteSet`` keeps
its elements sorted, functions are extensional tables aligned with that
order, and constructed objects (pullbacks, coproducts, quotients) use
deterministic element names, so equal constructions compare equal and
reports diff cleanly.

A ``SetFunction`` stores only ``table``, the codomain position of each
value.  Routes, oracles and composites read it by position; ``values`` is
derived from it on every read, so loops read that before they start, and
``f(x)`` is for callers outside loops.  Every commutativity check is
``first_disagreement``, decided on those tables, and a fact decided about a
span is decided once: a checked ``CommutativeSquare`` marks its cospan with
the span it commutes with, so ``_require_commutes_with_span`` returns at
once for that exact pair, and the span keeps its reference colimit's
cospan (as ``relations`` keeps its relation) for every later
``canonical_pushout``.  Only a checked construction sets a mark, and a mark
refers to its span weakly, so no span is kept alive by a cospan.  Every
fact kept on a value is read and kept by one helper, ``_kept``.

Constructed elements are named by three rules, each built from positions
by one builder:

* pullback / tabulation elements are ``"(a,b)"``: ``pair_span``;
* coproduct elements are tagged ``"l:a"`` / ``"r:b"``: ``coproduct``;
* image elements keep their codomain names: ``image_factorization``.  Both
  quotients, ``quotient_by_generated`` here and ``quotient_by_equivalence``
  in ``relations``, end in it, so a class is named by its least member.  An
  onto map is its own surjective part, and its inclusion is the identity.

The text of pair names and coproduct tags is spelled only in ``names``;
other modules call these builders and spell no such name themselves.
"""

from __future__ import annotations

import functools
import itertools
import weakref
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, TypeVar

from .errors import (
    CompositionError,
    InternalInvariantError,
    NotEpiError,
    NotMonoError,
    PreconditionError,
)
from .names import LEFT, RIGHT, pair_names, tagged

T = TypeVar("T")


@dataclass(frozen=True)
class FiniteSet:
    """An ordered set of distinct element names (opaque strings).

    ``_index`` maps each name to its position; building it is also the
    duplicate check.  It is not a field, so equality and hashing ignore it.
    """

    elements: tuple[str, ...]

    def __post_init__(self) -> None:
        canon = tuple(sorted(self.elements))
        index = dict(zip(canon, range(len(canon))))
        if len(index) != len(canon):
            dupes = sorted({e for e in canon if canon.count(e) > 1})
            raise ValueError(f"duplicate element names: {dupes}")
        object.__setattr__(self, "elements", canon)
        object.__setattr__(self, "_index", index)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"{name!r} is not an element of {self}") from None

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def __iter__(self) -> Iterator[str]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        return "{" + ", ".join(self.elements) + "}"


EMPTY = FiniteSet(())


def fset(*names: str) -> FiniteSet:
    """Shorthand constructor used pervasively in tests and scripts."""
    return FiniteSet(tuple(names))


@dataclass(frozen=True, init=False)
class SetFunction:
    """A total map between finite sets, stored as ``table``, the codomain
    position of each value in domain order; equality compares all three
    fields.  The constructor is the one place where value names become a
    table, and ``_of_table`` takes a table already known.
    """

    domain: FiniteSet
    codomain: FiniteSet
    table: tuple[int, ...]

    def __init__(self, domain: FiniteSet, codomain: FiniteSet, values: Iterable[str]) -> None:
        values = tuple(values)
        if len(values) != len(domain):
            raise ValueError(
                f"function table has {len(values)} entries for a domain "
                f"of size {len(domain)}"
            )
        index = codomain._index
        try:
            table = tuple([index[value] for value in values])
        except KeyError:
            value = next(v for v in values if v not in index)
            raise ValueError(
                f"value {value!r} is not in the codomain {codomain}"
            ) from None
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)
        object.__setattr__(self, "table", table)

    @classmethod
    def _of_table(
        cls, domain: FiniteSet, codomain: FiniteSet, table: tuple[int, ...]
    ) -> "SetFunction":
        f = object.__new__(cls)
        object.__setattr__(f, "domain", domain)
        object.__setattr__(f, "codomain", codomain)
        object.__setattr__(f, "table", table)
        return f

    @property
    def values(self) -> tuple[str, ...]:
        """The value names in domain order, read off the table."""
        names = self.codomain.elements
        return tuple([names[j] for j in self.table])

    @classmethod
    def from_mapping(
        cls, domain: FiniteSet, codomain: FiniteSet, mapping: Mapping[str, str]
    ) -> "SetFunction":
        missing = [e for e in domain if e not in mapping]
        if missing:
            raise ValueError(f"mapping is not total: no value for {missing}")
        extra = sorted(set(mapping) - set(domain.elements))
        if extra:
            raise ValueError(f"mapping assigns values to non-elements: {extra}")
        return cls(domain, codomain, tuple(mapping[e] for e in domain))

    def __call__(self, name: str) -> str:
        return self.codomain.elements[self.table[self.domain.index(name)]]

    def __repr__(self) -> str:
        names = self.codomain.elements
        pairs = zip(self.domain.elements, self.table)
        return "{" + ", ".join([f"{a} |-> {names[j]}" for a, j in pairs]) + "}"


def identity(a: FiniteSet) -> SetFunction:
    return SetFunction._of_table(a, a, tuple(range(len(a))))


def compose(g: SetFunction, f: SetFunction) -> SetFunction:
    """Pointwise composite g after f."""
    _require_composable(g, f)
    table = g.table
    return SetFunction._of_table(f.domain, g.codomain, tuple([table[i] for i in f.table]))


def _require_composable(g: SetFunction, f: SetFunction) -> None:
    if f.codomain != g.domain:
        raise CompositionError(
            f"cannot compose: codomain {f.codomain} != domain {g.domain}"
        )


def is_mono(f: SetFunction) -> bool:
    return len(set(f.table)) == len(f.table)


def is_epi(f: SetFunction) -> bool:
    return len(set(f.table)) == len(f.codomain)


def is_iso(f: SetFunction) -> bool:
    return is_mono(f) and is_epi(f)


def inverse(f: SetFunction) -> SetFunction:
    if not is_iso(f):
        raise PreconditionError(f"cannot invert non-bijective function {f}")
    # Domain positions sorted by image: entry j is the preimage of j.
    table = tuple(sorted(range(len(f.table)), key=f.table.__getitem__))
    return SetFunction._of_table(f.codomain, f.domain, table)


@dataclass(frozen=True)
class Span:
    """Two functions out of a common apex.  Joint monicity is a predicate on
    spans, not an invariant of the type.

    Facts about a span are kept on it, once decided, as attributes that
    are not fields, so equality, hashing and ``repr`` ignore them and
    ``dataclasses.replace`` gives a span without them: its relation
    ``_relation`` (``relations.span_to_relation``, or ``relations.tabulate``
    as it builds the span), the cospan ``_pushout`` of its reference colimit
    (``canonical_pushout``) and its Mal'cev verdict ``_malcev``
    (``pushouts.require_malcev``), each read and kept by ``_kept``.  None
    of them refers back to the span.
    """

    apex: FiniteSet
    left: SetFunction
    right: SetFunction

    def __post_init__(self) -> None:
        if self.left.domain != self.apex or self.right.domain != self.apex:
            raise ValueError("span legs must share the apex as their domain")

    @property
    def feet(self) -> tuple[FiniteSet, FiniteSet]:
        return self.left.codomain, self.right.codomain


def span(left: SetFunction, right: SetFunction) -> Span:
    if left.domain != right.domain:
        raise ValueError("span legs must have equal domains")
    return Span(left.domain, left, right)


@dataclass(frozen=True)
class Cospan:
    """Two functions into a common corner."""

    left: SetFunction
    right: SetFunction

    def __post_init__(self) -> None:
        if self.left.codomain != self.right.codomain:
            raise ValueError("cospan legs must have equal codomains")

    @property
    def corner(self) -> FiniteSet:
        return self.left.codomain


@dataclass(frozen=True)
class CommutativeSquare:
    """A span and a cospan with matching feet whose two composites agree.

    Commutativity is checked at construction, on index tables by
    ``first_disagreement``, and the checked cospan is marked with its span
    (``_commutes_with``, a weak reference, not a field), which
    ``_require_commutes_with_span`` reads.  ``_unchecked`` bypasses the
    check and sets no mark; it is used by the gate ``pushouts._square``
    while a mutant is on, by doctored test squares, and by
    ``canonical_pushout`` for a cospan that was checked against the same
    span when the span kept it.
    """

    span: Span
    cospan: Cospan

    def __post_init__(self) -> None:
        culprit = first_disagreement(self.span, self.cospan)
        if culprit is not None:
            raise ValueError(f"square does not commute: {disagreement_text(culprit)}")
        object.__setattr__(self.cospan, "_commutes_with", weakref.ref(self.span))

    @classmethod
    def _unchecked(cls, span_: Span, cospan_: Cospan) -> "CommutativeSquare":
        """A square whose commutativity is not decided here and whose
        cospan gets no mark; the class docstring names its three uses."""
        sq = object.__new__(cls)
        object.__setattr__(sq, "span", span_)
        object.__setattr__(sq, "cospan", cospan_)
        return sq

    @property
    def corner(self) -> FiniteSet:
        return self.cospan.corner


def _kept(value: object, name: str, build: Callable[[], T]) -> T:
    """The fact ``name`` kept on an immutable value, built by ``build`` and
    kept as an attribute that is not a field the first time it is asked
    for.  A build that raises keeps nothing, so the next call decides
    again."""
    try:
        return getattr(value, name)
    except AttributeError:
        fact = build()
        object.__setattr__(value, name, fact)
        return fact


def _commutes(span_: Span, cospan_: Cospan) -> bool:
    """True when a checked square has marked the cospan with this very
    span; a mark only ever records a decided fact about two immutable
    values."""
    mark = getattr(cospan_, "_commutes_with", None)
    return mark is not None and mark() is span_


def first_disagreement(span_: Span, cospan_: Cospan) -> tuple[str, str, str] | None:
    """The first apex element whose corner images ``h.table[f.table[i]]``
    and ``k.table[g.table[i]]`` differ, with both images; None if the span
    and cospan commute.  No composite is built, but feet that do not match
    raise the ``CompositionError`` of ``compose``."""
    f, g = span_.left, span_.right
    h, k = cospan_.left, cospan_.right
    _require_composable(h, f)
    _require_composable(k, g)
    h_t, k_t = h.table, k.table
    for c, i, j in zip(span_.apex.elements, f.table, g.table):
        if h_t[i] != k_t[j]:
            return c, h.codomain.elements[h_t[i]], k.codomain.elements[k_t[j]]
    return None


def disagreement_text(culprit: tuple[str, str, str]) -> str:
    """How a ``first_disagreement`` culprit is reported."""
    return "apex element {!r} has images {!r} and {!r}".format(*culprit)


def pair_span(a: FiniteSet, b: FiniteSet, index_pairs: list[tuple[int, int]]) -> Span:
    """The span of projections out of the pairs ``(a[i], b[j])`` that the
    index pairs give: the apex is their names, sorted, and each leg's table
    is read off the (i, j) behind each apex element.

    A pair name is not injective (``("x,y", "z")`` and ``("x", "y,z")``
    are both ``(x,y,z)``), so a clash is refused with both pairs named.  All
    names are built in one ``pair_names`` pass, and they clash exactly when
    the dict from name to index pair is smaller than the list; only then
    does a second pass find the first pair whose name was already taken, to
    word the refusal.  Each leg's codomain is the foot itself, so an onto
    leg is its own surjective part under ``image_factorization``, and its
    inclusion is the identity of the foot.
    """
    a_names, b_names = a.elements, b.elements
    names = pair_names(a_names, b_names, index_pairs)
    by_name = dict(zip(names, index_pairs))
    if len(by_name) != len(names):
        first: dict[str, tuple[str, str]] = {}
        for name, (i, j) in zip(names, index_pairs):
            pair = (a_names[i], b_names[j])
            if name in first:
                raise PreconditionError(
                    f"pairs {first[name]!r} and {pair!r} both get the element name {name!r}"
                )
            first[name] = pair
    apex = FiniteSet(tuple(by_name))
    parts = [by_name[name] for name in apex.elements]
    left = SetFunction._of_table(apex, a, tuple([i for i, _ in parts]))
    return Span(apex, left, SetFunction._of_table(apex, b, tuple([j for _, j in parts])))


def pullback(cospan_: Cospan) -> Span:
    """Canonical pullback span: pairs with equal images, named ``"(a,b)"``,
    found by grouping k's domain by image once.  It commutes with the
    cospan by construction."""
    h, k = cospan_.left, cospan_.right
    over: dict[int, list[int]] = {}
    for j, d in enumerate(k.table):
        over.setdefault(d, []).append(j)
    pairs = [(i, j) for i, d in enumerate(h.table) for j in over.get(d, ())]
    return pair_span(h.domain, k.domain, pairs)


def kernel_pair(f: SetFunction) -> Span:
    """Pullback of f against itself: all pairs with the same image."""
    return pullback(Cospan(f, f))


def is_kernel_pair_trivial(f: SetFunction) -> bool:
    """True when the kernel pair of f is the diagonal (so f is injective)."""
    kp = kernel_pair(f)
    return kp.left.table == kp.right.table


@functools.lru_cache(maxsize=128)  # coproducts kept, one per pair of feet
def coproduct(a: FiniteSet, b: FiniteSet) -> tuple[FiniteSet, SetFunction, SetFunction]:
    """Tagged disjoint union with injections; tags ``l:`` and ``r:``, which
    keep each summand's order, so each injection's table is a run.

    Memoized on its feet: the routes, ``copair``, ``assemble_block`` and
    ``canonical_pushout`` ask for the same coproduct many times, and all
    three returned values are immutable, so equal feet share one build.
    """
    total = FiniteSet(tuple([tagged(LEFT, x) for x in a] + [tagged(RIGHT, x) for x in b]))
    inl = SetFunction._of_table(a, total, tuple(range(len(a))))
    inr = SetFunction._of_table(b, total, tuple(range(len(a), len(total))))
    return total, inl, inr


def copair(f: SetFunction, g: SetFunction) -> SetFunction:
    """The map out of the tagged coproduct restricting to f and g.

    The coproduct lists every ``l:`` element, in the order of f's domain,
    before every ``r:`` element, so the table is f's table then g's.
    """
    if f.codomain != g.codomain:
        raise CompositionError("copair requires a common codomain")
    total, _, _ = coproduct(f.domain, g.domain)
    return SetFunction._of_table(total, f.codomain, f.table + g.table)


def quotient_by_generated(a: FiniteSet, pairs: Iterable[tuple[int, int]]) -> SetFunction:
    """Quotient by the equivalence the index pairs generate: a union-find
    over the positions of a, with path halving inlined into the link loop,
    each class linked to its lowest position.  a is sorted, so that position
    is the least member, which names the class; the classes are a partition
    by construction, so none is checked.

    Halving and linking only ever point a position at a lower one, so
    ``parent[i] <= i`` throughout; in one ascending pass, then,
    ``parent[parent[i]]`` already holds the root of i when i is reached."""
    parent = list(range(len(a)))
    for i, j in pairs:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        while parent[j] != j:
            parent[j] = j = parent[parent[j]]
        if i < j:
            parent[j] = i
        elif j < i:
            parent[i] = j
    for i, p in enumerate(parent):
        parent[i] = parent[p]
    return image_factorization(SetFunction._of_table(a, a, tuple(parent)))[0]


def image_factorization(f: SetFunction) -> tuple[SetFunction, SetFunction]:
    """Surjection-followed-by-inclusion factorization of f.

    Image elements keep their codomain names, so the inclusion is literal:
    its table is the sorted positions f hits, and the surjection sends each
    element to the rank of its position among them.  An onto f is its own
    surjective part, returned as itself, and its inclusion is the identity
    of its codomain.
    """
    hit = sorted(set(f.table))
    if len(hit) == len(f.codomain):
        return f, identity(f.codomain)
    names = f.codomain.elements
    image = FiniteSet(tuple([names[j] for j in hit]))
    rank = {j: n for n, j in enumerate(hit)}
    onto = SetFunction._of_table(f.domain, image, tuple([rank[j] for j in f.table]))
    return onto, SetFunction._of_table(image, f.codomain, tuple(hit))


def canonical_pushout(span_: Span) -> CommutativeSquare:
    """Pushout of an arbitrary span: quotient of the tagged coproduct by the
    equivalence generated by ``l:left(c) ~ r:right(c)``, given by their
    positions in the coproduct.  The square is checked to commute.

    This is the unmutated reference colimit for the suites' corner checks,
    the CLI's AGREEMENT line and the sampled squares of ``enumeration``; the
    certified constructions and the verification oracles never call it.  It
    reads no mutant, so it is built once per span: the span keeps the
    cospan as ``_pushout``, checked against the span as it is kept, and
    every call wraps it in an ``_unchecked`` square.  The span keeps the
    cospan, not the square, because the square refers back to the span.
    """

    def reference_colimit() -> Cospan:
        total, inl, inr = coproduct(*span_.feet)
        left, right = inl.table, inr.table
        links = zip(span_.left.table, span_.right.table)
        q = quotient_by_generated(total, [(left[i], right[j]) for i, j in links])
        return CommutativeSquare(span_, Cospan(compose(q, inl), compose(q, inr))).cospan

    return CommutativeSquare._unchecked(span_, _kept(span_, "_pushout", reference_colimit))


def mediating_map(square: CommutativeSquare, candidate: Cospan) -> SetFunction:
    """The map from the square's corner to the candidate corner commuting
    with both cospans.

    Requires the square's cospan to determine the map (jointly epic corner,
    no conflicting constraints); both hold whenever the square is a pushout.
    The candidate is checked against the square's span unless a checked
    square marked it with that very span.  The map is built from index
    tables: each corner position is sent to the candidate position its
    first preimage is sent to, and names are read only to word a refusal.
    """
    _require_commutes_with_span(square.span, candidate)
    corner, names = square.corner, candidate.corner.elements
    assigned: dict[int, int] = {}
    images = square.cospan.left.table + square.cospan.right.table
    for image, target in zip(images, candidate.left.table + candidate.right.table):
        existing = assigned.setdefault(image, target)
        if existing != target:
            raise InternalInvariantError(
                "mediating-map",
                f"corner element {corner.elements[image]!r} is forced to both "
                f"{names[existing]!r} and {names[target]!r}; the square is not a pushout",
            )
    if len(assigned) != len(corner):
        unreached = next(d for d in range(len(corner)) if d not in assigned)
        raise InternalInvariantError(
            "mediating-map",
            f"corner element {corner.elements[unreached]!r} is not reached by either leg; "
            "the square is not a pushout",
        )
    table = tuple([assigned[d] for d in range(len(corner))])
    return SetFunction._of_table(corner, candidate.corner, table)


def canonical_comparison(square: CommutativeSquare, candidate: Cospan) -> SetFunction:
    """The unique map from the canonical pushout corner of the square's span
    to the candidate corner, commuting with both cospans.

    The square is a pushout exactly when this comparison (taking the
    candidate to be the square's own cospan) is a bijection.
    """
    canon = canonical_pushout(square.span)
    return mediating_map(canon, candidate)


def _require_commutes_with_span(span_: Span, candidate: Cospan) -> None:
    """Refuse a candidate that does not fit or commute with the span; a
    candidate that a checked square marked with this very span fits and
    commutes, so it returns at once."""
    if _commutes(span_, candidate):
        return
    if (
        candidate.left.domain != span_.left.codomain
        or candidate.right.domain != span_.right.codomain
    ):
        raise PreconditionError("candidate cospan does not fit the span's feet")
    culprit = first_disagreement(span_, candidate)
    if culprit is not None:
        raise PreconditionError(
            "candidate cospan does not commute with the span: "
            + disagreement_text(culprit)
        )


def all_functions(domain: FiniteSet, codomain: FiniteSet) -> Iterator[SetFunction]:
    """All total maps, in lexicographic table order."""
    for values in itertools.product(codomain.elements, repeat=len(domain)):
        yield SetFunction(domain, codomain, values)


def require_mono(f: SetFunction, role: str) -> None:
    if not is_mono(f):
        seen: dict[str, str] = {}
        for x, v in zip(f.domain.elements, f.values):
            if v in seen:
                raise NotMonoError(
                    f"{role} must be injective: {seen[v]!r} and {x!r} both map to {v!r}"
                )
            seen[v] = x


def require_epi(f: SetFunction, role: str) -> None:
    if not is_epi(f):
        missing = sorted(set(f.codomain.elements) - set(f.values))
        raise NotEpiError(f"{role} must be surjective: {missing[0]!r} is not hit")
