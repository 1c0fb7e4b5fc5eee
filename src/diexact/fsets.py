"""Finite sets, functions, and the small-diagram toolkit.

Every value is immutable and canonically represented: a ``FiniteSet`` keeps
its elements sorted, functions are extensional tables aligned with that
order, and constructed objects (pullbacks, coproducts, quotients) use
deterministic element names, so equal constructions compare equal and
reports diff cleanly.

A ``SetFunction`` also carries ``table``, the codomain index of each value,
built by the same pass that checks the values lie in the codomain.
Composites, pullbacks and the oracles read values and tables by position;
``f(x)`` looks a name up and is for callers outside those loops.

Naming conventions for constructed elements:

* pullback / tabulation elements are ``"(a,b)"``;
* coproduct elements are tagged ``"l:a"`` / ``"r:b"``;
* quotient classes are named by their lexicographically least member.

Constructed elements get these names only here, from ``pair_name``,
``coproduct`` and ``quotient_by_partition``; other modules call those
functions and spell no such name themselves.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from . import mutants
from .errors import (
    CompositionError,
    InternalInvariantError,
    NotEpiError,
    NotMonoError,
    PreconditionError,
)


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


@dataclass(frozen=True)
class SetFunction:
    """A total map between finite sets, stored as its values in domain
    order.  Equality compares domain, codomain and values; there is no
    intensional view.

    ``table[i]`` is the codomain position of ``values[i]``.  It is derived
    from the fields, so it takes no part in equality, hashing or ``repr``.
    """

    domain: FiniteSet
    codomain: FiniteSet
    values: tuple[str, ...]

    def __post_init__(self) -> None:
        values = tuple(self.values)
        object.__setattr__(self, "values", values)
        if len(values) != len(self.domain):
            raise ValueError(
                f"function table has {len(values)} entries for a domain "
                f"of size {len(self.domain)}"
            )
        index = self.codomain._index
        try:
            table = tuple([index[value] for value in values])
        except KeyError:
            value = next(v for v in values if v not in index)
            raise ValueError(
                f"value {value!r} is not in the codomain {self.codomain}"
            ) from None
        object.__setattr__(self, "table", table)

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
        return self.values[self.domain.index(name)]

    @property
    def as_dict(self) -> dict[str, str]:
        return dict(zip(self.domain.elements, self.values))

    def __repr__(self) -> str:
        table = ", ".join(f"{a} |-> {b}" for a, b in zip(self.domain.elements, self.values))
        return "{" + table + "}"


def identity(a: FiniteSet) -> SetFunction:
    return SetFunction(a, a, a.elements)


def compose(g: SetFunction, f: SetFunction) -> SetFunction:
    """Pointwise composite g after f."""
    if f.codomain != g.domain:
        raise CompositionError(
            f"cannot compose: codomain {f.codomain} != domain {g.domain}"
        )
    values = g.values
    return SetFunction(f.domain, g.codomain, tuple([values[i] for i in f.table]))


def is_mono(f: SetFunction) -> bool:
    return len(set(f.values)) == len(f.values)


def is_epi(f: SetFunction) -> bool:
    return set(f.values) == set(f.codomain.elements)


def is_iso(f: SetFunction) -> bool:
    return is_mono(f) and is_epi(f)


def inverse(f: SetFunction) -> SetFunction:
    if not is_iso(f):
        raise PreconditionError(f"cannot invert non-bijective function {f}")
    table = {v: a for a, v in zip(f.domain.elements, f.values)}
    return SetFunction(f.codomain, f.domain, tuple(table[b] for b in f.codomain))


def pair_name(a: str, b: str) -> str:
    return f"({a},{b})"


def pair_set(
    pairs: Iterable[tuple[str, str]],
) -> tuple[FiniteSet, tuple[tuple[str, str], ...]]:
    """The set of the pairs' names, and the pair behind each of its elements
    in carrier order.

    ``pair_name`` is not injective (``("x,y", "z")`` and ``("x", "y,z")``
    are both ``(x,y,z)``), so a clash is refused with both pairs named.
    """
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


@dataclass(frozen=True)
class Span:
    """Two functions out of a common apex.  Joint monicity is a predicate on
    spans, not an invariant of the type."""

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

    Commutativity is checked at construction; mutants and doctored test
    squares may bypass it via ``_unchecked``.
    """

    span: Span
    cospan: Cospan

    def __post_init__(self) -> None:
        left, right = commuting_composites(self.span, self.cospan)
        if left != right:
            culprit = next(
                c
                for c, u, v in zip(self.span.apex, left.values, right.values)
                if u != v
            )
            raise ValueError(
                f"square does not commute: apex element {culprit!r} has images "
                f"{left(culprit)!r} and {right(culprit)!r}"
            )

    @classmethod
    def _unchecked(cls, span_: Span, cospan_: Cospan) -> "CommutativeSquare":
        sq = object.__new__(cls)
        object.__setattr__(sq, "span", span_)
        object.__setattr__(sq, "cospan", cospan_)
        return sq

    @property
    def corner(self) -> FiniteSet:
        return self.cospan.corner


def commuting_composites(span_: Span, cospan_: Cospan) -> tuple[SetFunction, SetFunction]:
    """Both apex-to-corner composites of a would-be square."""
    return compose(cospan_.left, span_.left), compose(cospan_.right, span_.right)


def fiber_pairs(
    h: SetFunction, k: SetFunction
) -> tuple[FiniteSet, tuple[tuple[str, str], ...]]:
    """``pair_set`` of the pairs (a, b) with ``h(a) == k(b)``.

    k's domain is grouped by image once, so each element of h's domain
    meets only the elements over its own image.
    """
    over: dict[int, list[str]] = {}
    for b, d in zip(k.domain.elements, k.table):
        over.setdefault(d, []).append(b)
    return pair_set(
        (a, b) for a, d in zip(h.domain.elements, h.table) for b in over.get(d, ())
    )


def pullback(cospan_: Cospan) -> tuple[Span, CommutativeSquare]:
    """Canonical pullback: pairs with equal images, named ``"(a,b)"``."""
    h, k = cospan_.left, cospan_.right
    apex, parts = fiber_pairs(h, k)
    proj_a = SetFunction(apex, h.domain, tuple([a for a, _ in parts]))
    proj_b = SetFunction(apex, k.domain, tuple([b for _, b in parts]))
    s = Span(apex, proj_a, proj_b)
    return s, CommutativeSquare(s, cospan_)


def kernel_pair(f: SetFunction) -> Span:
    """Pullback of f against itself: all pairs with the same image."""
    s, _ = pullback(Cospan(f, f))
    return s


def is_kernel_pair_trivial(f: SetFunction) -> bool:
    """True when the kernel pair of f is the diagonal (so f is injective)."""
    kp = kernel_pair(f)
    return kp.left.table == kp.right.table


def coproduct(a: FiniteSet, b: FiniteSet) -> tuple[FiniteSet, SetFunction, SetFunction]:
    """Tagged disjoint union with injections; tags ``l:`` and ``r:``."""
    left = tuple([f"l:{x}" for x in a.elements])
    right = tuple([f"r:{x}" for x in b.elements])
    total = FiniteSet(left + right)
    return total, SetFunction(a, total, left), SetFunction(b, total, right)


def copair(f: SetFunction, g: SetFunction) -> SetFunction:
    """The map out of the tagged coproduct restricting to f and g.

    The coproduct lists every ``l:`` element, in the order of f's domain,
    before every ``r:`` element, so the table is f's values then g's.
    """
    if f.codomain != g.codomain:
        raise CompositionError("copair requires a common codomain")
    total, _, _ = coproduct(f.domain, g.domain)
    return SetFunction(total, f.codomain, f.values + g.values)


def quotient_by_partition(
    a: FiniteSet, blocks: Iterable[Sequence[str]]
) -> SetFunction:
    """Surjection onto the set of blocks, each named by its least member."""
    block_list = [tuple(sorted(block)) for block in blocks]
    seen = [x for block in block_list for x in block]
    if sorted(seen) != list(a.elements):
        raise ValueError(f"blocks do not partition {a}")
    names = {x: block[0] for block in block_list for x in block}
    target = FiniteSet(tuple(sorted({block[0] for block in block_list})))
    return SetFunction(a, target, tuple(names[x] for x in a))


def generated_partition(
    elements: Sequence[str],
    pairs: Iterable[tuple[str, str]],
) -> list[tuple[str, ...]]:
    """Partition into the classes of the equivalence the pairs generate
    (union-find: the reflexive-symmetric-transitive closure)."""
    parent = {x: x for x in elements}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in pairs:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    classes: dict[str, list[str]] = {}
    for x in elements:
        classes.setdefault(find(x), []).append(x)
    return [tuple(sorted(block)) for block in classes.values()]


def quotient_by_generated(a: FiniteSet, pairs: Iterable[tuple[str, str]]) -> SetFunction:
    """Quotient by the equivalence the pairs generate.

    Under the nonsymmetric-closure mutant the "classes" need not partition
    the set; each element is then sent to the least name of its
    forward-closure, which is exactly the deliberately wrong behaviour the
    suites must catch.
    """
    if not mutants.active(mutants.NONSYMMETRIC):
        return quotient_by_partition(a, generated_partition(a.elements, pairs))
    succ: dict[str, set[str]] = {x: {x} for x in a}
    for u, v in pairs:
        succ[u].add(v)
    names = {}
    for x in a:
        reach, frontier = {x}, [x]
        while frontier:
            y = frontier.pop()
            for z in succ[y]:
                if z not in reach:
                    reach.add(z)
                    frontier.append(z)
        names[x] = min(reach)
    target = FiniteSet(tuple(sorted(set(names.values()))))
    return SetFunction(a, target, tuple(names[x] for x in a))


def image_factorization(f: SetFunction) -> tuple[SetFunction, SetFunction]:
    """Surjection-followed-by-inclusion factorization of f.

    Image elements keep their codomain names, so the inclusion is literal.
    """
    image = FiniteSet(tuple(sorted(set(f.values))))
    e = SetFunction(f.domain, image, f.values)
    m = SetFunction(image, f.codomain, image.elements)
    return e, m


def canonical_pushout(span_: Span) -> CommutativeSquare:
    """Pushout of an arbitrary span: quotient of the tagged coproduct by the
    equivalence generated by ``l:left(c) ~ r:right(c)``.

    This is the raw colimit used by the verification oracles; the certified
    constructions never call it.  The nonsymmetric-closure mutant skips the
    commutativity check.
    """
    a_set, b_set = span_.feet
    total, inl, inr = coproduct(a_set, b_set)
    gens = [
        (inl.values[i], inr.values[j])
        for i, j in zip(span_.left.table, span_.right.table)
    ]
    q = quotient_by_generated(total, gens)
    h = compose(q, inl)
    k = compose(q, inr)
    cospan_ = Cospan(h, k)
    if mutants.active(mutants.NONSYMMETRIC):
        return CommutativeSquare._unchecked(span_, cospan_)
    return CommutativeSquare(span_, cospan_)


def mediating_map(square: CommutativeSquare, candidate: Cospan) -> SetFunction:
    """The map from the square's corner to the candidate corner commuting
    with both cospans.

    Requires the square's cospan to determine the map (jointly epic corner,
    no conflicting constraints); both hold whenever the square is a pushout.
    """
    _require_commutes_with_span(square.span, candidate)
    corner = square.corner
    assigned: dict[str, str] = {}
    for leg, cleg in (
        (square.cospan.left, candidate.left),
        (square.cospan.right, candidate.right),
    ):
        for image, target in zip(leg.values, cleg.values):
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


def canonical_comparison(square: CommutativeSquare, candidate: Cospan) -> SetFunction:
    """The unique map from the canonical pushout corner of the square's span
    to the candidate corner, commuting with both cospans.

    The square is a pushout exactly when this comparison (taking the
    candidate to be the square's own cospan) is a bijection.
    """
    canon = canonical_pushout(square.span)
    return mediating_map(canon, candidate)


def _require_commutes_with_span(span_: Span, candidate: Cospan) -> None:
    if (
        candidate.left.domain != span_.left.codomain
        or candidate.right.domain != span_.right.codomain
    ):
        raise PreconditionError("candidate cospan does not fit the span's feet")
    left, right = commuting_composites(span_, candidate)
    if left != right:
        culprit = next(
            c for c, u, v in zip(span_.apex, left.values, right.values) if u != v
        )
        raise PreconditionError(
            f"candidate cospan does not commute with the span: apex element "
            f"{culprit!r} has images {left(culprit)!r} and {right(culprit)!r}"
        )


def all_functions(domain: FiniteSet, codomain: FiniteSet) -> Iterator[SetFunction]:
    """All total maps, in lexicographic table order."""
    if len(domain) == 0:
        yield SetFunction(domain, codomain, ())
        return
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
