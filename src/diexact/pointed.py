"""Finite pointed sets as a thin layer over the plain constructions.

Pushouts are connected colimits, so a pointed pushout is computed on the
underlying sets and the corner is re-pointed at the image of the basepoints;
no colimit code is duplicated.  The one-point pointed set is a zero object
(initial and terminal), and the initial object is deliberately not strict,
which ``zero_object_checks`` witnesses explicitly.

A canonical pointed set is ``*, x1, x2, ...``: the basepoint is named
``*`` and listed first, which is where the pointed corpus of
``enumeration.malcev_corpus`` looks for it.  This module draws nothing.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from typing import Iterator

from . import mutants
from .errors import PreconditionError
from .fsets import (
    Cospan,
    FiniteSet,
    SetFunction,
    Span,
    _kept,
    all_functions,
    is_iso,
    pullback,
)
from .names import pair_name
from .pushouts import (
    MalcevPushoutResult,
    _block_quotient,
    malcev_pushout_direct,
    require_malcev,
)
from .relations import Relation, tabulate

BASEPOINT = "*"


@dataclass(frozen=True)
class PointedSet:
    carrier: FiniteSet
    basepoint: str

    def __post_init__(self) -> None:
        if self.basepoint not in self.carrier:
            raise ValueError(
                f"basepoint {self.basepoint!r} is not in the carrier {self.carrier}"
            )

    def __len__(self) -> int:
        return len(self.carrier)


@dataclass(frozen=True)
class PointedMap:
    domain: PointedSet
    codomain: PointedSet
    function: SetFunction

    def __post_init__(self) -> None:
        if self.function.domain != self.domain.carrier:
            raise ValueError("underlying function does not start at the domain carrier")
        if self.function.codomain != self.codomain.carrier:
            raise ValueError("underlying function does not land in the codomain carrier")
        if self.function(self.domain.basepoint) != self.codomain.basepoint:
            raise ValueError(
                f"map sends basepoint {self.domain.basepoint!r} to "
                f"{self.function(self.domain.basepoint)!r}, not the basepoint "
                f"{self.codomain.basepoint!r}"
            )

    @classmethod
    def _unchecked(
        cls, domain: PointedSet, codomain: PointedSet, function: SetFunction
    ) -> "PointedMap":
        pm = object.__new__(cls)
        object.__setattr__(pm, "domain", domain)
        object.__setattr__(pm, "codomain", codomain)
        object.__setattr__(pm, "function", function)
        return pm

    def __call__(self, name: str) -> str:
        return self.function(name)


@dataclass(frozen=True)
class PointedSpan:
    """A span of pointed maps.  Its underlying span may be given at
    construction: it must be the span of the legs' functions, and a
    pointed span of pairs is given the span it was made from, with every
    fact already kept on that span."""

    apex: PointedSet
    left: PointedMap
    right: PointedMap
    given: InitVar[Span | None] = None

    def __post_init__(self, given: Span | None) -> None:
        if self.left.domain != self.apex or self.right.domain != self.apex:
            raise ValueError("pointed span legs must share the apex")
        if given is not None:
            if given != Span(self.apex.carrier, self.left.function, self.right.function):
                raise ValueError("given span is not the span of the pointed legs")
            object.__setattr__(self, "_underlying", given)

    @property
    def underlying(self) -> Span:
        """Built once, so every route and check shares one span and its
        relation."""
        return _kept(
            self,
            "_underlying",
            lambda: Span(self.apex.carrier, self.left.function, self.right.function),
        )


@dataclass(frozen=True)
class PointedPushoutResult:
    """Underlying pushout data plus the re-pointed corner and legs."""

    underlying: MalcevPushoutResult
    corner: PointedSet
    h: PointedMap
    k: PointedMap


def pointed_malcev_pushout(ps: PointedSpan) -> PointedPushoutResult:
    """Pushout of a pointed Mal'cev span: the underlying pushout with the
    corner pointed at the (shared) image of the basepoints.

    Both legs send basepoints to basepoints and the square commutes, so the
    image is well defined.  The drop-basepoint-link mutant removes the
    basepoint pair from the relation before quotienting, which breaks
    exactly that guarantee; so, like the route squares of ``pushouts``, the
    right leg is checked to preserve the basepoint unless a mutant is on.
    """
    s = ps.underlying
    if mutants.active(mutants.DROP_BASEPOINT):
        result = _pushout_without_basepoint_link(ps)
    else:
        result = malcev_pushout_direct(s)
    a_pointed, b_pointed = ps.left.codomain, ps.right.codomain
    corner = PointedSet(result.corner, result.h(a_pointed.basepoint))
    h = PointedMap(a_pointed, corner, result.h)
    k_map = PointedMap._unchecked if mutants.active() else PointedMap
    k = k_map(b_pointed, corner, result.k)
    return PointedPushoutResult(underlying=result, corner=corner, h=h, k=k)


def _pushout_without_basepoint_link(ps: PointedSpan) -> MalcevPushoutResult:
    s = ps.underlying
    r = require_malcev(s)
    base_pair = (ps.left.codomain.basepoint, ps.right.codomain.basepoint)
    mutated = Relation.from_pairs(
        r.source, r.target, (p for p in r.pairs() if p != base_pair)
    )
    return _block_quotient(s, mutated)


def pointed_pullback(f: PointedMap, g: PointedMap) -> PointedSpan:
    """Pullback in pointed sets: the underlying pullback pointed at the pair
    of basepoints."""
    if f.codomain != g.codomain:
        raise PreconditionError("pointed pullback needs a common codomain")
    return _pointed_at_base_pair(pullback(Cospan(f.function, g.function)), f.domain, g.domain)


def _pointed_at_base_pair(s: Span, a: PointedSet, b: PointedSet) -> PointedSpan:
    """A span of pairs between the carriers of a and b, pointed at the pair
    of their basepoints.  Its underlying span is given as s itself, so a
    relation already kept on s (as ``tabulate`` keeps it) is not built
    again."""
    apex = PointedSet(s.apex, pair_name(a.basepoint, b.basepoint))
    return PointedSpan(apex, PointedMap(apex, a, s.left), PointedMap(apex, b, s.right), s)


def zero_object() -> PointedSet:
    return PointedSet(FiniteSet((BASEPOINT,)), BASEPOINT)


def pointed_maps_between(x: PointedSet, y: PointedSet) -> Iterator[PointedMap]:
    """All basepoint-preserving maps, by brute enumeration."""
    for f in all_functions(x.carrier, y.carrier):
        if f(x.basepoint) == y.basepoint:
            yield PointedMap(x, y, f)


def canonical_pointed_set(size: int) -> PointedSet:
    if size < 1:
        raise ValueError("a pointed set needs at least its basepoint")
    carrier = FiniteSet((BASEPOINT,) + tuple(f"x{i}" for i in range(1, size)))
    return PointedSet(carrier, BASEPOINT)


@dataclass(frozen=True)
class ZeroObjectReport:
    """Evidence that the one-point pointed set is initial and terminal, and
    that initiality is not strict."""

    max_size: int
    failures: tuple[str, ...]
    strictness_witness: str

    @property
    def ok(self) -> bool:
        return bool(self.strictness_witness) and not self.failures


def zero_object_checks(max_size: int = 5) -> ZeroObjectReport:
    zero = zero_object()
    failures = []
    for size in range(1, max_size + 1):
        x = canonical_pointed_set(size)
        outgoing = sum(1 for _ in pointed_maps_between(zero, x))
        incoming = sum(1 for _ in pointed_maps_between(x, zero))
        if outgoing != 1:
            failures.append(f"{outgoing} pointed maps from the point to size {size}")
        if incoming != 1:
            failures.append(f"{incoming} pointed maps from size {size} to the point")
    witness = ""
    size = min(3, max_size)
    if size >= 2:
        x = canonical_pointed_set(size)
        to_zero = next(iter(pointed_maps_between(x, zero)))
        endo_count = sum(1 for _ in pointed_maps_between(x, x))
        if not is_iso(to_zero.function) and endo_count > 1:
            witness = (
                f"size-{size} pointed set is not initial ({endo_count} endomaps) "
                f"yet maps to the point; that map {to_zero.function!r} is not an "
                "isomorphism, so the initial object is not strict"
            )
        else:
            failures.append("strictness counterexample unexpectedly missing")
    return ZeroObjectReport(max_size=max_size, failures=tuple(failures), strictness_witness=witness)


def pointed_span_from_relation(
    a: PointedSet, b: PointedSet, r: Relation
) -> PointedSpan:
    """Tabulation of a basepoint-relating relation, pointed at the basepoint
    pair."""
    if not r.holds(a.basepoint, b.basepoint):
        raise PreconditionError(
            "relation must relate the basepoints for its tabulation to be pointed"
        )
    return _pointed_at_base_pair(tabulate(r), a, b)
