"""Finite pointed sets as a thin layer over the plain constructions.

Pushouts are connected colimits, so a pointed pushout is computed on the
underlying sets and the corner is re-pointed at the image of the basepoints;
no colimit code is duplicated.  The one-point pointed set is a zero object
(initial and terminal), and the initial object is deliberately not strict,
which ``zero_object_checks`` witnesses explicitly.

Canonical enumeration fixes the basepoint name to ``*``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from . import mutants
from .enumeration import random_relation
from .errors import PreconditionError
from .fsets import (
    Cospan,
    FiniteSet,
    SetFunction,
    Span,
    all_functions,
    is_iso,
    pair_name,
    pullback,
)
from .pushouts import (
    MalcevPushoutResult,
    _block_quotient,
    malcev_pushout_direct,
    require_malcev,
)
from .relations import Relation, difunctional_closure, span_to_relation, tabulate

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
    apex: PointedSet
    left: PointedMap
    right: PointedMap

    def __post_init__(self) -> None:
        if self.left.domain != self.apex or self.right.domain != self.apex:
            raise ValueError("pointed span legs must share the apex")

    @property
    def underlying(self) -> Span:
        return Span(self.apex.carrier, self.left.function, self.right.function)


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
    exactly that guarantee.
    """
    s = ps.underlying
    if mutants.active(mutants.DROP_BASEPOINT):
        result = _pushout_without_basepoint_link(ps)
    else:
        result = malcev_pushout_direct(s)
    a_pointed, b_pointed = ps.left.codomain, ps.right.codomain
    corner = PointedSet(result.corner, result.h(a_pointed.basepoint))
    h = PointedMap(a_pointed, corner, result.h)
    if result.k(b_pointed.basepoint) == corner.basepoint:
        k = PointedMap(b_pointed, corner, result.k)
    else:
        k = PointedMap._unchecked(b_pointed, corner, result.k)
    return PointedPushoutResult(underlying=result, corner=corner, h=h, k=k)


def _pushout_without_basepoint_link(ps: PointedSpan) -> MalcevPushoutResult:
    s = ps.underlying
    require_malcev(s)
    base_pair = (ps.left.codomain.basepoint, ps.right.codomain.basepoint)
    r = span_to_relation(s)
    mutated = Relation.from_pairs(
        r.source, r.target, (p for p in r.pairs() if p != base_pair)
    )
    return _block_quotient(s, mutated)


def pointed_pullback(f: PointedMap, g: PointedMap) -> tuple[PointedSpan, PointedSet]:
    """Pullback in pointed sets: the underlying pullback pointed at the pair
    of basepoints."""
    if f.codomain != g.codomain:
        raise PreconditionError("pointed pullback needs a common codomain")
    s, _ = pullback(Cospan(f.function, g.function))
    apex = PointedSet(s.apex, pair_name(f.domain.basepoint, g.domain.basepoint))
    left = PointedMap(apex, f.domain, s.left)
    right = PointedMap(apex, g.domain, s.right)
    return PointedSpan(apex, left, right), apex


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


def random_pointed_span(
    rng: random.Random, max_size: int
) -> tuple[str, PointedSpan]:
    """A seeded pointed Mal'cev span: tabulate a difunctional relation that
    relates the basepoints, and point the tabulation at that pair."""
    m, n = rng.randint(1, max_size), rng.randint(1, max_size)
    a = canonical_pointed_set(m)
    b = canonical_pointed_set(n)
    raw = random_relation(rng, a.carrier, b.carrier, density=0.3)
    with_base = Relation.from_pairs(
        a.carrier,
        b.carrier,
        list(raw.pairs()) + [(a.basepoint, b.basepoint)],
    )
    r = difunctional_closure(with_base)
    return f"pointed |A|={m},|B|={n} R={r!r}", pointed_span_from_relation(a, b, r)


def pointed_span_from_relation(
    a: PointedSet, b: PointedSet, r: Relation
) -> PointedSpan:
    """Tabulation of a basepoint-relating relation, pointed at the basepoint
    pair."""
    if not r.holds(a.basepoint, b.basepoint):
        raise PreconditionError(
            "relation must relate the basepoints for its tabulation to be pointed"
        )
    s = tabulate(r)
    apex = PointedSet(s.apex, pair_name(a.basepoint, b.basepoint))
    left = PointedMap(apex, a, s.left)
    right = PointedMap(apex, b, s.right)
    return PointedSpan(apex, left, right)
