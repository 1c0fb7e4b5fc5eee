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
    CommutativeSquare,
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
from .pushouts import _block_quotient, malcev_pushout_direct, require_malcev
from .relations import Relation, tabulate

BASEPOINT = "*"
ZERO_OBJECT_BOUND = 5  # largest pointed set whose zero-object facts P0 checks


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
            legs = (self.apex.carrier, self.left.function, self.right.function)
            if (given.apex, given.left, given.right) != legs:
                raise ValueError("given span is not the span of the pointed legs")
            _kept(self, "_underlying", lambda: given)

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
    """The underlying pushout square plus the re-pointed corner and legs."""

    square: CommutativeSquare
    corner: PointedSet
    h: PointedMap
    k: PointedMap


def pointed_malcev_pushout(
    ps: PointedSpan, square: CommutativeSquare | None = None
) -> PointedPushoutResult:
    """Pushout of a pointed Mal'cev span: the underlying pushout with the
    corner pointed at the (shared) image of the basepoints.

    ``square``, when given, is the direct route's square on the underlying
    span, and the route re-points it instead of building it again; the
    suites build it once and also compare it with the pointed corner.  A
    square of any other span is refused.  Both legs send basepoints to
    basepoints and the square commutes, so the image is well defined.  The
    drop-basepoint-link mutant ignores ``square`` and removes the basepoint
    pair from the relation before quotienting, which breaks exactly that
    guarantee; so, like the route squares of ``pushouts``, the right leg is
    checked to preserve the basepoint unless a mutant is on.
    """
    if square is not None and square.span != ps.underlying:
        raise PreconditionError("given square is not on the pointed span's underlying span")
    if mutants.active(mutants.DROP_BASEPOINT):
        square = _pushout_without_basepoint_link(ps)
    elif square is None:
        square = malcev_pushout_direct(ps.underlying).square
    h_set, k_set = square.cospan.left, square.cospan.right
    a_pointed, b_pointed = ps.left.codomain, ps.right.codomain
    corner = PointedSet(square.corner, h_set(a_pointed.basepoint))
    h = PointedMap(a_pointed, corner, h_set)
    k_map = PointedMap._unchecked if mutants.active() else PointedMap
    k = k_map(b_pointed, corner, k_set)
    return PointedPushoutResult(square=square, corner=corner, h=h, k=k)


def _pushout_without_basepoint_link(ps: PointedSpan) -> CommutativeSquare:
    s = ps.underlying
    r = require_malcev(s)
    a, b = ps.left.codomain.basepoint, ps.right.codomain.basepoint
    rows = list(r.rows)
    rows[r.source.index(a)] &= ~(1 << r.target.index(b))
    return _block_quotient(s, Relation._of_rows(r.source, r.target, tuple(rows))).square


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


def zero_object_checks(max_size: int = ZERO_OBJECT_BOUND) -> ZeroObjectReport:
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
