"""Brute-force verification oracles and machine-checkable certificates.

The pushout oracle builds the canonical colimit and tests whether the
comparison map onto the square's corner is a bijection; the pullback oracle
tests whether the apex's pairing map onto the fiber-product pair set is a
bijection; stability is decided fiberwise over the corner.  Each verdict
stores enough evidence to re-check it without recomputing the construction.

Slower, assumption-free cross-validators (raw universal-property
quantification; pulling back along every map up to a size bound) live at the
bottom; they exist so the fast oracles never have to be trusted.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import PreconditionError
from .fsets import (
    CommutativeSquare,
    Cospan,
    FiniteSet,
    SetFunction,
    Span,
    canonical_comparison,
    commuting_composites,
    compose,
    kernel_pair,
    fiber_pairs,
    pair_name,
    pullback,
)
from .relations import Relation, quotient_by_equivalence, span_to_relation

@dataclass(frozen=True)
class Verdict:
    """A boolean answer plus the element-level evidence for it: a witness
    when true, a counterexample when false."""

    ok: bool
    detail: str
    evidence: object = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class FiberReport:
    """The restriction of a square over one corner element, and whether that
    restriction is itself a pushout."""

    base_element: str
    fiber_square: CommutativeSquare
    fiber_is_pushout: Verdict


@dataclass(frozen=True)
class PushoutCertificate:
    """All verdicts about one square, with witnesses."""

    square: CommutativeSquare
    commutes: Verdict
    is_pushout: Verdict
    is_pullback: Verdict
    is_stable: Verdict
    jointly_epic: Verdict

    @property
    def ok(self) -> bool:
        return all(
            (
                self.commutes.ok,
                self.is_pushout.ok,
                self.is_pullback.ok,
                self.is_stable.ok,
                self.jointly_epic.ok,
            )
        )

    @property
    def fiber_reports(self) -> tuple[FiberReport, ...]:
        if isinstance(self.is_stable.evidence, tuple):
            return self.is_stable.evidence
        return ()


def commutes_verdict(square: CommutativeSquare) -> Verdict:
    """Recheck commutativity from the parts; tolerates unchecked squares."""
    left, right = commuting_composites(square.span, square.cospan)
    for c, u, v in zip(square.span.apex, left.values, right.values):
        if u != v:
            return Verdict(
                False,
                f"apex element {c!r} has images {u!r} and {v!r}",
                (c, u, v),
            )
    return Verdict(True, "both composites agree", left)


def _require_commuting(square: CommutativeSquare) -> None:
    verdict = commutes_verdict(square)
    if not verdict.ok:
        raise PreconditionError(f"square does not commute: {verdict.detail}")


def is_pushout_square(square: CommutativeSquare) -> Verdict:
    """Canonical-construction oracle: build the canonical pushout of the
    span and test whether the comparison onto the square's corner is a
    bijection."""
    _require_commuting(square)
    comparison = canonical_comparison(square, square.cospan)
    seen: dict[str, str] = {}
    for cls, image in zip(comparison.domain.elements, comparison.values):
        if image in seen:
            return Verdict(
                False,
                f"corner merges the distinct pushout classes {seen[image]!r} "
                f"and {cls!r} at {image!r}",
                (seen[image], cls, image),
            )
        seen[image] = cls
    unreached = [d for d in square.corner if d not in seen]
    if unreached:
        return Verdict(
            False,
            f"corner element {unreached[0]!r} is not reached from the span",
            unreached[0],
        )
    return Verdict(True, "comparison with the canonical pushout is a bijection", comparison)


def is_pullback_square(square: CommutativeSquare) -> Verdict:
    """Pairing-map oracle: the apex must biject onto the pairs with equal
    images under the cospan."""
    _require_commuting(square)
    pairs, _ = pullback(square.cospan)
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
    missing = [p for p in pairs.apex if p not in seen]
    if missing:
        return Verdict(
            False,
            f"pair {missing[0]} has equal images under the cospan but no apex element",
            missing[0],
        )
    pairing = SetFunction(square.span.apex, pairs.apex, names)
    return Verdict(True, "apex tabulates the cospan's fiber product", pairing)


def _fiber_square(square: CommutativeSquare, d: str) -> CommutativeSquare:
    h, k = square.cospan.left, square.cospan.right
    f, g = square.span.left, square.span.right
    at = square.corner.index(d)
    a_fiber = FiniteSet(tuple(a for a, t in zip(h.domain, h.table) if t == at))
    b_fiber = FiniteSet(tuple(b for b, t in zip(k.domain, k.table) if t == at))
    over = [h.table[i] == at for i in f.table]
    c_fiber = FiniteSet(tuple(c for c, keep in zip(f.domain, over) if keep))
    base = FiniteSet((d,))
    f_d = SetFunction(c_fiber, a_fiber, tuple(v for v, keep in zip(f.values, over) if keep))
    g_d = SetFunction(c_fiber, b_fiber, tuple(v for v, keep in zip(g.values, over) if keep))
    h_d = SetFunction(a_fiber, base, tuple(d for _ in a_fiber))
    k_d = SetFunction(b_fiber, base, tuple(d for _ in b_fiber))
    return CommutativeSquare(Span(c_fiber, f_d, g_d), Cospan(h_d, k_d))


def is_stable_pushout(
    square: CommutativeSquare,
) -> tuple[Verdict, tuple[FiberReport, ...]]:
    """Fiberwise stability: restrict the square over each corner element and
    require every restriction to be a pushout.

    Pulling the square back along any map into the corner yields the
    disjoint union of these fiber squares, and a disjoint union of pushout
    squares over their coproduct is again a pushout, so fiberwise suffices
    for stability under all pullbacks.  That reduction is itself
    cross-validated by ``stable_by_all_pullbacks``.
    """
    gate = is_pushout_square(square)
    if not gate.ok:
        raise PreconditionError(f"stability requires a pushout: {gate.detail}")
    reports = []
    for d in square.corner:
        fiber = _fiber_square(square, d)
        reports.append(FiberReport(d, fiber, is_pushout_square(fiber)))
    reports_t = tuple(reports)
    for report in reports_t:
        if not report.fiber_is_pushout.ok:
            return (
                Verdict(
                    False,
                    f"fiber over {report.base_element!r} is not a pushout: "
                    f"{report.fiber_is_pushout.detail}",
                    report,
                ),
                reports_t,
            )
    return Verdict(True, "every corner fiber is a pushout", reports_t), reports_t


def joint_epicity_verdict(cospan: Cospan) -> Verdict:
    cover: dict[str, str] = {}
    for leg, tag in ((cospan.left, "l"), (cospan.right, "r")):
        for x, image in zip(leg.domain, leg.values):
            cover.setdefault(image, f"{tag}:{x}")
    missing = [d for d in cospan.corner if d not in cover]
    if missing:
        return Verdict(
            False, f"corner element {missing[0]!r} is hit by neither leg", missing[0]
        )
    return Verdict(True, "legs jointly cover the corner", tuple(sorted(cover.items())))


def effectiveness_check(e: Relation) -> bool:
    """The kernel pair of the equivalence's quotient re-tabulates to the
    equivalence itself."""
    q = quotient_by_equivalence(e.source, e)
    return span_to_relation(kernel_pair(q)) == e


def certify(square: CommutativeSquare) -> PushoutCertificate:
    """Run all checks on one square, cascading failures: a square that does
    not commute cannot be a pushout, and a non-pushout cannot be stable."""
    commutes = commutes_verdict(square)
    if commutes.ok:
        po = is_pushout_square(square)
        pb = is_pullback_square(square)
        if po.ok:
            stable, _ = is_stable_pushout(square)
        else:
            stable = Verdict(
                False, f"not a pushout, so not a stable one: {po.detail}", po.evidence
            )
    else:
        po = Verdict(
            False, f"square does not commute: {commutes.detail}", commutes.evidence
        )
        pb = Verdict(
            False, f"square does not commute: {commutes.detail}", commutes.evidence
        )
        stable = Verdict(
            False, f"square does not commute: {commutes.detail}", commutes.evidence
        )
    return PushoutCertificate(
        square=square,
        commutes=commutes,
        is_pushout=po,
        is_pullback=pb,
        is_stable=stable,
        jointly_epic=joint_epicity_verdict(square.cospan),
    )


def recheck_certificate(cert: PushoutCertificate) -> bool:
    """Re-establish every true verdict from its stored evidence alone, with
    no reconstruction of canonical colimits."""
    square = cert.square
    if cert.commutes.ok:
        composite = cert.commutes.evidence
        if not isinstance(composite, SetFunction):
            return False
        left, right = commuting_composites(square.span, square.cospan)
        if composite != left or composite != right:
            return False
    if cert.is_pushout.ok:
        comparison = cert.is_pushout.evidence
        if not isinstance(comparison, SetFunction):
            return False
        if len(set(comparison.values)) != len(comparison.values):
            return False
        if set(comparison.values) != set(square.corner.elements):
            return False
    if cert.is_pullback.ok:
        pairing = cert.is_pullback.evidence
        if not isinstance(pairing, SetFunction):
            return False
        if len(set(pairing.values)) != len(pairing.values):
            return False
        f, g = square.span.left, square.span.right
        expected = tuple(pair_name(a, b) for a, b in zip(f.values, g.values))
        if pairing.domain != square.span.apex or pairing.values != expected:
            return False
    if cert.is_stable.ok:
        reports = cert.is_stable.evidence
        if not isinstance(reports, tuple):
            return False
        if {r.base_element for r in reports} != set(square.corner.elements):
            return False
        if not all(r.fiber_is_pushout.ok for r in reports):
            return False
    if cert.jointly_epic.ok:
        cover = dict(cert.jointly_epic.evidence)
        if set(cover) != set(square.corner.elements):
            return False
    return True


# ---------------------------------------------------------------------------
# Assumption-free cross-validators.


def _tables(square: CommutativeSquare) -> tuple[tuple[int, ...], ...]:
    """The four legs as index tables.  Callers check commutativity first,
    which composes h after f and k after g, so each span leg's codomain is
    the domain of the cospan leg it meets and the indexes line up."""
    return (
        square.span.left.table,
        square.span.right.table,
        square.cospan.left.table,
        square.cospan.right.table,
    )


def pushout_by_universal_property(
    square: CommutativeSquare, max_test_size: int = 4
) -> bool:
    """Raw oracle: for every test cospan into every set of size up to the
    bound that commutes with the span, exactly one mediating map out of the
    corner must exist.

    Computed by exact counting: every map out of the corner induces a
    commuting test cospan, so the requirement is that this assignment is
    injective and hits every commuting cospan.  No canonical colimit is
    constructed; ``pushout_by_universal_property_bruteforce`` is the literal
    per-cospan quantification used to validate this validator.
    """
    _require_commuting(square)
    f_t, g_t, h_t, k_t = _tables(square)
    n_a, n_b, n_d = len(h_t), len(k_t), len(square.corner)
    for size in range(max_test_size + 1):
        elements = range(size)
        induced: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
        for m in itertools.product(elements, repeat=n_d):
            key = (
                tuple(m[i] for i in h_t),
                tuple(m[j] for j in k_t),
            )
            if key in induced:
                return False
            induced.add(key)
        right_keys: dict[tuple[int, ...], int] = {}
        for v in itertools.product(elements, repeat=n_b):
            key_v = tuple(v[j] for j in g_t)
            right_keys[key_v] = right_keys.get(key_v, 0) + 1
        commuting = 0
        for u in itertools.product(elements, repeat=n_a):
            commuting += right_keys.get(tuple(u[i] for i in f_t), 0)
        if commuting != len(induced):
            return False
    return True


def pushout_by_universal_property_bruteforce(
    square: CommutativeSquare, max_test_size: int = 3
) -> bool:
    """The same quantification, spelled out one test cospan at a time with
    mediating maps enumerated by brute force.  Slow; for cross-checks."""
    _require_commuting(square)
    f_t, g_t, h_t, k_t = _tables(square)
    n_a, n_b, n_d = len(h_t), len(k_t), len(square.corner)
    for size in range(max_test_size + 1):
        elements = range(size)
        for u in itertools.product(elements, repeat=n_a):
            for v in itertools.product(elements, repeat=n_b):
                if any(u[f_t[c]] != v[g_t[c]] for c in range(len(f_t))):
                    continue
                count = 0
                for m in itertools.product(elements, repeat=n_d):
                    if all(m[h_t[i]] == u[i] for i in range(n_a)) and all(
                        m[k_t[j]] == v[j] for j in range(n_b)
                    ):
                        count += 1
                        if count > 1:
                            break
                if count != 1:
                    return False
    return True


def pullback_by_universal_property(
    square: CommutativeSquare, max_apex_size: int = 3
) -> bool:
    """Raw oracle for pullbacks: every commuting test span over the cospan,
    with apex up to the bound, factors uniquely through the square's apex."""
    _require_commuting(square)
    f_t, g_t, h_t, k_t = _tables(square)
    n_a, n_b, n_c = len(h_t), len(k_t), len(f_t)
    for size in range(max_apex_size + 1):
        test = range(size)
        for u in itertools.product(range(n_a), repeat=size):
            for v in itertools.product(range(n_b), repeat=size):
                if any(h_t[u[t]] != k_t[v[t]] for t in test):
                    continue
                count = 0
                for m in itertools.product(range(n_c), repeat=size):
                    if all(f_t[m[t]] == u[t] and g_t[m[t]] == v[t] for t in test):
                        count += 1
                        if count > 1:
                            break
                if count != 1:
                    return False
    return True


def pull_square_back(square: CommutativeSquare, x: SetFunction) -> CommutativeSquare:
    """Base-change the whole square along a map into its corner."""
    if x.codomain != square.corner:
        raise PreconditionError("base change must target the square's corner")
    f, g = square.span.left, square.span.right
    h, k = square.cospan.left, square.cospan.right
    a2, a2_parts = fiber_pairs(h, x)
    b2, b2_parts = fiber_pairs(k, x)
    c2, c2_parts = fiber_pairs(compose(h, f), x)
    f_at, g_at = f.as_dict, g.as_dict
    f2 = SetFunction(c2, a2, tuple([pair_name(f_at[c], t) for c, t in c2_parts]))
    g2 = SetFunction(c2, b2, tuple([pair_name(g_at[c], t) for c, t in c2_parts]))
    h2 = SetFunction(a2, x.domain, tuple([t for _, t in a2_parts]))
    k2 = SetFunction(b2, x.domain, tuple([t for _, t in b2_parts]))
    return CommutativeSquare(Span(c2, f2, g2), Cospan(h2, k2))


def stable_by_all_pullbacks(square: CommutativeSquare, max_size: int = 3) -> bool:
    """Cross-validator for the fiberwise reduction: base-change along every
    map from every set of size up to the bound and test the pushout oracle
    on the result."""
    from .fsets import all_functions

    for size in range(max_size + 1):
        base = FiniteSet(tuple(f"t{i}" for i in range(1, size + 1)))
        for x in all_functions(base, square.corner):
            if not is_pushout_square(pull_square_back(square, x)).ok:
                return False
    return True
