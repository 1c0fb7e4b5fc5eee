"""Verification oracles, machine-checkable certificates and the
assumption-free cross-validators that check the oracles.

The pushout oracle forms the classes of A + B with one union-find over the
legs' index tables and tests whether the comparison map from those classes
onto the square's corner is a bijection; it builds no colimit, so it shares
no code with the constructions.  The pullback oracle tests whether the
apex's pairing map onto the fiber-product pair set is a bijection.
Stability is decided fiberwise over the corner, and its evidence is the
pushout oracle's comparison: one class of A + B lies over each corner
element.  Each verdict stores enough evidence to re-check it without
recomputing the construction.

The cross-validators at the bottom test the universal properties directly,
on the legs' index tables over every test set up to a size bound, with no
colimit or limit construction, so the fast oracles never have to be trusted.
Two of them count: every map into (or out of) the square induces a commuting
test span (or cospan), so a universal property holds at a test size iff
that assignment is injective and its image is as large as the set of
commuting tests.  ``pushout_by_universal_property_bruteforce`` and the tests'
``reference_pullback_by_universal_property`` quantify literally, one test at
a time, and check the counting.  ``stable_by_all_pullbacks`` decides every
base change up to a size bound.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

from .errors import PreconditionError
from .fsets import (
    CommutativeSquare,
    Cospan,
    FiniteSet,
    SetFunction,
    compose,
    disagreement_text,
    fiber_pairs,
    first_disagreement,
    kernel_pair,
)
from .names import LEFT, RIGHT, pair_name, tagged
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
class PushoutCertificate:
    """All verdicts about one square, with witnesses.  A true ``is_stable``
    holds the same comparison as ``is_pushout``: its codomain is the corner,
    and each corner element has one class over it."""

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


def commutes_verdict(square: CommutativeSquare) -> Verdict:
    """Recheck commutativity from the parts; tolerates unchecked squares.
    The evidence is the culprit, or on success the common composite."""
    culprit = first_disagreement(square.span, square.cospan)
    if culprit is not None:
        return Verdict(False, disagreement_text(culprit), culprit)
    return Verdict(
        True, "both composites agree", compose(square.cospan.left, square.span.left)
    )


def _require_commuting(square: CommutativeSquare) -> None:
    culprit = first_disagreement(square.span, square.cospan)
    if culprit is not None:
        raise PreconditionError(f"square does not commute: {disagreement_text(culprit)}")


def _tables(square: CommutativeSquare) -> tuple[tuple[int, ...], ...]:
    """The four legs as index tables.  Callers check commutativity first,
    which requires each span leg's codomain to be the domain of the cospan
    leg it meets, so the indexes line up."""
    return (
        square.span.left.table,
        square.span.right.table,
        square.cospan.left.table,
        square.cospan.right.table,
    )


def is_pushout_square(square: CommutativeSquare) -> Verdict:
    """Index-table oracle: one union-find over A + B, linking ``f(c)`` with
    ``g(c)`` for every apex element c, forms the classes the span
    generates; the square is a pushout iff the comparison sending each
    class to the corner image of its members (one image, as the square
    commutes) is a bijection.

    Each class is named by its least tagged member.  Every ``l:`` name sorts
    before every ``r:`` name and each foot is sorted, so the node order,
    A then B, is the name order: a class is met first at its least member,
    and the classes are met in name order."""
    _require_commuting(square)
    f_t, g_t, h_t, k_t = _tables(square)
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


def is_pullback_square(square: CommutativeSquare) -> Verdict:
    """Pairing-map oracle: the apex must biject onto the pairs with equal
    images under the cospan."""
    _require_commuting(square)
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


def is_stable_pushout(square: CommutativeSquare) -> tuple[Verdict, SetFunction]:
    """Fiberwise stability: the square restricted over each corner element
    must be a pushout.  Returns the verdict and its evidence, the pushout
    oracle's comparison.

    Pulling the square back along any map into the corner yields the
    disjoint union of these fiber squares, and a disjoint union of pushout
    squares over their coproduct is again a pushout, so fiberwise suffices
    for stability under all pullbacks.  That reduction is itself
    cross-validated by ``stable_by_all_pullbacks``.  The classes of A + B
    never cross fibers, so the fiber over d is a pushout exactly when one
    class lies over d, and the comparison of a pushout, a bijection onto the
    corner, says that of every d: in Set, colimits are universal.
    """
    gate = is_pushout_square(square)
    if not gate.ok:
        raise PreconditionError(f"stability requires a pushout: {gate.detail}")
    return _stable(gate.evidence), gate.evidence


def _stable(comparison: SetFunction) -> Verdict:
    return Verdict(True, "every corner fiber is a pushout", comparison)


def joint_epicity_verdict(cospan: Cospan) -> Verdict:
    cover: dict[str, str] = {}
    for leg, tag in ((cospan.left, LEFT), (cospan.right, RIGHT)):
        for x, image in zip(leg.domain, leg.values):
            cover.setdefault(image, tagged(tag, x))
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
            stable = _stable(po.evidence)
        else:
            stable = Verdict(
                False, f"not a pushout, so not a stable one: {po.detail}", po.evidence
            )
    else:
        po = pb = stable = Verdict(
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
    no reconstruction of canonical colimits.

    A true PULLBACK needs a true COMMUTES, so each pair the pairing names
    lies in the fiber product; the pairing is injective, and it has as many
    elements as the fiber product, Σ over a of |k⁻¹(h(a))|, so it is onto.
    A true STABILITY needs a true PUSHOUT with the same comparison.  A true
    JOINT-EPI names, for each corner element d, an element of A + B that a
    leg sends to d, read off the legs' values."""
    square = cert.square
    if cert.commutes.ok:
        composite = cert.commutes.evidence
        if not isinstance(composite, SetFunction):
            return False
        if composite != compose(square.cospan.left, square.span.left):
            return False
        if composite != compose(square.cospan.right, square.span.right):
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
        if not cert.commutes.ok or not isinstance(pairing, SetFunction):
            return False
        if len(set(pairing.values)) != len(pairing.values):
            return False
        f, g = square.span.left, square.span.right
        expected = tuple(pair_name(a, b) for a, b in zip(f.values, g.values))
        if pairing.domain != square.span.apex or pairing.values != expected:
            return False
        _, _, h_t, k_t = _tables(square)
        over = Counter(k_t)
        if len(pairing.values) != sum(over[d] for d in h_t):
            return False
    if cert.is_stable.ok:
        if not cert.is_pushout.ok or cert.is_stable.evidence != cert.is_pushout.evidence:
            return False
    if cert.jointly_epic.ok:
        h, k = square.cospan.left, square.cospan.right
        image = {tagged(LEFT, a): d for a, d in zip(h.domain, h.values)}
        image.update((tagged(RIGHT, b), d) for b, d in zip(k.domain, k.values))
        cover = cert.jointly_epic.evidence
        if any(image.get(src) != d for d, src in cover):
            return False
        if {d for d, _ in cover} != set(square.corner.elements):
            return False
    return True


# ---------------------------------------------------------------------------
# Assumption-free cross-validators.


def pushout_by_universal_property(
    square: CommutativeSquare, max_test_size: int = 4
) -> bool:
    """Raw oracle: for every test cospan into every set of size up to the
    bound that commutes with the span, exactly one mediating map out of the
    corner must exist.

    Computed by exact counting: every map m out of the corner induces the
    test cospan (m∘h, m∘k), which commutes because the square does.  So the
    requirement is that this assignment is injective and hits every
    commuting test cospan.  The commuting cospans (u, v) are counted by
    bucketing each v by v∘g and summing the bucket of u∘f over every u.  No
    canonical colimit is constructed.  The literal per-cospan quantification
    it is checked against is ``pushout_by_universal_property_bruteforce``.
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
    """The same quantification, spelled out one test cospan at a time: for
    each commuting test cospan, count the maps out of the corner that
    induce it, and require exactly one.

    Per size, the commuting cospans (u, v) are found by bucketing each v by
    v∘g and looking the bucket up at u∘f, and each map m's induced cospan
    (m∘h, m∘k) is computed once into a list that every cospan's count runs
    over.  Used to validate the counting in
    ``pushout_by_universal_property``.
    """
    _require_commuting(square)
    f_t, g_t, h_t, k_t = _tables(square)
    n_a, n_b, n_d = len(h_t), len(k_t), len(square.corner)
    for size in range(max_test_size + 1):
        elements = range(size)
        induced = [
            (tuple(m[i] for i in h_t), tuple(m[j] for j in k_t))
            for m in itertools.product(elements, repeat=n_d)
        ]
        right: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for v in itertools.product(elements, repeat=n_b):
            right.setdefault(tuple(v[j] for j in g_t), []).append(v)
        for u in itertools.product(elements, repeat=n_a):
            for v in right.get(tuple(u[i] for i in f_t), ()):
                if induced.count((u, v)) != 1:
                    return False
    return True


def pullback_by_universal_property(
    square: CommutativeSquare, max_apex_size: int = 3
) -> bool:
    """Raw oracle for pullbacks: every commuting test span over the cospan,
    with apex up to the bound, factors uniquely through the square's apex.

    Computed by exact counting: every map m from the test apex into the
    square's apex induces the test span (f∘m, g∘m), which commutes because
    the square does.  So the requirement is that this assignment is
    injective and hits every commuting test span.  The commuting spans
    (u, v) are counted by bucketing each v by k∘v and summing the bucket of
    h∘u over every u.  ``reference_pullback_by_universal_property`` in the
    tests is the literal per-span quantification this is checked against.
    """
    _require_commuting(square)
    f_t, g_t, h_t, k_t = _tables(square)
    n_a, n_b, n_c = len(h_t), len(k_t), len(f_t)
    for size in range(max_apex_size + 1):
        induced: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
        for m in itertools.product(range(n_c), repeat=size):
            key = (tuple(f_t[c] for c in m), tuple(g_t[c] for c in m))
            if key in induced:
                return False
            induced.add(key)
        right_keys: dict[tuple[int, ...], int] = {}
        for v in itertools.product(range(n_b), repeat=size):
            key_v = tuple(k_t[b] for b in v)
            right_keys[key_v] = right_keys.get(key_v, 0) + 1
        commuting = 0
        for u in itertools.product(range(n_a), repeat=size):
            commuting += right_keys.get(tuple(h_t[a] for a in u), 0)
        if commuting != len(induced):
            return False
    return True


def _base_change_is_pushout(
    tables: tuple[tuple[int, ...], ...], x: tuple[int, ...]
) -> bool:
    """Whether the square with these leg tables, pulled back along the map
    sending each base element t to the corner index ``x[t]``, is a pushout.

    The pulled-back carriers are the index pairs A2 = {(a, t) : h[a] = x[t]},
    B2 = {(b, t) : k[b] = x[t]} and C2 = {(c, t) : h[f[c]] = x[t]}, and the
    pulled-back legs act on the first coordinate.  One union-find over all
    of A2 + B2, with the link (f[c], t) ~ (g[c], t) for each (c, t) in C2,
    forms the canonical pushout of the pulled-back span.  The square is a
    pushout iff the comparison from those classes onto the base is a
    bijection: every class lies over a single t, and every t has exactly
    one class.  The square must commute, or (g[c], t) need not be in B2.
    """
    f_t, g_t, h_t, k_t = tables
    a2 = [(a, t) for t, d in enumerate(x) for a, e in enumerate(h_t) if e == d]
    b2 = [(b, t) for t, d in enumerate(x) for b, e in enumerate(k_t) if e == d]
    a_node = {pair: i for i, pair in enumerate(a2)}
    b_node = {pair: i for i, pair in enumerate(b2, len(a2))}
    over = [t for _, t in a2] + [t for _, t in b2]
    parent = list(range(len(over)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    for t, d in enumerate(x):
        for c, a in enumerate(f_t):
            if h_t[a] == d:
                parent[find(a_node[a, t])] = find(b_node[g_t[c], t])
    base: dict[int, int] = {}
    for i, t in enumerate(over):
        if base.setdefault(find(i), t) != t:
            return False
    return sorted(base.values()) == list(range(len(x)))


def stable_by_all_pullbacks(square: CommutativeSquare, max_size: int = 3) -> bool:
    """Cross-validator for the fiberwise reduction: base-change along every
    map from every set of size up to the bound into the corner, and decide
    whether each pulled-back square is a pushout.

    The maps are the index tuples of ``itertools.product``, the same maps in
    the same order as ``all_functions`` from ``t1..ts``.  Each pulled-back
    square is decided on index pairs by ``_base_change_is_pushout``, one
    union-find over the whole pulled-back coproduct; nothing here restricts
    to fibers, since that is the reduction this validator checks.
    """
    _require_commuting(square)
    tables = _tables(square)
    corner = range(len(square.corner))
    return all(
        _base_change_is_pushout(tables, x)
        for size in range(max_size + 1)
        for x in itertools.product(corner, repeat=size)
    )
