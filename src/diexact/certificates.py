"""Verification oracles, machine-checkable certificates and the
assumption-free cross-validators that check the oracles.

The pushout oracle forms the classes of A + B with one union-find over the
legs' index tables and tests whether the comparison map from those classes
onto the square's corner is a bijection; it builds no colimit, so it shares
no code with the constructions.  The pullback oracle tests whether the
apex's pairing map onto the fiber-product pair set is a bijection, by
counting: the apex's pair names must be distinct and as many as the fiber
product, Σ over a of |k⁻¹(h(a))|.  The canonical ``pullback`` builds that
pair set only when the count fails, to name the missing pair.  ``certify``
decides commutativity once and then runs both oracles on the square; called
alone, each oracle checks commutativity itself.
Stability is decided fiberwise over the corner, and its evidence is the
pushout oracle's comparison: one class of A + B lies over each corner
element.  Each verdict stores enough evidence to re-check it without
recomputing the construction.

The cross-validators at the bottom test the universal properties directly,
on the legs' index tables over every test set up to a size bound, with no
colimit or limit construction, so the fast oracles never have to be trusted.
Two of them count: every map out of (or into) the square induces a
commuting test cospan (or span), so a universal property holds at a test
size iff that assignment is injective and the commuting tests are as many
as the maps.  Each test is coded as one mixed-radix integer, a bijection on
tests, so the maps' codes are distinct iff their tests are; the commuting
tests are counted through a tally of one leg's codes looked up at the
other's.  ``pushout_by_universal_property_bruteforce`` and the tests'
``reference_pullback_by_universal_property`` quantify literally, one tuple
test at a time, and check the codes.  ``stable_by_all_pullbacks`` groups the
square by corner image once and decides every base change up to a size
bound with its own union-find.  A negative bound is refused, as it would
leave nothing to check.
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
    first_disagreement,
    is_mono,
    kernel_pair,
    pullback,
)
from .names import LEFT, RIGHT, pair_name, pair_names, tagged
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

    Each class is linked to its least node, so its root is that node, and
    it is named by that node's tagged member.  Every ``l:`` name sorts
    before every ``r:`` name and each foot is sorted, so the node order,
    A then B, is the name order: the roots, in node order, are the classes
    in name order."""
    _require_commuting(square)
    return _pushout_verdict(square)


def _pushout_verdict(square: CommutativeSquare) -> Verdict:
    """``is_pushout_square`` on a square known to commute."""
    f_t, g_t, h_t, k_t = _tables(square)
    n_a = len(h_t)
    parent = list(range(n_a + len(k_t)))
    for i, j in zip(f_t, g_t):
        j += n_a
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        while parent[j] != j:
            parent[j] = j = parent[parent[j]]
        if i < j:
            parent[j] = i
        elif j < i:
            parent[i] = j
    names = [tagged(LEFT, a) for a in square.cospan.left.domain]
    names += [tagged(RIGHT, b) for b in square.cospan.right.domain]
    corner = square.corner.elements
    seen: dict[int, str] = {}
    for node, d in enumerate(h_t + k_t):
        if parent[node] != node:
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
    comparison = SetFunction._of_table(classes, square.corner, tuple(seen))
    return Verdict(True, "comparison with the canonical pushout is a bijection", comparison)


def is_pullback_square(square: CommutativeSquare) -> Verdict:
    """Pairing-map oracle: the apex must biject onto the pairs with equal
    images under the cospan.

    Decided by counting, as in ``recheck_certificate``: each apex element
    names its pair ``(f(c),g(c))``, which lies in the fiber product because
    the square commutes, so the pairing is a bijection iff those names are
    distinct and as many as the fiber product, Σ over a of |k⁻¹(h(a))|.
    Only a square that fails the count builds the fiber product's pair set,
    the apex of the canonical ``pullback``, to word the refusal: a pair-name
    clash among the fiber pairs is refused there first, then the first apex
    name taken twice, then the first pair with no apex element."""
    _require_commuting(square)
    return _pullback_verdict(square)


def _pullback_verdict(square: CommutativeSquare) -> Verdict:
    """``is_pullback_square`` on a square known to commute."""
    f_t, g_t, h_t, k_t = _tables(square)
    a, b = square.span.feet
    names = pair_names(a.elements, b.elements, zip(f_t, g_t))
    over = Counter(k_t)
    if len(set(names)) == len(names) == sum([over[d] for d in h_t]):
        pairing = SetFunction(square.span.apex, FiniteSet(names), names)
        return Verdict(True, "apex tabulates the cospan's fiber product", pairing)
    pairs = pullback(square.cospan).apex
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
    return Verdict(
        False,
        f"pair {missing[0]} has equal images under the cospan but no apex element",
        missing[0],
    )


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
    """Every corner element is hit by a leg; the evidence names, in corner
    order, the first element of A + B (A before B) that hits it."""
    corner = cospan.corner
    cover: list[str | None] = [None] * len(corner)
    for leg, tag in ((cospan.left, LEFT), (cospan.right, RIGHT)):
        for x, d in zip(leg.domain, leg.table):
            if cover[d] is None:
                cover[d] = tagged(tag, x)
    if None in cover:
        missing = corner.elements[cover.index(None)]
        return Verdict(False, f"corner element {missing!r} is hit by neither leg", missing)
    return Verdict(True, "legs jointly cover the corner", tuple(zip(corner, cover)))


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
        po = _pushout_verdict(square)
        pb = _pullback_verdict(square)
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
        if not is_mono(comparison) or set(comparison.values) != set(square.corner.elements):
            return False
    if cert.is_pullback.ok:
        pairing = cert.is_pullback.evidence
        if not cert.commutes.ok or not isinstance(pairing, SetFunction):
            return False
        if not is_mono(pairing):
            return False
        f, g = square.span.left, square.span.right
        expected = tuple(pair_name(a, b) for a, b in zip(f.values, g.values))
        if pairing.domain != square.span.apex or pairing.values != expected:
            return False
        _, _, h_t, k_t = _tables(square)
        over = Counter(k_t)
        if len(pairing.domain) != sum(over[d] for d in h_t):
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


def _require_bound(name: str, bound: int) -> None:
    if bound < 0:
        raise PreconditionError(f"{name} must be at least 0, got {bound}")


def _codes(weights: list[int], values: range | tuple[int, ...]) -> list[int]:
    """Every sum Σ_p weights[p]·y[p] with each y[p] drawn from ``values``, in
    the order of ``itertools.product(values, repeat=len(weights))``: one
    list comprehension per weight, the last varying fastest."""
    codes = [0]
    for w in weights:
        codes = [code + w * y for code in codes for y in values]
    return codes


def _weights(table: tuple[int, ...], n: int, size: int) -> list[int]:
    """w[x], for each x in ``range(n)``, sums the place values size^i of the
    positions i that the table sends to x; so Σ_x m[x]·w[x] is the base-size
    code Σ_i m[table[i]]·size^i of ``m∘table``."""
    weights = [0] * n
    place = 1
    for x in table:
        weights[x] += place
        place *= size
    return weights


def _matches(left: list[int], right: list[int]) -> int:
    """The number of pairs (i, j) with ``left[i] == right[j]``, through one
    tally of ``right`` looked up at each code of ``left``."""
    tally: dict[int, int] = {}
    for code in right:
        tally[code] = tally.get(code, 0) + 1
    return sum(map(tally.get, left, itertools.repeat(0)))


def pushout_by_universal_property(
    square: CommutativeSquare, max_test_size: int = 4
) -> bool:
    """Raw oracle: for every test cospan into every set of size up to the
    bound that commutes with the span, exactly one mediating map out of the
    corner must exist.

    Computed by exact counting: every map m out of the corner induces the
    test cospan (m∘h, m∘k), which commutes because the square does.  So the
    requirement is that this assignment is injective and that the commuting
    test cospans are as many as the maps m.  Into a set of size s, the
    cospan (u, v) is coded as the integer Σ_i u[i]·s^i + Σ_j v[j]·s^(|A|+j),
    a bijection from the cospans onto ``range(s^(|A|+|B|))``, so distinct
    codes are the same test as distinct induced cospans; the code of m's
    cospan is Σ_d m[d]·w[d], with w[d] the sum of the place values of the
    positions that h or k sends to d.  The commuting cospans are counted by
    tallying the base-s code of v∘g over every v and looking the tally up at
    that of u∘f over every u, as equal codes are equal maps.  No canonical
    colimit is constructed.  The literal per-cospan quantification it is
    checked against is ``pushout_by_universal_property_bruteforce``.
    """
    _require_bound("max_test_size", max_test_size)
    _require_commuting(square)
    f_t, g_t, h_t, k_t = _tables(square)
    n_a, n_b, n_d = len(h_t), len(k_t), len(square.corner)
    legs = h_t + k_t
    for size in range(max_test_size + 1):
        elements = range(size)
        induced = _codes(_weights(legs, n_d, size), elements)
        if len(set(induced)) != len(induced):
            return False
        commuting = _matches(
            _codes(_weights(f_t, n_a, size), elements),
            _codes(_weights(g_t, n_b, size), elements),
        )
        if commuting != len(induced):
            return False
    return True


def pushout_by_universal_property_bruteforce(
    square: CommutativeSquare, max_test_size: int = 3
) -> bool:
    """The same quantification, spelled out one test cospan at a time: for
    each commuting test cospan, count the maps out of the corner that
    induce it, and require exactly one.

    Per size, each map m's induced cospan (m∘h, m∘k) is computed as a pair
    of tuples and tallied once, and the commuting cospans (u, v) are found
    by bucketing each v by v∘g and looking the bucket up at u∘f; each one
    reads its count off the tally.  It shares no code with the integer
    codes of ``pushout_by_universal_property``, and validates them.
    """
    _require_bound("max_test_size", max_test_size)
    _require_commuting(square)
    f_t, g_t, h_t, k_t = _tables(square)
    n_a, n_b, n_d = len(h_t), len(k_t), len(square.corner)
    for size in range(max_test_size + 1):
        elements = range(size)
        induced: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
        for m in itertools.product(elements, repeat=n_d):
            key = (tuple([m[i] for i in h_t]), tuple([m[j] for j in k_t]))
            induced[key] = induced.get(key, 0) + 1
        right: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for v in itertools.product(elements, repeat=n_b):
            right.setdefault(tuple([v[j] for j in g_t]), []).append(v)
        for u in itertools.product(elements, repeat=n_a):
            for v in right.get(tuple([u[i] for i in f_t]), ()):
                if induced.get((u, v)) != 1:
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
    injective and that the commuting test spans are as many as the maps m.
    Over a test apex of size s, the span (u, v) is coded as the integer
    Σ_t (u[t] + |A|·v[t])·(|A|·|B|)^t, a bijection from the spans onto
    ``range((|A|·|B|)^s)``, so distinct codes are the same test as distinct
    induced spans.  The commuting spans are counted by tallying the
    base-|D| code of k∘v over every v and looking the tally up at that of
    h∘u over every u.  ``reference_pullback_by_universal_property`` in the
    tests is the literal per-span quantification this is checked against.
    """
    _require_bound("max_apex_size", max_apex_size)
    _require_commuting(square)
    f_t, g_t, h_t, k_t = _tables(square)
    n_a, n_b, n_d = len(h_t), len(k_t), len(square.corner)
    pairs = tuple([a + n_a * b for a, b in zip(f_t, g_t)])
    for size in range(max_apex_size + 1):
        induced = _codes([(n_a * n_b) ** t for t in range(size)], pairs)
        if len(set(induced)) != len(induced):
            return False
        place = [n_d**t for t in range(size)]
        if _matches(_codes(place, h_t), _codes(place, k_t)) != len(induced):
            return False
    return True


def _fibers(square: CommutativeSquare) -> list[tuple[int, int, list[tuple[int, int]]]]:
    """The square over each corner index d, on local indexes: how many
    elements of A and of B lie over d, and for each apex element c over d
    the position of f(c) among those of A and of g(c) among those of B, in
    index order.  Each foot, and the apex, is grouped by corner image once.
    The square must commute, or g(c) need not lie over d."""
    f_t, g_t, h_t, k_t = _tables(square)
    n_d = len(square.corner)

    def positions(table: tuple[int, ...]) -> tuple[list[int], list[int]]:
        at, count = [], [0] * n_d
        for d in table:
            at.append(count[d])
            count[d] += 1
        return at, count

    (a_at, a_count), (b_at, b_count) = positions(h_t), positions(k_t)
    links: list[list[tuple[int, int]]] = [[] for _ in range(n_d)]
    for a, b in zip(f_t, g_t):
        links[h_t[a]].append((a_at[a], b_at[b]))
    return list(zip(a_count, b_count, links))


def _base_change_is_pushout(
    fibers: list[tuple[int, int, list[tuple[int, int]]]], x: tuple[int, ...]
) -> bool:
    """Whether the square with these fibers (see ``_fibers``), pulled back
    along the map sending each base element t to the corner index ``x[t]``,
    is a pushout.

    The pulled-back carriers are A2 = {(a, t) : h[a] = x[t]} and
    B2 = {(b, t) : k[b] = x[t]}, numbered A2 then B2, t by t, each block in
    index order, and the pulled-back legs act on the first coordinate.  One
    union-find over all of A2 + B2, with the link (f[c], t) ~ (g[c], t) for
    each c with h[f[c]] = x[t], forms the canonical pushout of the
    pulled-back span.  The square is a pushout iff the comparison from
    those classes onto the base is a bijection: every class lies over a
    single t, and every t has exactly one class.
    """
    a_start, b_start, over = [], [], []
    for t, d in enumerate(x):
        a_start.append(len(over))
        over += [t] * fibers[d][0]
    for t, d in enumerate(x):
        b_start.append(len(over))
        over += [t] * fibers[d][1]
    parent = list(range(len(over)))
    for t, d in enumerate(x):
        i0, j0 = a_start[t], b_start[t]
        for i, j in fibers[d][2]:
            i += i0
            j += j0
            while parent[i] != i:
                parent[i] = i = parent[parent[i]]
            while parent[j] != j:
                parent[j] = j = parent[parent[j]]
            parent[i] = j
    base: dict[int, int] = {}
    for i, t in enumerate(over):
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        if base.setdefault(i, t) != t:
            return False
    return sorted(base.values()) == list(range(len(x)))


def stable_by_all_pullbacks(square: CommutativeSquare, max_size: int = 3) -> bool:
    """Cross-validator for the fiberwise reduction: base-change along every
    map from every set of size up to the bound into the corner, and decide
    whether each pulled-back square is a pushout.

    The maps are the index tuples of ``itertools.product``, the same maps in
    the same order as ``all_functions`` from ``t1..ts``.  The feet and the
    apex are grouped by corner image once per square, and each pulled-back
    square is then decided afresh by ``_base_change_is_pushout``, one
    union-find over the whole pulled-back coproduct; no verdict is split by
    fiber or reused across base changes, since that is the reduction this
    validator checks.
    """
    _require_bound("max_size", max_size)
    _require_commuting(square)
    fibers = _fibers(square)
    corner = range(len(square.corner))
    return all(
        _base_change_is_pushout(fibers, x)
        for size in range(max_size + 1)
        for x in itertools.product(corner, repeat=size)
    )
