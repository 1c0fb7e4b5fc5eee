"""Base change of a square along a map into its corner.

``pull_square_back`` builds the pulled-back square out of named sets and
functions, each fiber product by its own ``fiber_pairs``, and is the
reference: ``stable_by_all_pullbacks`` decides each base change on the
square's fibers, numbering the pulled-back elements by offsets, and must
give the verdict that the pushout oracle gives on the square built here.
"""

import itertools

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import call_counts, functions, sized_sets
from diexact import certificates
from diexact.certificates import (
    _base_change_is_pushout,
    _fibers,
    is_pushout_square,
    pullback_by_universal_property,
    pushout_by_universal_property,
    pushout_by_universal_property_bruteforce,
    stable_by_all_pullbacks,
)
from diexact.errors import PreconditionError
from diexact.fsets import (
    CommutativeSquare,
    Cospan,
    FiniteSet,
    SetFunction,
    Span,
    compose,
    fset,
    identity,
)
from diexact.names import pair_name
from test_certificates import commuting_squares_up_to_two, matched_pairs_square


def fiber_pairs(h: SetFunction, x: SetFunction) -> tuple[FiniteSet, list[tuple[str, str]]]:
    """The set of the named pairs (a, t) with ``h(a) == x(t)``, and the pair
    behind each of its elements in carrier order."""
    parts = {pair_name(a, t): (a, t) for a in h.domain for t in x.domain if h(a) == x(t)}
    carrier = FiniteSet(tuple(parts))
    return carrier, [parts[name] for name in carrier]


def pull_square_back(square: CommutativeSquare, x: SetFunction) -> CommutativeSquare:
    """Base-change the whole square along a map into its corner."""
    if x.codomain != square.corner:
        raise PreconditionError("base change must target the square's corner")
    f, g = square.span.left, square.span.right
    h, k = square.cospan.left, square.cospan.right
    a2, a2_parts = fiber_pairs(h, x)
    b2, b2_parts = fiber_pairs(k, x)
    c2, c2_parts = fiber_pairs(compose(h, f), x)
    f2 = SetFunction(c2, a2, tuple([pair_name(f(c), t) for c, t in c2_parts]))
    g2 = SetFunction(c2, b2, tuple([pair_name(g(c), t) for c, t in c2_parts]))
    h2 = SetFunction(a2, x.domain, tuple([t for _, t in a2_parts]))
    k2 = SetFunction(b2, x.domain, tuple([t for _, t in b2_parts]))
    return CommutativeSquare(Span(c2, f2, g2), Cospan(h2, k2))


def along(square: CommutativeSquare, x: tuple[int, ...]) -> SetFunction:
    """The map from ``t1..ts`` sending ``t(i+1)`` to corner element ``x[i]``."""
    base = FiniteSet(tuple(f"t{i}" for i in range(1, len(x) + 1)))
    return SetFunction(base, square.corner, tuple(square.corner.elements[i] for i in x))


def reference_verdict(square: CommutativeSquare, x: tuple[int, ...]) -> bool:
    return is_pushout_square(pull_square_back(square, along(square, x))).ok


@st.composite
def commuting_squares(draw, max_size: int = 3) -> CommutativeSquare:
    """Any commuting square with sets of size at most ``max_size``.

    The cospan is drawn freely and each apex element then picks a pair of
    its fiber product, as every commuting square's apex does; so a square
    need not be a pushout (a corner element may be missed, or two classes
    may meet in it).
    """
    corner = draw(sized_sets("d", max_size=max_size))
    feet_size = max_size if len(corner) else 0
    h = draw(functions(domain=draw(sized_sets("a", max_size=feet_size)), codomain=corner))
    k = draw(functions(domain=draw(sized_sets("b", max_size=feet_size)), codomain=corner))
    over = [(a, b) for a in h.domain for b in k.domain if h(a) == k(b)]
    apex = draw(sized_sets("c", max_size=max_size if over else 0))
    picked = [draw(st.sampled_from(over)) for _ in apex]
    f = SetFunction(apex, h.domain, tuple(a for a, _ in picked))
    g = SetFunction(apex, k.domain, tuple(b for _, b in picked))
    return CommutativeSquare(Span(apex, f, g), Cospan(h, k))


@st.composite
def squares_with_base_changes(draw, max_size: int = 3):
    square = draw(commuting_squares(max_size))
    corner = range(len(square.corner))
    x = draw(st.lists(st.sampled_from(corner), max_size=max_size)) if corner else []
    return square, tuple(x)


class TestIndexVerdict:
    @settings(max_examples=400)
    @given(squares_with_base_changes())
    def test_matches_the_pulled_back_square(self, case):
        square, x = case
        assert _base_change_is_pushout(_fibers(square), x) == reference_verdict(square, x)

    def test_matches_on_every_small_base_change(self):
        """Every commuting square with sets of size at most two, along every
        map from a set of size at most two.  A pushout in sets pulls back to
        a pushout, so the false verdicts all come from non-pushout squares;
        those squares also have base changes that are pushouts (the empty
        one, and any that avoid the corner elements at fault)."""
        verdicts = {}
        for square in commuting_squares_up_to_two():
            fibers = _fibers(square)
            is_pushout = is_pushout_square(square).ok
            for size in range(3):
                for x in itertools.product(range(len(square.corner)), repeat=size):
                    verdict = _base_change_is_pushout(fibers, x)
                    assert verdict == reference_verdict(square, x), (square, x)
                    key = (is_pushout, verdict)
                    verdicts[key] = verdicts.get(key, 0) + 1
        assert verdicts == {(True, True): 347, (False, True): 362, (False, False): 856}

    def test_every_base_change_is_decided_afresh(self):
        """On a pushout square ``stable_by_all_pullbacks`` decides each of the
        Σ_{s≤bound} |D|^s base changes with its own union-find: none is
        skipped, cached or read off another."""
        checked = 0
        for square in commuting_squares_up_to_two():
            if not is_pushout_square(square).ok:
                continue
            for bound in range(4):
                stable, counts = call_counts(
                    (certificates._base_change_is_pushout,),
                    lambda: stable_by_all_pullbacks(square, bound),
                )
                assert stable
                expected = sum(len(square.corner) ** s for s in range(bound + 1))
                assert counts == {"_base_change_is_pushout": expected}, square
            checked += 1
        assert checked == 55


class TestBaseChange:
    def test_pullback_along_identity_preserves_verdicts(self):
        sq = matched_pairs_square()
        pulled = pull_square_back(sq, identity(sq.corner))
        assert is_pushout_square(pulled).ok == is_pushout_square(sq).ok
        assert len(pulled.corner) == len(sq.corner)

    def test_pullback_along_point_is_fiber(self):
        sq = matched_pairs_square()
        point = fset("t1")
        for d in sq.corner:
            x = SetFunction(point, sq.corner, (d,))
            pulled = pull_square_back(sq, x)
            assert is_pushout_square(pulled).ok

    def test_rejects_wrong_target(self):
        sq = matched_pairs_square()
        with pytest.raises(PreconditionError):
            pull_square_back(sq, identity(fset("elsewhere")))


@pytest.mark.parametrize(
    "validator",
    [
        pushout_by_universal_property,
        pushout_by_universal_property_bruteforce,
        pullback_by_universal_property,
        stable_by_all_pullbacks,
    ],
    ids=lambda validator: validator.__name__,
)
@pytest.mark.parametrize("bound", [0, 1])
def test_cross_validators_require_a_commuting_square(validator, bound):
    apex, a, b, d = fset("c1"), fset("a1"), fset("b1"), fset("d1", "d2")
    bad = CommutativeSquare._unchecked(
        Span(apex, SetFunction(apex, a, ("a1",)), SetFunction(apex, b, ("b1",))),
        Cospan(SetFunction(a, d, ("d1",)), SetFunction(b, d, ("d2",))),
    )
    with pytest.raises(PreconditionError, match="square does not commute: apex element 'c1'"):
        validator(bad, bound)


@pytest.mark.parametrize(
    "validator, bound",
    [
        (pushout_by_universal_property, "max_test_size"),
        (pushout_by_universal_property_bruteforce, "max_test_size"),
        (pullback_by_universal_property, "max_apex_size"),
        (stable_by_all_pullbacks, "max_size"),
    ],
    ids=lambda param: param.__name__ if callable(param) else param,
)
def test_cross_validators_refuse_a_negative_bound(validator, bound):
    """A negative bound would leave no test size to check, so every square,
    this non-pushout and non-pullback too, would pass."""
    apex, a, d = fset(), fset("a1"), fset("d1", "d2")
    empty = SetFunction(apex, a, ())
    leg = SetFunction(a, d, ("d1",))
    square = CommutativeSquare(Span(apex, empty, empty), Cospan(leg, leg))
    assert not is_pushout_square(square).ok
    assert not validator(square, 2)
    with pytest.raises(PreconditionError, match=f"^{bound} must be at least 0, got -1$"):
        validator(square, -1)
