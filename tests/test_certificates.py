"""Verification oracles, certificates, and oracle cross-validation."""

import pytest
from hypothesis import given

from conftest import malcev_spans
from diexact.certificates import (
    certify,
    effectiveness_check,
    is_pullback_square,
    is_pushout_square,
    is_stable_pushout,
    joint_epicity_verdict,
    pull_square_back,
    pushout_by_universal_property,
    pushout_by_universal_property_bruteforce,
    recheck_certificate,
    stable_by_all_pullbacks,
)
from diexact.enumeration import all_equivalences, letters
from diexact.errors import PreconditionError
from diexact.fsets import (
    CommutativeSquare,
    Cospan,
    FiniteSet,
    SetFunction,
    Span,
    all_functions,
    canonical_pushout,
    compose,
    coproduct,
    fset,
    identity,
    kernel_pair,
    span,
)
from diexact.pushouts import malcev_pushout_direct
from diexact.relations import Relation, tabulate


def rel(source, target, *pairs):
    return Relation.from_pairs(fset(*source), fset(*target), pairs)


def matched_pairs_square():
    return malcev_pushout_direct(
        tabulate(rel("ab", "xy", ("a", "x"), ("b", "y")))
    ).square


def widen_corner(square):
    bigger = FiniteSet(square.corner.elements + ("z9",))
    widen = SetFunction(square.corner, bigger, square.corner.elements)
    return CommutativeSquare(
        square.span,
        Cospan(compose(widen, square.cospan.left), compose(widen, square.cospan.right)),
    )


def collapse_corner(square):
    first, second = square.corner.elements[0], square.corner.elements[1]
    smaller = FiniteSet(tuple(e for e in square.corner.elements if e != second))
    collapse = SetFunction(
        square.corner,
        smaller,
        tuple(first if e == second else e for e in square.corner),
    )
    return CommutativeSquare(
        square.span,
        Cospan(
            compose(collapse, square.cospan.left),
            compose(collapse, square.cospan.right),
        ),
    )


class TestPushoutOracle:
    @given(malcev_spans(max_size=3))
    def test_direct_outputs_are_pushouts(self, s):
        assert is_pushout_square(malcev_pushout_direct(s).square).ok

    def test_unreached_corner_element(self):
        verdict = is_pushout_square(widen_corner(matched_pairs_square()))
        assert not verdict.ok
        assert verdict.evidence == "z9"

    def test_merged_corner_elements(self):
        verdict = is_pushout_square(collapse_corner(matched_pairs_square()))
        assert not verdict.ok
        merged_pair = verdict.evidence
        assert merged_pair[0] != merged_pair[1]

    def test_requires_commuting_square(self):
        a = fset("a1", "a2")
        apex = fset("c")
        bad = CommutativeSquare._unchecked(
            Span(apex, SetFunction(apex, a, ("a1",)), SetFunction(apex, a, ("a2",))),
            Cospan(identity(a), identity(a)),
        )
        with pytest.raises(PreconditionError):
            is_pushout_square(bad)


class TestPullbackOracle:
    def test_kernel_pair_square(self):
        f = SetFunction.from_mapping(
            fset("1", "2", "3"), fset("x", "y"), {"1": "x", "2": "x", "3": "y"}
        )
        kp = kernel_pair(f)
        sq = CommutativeSquare(kp, Cospan(f, f))
        assert is_pullback_square(sq).ok

    def test_negative_witness_square(self):
        raw = canonical_pushout(
            tabulate(rel("ab", "xy", ("a", "x"), ("a", "y"), ("b", "x")))
        )
        verdict = is_pullback_square(raw)
        assert not verdict.ok
        assert verdict.evidence == "(b,y)"

    def test_coproduct_square_over_empty(self):
        from diexact.pushouts import coproduct_via_pushout

        result = coproduct_via_pushout(fset("a"), fset("b"))
        assert is_pullback_square(result.square).ok


class TestStabilityOracle:
    @given(malcev_spans(max_size=3))
    def test_direct_outputs_are_stable(self, s):
        verdict, reports = is_stable_pushout(malcev_pushout_direct(s).square)
        assert verdict.ok
        assert {r.base_element for r in reports} == set(
            malcev_pushout_direct(s).corner.elements
        )

    def test_collapse_square_is_stable(self):
        c = fset("a", "b")
        target = fset("x")
        collapse = SetFunction(c, target, ("x", "x"))
        sq = CommutativeSquare(
            span(identity(c), collapse),
            Cospan(collapse, identity(target)),
        )
        verdict, reports = is_stable_pushout(sq)
        assert verdict.ok and len(reports) == 1

    def test_rejects_non_pushout(self):
        with pytest.raises(PreconditionError):
            is_stable_pushout(widen_corner(matched_pairs_square()))


class TestJointEpicity:
    def test_coproduct_injections(self):
        _, inl, inr = coproduct(fset("a"), fset("b"))
        assert joint_epicity_verdict(Cospan(inl, inr)).ok

    def test_constant_legs_miss_elements(self):
        a, b = fset("a"), fset("b")
        d = fset("x", "y")
        c = Cospan(SetFunction(a, d, ("x",)), SetFunction(b, d, ("x",)))
        verdict = joint_epicity_verdict(c)
        assert not verdict.ok and verdict.evidence == "y"


class TestEffectiveness:
    def test_diagonal_and_full(self):
        a = fset("1", "2", "3")
        assert effectiveness_check(Relation.diagonal(a))
        assert effectiveness_check(Relation.full(a, a))

    def test_all_equivalences_up_to_size_4(self):
        for size in range(5):
            for _, e in all_equivalences(letters("a", size)):
                assert effectiveness_check(e)


class TestCertify:
    def test_all_verdicts_true_on_direct_output(self):
        cert = certify(matched_pairs_square())
        assert cert.ok
        assert cert.commutes.ok and cert.is_pushout.ok and cert.is_pullback.ok
        assert cert.is_stable.ok and cert.jointly_epic.ok

    def test_cascade_on_non_commuting_square(self):
        a = fset("a1", "a2")
        apex = fset("c")
        bad = CommutativeSquare._unchecked(
            Span(apex, SetFunction(apex, a, ("a1",)), SetFunction(apex, a, ("a2",))),
            Cospan(identity(a), identity(a)),
        )
        cert = certify(bad)
        assert not cert.ok
        assert not cert.commutes.ok
        assert "does not commute" in cert.is_pushout.detail
        assert cert.commutes.evidence == ("c", "a1", "a2")

    def test_verdicts_reproducible_from_witnesses(self):
        cert = certify(matched_pairs_square())
        assert recheck_certificate(cert)

    def test_recheck_rejects_tampered_witness(self):
        import dataclasses

        cert = certify(matched_pairs_square())
        wrong = SetFunction(
            cert.square.corner, cert.square.corner,
            tuple(cert.square.corner.elements[0] for _ in cert.square.corner),
        )
        tampered = dataclasses.replace(cert, is_pushout=dataclasses.replace(cert.is_pushout, evidence=wrong))
        assert not recheck_certificate(tampered)


def commuting_squares_up_to_two():
    """Every commuting square whose four sets have size at most two."""
    sets = {
        "a": [FiniteSet(tuple(f"a{i}" for i in range(n))) for n in range(3)],
        "b": [FiniteSet(tuple(f"b{i}" for i in range(n))) for n in range(3)],
        "c": [FiniteSet(tuple(f"c{i}" for i in range(n))) for n in range(3)],
        "d": [FiniteSet(tuple(f"d{i}" for i in range(n))) for n in range(3)],
    }
    for c in sets["c"]:
        for a in sets["a"]:
            if len(c) and not len(a):
                continue
            for b in sets["b"]:
                if len(c) and not len(b):
                    continue
                for d in sets["d"]:
                    if (len(a) or len(b)) and not len(d):
                        continue
                    for f in all_functions(c, a):
                        for g in all_functions(c, b):
                            s = Span(c, f, g)
                            for h in all_functions(a, d):
                                hf = compose(h, f)
                                for k in all_functions(b, d):
                                    if compose(k, g) != hf:
                                        continue
                                    yield CommutativeSquare(s, Cospan(h, k))


class TestOracleCrossValidation:
    def test_pushout_oracles_agree_exhaustively_small(self):
        checked = 0
        for sq in commuting_squares_up_to_two():
            fast = is_pushout_square(sq).ok
            counted = pushout_by_universal_property(sq, max_test_size=3)
            assert fast == counted, sq
            checked += 1
        assert checked == 249  # frozen count of commuting squares with sizes <= 2

    def test_counting_matches_bruteforce_quantification(self):
        for i, sq in enumerate(commuting_squares_up_to_two()):
            if i % 7:  # thin out; the brute force is slow
                continue
            assert pushout_by_universal_property(
                sq, max_test_size=2
            ) == pushout_by_universal_property_bruteforce(sq, max_test_size=2)

    def test_fiberwise_stability_matches_all_pullbacks_small(self):
        checked = 0
        for sq in commuting_squares_up_to_two():
            if not is_pushout_square(sq).ok:
                continue
            fiberwise, _ = is_stable_pushout(sq)
            assert fiberwise.ok == stable_by_all_pullbacks(sq, max_size=2)
            checked += 1
        assert checked == 55  # frozen count of pushout squares among the 249


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
