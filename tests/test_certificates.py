"""Verification oracles, certificates, and oracle cross-validation."""

import dataclasses
import itertools
import random

import pytest
from hypothesis import given

from conftest import malcev_spans
from diexact import suites
from diexact.certificates import (
    Verdict,
    _codes,
    _weights,
    certify,
    effectiveness_check,
    is_pullback_square,
    is_pushout_square,
    is_stable_pushout,
    joint_epicity_verdict,
    pullback_by_universal_property,
    pushout_by_universal_property,
    pushout_by_universal_property_bruteforce,
    recheck_certificate,
    stable_by_all_pullbacks,
)
from diexact.enumeration import all_equivalences, letters, sample_commuting_squares
from diexact.errors import PreconditionError
from diexact.fsets import (
    EMPTY,
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
from diexact.suites import SuiteConfig
from test_fsets import reference_pullback_by_universal_property


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


def coproduct_square_onto(p, q):
    """The empty span under {a} and {b}, with a sent to p and b to q."""
    a, b = fset("a"), fset("b")
    corner = fset(*sorted({p, q}))
    return CommutativeSquare(
        span(SetFunction(EMPTY, a, ()), SetFunction(EMPTY, b, ())),
        Cospan(SetFunction(a, corner, (p,)), SetFunction(b, corner, (q,))),
    )


def both_legs_onto_p_square():
    """{c} -> {a}, {b} -> {p, q}, both legs onto p."""
    c, a, b, corner = fset("c"), fset("a"), fset("b"), fset("p", "q")
    return CommutativeSquare(
        span(SetFunction(c, a, ("a",)), SetFunction(c, b, ("b",))),
        Cospan(SetFunction(a, corner, ("p",)), SetFunction(b, corner, ("p",))),
    )


def non_commuting_square():
    """Apex c goes to a1 one way round and to a2 the other."""
    a = fset("a1", "a2")
    apex = fset("c")
    return CommutativeSquare._unchecked(
        Span(apex, SetFunction(apex, a, ("a1",)), SetFunction(apex, a, ("a2",))),
        Cospan(identity(a), identity(a)),
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
        bad = non_commuting_square()
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
        square = malcev_pushout_direct(s).square
        verdict, comparison = is_stable_pushout(square)
        assert verdict.ok
        assert verdict.evidence == comparison == is_pushout_square(square).evidence
        assert comparison.codomain == square.corner

    def test_collapse_square_is_stable(self):
        c = fset("a", "b")
        target = fset("x")
        collapse = SetFunction(c, target, ("x", "x"))
        sq = CommutativeSquare(
            span(identity(c), collapse),
            Cospan(collapse, identity(target)),
        )
        verdict, comparison = is_stable_pushout(sq)
        assert verdict.ok and comparison.values == ("x",)

    def test_rejects_non_pushout(self):
        with pytest.raises(PreconditionError):
            is_stable_pushout(widen_corner(matched_pairs_square()))


def name_keyed_joint_epicity(cospan: Cospan) -> Verdict:
    """Reference for ``joint_epicity_verdict``: the cover keyed by corner
    name, each element's first tagged preimage kept, A before B, sorted."""
    cover = {}
    for leg, tag in ((cospan.left, "l"), (cospan.right, "r")):
        for x, image in zip(leg.domain, leg.values):
            cover.setdefault(image, f"{tag}:{x}")
    missing = [d for d in cospan.corner if d not in cover]
    if missing:
        return Verdict(False, f"corner element {missing[0]!r} is hit by neither leg", missing[0])
    return Verdict(True, "legs jointly cover the corner", tuple(sorted(cover.items())))


class TestJointEpicity:
    def test_agrees_with_the_name_keyed_cover(self):
        covered = 0
        for sq in sample_commuting_squares(random.Random(0), 600, 3):
            verdict = joint_epicity_verdict(sq.cospan)
            assert verdict == name_keyed_joint_epicity(sq.cospan), sq
            covered += verdict.ok
        assert 0 < covered < 600

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
        assert effectiveness_check(Relation.from_pairs(a, a, itertools.product(a, a)))

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
        bad = non_commuting_square()
        cert = certify(bad)
        assert not cert.ok
        assert not cert.commutes.ok
        assert "does not commute" in cert.is_pushout.detail
        assert cert.commutes.evidence == ("c", "a1", "a2")

    def test_stability_evidence_is_the_pushout_comparison(self):
        cert = certify(matched_pairs_square())
        assert cert.is_stable.ok
        assert cert.is_stable.evidence is cert.is_pushout.evidence
        assert cert.is_stable.evidence.codomain == cert.square.corner

    def test_stability_false_when_the_corner_merges_classes(self):
        cert = certify(collapse_corner(matched_pairs_square()))
        assert not cert.is_stable.ok
        assert cert.is_stable.evidence == ("l:a", "l:b", "l:a")
        assert cert.is_stable.detail.startswith("not a pushout, so not a stable one: ")

    def test_stability_false_when_the_square_does_not_commute(self):
        cert = certify(non_commuting_square())
        assert not cert.is_stable.ok
        assert cert.is_stable.evidence == ("c", "a1", "a2")

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

    def test_recheck_refuses_a_forged_stability(self):
        """Both legs onto p leave q unreached, so the square is no pushout.
        Neither a true STABILITY taken from a stable square with the same
        corner, nor one that claims the corner's identity, rechecks."""
        cert = certify(both_legs_onto_p_square())
        assert not cert.is_pushout.ok and not cert.is_stable.ok
        borrowed = certify(coproduct_square_onto("p", "q")).is_stable
        claimed = Verdict(True, "every corner fiber is a pushout", identity(cert.square.corner))
        for forged in (borrowed, claimed):
            assert forged.evidence.codomain == cert.square.corner
            assert not recheck_certificate(dataclasses.replace(cert, is_stable=forged))

    def test_recheck_refuses_a_stability_with_other_evidence(self):
        cert = certify(matched_pairs_square())
        other = cert.is_stable.evidence
        swapped = SetFunction(other.domain, other.codomain, other.values[::-1])
        forged = dataclasses.replace(cert.is_stable, evidence=swapped)
        assert not recheck_certificate(dataclasses.replace(cert, is_stable=forged))

    def test_recheck_refuses_a_forged_pullback(self):
        """Empty apex over a and b sent to one point: the pair (a,b) of the
        fiber product has no apex element, whatever the pairing claims."""
        cert = certify(coproduct_square_onto("p", "p"))
        assert cert.commutes.ok and not cert.is_pullback.ok
        forged = Verdict(True, "apex tabulates the cospan's fiber product", identity(EMPTY))
        assert not recheck_certificate(dataclasses.replace(cert, is_pullback=forged))

    def test_recheck_refuses_a_pullback_pairing_with_other_values(self):
        """The forged pairing starts at the apex, is injective and is as
        large as the fiber product, but sends each apex element to the other
        one's pair."""
        cert = certify(matched_pairs_square())
        pairing = cert.is_pullback.evidence
        swapped = SetFunction(pairing.domain, pairing.codomain, pairing.values[::-1])
        assert swapped.domain == cert.square.span.apex and swapped != pairing
        forged = dataclasses.replace(cert.is_pullback, evidence=swapped)
        assert not recheck_certificate(dataclasses.replace(cert, is_pullback=forged))

    def test_recheck_refuses_a_forged_joint_epi(self):
        """Both legs onto p leave q unreached.  A cover whose keys are the
        corner still does not recheck when it names, over q, an element the
        legs send to p, or an element of neither foot."""
        cert = certify(both_legs_onto_p_square())
        assert cert.jointly_epic.detail == "corner element 'q' is hit by neither leg"
        for cover in ((("p", "l:a"), ("q", "l:a")), (("p", "r:b"), ("q", "r:q"))):
            forged = Verdict(True, "legs jointly cover the corner", cover)
            assert not recheck_certificate(dataclasses.replace(cert, jointly_epic=forged))

    def test_recheck_refuses_a_pullback_of_a_non_commuting_square(self):
        cert = certify(non_commuting_square())
        pairing = SetFunction(cert.square.span.apex, fset("(a1,a2)"), ("(a1,a2)",))
        forged = Verdict(True, "apex tabulates the cospan's fiber product", pairing)
        assert not recheck_certificate(dataclasses.replace(cert, is_pullback=forged))

    def test_every_suite_certificate_rechecks(self, monkeypatch):
        built = []

        def certify_and_keep(square):
            built.append(certify(square))
            return built[-1]

        monkeypatch.setattr(suites, "certify", certify_and_keep)
        config = SuiteConfig(max_size=3, samples=300, seed=42)
        assert suites.suite_certificates(config).passed
        assert suites.suite_pointed_pushouts(config).passed
        spans = {s for _, s in suites._span_corpus(config)}
        pointed_spans = {ps for _, ps in suites._pointed_corpus(config)}
        assert len(built) == len(spans) + len(pointed_spans)
        assert all(recheck_certificate(cert) for cert in built)


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
        for sq in commuting_squares_up_to_two():
            for bound in (2, 3, 4):
                assert pushout_by_universal_property(
                    sq, max_test_size=bound
                ) == pushout_by_universal_property_bruteforce(sq, max_test_size=bound)

    def test_counting_matches_the_literal_quantifiers_on_the_widest_samples(self):
        """The sampler's widest squares, at the bounds of criterion 6 and the
        benchmark: corner 6 with an empty apex, where the pushout codes run
        to 4^6 maps, and apex 9, where the pullback codes run to 9^3."""
        wide = [
            sq
            for sq in sample_commuting_squares(random.Random(0), 600, 3)
            if len(sq.corner) == 6 or len(sq.span.apex) == 9
        ]
        shapes = sorted((len(sq.span.apex), len(sq.corner)) for sq in wide)
        assert shapes == [(0, 6), (0, 6), (9, 1), (9, 1), (9, 2), (9, 2)]
        pushouts = pullbacks = 0
        for sq in wide:
            counted = pushout_by_universal_property(sq, max_test_size=4)
            assert counted == pushout_by_universal_property_bruteforce(sq, max_test_size=4)
            pushouts += counted
            counted = pullback_by_universal_property(sq, max_apex_size=3)
            assert counted == reference_pullback_by_universal_property(sq, 3), sq
            pullbacks += counted
        assert (pushouts, pullbacks) == (3, 6)

    def test_pullback_counting_matches_the_literal_quantification(self):
        pullbacks = 0
        for sq in commuting_squares_up_to_two():
            counted = pullback_by_universal_property(sq, max_apex_size=3)
            assert counted == reference_pullback_by_universal_property(sq, 3), sq
            assert counted == is_pullback_square(sq).ok, sq
            pullbacks += counted
        assert pullbacks == 74  # frozen count of pullback squares among the 249

    def test_fiberwise_stability_matches_all_pullbacks_small(self):
        checked = 0
        for sq in commuting_squares_up_to_two():
            if not is_pushout_square(sq).ok:
                continue
            fiberwise, _ = is_stable_pushout(sq)
            assert fiberwise.ok == stable_by_all_pullbacks(sq, max_size=2)
            checked += 1
        assert checked == 55  # frozen count of pushout squares among the 249


class TestCodes:
    def test_codes_of_every_composite_in_product_order(self):
        """``_codes(_weights(table, n, s), range(s))`` lists the base-s code
        Σ_i m[table[i]]·s^i of m∘table for every m: n → s, in the order of
        ``itertools.product``, with the place values of the positions the
        table sends to one x summed into x's weight."""
        for table, n in [((), 0), ((), 2), ((0,), 1), ((1, 0, 1), 2), ((2, 0, 0, 1), 4)]:
            for size in range(5):
                expected = [
                    sum(m[x] * size**i for i, x in enumerate(table))
                    for m in itertools.product(range(size), repeat=n)
                ]
                assert _codes(_weights(table, n, size), range(size)) == expected

    def test_one_map_out_of_the_empty_set(self):
        assert _codes(_weights((), 0, 0), range(0)) == [0]
        assert _codes(_weights((), 0, 3), range(3)) == [0]
        assert _codes([], (0, 4, 5)) == [0]

    def test_no_map_from_a_nonempty_set_into_the_empty_set(self):
        assert _codes(_weights((0, 0), 1, 0), range(0)) == []
        assert _codes([1, 2], ()) == []

    def test_validators_at_test_size_zero(self):
        """Into the empty set, the empty square has its one cospan and its one
        mediating map; feet without elements under a nonempty corner have the
        empty cospan but no map out of the corner.  Out of the empty test
        apex, every square has one span and one factorization."""
        none, into_d = SetFunction(EMPTY, EMPTY, ()), SetFunction(EMPTY, fset("d1"), ())
        empty = CommutativeSquare(Span(EMPTY, none, none), Cospan(none, none))
        lonely = CommutativeSquare(Span(EMPTY, none, none), Cospan(into_d, into_d))
        for validator in (pushout_by_universal_property, pushout_by_universal_property_bruteforce):
            assert validator(empty, 0)
            assert not validator(lonely, 0)
        assert pullback_by_universal_property(lonely, 0)
        assert pullback_by_universal_property(matched_pairs_square(), 0)
