"""Pointed sets: pushouts as a thin layer, zero object, non-strictness."""

import random

import pytest

from diexact import mutants
from diexact.certificates import certify
from diexact.errors import PreconditionError
from diexact.fsets import Span, fset
from diexact.pointed import (
    PointedMap,
    PointedSet,
    PointedSpan,
    canonical_pointed_set,
    pointed_malcev_pushout,
    pointed_maps_between,
    pointed_pullback,
    pointed_span_from_relation,
    zero_object,
    zero_object_checks,
)
from diexact.pushouts import malcev_pushout_direct
from diexact.relations import Relation
from diexact.suites import SuiteConfig, pointed_diexact_suite
from conftest import sample_pointed_spans


def pointed(size):
    return canonical_pointed_set(size)


def base_relation(a, b, *extra_pairs):
    pairs = [(a.basepoint, b.basepoint), *extra_pairs]
    return Relation.from_pairs(a.carrier, b.carrier, pairs)


class TestPointedTypes:
    def test_basepoint_must_belong(self):
        with pytest.raises(ValueError, match="basepoint"):
            PointedSet(fset("a"), "z")

    def test_map_must_preserve_basepoint(self):
        from diexact.fsets import SetFunction

        x, y = pointed(2), pointed(2)
        bad = SetFunction(x.carrier, y.carrier, ("x1", "x1"))
        with pytest.raises(ValueError, match="basepoint"):
            PointedMap(x, y, bad)

    @pytest.mark.parametrize("wrong_leg", ["left", "right"])
    def test_span_legs_must_share_the_apex(self, wrong_leg):
        from diexact.fsets import SetFunction

        apex, other, foot = pointed(1), pointed(2), pointed(1)

        def to_foot(domain):
            values = (foot.basepoint,) * len(domain)
            return PointedMap(domain, foot, SetFunction(domain.carrier, foot.carrier, values))

        legs = {"left": to_foot(apex), "right": to_foot(apex)}
        legs[wrong_leg] = to_foot(other)
        with pytest.raises(ValueError, match="pointed span legs must share the apex"):
            PointedSpan(apex, legs["left"], legs["right"])

    def test_a_given_span_must_be_the_span_of_the_legs(self):
        a = pointed(2)
        ps = pointed_span_from_relation(a, a, base_relation(a, a, ("x1", "*")))
        s = ps.underlying
        assert PointedSpan(ps.apex, ps.left, ps.right, s).underlying is s
        other_apex = pointed_span_from_relation(a, a, base_relation(a, a)).underlying
        for given in (Span(s.apex, s.right, s.left), Span(s.apex, s.left, s.left), other_apex):
            with pytest.raises(ValueError, match="^given span is not the span of the pointed legs$"):
                PointedSpan(ps.apex, ps.left, ps.right, given)

    def test_tabulation_needs_related_basepoints(self):
        a, b = pointed(1), pointed(1)
        with pytest.raises(PreconditionError):
            pointed_span_from_relation(a, b, Relation.from_pairs(a.carrier, b.carrier, ()))


class TestPointedPushout:
    def test_all_one_point(self):
        a, b = pointed(1), pointed(1)
        result = pointed_malcev_pushout(pointed_span_from_relation(a, b, base_relation(a, b)))
        assert len(result.corner) == 1

    def test_wedge_sum(self):
        a, b = pointed(3), pointed(2)
        result = pointed_malcev_pushout(pointed_span_from_relation(a, b, base_relation(a, b)))
        assert len(result.corner) == len(a) + len(b) - 1
        assert result.h.function(a.basepoint) == result.corner.basepoint
        assert result.k.function(b.basepoint) == result.corner.basepoint

    def test_basepoints_plus_one_matched_pair(self):
        a, b = pointed(3), pointed(3)
        r = base_relation(a, b, ("x1", "x1"))
        result = pointed_malcev_pushout(pointed_span_from_relation(a, b, r))
        assert len(result.corner) == len(a) + len(b) - 2

    def test_transfer_equality(self):
        a, b = pointed(2), pointed(3)
        ps = pointed_span_from_relation(a, b, base_relation(a, b, ("x1", "x2")))
        result = pointed_malcev_pushout(ps)
        plain = malcev_pushout_direct(ps.underlying)
        assert result.square.corner == plain.corner
        assert result.h.function == plain.h

    def test_a_given_square_is_re_pointed(self):
        a, b = pointed(2), pointed(3)
        ps = pointed_span_from_relation(a, b, base_relation(a, b, ("x1", "x2")))
        square = malcev_pushout_direct(ps.underlying).square
        result = pointed_malcev_pushout(ps, square)
        assert result.square is square
        assert result == pointed_malcev_pushout(ps)

    def test_a_square_of_another_span_is_refused(self):
        a, b = pointed(2), pointed(2)
        ps = pointed_span_from_relation(a, b, base_relation(a, b))
        other = pointed_span_from_relation(a, b, base_relation(a, b, ("x1", "x1")))
        square = malcev_pushout_direct(other.underlying).square
        with pytest.raises(PreconditionError, match="given square"):
            pointed_malcev_pushout(ps, square)

    def test_underlying_square_certifies(self):
        for _, ps in sample_pointed_spans(random.Random(3), 25, 3):
            result = pointed_malcev_pushout(ps)
            assert certify(result.square).ok

    def test_rejects_non_malcev(self):
        a, b = pointed(2), pointed(2)
        r = base_relation(a, b, ("*", "x1"), ("x1", "*"))
        from diexact.errors import NotMalcevError

        with pytest.raises(NotMalcevError):
            pointed_malcev_pushout(pointed_span_from_relation(a, b, r))


class TestPointedPullback:
    def test_underlying_with_basepoint_pair(self):
        a, b = pointed(2), pointed(2)
        ps = pointed_span_from_relation(a, b, base_relation(a, b))
        result = pointed_malcev_pushout(ps)
        pulled = pointed_pullback(result.h, result.k)
        assert pulled.apex.basepoint == f"({a.basepoint},{b.basepoint})"
        from diexact.fsets import Cospan, pullback

        plain = pullback(Cospan(result.h.function, result.k.function))
        assert pulled.underlying.apex == plain.apex


class TestZeroObject:
    def test_initial_and_terminal_up_to_five(self):
        report = zero_object_checks(5)
        assert report.ok
        assert not report.failures
        assert "not strict" in report.strictness_witness

    def test_unique_maps_each_way(self):
        zero = zero_object()
        for size in range(1, 6):
            x = pointed(size)
            assert sum(1 for _ in pointed_maps_between(zero, x)) == 1
            assert sum(1 for _ in pointed_maps_between(x, zero)) == 1

    def test_strictness_fails_with_explicit_witness(self):
        report = zero_object_checks(3)
        assert "size-3" in report.strictness_witness
        assert "not an isomorphism" in report.strictness_witness


class TestPointedMutant:
    def test_dropping_basepoint_link_breaks_the_square(self):
        a, b = pointed(2), pointed(2)
        ps = pointed_span_from_relation(a, b, base_relation(a, b))
        plain = malcev_pushout_direct(ps.underlying).square
        with mutants.enabled(mutants.DROP_BASEPOINT):
            result = pointed_malcev_pushout(ps)
            assert pointed_malcev_pushout(ps, plain).square == result.square != plain
        cert = certify(result.square)
        assert not cert.commutes.ok
        assert not cert.is_pushout.ok
        assert cert.is_pushout.evidence is not None

    def test_pointed_suite_detects_the_mutant(self):
        config = SuiteConfig(max_size=2, samples=10, seed=5, mutant="drop-basepoint-link")
        report = pointed_diexact_suite(config)
        assert not report.passed
        failing = [f for s in report.suites for f in s.failures]
        assert failing and all(f.witness for f in failing)


class TestPointedSuites:
    def test_suites_pass_unmutated(self):
        report = pointed_diexact_suite(SuiteConfig(max_size=2, samples=15, seed=5))
        assert report.passed
        names = [s.name for s in report.suites]
        assert names == ["P0", "P1"]
