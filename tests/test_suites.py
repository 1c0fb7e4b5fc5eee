"""Suite aggregation: corpus sizes, report rendering, mutation detection,
and how often a run builds its shared objects."""

import dataclasses
import gc
import itertools
import random
import weakref

import pytest

from diexact import certificates, enumeration, fsets, mutants, pointed, pushouts, relations, suites
from diexact.enumeration import (
    difunctional_relations,
    exhaustive_malcev_spans,
    letters,
    random_relation,
)
from diexact.errors import InternalInvariantError, PreconditionError
from diexact.mutants import KNOWN as KNOWN_MUTANTS
from diexact.names import pair_name
from diexact.suites import (
    RunReport,
    SuiteConfig,
    SuiteFailure,
    SuiteReport,
    run_all_suites,
    suite_agreement,
    suite_certificates,
    suite_coproducts,
    suite_equivalences,
    theorem_suites,
)
from conftest import call_counts, fixpoint_closure, sample_pointed_spans
from diexact.pointed import BASEPOINT, canonical_pointed_set, pointed_span_from_relation
from diexact.relations import Relation, tabulate
from test_pushouts import widened


class TestConfig:
    def test_rejects_negative_bounds(self):
        with pytest.raises(ValueError):
            SuiteConfig(max_size=-1)
        with pytest.raises(ValueError):
            SuiteConfig(samples=-1)

    def test_rejects_unknown_mutant(self):
        with pytest.raises(ValueError, match="unknown mutant"):
            SuiteConfig(mutant="flip-all-bits")

    def test_exhaustive_bound_caps_at_two_by_default(self):
        assert SuiteConfig(max_size=4).exhaustive_bound == 2
        assert SuiteConfig(max_size=4, exhaustive=True).exhaustive_bound == 4


class TestCorpusSizes:
    def test_exhaustive_bound_two_counts(self):
        config = SuiteConfig(max_size=2, exhaustive=True)
        assert suite_coproducts(config).total == 9
        assert suite_equivalences(config).total == 4
        # 27 difunctional relations over all size pairs <= 2 (frozen oracle count)
        assert suite_certificates(config).total == 27
        assert suite_agreement(config).total == 27

    def test_samples_add_to_the_corpus(self):
        config = SuiteConfig(max_size=2, exhaustive=True, samples=13, seed=3)
        assert suite_certificates(config).total == 40


def per_draw_span_corpus(config):
    """Reference for ``suites._span_corpus``: the loop it replaced, which
    labels and tabulates every draw afresh and closes each by the fixpoint."""
    corpus = list(exhaustive_malcev_spans(config.exhaustive_bound))
    rng = random.Random(config.seed)
    for i in range(config.samples):
        m, n = rng.randint(0, config.max_size), rng.randint(0, config.max_size)
        r = fixpoint_closure(random_relation(rng, letters("a", m), letters("b", n)))
        corpus.append((f"sample#{i} sampled |A|={m},|B|={n} R={r!r}", tabulate(r)))
    return corpus


def per_draw_pointed_corpus(config):
    """Reference for ``suites._pointed_corpus``, drawn the same way, with the
    basepoint pair added by name."""
    corpus = []
    bound = max(1, config.max_size if config.exhaustive else min(config.max_size, 2))
    for m, n in itertools.product(range(1, bound + 1), repeat=2):
        a, b = canonical_pointed_set(m), canonical_pointed_set(n)
        for index, r in enumerate(difunctional_relations(a.carrier, b.carrier)):
            if r.holds("*", "*"):
                corpus.append(
                    (f"pointed |A|={m},|B|={n} #{index} R={r!r}", pointed_span_from_relation(a, b, r))
                )
    rng = random.Random(config.seed)
    top = max(1, config.max_size)
    for i in range(config.samples or 25):
        m, n = rng.randint(1, top), rng.randint(1, top)
        a, b = canonical_pointed_set(m), canonical_pointed_set(n)
        raw = random_relation(rng, a.carrier, b.carrier)
        with_base = Relation.from_pairs(a.carrier, b.carrier, [*raw.pairs(), ("*", "*")])
        r = fixpoint_closure(with_base)
        corpus.append(
            (f"sample#{i} pointed |A|={m},|B|={n} R={r!r}", pointed_span_from_relation(a, b, r))
        )
    return corpus


def assert_equal_samples_are_one_object(samples):
    first = {}
    for label, instance in samples:
        assert first.setdefault(instance, instance) is instance, label


class TestCorpusAgainstPerDrawBuilder:
    @pytest.mark.parametrize("seed", (0, 7, 42))
    @pytest.mark.parametrize("samples", (0, 5, 300))
    @pytest.mark.parametrize("max_size", (0, 1, 2, 3))
    def test_labels_and_instances_in_order(self, max_size, samples, seed):
        config = SuiteConfig(max_size=max_size, samples=samples, seed=seed)
        spans = suites._span_corpus(config)
        assert list(spans) == per_draw_span_corpus(config)
        assert_equal_samples_are_one_object(spans[len(spans) - samples :])
        pointed_spans = suites._pointed_corpus(config)
        assert pointed_spans == per_draw_pointed_corpus(config)
        sampled = [(label, ps) for label, ps in pointed_spans if label.startswith("sample#")]
        assert len(sampled) == (samples or 25)
        assert_equal_samples_are_one_object(sampled)

    @pytest.mark.parametrize("max_size", (2, 3))
    def test_exhaustive_corpora_in_order(self, max_size):
        """``--exhaustive`` widens the walks of T2/D and of P1 alike."""
        config = SuiteConfig(max_size=max_size, samples=5, seed=7, exhaustive=True)
        assert list(suites._span_corpus(config)) == per_draw_span_corpus(config)
        assert suites._pointed_corpus(config) == per_draw_pointed_corpus(config)

    def test_repeated_draws_are_shared(self):
        """At size 1 a seed-42 run of 300 draws has few distinct relations,
        so most samples are repeats of an earlier one."""
        config = SuiteConfig(max_size=1, samples=300, seed=42)
        sampled = suites._span_corpus(config)[-300:]
        assert len({id(s) for _, s in sampled}) == _distinct(sampled) < 10


class TestMalcevCorpus:
    def test_pointed_walk_at_bound_three(self):
        """The pointed walk keeps exactly the difunctional relations that
        relate the basepoints, each under its index among all of them."""
        carriers = [canonical_pointed_set(n).carrier for n in (1, 2, 3)]
        walked = list(
            enumeration.malcev_corpus(carriers, carriers, 3, None, 0, lambda r: r, pointed=True)
        )
        expected = [
            (f"pointed |A|={len(a)},|B|={len(b)} #{index} R={r!r}", r)
            for a, b in itertools.product(carriers, repeat=2)
            for index, r in enumerate(difunctional_relations(a, b))
            if r.holds(BASEPOINT, BASEPOINT)
        ]
        assert walked == expected
        assert len(walked) == 87  # by a naive quantifier over all 2^(mn) relations

    def test_canonical_pointed_sets_list_the_basepoint_first(self):
        # the pointed walk's first-pair filter and the based draw both
        # read the basepoint at index 0
        for n in range(1, 7):
            assert canonical_pointed_set(n).carrier.elements[0] == BASEPOINT

    def test_seeded_pointed_label_is_frozen(self):
        # seed 17 reads differently at density 0.25 or 0.35 and with the
        # columns of each row drawn in reverse order
        [(label, _)] = sample_pointed_spans(random.Random(17), 1, 4)
        assert label == (
            "sample#0 pointed |A|=4,|B|=3 R={(*,*), (*,x1), (x1,x2), (x2,*), "
            "(x2,x1), (x3,*), (x3,x1)}"
        )


class TestReports:
    def test_all_pass_at_small_bounds(self):
        report = theorem_suites(SuiteConfig(max_size=2, exhaustive=True))
        assert report.passed
        assert [s.name for s in report.suites] == ["T1a", "T1b", "T2", "D"]

    def test_run_all_has_six_suites(self):
        report = run_all_suites(SuiteConfig(max_size=1))
        assert [s.name for s in report.suites] == ["T1a", "T1b", "T2", "D", "P0", "P1"]

    def test_render_caps_failure_listing(self):
        failures = tuple(
            SuiteFailure(f"instance{i}", "check", f"witness{i}") for i in range(9)
        )
        report = RunReport(
            SuiteConfig(),
            (SuiteReport("X", "demo", 9, failures),),
        )
        rendered = report.render()
        assert rendered.count("FAIL instance") == 6
        assert "(+3 more failures)" in rendered
        assert "RESULT: FAIL" in rendered

    def test_render_is_deterministic(self):
        config = SuiteConfig(max_size=2, samples=20, seed=11)
        assert run_all_suites(config).render() == run_all_suites(config).render()


class TestRunLoop:
    def test_an_error_follows_the_failures_already_yielded(self):
        def checks(key):
            yield "first", f"{key} yielded before the error"
            raise PreconditionError("refused mid-check")

        report = suites._run(SuiteConfig(), "X", "demo", [("only", "k")], checks)
        assert report.total == 1
        assert report.failures == (
            SuiteFailure("only", "first", "k yielded before the error"),
            SuiteFailure("only", "construction", "refused mid-check"),
        )

    def test_an_equal_instance_repeats_the_first_ones_failures_under_its_label(self):
        checked = []

        def checks(key):
            checked.append(key)
            yield "check", f"witness {key}"
            if key == 2:
                raise PreconditionError(f"refused {key}")

        labelled = [("a", 1), ("b", 2), ("c", 1), ("d", 3), ("e", 2)]
        report = suites._run(SuiteConfig(), "X", "demo", labelled, checks)
        assert checked == [1, 2, 3]
        assert report.total == 5
        assert report.failures == (
            SuiteFailure("a", "check", "witness 1"),
            SuiteFailure("b", "check", "witness 2"),
            SuiteFailure("b", "construction", "refused 2"),
            SuiteFailure("c", "check", "witness 1"),
            SuiteFailure("d", "check", "witness 3"),
            SuiteFailure("e", "check", "witness 2"),
            SuiteFailure("e", "construction", "refused 2"),
        )

    def test_the_memo_lasts_one_suite_call(self):
        """Running a suite again with the same configuration builds its
        distinct instances again, so no run is served from an earlier one."""
        config = SuiteConfig(max_size=2, samples=20, seed=2024)
        spans = _distinct(suites._span_corpus(config))
        per_suite = (
            (suite_coproducts, pushouts.coproduct_via_pushout, 9),
            (suite_equivalences, pushouts.coequalizer_via_pushout, 4),
            (suite_agreement, pushouts.malcev_pushout_decomposed, spans),
            (suite_certificates, certificates.certify, spans),
            (
                suites.suite_pointed_pushouts,
                pointed.pointed_malcev_pushout,
                _distinct(suites._pointed_corpus(config)),
            ),
        )
        for suite, built, distinct in per_suite:
            runs = [call_counts((built,), lambda: suite(config)) for _ in range(2)]
            assert runs[0][0] == runs[1][0]
            assert runs[0][1] == runs[1][1] == {built.__name__: distinct}


def fresh_run(config, name, description, labelled, checks):
    """Reference for ``suites._run`` with no memo: every instance's checks
    run afresh, however often an equal instance came before."""
    failures, total = [], 0
    with mutants.enabled(config.mutant):
        for label, key in labelled:
            total += 1
            try:
                for check, witness in checks(key):
                    failures.append(SuiteFailure(label, check, witness))
            except suites._CAUGHT as exc:
                failures.append(SuiteFailure(label, "construction", str(exc)))
    return SuiteReport(name, description, total, tuple(failures))


def fresh_direct(run, s):
    """Reference for ``suites._SpanRun.direct``: each lookup builds the
    span's direct pushout afresh, under the mutant enabled at the time."""
    return suites.malcev_pushout_direct(s)


def fresh_pointed_pushout_failures(ps):
    """Reference for ``suites._pointed_pushout_failures``: the pointed route
    builds its own direct pushout, and the transfer check builds a second
    one to compare with."""
    result = pointed.pointed_malcev_pushout(ps)
    yield from suites._certificate_failures(certificates.certify(result.square))
    base_a = ps.left.codomain.basepoint
    base_b = ps.right.codomain.basepoint
    corner_base = result.corner.basepoint
    for side, leg, base in (("left", result.h, base_a), ("right", result.k, base_b)):
        image = leg.function(base)
        if image != corner_base:
            yield (
                f"basepoint:{side}",
                f"{side} leg sends {base!r} to {image!r}, not {corner_base!r}",
            )
    plain = pushouts.malcev_pushout_direct(ps.underlying)
    if result.square.corner != plain.corner:
        yield (
            "transfer",
            f"pointed corner carrier {result.square.corner} "
            f"differs from the plain pushout corner {plain.corner}",
        )
    pulled_base = pointed.pointed_pullback(result.h, result.k).apex.basepoint
    expected_base = pair_name(base_a, base_b)
    if pulled_base != expected_base:
        yield (
            "pointed-pullback",
            f"pullback basepoint {pulled_base!r} is not {expected_base!r}",
        )


class TestFreshReference:
    @pytest.mark.parametrize("mutant", (None,) + KNOWN_MUTANTS)
    @pytest.mark.parametrize(
        "config",
        [
            SuiteConfig(max_size=3, samples=300, seed=42),
            SuiteConfig(max_size=2, exhaustive=True, samples=10, seed=7),
        ],
        ids=["size3-samples300-seed42", "size2-exhaustive-samples10-seed7"],
    )
    def test_each_suite_reports_what_fresh_checks_find(self, config, mutant, monkeypatch):
        config = dataclasses.replace(config, mutant=mutant)
        memoized = run_all_suites(config)
        monkeypatch.setattr(suites, "_run", fresh_run)
        monkeypatch.setattr(suites._SpanRun, "direct", fresh_direct)
        monkeypatch.setattr(suites, "_pointed_pushout_failures", fresh_pointed_pushout_failures)
        fresh = run_all_suites(config)
        assert [s.name for s in fresh.suites] == [s.name for s in memoized.suites]
        for ours, reference in zip(memoized.suites, fresh.suites):
            assert ours.total == reference.total, ours.name
            assert ours.failures == reference.failures, ours.name
        assert fresh.passed == (mutant is None)

    def test_drop_basepoint_link_keeps_its_transfer_witnesses(self, monkeypatch):
        """The mutant's own quotient is still compared with the one
        unmutated direct pushout: P1 reports the transfer failures, with
        the witnesses, that a second transfer build finds."""
        config = SuiteConfig(max_size=3, samples=300, seed=42, mutant=mutants.DROP_BASEPOINT)

        def transfers(report):
            return [f for f in report.failures if f.check == "transfer"]

        ours = transfers(suites.suite_pointed_pushouts(config))
        monkeypatch.setattr(suites, "_pointed_pushout_failures", fresh_pointed_pushout_failures)
        reference = transfers(suites.suite_pointed_pushouts(config))
        assert ours == reference
        assert len({f.witness for f in ours}) > 1
        assert all("differs from the plain pushout corner" in f.witness for f in ours)


class TestMutants:
    @pytest.mark.parametrize("mutant", KNOWN_MUTANTS)
    def test_every_mutant_is_detected(self, mutant):
        report = run_all_suites(
            SuiteConfig(max_size=2, exhaustive=True, samples=10, seed=7, mutant=mutant)
        )
        assert not report.passed
        assert all(f.witness for s in report.suites for f in s.failures)

    def test_drop_ror_block_fails_in_t1b_and_d(self):
        report = run_all_suites(
            SuiteConfig(max_size=2, exhaustive=True, mutant="drop-RoR-block")
        )
        failing = {s.name for s in report.suites if s.failures}
        assert {"T1b", "T2", "D", "P1"} <= failing
        (d,) = [s for s in report.suites if s.name == "D"]
        assert {"certificate:commutes", "certificate:pushout"} <= {f.check for f in d.failures}


class TestCornerChecks:
    @pytest.mark.parametrize(
        "mutant, count, check",
        [(mutants.NONSYMMETRIC, 18, "direct-corner"), (mutants.SKIP_MONO, 4, "pasted-corner")],
    )
    def test_a_refused_square_fails_its_own_corner(self, mutant, count, check):
        report = suite_agreement(SuiteConfig(max_size=2, exhaustive=True, mutant=mutant))
        assert len(report.failures) == count
        assert {f.check for f in report.failures} == {check}
        assert all(
            f.witness.startswith("candidate cospan does not commute with the span: ")
            for f in report.failures
        )

    def test_a_refused_corner_leaves_the_other_corners_checked(self, monkeypatch):
        """Under nonsymmetric-closure the direct square is refused; an
        epi-leg square with one corner element too many is still caught."""
        route = suites._epi_leg_square
        monkeypatch.setattr(suites, "_epi_leg_square", lambda s: widened(route(s)))
        report = suite_agreement(SuiteConfig(max_size=1, mutant=mutants.NONSYMMETRIC))
        label = "|A|=1,|B|=1 #1 R={(a1,b1)}"
        checks = [f.check for f in report.failures if f.instance == label]
        assert checks == ["direct-corner", "epi-leg-corner"]


def _distinct(corpus) -> int:
    """The number of distinct instances in a labelled corpus."""
    return len({key for _, key in corpus})


def _direct_pushouts_per_run(config, report) -> int:
    """One per distinct T2 span, which D reads too; one per distinct P1
    instance, which the pointed route re-points and the transfer check
    compares with; one per T1a and T1b instance."""
    total = {s.name: s.total for s in report.suites}
    spans = _distinct(suites._span_corpus(config))
    pointed_spans = _distinct(suites._pointed_corpus(config))
    assert spans < total["T2"] and pointed_spans < total["P1"]
    return spans + pointed_spans + total["T1a"] + total["T1b"]


class TestSharedObjects:
    def test_one_reference_colimit_per_span_and_one_corpus_per_run(self):
        config = SuiteConfig(max_size=2, samples=20, seed=2024)
        _, counts = call_counts(
            (fsets.canonical_pushout, enumeration._random_difunctional),
            lambda: run_all_suites(config),
        )
        spans = _distinct(suites._span_corpus(config))
        # One draw per sample in each sampled corpus: 20 plain, 20 pointed.
        assert counts == {"canonical_pushout": spans, "_random_difunctional": 20 + 20}

    def test_t2_and_d_share_one_direct_pushout_per_span(self):
        config = SuiteConfig(max_size=2, samples=20, seed=2024)
        report, counts = call_counts(
            (pushouts.malcev_pushout_direct,), lambda: run_all_suites(config)
        )
        assert counts["malcev_pushout_direct"] == _direct_pushouts_per_run(config, report)

    def test_each_run_builds_its_own_direct_pushouts_and_keeps_none(self, monkeypatch):
        """Two equal runs each build one direct pushout per distinct span,
        none served from the other, and once both are over no span or
        result the suites passed through the direct route is still alive."""
        config = SuiteConfig(max_size=2, samples=20, seed=2024)
        route, kept = suites.malcev_pushout_direct, []

        def remembered(s):
            result = route(s)
            kept.extend((weakref.ref(s), weakref.ref(result)))
            return result

        monkeypatch.setattr(suites, "malcev_pushout_direct", remembered)
        for _ in range(2):
            report, counts = call_counts(
                (pushouts.malcev_pushout_direct,), lambda: run_all_suites(config)
            )
            assert counts["malcev_pushout_direct"] == _direct_pushouts_per_run(config, report)
        del report
        gc.collect()
        assert kept and all(ref() is None for ref in kept)

    def test_the_decomposed_route_decides_the_malcev_precondition_once(self):
        """One witness search for the span and one ``is_difunctional`` test,
        itself a witness search, per new stage span; the epi-leg stages do
        not decide it again, and a span whose right leg is onto is its own
        stage-1 span, so only stage 2 is tested."""
        spans, onto = list(exhaustive_malcev_spans(2)), 0
        for label, s in spans:
            _, counts = call_counts(
                (relations.difunctionality_witness, relations.is_difunctional),
                lambda: pushouts.malcev_pushout_decomposed(s),
            )
            stages = 1 if fsets.is_epi(s.right) else 2
            expected = {"difunctionality_witness": 1 + stages, "is_difunctional": stages}
            assert counts == expected, label
            onto += stages == 1
        assert 0 < onto < len(spans)

    def test_the_direct_route_builds_the_span_relation_once(self):
        """``require_malcev`` returns the relation it decided on, and the
        direct route quotients by that relation."""
        for label, s in exhaustive_malcev_spans(2):
            _, counts = call_counts(
                (relations.span_to_relation,), lambda: pushouts.malcev_pushout_direct(s)
            )
            assert counts == {"span_to_relation": 1}, label

    def test_each_route_call_decides_the_malcev_precondition_once(self):
        """A run decides the precondition once per direct and decomposed
        pushout; T2's epi-leg corners do not decide it again."""
        config = SuiteConfig(max_size=2, samples=20, seed=2024)
        routes = (
            pushouts.malcev_pushout_direct,
            pushouts.malcev_pushout_decomposed,
            pushouts.pushout_epi_leg,
            pushouts._epi_leg_square,
        )
        _, counts = call_counts(
            (pushouts.require_malcev,) + routes, lambda: run_all_suites(config)
        )
        spans = {s for _, s in suites._span_corpus(config)}
        assert counts["pushout_epi_leg"] == 0
        assert counts["malcev_pushout_decomposed"] == len(spans)
        epi = sum(fsets.is_epi(s.right) for s in spans)
        assert counts["_epi_leg_square"] == 2 * len(spans) + epi
        assert counts["require_malcev"] == (
            counts["malcev_pushout_direct"] + counts["malcev_pushout_decomposed"]
        )

    @pytest.mark.parametrize("mutant", KNOWN_MUTANTS)
    def test_corpus_does_not_depend_on_the_mutant(self, mutant):
        config = SuiteConfig(max_size=2, samples=5, seed=9)
        plain = suites._span_corpus(config)
        with mutants.enabled(mutant):
            mutated = suites._span_corpus(dataclasses.replace(config, mutant=mutant))
        assert mutated == plain

    def test_p1_builds_one_span_relation_per_distinct_pointed_span(self, monkeypatch):
        """The pointed route and the transfer check read one underlying span,
        built once per pointed span, so they share its one relation.  Every
        P1 pointed span is a tabulation, whose underlying span is the
        tabulated span itself, which already keeps its relation: so P1
        builds none."""
        config = SuiteConfig(max_size=3, samples=300, seed=42)
        built = []
        build = Relation._of_index_pairs

        def counted(source, target, pairs):
            built.append(build(source, target, pairs))
            return built[-1]

        monkeypatch.setattr(Relation, "_of_index_pairs", staticmethod(counted))
        report = suites.suite_pointed_pushouts(config)
        assert report.passed
        assert _distinct(suites._pointed_corpus(config)) == 56
        assert len(built) == 0

    def test_coproduct_is_built_once_per_pair_of_feet(self):
        fsets.coproduct.cache_clear()
        run_all_suites(SuiteConfig(max_size=2, samples=5, seed=4))
        info = fsets.coproduct.cache_info()
        assert info.maxsize == 128
        assert info.misses == info.currsize < info.hits


class TestSharedDirectErrors:
    """A span the direct route refuses is a ``construction`` failure in T2
    and in D alike, and both suites still check every other span."""

    def test_a_refused_span_fails_once_in_each_suite(self, monkeypatch):
        config = SuiteConfig(max_size=2, exhaustive=True)
        corpus = suites._span_corpus(config)
        label, refused = corpus[len(corpus) // 2]
        route = suites.malcev_pushout_direct

        def refusing(s):
            if s == refused:
                raise InternalInvariantError("direct-pushout", "refused on purpose")
            return route(s)

        monkeypatch.setattr(suites, "malcev_pushout_direct", refusing)
        expected = (
            SuiteFailure(label, "construction", "[direct-pushout] refused on purpose"),
        )
        t2, decomposed = call_counts(
            (pushouts.malcev_pushout_decomposed,), lambda: suite_agreement(config)
        )
        d, certified = call_counts((certificates.certify,), lambda: suite_certificates(config))
        assert t2.failures == expected and d.failures == expected
        assert t2.total == d.total == len(corpus) == 27
        assert decomposed == {"malcev_pushout_decomposed": len(corpus) - 1}
        assert certified == {"certify": len(corpus) - 1}

    def test_a_refused_span_fails_again_in_d_of_a_shared_run(self, monkeypatch):
        """The shared run stores no refusal: D asks the route again and
        gets the same error T2 got."""
        config = SuiteConfig(max_size=2, exhaustive=True)
        corpus = suites._span_corpus(config)
        label, refused = corpus[len(corpus) // 2]
        route, asked = suites.malcev_pushout_direct, []

        def refusing(s):
            if s == refused:
                asked.append(s)
                raise InternalInvariantError("direct-pushout", "refused on purpose")
            return route(s)

        monkeypatch.setattr(suites, "malcev_pushout_direct", refusing)
        t2, d = theorem_suites(config).suites[2:]
        expected = (
            SuiteFailure(label, "construction", "[direct-pushout] refused on purpose"),
        )
        assert t2.failures == d.failures == expected
        assert len(asked) == 2
