"""Aggregated verification suites with deterministic plain-text reports.

Four suites exercise the plain constructions (coproducts, equivalence
coequalizers, direct-vs-decomposed agreement, full certificates over the
span corpus) and two exercise the pointed layer.  Instance order, sampling
and report text are all deterministic functions of the configuration, so a
report is byte-reproducible and diffable.

Each suite runs with ``SuiteConfig.mutant`` enabled (see ``mutants``);
every mutant must make at least one suite fail with an element-level
witness, which is how the suites themselves are tested for teeth.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Callable

from . import mutants
from .certificates import PushoutCertificate, certify, effectiveness_check
from .enumeration import (
    all_equivalences,
    difunctional_relations,
    exhaustive_malcev_spans,
    letters,
    random_malcev_span,
)
from .errors import InternalInvariantError, PreconditionError
from .fsets import (
    canonical_comparison,
    coproduct,
    is_epi,
    is_iso,
    kernel_pair,
    pair_name,
    pullback,
)
from .pointed import (
    BASEPOINT,
    canonical_pointed_set,
    pointed_malcev_pushout,
    pointed_pullback,
    pointed_span_from_relation,
    random_pointed_span,
    zero_object_checks,
)
from .pushouts import (
    MalcevPushoutResult,
    coequalizer_via_pushout,
    coproduct_via_pushout,
    malcev_pushout_decomposed,
    malcev_pushout_direct,
    pushout_epi_leg,
)
from .relations import (
    Relation,
    converse,
    is_reflexive,
    is_symmetric,
    leq,
    rel_compose,
    span_to_relation,
)

_CAUGHT = (PreconditionError, InternalInvariantError, ValueError)


@dataclass(frozen=True)
class SuiteConfig:
    """Corpus bounds and determinism knobs shared by all suites."""

    max_size: int = 3
    samples: int = 0
    seed: int = 0
    exhaustive: bool = False
    mutant: str | None = None

    def __post_init__(self) -> None:
        if self.max_size < 0:
            raise ValueError("max_size must be nonnegative")
        if self.samples < 0:
            raise ValueError("samples must be nonnegative")
        mutants.check(self.mutant)

    @property
    def exhaustive_bound(self) -> int:
        return self.max_size if self.exhaustive else min(self.max_size, 2)


@dataclass(frozen=True)
class SuiteFailure:
    instance: str
    check: str
    witness: str


@dataclass(frozen=True)
class SuiteReport:
    name: str
    description: str
    total: int
    failures: tuple[SuiteFailure, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class RunReport:
    config: SuiteConfig
    suites: tuple[SuiteReport, ...]

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.suites)

    @property
    def total_instances(self) -> int:
        return sum(s.total for s in self.suites)

    @property
    def total_failures(self) -> int:
        return sum(len(s.failures) for s in self.suites)

    def render(self, max_failures_per_suite: int = 6) -> str:
        cfg = self.config
        lines = [
            "suites: "
            f"max-size={cfg.max_size} samples={cfg.samples} seed={cfg.seed} "
            f"exhaustive={'yes' if cfg.exhaustive else 'no'} "
            f"mutant={cfg.mutant or 'none'}"
        ]
        for suite in self.suites:
            lines.append(
                f"{suite.name} {suite.description}: "
                f"{suite.total} instances, {len(suite.failures)} failures"
            )
            for failure in suite.failures[:max_failures_per_suite]:
                lines.append(
                    f"  FAIL {failure.instance} | {failure.check} | {failure.witness}"
                )
            hidden = len(suite.failures) - max_failures_per_suite
            if hidden > 0:
                lines.append(f"  (+{hidden} more failures)")
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(
            f"RESULT: {verdict} ({len(self.suites)} suites, "
            f"{self.total_instances} instances, {self.total_failures} failures)"
        )
        return "\n".join(lines) + "\n"


def _under_mutant(
    suite: Callable[[SuiteConfig], SuiteReport]
) -> Callable[[SuiteConfig], SuiteReport]:
    """Run the suite with its configuration's mutant enabled."""

    @functools.wraps(suite)
    def run(config: SuiteConfig) -> SuiteReport:
        with mutants.enabled(config.mutant):
            return suite(config)

    return run


def _certificate_failures(
    failures: list[SuiteFailure], label: str, cert: PushoutCertificate
) -> None:
    named = (
        ("commutes", cert.commutes),
        ("pushout", cert.is_pushout),
        ("pullback", cert.is_pullback),
        ("stable", cert.is_stable),
        ("jointly-epic", cert.jointly_epic),
    )
    for check, verdict in named:
        if not verdict.ok:
            failures.append(SuiteFailure(label, f"certificate:{check}", verdict.detail))


def _first_violation(r: Relation, s: Relation) -> str:
    """First pair where r holds but s does not, rendered; empty if r <= s."""
    for a, b in r.pairs():
        if not s.holds(a, b):
            return pair_name(a, b)
    return ""


def _e_structure_failures(
    failures: list[SuiteFailure], label: str, result: MalcevPushoutResult
) -> None:
    """The block equivalence must be reflexive, symmetric, transitive, and
    recovered as the kernel pair of its quotient."""
    e = result.e
    if not is_reflexive(e):
        missing = next(x for x in e.source if not e.holds(x, x))
        failures.append(
            SuiteFailure(label, "e:reflexive", f"{pair_name(missing, missing)} missing")
        )
    if not is_symmetric(e):
        failures.append(
            SuiteFailure(label, "e:symmetric", _first_violation(e, converse(e)))
        )
    square_of_e = rel_compose(e, e)
    if not leq(square_of_e, e):
        failures.append(
            SuiteFailure(
                label,
                "e:transitive",
                f"EE holds at {_first_violation(square_of_e, e)} but E does not",
            )
        )
    recovered = span_to_relation(kernel_pair(result.quotient))
    if recovered != e:
        extra = _first_violation(recovered, e) or _first_violation(e, recovered)
        failures.append(
            SuiteFailure(
                label,
                "e:kernel-pair-recovery",
                f"kernel pair of the quotient differs from E at {extra}",
            )
        )


@_under_mutant
def suite_coproducts(config: SuiteConfig) -> SuiteReport:
    """Empty-apex pushouts: corner equals the tagged coproduct and the
    square is a disjoint (pullback) stable pushout."""
    failures: list[SuiteFailure] = []
    total = 0
    for m in range(config.max_size + 1):
        for n in range(config.max_size + 1):
            label = f"coproduct |A|={m},|B|={n}"
            total += 1
            try:
                result = coproduct_via_pushout(letters("a", m), letters("b", n))
                expected, _, _ = coproduct(letters("a", m), letters("b", n))
                if result.corner != expected:
                    failures.append(
                        SuiteFailure(
                            label,
                            "corner",
                            f"corner {result.corner} differs from coproduct {expected}",
                        )
                    )
                _certificate_failures(failures, label, certify(result.square))
            except _CAUGHT as exc:
                failures.append(SuiteFailure(label, "construction", str(exc)))
    return SuiteReport("T1a", "coproducts-disjoint-stable", total, tuple(failures))


@_under_mutant
def suite_equivalences(config: SuiteConfig) -> SuiteReport:
    """Equivalence relations pushed out along their tabulations: the legs
    coincide, the quotient is effective, and E is recovered."""
    failures: list[SuiteFailure] = []
    total = 0
    for size in range(config.max_size + 1):
        carrier = letters("a", size)
        for partition_label, e in all_equivalences(carrier):
            label = f"|A|={size} {partition_label}"
            total += 1
            try:
                result = coequalizer_via_pushout(e)
                if result.h != result.k:
                    failures.append(
                        SuiteFailure(label, "legs", "pushout legs differ on a reflexive span")
                    )
                if not effectiveness_check(e):
                    failures.append(
                        SuiteFailure(label, "effectiveness", "quotient kernel pair differs from E")
                    )
                recovered = span_to_relation(kernel_pair(result.h))
                if recovered != e:
                    where = _first_violation(recovered, e) or _first_violation(e, recovered)
                    failures.append(
                        SuiteFailure(
                            label,
                            "leg-kernel-pair",
                            f"kernel pair of the common leg differs from E at {where}",
                        )
                    )
                _e_structure_failures(failures, label, result)
                _certificate_failures(failures, label, certify(result.square))
            except _CAUGHT as exc:
                failures.append(SuiteFailure(label, "construction", str(exc)))
    return SuiteReport("T1b", "equivalence-coequalizers", total, tuple(failures))


def _span_corpus(config: SuiteConfig) -> list[tuple[str, object]]:
    corpus: list[tuple[str, object]] = list(
        exhaustive_malcev_spans(config.exhaustive_bound)
    )
    rng = random.Random(config.seed)
    for i in range(config.samples):
        label, s = random_malcev_span(rng, config.max_size)
        corpus.append((f"sample#{i} {label}", s))
    return corpus


@_under_mutant
def suite_agreement(config: SuiteConfig) -> SuiteReport:
    """Direct block-equivalence pushouts agree, up to the unique comparison
    isomorphism, with the decomposed pipeline (and with the epi-leg
    construction where it applies)."""
    failures: list[SuiteFailure] = []
    corpus = _span_corpus(config)
    for label, s in corpus:
        try:
            direct = malcev_pushout_direct(s)
            trace = malcev_pushout_decomposed(s)
            to_direct = canonical_comparison(direct.square, direct.square.cospan)
            if not is_iso(to_direct):
                failures.append(
                    SuiteFailure(
                        label,
                        "direct-corner",
                        f"comparison onto the direct corner is not bijective: {to_direct!r}",
                    )
                )
            to_pasted = canonical_comparison(trace.pasted, trace.pasted.cospan)
            if not is_iso(to_pasted):
                failures.append(
                    SuiteFailure(
                        label,
                        "pasted-corner",
                        f"comparison onto the pasted corner is not bijective: {to_pasted!r}",
                    )
                )
            if is_epi(s.right):
                epi_result = pushout_epi_leg(s)
                to_epi = canonical_comparison(epi_result.square, epi_result.square.cospan)
                if not is_iso(to_epi):
                    failures.append(
                        SuiteFailure(
                            label,
                            "epi-leg-corner",
                            f"comparison onto the epi-leg corner is not bijective: {to_epi!r}",
                        )
                    )
        except _CAUGHT as exc:
            failures.append(SuiteFailure(label, "construction", str(exc)))
    return SuiteReport("T2", "direct-vs-decomposed", len(corpus), tuple(failures))


@_under_mutant
def suite_certificates(config: SuiteConfig) -> SuiteReport:
    """Full certification of every corpus span's direct pushout, plus the
    E-structure and pullback-recovery facts behind it."""
    failures: list[SuiteFailure] = []
    corpus = _span_corpus(config)
    for label, s in corpus:
        try:
            result = malcev_pushout_direct(s)
            _certificate_failures(failures, label, certify(result.square))
            _e_structure_failures(failures, label, result)
            recovered_span, _ = pullback(result.square.cospan)
            recovered = span_to_relation(recovered_span)
            original = span_to_relation(s)
            if recovered != original:
                where = _first_violation(recovered, original) or _first_violation(
                    original, recovered
                )
                failures.append(
                    SuiteFailure(
                        label,
                        "pullback-recovery",
                        f"pullback of the legs differs from the span's relation at {where}",
                    )
                )
        except _CAUGHT as exc:
            failures.append(SuiteFailure(label, "construction", str(exc)))
    return SuiteReport("D", "malcev-span-certificates", len(corpus), tuple(failures))


def theorem_suites(config: SuiteConfig) -> RunReport:
    """The four plain-set suites."""
    return RunReport(
        config,
        (
            suite_coproducts(config),
            suite_equivalences(config),
            suite_agreement(config),
            suite_certificates(config),
        ),
    )


@_under_mutant
def suite_zero_object(config: SuiteConfig) -> SuiteReport:
    bound = max(1, min(config.max_size, 5))
    report = zero_object_checks(bound)
    failures = [
        SuiteFailure(f"pointed sets of size <= {bound}", "zero-object", f)
        for f in report.failures
    ]
    return SuiteReport("P0", "zero-object-nonstrict-initial", bound, tuple(failures))


def _pointed_corpus(config: SuiteConfig) -> list[tuple[str, object]]:
    corpus: list[tuple[str, object]] = []
    small = max(1, min(config.max_size, 2))
    for m in range(1, small + 1):
        for n in range(1, small + 1):
            a = canonical_pointed_set(m)
            b = canonical_pointed_set(n)
            for index, r in enumerate(
                difunctional_relations(a.carrier, b.carrier)
            ):
                if not r.holds(BASEPOINT, BASEPOINT):
                    continue
                corpus.append(
                    (
                        f"pointed |A|={m},|B|={n} #{index} R={r!r}",
                        pointed_span_from_relation(a, b, r),
                    )
                )
    rng = random.Random(config.seed)
    n_samples = config.samples if config.samples else 25
    for i in range(n_samples):
        label, ps = random_pointed_span(rng, max(1, config.max_size))
        corpus.append((f"sample#{i} {label}", ps))
    return corpus


@_under_mutant
def suite_pointed_pushouts(config: SuiteConfig) -> SuiteReport:
    """Pointed Mal'cev pushouts: certified on the underlying sets, with
    basepoint bookkeeping and the underlying-set transfer equality."""
    failures: list[SuiteFailure] = []
    corpus = _pointed_corpus(config)
    for label, ps in corpus:
        try:
            result = pointed_malcev_pushout(ps)
            _certificate_failures(failures, label, certify(result.underlying.square))
            base_a = ps.left.codomain.basepoint
            base_b = ps.right.codomain.basepoint
            if result.h.function(base_a) != result.corner.basepoint:
                failures.append(
                    SuiteFailure(
                        label,
                        "basepoint:left",
                        f"left leg sends {base_a!r} to {result.h.function(base_a)!r}, "
                        f"not {result.corner.basepoint!r}",
                    )
                )
            if result.k.function(base_b) != result.corner.basepoint:
                failures.append(
                    SuiteFailure(
                        label,
                        "basepoint:right",
                        f"right leg sends {base_b!r} to {result.k.function(base_b)!r}, "
                        f"not {result.corner.basepoint!r}",
                    )
                )
            plain = malcev_pushout_direct(ps.underlying)
            if result.underlying.square.corner != plain.corner:
                failures.append(
                    SuiteFailure(
                        label,
                        "transfer",
                        f"pointed corner carrier {result.underlying.square.corner} "
                        f"differs from the plain pushout corner {plain.corner}",
                    )
                )
            pulled, apex = pointed_pullback(result.h, result.k)
            expected_base = pair_name(base_a, base_b)
            if apex.basepoint != expected_base:
                failures.append(
                    SuiteFailure(
                        label,
                        "pointed-pullback",
                        f"pullback basepoint {apex.basepoint!r} is not {expected_base!r}",
                    )
                )
        except _CAUGHT as exc:
            failures.append(SuiteFailure(label, "construction", str(exc)))
    return SuiteReport("P1", "pointed-pushout-certificates", len(corpus), tuple(failures))


def pointed_diexact_suite(config: SuiteConfig) -> RunReport:
    """The two pointed-set suites: zero-object facts and certified pointed
    pushouts."""
    return RunReport(config, (suite_zero_object(config), suite_pointed_pushouts(config)))


def run_all_suites(config: SuiteConfig) -> RunReport:
    """Everything the suite command reports: four plain suites, then the
    two pointed ones."""
    return RunReport(
        config,
        theorem_suites(config).suites + pointed_diexact_suite(config).suites,
    )
