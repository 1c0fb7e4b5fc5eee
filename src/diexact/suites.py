"""Aggregated verification suites with deterministic plain-text reports.

Four suites exercise the plain constructions (coproducts, equivalence
coequalizers, direct-vs-decomposed agreement, full certificates over the
span corpus) and two exercise the pointed layer.  Instance order, sampling
and report text are all deterministic functions of the configuration, so a
report is byte-reproducible and diffable.

The span corpus of T2 and D and the pointed corpus of P1 both come from
``enumeration.malcev_corpus``.  T2 and D of one run share one span corpus
and the direct route's result for each distinct span, both built once per
run and dropped with it; T2 compares every route's corner with one
reference colimit per distinct span.

Every suite but P0 is a labelled corpus of instances plus one generator of
the (check, witness) pairs an instance fails, run by the one loop ``_run``.
``_run`` enables ``SuiteConfig.mutant`` (see ``mutants``), counts the
instances, records a failure per pair and turns an error raised while
checking an instance into a ``construction`` failure.  It builds and checks
each distinct instance once per suite; an equal instance repeated later
reports that instance's failures under its own label.  P0 checks the
zero-object facts, which no mutant touches, and enables none.  Every mutant
must make at least one suite fail with an element-level witness, which is
how the suites themselves are tested for teeth.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Iterator

from . import mutants
from .certificates import PushoutCertificate, certify, effectiveness_check
from .enumeration import all_equivalences, letters, malcev_corpus
from .errors import InternalInvariantError, PreconditionError
from .fsets import (
    CommutativeSquare,
    Span,
    canonical_pushout,
    coproduct,
    is_epi,
    is_iso,
    kernel_pair,
    mediating_map,
    pullback,
)
from .names import pair_name
from .pointed import (
    PointedSpan,
    canonical_pointed_set,
    pointed_malcev_pushout,
    pointed_pullback,
    pointed_span_from_relation,
    zero_object_checks,
)
from .pushouts import (
    MalcevPushoutResult,
    _epi_leg_square,
    coequalizer_via_pushout,
    coproduct_via_pushout,
    malcev_pushout_decomposed,
    malcev_pushout_direct,
)
from .relations import (
    Relation,
    converse,
    is_reflexive,
    is_symmetric,
    is_transitive,
    rel_compose,
    span_to_relation,
    tabulate,
)

_CAUGHT = (PreconditionError, InternalInvariantError, ValueError)

MAX_FAILURES_SHOWN = 6  # failures listed per suite in a rendered report
SMALL_BOUND = 2  # largest carrier walked exhaustively by P1, and by T2/D unless exhaustive


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
        return self.max_size if self.exhaustive else min(self.max_size, SMALL_BOUND)


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

    def render(self) -> str:
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
            for failure in suite.failures[:MAX_FAILURES_SHOWN]:
                lines.append(
                    f"  FAIL {failure.instance} | {failure.check} | {failure.witness}"
                )
            hidden = len(suite.failures) - MAX_FAILURES_SHOWN
            if hidden > 0:
                lines.append(f"  (+{hidden} more failures)")
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(
            f"RESULT: {verdict} ({len(self.suites)} suites, "
            f"{self.total_instances} instances, {self.total_failures} failures)"
        )
        return "\n".join(lines) + "\n"


Checks = Iterator[tuple[str, str]]  # one instance's failed (check, witness) pairs


def _run(
    config: SuiteConfig,
    name: str,
    description: str,
    labelled: Iterable[tuple[str, Hashable]],
    checks: Callable[[Hashable], Checks],
) -> SuiteReport:
    """The one instance loop of every suite but P0: with the configuration's
    mutant enabled, count each labelled instance and record one failure per
    (check, witness) ``checks(key)`` yields, run once per distinct key.  An
    error the checks raise ends them with a ``construction`` failure."""

    def caught(key: Hashable) -> Checks:
        try:
            yield from checks(key)
        except _CAUGHT as exc:
            yield "construction", str(exc)

    memo: dict[Hashable, tuple[tuple[str, str], ...]] = {}
    failures: list[SuiteFailure] = []
    total = 0
    with mutants.enabled(config.mutant):
        for label, key in labelled:
            total += 1
            if key not in memo:
                memo[key] = tuple(caught(key))
            failures += (SuiteFailure(label, check, witness) for check, witness in memo[key])
    return SuiteReport(name, description, total, tuple(failures))


def _certificate_failures(cert: PushoutCertificate) -> Checks:
    named = (
        ("commutes", cert.commutes),
        ("pushout", cert.is_pushout),
        ("pullback", cert.is_pullback),
        ("stable", cert.is_stable),
        ("jointly-epic", cert.jointly_epic),
    )
    for check, verdict in named:
        if not verdict.ok:
            yield f"certificate:{check}", verdict.detail


def _first_violation(r: Relation, s: Relation) -> str:
    """First pair where r holds but s does not, rendered; empty if r <= s."""
    for a, b in r.pairs():
        if not s.holds(a, b):
            return pair_name(a, b)
    return ""


def _first_difference(r: Relation, s: Relation) -> str:
    """First pair where r and s differ, looking in r before s; empty if equal."""
    return _first_violation(r, s) or _first_violation(s, r)


def _e_structure_failures(result: MalcevPushoutResult) -> Checks:
    """The block equivalence must be reflexive, symmetric, transitive, and
    recovered as the kernel pair of its quotient."""
    e = result.e
    if not is_reflexive(e):
        missing = next(x for x in e.source if not e.holds(x, x))
        yield "e:reflexive", f"{pair_name(missing, missing)} missing"
    if not is_symmetric(e):
        yield "e:symmetric", _first_violation(e, converse(e))
    if not is_transitive(e):
        where = _first_violation(rel_compose(e, e), e)
        yield "e:transitive", f"EE holds at {where} but E does not"
    recovered = span_to_relation(kernel_pair(result.quotient))
    if recovered != e:
        where = _first_difference(recovered, e)
        yield "e:kernel-pair-recovery", f"kernel pair of the quotient differs from E at {where}"


def suite_coproducts(config: SuiteConfig) -> SuiteReport:
    """Empty-apex pushouts: corner equals the tagged coproduct and the
    square is a disjoint (pullback) stable pushout."""

    def checks(sizes: tuple[int, int]) -> Checks:
        a, b = letters("a", sizes[0]), letters("b", sizes[1])
        result = coproduct_via_pushout(a, b)
        expected, _, _ = coproduct(a, b)
        if result.corner != expected:
            yield "corner", f"corner {result.corner} differs from coproduct {expected}"
        yield from _certificate_failures(certify(result.square))

    sizes = range(config.max_size + 1)
    labelled = ((f"coproduct |A|={m},|B|={n}", (m, n)) for m in sizes for n in sizes)
    return _run(config, "T1a", "coproducts-disjoint-stable", labelled, checks)


def suite_equivalences(config: SuiteConfig) -> SuiteReport:
    """Equivalence relations pushed out along their tabulations: the legs
    coincide, the quotient is effective, and E is recovered."""

    def checks(e: Relation) -> Checks:
        result = coequalizer_via_pushout(e)
        if result.h != result.k:
            yield "legs", "pushout legs differ on a reflexive span"
        if not effectiveness_check(e):
            yield "effectiveness", "quotient kernel pair differs from E"
        recovered = span_to_relation(kernel_pair(result.h))
        if recovered != e:
            where = _first_difference(recovered, e)
            yield "leg-kernel-pair", f"kernel pair of the common leg differs from E at {where}"
        yield from _e_structure_failures(result)
        yield from _certificate_failures(certify(result.square))

    labelled = (
        (f"|A|={size} {partition_label}", e)
        for size in range(config.max_size + 1)
        for partition_label, e in all_equivalences(letters("a", size))
    )
    return _run(config, "T1b", "equivalence-coequalizers", labelled, checks)


def _span_corpus(config: SuiteConfig) -> tuple[tuple[str, Span], ...]:
    """The labelled spans of T2 and D: ``malcev_corpus`` over ``letters``
    carriers of sizes up to ``max_size``, walked up to the exhaustive bound.

    ``enumeration`` asks for no mutant, so the corpus does not depend on
    the one the configuration names.
    """
    sources = [letters("a", n) for n in range(config.max_size + 1)]
    targets = [letters("b", n) for n in range(config.max_size + 1)]
    rng, bound = random.Random(config.seed), config.exhaustive_bound
    return tuple(malcev_corpus(sources, targets, bound, rng, config.samples, tabulate))


class _SpanRun:
    """What T2 and D of one run share: the span corpus and the direct
    route's result for each distinct span, built the first time a check
    asks for it, so inside ``_run`` under the configuration's mutant.  A
    span the route refuses stores nothing and raises again, with the same
    text, in the next suite that asks."""

    def __init__(self, config: SuiteConfig) -> None:
        self.corpus = _span_corpus(config)
        self._direct: dict[Span, MalcevPushoutResult] = {}

    def direct(self, s: Span) -> MalcevPushoutResult:
        if s not in self._direct:
            self._direct[s] = malcev_pushout_direct(s)
        return self._direct[s]


def _corner_failures(
    route: str, canon: CommutativeSquare, square: CommutativeSquare
) -> Checks:
    """The comparison from the span's reference colimit ``canon`` onto a
    route's own corner must exist and be a bijection."""
    try:
        comparison = mediating_map(canon, square.cospan)
    except _CAUGHT as exc:
        yield f"{route}-corner", str(exc)
        return
    if not is_iso(comparison):
        yield (
            f"{route}-corner",
            f"comparison onto the {route} corner is not bijective: {comparison!r}",
        )


def suite_agreement(config: SuiteConfig, run: _SpanRun | None = None) -> SuiteReport:
    """Direct block-equivalence pushouts agree, up to the unique comparison
    isomorphism, with the decomposed pipeline and, where it applies, with
    the epi-leg body, which skips the precondition the direct route passed."""

    run = run or _SpanRun(config)

    def checks(s: Span) -> Checks:
        direct = run.direct(s)
        trace = malcev_pushout_decomposed(s)
        canon = canonical_pushout(s)
        yield from _corner_failures("direct", canon, direct.square)
        yield from _corner_failures("pasted", canon, trace.pasted)
        if is_epi(s.right):
            yield from _corner_failures("epi-leg", canon, _epi_leg_square(s))

    return _run(config, "T2", "direct-vs-decomposed", run.corpus, checks)


def suite_certificates(config: SuiteConfig, run: _SpanRun | None = None) -> SuiteReport:
    """Full certification of every corpus span's direct pushout, plus the
    E-structure and pullback-recovery facts behind it."""

    run = run or _SpanRun(config)

    def checks(s: Span) -> Checks:
        result = run.direct(s)
        yield from _certificate_failures(certify(result.square))
        yield from _e_structure_failures(result)
        recovered = span_to_relation(pullback(result.square.cospan))
        original = span_to_relation(s)
        if recovered != original:
            where = _first_difference(recovered, original)
            yield (
                "pullback-recovery",
                f"pullback of the legs differs from the span's relation at {where}",
            )

    return _run(config, "D", "malcev-span-certificates", run.corpus, checks)


def theorem_suites(config: SuiteConfig) -> RunReport:
    """The four plain-set suites; T2 and D share one ``_SpanRun``."""
    run = _SpanRun(config)
    return RunReport(
        config,
        (
            suite_coproducts(config),
            suite_equivalences(config),
            suite_agreement(config, run),
            suite_certificates(config, run),
        ),
    )


def suite_zero_object(config: SuiteConfig) -> SuiteReport:
    """The zero object's facts for pointed sets of each size up to a bound,
    one instance per size; no construction runs here, so no mutant is
    enabled."""
    bound = max(1, min(config.max_size, 5))
    instance = f"pointed sets of size <= {bound}"
    failures = tuple(
        SuiteFailure(instance, "zero-object", f) for f in zero_object_checks(bound).failures
    )
    return SuiteReport("P0", "zero-object-nonstrict-initial", bound, failures)


def _pointed_corpus(config: SuiteConfig) -> list[tuple[str, PointedSpan]]:
    """The labelled pointed spans of P1: the pointed ``malcev_corpus`` over
    canonical pointed sets of sizes 1 to ``max(1, max_size)``, walked up
    to ``SMALL_BOUND`` whatever ``exhaustive`` says, with 25 draws when
    ``samples`` is 0."""
    sets = {n: canonical_pointed_set(n) for n in range(1, max(1, config.max_size) + 1)}
    carriers = [p.carrier for p in sets.values()]

    def build(r: Relation) -> PointedSpan:
        return pointed_span_from_relation(sets[len(r.source)], sets[len(r.target)], r)

    small = max(1, min(config.max_size, SMALL_BOUND))
    rng = random.Random(config.seed)
    count = config.samples or 25
    return list(malcev_corpus(carriers, carriers, small, rng, count, build, pointed=True))


def suite_pointed_pushouts(config: SuiteConfig) -> SuiteReport:
    """Pointed Mal'cev pushouts: certified on the underlying sets, with
    basepoint bookkeeping and the underlying-set transfer equality."""

    def checks(ps) -> Checks:
        result = pointed_malcev_pushout(ps)
        yield from _certificate_failures(certify(result.underlying.square))
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
        plain = malcev_pushout_direct(ps.underlying)
        if result.underlying.square.corner != plain.corner:
            yield (
                "transfer",
                f"pointed corner carrier {result.underlying.square.corner} "
                f"differs from the plain pushout corner {plain.corner}",
            )
        pulled_base = pointed_pullback(result.h, result.k).apex.basepoint
        expected_base = pair_name(base_a, base_b)
        if pulled_base != expected_base:
            yield (
                "pointed-pullback",
                f"pullback basepoint {pulled_base!r} is not {expected_base!r}",
            )

    return _run(config, "P1", "pointed-pushout-certificates", _pointed_corpus(config), checks)


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
