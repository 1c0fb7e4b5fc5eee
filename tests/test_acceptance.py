"""Acceptance criteria, one test per criterion, each printing a verdict line.

Frozen regression constants were established by the standalone enumeration
oracle (``scripts/count_corpus.py``) before the build:

* difunctional relations by size pair (|A|, |B|), sizes 0..3:
  row |A|=0: 1,1,1,1; |A|=1: 1,2,4,8; |A|=2: 1,4,12,34; |A|=3: 1,8,34,128;
  total over all pairs up to 3: 241 (27 up to size 2);
* set partitions by size 0..5: 1, 1, 2, 5, 15, 52;
* commuting squares with all four sets of size at most 3: 74112, of which
  5428 are pushouts and 4348 are pullbacks (established by the exhaustive
  sweep itself and frozen).

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import itertools
import random
import time

import pytest

from diexact.certificates import (
    certify,
    effectiveness_check,
    is_pullback_square,
    is_pushout_square,
    is_stable_pushout,
    pullback_by_universal_property,
    pushout_by_universal_property,
    stable_by_all_pullbacks,
)
from diexact.cli import main
from diexact.enumeration import (
    all_set_partitions,
    exhaustive_malcev_spans,
    letters,
    random_malcev_span,
)
from diexact.errors import NotMalcevError
from diexact.fsets import (
    CommutativeSquare,
    Cospan,
    FiniteSet,
    SetFunction,
    Span,
    canonical_comparison,
    canonical_pushout,
    fset,
    is_iso,
    kernel_pair,
    pullback,
)
from diexact.pointed import pointed_malcev_pushout, zero_object_checks
from diexact.pushouts import (
    malcev_pushout_decomposed,
    malcev_pushout_direct,
)
from diexact.relations import (
    Relation,
    is_reflexive,
    is_symmetric,
    leq,
    rel_compose,
    span_to_relation,
    tabulate,
)
from diexact.suites import SuiteConfig, run_all_suites, suite_coproducts
from conftest import sample_pointed_spans

DIFUNCTIONAL_COUNTS = {
    (0, 0): 1, (0, 1): 1, (0, 2): 1, (0, 3): 1,
    (1, 0): 1, (1, 1): 2, (1, 2): 4, (1, 3): 8,
    (2, 0): 1, (2, 1): 4, (2, 2): 12, (2, 3): 34,
    (3, 0): 1, (3, 1): 8, (3, 2): 34, (3, 3): 128,
}
DIFUNCTIONAL_TOTAL_UP_TO_3 = 241
BELL_NUMBERS = (1, 1, 2, 5, 15, 52)
COMMUTING_SQUARES_UP_TO_3 = 74112
PUSHOUT_SQUARES_UP_TO_3 = 5428
PULLBACK_SQUARES_UP_TO_3 = 4348


def verdict(number: int, ok: bool, message: str) -> None:
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {message}")
    assert ok, message


def corpus_up_to_3():
    return list(exhaustive_malcev_spans(3))


def test_criterion_1_direct_pushouts_certified_exhaustively():
    started = time.monotonic()
    corpus = corpus_up_to_3()
    per_pair: dict[tuple[int, int], int] = {}
    for label, s in corpus:
        per_pair[tuple(map(len, s.feet))] = per_pair.get(tuple(map(len, s.feet)), 0) + 1
        cert = certify(malcev_pushout_direct(s).square)
        assert cert.commutes.ok and cert.is_pushout.ok, label
        assert cert.is_pullback.ok and cert.is_stable.ok, label
    elapsed = time.monotonic() - started
    assert per_pair == DIFUNCTIONAL_COUNTS
    assert len(corpus) == DIFUNCTIONAL_TOTAL_UP_TO_3
    assert elapsed < 60
    verdict(
        1,
        True,
        f"all {len(corpus)} difunctional spans (sizes <= 3) certified "
        f"commuting+pushout+pullback+stable in {elapsed:.1f}s",
    )


def test_criterion_2_block_equivalence_structure():
    failures = 0
    for label, s in corpus_up_to_3():
        result = malcev_pushout_direct(s)
        e = result.e
        ok = (
            is_reflexive(e)
            and is_symmetric(e)
            and leq(rel_compose(e, e), e)
            and span_to_relation(kernel_pair(result.quotient)) == e
        )
        if not ok:
            failures += 1
    verdict(
        2,
        failures == 0,
        "E is reflexive, symmetric, transitively closed and recovered as the "
        f"kernel pair of the quotient on all {DIFUNCTIONAL_TOTAL_UP_TO_3} spans",
    )


def test_criterion_3_decomposed_agrees_with_direct():
    started = time.monotonic()
    instances = corpus_up_to_3()
    rng = random.Random(42)
    for i in range(500):
        label, s = random_malcev_span(rng, 5)
        instances.append((f"sample#{i} {label}", s))
    for label, s in instances:
        direct = malcev_pushout_direct(s)
        trace = malcev_pushout_decomposed(s)
        assert is_iso(canonical_comparison(direct.square, direct.square.cospan)), label
        assert is_iso(canonical_comparison(trace.pasted, trace.pasted.cospan)), label
    elapsed = time.monotonic() - started
    assert elapsed < 120
    verdict(
        3,
        True,
        f"decomposed pipeline pasted to the direct corner on {len(instances)} "
        f"instances (241 exhaustive + 500 seeded, sizes <= 5) in {elapsed:.1f}s",
    )


def test_criterion_4_coproducts_and_effective_equivalences():
    from diexact.enumeration import equivalence_from_partition
    from diexact.pushouts import coproduct_via_pushout

    report = suite_coproducts(SuiteConfig(max_size=4))
    assert report.passed and report.total == 25
    for m in range(5):
        for n in range(5):
            result = coproduct_via_pushout(letters("a", m), letters("b", n))
            meet = pullback(result.square.cospan)
            assert len(meet.apex) == 0
            stable, _ = is_stable_pushout(result.square)
            assert stable.ok
    partition_counts = []
    effective = 0
    for size in range(6):
        carrier = letters("a", size)
        partitions = list(all_set_partitions(list(carrier.elements)))
        partition_counts.append(len(partitions))
        for blocks in partitions:
            assert effectiveness_check(equivalence_from_partition(carrier, blocks))
            effective += 1
    assert tuple(partition_counts) == BELL_NUMBERS
    verdict(
        4,
        True,
        "all 25 coproduct squares (sizes <= 4) disjoint and stable; all "
        f"{effective} equivalences (sizes <= 5, Bell numbers {BELL_NUMBERS}) effective",
    )


def test_criterion_5_negative_control():
    a, b = fset("a1", "a2"), fset("b1", "b2")
    r = Relation.from_pairs(a, b, [("a1", "b1"), ("a1", "b2"), ("a2", "b1")])
    s = tabulate(r)
    with pytest.raises(NotMalcevError) as err:
        malcev_pushout_direct(s)
    qa, qb, qa2, qb2 = err.value.quadruple
    assert r.holds(qa, qb) and r.holds(qa, qb2) and r.holds(qa2, qb)
    assert not r.holds(qa2, qb2)
    raw = canonical_pushout(s)
    recovered = pullback(raw.cospan)
    ok = (
        len(raw.corner) == 1
        and is_pushout_square(raw).ok
        and not is_pullback_square(raw).ok
        and len(recovered.apex) == 4
        and len(s.apex) == 3
    )
    verdict(
        5,
        ok,
        "the three-corner relation is rejected with a correct witness "
        f"quadruple {err.value.quadruple}; forced through the raw colimit it "
        "is a pushout but not a pullback (corner 1, pullback 4, apex 3)",
    )


def _maps(domain, codomain):
    """Every map between the sets as its index table and its function, in
    ``all_functions`` order."""
    return [
        (table, SetFunction(domain, codomain, tuple(codomain.elements[i] for i in table)))
        for table in itertools.product(range(len(codomain)), repeat=len(domain))
    ]


def _all_commuting_squares_up_to_3():
    """The squares of ``all_functions`` over c0.., a0.., b0.., d0.., in that
    enumeration order, with commutativity decided on the index tables."""
    sizes = range(4)
    for nc, na, nb, nd in itertools.product(sizes, repeat=4):
        if nc and (not na or not nb):
            continue
        if (na or nb) and not nd:
            continue
        c, a, b, d = (
            FiniteSet(tuple(f"{prefix}{i}" for i in range(n)))
            for prefix, n in (("c", nc), ("a", na), ("b", nb), ("d", nd))
        )
        gs, hs, ks = _maps(c, b), _maps(a, d), _maps(b, d)
        for f_t, f in _maps(c, a):
            for g_t, g in gs:
                s = Span(c, f, g)
                for h_t, h in hs:
                    hf = tuple(h_t[i] for i in f_t)
                    for k_t, k in ks:
                        if tuple(k_t[j] for j in g_t) == hf:
                            yield CommutativeSquare(s, Cospan(h, k))


def test_criterion_6_oracle_cross_validation_exhaustive():
    started = time.monotonic()
    total = pullbacks = 0
    pushout_squares = []
    for sq in _all_commuting_squares_up_to_3():
        total += 1
        cert = certify(sq)
        assert cert.is_pushout == is_pushout_square(sq)
        assert cert.is_pullback == is_pullback_square(sq)
        fast = cert.is_pushout.ok
        assert fast == pushout_by_universal_property(sq, max_test_size=4)
        if fast:
            pushout_squares.append(sq)
        fast_pullback = cert.is_pullback.ok
        assert fast_pullback == pullback_by_universal_property(sq, max_apex_size=3)
        pullbacks += fast_pullback
    assert total == COMMUTING_SQUARES_UP_TO_3
    assert len(pushout_squares) == PUSHOUT_SQUARES_UP_TO_3
    assert pullbacks == PULLBACK_SQUARES_UP_TO_3
    for sq in pushout_squares:
        fiberwise, _ = is_stable_pushout(sq)
        assert fiberwise.ok == stable_by_all_pullbacks(sq, max_size=3)
    elapsed = time.monotonic() - started
    verdict(
        6,
        True,
        f"the canonical-comparison pushout oracle and the pairing-map pullback "
        f"oracle agree with the raw universal properties on all {total} "
        f"commuting squares (sizes <= 3; {pullbacks} pullbacks), and fiberwise "
        f"stability agrees with all base changes on all "
        f"{len(pushout_squares)} pushout squares, in {elapsed:.1f}s",
    )


def test_criterion_7_pointed_sets():
    report = zero_object_checks(5)
    assert report.ok and "not strict" in report.strictness_witness
    certified = 0
    for label, ps in sample_pointed_spans(random.Random(2718), 200, 4):
        result = pointed_malcev_pushout(ps)
        cert = certify(result.underlying.square)
        assert cert.is_pushout.ok and cert.is_pullback.ok and cert.is_stable.ok, label
        assert result.h.function(ps.left.codomain.basepoint) == result.corner.basepoint
        assert result.k.function(ps.right.codomain.basepoint) == result.corner.basepoint
        plain = malcev_pushout_direct(ps.underlying)
        assert result.underlying.square.corner == plain.corner
        assert result.underlying.h == plain.h and result.underlying.k == plain.k
        certified += 1
    verdict(
        7,
        True,
        "zero object initial+terminal up to size 5 with an explicit "
        f"non-strictness witness; {certified} seeded pointed spans certified "
        "pushout+pullback+stable with exact underlying-set transfer",
    )


def test_criterion_8_mutation_sensitivity():
    config = dict(max_size=2, exhaustive=True, samples=10, seed=7)
    summary = []
    for mutant in ("drop-RoR-block", "skip-mono-check", "nonsymmetric-closure"):
        report = run_all_suites(SuiteConfig(mutant=mutant, **config))
        failures = [f for s in report.suites for f in s.failures]
        assert failures, f"mutant {mutant} was not detected"
        assert all(f.witness for f in failures)
        failing_suites = sorted({s.name for s in report.suites if s.failures})
        summary.append(f"{mutant} -> {','.join(failing_suites)}")
    verdict(8, True, "every mutant caught with element witnesses: " + "; ".join(summary))


def test_criterion_9_cli_suite_determinism():
    import contextlib
    import io

    args = ["suite", "--max-size", "3", "--samples", "300", "--seed", "42"]
    outputs = []
    for _ in range(2):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            assert main(args) == 0
        outputs.append(buffer.getvalue())
    ok = outputs[0] == outputs[1] and "RESULT: PASS" in outputs[0]
    verdict(
        9,
        ok,
        "suite reports for --max-size 3 --samples 300 --seed 42 are "
        "byte-identical across runs",
    )
