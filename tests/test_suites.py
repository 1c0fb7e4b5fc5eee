"""Suite aggregation: corpus sizes, report rendering, mutation detection."""

import pytest

from diexact.mutants import KNOWN as KNOWN_MUTANTS
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
        assert {"T1b", "D"} <= failing
