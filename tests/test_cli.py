"""Command-line behaviour: reports, exit codes, witnesses, determinism."""

import contextlib
import errno
import io
import os
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from conftest import recorded_calls
from diexact import cli, fsets, mutants, names, relations, suites
from diexact.cli import _build_parser, main

SRC = str(Path(__file__).resolve().parents[1] / "src")

MATCHED_PAIRS = """\
set A = {a1, a2}
set B = {b1, b2}
rel R : A -|> B = {(a1,b1), (a2,b2)}
"""

MATCHED_PAIRS_REPORT = """\
input: relation (tabulated)
corner = {l:a1, l:a2}
h = {a1 |-> l:a1, a2 |-> l:a2}
k = {b1 |-> l:a1, b2 |-> l:a2}
COMMUTES: true
    composite: {(a1,b1) |-> l:a1, (a2,b2) |-> l:a2}
PUSHOUT: true
    comparison: {l:a1 |-> l:a1, l:a2 |-> l:a2}
PULLBACK: true
    pairing: {(a1,b1) |-> (a1,b1), (a2,b2) |-> (a2,b2)}
STABILITY: true
    fiber l:a1: pushout
    fiber l:a2: pushout
JOINT-EPI: true
    cover: {l:a1 <- l:a1, l:a2 <- l:a2}
AGREEMENT: true
    iso: {l:a1 |-> l:a1, l:a2 |-> l:a2}
"""

NON_DIFUNCTIONAL = """\
set A = {a1, a2}
set B = {b1, b2}
rel R : A -|> B = {(a1,b1), (a1,b2), (a2,b1)}
"""

NON_JOINTLY_MONIC_SPAN = """\
set C = {c1, c2}
set A = {a}
set B = {b}
fun f : C -> A = {c1 |-> a, c2 |-> a}
fun g : C -> B = {c1 |-> b, c2 |-> b}
span S = <f, g>
"""

POINTED_WEDGE = """\
set C = {c1}
point C = c1
set A = {*, a1}
point A = *
set B = {*, b1}
point B = *
fun f : C -> A = {c1 |-> *}
fun g : C -> B = {c1 |-> *}
span S = <f, g>
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_fresh(args, stdin=b""):
    """``python -m diexact`` in a new process, on the checkout's package."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONIOENCODING="utf-8")
    return subprocess.run(
        [sys.executable, "-m", "diexact", *args],
        input=stdin,
        capture_output=True,
        env=env,
        timeout=120,
    )


def run_here(args):
    """``main(args)`` in this process: exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


class TestPushoutCommand:
    def test_matched_pairs_golden_report(self, tmp_path, capsys):
        code = main(["pushout", write(tmp_path, "r.txt", MATCHED_PAIRS)])
        assert code == 0
        assert capsys.readouterr().out == MATCHED_PAIRS_REPORT

    def test_non_difunctional_rejected_with_quadruple(self, tmp_path, capsys):
        code = main(["pushout", write(tmp_path, "r.txt", NON_DIFUNCTIONAL)])
        assert code == 3
        err = capsys.readouterr().err
        assert "(a1,b1), (a1,b2), (a2,b1)" in err and "(a2,b2)" in err

    def test_empty_relation_gives_coproduct_certificate(self, tmp_path, capsys):
        doc = "set A = {a}\nset B = {b}\nrel R : A -|> B = {}\n"
        code = main(["pushout", write(tmp_path, "r.txt", doc)])
        out = capsys.readouterr().out
        assert code == 0
        assert "corner = {l:a, r:b}" in out

    def test_non_jointly_monic_refused_without_flag(self, tmp_path, capsys):
        code = main(["pushout", write(tmp_path, "s.txt", NON_JOINTLY_MONIC_SPAN)])
        assert code == 3
        assert "jointly monic" in capsys.readouterr().err

    def test_image_first_flag_substitutes_tabulation(self, tmp_path, capsys):
        code = main(
            ["pushout", "--image-first", write(tmp_path, "s.txt", NON_JOINTLY_MONIC_SPAN)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "image-first: applied" in out

    def test_methods_agree(self, tmp_path, capsys):
        path = write(tmp_path, "r.txt", MATCHED_PAIRS)
        for method in ("direct", "decomposed", "both"):
            code = main(["pushout", "--method", method, path])
            out = capsys.readouterr().out
            assert code == 0
            assert "PUSHOUT: true" in out
        assert main(["pushout", "--method", "both", path]) == 0
        assert "AGREEMENT: true" in capsys.readouterr().out

    def test_parse_error_exit_code_and_position(self, tmp_path, capsys):
        code = main(["pushout", write(tmp_path, "bad.txt", "set A = {a}\nnonsense\n")])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_stdin_input(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(MATCHED_PAIRS))
        assert main(["pushout"]) == 0
        assert "corner" in capsys.readouterr().out

    def test_pointed_document_reports_basepoint(self, tmp_path, capsys):
        code = main(["pushout", write(tmp_path, "p.txt", POINTED_WEDGE)])
        out = capsys.readouterr().out
        assert code == 0
        assert "input: pointed span" in out
        assert "basepoint = l:*" in out
        assert "corner = {l:*, l:a1, r:b1}" in out

    def test_pointed_document_runs_the_method_it_names(self, tmp_path, capsys):
        """drop-basepoint-link sabotages the direct route only, so the
        decomposed route certifies the pointed document and the direct one
        fails."""
        path = write(tmp_path, "p.txt", POINTED_WEDGE)
        codes = {}
        for method in ("decomposed", "direct"):
            codes[method] = main(
                ["pushout", "--method", method, "--mutant", "drop-basepoint-link", path]
            )
            assert "basepoint = l:*" in capsys.readouterr().out
        assert codes == {"decomposed": 0, "direct": 1}

    def test_missing_input_file_is_a_usage_error(self, tmp_path, capsys):
        path = str(tmp_path / "no-such-file.txt")
        assert main(["pushout", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read ") and path in err
        assert len(err.splitlines()) == 1

    def test_invalid_utf8_is_a_usage_error_on_stdin_and_in_a_file(self, tmp_path):
        data = b"set A = {a\xff}\n"
        path = tmp_path / "bad.txt"
        path.write_bytes(data)
        reason = "'utf-8' codec can't decode byte 0xff in position 10: invalid start byte"
        for name, stdin in (("-", data), (str(path), b"")):
            done = run_fresh(["pushout", name], stdin)
            assert done.returncode == 2
            assert done.stdout == b""
            assert done.stderr.decode() == f"error: cannot read {name}: {reason}\n"

    def test_closed_standard_input_is_a_usage_error(self):
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONIOENCODING="utf-8")
        done = subprocess.run(
            [sys.executable, "-m", "diexact", "pushout", "-"],
            capture_output=True,
            env=env,
            timeout=120,
            preexec_fn=lambda: os.close(0),  # the child starts with fd 0 closed
        )
        assert done.returncode == 2
        assert done.stdout == b""
        assert done.stderr.decode() == "error: cannot read -: standard input is closed\n"

    def test_mutant_flag_breaks_verdicts(self, tmp_path, capsys):
        code = main(
            [
                "pushout",
                "--mutant",
                "nonsymmetric-closure",
                write(tmp_path, "r.txt", MATCHED_PAIRS),
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "PUSHOUT: false" in out

    def test_refused_direct_corner_is_reported_against_that_corner(self, tmp_path, capsys):
        """The decomposed route succeeds; the comparison refuses the direct
        square, which does not commute under the mutant."""
        path = write(tmp_path, "r.txt", MATCHED_PAIRS)
        assert main(["pushout", "--mutant", "nonsymmetric-closure", path]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[-2:] == [
            "AGREEMENT: false",
            "    counterexample: direct corner is not canonical: candidate cospan "
            "does not commute with the span: apex element '(a1,b1)' has images "
            "'l:a1' and 'r:b1'",
        ]

    def test_drop_ror_block_shows_in_the_report(self, tmp_path, capsys):
        """Without its R°R term the block relation keeps a2 apart from a1,
        though both relate to b1, so the direct square does not commute."""
        path = write(tmp_path, "r.txt", BLOCKS)
        assert main(["pushout", "--mutant", "drop-RoR-block", path]) == 1
        out = capsys.readouterr().out
        assert (
            "COMMUTES: false\n"
            "    counterexample: apex element '(a2,b1)' has images 'l:a2' and 'l:a1'\n"
        ) in out

    def test_mutant_ends_with_its_command(self, tmp_path, capsys):
        refused = write(tmp_path, "bad.txt", NON_DIFUNCTIONAL)
        assert main(["pushout", "--mutant", "skip-mono-check", refused]) == 3
        assert not mutants.active()
        capsys.readouterr()
        assert main(["pushout", write(tmp_path, "r.txt", MATCHED_PAIRS)]) == 0
        assert capsys.readouterr().out == MATCHED_PAIRS_REPORT


def bijection(n):
    """A relation document pairing a_i with b_i for i = 1..n."""
    return (
        "set A = {" + ", ".join(f"a{i}" for i in range(1, n + 1)) + "}\n"
        "set B = {" + ", ".join(f"b{i}" for i in range(1, n + 1)) + "}\n"
        "rel R : A -|> B = {" + ", ".join(f"(a{i},b{i})" for i in range(1, n + 1)) + "}\n"
    )


class TestBlockBudget:
    @pytest.mark.parametrize("method", ("direct", "decomposed", "both"))
    def test_feet_above_the_budget_start_no_route(self, method, tmp_path, capsys, monkeypatch):
        """8193 + 8193 elements make 2^28 + 65540 cells, just above the
        budget; the refusal comes before any route or certificate."""
        assert (2 * 8192) ** 2 == cli.BLOCK_CELL_BUDGET

        def no_route(*args):
            raise AssertionError("a route ran")

        for name in ("malcev_pushout_direct", "malcev_pushout_decomposed", "certify"):
            monkeypatch.setattr(cli, name, no_route)
        path = write(tmp_path, "big.txt", bijection(8193))
        assert main(["pushout", "--method", method, path]) == 3
        assert capsys.readouterr() == (
            "",
            "precondition violated: the block relation on A + B would have "
            "(|A| + |B|)^2 = 268500996 cells, above the budget of 268435456\n",
        )

    def test_the_budget_is_inclusive(self, tmp_path, capsys, monkeypatch):
        """MATCHED_PAIRS has (2 + 2)^2 = 16 cells: a budget of 16 prints its
        report unchanged, and one of 15 refuses it with the count."""
        path = write(tmp_path, "r.txt", MATCHED_PAIRS)
        monkeypatch.setattr(cli, "BLOCK_CELL_BUDGET", 16)
        assert main(["pushout", path]) == 0
        assert capsys.readouterr().out == MATCHED_PAIRS_REPORT
        monkeypatch.setattr(cli, "BLOCK_CELL_BUDGET", 15)
        assert main(["pushout", path]) == 3
        assert "= 16 cells, above the budget of 15" in capsys.readouterr().err


BLOCKS = """\
set A = {a1, a2, a3, a4}
set B = {b1, b2, b3}
rel R : A -|> B = {(a1,b1), (a2,b1), (a3,b2), (a3,b3)}
"""


def _block_document(n: int, unrelated: int = 0) -> str:
    """One n x n block, and ``unrelated`` elements of B that no element of
    A relates to, so that the right leg is onto exactly when it is 0."""
    a = [f"a{i:02d}" for i in range(n)]
    b = [f"b{j:02d}" for j in range(n + unrelated)]
    pairs = ", ".join(f"({x},{y})" for x in a for y in b[:n])
    sets = f"set A = {{{', '.join(a)}}}\nset B = {{{', '.join(b)}}}\n"
    return sets + f"rel R : A -|> B = {{{pairs}}}\n"


class TestFactsDecidedOnce:
    """``--method both`` on an accepted tabulated document builds one
    reference colimit, decides no commutativity in its comparisons, and
    decides the Mal'cev precondition of the input span once; under a
    mutant a comparison decides the unchecked direct square only at a
    conflict.  Its per-pair passes decode each
    distinct row once, spell pair names in one ``pair_names`` comprehension
    per carrier, and run stage 1 of the decomposed route on the input span
    when its right leg is onto."""

    def run_both(self, tmp_path, monkeypatch, *flags):
        results = []
        route = cli.malcev_pushout_direct

        def direct(s):
            results.append(route(s))
            return results[-1]

        monkeypatch.setattr(cli, "malcev_pushout_direct", direct)
        functions = (
            fsets.canonical_pushout,
            fsets.quotient_by_generated,
            fsets.first_disagreement,
            relations.joint_monicity_witness,
            relations.difunctionality_witness,
        )
        path = write(tmp_path, "r.txt", BLOCKS)
        (code, out, _), calls = recorded_calls(functions, lambda: run_here(["pushout", *flags, path]))
        (result,) = results
        return code, out, result.square, calls

    def test_each_fact_is_decided_once(self, tmp_path, monkeypatch):
        code, out, square, calls = self.run_both(tmp_path, monkeypatch)
        assert code == 0 and "AGREEMENT: true" in out
        value = square.span

        def callers(name):
            return [caller for called, caller, _ in calls if called == name]

        assert callers("canonical_pushout") == ["canonical_comparison"] * 2
        assert callers("quotient_by_generated").count("reference_colimit") == 1
        # Six checked squares (direct, four of the decomposed route, the
        # reference colimit) and certify's COMMUTES; no comparison decides.
        assert len(callers("first_disagreement")) == 7
        assert set(callers("first_disagreement")) == {"__post_init__", "commutes_verdict"}
        monic = [args["s"] for called, _, args in calls if called == "joint_monicity_witness"]
        assert [s is value for s in monic].count(True) == 1
        witnessed = [
            (caller, args["r"] is relations.span_to_relation(value))
            for called, caller, args in calls
            if called == "difunctionality_witness"
        ]
        # The input span's relation once, and stage 2's through is_difunctional.
        assert witnessed == [("decide", True), ("is_difunctional", False)]

    @pytest.mark.parametrize("mutant", (None,) + mutants.KNOWN)
    def test_a_comparison_decides_the_direct_square_only_at_a_conflict(
        self, mutant, tmp_path, monkeypatch
    ):
        """The checked direct square is decided as it is built; under a
        mutant it is unchecked, and the comparison with the reference
        colimit decides it only when two elements of one reference class
        land on different corner elements.  On this document only the two
        block-relation mutants give such a conflict."""
        flags = ("--mutant", mutant) if mutant else ()
        _, _, square, calls = self.run_both(tmp_path, monkeypatch, *flags)
        deciding = [
            caller
            for called, caller, args in calls
            if called == "first_disagreement"
            and args["span_"] is square.span
            and args["cospan_"] is square.cospan
        ]
        canon = fsets.canonical_pushout(square.span).cospan
        images = canon.left.table + canon.right.table
        targets = square.cospan.left.table + square.cospan.right.table
        conflict = len(set(zip(images, targets))) != len(set(images))
        assert conflict == (mutant in (mutants.DROP_ROR, mutants.NONSYMMETRIC))
        checked = ["__post_init__"] if mutant is None else ["mediating_map"] * conflict
        assert deciding == checked + ["commutes_verdict"]

    WORK = (
        relations._bits,
        names.pair_name,
        names.pair_names,
        relations.Relation._of_index_pairs,
        relations.joint_monicity_witness,
        relations.is_difunctional,
        fsets.first_disagreement,
    )

    def work(self, tmp_path, document):
        path = write(tmp_path, "r.txt", document)
        args = ["pushout", "--method", "both", path]
        (code, out, _), calls = recorded_calls(self.WORK, lambda: run_here(args))
        assert code == 0 and "AGREEMENT: true" in out
        return calls, Counter(called for called, _, _ in calls)

    def test_a_one_block_32x32_document(self, tmp_path):
        """A generator is entered once per resume, 33 times to decode a row
        of 32 bits: tabulate decodes its one distinct row once, not each of
        its 32 equal rows.  The three carriers of pairs are the tabulation,
        stage 2's kernel pair and the PULLBACK oracle's pairing."""
        calls, counts = self.work(tmp_path, _block_document(32))
        assert counts == {
            "_bits": 403,
            "pair_names": 3,
            "_of_index_pairs": 1,
            "joint_monicity_witness": 2,
            "is_difunctional": 1,
            "first_disagreement": 7,
        }
        naming = [caller for called, caller, _ in calls if called == "pair_names"]
        assert naming == ["pair_span", "pair_span", "_pullback_verdict"]

    def test_a_right_leg_that_is_not_onto(self, tmp_path):
        """Stage 1 then runs on a span against the image of the right leg,
        and decides that span's Mal'cev obligation itself."""
        _, counts = self.work(tmp_path, _block_document(4, unrelated=1))
        assert counts["pair_name"] == 0 and counts["pair_names"] == 3
        assert counts["_of_index_pairs"] == 2
        assert counts["joint_monicity_witness"] == 3
        assert counts["is_difunctional"] == 2


class TestOneParser:
    def test_the_parser_is_built_once(self):
        assert _build_parser() is _build_parser()

    @pytest.mark.parametrize(
        "first, second",
        [
            (["--method", "decomposed"], []),
            (["--mutant", "nonsymmetric-closure"], []),
            ([], ["--image-first", "--method", "direct"]),
        ],
    )
    def test_each_call_prints_what_a_fresh_process_prints(self, tmp_path, first, second):
        """The one parser carries no flag from one ``main`` call into the
        next."""
        path = write(tmp_path, "r.txt", MATCHED_PAIRS)
        for flags in (first, second):
            args = ["pushout", *flags, path]
            fresh = run_fresh(args)
            code, out, err = run_here(args)
            assert (code, out, err) == (
                fresh.returncode,
                fresh.stdout.decode(),
                fresh.stderr.decode(),
            )


class TestSuiteCommand:
    def test_small_exhaustive_pass(self, capsys):
        code = main(["suite", "--max-size", "2", "--exhaustive"])
        out = capsys.readouterr().out
        assert code == 0
        assert "RESULT: PASS" in out
        for name in ("T1a", "T1b", "T2", "D", "P0", "P1"):
            assert name in out

    def test_deterministic_reports(self, capsys):
        args = ["suite", "--max-size", "2", "--samples", "40", "--seed", "9"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_mutant_run_fails_with_witnesses(self, capsys):
        code = main(
            ["suite", "--max-size", "2", "--exhaustive", "--mutant", "drop-RoR-block"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "RESULT: FAIL" in out
        assert "FAIL" in out and "e:" in out

    def test_negative_bound_is_a_usage_error(self, capsys):
        assert main(["suite", "--max-size", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: max_size must be nonnegative\n"

    def test_zero_bound_is_vacuously_fine(self, capsys):
        assert main(["suite", "--max-size", "0"]) == 0
        assert "RESULT: PASS" in capsys.readouterr().out


class _FullDisk:
    """A standard output whose write, or only its flush, fails as a full
    disk does."""

    def __init__(self, failing):
        self.failing = failing

    def _fail(self):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def write(self, text):
        if self.failing == "write":
            self._fail()
        return len(text)

    def flush(self):
        if self.failing == "flush":
            self._fail()


UNWRITABLE = {
    "closed": (None, "standard output is closed"),
    "write fails": (_FullDisk("write"), os.strerror(errno.ENOSPC)),
    "flush fails": (_FullDisk("flush"), os.strerror(errno.ENOSPC)),
}


@pytest.mark.parametrize("stdout", UNWRITABLE)
@pytest.mark.parametrize("command", ["pushout", "suite"])
def test_unwritable_standard_output_is_a_usage_error(command, stdout, tmp_path, monkeypatch):
    """A report that cannot be written ends in exit code 2 and one
    ``error:`` line, not in a traceback."""
    args = ["pushout", write(tmp_path, "r.txt", MATCHED_PAIRS)]
    if command == "suite":
        args = ["suite", "--max-size", "1"]
    writer, reason = UNWRITABLE[stdout]
    err = io.StringIO()
    monkeypatch.setattr("sys.stdout", writer)
    with contextlib.redirect_stderr(err):
        code = main(args)
    assert code == 2
    assert err.getvalue() == f"error: cannot write standard output: {reason}\n"


SHELL_STDOUT = {  # what the child does to fd 1 before it starts, and the reason it reports
    ">&-": (lambda: os.close(1), "standard output is closed"),
    "> /dev/full": (
        lambda: os.dup2(os.open("/dev/full", os.O_WRONLY), 1),
        os.strerror(errno.ENOSPC),
    ),
}


@pytest.mark.parametrize("redirect", SHELL_STDOUT)
@pytest.mark.parametrize("command", ["pushout", "suite"])
def test_unwritable_standard_output_exits_2_in_a_new_process(command, redirect, tmp_path):
    """The same from the shell: the process exits 2 with the one ``error:``
    line, and nothing more is printed when the interpreter flushes its
    streams at exit."""
    if redirect == "> /dev/full" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this platform")
    args = ["pushout", write(tmp_path, "r.txt", MATCHED_PAIRS)]
    if command == "suite":
        args = ["suite", "--max-size", "1"]
    preexec, reason = SHELL_STDOUT[redirect]
    done = subprocess.run(
        [sys.executable, "-m", "diexact", *args],
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=SRC, PYTHONIOENCODING="utf-8"),
        timeout=120,
        preexec_fn=preexec,
    )
    assert done.returncode == 2
    assert done.stderr.decode() == f"error: cannot write standard output: {reason}\n"


def _help(command, capsys) -> str:
    """The ``--help`` text of a command with its line breaks undone."""
    with pytest.raises(SystemExit) as done:
        main([command, "--help"])
    assert done.value.code == 0
    return " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("command", ["pushout", "suite"])
def test_mutant_help_carries_no_drop_ror_caveat(command, capsys):
    """drop-RoR-block shows in ``pushout`` like every other mutant, so
    neither help text carries a caveat for it."""
    text = _help(command, capsys)
    assert "drop-RoR-block" in text and "inject one deliberate defect" in text
    assert "T1b and D" not in text and "unchanged" not in text


def test_suite_help_spells_the_suite_constants(capsys):
    text = _help("suite", capsys)
    assert suites.DEFAULT_MAX_SIZE == _build_parser().parse_args(["suite"]).max_size == 3
    assert (suites.SMALL_BOUND, suites.POINTED_DRAWS) == (2, 25)
    assert "largest carrier size in the corpora (default 3);" in text
    assert "walk every relation only up to size 2, and draw up to this size" in text
    assert "P1 draws as many, or 25 when this is 0" in text
    assert "not only up to size 2" in text


FUZZ_SEEDS = (
    MATCHED_PAIRS,
    NON_DIFUNCTIONAL,
    NON_JOINTLY_MONIC_SPAN,
    POINTED_WEDGE,
    "set A = {a1, a2, a3}\nrel E : A -|> A = {(a1,a1), (a2,a2), (a3,a3), (a1,a2), (a2,a1)}\n",
    "set C = {c1, c2}\nset A = {a1, a2}\nset B = {b1}\n"
    "fun f : C -> A = {c1 |-> a1, c2 |-> a2}\nfun g : C -> B = {c1 |-> b1, c2 |-> b1}\n"
    "span S = <f, g>\n",
)
FUZZ_ALPHABET = "{}()<>,=|-:#*' _\nabcfgpxAB12"


def _fuzzed(rng, text):
    """One or two random edits: drop or insert a character, repeat or drop
    a line, or (as often as the others together) put one element name
    where another stood."""
    for _ in range(rng.randint(1, 2)):
        lines = text.splitlines(keepends=True)
        edit = rng.randrange(8)
        if edit == 0 and text:
            at = rng.randrange(len(text))
            text = text[:at] + text[at + 1 :]
        elif edit == 1:
            at = rng.randrange(len(text) + 1)
            text = text[:at] + rng.choice(FUZZ_ALPHABET) + text[at:]
        elif edit == 2 and lines:
            at = rng.randrange(len(lines))
            text = "".join(lines[: at + 1] + lines[at:])
        elif edit == 3 and lines:
            at = rng.randrange(len(lines))
            text = "".join(lines[:at] + lines[at + 1 :])
        else:
            found = list(re.finditer(r"\b[a-z]\d\b", text))
            if found:
                old, new = rng.choice(found), rng.choice(found).group()
                text = text[: old.start()] + new + text[old.end() :]
    return text


def test_fuzzed_documents_end_with_a_documented_exit_code(monkeypatch):
    """Seeded edits of the test documents, each run through ``pushout`` with
    every method, end with an exit code 0-4 and raise nothing."""
    rng = random.Random(20121)
    codes = {}
    for i in range(300):
        doc = _fuzzed(rng, FUZZ_SEEDS[i % len(FUZZ_SEEDS)])
        for method in ("direct", "decomposed", "both"):
            monkeypatch.setattr("sys.stdin", io.StringIO(doc))
            out, err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(["pushout", "--method", method])
            except Exception as exc:  # a traceback is the failure sought here
                pytest.fail(f"--method {method} raised {exc!r} on {doc!r}")
            assert code in range(5), (method, doc)
            codes[code] = codes.get(code, 0) + 1
    assert {0, 2, 3} <= set(codes), codes
