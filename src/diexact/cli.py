"""Command-line front end.

``pushout`` reads a span (or relation) document, runs the requested
construction, certifies the square and prints a deterministic report.
``suite`` runs the verification suites over a bounded corpus.

Exit codes: 0 all verdicts true / suites pass; 1 some verdict or suite
failed; 2 parse error, bad argument, unreadable input file or unwritable
standard output; 3 precondition violation (with witness), or feet whose
block relation would exceed ``BLOCK_CELL_BUDGET``; 4 internal invariant
failure, which would falsify the construction itself.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import mutants
from .certificates import PushoutCertificate, Verdict, certify
from .documents import Document, parse_document
from .errors import InternalInvariantError, ParseError, PreconditionError
from .fsets import (
    CommutativeSquare,
    SetFunction,
    Span,
    canonical_comparison,
    compose,
    inverse,
    is_iso,
)
from .pointed import PointedSpan, pointed_malcev_pushout
from .pushouts import (
    malcev_pushout_decomposed,
    malcev_pushout_direct,
    require_malcev,
)
from .relations import Relation, is_jointly_monic, span_to_relation, tabulate
from .suites import DEFAULT_MAX_SIZE, POINTED_DRAWS, SMALL_BOUND, SuiteConfig, run_all_suites


@functools.cache  # parsing leaves the parser as it was, so one serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diexact",
        description=(
            "compute pushouts of difunctional spans over finite sets and "
            "certify them as stable pullback-pushouts"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    push = sub.add_parser(
        "pushout", help="construct and certify the pushout of one span document"
    )
    push.add_argument(
        "input",
        nargs="?",
        default="-",
        help="input file path, or - for standard input (default)",
    )
    push.add_argument(
        "--method",
        choices=("direct", "decomposed", "both"),
        default="both",
        help="construction route; 'both' also checks their agreement",
    )
    push.add_argument(
        "--image-first",
        action="store_true",
        help="replace a non-jointly-monic span by the tabulation of its relation",
    )
    push.add_argument(
        "--mutant",
        choices=mutants.KNOWN,
        default=None,
        help="inject one deliberate defect into the constructions",
    )

    suite = sub.add_parser("suite", help="run the verification suites")
    suite.add_argument(
        "--max-size",
        type=int,
        default=DEFAULT_MAX_SIZE,
        help=f"largest carrier size in the corpora (default {DEFAULT_MAX_SIZE}); "
        "T2/D (unless --exhaustive) and P1 walk every relation only up to "
        f"size {SMALL_BOUND}, and draw up to this size",
    )
    suite.add_argument(
        "--samples",
        type=int,
        default=0,
        help="seeded draws added to the T2/D span corpus (default 0); P1 "
        f"draws as many, or {POINTED_DRAWS} when this is 0",
    )
    suite.add_argument(
        "--seed", type=int, default=0, help="seed of the T2/D and the P1 draws"
    )
    suite.add_argument(
        "--exhaustive",
        action="store_true",
        help="walk every T2/D and P1 relation up to --max-size, not only "
        f"up to size {SMALL_BOUND}",
    )
    suite.add_argument(
        "--mutant",
        choices=mutants.KNOWN,
        default=None,
        help="inject one deliberate defect, which some suite must catch with "
        "an element witness",
    )
    return parser


# Cells of the dense block relation on A + B, (|A| + |B|)^2, that ``pushout``
# accepts.  A bijection document with |A| = |B| = 8192, at the budget, took
# 0.84-1.27 s (medians of 8 runs 0.95-1.02 s, in four processes) and 74 MB
# peak RSS in process under ``--method both`` on a shared 2-vCPU Intel Xeon
# VM with CPython 3.11.7.
BLOCK_CELL_BUDGET = 1 << 28


class UsageError(Exception):
    """A bad argument, unreadable input or unwritable output (exit code 2)."""


def _read_input(path: str) -> str:
    """A file's text, or standard input's, decoded as strict UTF-8."""
    try:
        if path != "-":
            with open(path, "r", encoding="utf-8") as handle:
                return handle.read()
        if sys.stdin is None:
            raise OSError("standard input is closed")
        if hasattr(sys.stdin, "buffer"):
            return sys.stdin.buffer.read().decode("utf-8")
        return sys.stdin.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise UsageError(f"cannot read {path}: {reason}") from None


def _write_output(text: str) -> None:
    """Write a report to standard output and flush it."""
    try:
        if sys.stdout is None:
            raise OSError("standard output is closed")
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        raise UsageError(f"cannot write standard output: {exc.strerror or exc}") from None


def _verdict_lines(name: str, verdict: Verdict, witness_label: str) -> list[str]:
    lines = [f"{name}: {'true' if verdict.ok else 'false'}"]
    if verdict.ok:
        if isinstance(verdict.evidence, SetFunction):
            lines.append(f"    {witness_label}: {verdict.evidence!r}")
    else:
        lines.append(f"    counterexample: {verdict.detail}")
    return lines


def render_certificate(
    certificate: PushoutCertificate,
    header_lines: list[str],
    agreement: Verdict | None = None,
) -> str:
    square = certificate.square
    lines = list(header_lines)
    lines.append(f"corner = {square.corner!r}")
    lines.append(f"h = {square.cospan.left!r}")
    lines.append(f"k = {square.cospan.right!r}")
    lines += _verdict_lines("COMMUTES", certificate.commutes, "composite")
    lines += _verdict_lines("PUSHOUT", certificate.is_pushout, "comparison")
    lines += _verdict_lines("PULLBACK", certificate.is_pullback, "pairing")
    stable = certificate.is_stable
    lines.append(f"STABILITY: {'true' if stable.ok else 'false'}")
    if stable.ok:
        for d in stable.evidence.codomain:
            lines.append(f"    fiber {d}: pushout")
    else:
        lines.append(f"    counterexample: {stable.detail}")
    epi = certificate.jointly_epic
    lines.append(f"JOINT-EPI: {'true' if epi.ok else 'false'}")
    if epi.ok:
        cover = ", ".join(f"{d} <- {src}" for d, src in epi.evidence)
        lines.append(f"    cover: {{{cover}}}")
    else:
        lines.append(f"    counterexample: {epi.detail}")
    if agreement is not None:
        lines += _verdict_lines("AGREEMENT", agreement, "iso")
    return "\n".join(lines) + "\n"


def _coerce_span(doc: Document, image_first: bool) -> tuple[Span, list[str], PointedSpan | None]:
    header: list[str] = []
    pointed: PointedSpan | None = None
    if doc.kind in ("relation", "equivalence"):
        rel: Relation = doc.payload
        header.append(f"input: {doc.kind} (tabulated)")
        return tabulate(rel), header, None
    if doc.kind == "pointed-span":
        pointed = doc.payload
        header.append("input: pointed span")
        value = pointed.underlying
    elif doc.kind == "span":
        header.append("input: span")
        value = doc.payload
    else:
        raise PreconditionError(
            f"the pushout command needs a span or relation document, got {doc.kind!r}"
        )
    if not is_jointly_monic(value):
        if not image_first:
            require_malcev(value)  # raises with the violating pair
        header.append("image-first: applied (span was not jointly monic)")
        value = tabulate(span_to_relation(value))
        pointed = None
    return value, header, pointed


def _require_block_budget(value: Span) -> None:
    """Refuse, before any route runs, feet whose block relation would hold
    more than ``BLOCK_CELL_BUDGET`` cells."""
    size = len(value.left.codomain) + len(value.right.codomain)
    if size * size > BLOCK_CELL_BUDGET:
        raise PreconditionError(
            f"the block relation on A + B would have (|A| + |B|)^2 = {size * size} "
            f"cells, above the budget of {BLOCK_CELL_BUDGET}"
        )


def cmd_pushout(args: argparse.Namespace) -> int:
    doc = parse_document(_read_input(args.input))
    value, header, pointed = _coerce_span(doc, args.image_first)
    _require_block_budget(value)

    agreement: Verdict | None = None
    if args.method == "decomposed":
        square = malcev_pushout_decomposed(value).pasted
    elif pointed is not None:
        square = pointed_malcev_pushout(pointed).square
    else:
        square = malcev_pushout_direct(value).square
    if pointed is not None:
        header.append(f"basepoint = {square.cospan.left(pointed.left.codomain.basepoint)}")

    if args.method == "both":
        agreement = _agreement_verdict(value, square)
    certificate = certify(square)
    _write_output(render_certificate(certificate, header, agreement))
    ok = certificate.ok and (agreement is None or agreement.ok)
    return 0 if ok else 1


def _agreement_verdict(value: Span, direct_square: CommutativeSquare) -> Verdict:
    """Both corners compared with the reference colimit; a comparison that
    refuses a route's square is reported against that route's corner."""
    refused = (PreconditionError, InternalInvariantError)
    try:
        trace = malcev_pushout_decomposed(value)
    except refused as exc:
        return Verdict(False, f"decomposed construction failed: {exc}")
    try:
        to_direct = canonical_comparison(direct_square, direct_square.cospan)
    except refused as exc:
        return Verdict(False, f"direct corner is not canonical: {exc}")
    try:
        to_pasted = canonical_comparison(trace.pasted, trace.pasted.cospan)
    except refused as exc:
        return Verdict(False, f"decomposed corner is not canonical: {exc}")
    if not is_iso(to_direct):
        return Verdict(False, f"direct corner is not canonical: {to_direct!r}")
    if not is_iso(to_pasted):
        return Verdict(False, f"decomposed corner is not canonical: {to_pasted!r}")
    return Verdict(True, "corners agree", compose(to_pasted, inverse(to_direct)))


def cmd_suite(args: argparse.Namespace) -> int:
    try:
        config = SuiteConfig(
            max_size=args.max_size,
            samples=args.samples,
            seed=args.seed,
            exhaustive=args.exhaustive,
            mutant=args.mutant,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    report = run_all_suites(config)
    _write_output(report.render())
    return 0 if report.passed else 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "pushout":
            with mutants.enabled(args.mutant):
                return cmd_pushout(args)
        return cmd_suite(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 3
    except InternalInvariantError as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
