"""Command-line front end.

``pushout`` reads a span (or relation) document, runs the requested
construction, certifies the square and prints a deterministic report.
``suite`` runs the verification suites over a bounded corpus.

Exit codes: 0 all verdicts true / suites pass; 1 some verdict or suite
failed; 2 parse error, bad argument or unreadable input file; 3 precondition
violation (with witness); 4 internal invariant failure, which would falsify
the construction itself.
"""

from __future__ import annotations

import argparse
import sys
from typing import IO

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
from .suites import SuiteConfig, run_all_suites


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
    push.add_argument("--mutant", choices=mutants.KNOWN, default=None)

    suite = sub.add_parser("suite", help="run the verification suites")
    suite.add_argument("--max-size", type=int, default=3)
    suite.add_argument("--samples", type=int, default=0)
    suite.add_argument("--seed", type=int, default=0)
    suite.add_argument("--exhaustive", action="store_true")
    suite.add_argument("--mutant", choices=mutants.KNOWN, default=None)
    return parser


class UsageError(Exception):
    """A bad argument or an unreadable input file (exit code 2)."""


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise UsageError(f"cannot read {path}: {reason}") from None


def _verdict_lines(name: str, verdict: Verdict, witness_label: str) -> list[str]:
    lines = [f"{name}: {'true' if verdict.ok else 'false'}"]
    if verdict.ok:
        if isinstance(verdict.evidence, SetFunction):
            lines.append(f"    {witness_label}: {verdict.evidence!r}")
        elif verdict.evidence is not None and witness_label:
            lines.append(f"    {witness_label}: {verdict.detail}")
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
        for report in certificate.fiber_reports:
            lines.append(f"    fiber {report.base_element}: pushout")
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


def cmd_pushout(args: argparse.Namespace, out: IO[str]) -> int:
    doc = parse_document(_read_input(args.input))
    value, header, pointed = _coerce_span(doc, args.image_first)

    agreement: Verdict | None = None
    if pointed is not None:
        result = pointed_malcev_pushout(pointed)
        square = result.underlying.square
        header.append(f"basepoint = {result.corner.basepoint}")
    elif args.method == "decomposed":
        square = malcev_pushout_decomposed(value).pasted
    else:
        square = malcev_pushout_direct(value).square

    if args.method == "both":
        agreement = _agreement_verdict(value, square)
    certificate = certify(square)
    out.write(render_certificate(certificate, header, agreement))
    ok = certificate.ok and (agreement is None or agreement.ok)
    return 0 if ok else 1


def _agreement_verdict(value: Span, direct_square: CommutativeSquare) -> Verdict:
    try:
        trace = malcev_pushout_decomposed(value)
        to_direct = canonical_comparison(direct_square, direct_square.cospan)
        to_pasted = canonical_comparison(trace.pasted, trace.pasted.cospan)
    except (PreconditionError, InternalInvariantError) as exc:
        return Verdict(False, f"decomposed construction failed: {exc}")
    if not is_iso(to_direct):
        return Verdict(False, f"direct corner is not canonical: {to_direct!r}")
    if not is_iso(to_pasted):
        return Verdict(False, f"decomposed corner is not canonical: {to_pasted!r}")
    return Verdict(True, "corners agree", compose(to_pasted, inverse(to_direct)))


def cmd_suite(args: argparse.Namespace, out: IO[str]) -> int:
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
    out.write(report.render())
    return 0 if report.passed else 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "pushout":
            with mutants.enabled(args.mutant):
                return cmd_pushout(args, sys.stdout)
        return cmd_suite(args, sys.stdout)
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
