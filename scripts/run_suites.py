#!/usr/bin/env python3
"""Sweep the verification suites over a range of bounds and, optionally,
over every mutant, printing one deterministic report per configuration.

Examples:
    python scripts/run_suites.py --up-to 3 --samples 200 --seed 42
    python scripts/run_suites.py --up-to 2 --mutants
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

# Run from a checkout without installing the package.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from diexact import mutants  # noqa: E402
from diexact.suites import SuiteConfig, run_all_suites  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--up-to", type=int, default=3, help="largest max-size to sweep")
    parser.add_argument("--samples", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--mutants",
        action="store_true",
        help="also run every mutant at the largest bound and require failures",
    )
    args = parser.parse_args()

    all_ok = True
    for size in range(args.up_to + 1):
        config = SuiteConfig(
            max_size=size, samples=args.samples, seed=args.seed, exhaustive=size <= 2
        )
        started = time.monotonic()
        report = run_all_suites(config)
        print(report.render(), end="")
        print(f"(elapsed {time.monotonic() - started:.2f}s)\n")
        all_ok &= report.passed

    if args.mutants:
        for mutant in mutants.KNOWN:
            config = SuiteConfig(
                max_size=min(args.up_to, 2),
                samples=args.samples,
                seed=args.seed,
                exhaustive=True,
                mutant=mutant,
            )
            report = run_all_suites(config)
            caught = not report.passed
            state = "caught" if caught else "NOT CAUGHT"
            print(f"mutant {mutant}: {state} ({report.total_failures} failures)")
            all_ok &= caught

    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
