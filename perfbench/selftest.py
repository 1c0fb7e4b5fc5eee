"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

1. Smoke: every workload end to end at tiny sizes, untraced and traced, each
   in its own process with its own hash seed.  Every run must be correct,
   and both processes must produce the same output digest.
2. Teeth: one flipped expected exit code (pushout-docs) and one flipped
   expected verdict (crossval-squares) must each fail exactly one op.
3. The independent oracles agree with hand-worked cases.
4. Without the package sources run.py exits non-zero and prints no
   result.

Exits 0 when everything holds.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import run
from tracing import NullTracer
from workloads import WORKLOADS, class_count, expected_square_verdicts, rows_equal_or_disjoint

SEED = 3


def smoke() -> None:
    for name in WORKLOADS:
        digests = set()
        for trace in (0, 1):
            command = [
                sys.executable, str(run.HERE / "run.py"), "--workload", name,
                "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--scale", "smoke",
            ]
            env = dict(os.environ, PYTHONHASHSEED=str(trace + 1))
            done = subprocess.run(command, capture_output=True, text=True, env=env, timeout=170)
            lines = done.stdout.strip().splitlines()
            assert done.returncode == 0, done.stderr
            result = json.loads(lines[-1])
            assert result["correct"] and result["failed"] == 0, lines
            environment = json.loads(lines[-2].split(": ", 1)[1])
            digests.add(environment["output_digest"])
        assert len(digests) == 1, f"{name}: output differs between processes: {digests}"
        print(f"smoke {name}: correct, traced and untraced, digest {digests.pop()}")


def one_pass_failures(workload) -> int:
    return run.run_passes(workload, 0, NullTracer, None, run.HostSpeed()).failed


def teeth() -> None:
    modules = run.import_package()
    workdir = run.OUT_DIR / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        docs = WORKLOADS["pushout-docs"](modules, SEED, "smoke", workdir)
        assert one_pass_failures(docs) == 0
        assert {e.exit_code for e in docs.expected} == {0, 3}
        docs.expected[0] = dataclasses.replace(
            docs.expected[0], exit_code=3 - docs.expected[0].exit_code
        )
        assert one_pass_failures(docs) == 1
        print("teeth pushout-docs: one flipped exit code fails exactly one op")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    squares = WORKLOADS["crossval-squares"](modules, SEED, "smoke", workdir)
    assert one_pass_failures(squares) == 0
    flipped = squares.expected[0]
    squares.expected[0] = (not flipped[0],) + flipped[1:]
    assert one_pass_failures(squares) == 1
    print("teeth crossval-squares: one flipped verdict fails exactly one op")


def oracles() -> None:
    # A 1x3 block minus a pair stays difunctional; a 2x2 block minus one does not.
    assert rows_equal_or_disjoint([(0, 0), (0, 1)])
    assert not rows_equal_or_disjoint([(0, 0), (0, 1), (1, 0)])
    assert class_count(2, 2, [(0, 0), (1, 1)]) == 2
    assert class_count(2, 3, [(0, 0), (1, 0)]) == 3
    # Identity square on one point: pushout and pullback.
    assert expected_square_verdicts([0], [0], [0], [0], 1, 1, 1) == (True, True)
    # Empty apex into a one-point corner from two points: neither.
    assert expected_square_verdicts([], [], [0], [0], 1, 1, 1) == (False, False)
    print("oracles: hand-worked cases agree")


def refuses_without_sources() -> None:
    bare = run.OUT_DIR / f"bare-{os.getpid()}"
    try:
        shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        done = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "pushout-docs",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
        assert done.returncode != 0 and '"correct"' not in done.stdout, done.stdout
        print("bare checkout: exits", done.returncode, "without a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    run.OUT_DIR.mkdir(exist_ok=True)
    oracles()
    teeth()
    smoke()
    refuses_without_sources()
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
