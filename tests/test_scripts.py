"""The scripts under ``scripts/`` run from a plain checkout."""

import os
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(cwd: Path, name: str, *args: str) -> subprocess.CompletedProcess:
    # No PYTHONPATH and a working directory outside the checkout: the script
    # must find the package by itself, as in a fresh checkout.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=120,
    )


def test_count_corpus_prints_frozen_totals(tmp_path):
    done = run_script(tmp_path, "count_corpus.py")
    assert done.returncode == 0, done.stderr
    assert "total over all size pairs <= 2: 27" in done.stdout
    assert "total over all size pairs <= 3: 241" in done.stdout
    assert "sizes 0..5: [1, 1, 2, 5, 15, 52]" in done.stdout


def test_run_suites_catches_every_mutant(tmp_path):
    done = run_script(tmp_path, "run_suites.py", "--up-to", "2", "--mutants")
    assert done.returncode == 0, done.stderr
    for mutant in (
        "drop-RoR-block",
        "skip-mono-check",
        "nonsymmetric-closure",
        "drop-basepoint-link",
    ):
        assert f"mutant {mutant}: caught" in done.stdout
