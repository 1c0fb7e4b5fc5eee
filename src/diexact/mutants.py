"""The four planted defects ("mutants") and the one switch that plants them.

A sabotage site asks ``active(NAME)``; the suites and the ``pushout``
command turn one mutant on for a run with ``enabled(name)``.  No mutant is
active in normal operation.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator

DROP_ROR = "drop-RoR-block"
SKIP_MONO = "skip-mono-check"
NONSYMMETRIC = "nonsymmetric-closure"
DROP_BASEPOINT = "drop-basepoint-link"

KNOWN = (DROP_ROR, SKIP_MONO, NONSYMMETRIC, DROP_BASEPOINT)

_current: ContextVar[str | None] = ContextVar("diexact_mutant", default=None)


def check(name: str | None) -> None:
    """Raise ``ValueError`` unless name is None or a known mutant."""
    if name is not None and name not in KNOWN:
        raise ValueError(f"unknown mutant {name!r}; known: {', '.join(KNOWN)}")


def active(name: str | None = None) -> bool:
    """Whether the named mutant is on; with no name, whether any is."""
    current = _current.get()
    return current is not None if name is None else current == name


@contextmanager
def enabled(name: str | None) -> Iterator[None]:
    """Run the block with the named mutant on (with none on for None)."""
    check(name)
    token = _current.set(name)
    try:
        yield
    finally:
        _current.reset(token)
