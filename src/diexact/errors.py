"""Exception hierarchy shared across the package.

Precondition errors mean the caller handed us an input outside an operation's
contract and always carry element-level evidence.  Internal invariant errors
mean a construction step that is provably impossible to fail on finite sets
failed anyway; they must never be swallowed.
"""

from __future__ import annotations

from .names import pair_name


class CompositionError(ValueError):
    """Domain/codomain mismatch when composing functions or relations."""


class PreconditionError(ValueError):
    """An operation was called on input outside its contract."""


class NotJointlyMonicError(PreconditionError):
    """A span's pairing map is not injective.

    Carries two apex elements with the same image pair.
    """

    def __init__(self, first: str, second: str, image: tuple[str, str]):
        self.first = first
        self.second = second
        self.image = image
        super().__init__(
            f"span is not jointly monic: apex elements {first!r} and {second!r} "
            f"both map to {image}"
        )


class NotMalcevError(PreconditionError):
    """A span's underlying relation is not difunctional.

    Carries the violating quadruple (a, b, a2, b2): the relation holds at
    (a, b), (a, b2) and (a2, b) but not at (a2, b2).
    """

    def __init__(self, quadruple: tuple[str, str, str, str]):
        self.quadruple = quadruple
        a, b, a2, b2 = quadruple
        super().__init__(
            "relation is not difunctional: "
            f"{pair_name(a, b)}, {pair_name(a, b2)}, {pair_name(a2, b)} hold "
            f"but {pair_name(a2, b2)} does not"
        )


class NotEquivalenceError(PreconditionError):
    """A relation expected to be an equivalence is not one."""


class NotMonoError(PreconditionError):
    """A map expected to be injective is not."""


class NotEpiError(PreconditionError):
    """A map expected to be surjective is not."""


class InternalInvariantError(RuntimeError):
    """A construction step violated an invariant the underlying results
    guarantee on finite sets.  Indicates a bug (or an enabled mutant), never
    bad user input."""

    def __init__(self, stage: str, message: str):
        self.stage = stage
        super().__init__(f"[{stage}] {message}")


class ParseError(ValueError):
    """Input text failed to parse; carries a 1-based line number."""

    def __init__(self, message: str, line: int):
        self.line = line
        super().__init__(f"line {line}: {message}")
