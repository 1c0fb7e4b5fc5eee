"""The text of generated element names, spelled in this one place.

* pullback and tabulation elements are pairs, ``"(a,b)"``;
* coproduct elements are tagged by summand, ``"l:a"`` / ``"r:b"``.

The module imports nothing from the package, so ``errors`` can name pairs
in its messages without importing ``fsets``.
"""

from __future__ import annotations

LEFT, RIGHT = "l", "r"


def pair_name(a: str, b: str) -> str:
    return f"({a},{b})"


def tagged(tag: str, x: str) -> str:
    """The coproduct element for ``x`` in the summand tagged ``LEFT`` or
    ``RIGHT``."""
    return f"{tag}:{x}"
