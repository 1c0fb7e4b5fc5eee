"""The text of generated element names, spelled in this one place.

* pullback and tabulation elements are pairs, ``"(a,b)"``: one by
  ``pair_name``, or a whole list of index pairs against two name tuples by
  ``pair_names``, one comprehension with no call per pair;
* coproduct elements are tagged by summand, ``"l:a"`` / ``"r:b"``.

The module imports nothing from the package, so ``errors`` can name pairs
in its messages without importing ``fsets``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

LEFT, RIGHT = "l", "r"


def pair_name(a: str, b: str) -> str:
    return f"({a},{b})"


def pair_names(
    a_names: Sequence[str], b_names: Sequence[str], index_pairs: Iterable[tuple[int, int]]
) -> list[str]:
    """``pair_name(a_names[i], b_names[j])`` for each index pair, in order."""
    return [f"({a_names[i]},{b_names[j]})" for i, j in index_pairs]


def tagged(tag: str, x: str) -> str:
    """The coproduct element for ``x`` in the summand tagged ``LEFT`` or
    ``RIGHT``."""
    return f"{tag}:{x}"
