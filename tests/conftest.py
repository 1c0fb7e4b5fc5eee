"""Shared hypothesis strategies for sets, functions, relations and spans,
the references that several test modules build on, and the one recorder
of the calls a run makes."""

from __future__ import annotations

import itertools
import random
import sys
from collections import Counter
from typing import Callable, Iterable, Sequence, TypeVar

import hypothesis.strategies as st
from hypothesis import settings

from diexact.enumeration import malcev_corpus
from diexact.fsets import FiniteSet, SetFunction, Span, span
from diexact.pointed import PointedSpan, canonical_pointed_set, pointed_span_from_relation
from diexact.relations import Relation, converse, difunctional_closure, rel_compose, tabulate, union

T = TypeVar("T")


def recorded_calls(functions, run: Callable[[], T]) -> tuple[T, list[tuple[str, str, dict]]]:
    """Run ``run()`` and record every call of the functions, however the
    caller looks each one up, as (function's name, caller's name,
    arguments), in call order."""
    names = {function.__code__: function.__name__ for function in functions}
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in names:
            calls.append((names[frame.f_code], frame.f_back.f_code.co_name, dict(frame.f_locals)))

    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return result, calls


def call_counts(functions, run: Callable[[], T]) -> tuple[T, Counter]:
    """``recorded_calls`` with the calls counted by function name."""
    result, calls = recorded_calls(functions, run)
    return result, Counter(name for name, _, _ in calls)


def graph_of(f: SetFunction) -> Relation:
    """The relation holding at each (x, f(x))."""
    return Relation.from_pairs(f.domain, f.codomain, zip(f.domain, f.values))


def quotient_by_partition(a: FiniteSet, blocks: Iterable[Sequence[str]]) -> SetFunction:
    """Surjection onto the set of blocks, each named by its least member:
    the name-based reference for ``quotient_by_generated`` and
    ``quotient_by_equivalence``."""
    block_list = [tuple(sorted(block)) for block in blocks]
    seen = [x for block in block_list for x in block]
    if sorted(seen) != list(a.elements):
        raise ValueError(f"blocks do not partition {a}")
    names = {x: block[0] for block in block_list for x in block}
    target = FiniteSet(tuple(sorted({block[0] for block in block_list})))
    return SetFunction(a, target, tuple(names[x] for x in a))


def fixpoint_closure(r: Relation) -> Relation:
    """Least difunctional relation containing r, by iterating
    R <- R u R R° R to a fixpoint: the reference for the one-pass
    ``difunctional_closure``."""
    current = r
    while True:
        step = union(current, rel_compose(current, rel_compose(converse(current), current)))
        if step == current:
            return current
        current = step


def sample_pointed_spans(
    rng: random.Random, count: int, max_size: int
) -> list[tuple[str, PointedSpan]]:
    """``count`` seeded pointed spans drawn as P1 draws its samples: the
    pointed ``malcev_corpus`` over canonical pointed sets of sizes 1 to
    ``max_size``, with no exhaustive part."""
    sets = {n: canonical_pointed_set(n) for n in range(1, max_size + 1)}
    carriers = [p.carrier for p in sets.values()]

    def build(r: Relation) -> PointedSpan:
        return pointed_span_from_relation(sets[len(r.source)], sets[len(r.target)], r)

    return list(malcev_corpus(carriers, carriers, 0, rng, count, build, pointed=True))


settings.register_profile("suite", deadline=None)
settings.load_profile("suite")


def sized_sets(prefix: str, min_size: int = 0, max_size: int = 3) -> st.SearchStrategy[FiniteSet]:
    return st.integers(min_size, max_size).map(
        lambda n: FiniteSet(tuple(f"{prefix}{i}" for i in range(1, n + 1)))
    )


@st.composite
def relations(
    draw, source_prefix: str = "a", target_prefix: str = "b", max_size: int = 3
) -> Relation:
    """Each cell of source x target, row-major, holds by one drawn boolean."""
    source = draw(sized_sets(source_prefix, max_size=max_size))
    target = draw(sized_sets(target_prefix, max_size=max_size))
    cells = itertools.product(source, target)
    return Relation.from_pairs(source, target, [c for c in cells if draw(st.booleans())])


@st.composite
def difunctional_relations_st(draw, max_size: int = 3) -> Relation:
    return difunctional_closure(draw(relations(max_size=max_size)))


@st.composite
def functions(
    draw,
    domain: FiniteSet | None = None,
    codomain: FiniteSet | None = None,
    domain_prefix: str = "x",
    codomain_prefix: str = "y",
    max_size: int = 3,
) -> SetFunction:
    if domain is None:
        domain = draw(sized_sets(domain_prefix, max_size=max_size))
    if codomain is None:
        min_codomain = 1 if len(domain) else 0
        codomain = draw(sized_sets(codomain_prefix, min_size=min_codomain, max_size=max_size))
    values = tuple(draw(st.sampled_from(codomain.elements)) for _ in domain)
    return SetFunction(domain, codomain, values)


@st.composite
def malcev_spans(draw, max_size: int = 3) -> Span:
    return tabulate(draw(difunctional_relations_st(max_size=max_size)))


@st.composite
def arbitrary_spans(draw, max_size: int = 3) -> Span:
    apex = draw(sized_sets("c", max_size=max_size))
    left = draw(functions(domain=apex, codomain_prefix="a", max_size=max_size))
    right = draw(functions(domain=apex, codomain_prefix="b", max_size=max_size))
    return span(left, right)
