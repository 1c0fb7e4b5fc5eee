"""Certified pushout constructions for difunctional spans.

Three independent construction routes live here:

* ``malcev_pushout_direct``: quotient the tagged coproduct by the block
  equivalence built from the span's relation;
* ``pushout_epi_leg``: when one leg is surjective, quotient the other foot
  and induce the second leg through the coequalizer;
* ``malcev_pushout_decomposed``: the three-stage pipeline (epi-leg pushout,
  factorize, epi-leg pushout, mono amalgamation) pasted together.

The routes share no colimit code with the verification oracles, so that
oracle verdicts about them are meaningful.  The sabotage sites of the
mutation-sensitivity suites ask ``mutants.active``; no mutant is active in
normal operation.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import mutants
from .errors import (
    InternalInvariantError,
    NotEquivalenceError,
    NotJointlyMonicError,
    NotMalcevError,
)
from .fsets import (
    CommutativeSquare,
    Cospan,
    FiniteSet,
    SetFunction,
    Span,
    compose,
    copair,
    coproduct,
    identity,
    image_factorization,
    is_kernel_pair_trivial,
    is_mono,
    mediating_map,
    pullback,
    quotient_by_generated,
    quotient_by_partition,
    require_epi,
    require_mono,
    span,
)
from .relations import (
    BlockRelation,
    Relation,
    assemble_block,
    converse,
    difunctionality_witness,
    graph_of,
    is_equivalence,
    is_malcev_span,
    joint_monicity_witness,
    quotient_by_equivalence,
    rel_compose,
    span_to_relation,
    tabulate,
    union,
)

@dataclass(frozen=True)
class MalcevPushoutResult:
    """A pushout square together with the data that produced it: the block
    equivalence on the tagged coproduct and its quotient map."""

    span: Span
    e: Relation
    quotient: SetFunction
    h: SetFunction
    k: SetFunction
    square: CommutativeSquare

    def __post_init__(self) -> None:
        a_set, b_set = self.span.feet
        total, inl, inr = coproduct(a_set, b_set)
        if self.quotient.domain != total:
            raise ValueError("quotient must be defined on the tagged coproduct")
        if compose(self.quotient, inl) != self.h or compose(self.quotient, inr) != self.k:
            raise ValueError("legs must be the quotient composed with the injections")
        if self.e.source != total or self.e.target != total:
            raise ValueError("e must be an endo-relation on the tagged coproduct")

    @property
    def corner(self) -> FiniteSet:
        return self.quotient.codomain


def require_malcev(s: Span) -> None:
    """Raise with an element-level witness unless the span is Mal'cev."""
    jm = joint_monicity_witness(s)
    if jm is not None:
        raise NotJointlyMonicError(*jm)
    witness = difunctionality_witness(span_to_relation(s))
    if witness is not None:
        raise NotMalcevError(witness)


def pushout_equivalence(r: Relation) -> Relation:
    """The block relation ``(1 u R°R, R°; R, 1 u RR°)`` on the tagged
    coproduct of the relation's source and target.

    For difunctional r this is an equivalence relation.  The drop-RoR mutant
    omits the R°R term from the top-left block.
    """
    r_conv = converse(r)
    top_left = Relation.diagonal(r.source)
    if not mutants.active(mutants.DROP_ROR):
        top_left = union(top_left, rel_compose(r_conv, r))
    bottom_right = union(Relation.diagonal(r.target), rel_compose(r, r_conv))
    return assemble_block(
        BlockRelation(((top_left, r_conv), (r, bottom_right)))
    )


def malcev_pushout_direct(s: Span) -> MalcevPushoutResult:
    """Pushout of a Mal'cev span via the block equivalence on A + B.

    The returned square is contractually a pushout, a pullback and stable;
    those claims are verified by the certification oracles, never assumed
    here.
    """
    require_malcev(s)
    return _block_quotient(s, span_to_relation(s))


def _block_quotient(s: Span, r: Relation) -> MalcevPushoutResult:
    """The direct route after its precondition: quotient A + B by the block
    relation of r, a relation between the span's feet, and read both legs
    off the quotient.

    Under any mutant the quotient is by the equivalence the pairs of the
    block relation generate, and the square is left unchecked.
    """
    e = pushout_equivalence(r)
    total, inl, inr = coproduct(*s.feet)
    if not mutants.active():
        if not is_equivalence(e):
            raise InternalInvariantError(
                "direct-pushout",
                "block relation of a difunctional relation is not an equivalence",
            )
        quotient = quotient_by_equivalence(total, e)
        square_of = CommutativeSquare
    else:
        quotient = quotient_by_generated(total, list(e.pairs()))
        square_of = CommutativeSquare._unchecked
    h = compose(quotient, inl)
    k = compose(quotient, inr)
    square = square_of(s, Cospan(h, k))
    return MalcevPushoutResult(span=s, e=e, quotient=quotient, h=h, k=k, square=square)


def coproduct_via_pushout(a: FiniteSet, b: FiniteSet) -> MalcevPushoutResult:
    """Pushout of the empty-apex span: the disjoint coproduct of a and b."""
    empty = FiniteSet(())
    s = Span(empty, SetFunction(empty, a, ()), SetFunction(empty, b, ()))
    return malcev_pushout_direct(s)


def coequalizer_via_pushout(e: Relation) -> MalcevPushoutResult:
    """Pushout of the tabulation of an equivalence relation.

    Reflexivity forces the two legs to coincide, and the common leg is the
    coequalizer of the relation's projections; its kernel pair recovers e.
    """
    if not is_equivalence(e):
        raise NotEquivalenceError(f"relation is not an equivalence: {e!r}")
    result = malcev_pushout_direct(tabulate(e))
    if not mutants.active() and result.h != result.k:
        raise InternalInvariantError(
            "coequalizer", "legs of a reflexive-span pushout differ"
        )
    return result


def mono_span_pushout(s: Span) -> CommutativeSquare:
    """Amalgamation of a span of injections.

    Each element of the left foot hit by the apex is glued onto the right
    image of its unique preimage; everything else stays separate.  The glue
    relies on the left leg being injective, which is why the pipeline's mono
    obligations are load-bearing: the skip-mono-check mutant removes them
    and exposes wrong corners downstream.
    """
    if not mutants.active(mutants.SKIP_MONO):
        require_mono(s.left, "left leg of a mono-span pushout")
        require_mono(s.right, "right leg of a mono-span pushout")
    total, inl, inr = coproduct(*s.feet)
    glued: dict[int, int] = {}
    for i, j in zip(s.left.table, s.right.table):
        # The first preimage wins: under skip-mono-check the left leg may
        # repeat a value, and gluing it once keeps the blocks a partition.
        glued.setdefault(i, j)
    blocks = [[y] for y in inr.values]
    for i, x in enumerate(inl.values):
        if i in glued:
            blocks[glued[i]].append(x)
        else:
            blocks.append([x])
    q = quotient_by_partition(total, blocks)
    cospan = Cospan(compose(q, inl), compose(q, inr))
    if mutants.active(mutants.SKIP_MONO):
        return CommutativeSquare._unchecked(s, cospan)
    return CommutativeSquare(s, cospan)


def subobject_union(
    m: SetFunction, n: SetFunction
) -> tuple[SetFunction, CommutativeSquare]:
    """Union of two subobjects of a common set: intersect, amalgamate, and
    induce the inclusion of the amalgam.  Returns the induced injection and
    the amalgamation square."""
    require_mono(m, "first subobject")
    require_mono(n, "second subobject")
    if m.codomain != n.codomain:
        raise ValueError("subobjects must live in the same set")
    intersection, _ = pullback(Cospan(m, n))
    sq = mono_span_pushout(span(intersection.left, intersection.right))
    induced = mediating_map(sq, Cospan(m, n))
    if not is_mono(induced):
        raise InternalInvariantError(
            "subobject-union", "induced map of a mono amalgamation is not injective"
        )
    return induced, sq


def pushout_epi_leg(s: Span) -> MalcevPushoutResult:
    """Pushout of a Mal'cev span whose right leg is surjective.

    Quotients the left foot by ``1 u R°R``, then induces the second leg by
    picking any preimage through the surjection; agreement across all
    preimage choices is asserted, not assumed, since it is exactly the
    coequalizer argument being exercised.
    """
    require_malcev(s)
    require_epi(s.right, "right leg of an epi-leg pushout")
    a_set, b_set = s.feet
    r = span_to_relation(s)
    closure = union(Relation.diagonal(a_set), rel_compose(converse(r), r))
    if not is_equivalence(closure):
        raise InternalInvariantError(
            "epi-leg-pushout",
            "1 u R°R of a difunctional relation is not an equivalence",
        )
    h = quotient_by_equivalence(a_set, closure)
    landings: dict[str, set[str]] = {b: set() for b in b_set}
    for i, b in zip(s.left.table, s.right.values):
        landings[b].add(h.values[i])
    values = []
    for b in b_set:
        images = sorted(landings[b])
        if len(images) != 1:
            raise InternalInvariantError(
                "epi-leg-pushout",
                f"induced leg is not well defined at {b!r}: preimages land in {images}",
            )
        values.append(images[0])
    k = SetFunction(b_set, h.codomain, tuple(values))
    square = CommutativeSquare(s, Cospan(h, k))
    quotient = copair(h, k)
    g = graph_of(quotient)
    e = rel_compose(converse(g), g)
    return MalcevPushoutResult(span=s, e=e, quotient=quotient, h=h, k=k, square=square)


@dataclass(frozen=True)
class DecompositionTrace:
    """The three pasted squares of the decomposed pushout pipeline.

    ``squares`` holds, in order: the epi-leg pushout along the first
    factorization, the epi-leg pushout along the second, and the mono
    amalgamation.  ``pasted`` is the outer rectangle on the original span.
    """

    g1: SetFunction
    g2: SetFunction
    f1_prime: SetFunction
    f2_prime: SetFunction
    g2_prime: SetFunction
    squares: tuple[CommutativeSquare, CommutativeSquare, CommutativeSquare]
    pasted: CommutativeSquare

    def __post_init__(self) -> None:
        first, second, third = self.squares
        if compose(self.g2, self.g1) != self.pasted.span.right:
            raise ValueError("factorization does not recompose the original leg")
        if compose(self.f2_prime, self.f1_prime) != first.cospan.right:
            raise ValueError("second factorization does not recompose the induced leg")
        expected_left = compose(third.cospan.left, first.cospan.left)
        expected_right = compose(third.cospan.right, second.cospan.left)
        if (
            self.pasted.cospan.left != expected_left
            or self.pasted.cospan.right != expected_right
        ):
            raise ValueError("outer rectangle does not equal the pasted cospan")

    @property
    def corner(self) -> FiniteSet:
        return self.pasted.corner


def malcev_pushout_decomposed(s: Span) -> DecompositionTrace:
    """Pushout of a Mal'cev span by factorize-and-amalgamate.

    Stage 1 factors the right leg and pushes out along its surjective part;
    stage 2 factors the induced map, pushes out again, and discharges the
    injectivity obligation on the new induced map twice over (kernel-pair
    triviality and direct injectivity, compared); stage 3 amalgamates the
    remaining span of injections.  Any failed obligation falsifies the
    construction itself and aborts loudly.

    The skip-mono-check mutant jumps from stage 1 straight to the
    amalgamation, so the amalgamation's injectivity assumption is violated
    whenever stage 1's induced map is not injective.
    """
    require_malcev(s)
    f, g = s.left, s.right

    g1, g2 = image_factorization(g)
    stage_one_span = span(f, g1)
    if not is_malcev_span(stage_one_span):
        raise InternalInvariantError(
            "stage-1", "span against the surjective factor is not Mal'cev"
        )
    first = pushout_epi_leg(stage_one_span)
    h1, f_prime = first.h, first.k

    if mutants.active(mutants.SKIP_MONO):
        c_mid = g1.codomain
        f1_prime = identity(c_mid)
        f2_prime = f_prime
        g2_prime = g2
        h2 = identity(g2.codomain)
        second = CommutativeSquare(span(g2, f1_prime), Cospan(h2, g2))
    else:
        f1_prime, f2_prime = image_factorization(f_prime)
        stage_two_span = span(g2, f1_prime)
        if not is_malcev_span(stage_two_span):
            raise InternalInvariantError(
                "stage-2", "span against the second surjective factor is not Mal'cev"
            )
        second_result = pushout_epi_leg(stage_two_span)
        h2, g2_prime = second_result.h, second_result.k
        second = second_result.square
        by_kernel_pair = is_kernel_pair_trivial(g2_prime)
        by_injectivity = is_mono(g2_prime)
        if by_kernel_pair != by_injectivity:
            raise InternalInvariantError(
                "stage-2", "kernel-pair and injectivity criteria disagree"
            )
        if not by_injectivity:
            raise InternalInvariantError(
                "stage-2", "induced map out of the second pushout is not injective"
            )
        if not is_mono(f2_prime):
            raise InternalInvariantError(
                "stage-2", "image inclusion is not injective"
            )

    third = mono_span_pushout(span(f2_prime, g2_prime))
    outer = Cospan(
        compose(third.cospan.left, h1),
        compose(third.cospan.right, h2),
    )
    if mutants.active():
        pasted = CommutativeSquare._unchecked(s, outer)
    else:
        pasted = CommutativeSquare(s, outer)
    return DecompositionTrace(
        g1=g1,
        g2=g2,
        f1_prime=f1_prime,
        f2_prime=f2_prime,
        g2_prime=g2_prime,
        squares=(first.square, second, third),
        pasted=pasted,
    )
