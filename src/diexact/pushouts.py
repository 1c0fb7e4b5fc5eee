"""Certified pushout constructions for difunctional spans.

Three independent construction routes live here:

* ``malcev_pushout_direct``: quotient the tagged coproduct by the block
  equivalence built from the span's relation;
* ``pushout_epi_leg``: when one leg is surjective, quotient the other foot
  by ``1 u R°R`` and induce the second leg through the coequalizer; it
  builds no coproduct and returns only its square;
* ``malcev_pushout_decomposed``: the three-stage pipeline (epi-leg pushout,
  factorize, epi-leg pushout, mono amalgamation) pasted together.

``pushout_epi_leg`` is ``require_malcev`` followed by the epi-leg body,
``_epi_leg_square``.  The decomposed route calls that body directly for its
two epi-leg stages, after its own ``is_malcev_span`` check of each new stage
span; when the right leg is onto, stage 1 runs on the input span itself,
whose verdict ``require_malcev`` has just kept.  So no stage span has its
Mal'cev precondition decided twice; and ``require_malcev`` keeps an
accepted span's verdict on the span, so the direct and decomposed routes of
one span decide it once between them.

The routes share no colimit code with the verification oracles, which
decide squares on index tables, so that oracle verdicts about them are
meaningful.  The sabotage sites of the mutation-sensitivity suites ask
``mutants.active``, here and in ``pointed``, and so plant defects only in
constructions; no mutant is active in normal operation.  Every square here
is built by ``_square``, which skips its check only while a mutant is on.
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
    EMPTY,
    CommutativeSquare,
    Cospan,
    FiniteSet,
    SetFunction,
    Span,
    _kept,
    compose,
    copair,
    coproduct,
    identity,
    image_factorization,
    is_kernel_pair_trivial,
    is_mono,
    quotient_by_generated,
    require_epi,
    require_mono,
    span,
)
from .relations import (
    Relation,
    _bits,
    _least_member_quotient,
    assemble_block,
    converse,
    difunctionality_witness,
    is_equivalence,
    is_malcev_span,
    joint_monicity_witness,
    rel_compose,
    span_to_relation,
    tabulate,
    union,
)

@dataclass(frozen=True)
class MalcevPushoutResult:
    """The direct route's pushout square together with the block
    equivalence on the tagged coproduct that produced it.  Only ``e`` and
    ``square`` are stored: the legs ``h`` and ``k`` are read off
    ``square.cospan``, the quotient map is their copairing, the corner is
    ``square.corner`` and the span is ``square.span``."""

    e: Relation
    square: CommutativeSquare

    def __post_init__(self) -> None:
        total, _, _ = coproduct(*self.square.span.feet)
        if self.e.source != total or self.e.target != total:
            raise ValueError("e must be an endo-relation on the tagged coproduct")

    @property
    def quotient(self) -> SetFunction:
        """The map out of the tagged coproduct that restricts to h and k."""
        return copair(self.h, self.k)

    @property
    def h(self) -> SetFunction:
        return self.square.cospan.left

    @property
    def k(self) -> SetFunction:
        return self.square.cospan.right

    @property
    def corner(self) -> FiniteSet:
        return self.square.corner


def _square(s: Span, cospan: Cospan) -> CommutativeSquare:
    """Every route square: checked to commute unless a mutant is on, so
    that a planted defect reaches the oracles instead of being refused."""
    if mutants.active():
        return CommutativeSquare._unchecked(s, cospan)
    return CommutativeSquare(s, cospan)


def require_malcev(s: Span) -> Relation:
    """Raise with an element-level witness unless the span is Mal'cev;
    return the span's relation, which the check decided on.

    It reads no mutant, so an accepted span keeps its verdict as
    ``_malcev``, the relation itself (kept by ``_kept``, like
    ``_relation``), and the direct and decomposed routes of one span decide
    it once.  A refused span keeps nothing and is refused again, with the
    same witness, by the next call."""

    def decide() -> Relation:
        jm = joint_monicity_witness(s)
        if jm is not None:
            raise NotJointlyMonicError(*jm)
        r = span_to_relation(s)
        witness = difunctionality_witness(r)
        if witness is not None:
            raise NotMalcevError(witness)
        return r

    return _kept(s, "_malcev", decide)


def pushout_equivalence(r: Relation) -> Relation:
    """The block relation ``(1 u R°R, R°; R, 1 u RR°)`` on the tagged
    coproduct of the relation's source and target.

    For difunctional r this is an equivalence relation.  Both block-relation
    mutants plant their defect here: drop-RoR omits the R°R term from the
    top-left block, and nonsymmetric-closure empties the R° block, the
    links from B back to A.
    """
    r_conv = converse(r)
    top_left = Relation.diagonal(r.source)
    if not mutants.active(mutants.DROP_ROR):
        top_left = union(top_left, rel_compose(r_conv, r))
    bottom_right = union(Relation.diagonal(r.target), rel_compose(r, r_conv))
    if mutants.active(mutants.NONSYMMETRIC):
        r_conv = Relation.from_pairs(r.target, r.source, ())
    return assemble_block(top_left, r_conv, r, bottom_right)


def malcev_pushout_direct(s: Span) -> MalcevPushoutResult:
    """Pushout of a Mal'cev span via the block equivalence on A + B.

    The returned square is contractually a pushout, a pullback and stable;
    those claims are verified by the certification oracles, never assumed
    here.
    """
    return _block_quotient(s, require_malcev(s))


def _block_quotient(s: Span, r: Relation) -> MalcevPushoutResult:
    """The direct route after its precondition: quotient A + B by the block
    relation of r, a relation between the span's feet, and read both legs
    off the quotient.

    Each element goes to the least member of its row, a class once the
    block relation is checked to be an equivalence; under a mutant it is
    not checked, so a mutated block relation's defect reaches the square.
    """
    e = pushout_equivalence(r)
    total, inl, inr = coproduct(*s.feet)
    if not mutants.active() and not is_equivalence(e):
        raise InternalInvariantError(
            "direct-pushout", "block relation of a difunctional relation is not an equivalence"
        )
    quotient = _least_member_quotient(total, e)
    square = _square(s, Cospan(compose(quotient, inl), compose(quotient, inr)))
    return MalcevPushoutResult(e=e, square=square)


def coproduct_via_pushout(a: FiniteSet, b: FiniteSet) -> MalcevPushoutResult:
    """Pushout of the empty-apex span: the disjoint coproduct of a and b."""
    s = Span(EMPTY, SetFunction(EMPTY, a, ()), SetFunction(EMPTY, b, ()))
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
    is one index link per glued left position, quotiented by
    ``quotient_by_generated``, so each class is named by its least member.
    The glue relies on the left leg being injective, which is why the
    pipeline's mono obligations are load-bearing: the skip-mono-check mutant
    removes them and exposes wrong corners downstream.
    """
    if not mutants.active(mutants.SKIP_MONO):
        require_mono(s.left, "left leg of a mono-span pushout")
        require_mono(s.right, "right leg of a mono-span pushout")
    total, inl, inr = coproduct(*s.feet)
    glued: dict[int, int] = {}
    for i, j in zip(s.left.table, s.right.table):
        # The first preimage wins: under skip-mono-check the left leg may
        # repeat a value, and gluing it once keeps its other images apart.
        glued.setdefault(i, j)
    left, right = inl.table, inr.table
    q = quotient_by_generated(total, [(left[i], right[j]) for i, j in glued.items()])
    return _square(s, Cospan(compose(q, inl), compose(q, inr)))


def pushout_epi_leg(s: Span) -> CommutativeSquare:
    """Pushout square of a Mal'cev span whose right leg is surjective.

    Quotients the left foot by ``1 u R°R``, then induces the second leg by
    picking the least preimage through the surjection.  Agreement across
    all preimage choices is asserted, not assumed, since it is exactly the
    coequalizer argument being exercised: the closure is checked to hold
    every preimage, and the square gate ``_square`` checks that the two
    legs commute.  No relation on ``A + B`` is involved, so only the square
    is returned.
    """
    require_malcev(s)
    return _epi_leg_square(s)


def _epi_leg_square(s: Span) -> CommutativeSquare:
    """The epi-leg route after its Mal'cev precondition, which the caller
    has decided: ``pushout_epi_leg`` by ``require_malcev``, the decomposed
    route by its own stage checks.

    The induced leg sends each b to the class of ``first``, the least
    element of A related to it (the right leg is surjective, so there is
    one).  It is well defined at b when the column of b in ``R°``, every
    element of A related to b, lies in that class, the row of ``first`` in
    the closure: one mask test per element of B,
    ``column & ~closure.rows[first]``.  The closure contains ``R°R``, so the
    test guards the closure's construction only (``rel_compose`` and
    ``union``); it reads no value of h.  That h sends every preimage of b
    to the class k gives it is the commutativity of the square, which
    ``_square`` checks unless a mutant is on, with its ``ValueError``.
    """
    require_epi(s.right, "right leg of an epi-leg pushout")
    a_set, b_set = s.feet
    r = span_to_relation(s)
    r_conv = converse(r)
    closure = union(Relation.diagonal(a_set), rel_compose(r_conv, r))
    if not is_equivalence(closure):
        raise InternalInvariantError(
            "epi-leg-pushout", "1 u R°R of a difunctional relation is not an equivalence"
        )
    h = _least_member_quotient(a_set, closure)
    h_t, classes = h.table, closure.rows
    firsts = [(column & -column).bit_length() - 1 for column in r_conv.rows]
    for b, column, first in zip(b_set, r_conv.rows, firsts):
        if column & ~classes[first]:
            names = [h.codomain.elements[d] for d in sorted({h_t[i] for i in _bits(column)})]
            raise InternalInvariantError(
                "epi-leg-pushout",
                f"induced leg is not well defined at {b!r}: preimages land in {names}",
            )
    k = SetFunction._of_table(b_set, h.codomain, tuple([h_t[i] for i in firsts]))
    return _square(s, Cospan(h, k))


@dataclass(frozen=True)
class DecompositionTrace:
    """The three pasted squares of the decomposed pushout pipeline.

    ``squares`` holds, in order: the epi-leg pushout along the first
    factorization, the epi-leg pushout along the second, and the mono
    amalgamation.  ``pasted`` is the outer rectangle on the original span.
    The factors are legs of the squares: the first square's span is
    ``<f, g1>``, the second's ``<g2, f1'>`` and the third's ``<f2', g2'>``.
    When g is onto, g1 is g and the first square's span is the input span
    itself, the same object as ``pasted.span``.
    """

    squares: tuple[CommutativeSquare, CommutativeSquare, CommutativeSquare]
    pasted: CommutativeSquare

    def __post_init__(self) -> None:
        first, second, third = self.squares
        if self.pasted.span.right != compose(second.span.left, self.g1):
            raise ValueError("factorization does not recompose the original leg")
        if first.cospan.right != compose(third.span.left, second.span.right):
            raise ValueError("second factorization does not recompose the induced leg")
        outer = self.pasted.cospan
        if (
            outer.left != compose(third.cospan.left, first.cospan.left)
            or outer.right != compose(third.cospan.right, second.cospan.left)
        ):
            raise ValueError("outer rectangle does not equal the pasted cospan")

    @property
    def g1(self) -> SetFunction:
        """The surjective factor of the original right leg."""
        return self.squares[0].span.right

    @property
    def corner(self) -> FiniteSet:
        return self.pasted.corner


def malcev_pushout_decomposed(s: Span) -> DecompositionTrace:
    """Pushout of a Mal'cev span by factorize-and-amalgamate.

    Stage 1 factors the right leg and pushes out along its surjective part.
    When g is onto, that part is g itself and stage 1 runs on the input
    span, whose Mal'cev precondition ``require_malcev`` has just decided;
    only a new stage span has it checked again.  Stage 2 factors the
    induced map, pushes out again, and discharges the injectivity
    obligation on the new induced map twice over (kernel-pair triviality
    and direct injectivity, compared); stage 3 amalgamates the remaining
    span of injections.  Any failed obligation falsifies the
    construction itself and aborts loudly.

    The skip-mono-check mutant jumps from stage 1 straight to the
    amalgamation, so the amalgamation's injectivity assumption is violated
    whenever stage 1's induced map is not injective.
    """
    require_malcev(s)
    f, g = s.left, s.right

    g1, g2 = image_factorization(g)
    if g1 is g:
        stage_one_span = s
    else:
        stage_one_span = span(f, g1)
        if not is_malcev_span(stage_one_span):
            raise InternalInvariantError(
                "stage-1", "span against the surjective factor is not Mal'cev"
            )
    first = _epi_leg_square(stage_one_span)
    h1, f_prime = first.cospan.left, first.cospan.right

    if mutants.active(mutants.SKIP_MONO):
        f1_prime = identity(g1.codomain)
        f2_prime, g2_prime = f_prime, g2
        h2 = identity(g2.codomain)
        second = _square(span(g2, f1_prime), Cospan(h2, g2))
    else:
        f1_prime, f2_prime = image_factorization(f_prime)
        stage_two_span = span(g2, f1_prime)
        if not is_malcev_span(stage_two_span):
            raise InternalInvariantError(
                "stage-2", "span against the second surjective factor is not Mal'cev"
            )
        second = _epi_leg_square(stage_two_span)
        h2, g2_prime = second.cospan.left, second.cospan.right
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
    pasted = _square(
        s, Cospan(compose(third.cospan.left, h1), compose(third.cospan.right, h2))
    )
    return DecompositionTrace(squares=(first, second, third), pasted=pasted)
