"""Connected sums of diagrams, and the search showing that the framed
connected sum is not well defined modulo the 4T relations.

A framed connected sum cuts each circle at a chosen arc, concatenates the
two resulting lines with their orientations, and closes up.  Different cut
choices can land in different quotient classes; the search certifies this by
comparing the surgery weight of the parity expansions, and the exact
quotient decision confirms every weight disagreement.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import ModuleElement, quotient_equal
from .diagrams import (
    CanonicalKey,
    DoubleLinearDiagram,
    FramedChordDiagram,
    FramedLinearDiagram,
    InvalidArgumentError,
    _canon_framed,
    _codes,
    enumerate_diagrams,
    from_key,
)
from .parity import psi_module
from .surgery import weight


@dataclass(frozen=True, eq=False)
class CutPoint:
    """An arc on a stored representative: the arc following endpoint ``arc``.

    Arc indices run over ``0 .. 2n-1``; the empty diagram has the single cut
    point 0.  Cuts never touch chord endpoints.
    """

    diagram: FramedChordDiagram
    arc: int

    def __post_init__(self):
        _check_arc(self.diagram, self.arc)


def _check_arc(d, arc):
    limit = max(2 * d.n, 1)
    if not isinstance(arc, int) or not 0 <= arc < limit:
        raise InvalidArgumentError(f"arc index {arc!r} out of range for a {d.n}-chord diagram")
    return arc


def _arc_of(cut, d):
    if isinstance(cut, CutPoint):
        return _check_arc(d, cut.arc)
    return _check_arc(d, cut)


def cut_open(d: FramedChordDiagram, arc) -> FramedLinearDiagram:
    """Cut the circle along the arc following endpoint ``arc``.

    The resulting line starts at the endpoint after the cut and ends at
    endpoint ``arc`` itself.
    """
    arc = _arc_of(arc, d)
    word = d.word[arc + 1 :] + d.word[: arc + 1] if d.word else ()
    return FramedLinearDiagram(word, d.framing)


def _tagged(diagram, tag):
    word = tuple((tag, lab) for lab in diagram.word)
    framing = {(tag, lab): fr for lab, fr in diagram.framing.items()}
    return word, framing


def _sum_key(codes1, a1, codes2, a2) -> CanonicalKey:
    """Key of the framed connected sum of two code words (see
    ``diagrams._codes``) cut at arcs ``a1`` and ``a2`` (already checked):
    each word is rotated to start after its cut, the second word's labels
    are shifted past the first's, and the two lines are concatenated."""
    # a code of a word of length L is at most L + 1, and the shift is even,
    # so the framing bits stay
    shift = len(codes1) + 2
    return _canon_framed(
        codes1[a1 + 1 :]
        + codes1[: a1 + 1]
        + tuple([c + shift for c in codes2[a2 + 1 :] + codes2[: a2 + 1]])
    )


def connected_sum_framed(d1, c1, d2, c2) -> FramedChordDiagram:
    """Glue two framed chord diagrams at the chosen cut arcs.

    Both circles are cut open, the lines are concatenated respecting the
    orientations, and the result is closed up and canonicalized.  As a raw
    diagram the outcome only depends on the cut arcs, not on which rotated
    representative stored them; the free loop is a two-sided identity.
    """
    a1 = _arc_of(c1, d1)
    a2 = _arc_of(c2, d2)
    return from_key(_sum_key(_codes(d1.word, d1.framing), a1, _codes(d2.word, d2.framing), a2))


def connected_sum_linear(g1, g2) -> FramedLinearDiagram:
    """Concatenate two framed linear diagrams along the orientation."""
    w1, f1 = _tagged(g1, 0)
    w2, f2 = _tagged(g2, 1)
    return FramedLinearDiagram(w1 + w2, {**f1, **f2}).canonical()


def connected_sum_dlinear(h1, h2) -> DoubleLinearDiagram:
    """Line-wise concatenation: first line to first line, second to second."""
    word1 = tuple((0, lab) for lab in h1.word1) + tuple((1, lab) for lab in h2.word1)
    word2 = tuple((0, lab) for lab in h1.word2) + tuple((1, lab) for lab in h2.word2)
    return DoubleLinearDiagram(word1, word2).canonical()


@dataclass(frozen=True)
class SumWitness:
    """Two cut choices for one diagram pair whose sums split apart.

    ``w_a`` and ``w_b`` are the surgery weights of the parity expansions of
    the two connected sums; ``w_values`` collects every distinct weight seen
    over all cut pairs of this diagram pair.
    """

    d1: CanonicalKey
    d2: CanonicalKey
    cuts_a: tuple
    cuts_b: tuple
    sum_a: CanonicalKey
    sum_b: CanonicalKey
    w_a: int
    w_b: int
    w_values: tuple


def search_counterexample(max_chords: int):
    """All diagram pairs (total chords <= ``max_chords``) whose connected
    sums disagree under the weight of the parity expansion.

    Exhausts canonical diagram pairs and every cut-arc pair, in a fixed
    deterministic order; for each pair exhibiting more than one weight it
    records the first cut pair and the first cut pair that differs from it.
    Returns an empty tuple when no witness exists at this size.  Any witness
    certifies that the two sums differ in the double-diagram quotient, since
    the weight descends to it; :func:`chordcalc.algebra.quotient_equal`
    confirms the inequality exactly.
    """
    if max_chords < 0:
        raise InvalidArgumentError("max_chords must be nonnegative")
    witnesses = []
    weights = {}  # sum key -> weight of its parity expansion
    for total in range(max_chords + 1):
        for n1 in range(total + 1):
            n2 = total - n1
            for k1 in enumerate_diagrams("framed", n1):
                codes1 = tuple([2 * c + f for c, f in k1.payload])
                for k2 in enumerate_diagrams("framed", n2):
                    codes2 = tuple([2 * c + f for c, f in k2.payload])
                    outcomes = []
                    for a1 in range(max(2 * n1, 1)):
                        for a2 in range(max(2 * n2, 1)):
                            key = _sum_key(codes1, a1, codes2, a2)
                            w = weights.get(key)
                            if w is None:
                                w = weights[key] = weight(psi_module(ModuleElement.single(key)))
                            outcomes.append(((a1, a2), key, w))
                    values = sorted({w for _, _, w in outcomes})
                    if len(values) < 2:
                        continue
                    cuts_a, sum_a, w_a = outcomes[0]
                    cuts_b, sum_b, w_b = next(o for o in outcomes if o[2] != w_a)
                    witnesses.append(
                        SumWitness(
                            d1=k1,
                            d2=k2,
                            cuts_a=cuts_a,
                            cuts_b=cuts_b,
                            sum_a=sum_a,
                            sum_b=sum_b,
                            w_a=w_a,
                            w_b=w_b,
                            w_values=tuple(values),
                        )
                    )
    return tuple(witnesses)


def witness_quotient_split(witness: SumWitness) -> bool:
    """True when the two sums' parity expansions differ in the quotient.

    The exact integer-span decision; every weight disagreement must be
    confirmed by it.
    """
    lhs = psi_module(ModuleElement.single(witness.sum_a))
    rhs = psi_module(ModuleElement.single(witness.sum_b))
    return not quotient_equal(lhs, rhs)
