"""Connected sums of diagrams, and the search showing that the framed
connected sum is not well defined modulo the 4T relations.

A framed connected sum cuts each circle at a chosen arc, concatenates the
two resulting lines with their orientations, and closes up.  Different cut
choices can land in different quotient classes; the search certifies this by
comparing the surgery weight of the parity expansions, which descends to the
quotient, so a weight disagreement is an exact proof on its own.
"""

from __future__ import annotations

from .algebra import ModuleElement, quotient_equal
from .diagrams import (
    CanonicalKey,
    DoubleLinearDiagram,
    FramedChordDiagram,
    FramedLinearDiagram,
    InvalidArgumentError,
    _CANONICALIZERS,
    _check_size,
    _codes,
    _expect,
    _key_words,
    _Memo,
    _Record,
    enumerate_diagrams,
    from_key,
)
from .parity import psi_module
from .surgery import weight


def _check_arc(d, arc):
    if type(arc) is not int:  # bool excluded
        raise InvalidArgumentError(f"arc index must be an int, got {arc!r}")
    if not 0 <= arc < max(2 * d.n, 1):
        raise InvalidArgumentError(f"arc index {arc!r} out of range for a {d.n}-chord diagram")
    return arc


def cut_open(d: FramedChordDiagram, arc) -> FramedLinearDiagram:
    """Cut the circle along the arc following endpoint ``arc``.

    The resulting line starts at the endpoint after the cut and ends at
    endpoint ``arc`` itself.  Arcs run over ``0 .. 2n-1``; the free loop has
    the single arc 0.
    """
    _expect(FramedChordDiagram, d)
    _check_arc(d, arc)
    word = d.word[arc + 1 :] + d.word[: arc + 1]
    return FramedLinearDiagram(word, d.framing)


def _joined(kind, words1, words2) -> CanonicalKey:
    """Key of the ``kind`` diagram whose ``i``-th word is the ``i``-th of
    ``words1`` followed by the ``i``-th of ``words2``; both are int words of
    one diagram each, codes or key numbers (see ``diagrams._key_words``)."""
    # a code or number in words of total length L is at most L + 1, and the
    # shift is even, so the second diagram's labels are new and keep their
    # framing bits
    shift = sum(map(len, words1)) + 2
    return _CANONICALIZERS[kind](
        *[w1 + tuple([c + shift for c in w2]) for w1, w2 in zip(words1, words2)]
    )


def _cut(codes, arc):
    """A framed code word (see ``diagrams._codes``) cut at ``arc`` (already
    checked), as the one word ``_joined`` takes: rotated to start after the
    cut."""
    return (codes[arc + 1 :] + codes[: arc + 1],)


def _key_sum(k1, k2) -> CanonicalKey:
    """Key of the connected sum of two linear or two dlinear keys.  Lines
    are never rotated, so relabelling an operand relabels the sum, and the
    sum of two keys is the key of the sum of any diagrams they stand for."""
    return _joined(k1.kind, _key_words(k1), _key_words(k2))


def connected_sum_framed(d1, c1, d2, c2) -> FramedChordDiagram:
    """Glue two framed chord diagrams at the chosen cut arcs.

    Both circles are cut open, the lines are concatenated respecting the
    orientations, and the result is closed up and canonicalized.  As a raw
    diagram the outcome only depends on the cut arcs, not on which rotated
    representative stored them; the free loop is a two-sided identity.
    """
    _expect(FramedChordDiagram, d1, d2)
    cut1 = _cut(_codes(d1.word, d1.framing), _check_arc(d1, c1))
    cut2 = _cut(_codes(d2.word, d2.framing), _check_arc(d2, c2))
    return from_key(_joined("framed", cut1, cut2))


def connected_sum_linear(g1, g2) -> FramedLinearDiagram:
    """Concatenate two framed linear diagrams along the orientation."""
    _expect(FramedLinearDiagram, g1, g2)
    return from_key(_key_sum(g1.key(), g2.key()))


def connected_sum_dlinear(h1, h2) -> DoubleLinearDiagram:
    """Line-wise concatenation: first line to first line, second to second."""
    _expect(DoubleLinearDiagram, h1, h2)
    return from_key(_key_sum(h1.key(), h2.key()))


class SumWitness(_Record):
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


def _witness(k1, k2, outcomes):
    """The witness of the pair ``(k1, k2)`` from its ``(cuts, sum key,
    weight)`` outcomes in cut order, or None when one weight is seen."""
    values = sorted({w for _, _, w in outcomes})
    if len(values) < 2:
        return None
    cuts_a, sum_a, w_a = outcomes[0]
    cuts_b, sum_b, w_b = next(o for o in outcomes if o[2] != w_a)
    return SumWitness(
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


def search_counterexample(max_chords: int):
    """All diagram pairs (total chords <= ``max_chords``) whose connected
    sums disagree under the weight of the parity expansion.

    Exhausts canonical diagram pairs and every cut-arc pair, in a fixed
    deterministic order; for each pair exhibiting more than one weight it
    records the first cut pair and the first cut pair that differs from it.
    Returns an empty tuple when no witness exists at this size.  Any witness
    certifies that the two sums differ in the double-diagram quotient, over
    Z and Q, since the weight vanishes on every 4T relation;
    :func:`chordcalc.algebra.quotient_equal` answers a witness by that same
    weight, before any lattice.  The test suite also reduces every witness
    at four chords by the integer span alone, which splits each of them too.

    Two symmetries of the sum spare most of the gluing, and leave the output
    what the loop over every ordered pair and every cut pair returned.  The
    free loop is a two-sided identity, so a pair containing it has one sum
    at every cut and is never a witness: only operands with a chord are
    glued.  And ``d2 #(a2, a1) d1`` is the circle of ``d1 #(a1, a2) d2``
    read from another point, so both orders have one key: each unordered
    pair is glued once, into a grid read by rows for one order and by
    columns, cuts swapped, for the other.  Witnesses are tagged with
    (total, chords of the first operand, the operands' enumeration indices)
    and sorted on that tag, which is the order of the ordered loop.
    """
    _check_size("max_chords", max_chords)
    tagged = []
    weights = _Memo(lambda key: weight(psi_module(ModuleElement.single(key))))
    for total in range(2, max_chords + 1):
        for n1 in range(1, total // 2 + 1):
            n2 = total - n1
            keys2 = enumerate_diagrams("framed", n2)
            for i1, k1 in enumerate(enumerate_diagrams("framed", n1)):
                (codes1,) = _key_words(k1)
                cuts1 = [_cut(codes1, a1) for a1 in range(2 * n1)]
                for i2 in range(i1 if n1 == n2 else 0, len(keys2)):
                    k2 = keys2[i2]
                    (codes2,) = _key_words(k2)
                    cuts2 = [_cut(codes2, a2) for a2 in range(2 * n2)]
                    grid = []  # grid[a1][a2]: (key, weight) of d1 #(a1, a2) d2
                    for cut1 in cuts1:
                        row = []
                        for cut2 in cuts2:
                            key = _joined("framed", cut1, cut2)
                            row.append((key, weights[key]))
                        grid.append(row)
                    by_rows = [
                        ((a1, a2), *grid[a1][a2]) for a1 in range(2 * n1) for a2 in range(2 * n2)
                    ]
                    found = _witness(k1, k2, by_rows)
                    if found:
                        tagged.append(((total, n1, i1, i2), found))
                    if n1 == n2 and i1 == i2:
                        continue
                    by_columns = [
                        ((a2, a1), *grid[a1][a2]) for a2 in range(2 * n2) for a1 in range(2 * n1)
                    ]
                    found = _witness(k2, k1, by_columns)
                    if found:
                        tagged.append(((total, n2, i2, i1), found))
    tagged.sort(key=lambda item: item[0])
    return tuple(found for _, found in tagged)


def witness_quotient_split(witness: SumWitness) -> bool:
    """True when the two sums' parity expansions differ in the quotient.

    The exact decision of :func:`chordcalc.algebra.quotient_equal`.  A
    witness's sums differ in weight, which vanishes on every 4T relation,
    so it answers True from the weight alone, with no lattice built; the
    test suite reduces every witness at four chords by the integer span
    without the weight as well.
    """
    lhs = psi_module(ModuleElement.single(witness.sum_a))
    rhs = psi_module(ModuleElement.single(witness.sum_b))
    return not quotient_equal(lhs, rhs)
