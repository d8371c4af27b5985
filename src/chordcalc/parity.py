"""Parity maps: expand a framed diagram into the 2^n ways of distributing
its chords over two circles (or two lines).

Each framing-0 chord keeps both endpoints together on one side; each
framing-1 chord is split across the two sides.  The second circle (or line)
is read with its orientation reversed.  Summing all 2^n distributions gives
a map that descends to the quotient modules -- the test suite verifies this
by exact span membership.
"""

from __future__ import annotations

from .algebra import ModuleElement, _element
from .diagrams import (
    FramedChordDiagram,
    FramedLinearDiagram,
    InvalidArgumentError,
    _CANONICALIZERS,
    _CLASSES,
    _expect,
)

#: The image kind of the parity map of each framed kind: two circles or two
#: lines.
_PARITY = {"framed": "double", "linear": "dlinear"}


def _split_summands(word, framing):
    """Yield ``(mask, word1, word2)`` for each of the 2^n choices of the
    side of every chord's first endpoint; ``word2`` is already reversed.

    Bit ``n - 1 - i`` of ``mask`` is the side of the first endpoint of the
    ``i``-th chord in order of first appearance, so the masks run in the
    order of ``itertools.product((0, 1), repeat=n)``.  An endpoint lies on
    side 0 when its chord's bit is clear, except the second endpoint of a
    framing-1 chord, which lies on side 0 when the bit is set.
    """
    labels = tuple(dict.fromkeys(word))
    n = len(labels)
    bits = {lab: 1 << (n - 1 - i) for i, lab in enumerate(labels)}
    # each endpoint: its label, its chord's bit, and the value ``mask & bit``
    # takes when the endpoint lies on side 0
    ends, seen = [], set()
    for lab in word:
        bit = bits[lab]
        ends.append((lab, bit, bit if lab in seen and framing[lab] else 0))
        seen.add(lab)
    back = ends[::-1]
    for mask in range(1 << n):
        yield (
            mask,
            tuple([lab for lab, bit, side0 in ends if mask & bit == side0]),
            tuple([lab for lab, bit, side0 in back if mask & bit != side0]),
        )


def _summands(kind, d):
    image = _CLASSES[_PARITY[kind]]
    labels = tuple(dict.fromkeys(d.word))
    for mask, w1, w2 in _split_summands(d.word, d.framing):
        sides = {}
        for i, lab in enumerate(labels):
            s = mask >> (len(labels) - 1 - i) & 1
            sides[lab] = (s, s ^ d.framing[lab])
        yield sides, image(w1, w2)


def _expansion(kind, terms):
    """The parity image of ``(canonical key, coefficient)`` terms of a framed
    or linear kind.  Every summand is canonicalized directly, without
    building a diagram object, and its coefficient is added into one dict
    for the whole call."""
    image_kind = _PARITY[kind]
    canon = _CANONICALIZERS[image_kind]
    image = {}
    for key, coeff in terms:
        word = tuple([num for num, _fr in key.payload])
        for _mask, w1, w2 in _split_summands(word, dict(key.payload)):
            summand = canon(w1, w2)
            image[summand] = image.get(summand, 0) + coeff
    return _element(image_kind, {key: c for key, c in image.items() if c})


def _psi(kind, d):
    _expect(_CLASSES[kind], d)
    # split the key's numbered word, not the labels as written, so that
    # every relabelling of a diagram reaches the cache as the same words
    return _expansion(kind, [(d.key(), 1)])


def _image_kind(kind):
    """The kind the parity map sends ``kind`` to; ``InvalidArgumentError``
    for a kind it does not expand."""
    if kind not in _PARITY:
        raise InvalidArgumentError(f"the parity map expands framed or linear elements, got {kind}")
    return _PARITY[kind]


def parity_module(u: ModuleElement) -> ModuleElement:
    """Linear extension of the parity map to a framed or linear element:
    :func:`psi_module` or :func:`psi_l_module`, chosen by the element's kind.
    """
    _image_kind(u.kind)
    return _expansion(u.kind, u._terms.items())


def psi_summands(d: FramedChordDiagram):
    """The 2^n raw splittings of a framed chord diagram, as a generator.

    It yields ``(sides, DoubleChordDiagram)`` pairs, where ``sides`` maps each
    chord label to the (first occurrence, second occurrence) side pair, side
    0 being the first circle.  Framing-1 chords always land on two different
    circles, framing-0 chords on one.  The second circle's word is reversed:
    its orientation flips.
    """
    _expect(FramedChordDiagram, d)
    return _summands("framed", d)


def psi(d: FramedChordDiagram) -> ModuleElement:
    """The parity expansion of one framed chord diagram.

    The free loop maps to the chordless double diagram with coefficient 1
    (the empty product has one factor).
    """
    return _psi("framed", d)


def psi_module(u: ModuleElement) -> ModuleElement:
    """Linear extension of :func:`psi` to framed module elements."""
    if u.kind != "framed":
        raise InvalidArgumentError(f"psi_module expects a framed element, got {u.kind}")
    return parity_module(u)


def psi_l_summands(g: FramedLinearDiagram):
    """The 2^n raw splittings of a framed linear diagram over two lines.

    Line 1 keeps the original order of its endpoints; line 2 is read
    reversed, mirroring the circle case.
    """
    _expect(FramedLinearDiagram, g)
    return _summands("linear", g)


def psi_l(g: FramedLinearDiagram) -> ModuleElement:
    """The parity expansion of one framed linear diagram."""
    return _psi("linear", g)


def psi_l_module(u: ModuleElement) -> ModuleElement:
    """Linear extension of :func:`psi_l` to linear module elements."""
    if u.kind != "linear":
        raise InvalidArgumentError(f"psi_l_module expects a linear element, got {u.kind}")
    return parity_module(u)
