"""Parity maps: expand a framed diagram into the 2^n ways of distributing
its chords over two circles (or two lines).

Each framing-0 chord keeps both endpoints together on one side; each
framing-1 chord is split across the two sides.  The second circle (or line)
is read with its orientation reversed.  Summing all 2^n distributions gives
a map that descends to the quotient modules -- the test suite verifies this
by exact span membership.
"""

from __future__ import annotations

import itertools

from .algebra import ModuleElement
from .diagrams import (
    DoubleChordDiagram,
    DoubleLinearDiagram,
    FramedChordDiagram,
    FramedLinearDiagram,
    from_key,
    reverse_word,
)

#: The parity map of each framed kind: the diagram class it expands, the
#: image kind and the image diagram class (two circles or two lines).
_PARITY = {
    "framed": (FramedChordDiagram, "double", DoubleChordDiagram),
    "linear": (FramedLinearDiagram, "dlinear", DoubleLinearDiagram),
}


def _split_summands(word, framing, make):
    labels = []
    for lab in word:
        if lab not in labels:
            labels.append(lab)
    for bits in itertools.product((0, 1), repeat=len(labels)):
        first_side = dict(zip(labels, bits))
        seen_once = set()
        sides = {}
        side1, side2 = [], []
        for lab in word:
            if framing[lab] == 0:
                side = first_side[lab]
            elif lab not in seen_once:
                side = first_side[lab]
            else:
                side = 1 - first_side[lab]
            if lab in seen_once:
                sides[lab] = (sides[lab], side)
            else:
                seen_once.add(lab)
                sides[lab] = side
            (side1 if side == 0 else side2).append(lab)
        yield sides, make(tuple(side1), reverse_word(side2))


def _summands(kind, d):
    source, _image_kind, image = _PARITY[kind]
    if not isinstance(d, source):
        raise TypeError(f"expected {source.__name__}, got {type(d).__name__}")
    yield from _split_summands(d.word, d.framing, image)


def _expansion(kind, d):
    terms = {}
    for _sides, summand in _summands(kind, d):
        key = summand.key()
        terms[key] = terms.get(key, 0) + 1
    return ModuleElement(_PARITY[kind][1], terms)


def parity_module(u: ModuleElement) -> ModuleElement:
    """Linear extension of the parity map to a framed or linear element:
    :func:`psi_module` or :func:`psi_l_module`, chosen by the element's kind.
    """
    if u.kind not in _PARITY:
        raise ValueError(f"the parity map expands framed or linear elements, got {u.kind}")
    result = ModuleElement.zero(_PARITY[u.kind][1])
    for key, coeff in u.items():
        result = result + coeff * _expansion(u.kind, from_key(key))
    return result


def psi_summands(d: FramedChordDiagram):
    """Yield the 2^n raw splittings of a framed chord diagram.

    Yields ``(sides, DoubleChordDiagram)`` pairs where ``sides`` maps each
    chord label to the (first occurrence, second occurrence) side pair, side
    0 being the first circle.  Framing-1 chords always land on two different
    circles, framing-0 chords on one.  The second circle's word is reversed:
    its orientation flips.
    """
    yield from _summands("framed", d)


def psi(d: FramedChordDiagram) -> ModuleElement:
    """The parity expansion of one framed chord diagram.

    The free loop maps to the chordless double diagram with coefficient 1
    (the empty product has one factor).
    """
    return _expansion("framed", d)


def psi_module(u: ModuleElement) -> ModuleElement:
    """Linear extension of :func:`psi` to framed module elements."""
    if u.kind != "framed":
        raise ValueError(f"psi_module expects a framed element, got {u.kind}")
    return parity_module(u)


def psi_l_summands(g: FramedLinearDiagram):
    """The 2^n raw splittings of a framed linear diagram over two lines.

    Line 1 keeps the original order of its endpoints; line 2 is read
    reversed, mirroring the circle case.
    """
    yield from _summands("linear", g)


def psi_l(g: FramedLinearDiagram) -> ModuleElement:
    """The parity expansion of one framed linear diagram."""
    return _expansion("linear", g)


def psi_l_module(u: ModuleElement) -> ModuleElement:
    """Linear extension of :func:`psi_l` to linear module elements."""
    if u.kind != "linear":
        raise ValueError(f"psi_l_module expects a linear element, got {u.kind}")
    return parity_module(u)
