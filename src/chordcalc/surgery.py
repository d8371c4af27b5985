"""Surgery along chords: smoothing graphs, component counts, weight systems.

Surgery replaces every chord by a band and counts the boundary circles (and
lines) of the result.  Combinatorially: each endpoint ``p`` splits into an
``in`` node (the side the core arc enters from) and an ``out`` node (the side
it leaves by); core arcs glue ``out(p) ~ in(p')`` for consecutive endpoints,
and a smoothed chord with endpoints ``p, q`` glues ``in(p) ~ out(q)`` and
``in(q) ~ out(p)`` -- the orientation-coherent reconnection.  The component
count of the resulting pairing, plus one per chordless circle or line, is the
surgery invariant ``beta``.  Every count walks the pairing without building
it (``_walk_count``); ``smoothing_graph`` spells the pairing out, for
inspection.  ``docs/surgery-notes.md`` traces this rule back to the band
picture and records the hand-checked calibration values.

For framed single-circle diagrams the chord gluing depends on the framing:
framing 0 smooths coherently as above, framing 1 (the half-twisted band)
glues ``in(p) ~ in(q)`` and ``out(p) ~ out(q)``; ``beta_framed`` counts that
surface on its orientation double cover, where every band is coherent.
"""

from __future__ import annotations

from functools import lru_cache

from .algebra import KindMismatchError, ModuleElement
from .diagrams import FramedChordDiagram, _codes, _expect, _Record, _TwoWordDiagram


class SmoothingGraph(_Record):
    """The node-pairing structure produced by surgery.

    Endpoint ``e`` (counted across word 1 then word 2) contributes nodes
    ``2e`` (in) and ``2e + 1`` (out).  ``gluings`` lists the arc and chord
    pairings; ``free_loops`` counts chordless circles and chordless lines,
    each a component of its own; ``free_ends`` are the unpaired nodes at line
    extremities (empty for circle kinds).
    """

    node_count: int
    gluings: tuple
    free_loops: int
    free_ends: tuple


def smoothing_graph(d) -> SmoothingGraph:
    """The surgery pairing of a double chord or double linear diagram.

    All chords smooth with the orientation-coherent rule; circle arcs close
    up cyclically while line arcs leave the two extremities as free ends.
    The arc gluings come first, then each chord's two, in label order.
    """
    if not isinstance(d, _TwoWordDiagram):
        raise TypeError(f"expected a double or dlinear diagram, got {type(d).__name__}")
    cyclic = d.kind == "double"
    gluings, free_ends, positions, offset = [], [], {}, 0
    for word in (d.word1, d.word2):
        m = len(word)
        # out(p) ~ in(p + 1), with in(e) = 2e and out(e) = 2e + 1
        arcs = range(m if cyclic else m - 1)
        gluings += [(2 * (offset + p) + 1, 2 * (offset + (p + 1) % m)) for p in arcs]
        if m and not cyclic:
            free_ends += [2 * offset, 2 * (offset + m) - 1]  # in(first), out(last)
        for e, lab in enumerate(word, offset):
            positions.setdefault(lab, []).append(e)
        offset += m
    for lab in sorted(positions, key=str):
        p, q = positions[lab]
        gluings += [(2 * p, 2 * q + 1), (2 * q, 2 * p + 1)]  # in(p) ~ out(q), in(q) ~ out(p)
    free_loops = (not d.word1) + (not d.word2)
    return SmoothingGraph(2 * offset, tuple(gluings), free_loops, tuple(free_ends))


def _walk_count(words, cyclic):
    """Surgery component count of chords on two circles (or two lines), all
    smoothed coherently, by walking the pairing instead of building it.

    From ``out(p)`` the arc leads to ``in(next(p))`` and that node's chord
    gluing to ``out(partner(next(p)))``, so the walk steps from endpoint
    ``p`` to ``partner(next(p))``: on each word, the partners rotated by
    one.  On circles every node lies in one arc and one chord gluing, so the
    components are the cycles of that step.  A nonempty line adds one
    chain, which enters at its free end ``in(first)``, reaches
    ``out(partner(first))`` by the chord and stops at the line's last
    endpoint, which has no next one; the chains are walked before the
    cycles.  Chordless circles and lines count one each.

    The words are trusted to be a diagram, every label occurring exactly
    twice across them: the words of a checked diagram, or of a key, whose
    payload was checked when the key was built.
    """
    partner, spans = [], []
    first = {}  # label -> its first endpoint
    for word in words:
        offset = len(partner)
        if word:
            spans.append((offset, len(word)))
        for e, lab in enumerate(word, offset):
            q = first.setdefault(lab, e)
            if q == e:
                partner.append(None)
            else:
                partner[q] = e
                partner.append(q)
    # step[p] = partner(next(p)); -1 marks a line's last endpoint, and the
    # walk marks every endpoint it passes with -1 too
    step = []
    for offset, m in spans:
        step += partner[offset + 1 : offset + m]
        step.append(partner[offset] if cyclic else -1)
    count = len(words) - len(spans)
    heads = [] if cyclic else [partner[offset] for offset, _m in spans]
    count += len(heads)
    for p in heads:
        while p >= 0:
            step[p], p = -1, step[p]
    for p, q in enumerate(step):
        if q >= 0:
            count += 1
            while p >= 0:
                step[p], p = -1, step[p]
    return count


def beta(d) -> int:
    """Number of connected components after surgery on all chords.

    Non-compact components of a double linear diagram count once each, like
    any other component; chordless circles and lines contribute one apiece.
    The count is that of the classes of ``smoothing_graph(d).gluings`` plus
    its ``free_loops``, walked without building the graph.
    """
    if not isinstance(d, _TwoWordDiagram):
        raise TypeError(f"expected a double or dlinear diagram, got {type(d).__name__}")
    return _walk_count((d.word1, d.word2), d.kind == "double")


def beta_framed(d: FramedChordDiagram) -> int:
    """Surgery component count of a framed chord diagram.

    Half the count of ``_walk_count`` on the orientation double cover of
    the band surface (``docs/surgery-notes.md`` §1): the circle as the codes
    ``c = 2k + f`` of ``diagrams._codes``, spelled ``2c`` at a chord's first
    endpoint and ``2c + f`` at its second, then a reversed copy with every
    label XOR 1.

    A supporting diagnostic (it calibrates the framed relation family); the
    parity map never consumes it.
    """
    _expect(FramedChordDiagram, d)
    first = {}  # code -> its first endpoint
    codes = _codes(d.word, d.framing)
    top = [2 * c + (c & 1) * (first.setdefault(c, p) != p) for p, c in enumerate(codes)]
    return _walk_count((top, [lab ^ 1 for lab in reversed(top)]), True) // 2


@lru_cache(maxsize=None)
def _beta_of_key(key):
    """``beta`` of the diagram a double or dlinear key stands for, walked on
    the key's two words of chord numbers, which were checked when the key
    was built."""
    return _walk_count(key.payload, key.kind == "double")


def weight(u: ModuleElement) -> int:
    """The surgery weight system: sum of coefficient times beta over terms.

    Defined for the double and dlinear kinds; vanishes on every 4T generator
    because beta is constant on 2T pairs, hence descends to the quotient
    modules.
    """
    if not isinstance(u, ModuleElement):
        raise TypeError("weight takes a ModuleElement")
    if u.kind not in ("double", "dlinear"):
        raise KindMismatchError(f"weight is defined for double/dlinear, got {u.kind}")
    return sum(coeff * _beta_of_key(key) for key, coeff in u._terms.items())
