"""Formal integer combinations of diagrams, 4T/2T relation generators, and
exact equality decisions in the quotient modules.

The relation families are pinned by three internal consistency requirements
that the test suite enforces: the surgery component count is constant on
every 2T pair, the weight system kills every 4T generator, and the parity
map sends framed 4T generators into the integer span of the double-diagram
4T generators.  Calibrating against all three fixes one convention:

* the four placements of the moving endpoint are taken just before / just
  after each endpoint of the target chord, in core orientation;
* for the unframed kinds, and for framed kinds when the target chord has
  framing 0, the generator is ``before-b1 - after-b1 + before-b2 - after-b2``
  and the 2T slides pair ``{before-b1, after-b2}`` and ``{after-b1, before-b2}``;
* for framed kinds when the target chord has framing 1, sliding across the
  half-twisted band lands on the *near* side of the other endpoint and flips
  the moving chord's framing, so the generator is
  ``before-b1 - after-b1 - before-b2* + after-b2*`` (``*`` = framing of the
  moving chord flipped) and the slides pair ``{before-b1, before-b2*}`` and
  ``{after-b1, after-b2*}``.

The framing-flip variant is forced: under the no-flip convention some framed
generators have nonzero image under the weight system after the parity map,
which makes span membership impossible.  ``docs/surgery-notes.md`` records
the calibration evidence.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod
from operator import mul

from .diagrams import (
    _CANONICALIZERS,
    _LEAST,
    KINDS,
    CanonicalKey,
    InvalidArgumentError,
    _check_size,
    _key_words,
    _Memo,
    _numbered,
    _Record,
    enumerate_diagrams,
)
from .intlinalg import _add_multiple, _reduce, _sparse_hnf

#: Largest degree at which quotient equality is decided by default.  Above
#: it the decision raises :class:`UndecidedError` instead of guessing.
DEGREE_CEILING = {"framed": 4, "double": 4, "linear": 4, "dlinear": 4}


class KindMismatchError(ValueError):
    """Operands live over different diagram kinds."""


class UndecidedError(RuntimeError):
    """The requested decision exceeds the configured degree ceiling."""


class ModuleElement:
    """A finite integer-linear combination of canonical diagrams of one kind.

    Zero coefficients are never stored; iteration order is sorted by key, so
    every derived output is deterministic.  The constructor checks each term,
    as unpickling does through it; arithmetic, parsing and the parity map
    build their results from the library's own keys unchecked (``_element``).
    """

    __slots__ = ("kind", "_terms")

    def __init__(self, kind, terms=()):
        if kind not in KINDS:
            raise InvalidArgumentError(f"unknown kind {kind!r}")
        accumulated = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for key, coeff in items:
            if not isinstance(key, CanonicalKey):
                raise TypeError("terms must be keyed by CanonicalKey")
            if key.kind != kind:
                raise KindMismatchError(f"{key.kind} key in a {kind} element")
            if not isinstance(coeff, int):
                raise TypeError(f"integer coefficients only, got {type(coeff).__name__}")
            if coeff:
                new = accumulated.get(key, 0) + coeff
                if new:
                    accumulated[key] = new
                else:
                    del accumulated[key]
        self.kind = kind
        self._terms = accumulated

    def __reduce__(self):
        return ModuleElement, (self.kind, self.items())

    @classmethod
    def zero(cls, kind) -> "ModuleElement":
        return cls(kind)

    @classmethod
    def single(cls, key, coeff=1) -> "ModuleElement":
        return cls(key.kind, [(key, coeff)])

    def items(self):
        # the keys of one element share a kind, so their payloads order them
        # as the keys do, compared as tuples without a call to a key method
        return tuple(sorted(self._terms.items(), key=lambda term: term[0].payload))

    def support(self):
        return tuple(sorted(self._terms, key=lambda key: key.payload))

    def coefficient(self, key) -> int:
        return self._terms.get(key, 0)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def __len__(self):
        return len(self._terms)

    def mass(self) -> int:
        """Total absolute coefficient mass."""
        return sum(abs(c) for c in self._terms.values())

    def degrees(self):
        """Sorted chord counts present among the terms."""
        return tuple(sorted({key.n for key in self._terms}))

    def homogeneous_part(self, n) -> "ModuleElement":
        return _element(self.kind, {k: c for k, c in self._terms.items() if k.n == n})

    def __add__(self, other):
        if not isinstance(other, ModuleElement):
            return NotImplemented
        if other.kind != self.kind:
            raise KindMismatchError(f"cannot add {self.kind} and {other.kind} elements")
        terms = dict(self._terms)
        _add_multiple(terms, 1, other._terms)
        return _element(self.kind, terms)

    def __neg__(self):
        return _element(self.kind, {k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, ModuleElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, scalar):
        if not isinstance(scalar, int):
            return NotImplemented
        return _element(self.kind, {k: scalar * c for k, c in self._terms.items() if scalar})

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, ModuleElement)
            and self.kind == other.kind
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.kind, self.items()))

    def __repr__(self):
        if not self._terms:
            return f"ModuleElement({self.kind!r}, 0)"
        body = " + ".join(f"{c}*[{k.payload}]" for k, c in self.items())
        return f"ModuleElement({self.kind!r}, {body})"


def _element(kind, terms):
    """An element of the library's own making, whose ``terms`` dict maps keys
    of ``kind`` to nonzero ints: built without ``ModuleElement``'s check."""
    element = object.__new__(ModuleElement)
    element.kind = kind
    element._terms = terms
    return element


# ---------------------------------------------------------------------------
# relation generators


class RelationGenerator(_Record):
    """One 4T relation together with where it came from.

    ``placements`` holds the four canonical diagrams built by parking the
    moving endpoint just before b1, just after b1, just before b2, just after
    b2 (in that order; for a framing-1 target the last two carry the flipped
    framing of the moving chord), ``signs`` the coefficients attached to them
    before aggregation, and ``slide_pairs`` the two 2T slides the generator
    decomposes into.  Chord numbers refer to the base key's canonical
    labelling.
    """

    element: ModuleElement
    base: CanonicalKey
    moving_chord: int
    occurrence: int
    target_chord: int
    placements: tuple
    signs: tuple
    slide_pairs: tuple


#: The signs of a slide's four placements and the index pairs of its two 2T
#: slides, by the slide's flip bit (see ``_moves``)
_SLIDES = (
    ((1, -1, 1, -1), ((0, 3), (1, 2))),
    ((1, -1, -1, 1), ((0, 2), (1, 3))),
)


def _slide_pairs(placements, flip):
    """The two 2T slides of a slide's placements, each pair in key order."""
    pairs = [(placements[i], placements[j]) for i, j in _SLIDES[flip][1]]
    return tuple([(p, q) if p.payload <= q.payload else (q, p) for p, q in pairs])


def _slot_counts(kind, payload):
    """For each word of a punctured payload, the number of distinct places
    the missing endpoint can go on it.

    A line of L labels has L + 1 places and a circle L (an empty one, 1).
    A circle all of whose chords stay on it can be rotated onto itself by
    an automorphism of the punctured diagram; the places a least such
    rotation ``d`` apart give isomorphic diagrams, so it has ``d`` places,
    counted from the start of its canonical rotation.  Only the circle
    without the lone endpoint of a double payload can be so, as in
    ``((1,), (2, 2, 3, 3))`` (``d = 2``); every other circle keeps its
    lone endpoint or a chord to the circle that does in place.
    """
    counts = []
    for w in payload:
        size = len(w)
        if kind in ("linear", "dlinear"):
            size += 1
        elif 2 * len(set(w)) == size > 0:
            relabelled = _numbered(w, {})
            size = next(d for d in range(1, size + 1) if _numbered(w[d:] + w[:d], {}) == relabelled)
        counts.append(size or 1)
    return counts


def _moves(kind, n):
    """Yield a ``(base, a, occ, b, placements, flip)`` slide datum of every
    degree-``n`` base key, moving endpoint and target chord, except the
    slides whose relation an earlier datum already derived.  ``flip`` is 1
    when ``b`` has framing 1, so that the last two placements flip the
    moving chord, else 0; ``_SLIDES`` gives the signs and 2T pairs by it.

    A 4T relation is fixed by the punctured diagram, the base with the moving
    endpoint removed, and by the target chord ``b`` (Bar-Natan, Topology 34,
    1995): an isomorphism of punctured diagrams that carries ``b`` to ``b'``
    carries the four placements of one slide to those of the other.  So a
    slide is skipped when the canonical punctured payload and the canonical
    number of ``b`` were seen before in this degree.  When ``flip`` is 1 the
    signs ``(1, -1, -1, 1)`` tell ``b``'s two endpoints apart, and a
    rotation may exchange which comes first, so there the offset of ``b``'s
    first endpoint from the start of the punctured word's canonical rotation
    is part of the datum too (on a line, a function of ``b``'s number).  The
    datum is tested before the slide's places are worked out (at framed
    n = 4, 851 of 5,616 tests pass).  A skipped slide repeats the signature
    and the 2T pairs of an earlier one, and the first slide of each relation
    is always yielded, so what the callers build is unchanged.

    No placement is canonicalized.  A placement is a punctured diagram with
    the partner of its lone endpoint put back, so its key is the base key
    that, punctured at some endpoint, gives the same canonical payload with
    that endpoint in the same place.  A first pass punctures every base at
    every endpoint and records the base in a slot table: per punctured
    payload, per word, at the endpoint's offset from the start of the
    word's canonical rotation (see ``_slot_counts``).  The second pass
    reads the two placements next to each of ``b``'s endpoints there.  A
    far-side slide across a framing-1 chord flips the framing bit of both
    codes of the moving chord, so it reads the table under the flipped
    punctured word's own payload and rotation.  A punctured word's payload,
    numbering and placement are its least form in ``diagrams._LEAST``, the
    one the keys are made of, taken once per distinct word in a memo that
    the call drops.
    """
    shift = int(kind in ("framed", "linear"))  # a one-word label is a code
    bases = enumerate_diagrams(kind, n)
    least = _LEAST[kind]
    punctured = _Memo(lambda words: least(*words))
    table = {}  # punctured payload -> its slot table: a list of bases per word
    for base in bases:
        words = _key_words(base)
        for wi, word in enumerate(words):
            for p in range(len(word)):
                stripped = words[:wi] + (word[:p] + word[p + 1 :],) + words[wi + 1 :]
                payload, _, placed = punctured[stripped]
                rows = table.get(payload)
                if rows is None:
                    rows = table[payload] = [[None] * c for c in _slot_counts(kind, payload)]
                i, start = placed[wi]
                row = rows[i]
                row[(p - start) % len(row)] = base
    seen = set()
    for base in bases:
        # a canonical key numbers its chords by first occurrence, so each label
        # is a chord number, or on one word its code 2 * number + framing
        words = _key_words(base)
        ends = {}  # label -> its two (word, position) endpoints, in order
        for wi, word in enumerate(words):
            for p, lab in enumerate(word):
                ends.setdefault(lab, []).append((wi, p))
        for a, a_ends in ends.items():
            for occ, (xwi, xp) in enumerate(a_ends):
                word = words[xwi]
                stripped = words[:xwi] + (word[:xp] + word[xp + 1 :],) + words[xwi + 1 :]
                payload, numbering, placed = punctured[stripped]
                near = (table[payload], placed)
                far = None  # the flipped punctured word's slot table and placement
                for b, b_ends in ends.items():
                    if b == a:
                        continue
                    flip = b & shift
                    datum = (payload, numbering[b])
                    if flip:
                        first = b_ends[0][1]
                        datum += ((first - (first > xp) - placed[0][1]) % len(stripped[0]),)
                    if datum in seen:
                        continue
                    seen.add(datum)
                    if flip and far is None:
                        flipped = (tuple([t ^ 1 if t == a else t for t in stripped[0]]),)
                        flipped_payload, _, flipped_placed = punctured[flipped]
                        far = (table[flipped_payload], flipped_placed)
                    placements = []
                    for (wi, p), (rows, placed_at) in zip(b_ends, (near, far if flip else near)):
                        if wi == xwi and p > xp:
                            p -= 1
                        i, start = placed_at[wi]
                        row = rows[i]
                        placements += (row[(p - start) % len(row)], row[(p + 1 - start) % len(row)])
                    yield base, a >> shift, occ, b >> shift, tuple(placements), flip


def generate_4T(kind, n, include_zero=True):
    """All 4T relation generators in degree ``n``, deduplicated up to
    canonical-form duplication of the whole generator.

    Every ordered choice of a base diagram, a moving endpoint of one chord,
    and a distinct target chord contributes one generator; degenerate
    configurations are kept.  The choices are the slide records of
    ``_moves``, taken in order of base key, and each generator records the
    first that derives it, with the signs and the 2T pairs that the
    record's flip bit picks from ``_SLIDES``.  A choice that derives the
    relation of an earlier one again is skipped before its placements are
    looked up (see ``_moves``; at framed n = 4, 851 of 5,616 choices are
    built), so the result is the same as without the skip.  No placement is
    canonicalized: each is read from a slot table that punctures every
    degree-``n`` key at every endpoint.  Generators whose four terms cancel
    to the zero element are included unless ``include_zero`` is false.
    ``n`` of 0 or 1 yields nothing (a relation needs two chords); an
    unknown kind, an ``n`` that is not an ``int`` or ``n < 0`` raises
    ``InvalidArgumentError``.

    Each call builds the generators afresh and keeps none of them.  The
    lattice behind ``quotient_equal`` does not read them: ``_integer_lattice``
    sums the signed placements of the same ``_moves`` slides into rows
    directly, with no generator, element or signature built.
    """
    generators = []
    seen = set()
    for base, a, occ, b, placements, flip in _moves(kind, n):
        signs = _SLIDES[flip][0]
        # every key here has the same kind, so payloads order them as keys do
        signature = tuple(sorted([(p.payload, s) for p, s in zip(placements, signs)]))
        if signature in seen:
            continue
        seen.add(signature)
        element = ModuleElement(kind, zip(placements, signs))
        if include_zero or not element.is_zero():
            generators.append(
                RelationGenerator(
                    element=element,
                    base=base,
                    moving_chord=a,
                    occurrence=occ,
                    target_chord=b,
                    placements=placements,
                    signs=signs,
                    slide_pairs=_slide_pairs(placements, flip),
                )
            )
    return tuple(generators)


def generate_2T_pairs(kind, n):
    """The 2T refinement for the unframed two-word kinds: unordered pairs of
    diagrams related by sliding one endpoint across a whole chord.

    Every 4T generator is the difference of the differences of its two
    pairs, so any function constant on these pairs kills all 4T generators.
    """
    if kind not in ("double", "dlinear"):
        raise InvalidArgumentError("2T pairs are generated for the double and dlinear kinds")
    pairs = set()
    for *_slide, placements, flip in _moves(kind, n):
        pairs.update(_slide_pairs(placements, flip))
    return tuple(sorted(pairs))


# ---------------------------------------------------------------------------
# quotient equality


@lru_cache(maxsize=None)
def _integer_lattice(kind, n):
    """The column of each degree-n key, and the HNF basis of the integer span
    of the degree-n 4T generators: a map from pivot column to sparse
    ``{column: coeff}`` row, in increasing pivot order.

    The rows come straight from the slide records of ``_moves``: each adds
    its four placements, signed by ``_SLIDES`` for its flip bit, into one
    row, drops the zero coefficients, and an empty row is skipped; it reads
    no 2T pair.  No ``RelationGenerator`` or ``ModuleElement`` is built.
    ``generate_4T`` only leaves out a slide whose four signed placements
    repeat an earlier one's, and that slide gives the same row, so the rows
    are those of the nonzero generators.  The HNF rows are the generator
    rows times a unimodular matrix, so they span the same Q-space as the
    generators too: one basis serves both the Z and the Q membership
    question.
    """
    index = {key: i for i, key in enumerate(enumerate_diagrams(kind, n))}
    # each row is sorted by column, so that equal rows deduplicate
    rows = set()
    for *_slide, placements, flip in _moves(kind, n):
        row = {}
        for key, sign in zip(placements, _SLIDES[flip][0]):
            column = index[key]
            row[column] = row.get(column, 0) + sign
        row = tuple(sorted([(c, x) for c, x in row.items() if x]))
        if row:
            rows.add(row)
    return index, _sparse_hnf(dict(row) for row in sorted(rows))


def quotient_equal(u: ModuleElement, v: ModuleElement, rational=False, max_degree=None) -> bool:
    """Exact equality of ``u`` and ``v`` in the quotient by the 4T relations.

    Decided degree by degree: the relations are homogeneous, so ``u - v``
    must lie in the span of the degree-n generators for each chord count n it
    touches.  Membership is over the integers by default (the modules are
    Z-modules); ``rational=True`` asks the Z question of the difference times
    the product of the HNF pivots, which answers for the Q-span: a coarser
    diagnostic, different on torsion (dlinear 5).  One pass over u's terms,
    then v's, sums ``u - v`` into a dict per chord count, and the nonzero
    parts are answered in ascending chord count, each before the next: above
    the ceiling, :class:`UndecidedError` rather than ever a wrong boolean;
    with a key that is not canonical, ``InvalidArgumentError`` naming the
    first in u-then-v term order; outside the span, False.  A ``max_degree``
    other than ``None`` that is not an ``int`` (``bool`` excluded) or is
    negative raises ``InvalidArgumentError``.

    A double or dlinear part meets the surgery weight before any lattice:
    the ceiling check, then the weight ``sum(coeff * beta)``, then the span.
    The weight vanishes on every 4T generator, so on their integer span and,
    being linear, on their rational span too: a part of nonzero weight lies
    in neither, and is False over Z and Q with no enumeration, relation or
    Hermite basis built.  Its keys are still checked first, each against
    what its kind's cached canonicalizer makes of its words, which is the
    set of keys the lattice indexes.  Only a part of weight 0 goes on to
    the lattice, as framed and linear parts always do.
    """
    if not isinstance(u, ModuleElement) or not isinstance(v, ModuleElement):
        raise TypeError("quotient_equal compares ModuleElements")
    if max_degree is not None:
        _check_size("max_degree", max_degree)
    if u.kind != v.kind:
        raise KindMismatchError(f"cannot compare {u.kind} and {v.kind} elements")
    parts = {}  # chord count -> {key: coeff} of u - v
    for key, coeff in u._terms.items():
        parts.setdefault(key.n, {})[key] = coeff
    for key, coeff in v._terms.items():
        part = parts.setdefault(key.n, {})
        new = part.get(key, 0) - coeff
        if new:
            part[key] = new
        else:
            del part[key]
    ceiling = DEGREE_CEILING[u.kind] if max_degree is None else max_degree
    weighed = u.kind in ("double", "dlinear")
    for n, part in sorted([(n, part) for n, part in parts.items() if part]):
        if n > ceiling:
            raise UndecidedError(
                f"undecided: degree {n} exceeds the ceiling {ceiling} for kind {u.kind}"
            )
        if weighed and sum(map(mul, part.values(), map(_beta_of_key, part))):
            canonical = _CANONICALIZERS[u.kind]
            for key in part:
                if canonical(*key.payload).payload != key.payload:
                    raise InvalidArgumentError(
                        f"not a canonical {u.kind} key of degree {n}: {key!r}"
                    )
            return False
        index, basis = _integer_lattice(u.kind, n)
        scale = prod(row[c] for c, row in basis.items()) if rational else 1
        try:
            vec = {index[key]: scale * coeff for key, coeff in part.items()}
        except KeyError as exc:
            raise InvalidArgumentError(
                f"not a canonical {u.kind} key of degree {n}: {exc.args[0]!r}"
            ) from None
        if _reduce(vec, basis):
            return False
    return True


# surgery imports this module, so the weight is bound once it is complete
from .surgery import _beta_of_key  # noqa: E402
