"""Core diagram types, canonical forms, enumeration, and the coproduct.

Four kinds of diagram share one vocabulary:

* ``framed``  -- chords on one oriented circle, every chord framed 0 or 1;
* ``double``  -- unframed chords spread over two oriented circles;
* ``linear``  -- framed chords on one oriented line;
* ``dlinear`` -- unframed chords spread over two oriented, *ordered* lines.

A diagram is stored as one or two words of chord labels in which every label
occurs exactly twice across the whole diagram.  Isomorphism is rotation of
circle words (plus exchanging the two circles for ``double``) followed by
relabelling; lines are never rotated, and the two lines of a ``dlinear``
diagram keep their order.  :class:`CanonicalKey` realises these equivalences:
two diagrams are isomorphic iff their keys compare equal.

Labels are arbitrary hashable values; canonicalization erases them.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, total_ordering

KINDS = ("framed", "double", "linear", "dlinear")


class InvalidDiagramError(ValueError):
    """A word is not a double-occurrence word, or framing data is malformed."""


class InvalidArgumentError(ValueError):
    """An argument outside what the operation takes: a negative size, an arc
    index out of range, or a diagram kind it is not defined on."""


class _Record:
    """A read-only record of the fields its subclass annotates, in order,
    built by position or keyword, every field given, and checked by
    ``__post_init__``.  It prints, compares and hashes as its fields, equals
    only records of its class, and pickles as its fields, rebuilt through
    the check.  Unlike a dataclass it imports nothing."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = cls.__match_args__ = tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args, **kwargs):
        names = self._fields
        given = dict(zip(names, args))
        values = {**given, **kwargs}
        if len(args) > len(names) or given.keys() & kwargs or values.keys() != set(names):
            raise TypeError(f"{type(self).__name__} takes each of {', '.join(names)} once")
        for name in names:
            object.__setattr__(self, name, values[name])
        self.__post_init__()

    def __post_init__(self):
        """Check the fields; a record with no condition on them takes any."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"


@total_ordering
class CanonicalKey(_Record):
    """Canonical form of a diagram; equal keys mean isomorphic diagrams.

    ``payload`` is the lexicographically minimal relabelled encoding: a tuple
    of ``(chord, framing)`` tokens for the one-word kinds, or a pair of
    chord-number tuples for the two-word kinds.  Chords are numbered 1, 2, ...
    by first occurrence in the minimising scan.  Keys are totally ordered, so
    sorted containers of keys are deterministic.

    A key built by hand is checked once, when it is built, and every function
    that takes a key trusts it.  An unknown kind raises
    ``InvalidArgumentError``; a payload not of its kind's shape, with a chord
    that does not occur twice or a framing other than the int 0 or 1 raises
    ``InvalidDiagramError``, checked in that order; then a chord that is not
    a positive ``int`` raises ``ValueError``.  A key need not be canonical.
    The library's own keys are valid by construction and skip the check
    (``_key``).

    A key is a frozen record of ``kind`` and ``payload``: it compares,
    orders and prints as the pair of fields, and equals no tuple.  Its hash
    is computed on first use and kept in a third slot, since keys are looked
    up in dicts and caches many times and tuples do not keep theirs.
    """

    __slots__ = ("kind", "payload", "_hash")
    kind: str
    payload: tuple

    def __post_init__(self):
        kind, payload = self.kind, self.payload
        if kind in ("framed", "linear"):
            if type(payload) is not tuple or not all(
                type(t) is tuple and len(t) == 2 for t in payload
            ):
                raise InvalidDiagramError(f"a {kind} key is a tuple of (chord, framing) pairs")
            if len(set(payload)) != len(dict(payload)):
                raise InvalidDiagramError(f"a {kind} key gives a chord two framings")
            words = ([num for num, _ in payload],)
        elif kind in ("double", "dlinear"):
            if type(payload) is not tuple or [type(w) for w in payload] != [tuple, tuple]:
                raise InvalidDiagramError(f"a {kind} key needs two words")
            words = payload
        else:
            raise InvalidArgumentError(f"unknown kind {kind!r}")
        _occurrence_counts(words)
        if len(words) == 1:
            for num, fr in payload:
                if type(fr) is not int or fr not in (0, 1):
                    message = f"framing of chord {num!r} must be 0 or 1, got {fr!r}"
                    raise InvalidDiagramError(message)
        for word in words:
            for num in word:
                if type(num) is not int or num < 1:
                    raise ValueError(f"labels are numbered from 1, got {num!r}")

    # the pair itself, not the record's field tuple: equal keys that are
    # distinct objects meet in every memo dict
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.kind, self.payload) == (other.kind, other.payload)
        return NotImplemented

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return (self.kind, self.payload) < (other.kind, other.payload)
        return NotImplemented

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash((self.kind, self.payload))
            object.__setattr__(self, "_hash", h)
            return h

    @property
    def n(self) -> int:
        """Chord count."""
        if self.kind in ("framed", "linear"):
            return len(self.payload) // 2
        return (len(self.payload[0]) + len(self.payload[1])) // 2


def _occurrence_counts(words):
    counts = {}
    for word in words:
        for lab in word:
            counts[lab] = counts.get(lab, 0) + 1
    bad = sorted(str(lab) for lab, c in counts.items() if c != 2)
    if bad:
        raise InvalidDiagramError(
            "every chord label must occur exactly twice; offending labels: "
            + ", ".join(bad)
        )
    return counts


def _key(kind, payload) -> CanonicalKey:
    """A key of the library's own making, whose payload is valid by
    construction: built without ``CanonicalKey``'s check."""
    key = object.__new__(CanonicalKey)
    object.__setattr__(key, "kind", kind)
    object.__setattr__(key, "payload", payload)
    return key


def _checked_framing(framing, labels):
    framing = dict(framing)
    missing = sorted(str(lab) for lab in labels if lab not in framing)
    if missing:
        raise InvalidDiagramError("missing framing for: " + ", ".join(missing))
    extra = sorted(str(lab) for lab in framing if lab not in labels)
    if extra:
        raise InvalidDiagramError("framing given for absent chords: " + ", ".join(extra))
    for lab, fr in framing.items():
        if fr not in (0, 1):
            raise InvalidDiagramError(f"framing of {lab!r} must be 0 or 1, got {fr!r}")
        framing[lab] = 1 if fr else 0  # True and 1.0 are stored as 1
    return framing


def _check_size(name, value):
    """``InvalidArgumentError`` unless ``value`` is an ``int`` (``bool``
    excluded) and nonnegative; ``name`` is the size's name in the message."""
    if type(value) is not int:
        raise InvalidArgumentError(f"{name} must be an int, got {value!r}")
    if value < 0:
        raise InvalidArgumentError(f"{name} must be nonnegative")


def _expect(cls, *diagrams):
    """``TypeError`` unless every one of ``diagrams`` is a ``cls``."""
    for d in diagrams:
        if not isinstance(d, cls):
            raise TypeError(f"expected {cls.__name__}, got {type(d).__name__}")


class _OneWordDiagram:
    """A double-occurrence word with a 0/1 framing per chord; its key is the
    one-word canonicalizer of its ``kind`` run on the word's codes."""

    def __init__(self, word, framing):
        self.word = tuple(word)
        counts = _occurrence_counts([self.word])
        self.framing = _checked_framing(framing, counts)
        self.n = len(self.word) // 2

    def key(self) -> CanonicalKey:
        return _CANONICALIZERS[self.kind](_codes(self.word, self.framing))

    def canonical(self):
        return from_key(self.key())

    def __repr__(self):
        return f"{type(self).__name__}({self.word!r}, {self.framing!r})"


class _TwoWordDiagram:
    """Two words of unframed chords, every label occurring twice across
    both; its key is the two-word canonicalizer of its ``kind``."""

    def __init__(self, word1, word2):
        self.word1 = tuple(word1)
        self.word2 = tuple(word2)
        _occurrence_counts([self.word1, self.word2])
        self.n = (len(self.word1) + len(self.word2)) // 2

    def key(self) -> CanonicalKey:
        return _CANONICALIZERS[self.kind](self.word1, self.word2)

    def canonical(self):
        return from_key(self.key())

    def __repr__(self):
        return f"{type(self).__name__}({self.word1!r}, {self.word2!r})"


class FramedChordDiagram(_OneWordDiagram):
    """Cyclic double-occurrence word with a 0/1 framing per chord.

    The free loop (no chords) is the legal degree-0 diagram: empty word,
    empty framing.
    """

    kind = "framed"


class DoubleChordDiagram(_TwoWordDiagram):
    """Chords distributed over two oriented circles; no framing data.

    Either circle may be empty; an empty circle is a free loop of the
    diagram.  The two circles are interchangeable: isomorphisms only have to
    preserve the circle orientations, not which circle is first, so the key
    minimizes over exchanging them as well as over rotations of both words.
    """

    kind = "double"


class FramedLinearDiagram(_OneWordDiagram):
    """Linear double-occurrence word with framings; word order is the line's
    orientation."""

    kind = "linear"


class DoubleLinearDiagram(_TwoWordDiagram):
    """Chords distributed over two oriented lines; the lines are an ordered
    pair and are never exchanged."""

    kind = "dlinear"


#: The public diagram class of each kind.
_CLASSES = {
    cls.kind: cls
    for cls in (FramedChordDiagram, DoubleChordDiagram, FramedLinearDiagram, DoubleLinearDiagram)
}


# ---------------------------------------------------------------------------
# canonicalization


def _codes(word, framing):
    """A framed word as the int word the one-word canonicalizers take: the
    ``k``-th label to appear (counted from 1, as ``_key_words`` numbers a
    key's chords) with framing ``f`` becomes the code ``2k + f``, so the
    lowest bit of a code is its chord's framing."""
    index = {}
    return tuple([2 * index.setdefault(lab, len(index) + 1) + framing[lab] for lab in word])


def _key_words(key):
    """The int words of a key: the code ``2 * number + framing`` of every
    token of a one-word key (as ``_codes`` encodes, the low bit is the
    framing), or the two number words of a two-word key."""
    if key.kind in ("framed", "linear"):
        return (tuple([2 * num + fr for num, fr in key.payload]),)
    return key.payload


class _Memo(dict):
    """``function`` of every argument looked up, each computed once."""

    def __init__(self, function):
        self.function = function

    def __missing__(self, arg):
        self[arg] = value = self.function(arg)
        return value


#: The ``(number, framing)`` token of every code ``2 * number + framing``
#: looked up, built once and shared by every key that holds it.
_TOKENS = _Memo(lambda code: (code >> 1, code & 1))


def _numbered(word, numbering):
    """``word`` with every label replaced by its number in ``numbering``;
    labels not numbered yet get the next numbers, in order of appearance."""
    out = []
    for lab in word:
        num = numbering.get(lab)
        if num is None:
            num = numbering[lab] = len(numbering) + 1
        out.append(num)
    return tuple(out)


def _numbered_codes(word, numbering):
    """``_numbered`` of a code word, each number carrying its code's framing
    bit again: ``2 * number + framing``."""
    return tuple([2 * v + (c & 1) for c, v in zip(word, _numbered(word, numbering))])


def _least_rotation(circles, starts, marked=False):
    """The least relabelled rotation among ``starts``, and the numbering of
    every one that attains it.

    Each circle is a ``(word, numbering)`` pair: a word of labels and a
    numbering of labels that each rotation of the word continues on a copy.
    ``starts`` lists the rotations to scan as ``(circle index, start)``
    pairs, in scan order; a rotation relabels to the tuple of its labels'
    numbers.  With ``marked`` (a framed word), every label is an int code
    ``2 * chord + framing`` (see ``_codes``) and relabels to ``2 * number +
    framing``, which orders as the ``(number, framing)`` token does.
    Returns the least relabelled rotation and, for every start attaining
    it in scan order, ``(circle index, start, its completed numbering)``.

    Each rotation is relabelled lazily against the best so far and dropped
    at its first larger label; a full relabelling is built only for a new
    best.  Labels are compared as plain numbers, never as tuples.
    """
    best = None
    for ci, r in starts:
        word, base = circles[ci]
        rot = word[r:] + word[:r]
        numbering = {**base}
        if best is not None:
            for lab, b in zip(rot, best):
                v = numbering.get(lab)
                if v is None:
                    v = numbering[lab] = len(numbering) + 1
                if marked:
                    v = 2 * v + (lab & 1)
                if v != b:
                    less = v < b
                    break
            else:
                less = len(rot) < len(best)
                if len(rot) == len(best):
                    ties.append((ci, r, numbering))
            if not less:
                continue
        # the numbering is complete up to where the scan broke off
        best = _numbered_codes(rot, numbering) if marked else _numbered(rot, numbering)
        ties = [(ci, r, numbering)]
    return best, ties


def _least_framed_rotation(word):
    """The least form of a framed code word (see ``_codes``), in the shape
    of ``_LEAST``: its least relabelled rotation as the one word, a
    numbering of its codes that attains it, and the start of the rotation
    numbered so, the first that attains it, as its placement.

    Only the rotations whose first two relabelled codes (the head) are least
    are scanned, and the one rotation of a word shorter than two codes.  A
    rotation starting at a chord framed ``f`` relabels to ``2 + f`` first,
    then to the same code again if the next code closes that chord, else to
    ``4 + f'`` for the next chord's framing ``f'``.  The gap argument of
    ``_least_circle_pair`` does not hold here: the framing bit of a new
    label can decide the order before the first label repeats.
    """
    starts = [(0, 0)]
    if len(word) >= 2:
        least0 = least1 = None
        for r, (a, c) in enumerate(zip(word, word[1:] + word[:1])):
            v0 = 2 + (a & 1)
            v1 = v0 if c == a else 4 + (c & 1)
            if least0 is None or v0 < least0 or (v0 == least0 and v1 < least1):
                least0, least1, starts = v0, v1, [(0, r)]
            elif v0 == least0 and v1 == least1:
                starts.append((0, r))
    best, ties = _least_rotation(((word, {}),), starts, marked=True)
    _, start, numbering = ties[0]
    return (best,), numbering, ((0, start),)


def _least_gap_starts(word):
    """The least first closing position over the rotations of a circle
    word, the starts of the rotations that attain it (in order), and the
    first position of every label in the word.

    A rotation's first closing position is where a label first repeats, or
    the word's length when none does.  It is at least the least forward gap
    from an endpoint to its partner on the circle, and equal to it exactly
    at the endpoints whose own gap is least.  A circle with no chord of its
    own never closes, so every rotation attains its length.
    """
    size = len(word)
    least, starts, first = size, None, {}
    for p, lab in enumerate(word):
        q = first.get(lab)
        if q is None:
            first[lab] = p
            continue
        # the chord q..p: forward gap d from q, size - d from p
        d = p - q
        g = d if 2 * d <= size else size - d
        if g < least:
            least, starts = g, []
        if g == least:
            if d == g:
                starts.append(q)
            if size - d == g:
                starts.append(p)
    if starts is None:
        return size, range(size or 1), first
    starts.sort()
    return least, starts, first


def _least_circle_pair(w1, w2):
    """The least form of two circle words, in the shape of ``_LEAST``: the
    least relabelled pair, a numbering of their labels that attains it,
    and where it puts each word.

    The pair is the least ``(t1, t2)``: rotations of the two words, in
    either circle order, numbered together by first occurrence.  The
    numbering is that of the first rotation pair attaining it in the order
    (first circle, its start, start on the other circle), the order in
    which the full rotation scan meets them; ``algebra._moves`` numbers the
    target chord of a slide by it.  The placement of that pair gives, for
    ``w1`` and then ``w2``, ``(i, start)``: the word is rotated to start at
    ``start`` and becomes ``t1`` for ``i = 0``, ``t2`` for ``i = 1``.
    """
    # Pairs compare by t1 first, and t1 depends on the first rotation alone,
    # so stage 1 takes the least t1 over the rotations of both words, and
    # stage 2 the least t2 over the other word's rotations, each continuing
    # the numbering of one stage-1 tie.
    #
    # Stage 1 numbers afresh: a rotation relabels to 1, 2, ..., j and then
    # repeats (or ends) at its first closing position j, so a smaller j is a
    # smaller t1, and only the starts of least j on either circle can be
    # least.  Stage 2 continues a numbering whose labels on the other circle
    # are chords to the first, each numbered below every new label, so each
    # tie has one least start: the endpoint whose chord has the least
    # number.  The numbering is in order of its numbers, so that is the
    # first of its labels found on the other circle.  A circle without such
    # a chord numbers afresh and keeps its own least-gap starts.
    words = (w1, w2)
    gaps = (_least_gap_starts(w1), _least_gap_starts(w2))
    least = min(gaps[0][0], gaps[1][0])
    starts = [(ci, r) for ci, (g, rs, _) in enumerate(gaps) if g == least for r in rs]
    best1, firsts = _least_rotation(((w1, {}), (w2, {})), starts)
    circles, starts = [], []
    for ti, (ci, _, numbering) in enumerate(firsts):
        _, own, first = gaps[1 - ci]
        circles.append((words[1 - ci], numbering))
        for lab in numbering:
            r = first.get(lab)
            if r is not None:
                starts.append((ti, r))
                break
        else:
            starts += [(ti, r) for r in own]
    best2, ties = _least_rotation(circles, starts)
    ti, r2, numbering = ties[0]
    ci, r1, _ = firsts[ti]
    placed = ((0, r1), (1, r2)) if ci == 0 else ((1, r2), (0, r1))
    return (best1, best2), numbering, placed


def _least_lines(*words):
    """The least form of line words: lines never rotate and keep their
    order, so it is the words numbered together, each placed as itself.
    One line is a word of ``_codes``, and keeps its framing bits."""
    numbering = {}
    number = _numbered_codes if len(words) == 1 else _numbered
    least = tuple([number(w, numbering) for w in words])
    return least, numbering, tuple([(i, 0) for i in range(len(words))])


#: The least form of each kind, behind its keys, its enumeration and the
#: punctured words of ``algebra._moves``.  It takes a word of ``_codes`` or
#: two label words, where a label may occur once (an endpoint removed), and
#: returns the least int words, a numbering of the labels that attains them
#: and, per word, ``(i, start)``: rotated to ``start`` it numbers to word i.
_LEAST = {
    "framed": _least_framed_rotation,
    "double": _least_circle_pair,
    "linear": _least_lines,
    "dlinear": _least_lines,
}


def _payload(kind, words):
    """The key payload of a diagram's words: its least words, as
    ``(number, framing)`` tokens for the one-word kinds."""
    least = _LEAST[kind](*words)[0]
    if kind in ("framed", "linear"):
        return tuple(map(_TOKENS.__getitem__, least[0]))
    return least


def _canonicalizer(kind):
    """The key of ``kind`` of a diagram's words, cached."""
    return lru_cache(maxsize=None)(lambda *words: _key(kind, _payload(kind, words)))


#: The canonicalizer of each kind: it takes the words ``_LEAST`` takes and
#: trusts them to be a valid diagram.  Each is bound at module level too, so
#: that the module's caches list each kind's size and hits.
_CANONICALIZERS = {kind: _canonicalizer(kind) for kind in KINDS}
_canon_framed, _canon_double, _canon_linear, _canon_dlinear = _CANONICALIZERS.values()


def spell_label(i: int) -> str:
    """1 -> 'A', 2 -> 'B', ..., 26 -> 'Z', 27 -> 'AA' (bijective base 26)."""
    if i < 1:
        raise ValueError("labels are numbered from 1")
    out = []
    while i > 0:
        i, r = divmod(i - 1, 26)
        out.append(chr(ord("A") + r))
    return "".join(reversed(out))


#: ``spell_label`` of every chord number looked up, each spelled once.
_SPELLED = _Memo(spell_label)


def _spelled_words(key):
    """The words of a key with its chord numbers spelled: ``(label,
    framing)`` tokens for a one-word key, labels for a two-word key.  The
    key was checked when it was built, so every chord spells."""
    if key.kind in ("framed", "linear"):
        return (tuple([(_SPELLED[num], fr) for num, fr in key.payload]),)
    return tuple([tuple([_SPELLED[num] for num in word]) for word in key.payload])


def from_key(key: CanonicalKey):
    """Rebuild a diagram (with spelled labels A, B, C, ...) from its key."""
    cls = _CLASSES[key.kind]
    words = _spelled_words(key)
    if issubclass(cls, _OneWordDiagram):
        return cls([label for label, _ in words[0]], dict(words[0]))
    return cls(*words)


# ---------------------------------------------------------------------------
# enumeration


def _matchings(items):
    """All perfect matchings of a list, as lists of pairs."""
    if not items:
        yield []
        return
    first = items[0]
    for i in range(1, len(items)):
        rest = items[1:i] + items[i + 1 :]
        for rest_matching in _matchings(rest):
            yield [(first, items[i])] + rest_matching


def _is_least_rotation(seq):
    """True when no rotation of ``seq`` is lexicographically smaller."""
    return all(seq <= seq[r:] + seq[:r] for r in range(1, len(seq)))


def _circle_gaps(partner, lo, hi):
    """The gap tuple of the circle on slots ``lo .. hi-1``: for each slot the
    forward distance along that circle to its partner slot, or 0 for a
    chord whose partner is on the other circle."""
    return tuple(
        (partner[p] - p) % (hi - lo) if lo <= partner[p] < hi else 0 for p in range(lo, hi)
    )


@lru_cache(maxsize=None, typed=True)
def enumerate_diagrams(kind: str, n: int):
    """All canonical keys of diagrams with exactly ``n`` chords, sorted.

    Every diagram is a perfect matching of 2n endpoint slots, times a
    framing of every chord (one-word kinds) or a split of the slots between
    the two words (two-word kinds).  Chords are numbered 1, 2, ... by their
    first slot.

    * ``linear``/``dlinear``: lines are never rotated and the two lines keep
      their order, so no two raw words are isomorphic and each numbered
      word is already its key; no canonicalizer runs.
    * ``framed``: a rotation of the circle rotates the gap tuple of the
      matching (slot ``p`` holds the forward distance to its partner), and
      the gap tuple determines the matching, so every rotation class holds
      exactly one matching whose gap tuple is its own least rotation.  Only
      those matchings are kept, and each of their 2^n framings is
      canonicalized and deduplicated.
    * ``double``: exchanging the circles maps split ``s`` to ``2n - s``, so
      only splits ``s <= n`` are taken; the circles rotate independently,
      so a word is kept only when each circle's own gap tuple (internal
      chords; 0 for a chord to the other circle) is its least rotation.

    ``_payload`` runs past the canonicalizers' caches, so the raw words
    fill none, and the one-word keys share their ``(number, framing)``
    tokens.  Cold, one process each, n = 6 takes 1.1-1.6 s for framed,
    0.7-0.9 s for double, 0.9-1.0 s for dlinear and 3.5-3.9 s for linear,
    whose 665,280 keys peak at 280 MB (three runs each, a shared 2-vCPU VM,
    Python 3.11.7); the shipped verification sweeps use n <= 4.

    An unknown kind, an ``n`` that is not an ``int`` (``2.0`` and ``True``
    included) and a negative ``n`` raise ``InvalidArgumentError``.  The
    cache is typed, so a call that refuses its degree refuses it whatever
    was cached before.
    """
    if kind not in KINDS:
        raise InvalidArgumentError(f"unknown kind {kind!r}")
    _check_size("chord count", n)
    size = 2 * n
    framings = list(itertools.product((0, 1), repeat=n))
    payloads = set()
    codes = []  # linear: each token (c, f) as the int 2c + f, which orders alike
    for matching in _matchings(list(range(size))):
        # each pair starts at the least slot left, so the pairs come in
        # order of first slot and ``ci`` numbers chords by first appearance
        word = [0] * size
        partner = [0] * size
        for ci, (p, q) in enumerate(matching, 1):
            word[p] = word[q] = ci
            partner[p], partner[q] = q, p
        if kind == "linear":
            codes += [tuple([2 * c + framing[c - 1] for c in word]) for framing in framings]
        elif kind == "dlinear":
            payloads.update((tuple(word[:s]), tuple(word[s:])) for s in range(size + 1))
        elif kind == "framed":
            if _is_least_rotation(_circle_gaps(partner, 0, size)):
                for framing in framings:
                    coded = tuple([2 * c + framing[c - 1] for c in word])
                    payloads.add(_payload(kind, (coded,)))
        else:
            for s in range(n + 1):
                if _is_least_rotation(_circle_gaps(partner, 0, s)) and _is_least_rotation(
                    _circle_gaps(partner, s, size)
                ):
                    payloads.add(_payload(kind, (tuple(word[:s]), tuple(word[s:]))))
    if kind == "linear":
        # flat int tuples sort several times faster than tuples of tokens
        payloads = [tuple(map(_TOKENS.__getitem__, code)) for code in sorted(codes)]
    else:
        payloads = sorted(payloads)  # keys of one kind order as their payloads
    return tuple([_key(kind, payload) for payload in payloads])


# ---------------------------------------------------------------------------
# closure, reversal, coproduct


def closure(g: FramedLinearDiagram) -> FramedChordDiagram:
    """Close the line of a framed linear diagram into a circle.

    The cyclic word equals the linear word; the result is returned in
    canonical form, which makes the operation independent of where the circle
    is later cut open again.
    """
    _expect(FramedLinearDiagram, g)
    return FramedChordDiagram(g.word, g.framing).canonical()


def coproduct(d: FramedChordDiagram) -> dict:
    """Split the chord set into ordered complementary subsets, all 2^n ways.

    Returns a dict mapping ``(left key, right key)`` to an integer
    coefficient; both components are canonicalized and equal pairs are
    aggregated, so coefficients may exceed 1 while the total mass stays 2^n.
    """
    _expect(FramedChordDiagram, d)
    chords = []
    for lab in d.word:
        if lab not in chords:
            chords.append(lab)
    result = {}
    for picks in itertools.product((True, False), repeat=len(chords)):
        left = {lab for lab, taken in zip(chords, picks) if taken}
        right = {lab for lab in chords if lab not in left}
        pair = (restrict(d, left).key(), restrict(d, right).key())
        result[pair] = result.get(pair, 0) + 1
    return result


def restrict(d: FramedChordDiagram, subset) -> FramedChordDiagram:
    """The sub-diagram on a subset of chords; other endpoints are deleted.
    A chord of ``subset`` that ``d`` lacks raises ``InvalidArgumentError``."""
    _expect(FramedChordDiagram, d)
    subset = set(subset)
    absent = sorted(str(lab) for lab in subset if lab not in d.framing)
    if absent:
        raise InvalidArgumentError("no such chords to restrict to: " + ", ".join(absent))
    word = tuple(lab for lab in d.word if lab in subset)
    framing = {lab: d.framing[lab] for lab in subset}
    return FramedChordDiagram(word, framing)
