"""Canonical forms, enumeration, closure, and the coproduct.

The isomorphism checks use their own little orbit oracle (explicit rotation /
swap / relabel sets) so the canonical keys are validated against something
independent of the implementation.
"""

import functools
import itertools
import pickle
import random
import sys

import pytest

from chordcalc.algebra import ModuleElement
from chordcalc.cli import format_diagram
from chordcalc.diagrams import (
    CanonicalKey,
    DoubleChordDiagram,
    DoubleLinearDiagram,
    FramedChordDiagram,
    FramedLinearDiagram,
    InvalidArgumentError,
    InvalidDiagramError,
    KINDS,
    _CANONICALIZERS,
    _LEAST,
    _canon_double,
    _canon_framed,
    _codes,
    _key_words,
    _least_circle_pair,
    _matchings,
    _numbered_codes,
    _SPELLED,
    closure,
    coproduct,
    enumerate_diagrams,
    from_key,
    restrict,
    spell_label,
)
from chordcalc.parity import _split_summands
from chordcalc.surgery import weight
from head_scan_pair import head_scan_pair


def fcd(word, framing):
    return FramedChordDiagram(tuple(word.split()), framing)


def key_of(word, framing):
    return fcd(word, framing).key()


# --- oracle: first-occurrence relabelling and explicit orbits ---------------


def relabel(tokens):
    seen = {}
    out = []
    for lab, fr in tokens:
        out.append((seen.setdefault(lab, len(seen)), fr))
    return tuple(out)


def framed_orbit(tokens):
    tokens = tuple(tokens)
    if not tokens:
        return {()}
    return {relabel(tokens[r:] + tokens[:r]) for r in range(len(tokens))}


def relabel_pair(w1, w2):
    seen = {}
    return (
        tuple(seen.setdefault(lab, len(seen)) for lab in w1),
        tuple(seen.setdefault(lab, len(seen)) for lab in w2),
    )


def double_orbit(w1, w2):
    def rotations(w):
        return [w[r:] + w[:r] for r in range(len(w))] if w else [()]

    orbit = set()
    for a, b in ((tuple(w1), tuple(w2)), (tuple(w2), tuple(w1))):
        for ra in rotations(a):
            for rb in rotations(b):
                orbit.add(relabel_pair(ra, rb))
    return orbit


# --- framed canonicalization -------------------------------------------------


def test_rotation_invariance_interleaved():
    assert key_of("A B A B", {"A": 0, "B": 0}) == key_of("B A B A", {"A": 0, "B": 0})


def test_rotation_and_relabel():
    assert key_of("A A B B", {"A": 0, "B": 1}) == key_of("B B A A", {"B": 0, "A": 1})


def test_interleaved_and_nested_are_distinct_orbits():
    interleaved = (("A", 1), ("B", 0), ("A", 1), ("B", 0))
    nested = (("A", 1), ("B", 0), ("B", 0), ("A", 1))
    assert framed_orbit(interleaved).isdisjoint(framed_orbit(nested))
    assert key_of("A B A B", {"A": 1, "B": 0}) != key_of("A B B A", {"A": 1, "B": 0})


def test_free_loop_key():
    assert fcd("", {}).key() == CanonicalKey("framed", ())


def test_keys_agree_exactly_on_orbits_framed():
    # isomorphism-completeness at n <= 3: equal keys <=> equal oracle orbits
    for n in range(4):
        raws = []
        positions = list(range(2 * n))
        for perm in set(itertools.permutations([i // 2 for i in positions])):
            for framings in itertools.product((0, 1), repeat=n):
                word = [str(c) for c in perm]
                if all(word.count(lab) == 2 for lab in word):
                    tokens = tuple((lab, framings[int(lab)]) for lab in word)
                    raws.append(tokens)
        for tokens in raws:
            d = FramedChordDiagram(
                [lab for lab, _ in tokens], {lab: fr for lab, fr in tokens}
            )
            # the canonical key is constant on the orbit and identifies it
            orbit = framed_orbit(tokens)
            for other in raws[:40]:
                same_orbit = relabel(other) in orbit
                d2 = FramedChordDiagram(
                    [lab for lab, _ in other], {lab: fr for lab, fr in other}
                )
                assert (d.key() == d2.key()) == same_orbit


# --- double canonicalization -------------------------------------------------


def test_circle_swap():
    assert DoubleChordDiagram(("A", "A"), ()).key() == DoubleChordDiagram((), ("A", "A")).key()


def test_double_rotation_relabel():
    assert (
        DoubleChordDiagram(("A", "B"), ("A", "B")).key()
        == DoubleChordDiagram(("B", "A"), ("A", "B")).key()
    )


def test_chordless_double_unique():
    assert DoubleChordDiagram((), ()).key() == CanonicalKey("double", ((), ()))


def test_double_keys_match_orbits():
    for n in range(3):
        seen = []
        for split in range(2 * n + 1):
            for perm in set(itertools.permutations([i // 2 for i in range(2 * n)])):
                word = [str(c) for c in perm]
                if not all(word.count(lab) == 2 for lab in set(word)):
                    continue
                seen.append((tuple(word[:split]), tuple(word[split:])))
        for w1, w2 in seen[:60]:
            orbit = double_orbit(w1, w2)
            k = DoubleChordDiagram(w1, w2).key()
            for v1, v2 in seen[:60]:
                same = relabel_pair(v1, v2) in orbit
                assert (DoubleChordDiagram(v1, v2).key() == k) == same


def all_pairs_double_payload(w1, w2):
    """The least relabelled pair over both circle orders and every pair of
    rotations, chords numbered from 1: the definition of the double key."""

    def rotations(w):
        return [w[r:] + w[:r] for r in range(len(w))] if w else [()]

    def number_pair(a, b):
        seen = {}
        return (
            tuple(seen.setdefault(lab, len(seen) + 1) for lab in a),
            tuple(seen.setdefault(lab, len(seen) + 1) for lab in b),
        )

    return min(
        number_pair(ra, rb)
        for a, b in ((tuple(w1), tuple(w2)), (tuple(w2), tuple(w1)))
        for ra in rotations(a)
        for rb in rotations(b)
    )


def scrambled(w1, w2, rng):
    """A random relabelling, rotation of each circle and circle order."""
    labels = sorted(set(w1) | set(w2))
    names = rng.sample(range(100, 100 + 3 * len(labels) + 1), len(labels))
    rename = dict(zip(labels, (f"c{x}" for x in names)))
    words = []
    for w in (w1, w2):
        r = rng.randrange(len(w)) if w else 0
        words.append(tuple(rename[lab] for lab in w[r:] + w[:r]))
    if rng.random() < 0.5:
        words.reverse()
    return words


TIE_HEAVY_DOUBLES = [
    ("1 2 1 2", "3 4 3 4"),
    ("A B", "A B"),
    ("A B C A B C", "D E F D E F"),
    ("A B C D", "A B C D"),
    ("A B C D", "D C B A"),
    ("A A B B", "C C D D"),
    ("A B A B C D C D", ""),
    ("", "A B C A B C"),
    ("A A", ""),
    ("", ""),
    ("A B", "B A"),
    ("A B C", "C A B"),
]


def test_double_key_matches_all_pairs_oracle():
    rng = random.Random(1980)
    cases = [(tuple(a.split()), tuple(b.split())) for a, b in TIE_HEAVY_DOUBLES]
    for n in range(6):
        cases += [key.payload for key in enumerate_diagrams("double", n)]
    for w1, w2 in cases:
        expected = all_pairs_double_payload(w1, w2)
        for _ in range(3):
            v1, v2 = scrambled(w1, w2, rng)
            assert DoubleChordDiagram(v1, v2).key().payload == expected


# --- pruned rotation scan against the brute-force scan -------------------------


def brute_rotations(seq):
    seq = tuple(seq)
    if len(seq) <= 1:
        return (seq,)
    return tuple(seq[r:] + seq[:r] for r in range(len(seq)))


def brute_numbered(word, numbering):
    return tuple(numbering.setdefault(lab, len(numbering) + 1) for lab in word)


def brute_framed_payload(tokens):
    """Every rotation relabelled in full, then the least one."""
    if not tokens:
        return ()
    return min(
        tuple(zip(brute_numbered([lab for lab, _ in r], {}), [fr for _, fr in r]))
        for r in brute_rotations(tokens)
    )


def brute_double_payload(w1, w2):
    """The least first circle over every rotation of both words, then the
    least second circle over every rotation of the other word, continuing
    the numbering of each rotation that ties for the first."""
    best1, ties = None, []
    for a, b in ((w1, w2), (w2, w1)):
        for ra in brute_rotations(a):
            numbering = {}
            t1 = brute_numbered(ra, numbering)
            if best1 is None or t1 < best1:
                best1, ties = t1, [(numbering, b)]
            elif t1 == best1:
                ties.append((numbering, b))
    best2 = min(
        brute_numbered(rb, dict(numbering))
        for numbering, b in ties
        for rb in brute_rotations(b)
    )
    return (best1, best2)


def random_words(rng, count, max_chords):
    for _ in range(count):
        n = rng.randint(0, max_chords)
        word = [f"c{c}" for c in range(n) for _ in (0, 1)]
        rng.shuffle(word)
        yield n, tuple(word)


def symmetric_words(max_chords):
    """Words with many equal relabelled rotations: a block of m chords read
    twice (``1 2 1 2``, ``1 2 3 1 2 3``), m isolated chords (``1 1 2 2 3
    3``), and two blocks side by side or interleaved."""
    for m in range(1, max_chords + 1):
        block = tuple(f"c{c}" for c in range(m))
        yield block + block
        yield tuple(lab for lab in block for _ in (0, 1))
        if 2 * m <= max_chords:
            other = tuple(f"d{c}" for c in range(m))
            yield block + block + other + other
            yield block + other + block + other


def test_framed_pruned_scan_matches_the_brute_force_scan():
    cases = []
    for n in range(6):
        for key in enumerate_diagrams("framed", n):
            cases += brute_rotations(key.payload)
    rng = random.Random(1980)
    for n, word in random_words(rng, 1500, 9):
        framing = {lab: rng.randint(0, 1) for lab in word}
        cases.append(tuple((lab, framing[lab]) for lab in word))
    for word in symmetric_words(6):
        labels = sorted(set(word))
        for framing in ({lab: 0 for lab in labels}, {lab: 1 for lab in labels}):
            for rotated in brute_rotations(word):
                cases.append(tuple((lab, framing[lab]) for lab in rotated))
        alternating = {lab: i % 2 for i, lab in enumerate(labels)}
        cases.append(tuple((lab, alternating[lab]) for lab in word))
    for tokens in cases:
        key = _canon_framed.__wrapped__(_codes([lab for lab, _ in tokens], dict(tokens)))
        assert key == CanonicalKey("framed", brute_framed_payload(tokens)), tokens


@pytest.mark.parametrize("kind", KINDS)
def test_a_punctured_key_numbers_to_its_least_form_where_placed(kind):
    # algebra._moves reads its slot table at offsets from the placement of
    # each punctured word: rotated to its start and renumbered by the
    # returned numbering, it must be the least word its placement names
    coded = kind in ("framed", "linear")
    least = _LEAST[kind]
    for n in range(5):
        for key in enumerate_diagrams(kind, n):
            words = _key_words(key)
            assert least(*words)[0] == words, key
            for wi, word in enumerate(words):
                for p in range(len(word)):
                    stripped = words[:wi] + (word[:p] + word[p + 1 :],) + words[wi + 1 :]
                    best, numbering, placed = least(*stripped)
                    rotated = [None] * len(best)
                    for w, (i, start) in zip(stripped, placed, strict=True):
                        assert start == 0 or kind in ("framed", "double"), placed
                        rotated[i] = tuple(
                            2 * numbering[c] + (c & 1) if coded else numbering[c]
                            for c in w[start:] + w[:start]
                        )
                    assert tuple(rotated) == best, (stripped, placed)
                    if kind == "framed":
                        # no other start: the one lone code has to stay in place
                        (w,) = stripped
                        starts = [
                            r
                            for r in range(len(w))
                            if _numbered_codes(w[r:] + w[:r], {}) == best[0]
                        ]
                        assert starts == [placed[0][1]], (w, starts)


def test_double_pruned_scan_matches_the_brute_force_scan():
    cases = []
    for n in range(6):
        for key in enumerate_diagrams("double", n):
            w1, w2 = key.payload
            cases += [(r1, r2) for r1 in brute_rotations(w1) for r2 in brute_rotations(w2)]
    cases += [(w2, w1) for w1, w2 in cases]
    rng = random.Random(1980)
    for n, word in random_words(rng, 1500, 9):
        split = rng.randint(0, 2 * n)
        cases.append((word[:split], word[split:]))
    for word in symmetric_words(6):
        renamed = tuple("e" + lab for lab in word)
        for rotated in brute_rotations(word):
            cases += [(rotated, ()), ((), rotated), (rotated, renamed), (renamed, rotated)]
        half = len(word) // 2
        cases += [(word[:half], word[half:]), (word[half:], word[:half])]
    cases += [(tuple(a.split()), tuple(b.split())) for a, b in TIE_HEAVY_DOUBLES]
    for w1, w2 in cases:
        key = _canon_double.__wrapped__(w1, w2)
        assert key == CanonicalKey("double", brute_double_payload(w1, w2)), (w1, w2)


def double_words(n):
    """Every word of ``n`` chords labelled 0 .. n-1 (each label twice, in
    every arrangement) split into two circle words at every position."""
    for word in sorted(set(itertools.permutations([i // 2 for i in range(2 * n)]))):
        for s in range(2 * n + 1):
            yield word[:s], word[s:]


def punctured(w1, w2):
    """``(w1, w2)`` with one endpoint removed, every way."""
    for i in range(len(w1)):
        yield w1[:i] + w1[i + 1 :], w2
    for i in range(len(w2)):
        yield w1, w2[:i] + w2[i + 1 :]


def psi_summands(count, seed):
    """The two-circle words of the parity summands of ``count`` random framed
    words of 5-7 chords."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(5, 7)
        word = [c for c in range(n) for _ in (0, 1)]
        rng.shuffle(word)
        framing = {c: rng.randint(0, 1) for c in range(n)}
        for _mask, w1, w2 in _split_summands(tuple(word), framing):
            yield w1, w2


@pytest.mark.parametrize(
    "cases",
    [
        lambda: (v for n in range(4) for w in double_words(n) for v in (w, *punctured(*w))),
        lambda: double_words(4),
        lambda: psi_summands(200, 1980),
    ],
    ids=("up-to-3-chords-and-punctured", "4-chords", "psi-summands-5-to-7-chords"),
)
def test_least_gap_starts_match_the_head_scan(cases):
    # algebra._moves numbers a slide's target chord by the returned
    # numbering, so it must be the head scan's too, not only the key; and
    # it reads its slot table by the placement, so the words rotated and
    # ordered as placed must number to the key under that numbering
    for w1, w2 in cases():
        pair, numbering, placed = _least_circle_pair(w1, w2)
        assert (pair, numbering) == head_scan_pair(w1, w2), (w1, w2)
        rotated = [None, None]
        for w, (i, start) in zip((w1, w2), placed):
            assert 0 <= start < max(len(w), 1)
            rotated[i] = tuple(numbering[lab] for lab in w[start:] + w[:start])
        assert tuple(rotated) == pair, (w1, w2, placed)


# --- linear canonicalization -------------------------------------------------


def test_linear_relabel_order():
    g = FramedLinearDiagram(("A", "B", "B", "A"), {"A": 0, "B": 1})
    assert g.key().payload == ((1, 0), (2, 1), (2, 1), (1, 0))


def test_linear_label_independence():
    a = FramedLinearDiagram(("Z", "Y", "Y", "Z"), {"Z": 0, "Y": 1})
    b = FramedLinearDiagram(("A", "B", "B", "A"), {"A": 0, "B": 1})
    assert a.key() == b.key()


def test_dlinear_lines_are_ordered():
    left = DoubleLinearDiagram(("A", "A", "B", "B"), ())
    right = DoubleLinearDiagram((), ("A", "A", "B", "B"))
    assert left.key() != right.key()


def test_linear_no_rotation():
    # on a line these words are genuinely different diagrams
    a = FramedLinearDiagram(("A", "B", "A", "B"), {"A": 1, "B": 1})
    b = FramedLinearDiagram(("A", "B", "B", "A"), {"A": 1, "B": 1})
    assert a.key() != b.key()


# --- validation ---------------------------------------------------------------


def test_bad_occurrence_count():
    with pytest.raises(InvalidDiagramError):
        FramedChordDiagram(("A", "A", "A", "B"), {"A": 0, "B": 0})


def test_missing_framing():
    with pytest.raises(InvalidDiagramError):
        FramedChordDiagram(("A", "A"), {})


def test_bad_framing_value():
    with pytest.raises(InvalidDiagramError):
        FramedChordDiagram(("A", "A"), {"A": 2})


def test_framing_is_stored_as_an_int():
    # True and 1.0 pass the 0-or-1 check; the diagram and its key hold 1
    for cls in (FramedChordDiagram, FramedLinearDiagram):
        for one in (True, 1.0):
            d = cls(("A", "B", "A", "B"), {"A": one, "B": 0})
            assert [type(fr) for fr in d.framing.values()] == [int, int]
            expected = cls(("A", "B", "A", "B"), {"A": 1, "B": 0})
            assert format_diagram(d) == format_diagram(expected)
            assert [type(fr) for _num, fr in d.key().payload] == [int] * 4


def test_double_occurrences_span_both_circles():
    with pytest.raises(InvalidDiagramError):
        DoubleChordDiagram(("A",), ())


# --- enumeration ---------------------------------------------------------------


def naive_framed_count(n):
    """Independent oracle: canonicalize every double-occurrence word of
    length 2n under every framing, count distinct keys."""
    keys = set()
    letters = [chr(ord("a") + i) for i in range(n)]
    for perm in set(itertools.permutations(letters * 2)):
        for framings in itertools.product((0, 1), repeat=n):
            framing = dict(zip(letters, framings))
            keys.add(FramedChordDiagram(perm, framing).key())
    return len(keys)


def test_enumerate_degree_zero_and_one():
    assert len(enumerate_diagrams("framed", 0)) == 1
    assert len(enumerate_diagrams("framed", 1)) == 2


def test_enumerate_framed_two_chords_against_oracle():
    assert naive_framed_count(2) == 6
    assert len(enumerate_diagrams("framed", 2)) == 6


def test_enumerate_counts_frozen():
    # frozen from the naive oracle (framed n=3 cross-checked by
    # naive_framed_count(3) == 28, a few seconds, spot-run during development)
    assert [len(enumerate_diagrams("framed", n)) for n in range(4)] == [1, 2, 6, 28]
    assert [len(enumerate_diagrams("double", n)) for n in range(4)] == [1, 2, 5, 15]
    assert [len(enumerate_diagrams("linear", n)) for n in range(4)] == [1, 2, 12, 120]
    assert [len(enumerate_diagrams("dlinear", n)) for n in range(4)] == [1, 3, 15, 105]


def test_enumerate_sorted_and_unique():
    for kind in ("framed", "double", "linear", "dlinear"):
        keys = enumerate_diagrams(kind, 2)
        assert list(keys) == sorted(set(keys))


def test_enumerate_contains_every_raw_word():
    for n in range(4):
        universe = set(enumerate_diagrams("framed", n))
        letters = [str(i) for i in range(n)]
        for perm in set(itertools.permutations(letters * 2)):
            framing = {lab: int(lab) % 2 for lab in letters}
            assert FramedChordDiagram(perm, framing).key() in universe


def brute_force_enumeration(kind, n):
    """Every canonical key of degree ``n``: each raw word (a matching of the
    2n endpoint slots, times every framing or every split of the slots
    between the two words) canonicalized and deduplicated."""
    positions = list(range(2 * n))
    keys = set()
    canon = _CANONICALIZERS[kind]
    if kind in ("framed", "linear"):
        for matching in _matchings(positions):
            chord_of = {}
            for ci, (p, q) in enumerate(matching):
                chord_of[p] = chord_of[q] = ci
            for framings in itertools.product((0, 1), repeat=n):
                codes = tuple(2 * chord_of[p] + framings[chord_of[p]] for p in positions)
                keys.add(canon(codes))
    else:
        for split in range(2 * n + 1):
            for matching in _matchings(positions):
                chord_of = {}
                for ci, (p, q) in enumerate(matching):
                    chord_of[p] = chord_of[q] = ci
                w1 = tuple(chord_of[p] for p in positions[:split])
                w2 = tuple(chord_of[p] for p in positions[split:])
                keys.add(canon(w1, w2))
    return tuple(sorted(keys))


@pytest.mark.parametrize("kind", ["framed", "double", "linear", "dlinear"])
def test_enumeration_matches_the_brute_force(kind):
    for n in range(6):
        assert enumerate_diagrams(kind, n) == brute_force_enumeration(kind, n)


def test_enumeration_counts_at_degree_six():
    # the uncached function, so that the 665,280 linear keys are freed again
    counts = {kind: len(enumerate_diagrams.__wrapped__(kind, 6)) for kind in KINDS}
    assert counts == {"framed": 55876, "double": 3672, "linear": 665280, "dlinear": 135135}


def test_enumeration_leaves_the_canonical_caches_alone():
    # hits count too: a word some earlier test put in a cache adds no entry
    for kind in KINDS:
        for n in range(5):
            before = [canon.cache_info() for canon in _CANONICALIZERS.values()]
            enumerate_diagrams.__wrapped__(kind, n)
            assert [canon.cache_info() for canon in _CANONICALIZERS.values()] == before


def test_from_key_round_trip():
    for kind in ("framed", "double", "linear", "dlinear"):
        for n in range(4):
            for key in enumerate_diagrams(kind, n):
                assert from_key(key).key() == key


def test_a_canonical_code_word_is_its_key_word():
    # _codes numbers chords from 1, as keys do, so the labels of a key's
    # diagram code to the key's own word
    for kind in ("framed", "linear"):
        for n in range(5):
            for key in enumerate_diagrams(kind, n):
                d = from_key(key)
                assert _codes(d.word, d.framing) == _key_words(key)[0]


def test_spell_label():
    assert [spell_label(i) for i in (1, 2, 26, 27, 28, 52, 53)] == [
        "A", "B", "Z", "AA", "AB", "AZ", "BA",
    ]


def test_spelling_table_matches_spell_label():
    assert [_SPELLED[i] for i in range(60, 0, -1)] == [spell_label(i) for i in range(60, 0, -1)]
    with pytest.raises(ValueError):
        _SPELLED[0]
    assert 0 not in _SPELLED
    # keys that are not canonical are spelled as before
    assert format_diagram(CanonicalKey("framed", ((30, 0), (30, 0)))) == "cd: AD0 AD0"


@pytest.mark.parametrize(
    "payload, cls, text",
    [
        (((5, 1), (5, 1)), FramedChordDiagram, "FramedChordDiagram(('E', 'E'), {'E': 1})"),
        (((5,), (5,)), DoubleChordDiagram, "DoubleChordDiagram(('E',), ('E',))"),
        (((5, 0), (5, 0)), FramedLinearDiagram, "FramedLinearDiagram(('E', 'E'), {'E': 0})"),
        (((5,), (5,)), DoubleLinearDiagram, "DoubleLinearDiagram(('E',), ('E',))"),
    ],
    ids=KINDS,
)
def test_from_key_builds_the_class_of_its_kind(payload, cls, text):
    # keys that are not canonical are spelled as before, into the public
    # class of their kind, which names itself in its repr
    rebuilt = from_key(CanonicalKey(cls.kind, payload))
    assert type(rebuilt) is cls
    assert repr(rebuilt) == text


@pytest.mark.parametrize(
    "kind, payload, message",
    [
        ("framed", ((1, 0), (1, 1)), "a framed key gives a chord two framings"),
        ("linear", ((1, 1), (2, 0), (1, 0), (2, 0)), "a linear key gives a chord two framings"),
        ("dlinear", ((1,), (1,), (2, 2)), "a dlinear key needs two words"),
        ("double", ((1, 1),), "a double key needs two words"),
    ],
    ids=("framed", "linear", "dlinear", "double"),
)
def test_a_malformed_key_is_neither_rebuilt_nor_spelled(kind, payload, message):
    # each of these once came back as a diagram, or a text, of part of the
    # key; now the key itself is refused
    for build in (from_key, format_diagram):
        with pytest.raises(InvalidDiagramError) as raised:
            build(CanonicalKey(kind, payload))
        assert str(raised.value) == message


# --- the key type -------------------------------------------------------------


def test_keys_built_apart_are_equal_and_hash_equal():
    built = CanonicalKey("double", ((1, 2), (1, 2)))
    again = CanonicalKey("double", (tuple([1, 2]), tuple([1, 2])))
    canonical = DoubleChordDiagram(("A", "B"), ("B", "A")).key()
    for key in (again, canonical):
        assert key is not built
        assert key == built and not key != built
        assert hash(key) == hash(built)
        assert {built: 1}[key] == 1


_COUNTS = "every chord label must occur exactly twice; offending labels: "
_PAIRS = "key is a tuple of (chord, framing) pairs"
_FRAMING = "framing of chord {} must be 0 or 1, got {}"
_LABEL = "labels are numbered from 1, got "


@pytest.mark.parametrize(
    "kind, payload, error, message",
    [
        ("foo", (), InvalidArgumentError, "unknown kind 'foo'"),
        ("framed", ((1,), (1,)), InvalidDiagramError, "a framed " + _PAIRS),
        ("linear", [(1, 0), (1, 0)], InvalidDiagramError, "a linear " + _PAIRS),
        ("framed", ((1, 0), (1, 1)), InvalidDiagramError, "a framed key gives a chord two framings"),
        ("double", ((1, 1),), InvalidDiagramError, "a double key needs two words"),
        ("dlinear", ([1, 1], ()), InvalidDiagramError, "a dlinear key needs two words"),
        ("framed", ((1, 0),), InvalidDiagramError, _COUNTS + "1"),
        ("double", ((1,), (2,)), InvalidDiagramError, _COUNTS + "1, 2"),
        ("dlinear", ((1, 1, 1), (2, 2)), InvalidDiagramError, _COUNTS + "1"),
        ("framed", ((1, True), (1, True)), InvalidDiagramError, _FRAMING.format(1, True)),
        ("linear", ((1, 2), (1, 2)), InvalidDiagramError, _FRAMING.format(1, 2)),
        ("linear", ((1.0, 0), (1.0, 0)), ValueError, _LABEL + "1.0"),
        ("framed", ((1, 0), (True, 0)), ValueError, _LABEL + "True"),
        ("double", ((True, True), ()), ValueError, _LABEL + "True"),
        ("dlinear", ((0,), (0,)), ValueError, _LABEL + "0"),
        ("double", ((2, 2), ("A", "A", -1, -1)), ValueError, _LABEL + "'A'"),
        # the counts are checked first, then the framings, then the labels
        ("double", ((1,), ("A", "A")), InvalidDiagramError, _COUNTS + "1"),
        ("framed", ((1, 0), (1, 0), (2, 1)), InvalidDiagramError, _COUNTS + "2"),
        ("linear", ((0, 5), (0, 5)), InvalidDiagramError, _FRAMING.format(0, 5)),
    ],
)
def test_a_hand_built_key_is_checked_when_it_is_built(kind, payload, error, message):
    # whatever ran before: weight has cached the key ((1, 1), ()), which
    # equals ((True, True), ())
    assert weight(ModuleElement.single(CanonicalKey("double", ((1, 1), ())))) == 3
    with pytest.raises(ValueError) as raised:
        CanonicalKey(kind, payload)
    # both error classes subclass ValueError, so the class must match
    assert type(raised.value) is error
    assert str(raised.value) == message


def test_a_tampered_pickle_is_refused():
    # the second chord number of a pickled ((1, 1), ()) changed to 2
    key = CanonicalKey("double", ((1, 1), ()))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        data = pickle.dumps(key, protocol)
        if protocol == 0:
            old, new = b"I1\nI1\n", b"I1\nI2\n"
        else:
            old, new = b"K\x01K\x01", b"K\x01K\x02"
        assert data.count(old) == 1
        with pytest.raises(InvalidDiagramError) as raised:
            pickle.loads(data.replace(old, new))
        assert str(raised.value) == _COUNTS + "1, 2"


def test_a_key_equals_no_tuple():
    key = CanonicalKey("double", ((1, 1), ()))
    pair = ("double", ((1, 1), ()))
    assert key != pair and pair != key
    assert {pair: 1}.get(key) is None
    with pytest.raises(TypeError):
        key < pair


def test_keys_of_mixed_kinds_sort_as_their_kind_and_payload():
    keys = [key for kind in KINDS for n in range(4) for key in enumerate_diagrams(kind, n)]
    random.Random(1980).shuffle(keys)
    assert sorted(keys) == sorted(keys, key=lambda k: (k.kind, k.payload))
    a, b = enumerate_diagrams("framed", 2)[:2]
    assert (a < b, a <= b, a > b, a >= b, a <= a, a >= a) == (True, True, False, False, True, True)


def test_key_repr():
    assert repr(CanonicalKey("double", ((1, 1), ()))) == (
        "CanonicalKey(kind='double', payload=((1, 1), ()))"
    )
    assert repr(CanonicalKey("framed", ((1, 0), (1, 0)))) == (
        "CanonicalKey(kind='framed', payload=((1, 0), (1, 0)))"
    )


def test_a_key_cannot_be_changed():
    key = CanonicalKey("double", ((1, 1), ()))
    before = hash(key)
    for name in ("kind", "payload", "other"):
        with pytest.raises(AttributeError):
            setattr(key, name, None)
        with pytest.raises(AttributeError):
            delattr(key, name)
    assert (key.kind, key.payload, hash(key)) == ("double", ((1, 1), ()), before)


def test_a_key_pickles_and_caches():
    key = CanonicalKey("double", ((1, 2), (1, 2)))
    hash(key)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(key, protocol))
        assert type(back) is CanonicalKey
        assert back == key and hash(back) == hash(key) and repr(back) == repr(key)

    @functools.lru_cache(maxsize=None)
    def chords(k):
        return k.n

    assert chords(key) == chords(CanonicalKey("double", ((1, 2), (1, 2)))) == 2
    assert chords.cache_info().hits == 1


def test_a_key_holds_three_slots_and_no_dict():
    # every cached key costs its three slots (kind, payload, the kept hash)
    # and nothing more: 56 bytes on 64-bit CPython 3.11
    class ThreeSlots:
        __slots__ = ("a", "b", "c")

    for key in (CanonicalKey("double", ((1, 1), ())), enumerate_diagrams("framed", 2)[0]):
        hash(key)
        assert not hasattr(key, "__dict__")
        assert sys.getsizeof(key) == sys.getsizeof(ThreeSlots())


# --- closure and reversal ------------------------------------------------------


def test_closure_one_chord():
    g = FramedLinearDiagram(("A", "A"), {"A": 0})
    assert closure(g).key() == key_of("A A", {"A": 0})


def test_closure_interleaved():
    g = FramedLinearDiagram(("A", "B", "A", "B"), {"A": 1, "B": 1})
    assert closure(g).key() == key_of("A B A B", {"A": 1, "B": 1})


def test_closure_well_defined_across_cut():
    a = FramedLinearDiagram(("A", "B", "B", "A"), {"A": 0, "B": 0})
    b = FramedLinearDiagram(("B", "A", "A", "B"), {"A": 0, "B": 0})
    assert closure(a).key() == closure(b).key()


def test_closure_surjective():
    # every framed diagram with n <= 3 chords arises by cutting at some arc
    for n in range(4):
        for key in enumerate_diagrams("framed", n):
            d = from_key(key)
            hits = set()
            for cut in range(max(2 * n, 1)):
                word = d.word[cut:] + d.word[:cut]
                hits.add(closure(FramedLinearDiagram(word, d.framing)).key())
            assert key in hits


# --- coproduct ------------------------------------------------------------------


def test_coproduct_free_loop():
    loop = fcd("", {})
    assert coproduct(loop) == {(loop.key(), loop.key()): 1}


def test_coproduct_one_chord():
    d = fcd("A A", {"A": 1})
    loop_key = fcd("", {}).key()
    assert coproduct(d) == {
        (d.key(), loop_key): 1,
        (loop_key, d.key()): 1,
    }


def test_coproduct_mass():
    d = fcd("A B A B", {"A": 0, "B": 0})
    assert sum(coproduct(d).values()) == 4


def all_diagrams_up_to(n):
    for m in range(n + 1):
        for key in enumerate_diagrams("framed", m):
            yield from_key(key)


def test_coproduct_cocommutative():
    for d in all_diagrams_up_to(3):
        pairs = coproduct(d)
        flipped = {(b, a): c for (a, b), c in pairs.items()}
        assert pairs == flipped


def test_coproduct_coassociative():
    for d in all_diagrams_up_to(3):
        left = {}
        right = {}
        for (a, b), c in coproduct(d).items():
            for (x, y), cc in coproduct(from_key(a)).items():
                left[(x, y, b)] = left.get((x, y, b), 0) + c * cc
            for (x, y), cc in coproduct(from_key(b)).items():
                right[(a, x, y)] = right.get((a, x, y), 0) + c * cc
        assert left == right


def test_restrict():
    d = fcd("A B A C B C", {"A": 0, "B": 1, "C": 0})
    sub = restrict(d, {"B"})
    assert sub.word == ("B", "B")
    assert sub.framing == {"B": 1}
    # a line used to come back closed up as a circle, and the two-word kinds
    # raised AttributeError
    for wrong in (
        FramedLinearDiagram(d.word, d.framing),
        DoubleChordDiagram(("A", "B"), ("A", "C", "B", "C")),
        DoubleLinearDiagram(("A", "B"), ("A", "C", "B", "C")),
    ):
        message = f"^expected FramedChordDiagram, got {type(wrong).__name__}$"
        with pytest.raises(TypeError, match=message):
            restrict(wrong, {"A", "B"})


def test_restrict_to_an_absent_chord_is_refused():
    # this used to be a bare KeyError from the framing lookup
    d = fcd("A B A B", {"A": 0, "B": 1})
    with pytest.raises(InvalidArgumentError, match="^no such chords to restrict to: Y, Z$"):
        restrict(d, {"A", "Z", "Y"})
