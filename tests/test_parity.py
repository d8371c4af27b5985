"""The parity maps onto two circles and onto two lines."""

import itertools
import random

import pytest

from chordcalc.algebra import ModuleElement, generate_4T, quotient_equal
from chordcalc.diagrams import (
    DoubleChordDiagram,
    DoubleLinearDiagram,
    FramedChordDiagram,
    FramedLinearDiagram,
    enumerate_diagrams,
    from_key,
)
from chordcalc.parity import (
    parity_module,
    psi,
    psi_l,
    psi_l_module,
    psi_l_summands,
    psi_module,
    psi_summands,
)
from chordcalc.surgery import weight
from chordcalc.verify import psi_relation_span, psi_weight_kill


def fcd(word, framing):
    return FramedChordDiagram(tuple(word.split()), framing)


def fld(word, framing):
    return FramedLinearDiagram(tuple(word.split()), framing)


def test_psi_framing_zero_chord():
    expected = ModuleElement.single(DoubleChordDiagram(("A", "A"), ()).key(), 2)
    assert psi(fcd("A A", {"A": 0})) == expected


def test_psi_framing_one_chord():
    expected = ModuleElement.single(DoubleChordDiagram(("A",), ("A",)).key(), 2)
    assert psi(fcd("A A", {"A": 1})) == expected


def test_psi_free_loop():
    expected = ModuleElement.single(DoubleChordDiagram((), ()).key(), 1)
    assert psi(fcd("", {})) == expected


def test_psi_summand_count_and_mass():
    for n in range(4):
        for key in enumerate_diagrams("framed", n):
            d = from_key(key)
            summands = list(psi_summands(d))
            assert len(summands) == 2**n
            assert psi(d).mass() == 2**n


def random_framed(rng, cls, n):
    """A random framed circle or line with ``n`` chords and written labels."""
    labels = [f"c{i}" for i in range(n)]
    word = [lab for lab in labels for _ in (0, 1)]
    rng.shuffle(word)
    return cls(tuple(word), {lab: rng.randint(0, 1) for lab in labels})


@pytest.mark.parametrize(
    "expand, summands, kind, max_n",
    [(psi, psi_summands, "framed", 4), (psi_l, psi_l_summands, "linear", 3)],
)
def test_expansion_matches_the_summand_diagrams(expand, summands, kind, max_n):
    # psi and parity_module canonicalize the split words directly; the
    # public summands are validated diagram objects with their own keys
    diagrams = [from_key(key) for n in range(max_n + 1) for key in enumerate_diagrams(kind, n)]
    cls = FramedChordDiagram if kind == "framed" else FramedLinearDiagram
    rng = random.Random(f"summands {kind}")
    diagrams += [random_framed(rng, cls, n) for n in (6, 7, 8) for _ in range(100)]
    for d in diagrams:
        image = expand(d)
        counted = {}
        for _sides, summand in summands(d):
            counted[summand.key()] = counted.get(summand.key(), 0) + 1
        assert image == ModuleElement(image.kind, counted)
        assert parity_module(ModuleElement.single(d.key(), -2)) == -2 * image


def product_split(word, framing):
    """The split as it was first written: one side dict per choice of
    ``itertools.product``, each endpoint appended to its side's word."""
    labels = tuple(dict.fromkeys(word))
    for bits in itertools.product((0, 1), repeat=len(labels)):
        side = dict(zip(labels, bits))  # side of each chord's next endpoint
        words = ([], [])
        for lab in word:
            words[side[lab]].append(lab)
            side[lab] ^= framing[lab]
        sides = {lab: (s, s ^ framing[lab]) for lab, s in side.items()}
        yield sides, tuple(words[0]), tuple(reversed(words[1]))


@pytest.mark.parametrize(
    "summands, cls", [(psi_summands, FramedChordDiagram), (psi_l_summands, FramedLinearDiagram)]
)
def test_summands_follow_the_product_split(summands, cls):
    rng = random.Random(f"product {cls.kind}")
    for n in range(9):
        for _ in range(30 if n > 2 else 5):
            d = random_framed(rng, cls, n)
            got = [(list(sides.items()), s.word1, s.word2) for sides, s in summands(d)]
            expected = [
                (list(sides.items()), w1, w2) for sides, w1, w2 in product_split(d.word, d.framing)
            ]
            assert got == expected


def test_psi_summand_sides_respect_framings():
    for n in range(4):
        for key in enumerate_diagrams("framed", n):
            d = from_key(key)
            for sides, _summand in psi_summands(d):
                for lab, (first, second) in sides.items():
                    if d.framing[lab] == 0:
                        assert first == second
                    else:
                        assert first != second


def test_psi_independent_of_stored_representative():
    d = fcd("A B A C B C", {"A": 0, "B": 1, "C": 1})
    for r in range(len(d.word)):
        rotated = FramedChordDiagram(d.word[r:] + d.word[:r], d.framing)
        assert psi(rotated) == psi(d)


def test_psi_three_chord_example_mass_eight():
    d = fcd("A B A C B C", {"A": 0, "B": 0, "C": 1})
    expansion = psi(d)
    assert expansion.mass() == 8
    assert len(list(psi_summands(d))) == 8


def test_psi_module_linearity():
    d = fcd("A B A B", {"A": 0, "B": 1})
    u = ModuleElement.single(d.key(), 2)
    assert psi_module(u) == 2 * psi(d)
    assert psi_module(ModuleElement.zero("framed")).is_zero()


def test_psi_module_kind_check():
    with pytest.raises(ValueError):
        psi_module(ModuleElement.zero("double"))


def test_psi_kills_relations_small():
    zero = ModuleElement.zero("double")
    for gen in generate_4T("framed", 2):
        image = psi_module(gen.element)
        assert weight(image) == 0
        assert quotient_equal(image, zero)


# --- the line variant -----------------------------------------------------------


def test_psi_l_empty_line():
    expected = ModuleElement.single(DoubleLinearDiagram((), ()).key(), 1)
    assert psi_l(fld("", {})) == expected


def test_psi_l_one_spanning_arc():
    expected = ModuleElement.single(DoubleLinearDiagram(("A",), ("A",)).key(), 2)
    assert psi_l(fld("A A", {"A": 1})) == expected


def test_psi_l_mass():
    for n in range(4):
        for key in enumerate_diagrams("linear", n):
            g = from_key(key)
            assert len(list(psi_l_summands(g))) == 2**n
            assert psi_l(g).mass() == 2**n


def test_psi_l_reverses_second_line():
    # with two split chords the second line reads back-to-front
    g = fld("A B A B", {"A": 1, "B": 1})
    keys = {summand.key() for _sides, summand in psi_l_summands(g)}
    both_on_line2_reversed = DoubleLinearDiagram(("A", "B"), ("B", "A")).key()
    assert both_on_line2_reversed in keys


def test_psi_l_module_linearity():
    g = fld("A A B B", {"A": 1, "B": 0})
    u = ModuleElement.single(g.key(), -3)
    assert psi_l_module(u) == -3 * psi_l(g)


def test_psi_l_kills_relations_small():
    zero = ModuleElement.zero("dlinear")
    for gen in generate_4T("linear", 2):
        image = psi_l_module(gen.element)
        assert weight(image) == 0
        assert quotient_equal(image, zero)


@pytest.mark.parametrize("sweep", [psi_weight_kill, psi_relation_span])
@pytest.mark.parametrize("kind", ["double", "dlinear"])
@pytest.mark.parametrize("n", [0, 1, 2])
def test_parity_sweeps_refuse_two_component_kinds(sweep, kind, n):
    # below two chords there are no generators to expand, which must not
    # turn a kind the parity map does not expand into a passing sweep
    with pytest.raises(ValueError, match="framed or linear"):
        sweep(kind, n)
