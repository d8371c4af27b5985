"""Module elements, relation generators, and the quotient decision."""

import hashlib
import random
from fractions import Fraction
from math import gcd, prod

import pytest

from chordcalc import algebra
from chordcalc.algebra import (
    _SLIDES,
    KindMismatchError,
    ModuleElement,
    RelationGenerator,
    UndecidedError,
    _integer_lattice,
    _moves,
    _slide_pairs,
    combine,
    generate_2T_pairs,
    generate_4T,
    quotient_equal,
)
from chordcalc.diagrams import (
    _CANONICALIZERS,
    KINDS,
    CanonicalKey,
    DoubleChordDiagram,
    DoubleLinearDiagram,
    FramedChordDiagram,
    InvalidArgumentError,
    InvalidDiagramError,
    enumerate_diagrams,
    from_key,
)
from chordcalc.intlinalg import _reduce
from chordcalc.parity import psi_module
from chordcalc.surgery import beta, weight
from dense_hnf import dense_hnf


def fkey(word, framing):
    return FramedChordDiagram(tuple(word.split()), framing).key()


def dkey(w1, w2):
    return DoubleChordDiagram(tuple(w1.split()), tuple(w2.split())).key()


def lkey(w1, w2):
    return DoubleLinearDiagram(tuple(w1.split()), tuple(w2.split())).key()


def single(key):
    return ModuleElement.single(key)


def lattice_calls():
    info = _integer_lattice.cache_info()
    return info.hits + info.misses


# --- ModuleElement and combine ------------------------------------------------


def test_combine_cancels():
    u = single(dkey("A A", ""))
    assert combine(1, u, -1, u).is_zero()


def test_combine_scales():
    u = single(dkey("A A", ""))
    assert combine(2, u, 3, u) == 5 * u


def test_combine_mixed():
    d1, d2 = dkey("A A", ""), dkey("A", "A")
    u = ModuleElement("double", [(d1, 2), (d2, 1)])
    v = ModuleElement("double", [(d2, -1)])
    assert combine(1, u, 1, v) == ModuleElement("double", [(d1, 2)])


def test_kind_mismatch():
    with pytest.raises(KindMismatchError):
        combine(1, single(dkey("A A", "")), 1, single(fkey("A A", {"A": 0})))


def test_element_accumulates_and_drops_zeros():
    k = dkey("A A", "")
    e = ModuleElement("double", [(k, 2), (k, -2)])
    assert e.is_zero()
    assert len(e) == 0
    assert e.mass() == 0


def test_element_degrees_and_parts():
    e = single(dkey("A A", "")) + 2 * single(dkey("", ""))
    assert e.degrees() == (0, 1)
    assert e.homogeneous_part(0) == 2 * single(dkey("", ""))


def test_element_rejects_foreign_keys():
    with pytest.raises(KindMismatchError):
        ModuleElement("double", [(fkey("A A", {"A": 0}), 1)])


def test_element_refuses_non_integer_coefficients():
    # these used to be truncated through int(): 1.9 stored 1, "3" stored 3
    key = fkey("A A", {"A": 0})
    for bad in (1.9, "3", Fraction(1, 2)):
        with pytest.raises(TypeError):
            ModuleElement("framed", [(key, bad)])
    assert ModuleElement("framed", {key: 3}).items() == ((key, 3),)


# --- 4T generators ---------------------------------------------------------------


def test_generators_empty_below_two_chords():
    assert generate_4T("framed", 1) == ()
    assert generate_4T("double", 0) == ()


def test_generators_reject_negative_chord_counts():
    with pytest.raises(ValueError, match="chord count must be nonnegative"):
        generate_4T("framed", -3)
    with pytest.raises(ValueError, match="chord count must be nonnegative"):
        generate_2T_pairs("dlinear", -1)


@pytest.mark.parametrize("n", [2.0, 3.0, True, "2"])
def test_a_degree_that_is_not_an_int_is_refused_whatever_is_cached(n):
    # 2.0 and True equal the ints 2 and 1 as cache keys: they are refused
    # cold, and again after the int's keys and generators were built
    message = f"^chord count must be an int, got {n!r}$"
    enumerate_diagrams.cache_clear()
    for _ in range(2):
        with pytest.raises(InvalidArgumentError, match=message):
            enumerate_diagrams("framed", n)
        with pytest.raises(InvalidArgumentError, match=message):
            generate_4T("double", n)
        with pytest.raises(InvalidArgumentError, match=message):
            generate_2T_pairs("dlinear", n)
        assert enumerate_diagrams("framed", int(n))
        generate_4T("double", int(n))
        generate_2T_pairs("dlinear", int(n))


def test_generators_homogeneous():
    for kind in ("framed", "double", "linear", "dlinear"):
        for n in (2, 3):
            for gen in generate_4T(kind, n):
                for key, _ in gen.element.items():
                    assert key.kind == kind
                    assert key.n == n
                for key in gen.placements:
                    assert key.n == n


def test_double_two_chord_generators():
    gens = generate_4T("double", 2)
    assert gens
    for gen in gens:
        assert len(gen.element) <= 4


def test_degenerate_generator_expands_O_X_X_O():
    # moving one endpoint of a around b when nothing else separates them:
    # the four placements read O, X, X, O and the relation collapses to zero
    o_key = fkey("A A B B", {"A": 0, "B": 0})
    x_key = fkey("A B A B", {"A": 0, "B": 0})
    matches = [
        gen
        for gen in generate_4T("framed", 2)
        if gen.placements == (o_key, x_key, x_key, o_key)
    ]
    assert matches
    for gen in matches:
        assert gen.signs == (1, -1, 1, -1)
        assert gen.element.is_zero()


def test_zero_generators_filtered_by_flag():
    gens = generate_4T("framed", 2)
    nonzero = generate_4T("framed", 2, include_zero=False)
    assert len(nonzero) < len(gens)
    assert all(not g.element.is_zero() for g in nonzero)
    assert any(g.element.is_zero() for g in gens)


def test_framed_target_framing_one_flips_moving_chord():
    # sliding an endpoint across a half-twisted band flips the slider's framing;
    # the no-flip relation provably fails: the weight of its parity image is
    # nonzero, so it cannot lie in the relation span of the image module.
    no_flip = combine(
        1,
        single(fkey("A A B B C C", {"A": 0, "B": 1, "C": 1})),
        -1,
        single(fkey("A B B A C C", {"A": 0, "B": 1, "C": 1})),
    )
    assert weight(psi_module(no_flip)) == 16

    shipped = ModuleElement(
        "framed",
        [
            (fkey("A A B B C C", {"A": 0, "B": 1, "C": 1}), 1),
            (fkey("A B A B C C", {"A": 0, "B": 1, "C": 1}), -1),
            (fkey("A B A B C C", {"A": 1, "B": 1, "C": 1}), -1),
            (fkey("A B B A C C", {"A": 1, "B": 1, "C": 1}), 1),
        ],
    )
    emitted = {g.element for g in generate_4T("framed", 3)}
    assert shipped in emitted or -1 * shipped in emitted
    assert weight(psi_module(shipped)) == 0
    assert quotient_equal(psi_module(shipped), ModuleElement.zero("double"))


def test_flip_generators_carry_both_framings_of_the_mover():
    for gen in generate_4T("framed", 2, include_zero=False):
        if gen.signs == (1, -1, -1, 1):
            framings = set()
            for key in gen.placements:
                framings.update(fr for _num, fr in key.payload)
            assert framings == {0, 1} or all(
                fr == 1 for key in gen.placements for _num, fr in key.payload
            )


def oracle_moves(kind, base):
    """Every slide datum of a base key, rebuilt from ``from_key``'s spelled
    diagram through the public constructors; chords are numbered by first
    occurrence, as the key numbers them."""
    d = from_key(base)
    framed = kind in ("framed", "linear")
    words = [list(d.word)] if framed else [list(d.word1), list(d.word2)]
    labels = list(dict.fromkeys(lab for word in words for lab in word))
    for a in labels:
        ends = [(wi, p) for wi, word in enumerate(words) for p, lab in enumerate(word) if lab == a]
        for occ, (xwi, xp) in enumerate(ends):
            for b in labels:
                if b == a:
                    continue
                stripped = [list(word) for word in words]
                del stripped[xwi][xp]
                (w1, p1), (w2, p2) = [
                    (wi, p) for wi, word in enumerate(stripped) for p, lab in enumerate(word)
                    if lab == b
                ]
                flip = framed and d.framing[b] == 1
                placements = []
                slots = ((w1, p1), (w1, p1 + 1), (w2, p2), (w2, p2 + 1))
                for si, (wi, slot) in enumerate(slots):
                    ws = [list(word) for word in stripped]
                    ws[wi].insert(slot, a)
                    if framed:
                        framing = dict(d.framing)
                        if flip and si >= 2:
                            framing[a] ^= 1
                        placements.append(type(d)(ws[0], framing).key())
                    else:
                        placements.append(type(d)(ws[0], ws[1]).key())
                signs = (1, -1, -1, 1) if flip else (1, -1, 1, -1)
                pairing = ((0, 2), (1, 3)) if flip else ((0, 3), (1, 2))
                pairs = tuple(tuple(sorted((placements[i], placements[j]))) for i, j in pairing)
                yield labels.index(a) + 1, occ, labels.index(b) + 1, tuple(placements), signs, pairs


@pytest.mark.parametrize(
    "kind, n",
    [(kind, n) for kind in ("framed", "double", "linear", "dlinear") for n in range(5)],
)
def test_generators_match_the_public_constructor_oracle(kind, n):
    expected, seen, pairs = [], set(), set()
    for base in enumerate_diagrams(kind, n):
        for a, occ, b, placements, signs, slide_pairs in oracle_moves(kind, base):
            pairs.update(slide_pairs)
            signature = tuple(sorted(zip(placements, signs)))
            if signature not in seen:
                seen.add(signature)
                element = ModuleElement(kind, zip(placements, signs))
                expected.append(
                    RelationGenerator(element, base, a, occ, b, placements, signs, slide_pairs)
                )
    assert generate_4T(kind, n) == tuple(expected)
    if kind in ("double", "dlinear"):
        assert generate_2T_pairs(kind, n) == tuple(sorted(pairs))


def generator_digest(gens):
    """sha256 of one ``repr`` line per generator: base, moving chord,
    occurrence, target chord, placements, signs, 2T pairs and the element's
    terms."""
    text = "".join(
        repr(
            (
                g.base,
                g.moving_chord,
                g.occurrence,
                g.target_chord,
                g.placements,
                g.signs,
                g.slide_pairs,
                tuple(g.element.items()),
            )
        )
        + "\n"
        for g in gens
    )
    return hashlib.sha256(text.encode()).hexdigest()


# ``generator_digest(generate_4T("double", 5))``, recorded while the
# punctured two-circle keys came from the head scan of tests/head_scan_pair.py;
# the oracle above stops at n = 4
DOUBLE_5_GENERATORS_SHA256 = "795f7c79f5130f59ed9e5db36db1284d7e1d7c639cbb3b9f6225e016cdce1090"

# ``generator_digest(generate_4T("framed", 5))``, recorded while every
# placement was canonicalized from its own word
FRAMED_5_GENERATORS_SHA256 = "25b6f98f91b68ba5847d593400d9605813a68e0d642fea06f40e26aa8371c763"


def test_double_degree_five_generators_are_pinned():
    gens = generate_4T("double", 5)
    assert len(gens) == 1607
    assert generator_digest(gens) == DOUBLE_5_GENERATORS_SHA256


def test_framed_degree_five_generators_are_pinned():
    gens = generate_4T("framed", 5)
    assert len(gens) == 15494
    assert generator_digest(gens) == FRAMED_5_GENERATORS_SHA256


def test_no_placement_is_canonicalized():
    # every placement is read from the slot table of the degree's own keys,
    # so a cold generation leaves no miss in the canonical-key caches
    for kind in KINDS:
        for canon in _CANONICALIZERS.values():
            canon.cache_clear()
        assert generate_4T(kind, 4)
        assert [canon.cache_info().misses for canon in _CANONICALIZERS.values()] == [0] * 4


def list_copy_moves(kind, base):
    """The list-copying ``_moves`` that the tuple-slicing one replaced, kept
    as its oracle: every placement copies the stripped words, inserts the
    moving endpoint and rebuilds the tokens from a framing dict."""
    canon = _CANONICALIZERS[kind]
    if kind in ("framed", "linear"):
        words, framing = [[num for num, _fr in base.payload]], dict(base.payload)
    else:
        words, framing = [list(base.payload[0]), list(base.payload[1])], None
    labels = []
    for word in words:
        for lab in word:
            if lab not in labels:
                labels.append(lab)
    for a in labels:
        a_positions = [
            (wi, p) for wi, word in enumerate(words) for p, lab in enumerate(word) if lab == a
        ]
        for occ in (0, 1):
            for b in labels:
                if b == a:
                    continue
                xwi, xp = a_positions[occ]
                stripped = [list(word) for word in words]
                del stripped[xwi][xp]
                (w1, p1), (w2, p2) = [
                    (wi, p) for wi, word in enumerate(stripped) for p, lab in enumerate(word)
                    if lab == b
                ]
                slots = ((w1, p1), (w1, p1 + 1), (w2, p2), (w2, p2 + 1))
                flip_far_side = framing is not None and framing[b] == 1
                placements = []
                for si, (wi, slot) in enumerate(slots):
                    ws = [list(word) for word in stripped]
                    ws[wi].insert(slot, a)
                    if framing is None:
                        placements.append(canon(tuple(ws[0]), tuple(ws[1])))
                        continue
                    fr = dict(framing)
                    if flip_far_side and si >= 2:
                        fr[a] ^= 1
                    placements.append(canon(tuple(2 * lab + fr[lab] for lab in ws[0])))
                placements = tuple(placements)
                signs = (1, -1, -1, 1) if flip_far_side else (1, -1, 1, -1)
                pairing = ((0, 2), (1, 3)) if flip_far_side else ((0, 3), (1, 2))
                pairs = tuple(tuple(sorted((placements[i], placements[j]))) for i, j in pairing)
                yield a, occ, b, placements, signs, pairs


@pytest.mark.parametrize(
    "kind, n",
    [(kind, n) for kind in KINDS for n in range(4)]
    + [("framed", 4), ("double", 4), ("dlinear", 4)],
)
def test_moves_match_the_list_copying_oracle(kind, n):
    # _moves skips the slides whose relation it already derived, so every
    # datum it yields must be the oracle's, and over the degree the yielded
    # signatures and 2T pairs must be all of the oracle's
    expected, signatures, pairs = {}, set(), set()
    for base in enumerate_diagrams(kind, n):
        for a, occ, b, placements, signs, slide_pairs in list_copy_moves(kind, base):
            expected[base, a, occ, b] = (placements, signs, slide_pairs)
            signatures.add(tuple(sorted(zip(placements, signs))))
            pairs.update(slide_pairs)
    yielded, yielded_signatures, yielded_pairs = set(), set(), set()
    for base, a, occ, b, placements, flip in _moves(kind, n):
        signs, slide_pairs = _SLIDES[flip][0], _slide_pairs(placements, flip)
        assert (base, a, occ, b) not in yielded
        yielded.add((base, a, occ, b))
        assert (placements, signs, slide_pairs) == expected[base, a, occ, b]
        yielded_signatures.add(tuple(sorted(zip(placements, signs))))
        yielded_pairs.update(slide_pairs)
    assert yielded_signatures == signatures
    assert yielded_pairs == pairs


# slides ``_moves`` yields per degree: a weaker skip of repeated relations
# leaves every output the same and shows only here
SLIDE_COUNTS = {
    ("framed", 4): 851,
    ("double", 4): 171,
    ("linear", 4): 5040,
    ("dlinear", 4): 2520,
    ("framed", 5): 15504,
    ("double", 5): 1636,
}


@pytest.mark.parametrize("kind, n", sorted(SLIDE_COUNTS))
def test_slide_counts_are_pinned(kind, n):
    assert sum(1 for _ in _moves(kind, n)) == SLIDE_COUNTS[kind, n]


# --- 2T pairs ---------------------------------------------------------------------


def test_2t_pairs_kind_restricted():
    for kind in ("framed", "linear"):
        with pytest.raises(InvalidArgumentError, match="2T pairs are generated"):
            generate_2T_pairs(kind, 2)


def test_unknown_kinds_are_argument_errors():
    for make in (
        lambda: generate_4T("triple", 2),
        lambda: ModuleElement("triple"),
        lambda: from_key(CanonicalKey("triple", ())),
    ):
        with pytest.raises(InvalidArgumentError, match="unknown kind 'triple'"):
            make()


def test_2t_pairs_sorted_and_unordered():
    pairs = generate_2T_pairs("double", 2)
    assert pairs
    for p, q in pairs:
        assert p <= q
    assert list(pairs) == sorted(set(pairs))


def test_2t_pairs_worked_example():
    # one circle carrying (a b b a) with the mover's chord spanning the ends:
    # sliding across b exchanges it with (b b a a); the residual pair is the
    # degenerate (b a b a) with itself
    outer = dkey("A B B A", "")
    shifted = dkey("B B A A", "")
    degenerate = dkey("B A B A", "")
    pairs = set(generate_2T_pairs("double", 2))
    assert tuple(sorted((outer, shifted))) in pairs
    assert (degenerate, degenerate) in pairs


def test_2t_pairs_empty_below_two():
    assert generate_2T_pairs("double", 1) == ()


# (count, sha256 of the repr) of ``generate_2T_pairs``, past the oracle's
# degrees, recorded while ``_moves`` yielded each slide's signs and pairs
TWO_T_PAIRS = {
    ("double", 5): (2074, "a8ecff6bdb9964f567d57506715960dc817a96b9c008bb98180254018013c562"),
    ("dlinear", 4): (3777, "bd02af9c60bf0180943b624ba14b440a346181118f979f16ff6b4b218d99cbce"),
}


@pytest.mark.parametrize("kind, n", sorted(TWO_T_PAIRS))
def test_2t_pairs_are_pinned(kind, n):
    pairs = generate_2T_pairs(kind, n)
    digest = hashlib.sha256(repr(pairs).encode()).hexdigest()
    assert (len(pairs), digest) == TWO_T_PAIRS[kind, n]


# --- quotient equality ----------------------------------------------------------


def test_quotient_reflexive():
    u = single(dkey("A B", "A B")) + 3 * single(dkey("A A", "B B"))
    assert quotient_equal(u, u)


def test_generators_vanish_in_quotient():
    zero = ModuleElement.zero("double")
    for n in (2, 3):
        for gen in generate_4T("double", n):
            assert quotient_equal(gen.element, zero)


def test_random_generator_combinations_vanish():
    rng = random.Random(7)
    gens = [g.element for g in generate_4T("double", 3, include_zero=False)]
    zero = ModuleElement.zero("double")
    for _ in range(25):
        total = zero
        for _ in range(rng.randint(1, 6)):
            total = total + rng.randint(-3, 3) * rng.choice(gens)
        assert quotient_equal(total, zero)
        assert quotient_equal(total, zero, rational=True)


def test_weight_separates_quotient_classes():
    # unequal surgery weight certifies inequality independently of the solver
    keys = enumerate_diagrams("double", 2)
    by_beta = {}
    for key in keys:
        by_beta.setdefault(beta(from_key(key)), key)
    betas = sorted(by_beta)
    assert len(betas) >= 2
    a, b = by_beta[betas[0]], by_beta[betas[-1]]
    assert not quotient_equal(single(a), single(b))
    assert not quotient_equal(single(a), single(b), rational=True)


def test_quotient_mixed_degree():
    # dlinear has nonzero generators in both degrees; their sum vanishes
    # degree by degree
    g2 = next(g.element for g in generate_4T("dlinear", 2, include_zero=False))
    g3 = next(g.element for g in generate_4T("dlinear", 3, include_zero=False))
    assert quotient_equal(g2 + g3, ModuleElement.zero("dlinear"))
    # at degree 2 every double generator collapses, so distinct degree-2
    # diagrams stay distinct and poison a mixed-degree comparison
    assert generate_4T("double", 2, include_zero=False) == ()
    g3d = next(g.element for g in generate_4T("double", 3, include_zero=False))
    u = g3d + single(dkey("A A", ""))
    v = single(dkey("A", "A"))
    assert not quotient_equal(u, v)


def _q_span_oracle(elements):
    """Membership test for the Q-span of ``elements``, by Fraction Gauss
    elimination on the elements themselves (no HNF involved)."""
    echelon = {}  # pivot key -> row with 1 at the pivot and nothing before it

    def residual(element):
        row = {key: Fraction(c) for key, c in element.items()}
        while True:
            hits = [key for key in row if key in echelon]
            if not hits:
                return row
            pivot = min(hits)
            factor = row[pivot]
            for key, c in echelon[pivot].items():
                value = row.get(key, 0) - factor * c
                if value:
                    row[key] = value
                else:
                    del row[key]

    for element in elements:
        row = residual(element)
        if row:
            pivot = min(row)
            echelon[pivot] = {key: c / row[pivot] for key, c in row.items()}
    return lambda element: not residual(element)


@pytest.mark.parametrize(
    "kind, n",
    [(kind, n) for kind in ("framed", "linear", "dlinear") for n in range(4)]
    + [("double", n) for n in range(5)]
    + [("dlinear", 4)],
)
def test_rational_quotient_matches_fraction_oracle(kind, n):
    gens = [g.element for g in generate_4T(kind, n)]
    in_q_span = _q_span_oracle(gens)
    keys = enumerate_diagrams(kind, n)
    zero = ModuleElement.zero(kind)
    rng = random.Random(f"{kind}{n}")
    vectors = list(gens)
    for _ in range(30):
        total = zero
        for _ in range(rng.randint(1, 6) if gens else 0):
            total = total + rng.randint(-3, 3) * rng.choice(gens)
        near = total + rng.choice((1, -1)) * single(rng.choice(keys))
        vectors += [total, near, 2 * total, 2 * near]
    for vec in vectors:
        expected = in_q_span(vec)
        assert quotient_equal(vec, zero, rational=True) == expected
        if quotient_equal(vec, zero):
            assert expected


def vectorize(element, index, scale=1):
    """The sparse ``{column: coeff}`` vector of a homogeneous element."""
    return {index[key]: scale * coeff for key, coeff in element.items()}


def densify(row, width):
    dense = [0] * width
    for c, x in row.items():
        dense[c] = x
    return dense


@pytest.mark.parametrize(
    "kind, n",
    [(kind, n) for kind in ("framed", "double", "linear", "dlinear") for n in range(4)]
    + [("framed", 4), ("double", 4), ("double", 5)],
)
def test_integer_lattice_is_the_hnf_of_the_generators(kind, n):
    # the lattice build runs the sparse engine on sparse rows; its basis,
    # written out densely, must be the nonzero rows of the dense oracle's hnf
    # of the same generator matrix
    index, basis = _integer_lattice(kind, n)
    rows = set()
    for gen in generate_4T(kind, n, include_zero=False):
        row = [0] * len(index)
        for key, coeff in gen.element.items():
            row[index[key]] = coeff
        rows.add(tuple(row))
    if not rows:
        assert basis == {}
        return
    h = dense_hnf(sorted(rows), len(index))
    nonzero = [tuple(row) for row in h if any(row)]
    assert [tuple(densify(row, len(index))) for row in basis.values()] == nonzero
    assert list(basis) == [next(j for j, x in enumerate(row) if x) for row in nonzero]
    assert all(all(row.values()) for row in basis.values())


# (columns, rank, [(pivot column, pivot) for every pivot > 1]) of each lattice;
# the dense oracle's hnf gives the same figures
LATTICE_SHAPES = {
    ("framed", 2): (6, 1, []),
    ("framed", 3): (28, 16, []),
    ("framed", 4): (234, 204, []),
    ("double", 2): (5, 0, []),
    ("double", 3): (15, 4, []),
    ("double", 4): (64, 39, []),
    ("double", 5): (408, 354, [(96, 4)]),
    ("linear", 2): (12, 6, []),
    ("linear", 3): (120, 104, []),
    ("dlinear", 2): (15, 6, []),
    ("dlinear", 3): (105, 82, []),
    ("dlinear", 4): (945, 885, [(877, 2)]),
}


@pytest.mark.parametrize("kind, n", sorted(LATTICE_SHAPES))
def test_lattice_shapes_are_pinned(kind, n):
    index, basis = _integer_lattice(kind, n)
    big = [(p, row[p]) for p, row in basis.items() if row[p] > 1]
    assert (len(index), len(basis), big) == LATTICE_SHAPES[kind, n]


def test_the_lattice_is_built_with_no_generator_object(monkeypatch):
    # the rows come straight from the slides of _moves: a cold build runs
    # neither generate_4T nor the RelationGenerator constructor
    def refuse(*args, **kwargs):
        raise AssertionError("the lattice build made a generator")

    monkeypatch.setattr(algebra, "generate_4T", refuse)
    monkeypatch.setattr(algebra, "RelationGenerator", refuse)
    _integer_lattice.cache_clear()
    for kind in ("framed", "double"):
        index, basis = _integer_lattice(kind, 4)
        big = [(p, row[p]) for p, row in basis.items() if row[p] > 1]
        assert (len(index), len(basis), big) == LATTICE_SHAPES[kind, 4]


def lattice_digest(basis):
    """sha256 of the ``repr`` of a basis as ``(pivot, sorted row)`` pairs."""
    text = repr([(p, sorted(row.items())) for p, row in basis.items()])
    return hashlib.sha256(text.encode()).hexdigest()


# ``lattice_digest`` of the framed 5 and dlinear 5 bases, past the reach of
# the dense oracle, recorded while the rows were read from generate_4T
FRAMED_5_LATTICE_SHA256 = "f400a41e6551db82bfca92630458834f8436adb74b270718dedf542b30cc67db"
DLINEAR_5_LATTICE_SHA256 = "f314e821f1f19c6641ca357ad048d7f6735b60215419a1e3f297e3def7559f65"


def test_framed_degree_five_lattice_is_pinned():
    index, basis = _integer_lattice("framed", 5)
    assert (len(index), len(basis)) == (3112, 3039)
    assert lattice_digest(basis) == FRAMED_5_LATTICE_SHA256


def test_rational_membership_scales_past_a_pivot_above_one():
    # framed n <= 4, double n <= 4, linear n <= 3 and dlinear n <= 3 have only
    # pivots of 1 (see LATTICE_SHAPES); these hand-made sparse bases reach a
    # scale above 1 without building dlinear n = 4 or double n = 5.  Over Q a
    # vector is in the span when D times it is in the Z-span, D the product
    # of the pivots.
    assert _reduce({0: 1}, {0: {0: 2}})
    assert not _reduce({0: 2}, {0: {0: 2}})  # D = 2
    basis = {0: {0: 2, 2: 1}, 1: {1: 2, 2: 1}}  # D = 4
    assert _reduce({0: 1, 1: 1, 2: 1}, basis)
    assert not _reduce({0: 4, 1: 4, 2: 4}, basis)
    assert _reduce({0: 4}, basis)
    assert not _reduce({0: 2, 1: 2, 2: 2}, basis)
    # Z^2 / span is Z/4: the lcm of the pivots, 2, is not enough for e0
    z4 = {0: {0: 2, 1: 1}, 1: {1: 2}}
    assert _reduce({0: 2}, z4) == {1: -1}
    assert not _reduce({0: 4}, z4)


def dense_in_span(vec, hrows, pivots, rational):
    """The dense membership test that the sparse reduction ``_reduce``
    replaced, kept as its oracle: it reduces a dense residual by the dense
    echelon rows ``hrows`` at every pivot column in ``pivots``."""
    residual = list(vec)
    for row, p in zip(hrows, pivots):
        q, rem = divmod(residual[p], row[p])
        if rem:
            if not rational:
                return False
            scale = row[p] // gcd(rem, row[p])
            residual = [scale * x for x in residual]
            q = residual[p] // row[p]
        if q:
            residual = [x - q * y for x, y in zip(residual, row)]
    return not any(residual)


@pytest.mark.parametrize(
    "kind, n",
    [(kind, n) for kind in KINDS for n in range(4)]
    + [("framed", 4), ("double", 4), ("dlinear", 4)],
)
def test_sparse_membership_matches_the_dense_oracle(kind, n):
    index, basis = _integer_lattice(kind, n)
    hrows = [densify(row, len(index)) for row in basis.values()]
    gens = [g.element for g in generate_4T(kind, n)]
    keys = enumerate_diagrams(kind, n)
    zero = ModuleElement.zero(kind)
    rng = random.Random(f"membership {kind}{n}")
    vectors = list(gens)
    for _ in range(30):
        total = zero
        for _ in range(rng.randint(1, 6) if gens else 0):
            total = total + rng.randint(-3, 3) * rng.choice(gens)
        near = total + rng.choice((1, -1)) * single(rng.choice(keys))
        vectors += [total, near, 2 * total, 2 * near]
    answers = set()
    for element in vectors:
        vec = densify(vectorize(element, index), len(index))
        for rational in (False, True):
            expected = dense_in_span(vec, hrows, list(basis), rational)
            assert quotient_equal(element, zero, rational=rational) == expected
            answers.add(expected)
    assert answers == {True, False}
    if (kind, n) == ("dlinear", 4):
        # its pivot of 2 at column 877 makes the Q question scale by 2
        assert prod(row[c] for c, row in basis.items()) == 2


# Half of the one all-even row of dlinear 5's Hermite basis (the row with
# pivot 2 at column 9944; no other nonempty set of its ten pivot-2 rows has an
# all-even sum): an element of order 2 in the quotient, dlinear 5 being
# Z^148 + Z/2
DLINEAR_5_TORSION = (
    (((1, 2, 3, 4, 5, 2, 1), (5, 4, 3)), 1),
    (((1, 2, 3, 4, 5, 3, 1), (5, 4, 2)), -3),
    (((1, 2, 3, 4, 5, 3, 2, 1), (5, 4)), -1),
    (((1, 2, 3, 4, 5, 4), (5, 2, 1, 3)), 1),
    (((1, 2, 3, 4, 5, 4), (5, 3, 1, 2)), -2),
    (((1, 2, 3, 4, 5, 4), (5, 3, 2, 1)), 1),
    (((1, 2, 3, 4, 5, 4, 1), (5, 3, 2)), 2),
    (((1, 2, 3, 4, 5, 4, 2), (5, 3, 1)), 2),
    (((1, 2, 3, 4, 5, 4, 2, 1), (5, 3)), 3),
    (((1, 2, 3, 4, 5, 4, 3), (5, 1, 2)), -1),
    (((1, 2, 3, 4, 5, 4, 3, 1), (5, 2)), -2),
    (((1, 2, 3, 4, 5, 4, 3, 2), (5, 1)), 1),
    (((1, 2, 3, 4, 5, 5, 1), (4, 3, 2)), -1),
    (((1, 2, 3, 4, 5, 5, 3), (4, 1, 2)), 2),
    (((1, 2, 3, 4, 5, 5, 3), (4, 2, 1)), -2),
    (((1, 2, 3, 4, 5, 5, 3, 1), (4, 2)), -2),
    (((1, 2, 3, 4, 5, 5, 3, 2), (4, 1)), -1),
    (((1, 2, 3, 4, 5, 5, 4, 1), (3, 2)), 1),
    (((1, 2, 3, 4, 5, 5, 4, 2), (3, 1)), 1),
)


def test_the_dlinear_degree_five_torsion_element():
    # the one lattice at a degree max_degree=5 reaches whose Z and Q answers
    # differ: X is not 0 over Z, is 0 over Q (the difference scaled by the
    # product of the pivots, 2**10), and 2X is 0 over Z; no weight sees it
    x = ModuleElement(
        "dlinear", [(CanonicalKey("dlinear", payload), c) for payload, c in DLINEAR_5_TORSION]
    )
    zero = ModuleElement.zero("dlinear")
    assert len(x) == 19
    assert not quotient_equal(x, zero, max_degree=5)
    assert quotient_equal(x, zero, rational=True, max_degree=5)
    assert quotient_equal(2 * x, zero, max_degree=5)
    assert weight(x) == 0
    index, basis = _integer_lattice("dlinear", 5)
    assert prod(row[c] for c, row in basis.items()) == 2**10


def test_weight_separated_parts_build_nothing():
    # w(u - v) != 0 answers False over Z and Q with no diagram enumerated
    # and no lattice consulted, even at degrees no lattice is built for
    double = single(dkey("A B C D E F G", "A B C D E F G")), single(
        dkey("A B C D E F G", "G F E D C B A")
    )
    dlinear = single(lkey("A B C D E", "E D C B A")), single(lkey("A B C D E", "A B C D E"))
    assert [weight(x) for x in double + dlinear] == [1, 7, 6, 2]
    # label-swapped payloads of double diagrams of degree 2, of weight 4 and 2
    bad = [CanonicalKey("double", p) for p in [((), (2, 2, 1, 1)), ((2, 1), (2, 1))]]
    good = single(dkey("A A", "B B"))
    before = _integer_lattice.cache_info(), enumerate_diagrams.cache_info()
    assert not quotient_equal(*double, max_degree=7)
    assert not quotient_equal(*dlinear, rational=True, max_degree=5)
    for first, second in (bad, bad[::-1]):
        message = f"not a canonical double key of degree 2: {first!r}"
        for u, v in [
            (ModuleElement("double", [(first, 1), (second, 2)]), ModuleElement.zero("double")),
            (good, single(first) + single(second)),
        ]:
            assert weight(u - v)
            with pytest.raises(InvalidArgumentError) as raised:
                quotient_equal(u, v)
            assert str(raised.value) == message
    assert (_integer_lattice.cache_info(), enumerate_diagrams.cache_info()) == before
    with pytest.raises(UndecidedError, match="^undecided: degree 7 exceeds the ceiling 4"):
        quotient_equal(*double)
    # the torsion element has weight 0, so only the lattice answers it
    x = ModuleElement(
        "dlinear", [(CanonicalKey("dlinear", payload), c) for payload, c in DLINEAR_5_TORSION]
    )
    zero = ModuleElement.zero("dlinear")
    assert weight(x) == 0
    for rational, answer in ((False, False), (True, True)):
        calls = lattice_calls()
        assert quotient_equal(x, zero, rational=rational, max_degree=5) is answer
        assert lattice_calls() == calls + 1


def test_dlinear_degree_five_lattice_is_pinned():
    index, basis = _integer_lattice("dlinear", 5)
    assert lattice_digest(basis) == DLINEAR_5_LATTICE_SHA256


def test_quotient_kind_mismatch():
    with pytest.raises(KindMismatchError):
        quotient_equal(
            ModuleElement.zero("double"), single(fkey("A A", {"A": 0}))
        )


@pytest.mark.parametrize(
    "payload, error, message",
    [
        pytest.param(
            ((1, 1), ()),
            InvalidArgumentError,
            "not a canonical double key of degree 1: "
            "CanonicalKey(kind='double', payload=((1, 1), ()))",
            id="payload0",
        ),
        pytest.param(
            ((1, 1, 1), ()),
            InvalidDiagramError,
            "every chord label must occur exactly twice; offending labels: 1",
            id="payload1",
        ),
    ],
)
def test_quotient_names_a_key_missing_from_its_degree(payload, error, message):
    # the first is a double diagram, but not its canonical key; the second
    # is no diagram at all, so no key of it is built
    with pytest.raises(ValueError) as raised:
        quotient_equal(single(CanonicalKey("double", payload)), ModuleElement.zero("double"))
    assert type(raised.value) is error
    assert str(raised.value) == message


@pytest.mark.parametrize("max_degree", ["5", 2.5, True, -1])
def test_quotient_refuses_a_max_degree_that_is_not_a_nonnegative_int(max_degree):
    u = single(dkey("A A", ""))
    with pytest.raises(InvalidArgumentError, match="max_degree must be"):
        quotient_equal(u, single(dkey("A", "A")), max_degree=max_degree)
    with pytest.raises(InvalidArgumentError, match="max_degree must be"):
        quotient_equal(u, u, max_degree=max_degree)


def test_quotient_degree_ceiling():
    word = "A A B B C C D D E E"
    framing = dict.fromkeys("ABCDE", 0)
    other = dict(framing, A=1)
    u = single(fkey(word, framing))
    v = single(fkey(word, other))
    with pytest.raises(UndecidedError):
        quotient_equal(u, v)
    with pytest.raises(UndecidedError):
        quotient_equal(
            single(dkey("A A", "")), single(dkey("A", "A")), max_degree=0
        )


def composed_quotient_equal(u, v, rational=False, max_degree=None):
    """``quotient_equal`` composed from the element operations, as it was
    before the difference was summed in one pass: ``u - v``, then per degree
    its ``homogeneous_part``, vectorized and reduced by the lattice."""
    difference = u - v
    ceiling = algebra.DEGREE_CEILING[u.kind] if max_degree is None else max_degree
    for n in difference.degrees():
        if n > ceiling:
            raise UndecidedError(
                f"undecided: degree {n} exceeds the ceiling {ceiling} for kind {u.kind}"
            )
        index, basis = _integer_lattice(u.kind, n)
        scale = prod(row[c] for c, row in basis.items()) if rational else 1
        if _reduce(vectorize(difference.homogeneous_part(n), index, scale), basis):
            return False
    return True


def outcome(decide, *args, **kwargs):
    try:
        return decide(*args, **kwargs)
    except UndecidedError as exc:
        return str(exc)


@pytest.mark.parametrize(
    "kind, top", [(kind, 4) for kind in KINDS] + [("dlinear", 5)], ids=str
)
def test_one_pass_quotient_matches_the_composed_decision(kind, top):
    # random mixed-degree pairs that share cancelling terms: v is u plus
    # integer combinations of lattice rows, in turn plus nothing, plus one
    # diagram, plus a diagram above the ceiling on both sides or on u only;
    # at dlinear 5 every other first case adds the torsion element to u
    max_degree = top if top > 4 else None
    torsion = [(CanonicalKey(kind, p), c) for p, c in DLINEAR_5_TORSION] if top == 5 else []
    rng = random.Random(f"one pass {kind}{top}")
    keys = {n: enumerate_diagrams(kind, n) for n in range(top + 1)}
    rows = {}  # degree -> the lattice's rows as terms
    for n in keys:
        index, basis = _integer_lattice(kind, n)
        key_of = dict(map(reversed, index.items()))
        rows[n] = [[(key_of[c], x) for c, x in row.items()] for row in basis.values()]
    chords = tuple(c for c in range(1, top + 2) for _ in range(2))
    nested = tuple(range(1, top + 2)) + tuple(range(top + 1, 0, -1))
    if kind in ("framed", "linear"):
        high = [_CANONICALIZERS[kind](tuple(2 * c + c % 2 for c in w)) for w in (chords, nested)]
    else:
        high = [_CANONICALIZERS[kind](chords, ()), _CANONICALIZERS[kind](nested[:3], nested[3:])]
    answers = set()
    for i in range(40):
        u = ModuleElement(
            kind,
            [(rng.choice(keys[rng.randint(0, top)]), rng.randint(-3, 3)) for _ in range(5)],
        )
        v = u
        for _ in range(rng.randint(1, 3)):
            n = rng.choice([n for n in rows if rows[n]])
            v = v + rng.randint(-3, 3) * ModuleElement(kind, rng.choice(rows[n]))
        if i % 8 == 4:
            u = u + ModuleElement(kind, torsion)
        elif i % 4 == 1:
            v = v + single(rng.choice(keys[rng.randint(0, top)]))
        elif i % 4:
            extra = single(rng.choice(high))
            u, v = u + extra, (v + extra if i % 4 == 2 else v)
        if rng.random() < 0.5:
            u, v = v, u
        for rational in (False, True):
            got = outcome(quotient_equal, u, v, rational=rational, max_degree=max_degree)
            expected = outcome(
                composed_quotient_equal, u, v, rational=rational, max_degree=max_degree
            )
            assert got == expected
            answers.add(got if isinstance(got, bool) else "undecided")
    assert answers == {True, False, "undecided"}


def test_quotient_answers_a_lower_degree_before_refusing_a_higher():
    # every degree-2 double part is outside the span (no generator survives
    # there), so the answer is False before degree 5 meets the ceiling
    high = single(dkey("A B C D E", "A B C D E"))
    assert not quotient_equal(single(dkey("A A", "B B")) + high, single(dkey("A B", "A B")))
    with pytest.raises(UndecidedError, match="^undecided: degree 5 exceeds the ceiling 4"):
        quotient_equal(single(dkey("A A", "B B")) + high, single(dkey("A A", "B B")))


def test_quotient_does_not_refuse_a_part_that_cancels_above_the_ceiling():
    high = single(dkey("A B C D E", "E D C B A"))
    g3 = next(g.element for g in generate_4T("double", 3, include_zero=False))
    assert quotient_equal(high + g3, high)
    assert not quotient_equal(high + single(dkey("A A", "")), high + single(dkey("A", "A")))
    u = single(dkey("A", "A"))
    assert quotient_equal(u, u, max_degree=0)
    with pytest.raises(UndecidedError, match="degree 1 exceeds the ceiling 0"):
        quotient_equal(u, ModuleElement.zero("double"), max_degree=0)


def test_quotient_names_the_first_key_missing_from_its_degree_in_u_then_v_order():
    # label-swapped payloads of double diagrams of degree 2: diagrams, but
    # not their canonical keys
    bad = [CanonicalKey("double", p) for p in [((), (2, 2, 1, 1)), ((2, 1), (2, 1))]]
    good = single(dkey("A A", "B B"))

    def named(u, v):
        with pytest.raises(InvalidArgumentError) as raised:
            quotient_equal(u, v)
        message = str(raised.value)
        assert message.startswith("not a canonical double key of degree 2: ")
        return message.rsplit(": ", 1)[1]

    for first, second in (bad, bad[::-1]):
        u = ModuleElement("double", [(first, 1), (second, 1)]) + good
        assert named(u, ModuleElement.zero("double")) == repr(first)
        assert named(single(second) + good, single(first)) == repr(second)
        assert named(good, single(first) + single(second)) == repr(first)
        # a key that cancels between u and v is never looked up
        assert named(single(first) + single(second), single(first)) == repr(second)
    assert not quotient_equal(single(bad[0]) + good, single(bad[0]))
    assert quotient_equal(single(bad[0]), single(bad[0]))
