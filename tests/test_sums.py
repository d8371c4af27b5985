"""Connected sums and the ill-definedness search."""

import hashlib
import re

import pytest

from chordcalc import verify
from chordcalc.algebra import _integer_lattice, quotient_equal
from chordcalc.diagrams import (
    DoubleChordDiagram,
    DoubleLinearDiagram,
    FramedChordDiagram,
    FramedLinearDiagram,
    InvalidArgumentError,
    enumerate_diagrams,
    from_key,
)
from chordcalc.intlinalg import _reduce
from chordcalc.parity import psi, psi_l
from chordcalc.sums import (
    SumWitness,
    connected_sum_dlinear,
    connected_sum_framed,
    connected_sum_linear,
    cut_open,
    search_counterexample,
    witness_quotient_split,
)
from chordcalc.surgery import beta, weight


def fcd(word, framing):
    return FramedChordDiagram(tuple(word.split()), framing)


def fld(word, framing):
    return FramedLinearDiagram(tuple(word.split()), framing)


def dlcd(w1, w2):
    return DoubleLinearDiagram(tuple(w1.split()), tuple(w2.split()))


FREE_LOOP = fcd("", {})


# --- framed connected sum ------------------------------------------------------


def test_free_loop_is_identity():
    d = fcd("A B A B", {"A": 1, "B": 0})
    for cut in range(4):
        assert connected_sum_framed(d, cut, FREE_LOOP, 0).key() == d.key()
        assert connected_sum_framed(FREE_LOOP, 0, d, cut).key() == d.key()


def test_one_chord_sums_cut_independent():
    d1 = fcd("A A", {"A": 1})
    d2 = fcd("B B", {"B": 1})
    expected = fcd("A A B B", {"A": 1, "B": 1}).key()
    keys = {
        connected_sum_framed(d1, c1, d2, c2).key() for c1 in range(2) for c2 in range(2)
    }
    assert keys == {expected}


def test_cut_open():
    d = fcd("A B A B", {"A": 0, "B": 1})
    cut = cut_open(d, 1)
    assert cut.word == ("A", "B", "A", "B")
    cut0 = cut_open(d, 0)
    assert cut0.word == ("B", "A", "B", "A")
    assert cut_open(FREE_LOOP, 0).word == ()


def test_cut_point_validation():
    d = fcd("A A", {"A": 0})
    with pytest.raises(ValueError):
        cut_open(d, 2)
    with pytest.raises(ValueError):
        connected_sum_framed(d, -1, d, 0)
    cut_open(FREE_LOOP, 0)


@pytest.mark.parametrize("arc", [True, False, 1.0, "1"])
def test_a_bool_arc_is_refused(arc):
    # bools used to be taken as the arcs 1 and 0, unlike every size check;
    # a non-int arc is refused as one, not as out of range
    d = fcd("A B A B", {"A": 0, "B": 1})
    for call in (
        lambda: cut_open(d, arc),
        lambda: connected_sum_framed(d, arc, d, 0),
        lambda: connected_sum_framed(d, 0, d, arc),
    ):
        message = f"arc index must be an int, got {arc!r}"
        with pytest.raises(InvalidArgumentError, match=f"^{re.escape(message)}$"):
            call()


def test_sum_well_defined_on_raw_diagrams():
    # rotating the stored representative and transporting the arc index
    # leaves the connected sum unchanged
    d1 = fcd("A B A C B C", {"A": 0, "B": 1, "C": 1})
    d2 = fcd("D D E E", {"D": 1, "E": 0})
    n1 = 2 * d1.n
    for arc1 in range(n1):
        for arc2 in range(2 * d2.n):
            reference = connected_sum_framed(d1, arc1, d2, arc2).key()
            for r in range(1, n1):
                rotated = FramedChordDiagram(d1.word[r:] + d1.word[:r], d1.framing)
                transported = (arc1 - r) % n1
                assert connected_sum_framed(rotated, transported, d2, arc2).key() == reference


def test_chord_counts_add():
    d1 = fcd("A B A B", {"A": 0, "B": 0})
    d2 = fcd("C C", {"C": 1})
    assert connected_sum_framed(d1, 2, d2, 1).n == 3


def test_label_collisions_are_harmless():
    d = fcd("A A", {"A": 1})
    assert connected_sum_framed(d, 0, d, 0).key() == fcd(
        "A A B B", {"A": 1, "B": 1}
    ).key()


# --- linear connected sum --------------------------------------------------------


def test_linear_identity():
    g = fld("A B A B", {"A": 1, "B": 1})
    empty = fld("", {})
    assert connected_sum_linear(empty, g).key() == g.key()
    assert connected_sum_linear(g, empty).key() == g.key()


def test_linear_concatenation():
    g1 = fld("A A", {"A": 0})
    g2 = fld("B B", {"B": 1})
    expected = fld("A A B B", {"A": 0, "B": 1}).key()
    assert connected_sum_linear(g1, g2).key() == expected


def test_linear_sum_not_commutative():
    found = None
    pool = [
        from_key(k)
        for n in (1, 2)
        for k in enumerate_diagrams("linear", n)
    ]
    for g1 in pool:
        for g2 in pool:
            if (
                connected_sum_linear(g1, g2).key()
                != connected_sum_linear(g2, g1).key()
            ):
                found = (g1, g2)
                break
        if found:
            break
    assert found is not None


# --- dlinear connected sum ---------------------------------------------------------


def test_dlinear_identity():
    h = dlcd("A B", "A B")
    empty = dlcd("", "")
    assert connected_sum_dlinear(empty, h).key() == h.key()
    assert connected_sum_dlinear(h, empty).key() == h.key()


def test_dlinear_linewise():
    h1 = dlcd("A", "A")
    h2 = dlcd("B", "B")
    assert connected_sum_dlinear(h1, h2).key() == dlcd("A B", "A B").key()


def test_beta_additivity_small():
    pool = [from_key(k) for n in range(3) for k in enumerate_diagrams("dlinear", n)]
    for h1 in pool:
        for h2 in pool:
            deficit = beta(h1) + beta(h2) - beta(connected_sum_dlinear(h1, h2))
            assert deficit in (1, 2)


def test_deficit_constant_across_parity_summands():
    # whichever summands of the two parity images are glued, the beta deficit
    # of the sum is the same
    pool = [
        from_key(k)
        for n in range(3)
        for k in enumerate_diagrams("linear", n)
    ]
    for g1 in pool[:12]:
        support1 = [from_key(k) for k, _ in psi_l(g1).items()]
        for g2 in pool[:12]:
            support2 = [from_key(k) for k, _ in psi_l(g2).items()]
            deficits = {
                beta(h1) + beta(h2) - beta(connected_sum_dlinear(h1, h2))
                for h1 in support1
                for h2 in support2
            }
            assert len(deficits) == 1


# --- kinds and the tagged-label oracle -----------------------------------------------


@pytest.mark.parametrize(
    "sum_of, right, wrong",
    [
        (
            lambda a, b: connected_sum_framed(a, 0, b, 0),
            fcd("A A", {"A": 1}),
            fld("A A", {"A": 1}),
        ),
        (connected_sum_linear, fld("A A", {"A": 1}), fcd("A A", {"A": 1})),
        (connected_sum_dlinear, dlcd("A", "A"), DoubleChordDiagram(("A",), ("A",))),
    ],
    ids=["framed", "linear", "dlinear"],
)
def test_sums_refuse_diagrams_of_another_kind(sum_of, right, wrong):
    message = f"expected {type(right).__name__}, got {type(wrong).__name__}"
    for operands in ((wrong, wrong), (right, wrong), (wrong, right)):
        with pytest.raises(TypeError, match=message):
            sum_of(*operands)
    sum_of(right, right)


@pytest.mark.parametrize(
    "wrong",
    [fld("A B A B", {"A": 0, "B": 1}), DoubleChordDiagram(("A",), ("A",)), dlcd("A", "A")],
    ids=["linear", "double", "dlinear"],
)
def test_cuts_refuse_diagrams_of_another_kind(wrong):
    # a line used to be cut as if it were a circle; the two-word kinds
    # raised AttributeError.  The kind is checked before the arc.
    message = f"^expected FramedChordDiagram, got {type(wrong).__name__}$"
    for call in (
        lambda: cut_open(wrong, 1),
        lambda: cut_open(wrong, 9),
        lambda: cut_open(wrong, True),
        lambda: connected_sum_framed(wrong, 9, FREE_LOOP, 0),
        lambda: connected_sum_framed(FREE_LOOP, 0, wrong, True),
    ):
        with pytest.raises(TypeError, match=message):
            call()


def tagged_sum_linear(g1, g2):
    """The linear sum with every label tagged by its operand, ``(0, label)``
    or ``(1, label)``, and the tagged line canonicalized as a diagram."""
    word = tuple((0, lab) for lab in g1.word) + tuple((1, lab) for lab in g2.word)
    framing = {(0, lab): fr for lab, fr in g1.framing.items()}
    framing.update({(1, lab): fr for lab, fr in g2.framing.items()})
    return FramedLinearDiagram(word, framing).canonical()


def tagged_sum_dlinear(h1, h2):
    """The line-wise dlinear sum on tagged labels, as above."""
    word1 = tuple((0, lab) for lab in h1.word1) + tuple((1, lab) for lab in h2.word1)
    word2 = tuple((0, lab) for lab in h1.word2) + tuple((1, lab) for lab in h2.word2)
    return DoubleLinearDiagram(word1, word2).canonical()


def test_sums_match_the_tagged_label_oracle():
    linear = [[from_key(k) for k in enumerate_diagrams("linear", n)] for n in range(5)]
    pairs = [
        (g1, g2)
        for total in range(5)
        for n1 in range(total + 1)
        for g1 in linear[n1]
        for g2 in linear[total - n1]
    ]
    for g1, g2 in pairs:
        assert connected_sum_linear(g1, g2).key() == tagged_sum_linear(g1, g2).key()
    pool = [from_key(k) for n in range(4) for k in enumerate_diagrams("dlinear", n)]
    for h1 in pool:
        for h2 in pool:
            assert connected_sum_dlinear(h1, h2).key() == tagged_sum_dlinear(h1, h2).key()
    assert len(pairs) + len(pool) ** 2 == 19_681


# --- the search ----------------------------------------------------------------------


def test_no_witness_at_two_chords():
    assert search_counterexample(2) == ()


def test_witnesses_at_three_chords():
    witnesses = search_counterexample(3)
    assert len(witnesses) == 4
    for w in witnesses:
        assert w.w_values == (8, 24)
        assert {w.w_a, w.w_b} == {8, 24}
        assert w.d1.n + w.d2.n == 3
    first = witnesses[0]
    assert from_key(first.d1).word == ("A", "A")
    assert from_key(first.d1).framing == {"A": 1}
    assert from_key(first.d2).framing == {"A": 0, "B": 1}


def oracle_search(max_chords):
    """The search run on public objects: every sum is glued from the
    ``cut_open`` lines, checked against ``connected_sum_framed`` and weighed
    by ``weight(psi(...))``, with no memo."""
    witnesses = []
    for total in range(max_chords + 1):
        for n1 in range(total + 1):
            for k1 in enumerate_diagrams("framed", n1):
                d1 = from_key(k1)
                for k2 in enumerate_diagrams("framed", total - n1):
                    d2 = from_key(k2)
                    outcomes = []
                    for a1 in range(max(2 * d1.n, 1)):
                        for a2 in range(max(2 * d2.n, 1)):
                            lines = enumerate((cut_open(d1, a1), cut_open(d2, a2)))
                            tagged = [
                                ((i, lab), g.framing[lab]) for i, g in lines for lab in g.word
                            ]
                            glued = FramedChordDiagram([t for t, _ in tagged], dict(tagged))
                            s = connected_sum_framed(d1, a1, d2, a2)
                            assert s.key() == glued.key()
                            outcomes.append(((a1, a2), s.key(), weight(psi(s))))
                    values = tuple(sorted({w for _, _, w in outcomes}))
                    if len(values) > 1:
                        cuts_a, sum_a, w_a = outcomes[0]
                        cuts_b, sum_b, w_b = next(o for o in outcomes if o[2] != w_a)
                        witnesses.append(
                            SumWitness(k1, k2, cuts_a, cuts_b, sum_a, sum_b, w_a, w_b, values)
                        )
    return tuple(witnesses)


@pytest.mark.parametrize("max_chords", [3, 4])
def test_search_matches_the_public_object_oracle(max_chords):
    expected = oracle_search(max_chords)
    witnesses = search_counterexample(max_chords)
    assert witnesses == expected
    assert repr(witnesses) == repr(expected)


@pytest.mark.parametrize(
    "max_chords, count, digest",
    [
        (4, 54, "0f3aab48204cb65a239cd4035e4d43d28060621ddb0a5acbf8080ac23c1b5a2e"),
        (5, 638, "1c643b4e0e59fd60c001f53519db4f36007a10eec9587825378a3204107335f3"),
    ],
)
def test_search_is_pinned_beyond_the_oracle(max_chords, count, digest):
    # sha256 of the repr, recorded while every ordered pair was glued at
    # every cut pair; CI checks 6 chords the same way
    witnesses = search_counterexample(max_chords)
    assert len(witnesses) == count
    assert hashlib.sha256(repr(witnesses).encode()).hexdigest() == digest


def test_witness_quotient_split():
    witnesses = search_counterexample(3)
    for w in witnesses:
        assert witness_quotient_split(w)


def test_the_lattice_confirms_every_witness_at_four_chords():
    # quotient_equal answers a witness by its weight split alone; here the
    # integer span is asked directly, with no weight, and must agree
    witnesses = search_counterexample(4)
    assert len(witnesses) == 54
    for w in witnesses:
        difference = psi(from_key(w.sum_a)) - psi(from_key(w.sum_b))
        n = w.sum_a.n
        assert difference.degrees() == (n,)
        index, basis = _integer_lattice("double", n)
        assert _reduce({index[key]: coeff for key, coeff in difference.items()}, basis)


def lattice_calls():
    info = _integer_lattice.cache_info()
    return info.hits + info.misses


def test_the_pairs_the_weight_misses_are_split_by_the_lattice():
    # every ordered pair of up to four chords whose cut sums differ in the
    # quotient: the weight after psi splits 54 (the search's witnesses), and
    # four have sums of one weight that only the lattice tells apart
    witnessed = {(w.d1, w.d2) for w in search_counterexample(4)}
    split, missed = set(), set()
    for total in range(2, 5):
        for n1 in range(1, total):
            for k1 in enumerate_diagrams("framed", n1):
                d1 = from_key(k1)
                for k2 in enumerate_diagrams("framed", total - n1):
                    d2 = from_key(k2)
                    sums = {
                        connected_sum_framed(d1, a1, d2, a2).key(): None
                        for a1 in range(2 * d1.n)
                        for a2 in range(2 * d2.n)
                    }
                    first, *rest = [psi(from_key(key)) for key in sums]
                    for other in rest:
                        calls = lattice_calls()
                        if not quotient_equal(first, other):
                            split.add((k1, k2))
                            if (k1, k2) not in witnessed:
                                assert weight(first) == weight(other)
                                assert lattice_calls() > calls
                                missed.add((k1, k2))
    small = fcd("A A", {"A": 1}).key()
    large = [
        fcd("A B B A C C", {"A": 0, "B": 1, "C": 1}).key(),
        fcd("A A B C C B", {"A": 1, "B": 1, "C": 1}).key(),
    ]
    assert len(split) == 58
    assert len(witnessed) == 54
    assert split - missed == witnessed
    assert missed == {(small, k) for k in large} | {(k, small) for k in large}


def test_search_rejects_negative():
    with pytest.raises(ValueError):
        search_counterexample(-1)


@pytest.mark.parametrize("max_chords", [2.0, True, "2"])
def test_search_refuses_a_size_that_is_not_an_int(max_chords):
    # refused alike before and after the int it equals has filled the
    # enumeration cache
    message = f"^max_chords must be an int, got {max_chords!r}$"
    for _ in range(2):
        with pytest.raises(InvalidArgumentError, match=message):
            search_counterexample(max_chords)
        search_counterexample(2)


@pytest.mark.parametrize(
    "sweep, name",
    [("psi_mass", "max_n"), ("sum_symmetry", "max_total"), ("beta_additivity", "max_each")],
)
@pytest.mark.parametrize("size", [2.0, True, "2", -1])
def test_sweeps_refuse_a_size_that_is_not_a_nonnegative_int(sweep, name, size):
    if size == -1:
        message = f"^{name} must be nonnegative$"
    else:
        message = f"^{name} must be an int, got {size!r}$"
    with pytest.raises(InvalidArgumentError, match=message):
        getattr(verify, sweep)(size)
