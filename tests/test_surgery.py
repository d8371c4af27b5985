"""Smoothing graphs, component counts, and the weight system.

The component counts of the worked single-circle words are recomputed with a
local union-find acting directly on in/out nodes, independent of the library
builder, before being compared against it.
"""

import random

import pytest

from chordcalc.algebra import KindMismatchError, ModuleElement, generate_2T_pairs, generate_4T
from chordcalc.diagrams import (
    CanonicalKey,
    DoubleChordDiagram,
    DoubleLinearDiagram,
    FramedChordDiagram,
    InvalidDiagramError,
    enumerate_diagrams,
    from_key,
)
from chordcalc.surgery import (
    SmoothingGraph,
    _beta_of_key,
    beta,
    beta_framed,
    smoothing_graph,
    weight,
)


def dcd(w1, w2):
    return DoubleChordDiagram(tuple(w1.split()), tuple(w2.split()))


def dlcd(w1, w2):
    return DoubleLinearDiagram(tuple(w1.split()), tuple(w2.split()))


# --- oracle: hand-style union-find trace over one cyclic word ----------------


def circle_components(word):
    """Components of the coherent smoothing of chords on one circle."""
    word = tuple(word)
    m = len(word)
    nodes = {}

    def node(name):
        return nodes.setdefault(name, len(nodes))

    edges = []
    for p in range(m):
        edges.append((node(("out", p)), node(("in", (p + 1) % m))))
    where = {}
    for p, lab in enumerate(word):
        where.setdefault(lab, []).append(p)
    for lab, (p, q) in where.items():
        edges.append((node(("in", p)), node(("out", q))))
        edges.append((node(("in", q)), node(("out", p))))
    parent = list(range(len(nodes)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return len({find(i) for i in range(len(nodes))})


# --- smoothing graph structure -------------------------------------------------


def test_graph_of_two_free_loops():
    g = smoothing_graph(dcd("", ""))
    assert g.node_count == 0
    assert g.gluings == ()
    assert g.free_loops == 2
    assert g.component_count() == 2


def test_graph_of_one_joining_chord():
    # endpoints: 0 on circle 1, 1 on circle 2; in = 2e, out = 2e + 1
    g = smoothing_graph(dcd("A", "A"))
    assert g.node_count == 4
    assert set(map(frozenset, g.gluings)) == {
        frozenset({1, 0}),  # arc around circle 1: out(p) ~ in(p)
        frozenset({3, 2}),  # arc around circle 2
        frozenset({0, 3}),  # chord: in(p) ~ out(q)
        frozenset({2, 1}),  # chord: in(q) ~ out(p)
    }
    assert g.free_loops == 0


def test_graph_of_chord_plus_free_loop():
    g = smoothing_graph(dcd("A A", ""))
    assert g.node_count == 4
    assert set(map(frozenset, g.gluings)) == {
        frozenset({1, 2}),  # arc p -> q
        frozenset({3, 0}),  # arc q -> p
        frozenset({0, 3}),  # chord in(p) ~ out(q)
        frozenset({2, 1}),  # chord in(q) ~ out(p)
    }
    assert g.free_loops == 1
    assert g.component_count() == 3


def test_every_node_in_one_arc_and_one_chord_gluing():
    for n in range(4):
        for key in enumerate_diagrams("double", n):
            d = from_key(key)
            g = smoothing_graph(d)
            endpoints = len(d.word1) + len(d.word2)
            arc_like = g.gluings[:endpoints]  # builder appends arcs first
            chord_like = g.gluings[endpoints:]
            assert len(chord_like) == endpoints
            arc_seen = [0] * g.node_count
            chord_seen = [0] * g.node_count
            for a, b in arc_like:
                arc_seen[a] += 1
                arc_seen[b] += 1
            for a, b in chord_like:
                chord_seen[a] += 1
                chord_seen[b] += 1
            assert all(c == 1 for c in arc_seen)
            assert all(c == 1 for c in chord_seen)


# --- beta ------------------------------------------------------------------------


def test_beta_examples():
    assert beta(dcd("", "")) == 2
    assert beta(dcd("A", "A")) == 1
    assert beta(dcd("A A", "")) == 3
    assert beta(dcd("A B", "A B")) == 2


def test_beta_positive_everywhere():
    for kind in ("double", "dlinear"):
        for n in range(4):
            for key in enumerate_diagrams(kind, n):
                assert beta(from_key(key)) >= 1


def test_single_circle_calibration_values():
    # the four parks of one endpoint around the other chord; the hand traces
    # give 3, 1, 1, 3 on the circle itself (one more with the empty partner)
    words = ["A B B A", "B A B A", "B A B A", "B B A A"]
    assert [circle_components(w.split()) for w in words] == [3, 1, 1, 3]
    graphs = [smoothing_graph(dcd(w, "")) for w in words]
    assert [g.node_components() for g in graphs] == [3, 1, 1, 3]
    assert [g.component_count() for g in graphs] == [4, 2, 2, 4]


def test_beta_matches_circle_oracle():
    for key in enumerate_diagrams("double", 3):
        d = from_key(key)
        if d.word2:
            continue  # oracle handles a single occupied circle
        assert beta(d) == circle_components(d.word1) + 1


def test_beta_disjoint_pieces_add():
    words = ["A A", "A B A B", "A B B A", "A"]
    for u in words[:3]:
        for v in words[:3]:
            relabeled = " ".join(lab.lower() for lab in v.split())
            assert beta(dcd(u, relabeled)) == beta(dcd(u, "")) + beta(dcd(relabeled, "")) - 2


@pytest.mark.parametrize("kind, max_n", [("double", 5), ("dlinear", 4)])
def test_walk_matches_the_smoothing_graph_on_every_key(kind, max_n):
    # the union-find over the built pairing is the oracle of the walk that
    # beta and the weight run on diagram words and on key payloads
    for n in range(max_n + 1):
        for key in enumerate_diagrams(kind, n):
            d = from_key(key)
            expected = smoothing_graph(d).component_count()
            assert _beta_of_key(key) == expected, key
            assert beta(d) == expected, key


def test_beta_2t_invariance_small():
    for kind, degrees in (("double", (2, 3)), ("dlinear", (2, 3))):
        for n in degrees:
            for p, q in generate_2T_pairs(kind, n):
                assert beta(from_key(p)) == beta(from_key(q))


# --- dlinear specifics -------------------------------------------------------------


def test_dlinear_free_ends():
    g = smoothing_graph(dlcd("A A", "B B"))
    assert g.free_loops == 0
    assert len(g.free_ends) == 4  # one in and one out per nonempty line
    assert beta(dlcd("A A", "B B")) == 4


def test_dlinear_nodes_in_at_most_two_gluings():
    for n in range(4):
        for key in enumerate_diagrams("dlinear", n):
            g = smoothing_graph(from_key(key))
            seen = [0] * g.node_count
            for a, b in g.gluings:
                seen[a] += 1
                seen[b] += 1
            assert all(c <= 2 for c in seen)
            # line extremities carry only their chord gluing
            assert all(seen[e] == 1 for e in g.free_ends)


def test_dlinear_beta_examples():
    assert beta(dlcd("", "")) == 2
    assert beta(dlcd("A", "A")) == 2
    assert beta(dlcd("A B", "A B")) == 2


def test_chordless_line_counts_once():
    assert beta(dlcd("A A", "")) == 3


# --- framed surgery ------------------------------------------------------------------


def test_beta_framed_examples():
    assert beta_framed(FramedChordDiagram(("A", "A"), {"A": 0})) == 2
    assert beta_framed(FramedChordDiagram(("A", "A"), {"A": 1})) == 1
    assert beta_framed(FramedChordDiagram((), {})) == 1


def test_beta_framed_constant_on_slide_pairs():
    # the framed slide family (with the framing flip across a half-twisted
    # target) is exactly what keeps the framed surgery count invariant
    for n in (2, 3):
        for gen in generate_4T("framed", n):
            for p, q in gen.slide_pairs:
                assert beta_framed(from_key(p)) == beta_framed(from_key(q))


def framed_band_graph(d):
    """The band rule of docs/surgery-notes.md built by hand on one circle,
    node ``2p`` the in and ``2p + 1`` the out side of endpoint ``p``."""
    m = len(d.word)
    gluings = [(2 * p + 1, 2 * ((p + 1) % m)) for p in range(m)]  # out(p) ~ in(p + 1)
    where = {}
    for p, lab in enumerate(d.word):
        where.setdefault(lab, []).append(p)
    for lab, (p, q) in where.items():
        if d.framing[lab] == 0:  # in(p) ~ out(q), in(q) ~ out(p)
            gluings += [(2 * p, 2 * q + 1), (2 * q, 2 * p + 1)]
        else:  # the half-twisted band: in(p) ~ in(q), out(p) ~ out(q)
            gluings += [(2 * p, 2 * q), (2 * p + 1, 2 * q + 1)]
    return SmoothingGraph(2 * m, tuple(gluings), 0 if m else 1)


def test_beta_framed_matches_the_band_graph_on_every_key():
    # beta_framed walks the orientation double cover; the union-find over the
    # band gluings is its oracle, on keys and on rotated, relabelled words
    rng = random.Random(7)
    for n in range(6):
        for key in enumerate_diagrams("framed", n):
            d = from_key(key)
            assert beta_framed(d) == framed_band_graph(d).component_count(), key
            r = rng.randrange(max(2 * n, 1))
            names = dict(zip(d.framing, rng.sample(range(100), n)))
            moved = FramedChordDiagram(
                [names[lab] for lab in d.word[r:] + d.word[:r]],
                {names[lab]: fr for lab, fr in d.framing.items()},
            )
            assert beta_framed(moved) == framed_band_graph(moved).component_count(), key


def test_beta_framed_rejects_other_kinds():
    with pytest.raises(TypeError):
        beta_framed(dcd("A A", ""))


# --- weight ---------------------------------------------------------------------------


def test_weight_zero():
    assert weight(ModuleElement.zero("double")) == 0


def test_weight_scales():
    u = 3 * ModuleElement.single(dcd("A", "A").key())
    assert weight(u) == 3


def test_weight_linear():
    a = ModuleElement.single(dcd("A A", "").key())
    b = ModuleElement.single(dcd("A B", "A B").key())
    assert weight(2 * a + (-1) * b) == 2 * 3 - 2


def test_weight_kind_restricted():
    with pytest.raises(KindMismatchError):
        weight(ModuleElement.single(FramedChordDiagram(("A", "A"), {"A": 0}).key()))


@pytest.mark.parametrize(
    "payload, error",
    [
        (((1,), ()), InvalidDiagramError),
        (((1, 1, 1), (2, 2)), InvalidDiagramError),
        (((1, 2, 1),), InvalidDiagramError),
        ((("A", "A"), ()), ValueError),
        (((0, 0), ()), ValueError),
        (((1, 1, 1, 1), ()), InvalidDiagramError),
        (((1, 1), (1, 1)), InvalidDiagramError),
        (((True, True), ()), ValueError),
        (((-1, -1), ()), ValueError),
        # both malformed: the count is checked first
        (((1,), ("A", "A")), InvalidDiagramError),
        (((1, True), ()), ValueError),
    ],
)
def test_weight_refuses_a_malformed_key(payload, error):
    # the key refuses to be built, whatever weight has cached: (True, True)
    # equals (1, 1)
    for kind in ("double", "dlinear"):
        with pytest.raises(ValueError) as raised:
            weight(ModuleElement(kind, [(CanonicalKey(kind, payload), 1)]))
        # InvalidDiagramError subclasses ValueError, so the class must match
        assert type(raised.value) is error


def test_weight_names_what_is_malformed():
    cases = [
        (((1, 1, 1, 1), (2,)), "every chord label must occur exactly twice; offending labels: 1, 2"),
        (((2, 2), ("A", "A", 0, 0)), "labels are numbered from 1, got 'A'"),
    ]
    for payload, message in cases:
        with pytest.raises(ValueError) as raised:
            weight(ModuleElement("double", [(CanonicalKey("double", payload), 1)]))
        assert str(raised.value) == message


def test_weight_kills_4t_generators_small():
    for kind in ("double", "dlinear"):
        for n in (2, 3):
            for gen in generate_4T(kind, n):
                assert weight(gen.element) == 0
