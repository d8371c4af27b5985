"""Property tests on random diagrams beyond the exhaustively enumerated
degrees: canonical keys are invariant under the isomorphisms of each kind,
and the surgery walk counts what the smoothing graph counts."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from chordcalc.diagrams import (  # noqa: E402
    DoubleChordDiagram,
    DoubleLinearDiagram,
    FramedChordDiagram,
)
from chordcalc.surgery import _beta_of_key, beta, smoothing_graph  # noqa: E402

MAX_CHORDS = 8
SETTINGS = hypothesis.settings(max_examples=300, deadline=None)


@st.composite
def double_diagrams(draw):
    n = draw(st.integers(0, MAX_CHORDS))
    word = draw(st.permutations([c for c in range(n) for _ in (0, 1)]))
    split = draw(st.integers(0, 2 * n))
    return word[:split], word[split:]


def rotate(word, r):
    if not word:
        return word
    r %= len(word)
    return word[r:] + word[:r]


@SETTINGS
@hypothesis.given(
    double_diagrams(),
    st.integers(0, 2 * MAX_CHORDS),
    st.integers(0, 2 * MAX_CHORDS),
    st.booleans(),
    st.randoms(use_true_random=False),
)
def test_double_key_invariant_under_rotation_relabel_and_exchange(words, r1, r2, swap, rng):
    w1, w2 = words
    chords = sorted(set(w1) | set(w2))
    rename = dict(zip(chords, rng.sample([f"x{i}" for i in range(3 * MAX_CHORDS)], len(chords))))
    v1 = tuple(rename[c] for c in rotate(w1, r1))
    v2 = tuple(rename[c] for c in rotate(w2, r2))
    if swap:
        v1, v2 = v2, v1
    assert DoubleChordDiagram(v1, v2).key() == DoubleChordDiagram(w1, w2).key()


@SETTINGS
@hypothesis.given(
    st.integers(0, MAX_CHORDS).flatmap(
        lambda n: st.tuples(
            st.permutations([c for c in range(n) for _ in (0, 1)]),
            st.lists(st.integers(0, 1), min_size=n, max_size=n),
        )
    ),
    st.integers(0, 2 * MAX_CHORDS),
    st.randoms(use_true_random=False),
)
def test_framed_key_invariant_under_rotation_and_relabel(diagram, r, rng):
    word, framings = diagram
    word = tuple(word)
    chords = sorted(set(word))
    rename = dict(zip(chords, rng.sample([f"x{i}" for i in range(3 * MAX_CHORDS)], len(chords))))
    framing = {c: framings[c] for c in chords}
    other = FramedChordDiagram(
        tuple(rename[c] for c in rotate(word, r)), {rename[c]: fr for c, fr in framing.items()}
    )
    assert other.key() == FramedChordDiagram(word, framing).key()


@SETTINGS
@hypothesis.given(double_diagrams(), st.booleans())
def test_walk_counts_the_smoothing_graph_components(words, lines):
    # the split puts either word's share anywhere from nothing to every
    # endpoint, so empty circles and lines and chords joining the two words
    # are all drawn
    cls = DoubleLinearDiagram if lines else DoubleChordDiagram
    d = cls(*words)
    expected = smoothing_graph(d).component_count()
    assert beta(d) == expected
    assert _beta_of_key(d.key()) == expected
