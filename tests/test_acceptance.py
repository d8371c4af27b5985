"""Acceptance suite: one test per shipped claim, each printing a pass/fail
line (run with ``pytest -s`` to see them).

Every sweep here is exhaustive at its stated size and asserts zero failures;
the runtime bounds are asserted too.  A single relation convention (the one
implemented in :mod:`chordcalc.algebra`) passes all criteria simultaneously.
"""

import itertools
import random
import time
from contextlib import contextmanager

from chordcalc import verify
from chordcalc.algebra import ModuleElement, generate_4T, quotient_equal
from chordcalc.cli import format_diagram, format_element, main, parse
from chordcalc.diagrams import (
    DoubleChordDiagram,
    FramedChordDiagram,
    coproduct,
    enumerate_diagrams,
    from_key,
)
from chordcalc.intlinalg import _sparse_hnf
from chordcalc.parity import psi, psi_summands
from chordcalc.sums import search_counterexample
from chordcalc.surgery import smoothing_graph
from dense_hnf import dense_hnf
from union_find import components, graph_components


@contextmanager
def criterion(number, name):
    try:
        yield
    except Exception:
        print(f"criterion {number} ({name}): FAIL")
        raise
    print(f"criterion {number} ({name}): PASS")


def test_criterion_1_connected_sum_counterexample(capsys):
    with criterion(1, "connected-sum counterexample, w values 8 and 24"):
        start = time.monotonic()
        code = main(["find-counterexample", "--max-chords", "3"])
        elapsed = time.monotonic() - start
        out = capsys.readouterr().out
        assert elapsed < 60.0
        assert code == 0
        assert "values=8,24" in out
        assert "first-witness quotient-equal: false" in out

        witnesses = [w for w in search_counterexample(3) if w.w_values == (8, 24)]
        assert witnesses
        w = witnesses[0]
        assert {w.w_a, w.w_b} == {8, 24}
        lhs = psi(from_key(w.sum_a))
        rhs = psi(from_key(w.sum_b))
        assert not quotient_equal(lhs, rhs)


def test_criterion_2_double_2t_and_weight_kill():
    with criterion(2, "beta constant on 2T pairs and w kills 4T, double n<=4"):
        start = time.monotonic()
        for n in (2, 3, 4):
            two_t = verify.two_term_beta("double", n)
            assert two_t.checked > 0
            assert two_t.failures == ()
            kill = verify.weight_kill("double", n)
            assert kill.checked > 0
            assert kill.failures == ()
        assert time.monotonic() - start < 600.0


def test_criterion_3_psi_preserves_relations():
    with criterion(3, "psi of framed 4T generators lies in the double 4T span, n<=3"):
        start = time.monotonic()
        for n in (2, 3):
            kill, span = verify.psi_sweeps("framed", n)
            assert span.checked > 0
            assert span.failures == ()
            assert kill.failures == ()
        assert time.monotonic() - start < 600.0


def test_criterion_4_linear_analogues():
    with criterion(4, "linear 2T/weight-kill and psi_l span, n<=3"):
        for n in (2, 3):
            assert verify.two_term_beta("dlinear", n).failures == ()
            assert verify.weight_kill("dlinear", n).failures == ()
            kill, span = verify.psi_sweeps("linear", n)
            assert span.checked > 0
            assert span.failures == ()
            assert kill.failures == ()


def test_criterion_5_sum_symmetry_and_beta_additivity():
    with criterion(5, "w_l symmetric in the summands; beta deficit is 1 or 2"):
        sizes = ((3, 321, 2, 361), (4, 4305, 3, 15376))
        for max_total, sum_pairs, max_each, dlinear_pairs in sizes:
            symmetry = verify.sum_symmetry(max_total)
            assert symmetry.checked == sum_pairs
            assert symmetry.failures == ()
            additivity = verify.beta_additivity(max_each)
            assert additivity.checked == dlinear_pairs
            assert additivity.failures == ()


def test_criterion_6_psi_structure():
    with criterion(6, "psi mass is 2^n (n<=4); the 8-summand expansion"):
        mass = verify.psi_mass(4)
        assert mass.checked == 271
        assert mass.failures == ()

        # a three-chord diagram with framings (0, 0, 1) expands into exactly
        # eight summands; the framing-1 chord splits across the circles in
        # every one of them
        d = FramedChordDiagram(
            ("A", "B", "A", "C", "B", "C"), {"A": 0, "B": 0, "C": 1}
        )
        summands = list(psi_summands(d))
        assert len(summands) == 8
        for sides, split in summands:
            assert sides["C"][0] != sides["C"][1]
            assert sides["A"][0] == sides["A"][1]
            assert sides["B"][0] == sides["B"][1]
            assert split.n == 3
        assert psi(d).mass() == 8


def test_criterion_7_calibration_gate():
    with criterion(7, "degenerate generator is O - X + X - O; betas 3,1,1,3"):
        o_key = FramedChordDiagram(("A", "A", "B", "B"), {"A": 0, "B": 0}).key()
        x_key = FramedChordDiagram(("A", "B", "A", "B"), {"A": 0, "B": 0}).key()
        matches = [
            gen
            for gen in generate_4T("framed", 2)
            if gen.placements == (o_key, x_key, x_key, o_key)
            and gen.signs == (1, -1, 1, -1)
        ]
        assert matches
        assert all(gen.element.is_zero() for gen in matches)

        words = [("A", "B", "B", "A"), ("B", "A", "B", "A"), ("B", "A", "B", "A"), ("B", "B", "A", "A")]
        graphs = [smoothing_graph(DoubleChordDiagram(w, ())) for w in words]
        assert [components(g.node_count, g.gluings) for g in graphs] == [3, 1, 1, 3]
        # with the obligatory empty partner circle each count gains one
        assert [graph_components(g) for g in graphs] == [4, 2, 2, 4]


def _cli_corpus():
    texts = []
    for kind in ("framed", "double", "linear", "dlinear"):
        for n in range(3):
            texts.extend(format_diagram(k) for k in enumerate_diagrams(kind, n))
    texts += [
        "cd: Z0 Y1 Y1 Z0",
        "cd:B1  A0   B1 A0",
        "dlcd: | A A",
        "3 [cd: A1 A1] + -1 [cd: A0 A0]",
        "2 [dcd: A A |] + 2 [dcd: | B B]",
    ]
    return texts


def test_criterion_8_property_suites():
    with criterion(8, "coproduct laws, canonical completeness, HNF, round trips"):
        # coproduct cocommutativity and coassociativity, n <= 3
        for n in range(4):
            for key in enumerate_diagrams("framed", n):
                d = from_key(key)
                pairs = coproduct(d)
                assert pairs == {(b, a): c for (a, b), c in pairs.items()}
                left = {}
                right = {}
                for (a, b), c in pairs.items():
                    for (x, y), cc in coproduct(from_key(a)).items():
                        left[(x, y, b)] = left.get((x, y, b), 0) + c * cc
                    for (x, y), cc in coproduct(from_key(b)).items():
                        right[(a, x, y)] = right.get((a, x, y), 0) + c * cc
                assert left == right

        # canonical completeness: every raw word's key is enumerated, and
        # stays fixed under an explicit rotation plus relabelling
        for n in range(4):
            universe = set(enumerate_diagrams("framed", n))
            letters = [chr(ord("a") + i) for i in range(n)]
            raws = set(itertools.permutations(letters * 2))
            for word in raws:
                framing = {lab: (ord(lab) - ord("a")) % 2 for lab in letters}
                d = FramedChordDiagram(word, framing)
                assert d.key() in universe
                for r in (1, n):
                    rotated = word[r:] + word[:r]
                    renamed = tuple(lab.upper() for lab in rotated)
                    framing_up = {lab.upper(): fr for lab, fr in framing.items()}
                    assert FramedChordDiagram(renamed, framing_up).key() == d.key()

        # HNF on 200 random matrices: the sparse basis is the nonzero rows
        # of the dense oracle's H
        rng = random.Random(20240817)
        for _ in range(200):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 7)
            a = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
            basis = _sparse_hnf({c: x for c, x in enumerate(row) if x} for row in a)
            h = [[row.get(c, 0) for c in range(cols)] for row in basis.values()]
            assert h == [row for row in dense_hnf(a, cols) if any(row)]

        # CLI round trips on at least 50 inputs
        corpus = _cli_corpus()
        assert len(corpus) >= 50
        for text in corpus:
            value = parse(text)
            once = (
                format_element(value)
                if isinstance(value, ModuleElement)
                else format_diagram(value)
            )
            again = parse(once)
            twice = (
                format_element(again)
                if isinstance(again, ModuleElement)
                else format_diagram(again)
            )
            assert once == twice
