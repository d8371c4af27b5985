"""Seeded input generator for the chordcalc benchmark.

    python3 perfbench/gen.py --workload decide --seed 7 [--size tiny]

Runs in its own process, before any worker starts, and prints one JSON
object.  ``input`` is the text handed to the worker: one command per line,
its arguments separated by tabs and written in the chordcalc CLI grammar.
``expected`` has one entry per line and holds what the client checks the
worker's answers against.  Every expectation is established here without
the lattice engine that answers ``quotient_equal``:

* a true ``decide`` pair is ``v = u + sum c_i g_i`` with 4T generators g_i,
  drawn after sorting the generators by their terms, so the inputs depend on
  the seed and the relation set, not on the order the library yields them in;
* a false ``decide`` pair is certified by a weight functional that kills
  every 4T relation and is nonzero on ``u - v`` (``weight`` for double and
  dlinear, ``weight`` after the parity map for framed and linear); the
  certificate holds over Z and Q alike;
* ``expand`` answers must have mass 2^n, and a rotated and relabelled copy of
  a sampled input must give the same answer;
* ``search`` must find 54 witnesses at four chords, ``(8, 24)`` among their
  weight values, each unequal under ``quotient_equal``.
"""

from __future__ import annotations

import argparse
import json
import random
import string
import sys
from functools import lru_cache
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from chordcalc import (  # noqa: E402
    FramedChordDiagram,
    FramedLinearDiagram,
    ModuleElement,
    enumerate_diagrams,
    generate_4T,
    psi_l_module,
    psi_module,
    weight,
)

# (field, kind, top degree) in the order their cold decisions run.  Linear and
# dlinear stop at degree 3 and framed has no Q group: the Z lattices of linear
# n=4 and dlinear n=4 take about 299 s and 15 s to build, the Q lattice of
# framed n=4 about 10 s, which no run of this benchmark can afford.
DECIDE_GROUPS = {
    "full": (
        ("Z", "framed", 4),
        ("Z", "double", 4),
        ("Z", "linear", 3),
        ("Z", "dlinear", 3),
        ("Q", "double", 4),
        ("Q", "linear", 3),
        ("Q", "dlinear", 3),
    ),
    "tiny": (
        ("Z", "framed", 3),
        ("Z", "double", 3),
        ("Z", "linear", 2),
        ("Z", "dlinear", 2),
        ("Q", "double", 3),
        ("Q", "linear", 2),
        ("Q", "dlinear", 2),
    ),
}
DECIDE_WARM_PER_GROUP = {"full": 100, "tiny": 1}  # of each answer, true and false
EXPAND_DEGREES = {"full": (5, 6, 7), "tiny": (3, 4)}
EXPAND_PER_CLASS = {"full": 60, "tiny": 3}
EXPAND_COPY_SHARE = 6  # one input in this many gets a rotated, relabelled copy
SEARCH_MAX_CHORDS = {"full": 4, "tiny": 3}
SEARCH_WITNESSES = {4: 54, 3: 4}

COEFFS = (-3, -2, -1, 1, 2, 3)
_PREFIX = {"framed": "cd", "double": "dcd", "linear": "lcd", "dlinear": "dlcd"}
# Two-letter labels: valid in every kind, and never ending in a framing digit.
_LABELS = [a + b for a in string.ascii_uppercase for b in string.ascii_lowercase]


def diagram_text(rng, key):
    """CLI text of the diagram of ``key`` with fresh random labels, circle
    words rotated at random and the two circles of a double diagram swapped
    at random, so that parsing has to canonicalize."""
    kind = key.kind
    if kind in ("framed", "linear"):
        nums = [num for num, _ in key.payload]
        framing = dict(key.payload)
        words = [nums]
    else:
        words = [list(key.payload[0]), list(key.payload[1])]
    chords = sorted({num for word in words for num in word})
    name = dict(zip(chords, rng.sample(_LABELS, len(chords))))
    if kind in ("framed", "double"):
        words = [_rotated(rng, word) for word in words]
    if kind == "double" and rng.random() < 0.5:
        words.reverse()
    if kind in ("framed", "linear"):
        body = " ".join(f"{name[num]}{framing[num]}" for num in words[0])
    else:
        body = " | ".join(" ".join(name[num] for num in word) for word in words)
    return f"{_PREFIX[kind]}: {body}".rstrip()


def _rotated(rng, word):
    if not word:
        return word
    r = rng.randrange(len(word))
    return word[r:] + word[:r]


def element_text(rng, kind, terms):
    """CLI text of the integer combination ``terms`` (key -> coefficient)."""
    if not terms:
        return f"0 [{_PREFIX[kind]}: {'|' if kind in ('double', 'dlinear') else ''}]"
    items = sorted(terms.items())
    rng.shuffle(items)
    return " + ".join(f"{c} [{diagram_text(rng, key)}]" for key, c in items)


def _add(terms, items, scale):
    for key, c in items:
        new = terms.get(key, 0) + scale * c
        if new:
            terms[key] = new
        else:
            terms.pop(key, None)


@lru_cache(maxsize=None)
def relations(kind, n):
    """The nonzero degree-n 4T generators as term tuples, sorted by terms."""
    return sorted(g.element.items() for g in generate_4T(kind, n, include_zero=False))


def functional(kind, terms):
    """A weight functional that kills every 4T relation of ``kind``."""
    element = ModuleElement(kind, terms)
    if kind == "framed":
        element = psi_module(element)
    elif kind == "linear":
        element = psi_l_module(element)
    return weight(element)


def _random_terms(rng, kind, degrees, count):
    terms = {}
    for _ in range(count):
        key = rng.choice(enumerate_diagrams(kind, rng.choice(degrees)))
        _add(terms, [(key, rng.choice(COEFFS))], 1)
    return terms


def decide_pair(rng, kind, top, truth, every_degree=False):
    """``(u, v, certificate)``; ``certificate`` is the functional's value on
    ``v - u`` for a false pair and None for a true one."""
    rel_degrees = [n for n in range(2, top + 1) if relations(kind, n)]
    u = _random_terms(rng, kind, list(range(top + 1)), 2)
    v = dict(u)
    chosen = rel_degrees if every_degree else [rng.choice(rel_degrees) for _ in range(2)]
    for n in chosen:
        _add(v, rng.choice(relations(kind, n)), rng.choice(COEFFS))
    if truth:
        return u, v, None
    while True:
        e = _random_terms(rng, kind, rel_degrees, 1)
        if functional(kind, e):
            break
    _add(v, e.items(), 1)
    difference = dict(v)
    _add(difference, u.items(), -1)
    certificate = functional(kind, difference)
    if certificate != functional(kind, e):
        raise AssertionError("the weight functional does not kill the relations")
    return u, v, certificate


def gen_decide(rng, size):
    groups = DECIDE_GROUPS[size]
    # The cold pair of each group is true and touches every degree that has
    # relations, so it builds every lattice its group needs; quotient_equal
    # stops at the first degree that fails, so a false pair could not.  Later
    # pairs differ only in those degrees and never build a lattice.
    plan = [(group, True, True) for group in groups]
    # Every seed gets as many true and false pairs of each group, because a Q
    # decision costs several Z decisions.
    warm = [
        (group, truth, False)
        for group in groups
        for truth in (True, False)
        for _ in range(DECIDE_WARM_PER_GROUP[size])
    ]
    rng.shuffle(warm)
    lines, expected = [], []
    for (field, kind, top), truth, cold in plan + warm:
        u, v, certificate = decide_pair(rng, kind, top, truth, every_degree=cold)
        args = ["quotient-eq", element_text(rng, kind, u), element_text(rng, kind, v)]
        if field == "Q":
            args.append("--rational")
        lines.append("\t".join(args))
        expected.append(
            {
                "group": f"{field} {kind}",
                "cold": cold,
                "answer": "true" if truth else "false",
                "certificate": certificate,
            }
        )
    return lines, expected


def random_diagram(rng, n):
    """``(word, framing)`` of a uniformly random labelled framed diagram."""
    slots = list(range(2 * n))
    rng.shuffle(slots)
    labels = rng.sample(_LABELS, n)
    word = [None] * (2 * n)
    for i, lab in enumerate(labels):
        word[slots[2 * i]] = word[slots[2 * i + 1]] = lab
    return word, {lab: rng.randint(0, 1) for lab in labels}


def framed_text(kind, word, framing):
    return f"{_PREFIX[kind]}: " + " ".join(f"{lab}{framing[lab]}" for lab in word)


def gen_expand(rng, size):
    classes = [
        (command, kind, n)
        for command, kind in (("psi", "framed"), ("psil", "linear"))
        for n in EXPAND_DEGREES[size]
    ]
    seen = set()
    probes, inputs = [], []
    for command, kind, n in classes:
        cls = FramedChordDiagram if kind == "framed" else FramedLinearDiagram
        # The first input of each class is the same for every seed, so the
        # cold first answers measure the same work in every run.
        probe_rng = random.Random(f"probe {kind} {n}")
        for i in range(EXPAND_PER_CLASS[size]):
            source = probe_rng if i == 0 else rng
            while True:
                word, framing = random_diagram(source, n)
                key = cls(word, framing).key()
                if key not in seen:
                    break
            seen.add(key)
            item = (command, kind, n, word, framing)
            (probes if i == 0 else inputs).append(item)
    rng.shuffle(inputs)
    items = probes + inputs
    roles = [("probe", None)] * len(probes) + [("input", None)] * len(inputs)
    copied = sorted(rng.sample(range(len(probes), len(items)), len(inputs) // EXPAND_COPY_SHARE))
    for index in copied:
        command, kind, n, word, framing = items[index]
        if kind == "framed":
            word = _rotated(rng, word)
        rename = dict(zip(sorted(framing), rng.sample(_LABELS, len(framing))))
        items.append(
            (command, kind, n, [rename[lab] for lab in word],
             {rename[lab]: fr for lab, fr in framing.items()})
        )
        roles.append(("copy", index))
    lines, expected = [], []
    for (command, kind, n, word, framing), (role, copy_of) in zip(items, roles):
        lines.append(f"{command}\t{framed_text(kind, word, framing)}")
        expected.append({"role": role, "class": f"{kind} {n}", "n": n, "copy_of": copy_of})
    return lines, expected


def gen_search(rng, size):
    max_chords = SEARCH_MAX_CHORDS[size]
    lines = [f"find-counterexample\t--max-chords\t{max_chords}"]
    expected = [{"witnesses": SEARCH_WITNESSES[max_chords], "values": [8, 24]}]
    return lines, expected


GENERATORS = {"decide": gen_decide, "expand": gen_expand, "search": gen_search}


def generate(workload, seed, size="full"):
    rng = random.Random(f"{workload} {seed}")
    lines, expected = GENERATORS[workload](rng, size)
    return {"input": "\n".join(lines) + "\n", "expected": expected}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    args = parser.parse_args(argv)
    json.dump(generate(args.workload, args.seed, args.size), sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
