"""The text grammar, command dispatch, exit codes, and output determinism."""

import hashlib
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from chordcalc import cli, verify
from chordcalc.algebra import ModuleElement, generate_2T_pairs, generate_4T
from chordcalc.cli import (
    ParseError,
    format_diagram,
    format_element,
    main,
    parse,
)
from chordcalc.diagrams import (
    CanonicalKey,
    DoubleChordDiagram,
    DoubleLinearDiagram,
    FramedChordDiagram,
    FramedLinearDiagram,
    InvalidArgumentError,
    enumerate_diagrams,
    from_key,
)
from chordcalc.parity import parity_module, psi, psi_l, psi_module
from chordcalc.surgery import weight


# --- parsing -----------------------------------------------------------------


def test_parse_framed():
    d = parse("cd: A0 B1 A0 B1")
    assert isinstance(d, FramedChordDiagram)
    assert d.n == 2
    assert d.key() == FramedChordDiagram(("x", "y", "x", "y"), {"x": 0, "y": 1}).key()


def test_parse_double():
    d = parse("dcd: A B | A B")
    assert isinstance(d, DoubleChordDiagram)
    assert d.key() == DoubleChordDiagram(("u", "v"), ("u", "v")).key()


def test_parse_element():
    e = parse("3 [cd: A1 A1] + -1 [cd: A0 A0]")
    assert isinstance(e, ModuleElement)
    assert e.kind == "framed"
    assert len(e) == 2
    assert e.mass() == 4


def test_parse_element_aggregates():
    e = parse("2 [dcd: A A |] + 2 [dcd: | B B]")
    assert len(e) == 1
    assert e.mass() == 4


def test_parse_empty_diagrams():
    assert parse("cd:").n == 0
    assert parse("dcd: |").n == 0
    assert parse("lcd:").n == 0


def test_parse_is_whitespace_insensitive():
    assert format_element(parse("3[cd: A1 A1]+-1[cd:A0 A0]")) == format_element(
        parse("3 [cd: A1 A1] + -1 [cd: A0 A0]")
    )


PUBLIC_CLASS = {
    "cd": FramedChordDiagram,
    "lcd": FramedLinearDiagram,
    "dcd": DoubleChordDiagram,
    "dlcd": DoubleLinearDiagram,
}


def random_diagram_text(rng, prefix):
    """A random diagram text and the public diagram it spells."""
    labels = rng.sample(["A", "B", "Cx", "D2", "e", "Fq9", "G"], rng.randint(0, 4))
    word = labels * 2
    rng.shuffle(word)
    cls = PUBLIC_CLASS[prefix]
    if prefix in ("cd", "lcd"):
        framing = {lab: rng.randint(0, 1) for lab in labels}
        tokens = [f"{lab}{framing[lab]}" for lab in word]
        return " ".join([prefix + ":"] + tokens), cls(word, framing)
    split = rng.randint(0, len(word))
    text = " ".join([prefix + ":"] + word[:split] + ["|"] + word[split:])
    return text, cls(word[:split], word[split:])


def test_parse_matches_term_by_term_construction():
    rng = random.Random(5)
    for _ in range(300):
        prefix = rng.choice(sorted(PUBLIC_CLASS))
        terms = [
            (rng.randint(-3, 3),) + random_diagram_text(rng, prefix)
            for _ in range(rng.randint(1, 4))
        ]
        text = " + ".join(f"{coeff} [{body}]" for coeff, body, _ in terms)
        expected = ModuleElement(terms[0][2].kind, [(d.key(), c) for c, _, d in terms])
        assert parse(text) == expected, text
        _, body, d = terms[0]
        parsed = parse(body)
        assert type(parsed) is type(d)
        assert repr(parsed) == repr(d.canonical()), body


def test_parse_error_columns():
    with pytest.raises(ParseError) as err:
        parse("cd: A0 A1")
    assert err.value.column == 8
    with pytest.raises(ParseError) as err:
        parse("dcd: A0 | A0")
    assert err.value.column == 6
    with pytest.raises(ParseError) as err:
        parse("cd: A0")  # second occurrence missing
    assert "exactly twice" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse("cd: A B A B")  # framing digits mandatory
    assert err.value.column == 5
    with pytest.raises(ParseError) as err:
        parse("dcd: A A")  # missing the circle separator
    assert "'|'" in str(err.value)
    with pytest.raises(ParseError):
        parse("dcd: A | A | B")
    with pytest.raises(ParseError):
        parse("xyz: A0 A0")
    with pytest.raises(ParseError):
        parse("cd: 9A0")
    with pytest.raises(ParseError):
        parse("3 cd: A0 A0")
    with pytest.raises(ParseError):
        parse("1 [cd: A0 A0] + 1 [dcd: B B |]")  # kinds must agree
    with pytest.raises(ParseError):
        parse("")


# Every ParseError branch, with the message and column it reports; checks
# that several branches could fire for are made in this order.
LIMIT = sys.get_int_max_str_digits()  # the most digits int() converts
PARSE_ERRORS = [
    ("cd: A B A B", "token 'A' is missing its framing digit", 5),
    ("lcd: A0 B A0 B1", "token 'B' is missing its framing digit", 9),
    ("cd: 0", "token '0' is missing its framing digit", 5),
    ("cd: A2 A2", "token 'A2' is missing its framing digit", 5),
    ("cd: 9A0", "bad chord label '9A'", 5),
    ("lcd: A_0 A_0", "bad chord label 'A_'", 6),
    ("dcd: 9A | 9A", "bad chord label '9A'", 6),
    ("dlcd: A | A+", "bad chord label 'A+'", 11),
    ("cd: A0 A1", "framing mismatch for chord 'A': 1 here, 0 at column 5", 8),
    ("lcd: A0 B1 A1 B1", "framing mismatch for chord 'A': 1 here, 0 at column 6", 12),
    ("2 [cd: X1 X0]", "framing mismatch for chord 'X': 0 here, 1 at column 8", 11),
    ("cd: A0", "every chord must occur exactly twice; offending labels: A", 6),
    ("cd: A0 B0 C0 A0", "every chord must occur exactly twice; offending labels: B, C", 15),
    ("lcd: A0 A0 A0", "every chord must occur exactly twice; offending labels: A", 13),
    ("dcd: A B B | C", "every chord must occur exactly twice; offending labels: A, C", 14),
    ("dlcd: Ab Ab Bc | Bc Ca", "every chord must occur exactly twice; offending labels: Ca", 22),
    ("1 [dcd: A | B]", "every chord must occur exactly twice; offending labels: A, B", 13),
    ("dcd: A0 | A0", "token 'A0' ends in a framing digit, which double-kind labels may not", 6),
    ("dlcd: | X1 X1", "token 'X1' ends in a framing digit, which double-kind labels may not", 9),
    ("cd: A0 | A0", "'|' is not allowed in a cd diagram", 8),
    ("lcd: |", "'|' is not allowed in a lcd diagram", 6),
    ("dcd: A A", "a dcd diagram needs one '|'", 9),
    ("dlcd:", "a dlcd diagram needs one '|'", 6),
    ("dcd: A | A | B", "only one '|' is allowed", 12),
    ("dlcd: || ", "only one '|' is allowed", 8),
    ("xyz: A0 A0", "expected a diagram prefix cd:, lcd:, dcd:, or dlcd:", 1),
    ("  cd A0 A0", "expected a diagram prefix cd:, lcd:, dcd:, or dlcd:", 3),
    ("1 [  xcd: ]", "expected a diagram prefix cd:, lcd:, dcd:, or dlcd:", 6),
    ("3 cd: A0 A0", "expected '[' after the coefficient", 3),
    ("1 [cd: A0 A0] + 2 (cd:)", "expected '[' after the coefficient", 19),
    ("1 [cd: A0 A0", "unclosed '['", 3),
    ("1 [cd:] + 2 [cd: A0", "unclosed '['", 13),
    ("1 [cd: A0 A0] 2 [cd:]", "expected '+' between terms", 15),
    ("1 [cd:] x", "expected '+' between terms", 9),
    ("1 [cd: A0 A0] +", "expected an integer coefficient", 16),
    ("- [cd:]", "expected an integer coefficient", 1),
    ("1 [cd:] + + 1 [cd:]", "expected an integer coefficient", 11),
    ("1 [cd: A0 A0] + 1 [dcd: B B |]", "kind mismatch: double term in a framed element", 20),
    ("1 [lcd:] + 2 [cd:]", "kind mismatch: framed term in a linear element", 15),
    ("", "empty input", 1),
    ("   ", "empty input", 4),
    ("cd: A B | A", "'|' is not allowed in a cd diagram", 9),
    ("dcd: A0 | A0 | B", "only one '|' is allowed", 14),
    ("cd: A0 9B0 A1", "bad chord label '9B'", 8),
    ("cd: A0 A1 B", "framing mismatch for chord 'A': 1 here, 0 at column 5", 8),
    ("dcd: A A0 | B", "token 'A0' ends in a framing digit, which double-kind labels may not", 8),
    ("dcd: B | A A0", "token 'A0' ends in a framing digit, which double-kind labels may not", 12),
    ("lcd:\tA0  B1\tB0 A0", "framing mismatch for chord 'B': 0 here, 1 at column 10", 13),
    (
        "1 [dlcd: x | y] + 1 [dcd: |]",
        "every chord must occur exactly twice; offending labels: x, y",
        14,
    ),
    ("-2 [lcd: Q1 Q1 R]", "token 'R' is missing its framing digit", 16),
    ("1 [cd:] + -" + "1" * 5000 + " [cd:]", f"coefficient longer than {LIMIT} digits", 11),
]


@pytest.mark.parametrize("text,message,column", PARSE_ERRORS)
def test_parse_error_messages_and_columns(text, message, column):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (str(err.value), err.value.column) == (f"column {column}: {message}", column)


@pytest.mark.parametrize(
    "text", ["٣ [cd: A0 A0]", "-٣ [cd: A0 A0]", "1٣ [cd: A0 A0]", "３ [cd:]"]
)
def test_coefficients_are_ascii_integers(text, capsys):
    # the grammar's INT is ASCII; other Unicode digits are not coefficients
    with pytest.raises(ParseError):
        parse(text)
    code, out, err = run_main(capsys, "canon", text)
    assert (code, out) == (2, "")
    assert err.startswith("error: column ")


def test_a_coefficient_too_long_to_convert_is_a_parse_error(capsys):
    code, out, err = run_main(capsys, "canon", "1" * 5000 + " [cd:]")
    assert (code, out, err) == (2, "", f"error: column 1: coefficient longer than {LIMIT} digits\n")


@pytest.mark.parametrize(
    "command, diagram", [("canon", "cd:"), ("psi", "cd:"), ("weight", "dcd: A | A")]
)
def test_an_output_integer_too_long_to_print_is_refused(tmp_path, capsys, command, diagram):
    # two coefficients that parse add up to one digit more than str() converts;
    # this used to end in a ValueError traceback (exit 3 from the console)
    nines = "9" * LIMIT
    target = tmp_path / "result.txt"
    for sign in ("", "-"):
        text = f"{sign}{nines} [{diagram}] + {sign}{nines} [{diagram}]"
        code, out, err = run_main(capsys, "--out", str(target), command, text)
        assert (code, out, err) == (2, "", f"error: output integer longer than {LIMIT} digits\n")
    assert not target.exists()
    # one of them alone is printed in full
    code, out, _ = run_main(capsys, command, f"{nines} [{diagram}]")
    assert code == 0
    assert nines in out


def random_label(rng, double):
    label = rng.choice("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")
    label += "".join(rng.choice("abcXYZ0123456789") for _ in range(rng.randint(0, 3)))
    return label + "q" if double and label[-1] in "01" else label


def written(rng, key):
    """A text of ``key``'s diagram with random labels and spacing, its
    circles rotated and, for ``double``, exchanged at random, and the
    diagram built from the same words by the validated public constructor."""
    double = key.kind in ("double", "dlinear")
    names = {}
    while len(names) < key.n:
        names.setdefault(random_label(rng, double), None)
    names = dict(zip(range(1, key.n + 1), names))
    if double:
        words = [[names[num] for num in word] for word in key.payload]
    else:
        words = [[names[num] for num, _ in key.payload]]
        framing = {names[num]: fr for num, fr in key.payload}
    if key.kind in ("framed", "double"):
        words = [w[r:] + w[:r] for w in words for r in [rng.randrange(len(w) or 1)]]
    if key.kind == "double" and rng.random() < 0.5:
        words.reverse()

    def sep():
        return rng.choice([" ", "  ", "\t", " \n "])

    if double:
        sides = [sep().join(w) for w in words]
        text = f"{PREFIX[key.kind]}:{sep()}{sides[0]}{sep()}|{sep()}{sides[1]}"
        return text, PUBLIC_CLASS[PREFIX[key.kind]](*words)
    tokens = [f"{lab}{framing[lab]}" for lab in words[0]]
    text = f"{PREFIX[key.kind]}:{sep()}{sep().join(tokens)}"
    return text, PUBLIC_CLASS[PREFIX[key.kind]](words[0], framing)


PREFIX = {"framed": "cd", "linear": "lcd", "double": "dcd", "dlinear": "dlcd"}


@pytest.mark.parametrize("kind", sorted(PREFIX))
def test_parse_keys_match_the_validated_constructors(kind):
    # parse numbers the labels as written; the key must not depend on it
    rng = random.Random(10)
    for n in range(5):
        for key in enumerate_diagrams(kind, n):
            text, d = written(rng, key)
            assert d.key() == key, text
            assert parse(text).key() == key, text
            coeff = rng.choice([-2, 1, 3])
            assert parse(f"{coeff} [{text}]") == ModuleElement(kind, [(key, coeff)]), text


def test_renamings_add_one_cache_entry_per_written_rotation():
    # labels are numbered as written, so a renamed copy of a written word
    # reaches the canonicalizer's cache as the same words
    rng = random.Random(11)
    framed = FramedChordDiagram(("A", "B", "C", "A", "D", "B", "C", "D"), dict(A=0, B=1, C=0, D=1))
    double = DoubleChordDiagram(("A", "B", "C", "A"), ("D", "B", "D", "C"))
    for d in (framed, double):
        key, canon = d.key(), cli._CANONICALIZERS[d.kind]
        if d.kind == "framed":
            writings = [(d.word[r:] + d.word[:r],) for r in range(8)]
        else:
            writings = [
                (w1[r1:] + w1[:r1], w2[r2:] + w2[:r2])
                for w1, w2 in ((d.word1, d.word2), (d.word2, d.word1))
                for r1 in range(4)
                for r2 in range(4)
            ]
        for words in writings:
            before = canon.cache_info().currsize
            for _ in range(20):
                names = {}
                while len(names) < 4:
                    names.setdefault(random_label(rng, d.kind == "double"), None)
                names = dict(zip("ABCD", names))
                if d.kind == "framed":
                    body = " ".join(f"{names[lab]}{d.framing[lab]}" for lab in words[0])
                else:
                    body = " | ".join(" ".join(names[lab] for lab in w) for w in words)
                text = f"{PREFIX[d.kind]}: {body}"
                assert repr(parse(text)) == repr(from_key(key)), text
                assert parse(f"2 [{text}]") == ModuleElement(d.kind, [(key, 2)]), text
            assert canon.cache_info().currsize - before <= 1, words


# --- formatting and round trips -------------------------------------------------


def corpus():
    texts = []
    for kind in ("framed", "double", "linear", "dlinear"):
        for n in range(3):
            texts.extend(format_diagram(k) for k in enumerate_diagrams(kind, n))
    texts += [
        "cd: Z0 Y1 Y1 Z0",
        "cd:B1  A0   B1 A0",
        "lcd: Q1 Q1",
        "dcd: X Y | X Y",
        "dlcd: | A A",
        "dcd: |",
        "cd:",
        "3 [cd: A1 A1] + -1 [cd: A0 A0]",
        "0 [cd:]",
        "2 [dcd: A A |] + 2 [dcd: | B B]",
        "1 [dlcd: A | A]",
        "-5 [lcd: A0 B1 A0 B1]",
    ]
    return texts


def render(value):
    if isinstance(value, ModuleElement):
        return format_element(value)
    return format_diagram(value)


def test_round_trip_corpus():
    texts = corpus()
    assert len(texts) >= 50
    for text in texts:
        once = render(parse(text))
        twice = render(parse(once))
        assert once == twice, text


def test_format_refuses_an_unknown_kind():
    # as from_key does, not with a bare KeyError
    for build in (format_diagram, from_key):
        with pytest.raises(InvalidArgumentError) as raised:
            build(CanonicalKey("foo", ()))
        assert str(raised.value) == "unknown kind 'foo'"


def test_format_empty_sides():
    assert format_diagram(DoubleChordDiagram((), ()).key()) == "dcd: |"
    assert format_diagram(FramedChordDiagram((), {}).key()) == "cd:"
    assert format_element(ModuleElement.zero("double")) == "0 [dcd: |]"
    # the zero element prints the one degree-0 key of its kind
    for kind, payload, text in (
        ("framed", (), "0 [cd:]"),
        ("double", ((), ()), "0 [dcd: |]"),
        ("linear", (), "0 [lcd:]"),
        ("dlinear", ((), ()), "0 [dlcd: |]"),
    ):
        assert enumerate_diagrams(kind, 0) == (CanonicalKey(kind, payload),)
        assert format_element(ModuleElement.zero(kind)) == text


# --- command dispatch --------------------------------------------------------------


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_canon_command(capsys):
    code, out, _ = run_main(capsys, "canon", "cd: Z0 Y1 Y1 Z0")
    assert code == 0
    assert out == "cd: A0 A0 B1 B1\n"


def test_beta_command(capsys):
    code, out, _ = run_main(capsys, "beta", "dcd: A | A")
    assert code == 0
    assert out == "1\n"


def test_beta_framed_via_cli(capsys):
    code, out, _ = run_main(capsys, "beta", "cd: A1 A1")
    assert code == 0
    assert out == "1\n"


def test_psi_command_round_trips(capsys):
    code, out, _ = run_main(capsys, "psi", "cd: A0 B0 A0 C1 B0 C1")
    assert code == 0
    element = parse(out.strip())
    expected = psi_module(parse("1 [cd: A0 B0 A0 C1 B0 C1]"))
    assert element == expected


def test_weight_command(capsys):
    code, out, _ = run_main(capsys, "weight", "3 [dcd: A | A] + -1 [dcd: A A |]")
    assert code == 0
    assert out == "0\n"


def test_consum_command(capsys):
    code, out, _ = run_main(
        capsys, "consum", "cd: A1 A1", "cd: A0 A0 B1 B1", "--cut1", "0", "--cut2", "1"
    )
    assert code == 0
    assert out == "cd: A0 A0 B1 B1 C1 C1\n"


def test_consum_rejects_double(capsys):
    code, _, err = run_main(capsys, "consum", "dcd: A A |", "dcd: A A |")
    assert code == 2
    assert "error" in err


def test_closure_command(capsys):
    code, out, _ = run_main(capsys, "closure", "lcd: A1 B1 A1 B1")
    assert code == 0
    assert out == "cd: A1 B1 A1 B1\n"


def test_coproduct_command(capsys):
    code, out, _ = run_main(capsys, "coproduct", "cd: A0 A0")
    assert code == 0
    assert out == "1 [cd:] (x) [cd: A0 A0] + 1 [cd: A0 A0] (x) [cd:]\n"


ELEMENT = "1 [cd: A0 A0] + -2 [cd: A1 B0 A1 B0]"

# (argv, exit code, stdout, stderr) of the branches the tests above leave out
COMMAND_BRANCHES = [
    (("canon", ELEMENT), 0, "1 [cd: A0 A0] + -2 [cd: A0 B1 A0 B1]\n", ""),
    (("beta", "dlcd: A B | A B"), 0, "2\n", ""),
    (("beta", ELEMENT), 2, "", "error: column 1: beta takes a single diagram, not an element\n"),
    (
        ("beta", "lcd: A0 A0"),
        2,
        "",
        "error: column 1: beta is defined for dcd, dlcd, and cd diagrams\n",
    ),
    (("psi", "lcd: A0 A0"), 2, "", "error: column 1: psi takes framed (cd) input\n"),
    (("consum", ELEMENT, "cd: A0 A0"), 2, "", "error: column 1: consum takes two diagrams\n"),
    (("consum", "cd: A0 A0", ELEMENT), 2, "", "error: column 1: consum takes two diagrams\n"),
    (
        ("consum", "cd: A0 A0", "lcd: A0 A0"),
        2,
        "",
        "error: column 1: consum operands must have the same kind\n",
    ),
    (("consum", "lcd: A1 B0 A1 B0", "lcd: A0 A0"), 0, "lcd: A1 B0 A1 B0 C0 C0\n", ""),
    (("consum", "dlcd: A | A B B", "dlcd: A A | C C"), 0, "dlcd: A B B | A C C D D\n", ""),
    (("closure", "cd: A0 A0"), 2, "", "error: column 1: closure takes an lcd diagram\n"),
    (("closure", "1 [lcd: A0 A0]"), 2, "", "error: column 1: closure takes an lcd diagram\n"),
    (("coproduct", "lcd: A0 A0"), 2, "", "error: column 1: coproduct takes a cd diagram\n"),
    (("coproduct", "1 [cd: A0 A0]"), 2, "", "error: column 1: coproduct takes a cd diagram\n"),
]


@pytest.mark.parametrize("argv, code, out, err", COMMAND_BRANCHES)
def test_command_branches(argv, code, out, err, capsys):
    assert run_main(capsys, *argv) == (code, out, err)


def test_quotient_eq_exit_codes(capsys):
    for field in ((), ("--rational",)):
        code, out, _ = run_main(capsys, "quotient-eq", "1 [dcd: A A |]", "1 [dcd: A | A]", *field)
        assert (code, out) == (1, "false\n")
        code, out, _ = run_main(capsys, "quotient-eq", "1 [dcd: A A |]", "1 [dcd: A A |]", *field)
        assert (code, out) == (0, "true\n")


# sha256 of ``enumerate --kind K --degree 5`` stdout, trailing newline
# included, recorded from the brute-force enumeration that canonicalized every
# raw word; the CI workflow checks degree 6 the same way
ENUMERATE_DEGREE_5_SHA256 = {
    "framed": "68cd768a3e291a4677f5075dab79e31f37afc8b159f8396d74100d02e5edf3df",
    "double": "93c0bbe6892c6c49eb3f0718a58feecaf9862240888da9f9ada5d63a64b76f0c",
    "linear": "0938612e94aac67b5550031fcff7ebfec802eaefd63f999f8eab09264d90144a",
    "dlinear": "97bfd39a515b344c7660e35bdd3ac075f90daf7a2ea598a3444423760df4ff1a",
}


@pytest.mark.parametrize("kind", sorted(ENUMERATE_DEGREE_5_SHA256))
def test_enumerate_output_at_degree_five(kind, capsys):
    code, out, _ = run_main(capsys, "enumerate", "--kind", kind, "--degree", "5")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATE_DEGREE_5_SHA256[kind]


# sha256 of the line ``f"{format_element(e)}\t{weight(e)}\n"`` over every key
# of ``enumerate_diagrams(kind, n)`` in order, ``e`` the parity image of the
# key's parsed text, recorded before the parity path ran on integer words;
# the CI workflow checks the benchmark's degree 5-7 probes the same way
PARITY_OUTPUT_SHA256 = {
    ("framed", 4): "0e16cfc77b37157b421fbcca72bf7aaa3d0c3bb2fde85009ba6883bb5e19f4b0",
    ("linear", 4): "cc98084fc1000cffa30b822d11fa52db0016cf76b0ae881d903a9ed7c4545e36",
    ("framed", 5): "b17c86898f8f947eab25d5eb818da3166005797751fc33cbf8715b3e80862fd3",
}


@pytest.mark.parametrize("kind, n", sorted(PARITY_OUTPUT_SHA256))
def test_parity_output_is_pinned(kind, n):
    expand = psi if kind == "framed" else psi_l
    digest = hashlib.sha256()
    for key in enumerate_diagrams(kind, n):
        e = expand(parse(format_diagram(key)))
        digest.update(f"{format_element(e)}\t{weight(e)}\n".encode())
    assert digest.hexdigest() == PARITY_OUTPUT_SHA256[kind, n]


def test_enumerate_command(capsys):
    code, out, _ = run_main(capsys, "enumerate", "--kind", "framed", "--degree", "2")
    assert code == 0
    assert out.splitlines() == [
        "cd: A0 A0 B0 B0",
        "cd: A0 A0 B1 B1",
        "cd: A0 B0 A0 B0",
        "cd: A0 B1 A0 B1",
        "cd: A1 A1 B1 B1",
        "cd: A1 B1 A1 B1",
    ]


def test_check_4t_command(capsys):
    code, out, _ = run_main(capsys, "check-4t", "--kind", "double", "--degree", "2")
    assert code == 0
    assert out.splitlines() == [
        "kind: double",
        "degree: 2",
        "generators: 3",
        "2t-pairs: 4",
        "w-kill: PASS",
        "2T: PASS",
    ]


def test_check_4t_framed(capsys):
    code, out, _ = run_main(capsys, "check-4t", "--kind", "framed", "--degree", "2")
    assert code == 0
    assert "psi-w-kill: PASS" in out
    assert "psi-span: PASS" in out


def test_check_4t_expands_each_generator_once(monkeypatch, capsys):
    calls = []

    def counted(element):
        calls.append(element)
        return parity_module(element)

    monkeypatch.setattr(verify, "parity_module", counted)
    for kind in ("framed", "linear"):
        calls.clear()
        code, out, _ = run_main(capsys, "check-4t", "--kind", kind, "--degree", "3")
        assert code == 0
        assert len(calls) == len(generate_4T(kind, 3)) > 0
        assert f"generators: {len(calls)}" in out.splitlines()


def test_check_4t_reports_failed_sweeps(monkeypatch, capsys):
    # every sweep fails: no weight is zero, beta differs on every 2T pair
    # and no parity image lies in the relation span
    betas = itertools.count()
    monkeypatch.setattr(verify, "weight", lambda element: 1)
    monkeypatch.setattr(verify, "_beta_of_key", lambda key: next(betas))
    monkeypatch.setattr(verify, "quotient_equal", lambda u, v: False)
    code, out, err = run_main(capsys, "check-4t", "--kind", "double", "--degree", "3")
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "kind: double",
        "degree: 3",
        f"generators: {len(generate_4T('double', 3))}",
        f"2t-pairs: {len(generate_2T_pairs('double', 3))}",
        "w-kill: FAIL",
        "2T: FAIL",
    ]
    code, out, err = run_main(capsys, "check-4t", "--kind", "framed", "--degree", "3")
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "kind: framed",
        "degree: 3",
        f"generators: {len(generate_4T('framed', 3))}",
        "psi-w-kill: FAIL",
        "psi-span: FAIL",
    ]


def test_check_4t_rejects_negative_degree(capsys):
    for kind in ("framed", "double"):
        code, out, err = run_main(capsys, "check-4t", "--kind", kind, "--degree", "-1")
        assert (code, out) == (2, "")
        assert err == "error: chord count must be nonnegative\n"


def test_argument_errors_exit_two(capsys):
    cases = [
        (("enumerate", "--kind", "double", "--degree", "-1"), "chord count must be nonnegative"),
        (("find-counterexample", "--max-chords", "-1"), "max_chords must be nonnegative"),
        (
            ("consum", "cd: A1 A1", "cd: A0 A0", "--cut1", "9"),
            "arc index 9 out of range for a 1-chord diagram",
        ),
    ]
    for argv, message in cases:
        assert run_main(capsys, *argv) == (2, "", f"error: {message}\n")
    with pytest.raises(InvalidArgumentError, match="expects a framed element"):
        psi_module(ModuleElement.zero("double"))


def test_internal_value_error_is_not_a_usage_error(monkeypatch, capsys):
    # a ValueError that no library check raised on purpose is a bug: it
    # propagates instead of exiting 2 as if the input were wrong
    def broken(kind, n):
        raise ValueError("internal")

    monkeypatch.setattr(cli, "enumerate_diagrams", broken)
    with pytest.raises(ValueError, match="internal"):
        main(["enumerate", "--kind", "framed", "--degree", "2"])
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("argv", [("frobnicate", "cd: A0 A0"), ("check-4t", "--degree", "3")])
def test_usage_text_does_not_depend_on_the_terminal_width(argv, monkeypatch, capsys):
    errors = set()
    for columns in ("40", "80", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        code, out, err = run_main(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("usage: chordcalc ")
        errors.add(err)
    assert len(errors) == 1


# runs one command with the function behind it replaced by one that raises
BROKEN_COMMAND = """
from chordcalc import cli

def broken(args):
    raise {error}("internal")

cli.{command} = broken
cli.console_main()
"""


@pytest.mark.parametrize(
    "command, error, argv",
    [
        ("_cmd_quotient_eq", "RuntimeError", ("quotient-eq", "dcd: A | A", "dcd: A A |")),
        ("_cmd_find_counterexample", "MemoryError", ("find-counterexample", "--max-chords", "3")),
    ],
)
def test_internal_error_exits_three(command, error, argv):
    # a bug is neither a mathematical "no" (exit 1) nor a usage error (2)
    proc = subprocess.run(
        [sys.executable, "-c", BROKEN_COMMAND.format(command=command, error=error), *argv],
        cwd=Path(__file__).resolve().parents[1] / "src",
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("Traceback (most recent call last):\n")
    assert proc.stderr.endswith(f"{error}: internal\n")


def test_find_counterexample_command(capsys):
    code, out, _ = run_main(capsys, "find-counterexample", "--max-chords", "3")
    assert code == 0
    assert "values=8,24" in out
    assert "first-witness quotient-equal: false" in out
    code, out, _ = run_main(capsys, "find-counterexample", "--max-chords", "1")
    assert code == 1
    assert "no witness" in out


def test_parse_errors_exit_two(capsys):
    code, _, err = run_main(capsys, "canon", "cd: A0")
    assert code == 2
    assert "error" in err
    code, _, _ = run_main(capsys, "no-such-command")
    assert code == 2


def test_output_determinism(capsys):
    first = run_main(capsys, "psi", "cd: A0 B1 A0 B1")
    second = run_main(capsys, "psi", "cd: A0 B1 A0 B1")
    assert first == second


def test_out_flag(tmp_path, capsys):
    target = tmp_path / "result.txt"
    code, out, _ = run_main(capsys, "--out", str(target), "canon", "cd: B1 A0 B1 A0")
    assert code == 0
    assert target.read_text() == out


def test_out_to_a_path_that_cannot_be_written(tmp_path, capsys):
    # a usage error, not the mathematical "no" of exit 1: one line on stderr
    # and nothing on stdout
    target = tmp_path / "missing" / "result.txt"
    for argv in (("canon", "cd: A0 A0"), ("quotient-eq", "dcd: A | A", "dcd: A A |")):
        code, out, err = run_main(capsys, "--out", str(target), *argv)
        assert (code, out) == (2, "")
        assert err == f"error: [Errno 2] No such file or directory: {str(target)!r}\n"
    assert not target.parent.exists()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "chordcalc", "beta", "dcd: A | A"],
        cwd=Path(__file__).resolve().parents[1] / "src",
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1\n"


def test_closed_stdout_ends_quietly(tmp_path, capsys):
    # the reader end of stdout is closed before the command starts, as when
    # `| head` has already exited; --out is still written in full
    target = tmp_path / "result.txt"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "chordcalc", "--out", str(target),
             "enumerate", "--kind", "linear", "--degree", "2"],
            cwd=Path(__file__).resolve().parents[1] / "src",
            stdout=write_end,
            stderr=subprocess.PIPE,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode != 0
    _code, out, _ = run_main(capsys, "enumerate", "--kind", "linear", "--degree", "2")
    assert target.read_text() == out
