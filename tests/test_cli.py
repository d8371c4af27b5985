"""The text grammar, command dispatch, exit codes, and output determinism."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from chordcalc import cli
from chordcalc.algebra import ModuleElement
from chordcalc.cli import (
    ParseError,
    format_diagram,
    format_element,
    main,
    parse,
)
from chordcalc.diagrams import (
    DoubleChordDiagram,
    DoubleLinearDiagram,
    FramedChordDiagram,
    FramedLinearDiagram,
    InvalidArgumentError,
    enumerate_diagrams,
)
from chordcalc.parity import psi_module


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


def test_format_empty_sides():
    assert format_diagram(DoubleChordDiagram((), ()).key()) == "dcd: |"
    assert format_diagram(FramedChordDiagram((), {}).key()) == "cd:"
    assert format_element(ModuleElement.zero("double")) == "0 [dcd: |]"


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


def test_quotient_eq_exit_codes(capsys):
    for field in ((), ("--rational",)):
        code, out, _ = run_main(capsys, "quotient-eq", "1 [dcd: A A |]", "1 [dcd: A | A]", *field)
        assert (code, out) == (1, "false\n")
        code, out, _ = run_main(capsys, "quotient-eq", "1 [dcd: A A |]", "1 [dcd: A A |]", *field)
        assert (code, out) == (0, "true\n")


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
