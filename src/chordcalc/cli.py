"""Command-line surface: the diagram text grammar and the commands that run
every computation and verification sweep.

Grammar::

    token    := LABEL FRAMING?     LABEL = [A-Za-z][A-Za-z0-9]*, FRAMING = 0|1
    cdword   := token*             (cyclic; may be empty)
    diagram  := "cd:" cdword | "lcd:" cdword
              | "dcd:" cdword "|" cdword | "dlcd:" cdword "|" cdword
    melem    := INT "[" diagram "]" ("+" INT "[" diagram "]")*
    INT      := "-"? [0-9]+        (ASCII digits only)

Framing digits are mandatory in the framed kinds (``cd``, ``lcd``) and
forbidden in the double kinds (``dcd``, ``dlcd``); a double-kind label may
not end in 0 or 1, which keeps a framed word from silently parsing as bare
labels.  Exit codes: 0 success, 1 mathematical "no" answers (quotient-eq
false, no witness, a failed sweep), 2 usage or parse errors and an ``--out``
file that cannot be written, 3 an internal error (any other exception), with
its traceback on stderr.
"""

from __future__ import annotations

import functools
import re
import sys

from .algebra import (
    KindMismatchError,
    ModuleElement,
    UndecidedError,
    _element,
    quotient_equal,
)
from .diagrams import (
    CanonicalKey,
    InvalidArgumentError,
    InvalidDiagramError,
    _CANONICALIZERS,
    _key_words,
    _spelled_words,
    coproduct,
    enumerate_diagrams,
    from_key,
)
from .parity import parity_module
from .surgery import _beta_of_key, beta_framed, weight
from .sums import (
    _key_sum,
    connected_sum_framed,
    search_counterexample,
    witness_quotient_split,
)

_PREFIX_TO_KIND = {"cd": "framed", "lcd": "linear", "dcd": "double", "dlcd": "dlinear"}
_KIND_TO_PREFIX = {v: k for k, v in _PREFIX_TO_KIND.items()}
_PREFIX_RE = re.compile(r"\s*(dlcd|dcd|lcd|cd):")
_LABEL_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*\Z")
_TOKEN_RE = re.compile(r"\S+")
_FRAMING = {"0": 0, "1": 1}


class ParseError(ValueError):
    """Input text violates the grammar; ``column`` is 1-based."""

    def __init__(self, message, column):
        super().__init__(f"column {column}: {message}")
        self.column = column


# ---------------------------------------------------------------------------
# parsing


def parse(text: str):
    """Parse a diagram or a module element, canonicalized.

    Diagram texts yield diagram objects in canonical form; element texts
    yield :class:`ModuleElement`.
    """
    value = _parse(text)
    return value if isinstance(value, ModuleElement) else from_key(value)


def _parse(text):
    """The canonical key of a diagram text, or the element of an element text."""
    stripped = text.lstrip()
    offset = len(text) - len(stripped)
    if not stripped:
        raise ParseError("empty input", offset + 1)
    if stripped[0] in "-0123456789":
        return _parse_element(text)
    return _parse_key(text, 0)


def _parse_key(text, offset):
    """The canonical key of a diagram text whose first character is at
    column ``offset + 1``.  One pass over the tokens validates the text and
    numbers its labels 1, 2, ... in order of first appearance, so that the
    canonicalizer and its cache see every relabelling as the same words."""
    m = _PREFIX_RE.match(text)
    if not m:
        col = offset + len(text) - len(text.lstrip()) + 1
        raise ParseError("expected a diagram prefix cd:, lcd:, dcd:, or dlcd:", col)
    prefix = m.group(1)
    kind = _PREFIX_TO_KIND[prefix]
    body = text[m.end() :]
    body_offset = offset + m.end()
    framed = kind in ("framed", "linear")
    bar = body.find("|")
    if framed:
        if bar >= 0:
            raise ParseError(f"'|' is not allowed in a {prefix} diagram", body_offset + bar + 1)
        sides = ((body, body_offset),)
    else:
        if bar < 0:
            raise ParseError(f"a {prefix} diagram needs one '|'", body_offset + len(body) + 1)
        second_bar = body.find("|", bar + 1)
        if second_bar >= 0:
            raise ParseError("only one '|' is allowed", body_offset + second_bar + 1)
        sides = ((body[:bar], body_offset), (body[bar + 1 :], body_offset + bar + 1))
    seen = {}  # label -> [number, framing, index of its first token on its side, count]
    words = []
    for side, side_offset in sides:
        word = []
        for i, token in enumerate(side.split()):
            if framed:
                fr = _FRAMING.get(token[-1]) if len(token) > 1 else None
                if fr is None:
                    col = _column(side, side_offset, i)
                    raise ParseError(f"token {token!r} is missing its framing digit", col)
                label = token[:-1]
            else:
                label, fr = token, 0
            entry = seen.get(label)
            if entry is None:  # a label seen before has passed these checks
                if not _LABEL_RE.match(label):
                    raise ParseError(f"bad chord label {label!r}", _column(side, side_offset, i))
                if not framed and token[-1] in "01":
                    raise ParseError(
                        f"token {token!r} ends in a framing digit, which double-kind labels may not",
                        _column(side, side_offset, i),
                    )
                entry = seen[label] = [len(seen) + 1, fr, i, 0]
            elif entry[1] != fr:
                raise ParseError(
                    f"framing mismatch for chord {label!r}: {fr} here, "
                    f"{entry[1]} at column {_column(side, side_offset, entry[2])}",
                    _column(side, side_offset, i),
                )
            entry[3] += 1
            word.append(2 * entry[0] + fr if framed else entry[0])
        words.append(tuple(word))
    bad = sorted(label for label, entry in seen.items() if entry[3] != 2)
    if bad:
        raise ParseError(
            "every chord must occur exactly twice; offending labels: " + ", ".join(bad),
            body_offset + len(body),
        )
    return _CANONICALIZERS[kind](*words)


def _column(side, offset, i):
    """The column of the ``i``-th token of ``side``, which starts at column ``offset + 1``."""
    return offset + 1 + [m.start() for m in _TOKEN_RE.finditer(side)][i]


# One term of an element; a missing part's group matches empty where it should be
_TERM_RE = re.compile(r"\s*(?P<coeff>(?:-?[0-9]+)?)\s*(?P<open>\[?)(?P<body>[^\]]*)(\]?)\s*(\+?)")


def _parse_element(text):
    terms, kind, pos, more = {}, None, 0, True
    while more:
        m = _TERM_RE.match(text, pos)
        digits, bracket, body, close, more = m.groups()
        if not digits:
            raise ParseError("expected an integer coefficient", m.start("coeff") + 1)
        try:
            coeff = int(digits)
        except ValueError:  # more digits than int() converts
            message = f"coefficient longer than {sys.get_int_max_str_digits()} digits"
            raise ParseError(message, m.start("coeff") + 1) from None
        if not bracket:
            raise ParseError("expected '[' after the coefficient", m.start("open") + 1)
        if not close:
            raise ParseError("unclosed '['", m.start("open") + 1)
        key = _parse_key(body, m.start("body"))
        kind = kind or key.kind
        if key.kind != kind:
            message = f"kind mismatch: {key.kind} term in a {kind} element"
            raise ParseError(message, m.start("body") + 1)
        terms[key] = terms.get(key, 0) + coeff
        pos = m.end()
    if pos < len(text):
        raise ParseError("expected '+' between terms", pos + 1)
    return _element(kind, {key: c for key, c in terms.items() if c})


# ---------------------------------------------------------------------------
# formatting


def format_diagram(obj) -> str:
    """Canonical text of a diagram or key; stable under parse/format."""
    key = obj if isinstance(obj, CanonicalKey) else obj.key()
    prefix = _KIND_TO_PREFIX[key.kind] + ":"
    words = _spelled_words(key)
    if key.kind in ("framed", "linear"):
        return " ".join([prefix] + [f"{label}{fr}" for label, fr in words[0]])
    return " ".join([prefix, *words[0], "|", *words[1]]).rstrip()


def format_element(element: ModuleElement) -> str:
    """Canonical element text; the zero element prints as the chordless
    diagram with coefficient 0."""
    if element.is_zero():
        return f"0 [{format_diagram(enumerate_diagrams(element.kind, 0)[0])}]"
    try:
        return " + ".join(f"{c} [{format_diagram(k)}]" for k, c in element.items())
    except ValueError:
        _refuse_long_ints(c for _, c in element.items())
        raise


def _refuse_long_ints(values):
    """After ``str`` of an int failed: ``InvalidArgumentError`` if one of
    ``values`` has more digits than ``str`` converts, a refusal of the
    output rather than a bug."""
    limit = sys.get_int_max_str_digits()
    if limit and any(abs(v) >= 10**limit for v in values):
        raise InvalidArgumentError(f"output integer longer than {limit} digits") from None


def format_pair_sum(pairs: dict) -> str:
    """Text of a coproduct: ``COEFF [left] (x) [right]`` terms joined by +."""
    parts = []
    for (left, right), coeff in sorted(pairs.items()):
        parts.append(f"{coeff} [{format_diagram(left)}] (x) [{format_diagram(right)}]")
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# commands


def _as_element(text):
    value = _parse(text)
    return value if isinstance(value, ModuleElement) else ModuleElement.single(value)


def _cmd_canon(args):
    value = _parse(args.input)
    return 0, format_element(value) if isinstance(value, ModuleElement) else format_diagram(value)


def _cmd_beta(args):
    key = _parse(args.diagram)
    if isinstance(key, ModuleElement):
        raise ParseError("beta takes a single diagram, not an element", 1)
    if key.kind in ("double", "dlinear"):
        return 0, str(_beta_of_key(key))
    if key.kind == "framed":
        return 0, str(beta_framed(from_key(key)))
    raise ParseError("beta is defined for dcd, dlcd, and cd diagrams", 1)


def _cmd_parity(args):
    value = _as_element(args.input)
    if value.kind != args.kind:
        raise ParseError(
            f"{args.command} takes {args.kind} ({_KIND_TO_PREFIX[args.kind]}) input", 1
        )
    return 0, format_element(parity_module(value))


def _cmd_weight(args):
    value = weight(_as_element(args.input))
    try:
        return 0, str(value)
    except ValueError:
        _refuse_long_ints([value])
        raise


def _cmd_consum(args):
    k1 = _parse(args.first)
    k2 = _parse(args.second)
    if isinstance(k1, ModuleElement) or isinstance(k2, ModuleElement):
        raise ParseError("consum takes two diagrams", 1)
    if k1.kind != k2.kind:
        raise ParseError("consum operands must have the same kind", 1)
    if k1.kind == "framed":
        result = connected_sum_framed(from_key(k1), args.cut1, from_key(k2), args.cut2)
    elif k1.kind == "double":
        raise ParseError("no connected sum is defined for dcd diagrams", 1)
    else:
        result = _key_sum(k1, k2)
    return 0, format_diagram(result)


def _cmd_closure(args):
    key = _parse(args.diagram)
    if isinstance(key, ModuleElement) or key.kind != "linear":
        raise ParseError("closure takes an lcd diagram", 1)
    # the line's code word, read cyclically, is the word of its closure
    return 0, format_diagram(_CANONICALIZERS["framed"](*_key_words(key)))


def _cmd_coproduct(args):
    key = _parse(args.diagram)
    if isinstance(key, ModuleElement) or key.kind != "framed":
        raise ParseError("coproduct takes a cd diagram", 1)
    return 0, format_pair_sum(coproduct(from_key(key)))


def _cmd_quotient_eq(args):
    u = _as_element(args.first)
    v = _as_element(args.second)
    equal = quotient_equal(u, v, rational=args.rational)
    return (0 if equal else 1), ("true" if equal else "false")


def _cmd_enumerate(args):
    keys = enumerate_diagrams(args.kind, args.degree)
    return 0, "\n".join(format_diagram(k) for k in keys)


def _cmd_check_4t(args):
    from . import verify  # the sweeps load only for this command
    kind, n = args.kind, args.degree
    lines = [f"kind: {kind}", f"degree: {n}"]
    if kind in ("double", "dlinear"):
        kill = verify.weight_kill(kind, n)
        two_t = verify.two_term_beta(kind, n)
        lines.append(f"generators: {kill.checked}")
        lines.append(f"2t-pairs: {two_t.checked}")
        lines.append(f"w-kill: {'PASS' if kill.passed else 'FAIL'}")
        lines.append(f"2T: {'PASS' if two_t.passed else 'FAIL'}")
        ok = kill.passed and two_t.passed
    else:
        images = verify.psi_images(kind, n)
        kill = verify.psi_weight_kill(kind, n, images)
        span = verify.psi_relation_span(kind, n, images)
        lines.append(f"generators: {kill.checked}")
        lines.append(f"psi-w-kill: {'PASS' if kill.passed else 'FAIL'}")
        lines.append(f"psi-span: {'PASS' if span.passed else 'FAIL'}")
        ok = kill.passed and span.passed
    return (0 if ok else 1), "\n".join(lines)


def _cmd_find_counterexample(args):
    witnesses = search_counterexample(args.max_chords)
    if not witnesses:
        return 1, f"no witness found (max chords {args.max_chords})"
    lines = []
    for i, w in enumerate(witnesses, 1):
        lines.append(
            f"witness {i}: d1=[{format_diagram(w.d1)}] d2=[{format_diagram(w.d2)}] "
            f"cuts={w.cuts_a} w={w.w_a} cuts={w.cuts_b} w={w.w_b} "
            f"values={','.join(str(v) for v in w.w_values)}"
        )
    lines.append(f"witnesses found: {len(witnesses)}")
    split = witness_quotient_split(witnesses[0])
    lines.append(f"first-witness quotient-equal: {'false' if split else 'true'}")
    return 0, "\n".join(lines)


def _build_parser():
    import argparse  # only the command line needs it, not importers of parse
    # usage and help at the width that COLUMNS=80 gives, whatever the
    # terminal's, so that the text of a usage error is the same everywhere
    parser_class = functools.partial(
        argparse.ArgumentParser,
        formatter_class=lambda prog: argparse.HelpFormatter(prog, width=78),
    )
    parser = parser_class(
        prog="chordcalc",
        description="Calculus of framed, double, and linear chord diagrams.",
    )
    parser.add_argument("--out", metavar="PATH", help="also write the output to a file")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=parser_class)

    p = sub.add_parser("canon", help="canonical form of a diagram or element")
    p.add_argument("input")
    p.set_defaults(run=_cmd_canon)

    p = sub.add_parser("beta", help="surgery component count of a diagram")
    p.add_argument("diagram")
    p.set_defaults(run=_cmd_beta)

    p = sub.add_parser("psi", help="parity expansion of a framed diagram or element")
    p.add_argument("input")
    p.set_defaults(run=_cmd_parity, kind="framed")

    p = sub.add_parser("psil", help="parity expansion of a linear diagram or element")
    p.add_argument("input")
    p.set_defaults(run=_cmd_parity, kind="linear")

    p = sub.add_parser("weight", help="weight of a double/dlinear element")
    p.add_argument("input")
    p.set_defaults(run=_cmd_weight)

    p = sub.add_parser("consum", help="connected sum of two diagrams")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--cut1", type=int, default=0, help="arc index on the first cd diagram")
    p.add_argument("--cut2", type=int, default=0, help="arc index on the second cd diagram")
    p.set_defaults(run=_cmd_consum)

    p = sub.add_parser("closure", help="close a linear diagram into a chord diagram")
    p.add_argument("diagram")
    p.set_defaults(run=_cmd_closure)

    p = sub.add_parser("coproduct", help="chord-subset coproduct of a framed diagram")
    p.add_argument("diagram")
    p.set_defaults(run=_cmd_coproduct)

    p = sub.add_parser("check-4t", help="run the relation sweeps at one degree")
    p.add_argument("--kind", required=True, choices=("framed", "double", "linear", "dlinear"))
    p.add_argument("--degree", required=True, type=int)
    p.set_defaults(run=_cmd_check_4t)

    p = sub.add_parser("quotient-eq", help="exact equality modulo the 4T relations")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--rational", action="store_true", help="decide over Q instead of Z")
    p.set_defaults(run=_cmd_quotient_eq)

    p = sub.add_parser("enumerate", help="all canonical diagrams of one degree")
    p.add_argument("--kind", required=True, choices=("framed", "double", "linear", "dlinear"))
    p.add_argument("--degree", required=True, type=int)
    p.set_defaults(run=_cmd_enumerate)

    p = sub.add_parser(
        "find-counterexample",
        help="search for connected sums split apart by the parity weight",
    )
    p.add_argument("--max-chords", required=True, type=int)
    p.set_defaults(run=_cmd_find_counterexample)

    return parser


def main(argv=None) -> int:
    """Run one command; returns the exit code instead of raising SystemExit."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code, text = args.run(args)
    except (
        ParseError,
        InvalidDiagramError,
        InvalidArgumentError,
        KindMismatchError,
        UndecidedError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if text:
        # the file first, so that it is complete even if stdout's reader
        # closes early
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text + "\n")
            except OSError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        print(text)
    return code


def console_main():
    import signal  # only the process entry point needs it, not library users
    import traceback

    if hasattr(signal, "SIGPIPE"):
        # a reader that closes early (``| head``) ends the process quietly,
        # as it ends other filters, instead of a BrokenPipeError traceback
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    try:
        code = main()
    except Exception:
        # a bug, not an answer: exit 1 would read as a mathematical "no"
        traceback.print_exc()
        code = 3
    raise SystemExit(code)
