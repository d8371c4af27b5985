"""The failure paths of the verification sweeps.

Every sweep passes on the shipped relations, so each test here breaks one
name that ``verify`` imports, for its first call only, and checks the one
failure that the sweep then reports.  The one pass of the parity sweeps is
also checked against two passes, and the refusal of a kind that a sweep does
not take against any generation of relations.
"""

import pytest

from chordcalc import verify
from chordcalc.algebra import ModuleElement, generate_2T_pairs, generate_4T
from chordcalc.diagrams import InvalidArgumentError, enumerate_diagrams
from chordcalc.parity import parity_module
from chordcalc.sums import _key_sum
from chordcalc.surgery import _beta_of_key, weight


def break_first_call(monkeypatch, name, value):
    """``verify.<name>`` returns ``value`` on its first call, and what it
    returned before on every later one."""
    real = getattr(verify, name)
    calls = []

    def broken(*args):
        calls.append(args)
        return value if len(calls) == 1 else real(*args)

    monkeypatch.setattr(verify, name, broken)


def generator_label_of(g):
    return g.base, g.moving_chord, g.occurrence, g.target_chord


def generator_label(kind, n):
    return generator_label_of(generate_4T(kind, n)[0])


def test_weight_kill_reports_a_generator_with_nonzero_weight(monkeypatch):
    break_first_call(monkeypatch, "weight", 5)
    result = verify.weight_kill("double", 3)
    assert result.failures == ((*generator_label("double", 3), 5),)
    assert not result.passed
    assert result.checked == len(generate_4T("double", 3))


def test_two_term_beta_reports_a_pair_with_unequal_beta(monkeypatch):
    break_first_call(monkeypatch, "_beta_of_key", 99)
    p, q = generate_2T_pairs("double", 3)[0]
    assert verify.two_term_beta("double", 3).failures == ((p, q, 99, _beta_of_key(q)),)


def test_psi_weight_kill_reports_a_generator_with_nonzero_weight(monkeypatch):
    break_first_call(monkeypatch, "weight", 5)
    kill, span = verify.psi_sweeps("linear", 2)
    assert kill.failures == ((*generator_label("linear", 2), 5),)
    assert span.failures == ()


def test_psi_relation_span_reports_an_image_outside_the_span(monkeypatch):
    break_first_call(monkeypatch, "quotient_equal", False)
    kill, span = verify.psi_sweeps("framed", 2)
    assert span.failures == (generator_label("framed", 2),)
    assert kill.failures == ()


@pytest.mark.parametrize("kind", ["framed", "linear"])
@pytest.mark.parametrize("n", [2, 3])
def test_psi_sweeps_match_a_two_pass_oracle(monkeypatch, kind, n):
    # fakes that depend only on their arguments fail some generators of
    # each sweep; a pass over the images per sweep must find the same ones
    weighed, decided = [], []

    def fake_weight(u):
        weighed.append(u)
        return 0 if len(u) % 4 else len(u) + 1

    def fake_equal(u, v):
        decided.append((u, v))
        return len(u) % 3 != 0

    monkeypatch.setattr(verify, "weight", fake_weight)
    monkeypatch.setattr(verify, "quotient_equal", fake_equal)
    gens = generate_4T(kind, n)
    images = [parity_module(g.element) for g in gens]
    kills = tuple(
        (*generator_label_of(g), len(u) + 1) for g, u in zip(gens, images) if len(u) % 4 == 0
    )
    spans = tuple(generator_label_of(g) for g, u in zip(gens, images) if len(u) % 3 == 0)
    assert kills and spans

    kill, span = verify.psi_sweeps(kind, n)
    assert kill == verify.SweepResult(f"psi-w-kill {kind} n={n}", len(gens), kills)
    assert span == verify.SweepResult(f"psi-span {kind} n={n}", len(gens), spans)
    assert weighed == images
    assert decided == [(u, ModuleElement.zero(u.kind)) for u in images]


@pytest.mark.parametrize(
    "sweep, kind",
    [
        (verify.weight_kill, "framed"),
        (verify.weight_kill, "linear"),
        (verify.two_term_beta, "framed"),
        (verify.two_term_beta, "linear"),
        (verify.psi_sweeps, "double"),
        (verify.psi_sweeps, "dlinear"),
    ],
)
def test_sweeps_refuse_a_kind_before_generating(monkeypatch, sweep, kind):
    def unreachable(*args):
        raise AssertionError("a refused kind generated its 4T relations")

    monkeypatch.setattr(verify, "generate_4T", unreachable)
    with pytest.raises(InvalidArgumentError):
        sweep(kind, 4)


def test_psi_mass_reports_a_wrong_mass(monkeypatch):
    break_first_call(monkeypatch, "psi_module", ModuleElement.zero("double"))
    assert verify.psi_mass(1).failures == ((enumerate_diagrams("framed", 0)[0], 0),)


def test_sum_symmetry_reports_an_asymmetric_pair(monkeypatch):
    break_first_call(monkeypatch, "weight", 99)
    empty = enumerate_diagrams("linear", 0)[0]
    w21 = weight(parity_module(ModuleElement.single(_key_sum(empty, empty))))
    assert verify.sum_symmetry(1).failures == ((empty, empty, 99, w21),)


def test_beta_additivity_reports_a_deficit_out_of_range(monkeypatch):
    break_first_call(monkeypatch, "_beta_of_key", 99)
    empty = enumerate_diagrams("dlinear", 0)[0]
    deficit = 99 + _beta_of_key(empty) - _beta_of_key(_key_sum(empty, empty))
    assert deficit not in (1, 2)
    assert verify.beta_additivity(0).failures == ((empty, empty, deficit),)
