"""The failure paths of the verification sweeps.

Every sweep passes on the shipped relations, so each test here breaks one
name that ``verify`` imports, for its first call only, and checks the one
failure that the sweep then reports.
"""

from chordcalc import verify
from chordcalc.algebra import ModuleElement, generate_2T_pairs, generate_4T
from chordcalc.diagrams import enumerate_diagrams
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


def generator_label(kind, n):
    g = generate_4T(kind, n)[0]
    return g.base, g.moving_chord, g.occurrence, g.target_chord


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
    images = verify.psi_images("linear", 2)
    assert verify.psi_weight_kill("linear", 2, images).failures == (
        (*generator_label("linear", 2), 5),
    )


def test_psi_relation_span_reports_an_image_outside_the_span(monkeypatch):
    break_first_call(monkeypatch, "quotient_equal", False)
    assert verify.psi_relation_span("framed", 2).failures == (generator_label("framed", 2),)


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
