"""Exhaustive verification sweeps.

Each sweep checks one of the structural facts the calculus rests on, over
every object of the stated size, and reports how many objects were checked
together with the failures (empty on success).  The command-line ``check-4t``
command and the acceptance test suite both run these; the two parity sweeps
are one pass, ``psi_sweeps``, which holds no parity image.
"""

from __future__ import annotations

from .algebra import ModuleElement, generate_2T_pairs, generate_4T, quotient_equal
from .diagrams import InvalidArgumentError, _check_size, _Record, enumerate_diagrams
from .parity import _image_kind, parity_module, psi_module
from .sums import _key_sum
from .surgery import _beta_of_key, weight


class SweepResult(_Record):
    """What a sweep checked, how many objects, and the failures it found."""

    description: str
    checked: int
    failures: tuple

    @property
    def passed(self) -> bool:
        return not self.failures


def _label(gen):
    """A 4T generator's place in its sweep's failure tuples."""
    return gen.base, gen.moving_chord, gen.occurrence, gen.target_chord


def weight_kill(kind: str, n: int) -> SweepResult:
    """The weight system vanishes on every 4T generator (double kinds)."""
    if kind not in ("double", "dlinear"):
        raise InvalidArgumentError(
            f"the weight system is checked on the double and dlinear kinds, got {kind}"
        )
    failures = []
    gens = generate_4T(kind, n)
    for gen in gens:
        w = weight(gen.element)
        if w != 0:
            failures.append((*_label(gen), w))
    return SweepResult(f"w-kill {kind} n={n}", len(gens), tuple(failures))


def two_term_beta(kind: str, n: int) -> SweepResult:
    """beta is constant on every 2T pair (double kinds)."""
    failures = []
    pairs = generate_2T_pairs(kind, n)
    for p, q in pairs:
        bp, bq = _beta_of_key(p), _beta_of_key(q)
        if bp != bq:
            failures.append((p, q, bp, bq))
    return SweepResult(f"2T beta {kind} n={n}", len(pairs), tuple(failures))


def psi_sweeps(kind: str, n: int):
    """The psi-w-kill and psi-span sweeps of a framed or linear degree, in
    one pass that expands each 4T generator once: the weight of its parity
    image vanishes, and the image lies in the integer span of the image
    kind's 4T generators (exact Diophantine membership)."""
    zero = ModuleElement.zero(_image_kind(kind))
    kills, spans = [], []
    gens = generate_4T(kind, n)
    for gen in gens:
        image = parity_module(gen.element)
        w = weight(image)
        if w != 0:
            kills.append((*_label(gen), w))
        if not quotient_equal(image, zero):
            spans.append(_label(gen))
    return (
        SweepResult(f"psi-w-kill {kind} n={n}", len(gens), tuple(kills)),
        SweepResult(f"psi-span {kind} n={n}", len(gens), tuple(spans)),
    )


def psi_mass(max_n: int) -> SweepResult:
    """The parity expansion of an n-chord framed diagram has total
    coefficient mass exactly 2^n."""
    _check_size("max_n", max_n)
    failures = []
    checked = 0
    for n in range(max_n + 1):
        for key in enumerate_diagrams("framed", n):
            checked += 1
            mass = psi_module(ModuleElement.single(key)).mass()
            if mass != 2**n:
                failures.append((key, mass))
    return SweepResult(f"psi mass n<={max_n}", checked, tuple(failures))


def sum_symmetry(max_total: int) -> SweepResult:
    """Weight of the parity expansion is symmetric in the two operands of a
    linear connected sum, for all pairs with at most ``max_total`` chords."""
    _check_size("max_total", max_total)
    failures = []
    checked = 0
    for total in range(max_total + 1):
        for n1 in range(total + 1):
            for k1 in enumerate_diagrams("linear", n1):
                for k2 in enumerate_diagrams("linear", total - n1):
                    checked += 1
                    w12 = weight(parity_module(ModuleElement.single(_key_sum(k1, k2))))
                    w21 = weight(parity_module(ModuleElement.single(_key_sum(k2, k1))))
                    if w12 != w21:
                        failures.append((k1, k2, w12, w21))
    return SweepResult(f"sum symmetry total<={max_total}", checked, tuple(failures))


def beta_additivity(max_each: int) -> SweepResult:
    """beta of a line-wise connected sum deficits the operand betas by 1 or 2."""
    _check_size("max_each", max_each)
    pool = [key for n in range(max_each + 1) for key in enumerate_diagrams("dlinear", n)]
    failures = []
    checked = 0
    for k1 in pool:
        b1 = _beta_of_key(k1)
        for k2 in pool:
            checked += 1
            deficit = b1 + _beta_of_key(k2) - _beta_of_key(_key_sum(k1, k2))
            if deficit not in (1, 2):
                failures.append((k1, k2, deficit))
    return SweepResult(f"beta additivity n<={max_each} each", checked, tuple(failures))
