"""Hermite normal form and Diophantine solving, with independent oracles.

The HNF post-conditions are recomputed here from scratch: a local matrix
product checks H = U A, an exact fraction Gaussian determinant checks that U
is unimodular, and the dense elimination in ``dense_hnf`` gives the unique H.
"""

import random
from fractions import Fraction

import pytest

from chordcalc import intlinalg
from chordcalc.intlinalg import IntMatrix, _sparse_hnf, hnf, solve_diophantine
from dense_hnf import dense_hnf


# --- oracles ---------------------------------------------------------------


def matmul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def fraction_det(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    result = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            result = -result
        result *= m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, n):
            factor = m[i][c] * inv
            if factor:
                m[i] = [x - factor * y for x, y in zip(m[i], m[c])]
    return result


def is_hnf_shape(h):
    pivots = []
    seen_zero_row = False
    for row in h.entries:
        p = next((j for j, x in enumerate(row) if x != 0), None)
        if p is None:
            seen_zero_row = True
            continue
        if seen_zero_row:
            return False  # nonzero row under a zero row
        if pivots and p <= pivots[-1]:
            return False  # pivot columns must strictly increase
        if row[p] <= 0:
            return False
        pivots.append(p)
    for i, p in enumerate(pivots):
        pivot = h.entries[i][p]
        for j in range(i):
            if not 0 <= h.entries[j][p] < pivot:
                return False  # entries above a pivot reduced mod the pivot
    return True


# --- IntMatrix basics --------------------------------------------------------


def test_matrix_validation():
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(TypeError):
        IntMatrix([[1.5]])
    with pytest.raises(ValueError):
        IntMatrix([])
    assert IntMatrix([], cols=4).rows == 0


def test_matmul_and_transpose():
    a = IntMatrix([[1, 2], [3, 4]])
    b = IntMatrix([[0, 1], [1, 0]])
    assert (a @ b).entries == [[2, 1], [4, 3]]


# --- hnf ---------------------------------------------------------------------


def test_hnf_identity():
    a = IntMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    h, u = hnf(a)
    assert h == a
    assert u == a


def test_hnf_single_row_already_reduced():
    a = IntMatrix([[2, 4]])
    h, _u = hnf(a)
    assert h.entries == [[2, 4]]


def test_hnf_properties_random():
    rng = random.Random(20240817)
    for trial in range(200):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 7)
        a = IntMatrix([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
        h, u = hnf(a)
        assert matmul(u.entries, a.entries) == h.entries
        assert abs(fraction_det(u.entries)) == 1
        assert is_hnf_shape(h)
        assert h.entries == dense_hnf(a.entries, a.cols)


def random_relation_matrix(rng):
    """A sparse matrix shaped like a relation matrix: 10 to 40 rows and
    columns (tall and wide), rows of one to four nonzeros up to +-6, with
    duplicate rows and zero rows mixed in."""
    rows, cols = rng.randint(10, 40), rng.randint(10, 40)
    entries = []
    for _ in range(rows):
        roll = rng.random()
        if roll < 0.1:
            entries.append([0] * cols)
        elif roll < 0.2 and entries:
            entries.append(list(rng.choice(entries)))
        else:
            row = [0] * cols
            for c in rng.sample(range(cols), rng.randint(1, min(4, cols))):
                row[c] = rng.choice((-1, 1)) * rng.choice((1, 1, 1, 2, 3, 4, 5, 6))
            entries.append(row)
    return IntMatrix(entries, cols=cols)


def densify(row, width):
    dense = [0] * width
    for c, x in row.items():
        dense[c] = x
    return dense


def test_sparse_hnf_matches_the_dense_path(monkeypatch):
    # the HNF is unique, so the sparse echelon must give the dense oracle's H,
    # both on the bare rows (the lattice path) and on [A | I] inside hnf
    xgcd_calls = []
    xgcd = intlinalg._xgcd
    monkeypatch.setattr(
        intlinalg, "_xgcd", lambda a, b: xgcd_calls.append((a, b)) or xgcd(a, b)
    )
    rng = random.Random(20261018)
    big_pivots = 0
    for _ in range(150):
        a = random_relation_matrix(rng)
        expected = dense_hnf(a.entries, a.cols)
        nonzero = [row for row in expected if any(row)]
        basis = _sparse_hnf({c: x for c, x in enumerate(row) if x} for row in a.entries)
        assert [densify(row, a.cols) for row in basis.values()] == nonzero
        assert list(basis) == [next(j for j, x in enumerate(row) if x) for row in nonzero]
        h, u = hnf(a)
        assert h.entries == expected
        assert matmul(u.entries, a.entries) == h.entries
        assert abs(fraction_det(u.entries)) == 1
        big_pivots += any(row[p] > 1 for p, row in basis.items())
    # both the extended-gcd combination and a pivot > 1 were reached
    assert xgcd_calls
    assert big_pivots


def test_hnf_derived_example():
    rng = random.Random(5)
    a = IntMatrix([[rng.randint(-9, 9) for _ in range(7)] for _ in range(5)])
    h, u = hnf(a)
    assert matmul(u.entries, a.entries) == h.entries
    assert abs(fraction_det(u.entries)) == 1


def test_hnf_edge_cases():
    h, u = hnf(IntMatrix([], cols=4))
    assert (h.rows, h.cols, u.rows, u.cols) == (0, 4, 0, 0)
    h, u = hnf(IntMatrix([[], []]))
    assert (h.entries, h.cols) == ([[], []], 0)
    assert u.entries == [[1, 0], [0, 1]]


# --- solve_diophantine ---------------------------------------------------------


def apply(a, x):
    return [sum(row[j] * x[j] for j in range(len(x))) for row in a.entries]


def test_solve_identity():
    a = IntMatrix([[int(i == j) for j in range(4)] for i in range(4)])
    b = [3, -1, 0, 7]
    assert solve_diophantine(a, b) == b


def test_solve_parity_obstruction():
    assert solve_diophantine(IntMatrix([[2]]), [3]) is None


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve_diophantine(IntMatrix([[1, 2]]), [1, 2])


def test_solve_plant_and_recover():
    rng = random.Random(424242)
    for _ in range(50):
        rows = rng.randint(2, 6)
        cols = rng.randint(2, 4)
        a = IntMatrix([[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)])
        planted = [rng.randint(-4, 4) for _ in range(cols)]
        b = apply(a, planted)
        x = solve_diophantine(a, b)
        assert x is not None
        assert apply(a, x) == b


def test_solve_rational_but_not_integer():
    # (1/2, 0) solves over Q; no integer point exists
    a = IntMatrix([[2, 0], [0, 2]])
    assert solve_diophantine(a, [1, 0]) is None
    assert solve_diophantine(a, [2, -4]) == [1, -2]


def test_solve_outside_column_span():
    a = IntMatrix([[1, 0], [0, 0]])
    assert solve_diophantine(a, [0, 1]) is None


def test_solve_zero_matrix():
    a = IntMatrix([[0, 0], [0, 0], [0, 0]])
    assert solve_diophantine(a, [0, 0, 0]) == [0, 0]
    assert solve_diophantine(a, [1, 0, 0]) is None


def test_solve_edge_cases():
    # no rows: every x solves; no columns: only b = 0 is reached
    assert solve_diophantine(IntMatrix([], cols=3), []) == [0, 0, 0]
    assert solve_diophantine(IntMatrix([[], []]), [0, 0]) == []
    assert solve_diophantine(IntMatrix([[], []]), [0, 1]) is None


def test_solve_refuses_non_integer_right_hand_sides():
    # these used to be truncated through int(): 2.7 -> [1], "4" -> [2]
    for bad in (2.7, "4", None):
        with pytest.raises(TypeError):
            solve_diophantine(IntMatrix([[2]]), [bad])


def dense_solvable(a, b):
    """Whether ``a @ x = b`` has an integer solution: ``b`` reduced over the
    dense HNF of the columns of ``a``, exact division at every pivot."""
    residual = list(b)
    columns = [[row[j] for row in a.entries] for j in range(a.cols)]
    for row in dense_hnf(columns, a.rows):
        p = next((j for j, x in enumerate(row) if x), None)
        if p is None:
            break
        q, rem = divmod(residual[p], row[p])
        if rem:
            return False
        residual = [x - q * y for x, y in zip(residual, row)]
    return not any(residual)


def test_solve_matches_the_dense_oracle():
    # planted solutions are always solvable; a +-1 miss in one entry, and
    # twice that miss, is solvable for about a third of the matrices
    rng = random.Random(20261019)
    answers = set()
    for _ in range(150):
        a = random_relation_matrix(rng)
        b = apply(a, [rng.randint(-3, 3) for _ in range(a.cols)])
        near = list(b)
        near[rng.randrange(a.rows)] += rng.choice((1, -1))
        for rhs in (b, near, [2 * x for x in near]):
            x = solve_diophantine(a, rhs)
            assert (x is not None) == dense_solvable(a, rhs)
            if x is not None:
                assert apply(a, x) == rhs
            answers.add(x is not None)
        assert solve_diophantine(a, b) is not None
    assert answers == {True, False}


def test_dense_input_keeps_entries_small(monkeypatch):
    # dense rows make the extended-gcd branch run at almost every pivot; with
    # tails left unreduced until the end, these two seeds drove the gcd
    # arguments past 200,000 bits in hnf and 49,000 bits in the solve
    largest = [0]
    xgcd = intlinalg._xgcd

    def recording_xgcd(a, b):
        largest[0] = max(largest[0], abs(a).bit_length(), abs(b).bit_length())
        return xgcd(a, b)

    monkeypatch.setattr(intlinalg, "_xgcd", recording_xgcd)
    for seed in (3, 8):
        rng = random.Random(seed)
        a = IntMatrix([[rng.randint(-6, 6) for _ in range(25)] for _ in range(25)])
        h, u = hnf(a)
        assert h.entries == dense_hnf(a.entries, a.cols)
        assert matmul(u.entries, a.entries) == h.entries
        a = IntMatrix([[rng.randint(-6, 6) for _ in range(26)] for _ in range(30)])
        b = apply(a, [rng.randint(-3, 3) for _ in range(a.cols)])
        near = list(b)
        near[rng.randrange(a.rows)] += 1
        for rhs in (b, near):
            x = solve_diophantine(a, rhs)
            assert (x is not None) == dense_solvable(a, rhs)
            assert x is None or apply(a, x) == rhs
    assert largest[0] < 2000
