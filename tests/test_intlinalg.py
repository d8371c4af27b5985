"""The sparse Hermite normal form and the reduction by it, against
independent oracles.

Matrices are written densely here, as lists of integer rows, and go into
the engine as sparse ``{column: nonzero}`` rows.  The dense elimination in
``dense_hnf`` gives the unique H, and ``dense_solvable`` decides integer
solvability from it by exact division at every pivot.
"""

import random

from chordcalc import intlinalg
from chordcalc.intlinalg import _reduce, _sparse_hnf
from dense_hnf import dense_hnf


# --- helpers and oracles ---------------------------------------------------


def sparse(row):
    return {c: x for c, x in enumerate(row) if x}


def densify(row, width):
    """The first ``width`` columns of a sparse row, written densely."""
    return [row.get(c, 0) for c in range(width)]


def echelon(entries, cols):
    """The basis rows of the sparse HNF of ``entries``, written densely."""
    return [densify(row, cols) for row in _sparse_hnf(sparse(row) for row in entries).values()]


def nonzero_rows(h):
    return [row for row in h if any(row)]


def columns(entries, cols):
    return [[row[j] for row in entries] for j in range(cols)]


def solvable(entries, cols, b):
    """Whether ``a @ x = b`` has an integer solution: ``b`` reduced over Z
    by the sparse HNF of the columns of ``a`` ends empty."""
    basis = _sparse_hnf(sparse(column) for column in columns(entries, cols))
    return not _reduce(sparse(b), basis)


def apply(entries, x):
    return [sum(row[j] * x[j] for j in range(len(x))) for row in entries]


def is_hnf_shape(h):
    pivots = []
    seen_zero_row = False
    for row in h:
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
        pivot = h[i][p]
        for j in range(i):
            if not 0 <= h[j][p] < pivot:
                return False  # entries above a pivot reduced mod the pivot
    return True


def dense_solvable(entries, cols, b):
    """Whether ``a @ x = b`` has an integer solution: ``b`` reduced over the
    dense HNF of the columns of ``a``, exact division at every pivot."""
    residual = list(b)
    for row in dense_hnf(columns(entries, cols), len(entries)):
        p = next((j for j, x in enumerate(row) if x), None)
        if p is None:
            break
        q, rem = divmod(residual[p], row[p])
        if rem:
            return False
        residual = [x - q * y for x, y in zip(residual, row)]
    return not any(residual)


def random_relation_matrix(rng):
    """A sparse matrix shaped like a relation matrix, as ``(entries, cols)``:
    10 to 40 rows and columns (tall and wide), rows of one to four nonzeros
    up to +-6, with duplicate rows and zero rows mixed in."""
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
    return entries, cols


# --- the Hermite normal form -------------------------------------------------


def test_hnf_identity():
    identity = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert echelon(identity, 3) == identity
    assert list(_sparse_hnf(sparse(row) for row in identity)) == [0, 1, 2]


def test_hnf_single_row_already_reduced():
    assert _sparse_hnf([{0: 2, 1: 4}]) == {0: {0: 2, 1: 4}}
    assert _sparse_hnf([{0: -2, 1: 4}]) == {0: {0: 2, 1: -4}}


def test_hnf_properties_random():
    rng = random.Random(20240817)
    for trial in range(200):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 7)
        a = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        h = echelon(a, cols)
        assert is_hnf_shape(h)
        assert h == nonzero_rows(dense_hnf(a, cols))


def test_sparse_hnf_matches_the_dense_path(monkeypatch):
    # the HNF is unique, so the sparse echelon must give the dense oracle's H
    xgcd_calls = []
    xgcd = intlinalg._xgcd
    monkeypatch.setattr(
        intlinalg, "_xgcd", lambda a, b: xgcd_calls.append((a, b)) or xgcd(a, b)
    )
    rng = random.Random(20261018)
    big_pivots = 0
    for _ in range(150):
        a, cols = random_relation_matrix(rng)
        nonzero = nonzero_rows(dense_hnf(a, cols))
        basis = _sparse_hnf(sparse(row) for row in a)
        assert [densify(row, cols) for row in basis.values()] == nonzero
        assert list(basis) == [next(j for j, x in enumerate(row) if x) for row in nonzero]
        big_pivots += any(row[p] > 1 for p, row in basis.items())
    # both the extended-gcd combination and a pivot > 1 were reached
    assert xgcd_calls
    assert big_pivots


def test_hnf_derived_example():
    # row i tagged by a unit entry at column 7 + i: the row operations are
    # exact, so every basis row is (t @ a, t) for the integer combination t
    # of the rows of a that it stands for
    rng = random.Random(5)
    a = [[rng.randint(-9, 9) for _ in range(7)] for _ in range(5)]
    basis = _sparse_hnf({**sparse(row), 7 + i: 1} for i, row in enumerate(a))
    for row in basis.values():
        tags = [row.get(7 + i, 0) for i in range(5)]
        assert apply(columns(a, 7), tags) == densify(row, 7)
    left = [densify(row, 7) for c, row in basis.items() if c < 7]
    assert left == nonzero_rows(dense_hnf(a, 7))


def test_hnf_edge_cases():
    # no rows, and rows with no nonzero entry, span the zero lattice
    assert _sparse_hnf([]) == {}
    assert _sparse_hnf([{}, {}]) == {}
    assert _reduce({}, {}) == {}
    assert _reduce({2: 5}, {}) == {2: 5}


# --- membership by reduction ---------------------------------------------------


def test_solve_identity():
    a = [[int(i == j) for j in range(4)] for i in range(4)]
    assert solvable(a, 4, [3, -1, 0, 7])


def test_solve_parity_obstruction():
    assert not solvable([[2]], 1, [3])
    assert _reduce({0: 3}, {0: {0: 2}}) == {0: 3}


def test_solve_plant_and_recover():
    rng = random.Random(424242)
    for _ in range(50):
        rows = rng.randint(2, 6)
        cols = rng.randint(2, 4)
        a = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        planted = [rng.randint(-4, 4) for _ in range(cols)]
        assert solvable(a, cols, apply(a, planted))


def test_solve_rational_but_not_integer():
    # (1/2, 0) solves over Q; no integer point exists
    a = [[2, 0], [0, 2]]
    assert not solvable(a, 2, [1, 0])
    assert solvable(a, 2, [2, -4])


def test_solve_outside_column_span():
    assert not solvable([[1, 0], [0, 0]], 2, [0, 1])


def test_solve_zero_matrix():
    a = [[0, 0], [0, 0], [0, 0]]
    assert solvable(a, 2, [0, 0, 0])
    assert not solvable(a, 2, [1, 0, 0])


def test_solve_edge_cases():
    # no rows: every x solves; no columns: only b = 0 is reached
    assert solvable([], 3, [])
    assert solvable([[], []], 0, [0, 0])
    assert not solvable([[], []], 0, [0, 1])


def test_solve_matches_the_dense_oracle():
    # planted solutions are always solvable; a +-1 miss in one entry, and
    # twice that miss, is solvable for about a third of the matrices
    rng = random.Random(20261019)
    answers = set()
    for _ in range(150):
        a, cols = random_relation_matrix(rng)
        b = apply(a, [rng.randint(-3, 3) for _ in range(cols)])
        near = list(b)
        near[rng.randrange(len(a))] += rng.choice((1, -1))
        for rhs in (b, near, [2 * x for x in near]):
            answer = solvable(a, cols, rhs)
            assert answer == dense_solvable(a, cols, rhs)
            answers.add(answer)
        assert solvable(a, cols, b)
    assert answers == {True, False}


def test_dense_input_keeps_entries_small(monkeypatch):
    # dense rows make the extended-gcd branch run at almost every pivot; with
    # tails left unreduced until the end, these two seeds drove the gcd
    # arguments past 200,000 bits on the tagged rows and 49,000 bits on the
    # tagged columns
    largest = [0]
    xgcd = intlinalg._xgcd

    def recording_xgcd(a, b):
        largest[0] = max(largest[0], abs(a).bit_length(), abs(b).bit_length())
        return xgcd(a, b)

    monkeypatch.setattr(intlinalg, "_xgcd", recording_xgcd)
    for seed in (3, 8):
        rng = random.Random(seed)
        # row i tagged by a unit entry at column 25 + i
        a = [[rng.randint(-6, 6) for _ in range(25)] for _ in range(25)]
        basis = _sparse_hnf({**sparse(row), 25 + i: 1} for i, row in enumerate(a))
        left = [densify(row, 25) for c, row in basis.items() if c < 25]
        assert left == nonzero_rows(dense_hnf(a, 25))
        # column j tagged by a unit entry at row 30 + j; b is in the lattice
        # when the basis rows with their pivot in rows 0-29 clear those rows
        a = [[rng.randint(-6, 6) for _ in range(26)] for _ in range(30)]
        b = apply(a, [rng.randint(-3, 3) for _ in range(26)])
        near = list(b)
        near[rng.randrange(30)] += 1
        basis = _sparse_hnf(
            {**sparse(column), 30 + j: 1} for j, column in enumerate(columns(a, 26))
        )
        leading = {c: row for c, row in basis.items() if c < 30}
        for rhs in (b, near):
            residual = _reduce(sparse(rhs), leading)
            assert (not residual or min(residual) >= 30) == dense_solvable(a, 26, rhs)
    assert largest[0] < 2000
