"""Exact integer matrix algebra: Hermite normal form and Diophantine solving.

Everything here runs on arbitrary-precision Python integers; no floating
point is ever involved, so span-membership answers are exact.  Matrices are
dense, which is plenty at the sizes the relation lattices reach.
"""

from __future__ import annotations


class IntMatrix:
    """A dense rectangular matrix of Python ints."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries, cols=None):
        entries = [list(row) for row in entries]
        if entries:
            width = len(entries[0])
            if any(len(row) != width for row in entries):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError("cols disagrees with row width")
            cols = width
        elif cols is None:
            raise ValueError("a matrix with no rows needs an explicit column count")
        for row in entries:
            for x in row:
                if not isinstance(x, int):
                    raise TypeError(f"integer entries only, got {type(x).__name__}")
        self.rows = len(entries)
        self.cols = cols
        self.entries = entries

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows, cols):
        return cls([[0] * cols for _ in range(rows)], cols=cols)

    def copy(self):
        return IntMatrix([row[:] for row in self.entries], cols=self.cols)

    def transpose(self):
        return IntMatrix(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)],
            cols=self.rows,
        )

    def row(self, i):
        return list(self.entries[i])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __matmul__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        return IntMatrix(
            [
                [
                    sum(self.entries[i][k] * other.entries[k][j] for k in range(self.cols))
                    for j in range(other.cols)
                ]
                for i in range(self.rows)
            ],
            cols=other.cols,
        )

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"IntMatrix({self.entries!r})"


def hnf(a: IntMatrix, transform=True):
    """Row-style Hermite normal form: returns ``(H, U)`` with ``H = U @ a``.

    ``U`` is unimodular (it is a product of row swaps, row negations, and
    integer row additions, so ``det U`` is +-1).  ``H`` is in row echelon
    form with positive pivots; every entry above a pivot is reduced into
    ``[0, pivot)``.  Zero rows sink to the bottom.  With ``transform=False``
    the row operations are applied to ``H`` alone and ``U`` is ``None``;
    ``H`` is the same.
    """
    h = [row[:] for row in a.entries]
    m, ncols = a.rows, a.cols
    mats = [h]
    if transform:
        u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
        mats.append(u)

    def swap(i, j):
        for x in mats:
            x[i], x[j] = x[j], x[i]

    def subtract(i, q, j):  # row i -= q * row j
        for x in mats:
            x[i] = [s - q * t for s, t in zip(x[i], x[j])]

    r = 0
    for c in range(ncols):
        if r == m:
            break
        # euclidean elimination below the working row
        while True:
            nonzero = [i for i in range(r, m) if h[i][c] != 0]
            if not nonzero:
                break
            i0 = min(nonzero, key=lambda i: (abs(h[i][c]), i))
            if i0 != r:
                swap(r, i0)
            done = True
            for i in range(r + 1, m):
                if h[i][c] != 0:
                    q = h[i][c] // h[r][c]
                    if q:
                        subtract(i, q, r)
                    if h[i][c] != 0:
                        done = False
            if done:
                break
        if h[r][c] == 0:
            continue
        if h[r][c] < 0:
            for x in mats:
                x[r] = [-s for s in x[r]]
        for j in range(r):
            q = h[j][c] // h[r][c]
            if q:
                subtract(j, q, r)
        r += 1
    return IntMatrix(h, cols=ncols), (IntMatrix(u, cols=m) if transform else None)


def det(a: IntMatrix) -> int:
    """Determinant by the Bareiss fraction-free elimination (exact)."""
    if a.rows != a.cols:
        raise ValueError("determinant needs a square matrix")
    n = a.rows
    if n == 0:
        return 1
    m = [row[:] for row in a.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _pivot_columns(h: IntMatrix):
    pivots = []
    for row in h.entries:
        p = next((j for j, x in enumerate(row) if x != 0), None)
        if p is None:
            break
        pivots.append(p)
    return pivots


def solve_diophantine(a: IntMatrix, b):
    """Some integer solution ``x`` of ``a @ x = b``, or ``None``.

    Decided via the Hermite normal form of the transpose: the columns of
    ``a`` span an integer lattice, ``b`` is expressed over the HNF basis by
    forward substitution (exact division required at every pivot), and the
    substitution coefficients are pulled back through the transform matrix.
    The answer is exact in both directions: a returned vector satisfies the
    system, and ``None`` means no integer solution exists.
    """
    b = [int(x) for x in b]
    if len(b) != a.rows:
        raise ValueError("dimension mismatch between matrix and right-hand side")
    h, u = hnf(a.transpose())
    pivots = _pivot_columns(h)
    residual = b[:]
    coeffs = [0] * a.cols
    for i, p in enumerate(pivots):
        pivot = h.entries[i][p]
        q, rem = divmod(residual[p], pivot)
        if rem:
            return None
        coeffs[i] = q
        if q:
            residual = [x - q * y for x, y in zip(residual, h.entries[i])]
    if any(residual):
        return None
    # x = U^T coeffs
    return [
        sum(coeffs[i] * u.entries[i][j] for i in range(a.cols)) for j in range(a.cols)
    ]
