"""Exact integer lattice engine: a sparse Hermite normal form and
reduction by it.

Everything here runs on arbitrary-precision Python integers; no floating
point is ever involved, so span-membership answers are exact.  There is one
elimination, :func:`_sparse_hnf`.  The relation matrices the 4T lattices are
built from hold about four nonzeros per row in up to 10,395 columns, so it
takes ``{column: nonzero}`` rows and returns its basis sparse.  There is one
reduction by such a basis, :func:`_reduce`, which the elimination also runs
on every row it inserts.  It answers over Z only: a vector lies in the
Q-span of an echelon basis exactly when ``D`` times it lies in the Z-span,
``D`` the product of the pivots, so ``algebra.quotient_equal`` asks the Q
question that way.
"""

from __future__ import annotations

from heapq import heappop, heappush


def _xgcd(a, b):
    """``(g, s, t)`` with ``g = gcd(a, b) = s*a + t*b`` and ``g > 0``."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return (a, s0, t0) if a > 0 else (-a, -s0, -t0)


def _add_multiple(row, q, other):
    """``row += q * other`` on sparse ``{column: nonzero}`` rows, in place."""
    for c, x in other.items():
        y = row.get(c, 0) + q * x
        if y:
            row[c] = y
        else:
            del row[c]


def _sparse_hnf(rows):
    """The Hermite normal form of the lattice spanned by sparse integer rows,
    as a map from pivot column to basis row, in increasing pivot order.

    Each row is a ``{column: nonzero}`` dict, inserted into a map from pivot
    column to basis row.  A row whose leading column already has a basis row
    is reduced by it (:func:`_reduce`) while the pivot divides the entry;
    otherwise the two rows are replaced by their 2x2 unimodular extended-gcd
    combination, whose first row takes the pivot (the gcd) and whose second
    row, zero there, is inserted further.  A row that reaches a free column
    becomes a basis row with a positive pivot.  Every new basis row has its
    tail reduced at once at the later pivots (:func:`_reduce_tail`): without
    it the extended-gcd combinations grow the entries of dense input without
    bound, and the rows inserted later fill in against unreduced tails.
    Back-reduction then reduces the tail of every basis row once more, from
    the last pivot up, so that every entry above a pivot lies in
    ``[0, pivot)``.  The row operations are unimodular, so the lattice is
    unchanged, and the insertion order is free: rows go in by descending
    last nonzero column.  On the linear n=4 relation rows (4980 x 1680) that
    takes 0.07 s, against 0.26 s in row order and 0.75 s by ascending last
    column (one run each, a 2-vCPU VM, Python 3.11.7).  The rows are
    consumed: they are reduced in place and may become basis rows.
    """
    basis = {}  # pivot column -> the basis row that starts there
    for row in sorted(filter(None, rows), key=max, reverse=True):
        while _reduce(row, basis):
            c = min(row)
            top = basis.get(c)
            if top is None:
                basis[c] = row if row[c] > 0 else {k: -x for k, x in row.items()}
                _reduce_tail(basis[c], c, basis)
                break
            g, s, t = _xgcd(top[c], row[c])
            p, v = top[c] // g, row[c] // g
            basis[c] = {k: s * x for k, x in top.items()} if s else {}
            _add_multiple(basis[c], t, row)
            _reduce_tail(basis[c], c, basis)
            other = {k: v * x for k, x in top.items()}
            _add_multiple(other, -p, row)
            row = other
    order = sorted(basis)
    for c in reversed(order):
        _reduce_tail(basis[c], c, basis)
    return {c: basis[c] for c in order}


def _reduce_tail(row, c, basis):
    """Bring every entry of ``row`` right of column ``c`` that lies at a pivot
    of ``basis`` into ``[0, pivot)``, in place.

    The entries are taken left to right: subtracting a multiple of the basis
    row with pivot ``k`` changes only columns from ``k`` on, so an entry is
    reduced once, and last.  Only the pivots where ``row`` has entries are
    visited.  If every basis row right of ``c`` is reduced already, the
    result is the Hermite-reduced row.
    """
    todo = sorted(k for k in row if k > c and k in basis)
    while todo:
        k = heappop(todo)
        top = basis[k]
        q = row.get(k, 0) // top[k]
        if q:
            new = [j for j in top if j not in row and j in basis]
            _add_multiple(row, -q, top)
            for j in new:
                heappush(todo, j)


def _reduce(vec, basis):
    """Reduce the sparse vector ``vec`` in place at its least column by the
    echelon ``basis`` (pivot column -> sparse row), for as long as a row has
    its pivot there and divides the entry, and return it: it ends empty
    exactly when ``vec`` lies in the Z-span of the basis.
    """
    while vec and (row := basis.get(c := min(vec))):
        q, rem = divmod(vec[c], row[c])
        if rem:
            break
        _add_multiple(vec, -q, row)
    return vec
