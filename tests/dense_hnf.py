"""The dense Euclidean elimination that the sparse engine replaced, kept as
the tests' oracle for the Hermite normal form ``H`` (no transform).

The HNF of a row lattice is unique, so any correct elimination must return
the same ``H`` as this one.
"""


def dense_hnf(entries, cols):
    """Row-style HNF of an integer matrix, as a list of rows: echelon form,
    positive pivots, entries above a pivot in ``[0, pivot)``, zero rows last."""
    h = [list(row) for row in entries]
    m = len(h)
    r = 0
    for c in range(cols):
        if r == m:
            break
        # euclidean elimination below the working row
        while True:
            nonzero = [i for i in range(r, m) if h[i][c] != 0]
            if not nonzero:
                break
            i0 = min(nonzero, key=lambda i: (abs(h[i][c]), i))
            h[r], h[i0] = h[i0], h[r]
            done = True
            for i in range(r + 1, m):
                if h[i][c] != 0:
                    q = h[i][c] // h[r][c]
                    if q:
                        h[i] = [s - q * t for s, t in zip(h[i], h[r])]
                    if h[i][c] != 0:
                        done = False
            if done:
                break
        if h[r][c] == 0:
            continue
        if h[r][c] < 0:
            h[r] = [-s for s in h[r]]
        for j in range(r):
            q = h[j][c] // h[r][c]
            if q:
                h[j] = [s - q * t for s, t in zip(h[j], h[r])]
        r += 1
    return h
