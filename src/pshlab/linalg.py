"""Exact linear algebra over Q: elimination, rank, determinants, solving.

Everything works on lists of lists of Fractions (or ints).  One exact
Gauss-Jordan elimination over Fraction serves rank, determinant and
solving alike.  No tolerances exist anywhere.

det_exact is the one the package calls: specht checks the Gram matrix of
a Specht module by its determinant.  rank_exact, solve_exact and
solve_columns are called only by the tests, where rank_exact and
solve_exact serve as oracles, and by the benchmark's layer trace, which
counts calls to solve_exact and solve_columns by name.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["rank_exact", "det_exact", "solve_exact", "solve_columns"]


def _eliminate(a, cols=None):
    """Gauss-Jordan elimination of a (copied to Fractions), pivoting in the
    first cols columns only (default: all of them).

    Returns (rows, pivots, det): the reduced rows, the pivot column of
    each of the first len(pivots) rows, and the product of the pivots
    with its sign flipped once per row swap, which is the determinant
    when a is square of full rank.
    """
    m = [[Fraction(x) for x in row] for row in a]
    rows = len(m)
    if cols is None:
        cols = len(m[0]) if rows else 0
    piv = []
    det = Fraction(1)
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
            det = -det
        pr = m[r]
        det *= pr[c]
        inv = 1 / pr[c]
        m[r] = pr = [x * inv for x in pr]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], pr)]
        piv.append(c)
        r += 1
    return m, piv, det


def rank_exact(a) -> int:
    return len(_eliminate(a)[1])


def det_exact(a) -> Fraction:
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("determinant of a non-square matrix")
    _, piv, det = _eliminate(a)
    return det if len(piv) == n else Fraction(0)


def solve_exact(a, b):
    """One exact solution x of a x = b, or None if inconsistent.
    Free variables are set to zero."""
    return solve_columns(a, [b])[0]


def solve_columns(a, bs):
    """Solve a x = b for several right-hand sides sharing one elimination.

    a: rows x cols, bs: list of right-hand-side vectors (length rows).
    Returns a list of solution vectors (None entries for inconsistent ones).
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    m, piv, _ = _eliminate([list(row) + [b[i] for b in bs]
                            for i, row in enumerate(a)], cols)
    r = len(piv)
    sols = []
    for t in range(cols, cols + len(bs)):
        if any(m[i][t] for i in range(r, rows)):
            sols.append(None)
            continue
        x = [Fraction(0)] * cols
        for row, col in enumerate(piv):
            x[col] = m[row][t]
        sols.append(x)
    return sols
