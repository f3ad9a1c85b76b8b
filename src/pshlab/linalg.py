"""Exact linear algebra over Q: elimination, rank, determinants, solving.

Everything works on lists of lists of Fractions (or ints).  Rank and
determinant go through fraction-free (Bareiss) elimination on integer
matrices after clearing denominators; solving uses plain exact Gaussian
elimination.  No tolerances exist anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = ["rank_exact", "det_exact", "solve_exact", "solve_columns",
           "bareiss_echelon"]


def _clear_denominators(a):
    """Scale each row by the lcm of its denominators; returns int rows."""
    out = []
    for row in a:
        row = [Fraction(x) for x in row]
        scale = math.lcm(*(x.denominator for x in row)) if row else 1
        out.append([int(x * scale) for x in row])
    return out


def bareiss_echelon(a):
    """Fraction-free echelon form of an integer matrix (copy); returns
    (echelon, pivot_columns, sign) where sign tracks row swaps."""
    m = [list(map(int, row)) for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    prev = 1
    sign = 1
    piv_cols = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
            sign = -sign
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        piv_cols.append(c)
        r += 1
        if r == rows:
            break
    return m, piv_cols, sign


def rank_exact(a) -> int:
    if not a or not a[0]:
        return 0
    _, piv, _ = bareiss_echelon(_clear_denominators(a))
    return len(piv)


def det_exact(a) -> Fraction:
    n = len(a)
    if n == 0:
        return Fraction(1)
    assert all(len(row) == n for row in a)
    rows = [[Fraction(x) for x in row] for row in a]
    scale = Fraction(1)
    int_rows = []
    for row in rows:
        s = math.lcm(*(x.denominator for x in row))
        scale *= s
        int_rows.append([int(x * s) for x in row])
    ech, piv, sign = bareiss_echelon(int_rows)
    if len(piv) < n:
        return Fraction(0)
    return Fraction(sign * ech[n - 1][n - 1]) / scale


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
    k = len(bs)
    m = [[Fraction(x) for x in row] + [Fraction(b[i]) for b in bs]
         for i, row in enumerate(a)]
    piv = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pr = m[r]
        inv = 1 / pr[c]
        m[r] = pr = [x * inv for x in pr]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], pr)]
        piv.append((r, c))
        r += 1
        if r == rows:
            break
    sols = []
    for t in range(k):
        ok = all(m[i][cols + t] == 0 for i in range(r, rows))
        if not ok:
            sols.append(None)
            continue
        x = [Fraction(0)] * cols
        for row, col in piv:
            x[col] = m[row][cols + t]
        sols.append(x)
    return sols
