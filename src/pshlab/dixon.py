"""Exact character tables of small finite groups via the class-algebra
(Burnside/Dixon) method.

One power map, computed once, gives all class-level data: for each class
representative, the classes of its powers.  The exponent e is the lcm of
the row lengths and the inverse class is read from the same row.  The
class-sum matrices are simultaneously diagonalized over a prime field F_l
with l = 1 (mod e) and l > 2|G| (Dixon 1967, Schneider 1990).  Each
eigenspace of dimension d > 1 is split by the next class matrix: its d x d
restriction is brought to Hessenberg form, whose recurrence gives the
characteristic polynomial (Cohen, GTM 138, 2.2); a Horner scan over every
lambda in F_l finds the roots, and only at those roots is an eigenspace
taken as a nullspace from the one F_l eliminator, _rref.  Degrees are
recovered from the second orthogonality relation.  The values on a class
of order o are lifted to Q(zeta_o) by discrete Fourier inversion over its
own power-map row, with zeta_o = z^(e/o) for z of order e in F_l, and
written at conductor e.  Both orthogonality relations are re-verified
exactly in cyclotomic arithmetic before the table is returned, each row
and each column sum as one cyclo.dot.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from .cyclo import Cyclo, _prime_divisors, conj, dot, is_prime, scalar
from .groups import FiniteGroupTable

__all__ = ["dixon_character_table"]


def _choose_prime(e: int, minimum: int) -> int:
    l = e + 1
    while l <= minimum or not is_prime(l):
        l += e
    return l


def _primitive_root(l: int) -> int:
    fac = _prime_divisors(l - 1)
    for g in range(2, l):
        if all(pow(g, (l - 1) // p, l) != 1 for p in fac):
            return g
    raise AssertionError("no primitive root found")


def _mat_vec(a, v, l):
    return [sum(map(mul, row, v)) % l for row in a]


def _rref(rows, l, ncols):
    """Reduced row echelon form over F_l of a copy of rows, pivoting on
    the first ncols columns and reducing whole rows; returns (rows,
    pivot columns)."""
    rows = [row[:] for row in rows]
    piv_cols = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] % l), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], l - 2, l)
        pr = rows[r] = [x * inv % l for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] % l:
                f = rows[i][c]
                rows[i] = [(x - f * y) % l for x, y in zip(rows[i], pr)]
        piv_cols.append(c)
        r += 1
    return rows, piv_cols


def _nullspace(a, l):
    """Basis of the nullspace of a over F_l."""
    n_cols = len(a[0]) if a else 0
    rows, piv_cols = _rref(a, l, n_cols)
    basis = []
    for fc in range(n_cols):
        if fc in piv_cols:
            continue
        v = [0] * n_cols
        v[fc] = 1
        for row_idx, pc in enumerate(piv_cols):
            v[pc] = (-rows[row_idx][fc]) % l
        basis.append(v)
    return basis


def _charpoly(a, l):
    """The characteristic polynomial det(x I - a) over F_l, ascending
    coefficients.  Elementary similarities bring a to upper Hessenberg
    form h; then p_m, the polynomial of the leading m x m block, obeys
        p_{m+1} = (x - h[m][m]) p_m
                  - sum_{i=1..m} h[m-i][m] h[m][m-1] ... h[m-i+1][m-i] p_{m-i}
    and p_n is the answer."""
    n = len(a)
    h = [[x % l for x in row] for row in a]
    for m in range(1, n - 1):
        piv = next((i for i in range(m, n) if h[i][m - 1]), None)
        if piv is None:
            continue
        if piv != m:
            h[m], h[piv] = h[piv], h[m]
            for row in h:
                row[m], row[piv] = row[piv], row[m]
        inv = pow(h[m][m - 1], l - 2, l)
        for i in range(m + 1, n):
            u = h[i][m - 1] * inv % l
            if u:
                # row_i -= u row_m, then column_m += u column_i
                h[i] = [(x - u * y) % l for x, y in zip(h[i], h[m])]
                for row in h:
                    row[m] = (row[m] + u * row[i]) % l
    polys = [[1]]
    for m in range(n):
        prev = polys[m]
        p = [0] + prev
        for k, c in enumerate(prev):
            p[k] -= h[m][m] * c
        t = 1
        for i in range(1, m + 1):
            t = t * h[m - i + 1][m - i] % l
            f = t * h[m - i][m] % l
            if f:
                for k, c in enumerate(polys[m - i]):
                    p[k] -= f * c
        polys.append([x % l for x in p])
    return polys[n]


def _roots(poly, l):
    """Every root in F_l of poly (ascending coefficients), by a Horner
    scan over all of F_l."""
    values = [poly[-1]] * l
    for c in reversed(poly[:-1]):
        values = [(v * lam + c) % l for lam, v in enumerate(values)]
    return [lam for lam, v in enumerate(values) if v == 0]


def _restrict(a, basis, l):
    """Matrix of the linear map a on the span of basis, in basis coords."""
    d = len(basis)
    n = len(basis[0])
    # augmented solve: [basis^T | a b_j] for all j at once
    cols = [_mat_vec(a, b, l) for b in basis]
    m = [[basis[j][i] for j in range(d)] + [cols[j][i] for j in range(d)]
         for i in range(n)]
    m, piv_cols = _rref(m, l, d)
    if len(piv_cols) != d:
        raise AssertionError("basis not independent")
    if any(x % l for i in range(d, n) for x in m[i][d:]):
        raise AssertionError("image leaves the span")
    return [m[i][d:] for i in range(d)]


def _class_matrices(G: FiniteGroupTable, power_map):
    """The class-sum matrices B_i: (B_i)[k][j] counts the x in class i
    with x^-1 z in class j, z the representative of class k.  So it
    counts the w = x^-1 in the inverse class of i, read from the power
    map, with w z, the right action of z at w, in class j."""
    r = len(power_map)
    inverse = [_power(row, -1) for row in power_map]
    label = [G.class_of(w) for w in range(G.order)]
    inverse_label = [inverse[c] for c in label]
    mats = [[[0] * r for _ in range(r)] for _ in range(r)]
    for k, z in enumerate(G.class_reps()):
        by_z = G.right(z)
        for w, i in enumerate(inverse_label):
            mats[i][k][label[by_z[w]]] += 1
    return mats


def _power_map(G: FiniteGroupTable):
    """For each class, the classes of rep, rep^2, ..., 1 for its
    representative rep; the row's length is the order of the class."""
    return [[G.class_of(x) for x in G.powers(rep)] for rep in G.class_reps()]


def _power(row, j):
    """The class of rep^j, read from the power map row of rep."""
    return row[(j - 1) % len(row)]


def _lift(chi_mod, row, deg, z_pows, l):
    """The exact value, at the class whose power map row is row, of the
    character of degree deg with values chi_mod over F_l; z_pows lists the
    powers of z, of order e in F_l.  With o = len(row), the order of the
    class, the values at rep^j for j < o determine the multiplicity of
    each eigenvalue zeta_o^k of rep, found by discrete Fourier inversion
    over zeta_o = z^(e/o); the value is written at conductor e."""
    e, o = len(z_pows), len(row)
    zeta_o = z_pows[::e // o]
    inv_o = pow(o, l - 2, l)
    at_powers = [chi_mod[_power(row, j)] for j in range(o)]
    terms = {}
    for k in range(o):
        m_k = sum(x * zeta_o[(-j * k) % o]
                  for j, x in enumerate(at_powers)) * inv_o % l
        if m_k > deg:
            raise AssertionError("lifted multiplicity out of range")
        if m_k:
            terms[k] = m_k
    return scalar(Cyclo.from_terms(o, terms).lift(e))


def dixon_character_table(G: FiniteGroupTable):
    """List of exact irreducible ClassFunctions, sorted by degree."""
    r = len(G.classes())
    sizes = G.class_sizes()
    power_map = _power_map(G)
    e = math.lcm(*map(len, power_map))
    l = _choose_prime(e, 2 * G.order)
    mats = _class_matrices(G, power_map)

    # split the class algebra into common eigenlines over F_l; it is split
    # semisimple there, so each eigenvalue is a root of the restriction's
    # characteristic polynomial and its eigenspace a nullspace
    spaces = [[[1 if i == j else 0 for j in range(r)] for i in range(r)]]
    for i in range(1, r):
        new_spaces = []
        for basis in spaces:
            d = len(basis)
            if d == 1:
                new_spaces.append(basis)
                continue
            restricted = _restrict(mats[i], basis, l)
            for lam in _roots(_charpoly(restricted, l), l):
                shifted = [[(restricted[a][b] - (lam if a == b else 0)) % l
                            for b in range(d)] for a in range(d)]
                sub = [[sum(coords[t] * basis[t][c] for t in range(d)) % l
                        for c in range(r)]
                       for coords in _nullspace(shifted, l)]
                if sub:
                    new_spaces.append(sub)
        spaces = new_spaces
    if len(spaces) != r or any(len(b) != 1 for b in spaces):
        raise AssertionError("class algebra failed to split completely")

    z = pow(_primitive_root(l), (l - 1) // e, l)
    z_pows = [pow(z, t, l) for t in range(e)]

    chars = []
    for (v,) in spaces:
        pivot = next(c for c in range(r) if v[c] % l)
        pinv = pow(v[pivot], l - 2, l)
        omega = [sum(x * y for x, y in zip(mats[i][pivot], v)) * pinv % l
                 for i in range(r)]
        s = sum(omega[i] * omega[_power(power_map[i], -1)]
                * pow(sizes[i], l - 2, l) for i in range(r)) % l
        d2 = G.order * pow(s, l - 2, l) % l
        deg = next(d for d in range(1, int(math.isqrt(G.order)) + 1)
                   if d * d % l == d2)
        chi_mod = [deg * omega[i] * pow(sizes[i], l - 2, l) % l
                   for i in range(r)]
        values = {i: _lift(chi_mod, row, deg, z_pows, l)
                  for i, row in enumerate(power_map)}
        if values[0] != deg:
            raise AssertionError(f"degree {values[0]} lifted, {deg} expected")
        chars.append(G.class_function(values))

    chars.sort(key=lambda c: (c.values[0] if isinstance(c.values[0], int)
                              else 0,
                              [str(c.values[i]) for i in range(r)]))
    _verify_orthogonality(G, chars)
    return chars


def _verify_orthogonality(G: FiniteGroupTable, chars):
    r = len(G.classes())
    if len(chars) != r:
        raise AssertionError(f"{len(chars)} characters for {r} classes "
                             f"of {G.name}")
    if sum(int(c.values[0]) ** 2 for c in chars) != G.order:
        raise AssertionError(f"squared degrees do not sum to |{G.name}|")
    # each character is conjugated once; row (i, j) is one dot of chi_i
    # by |class| conj(chi_j) over the classes and must be |G| or 0.  Row
    # (j, i) is the complex conjugate of row (i, j), so j >= i suffice.
    sizes = G.class_sizes()
    rows = [[c.values[k] for k in range(r)] for c in chars]
    bars = [[conj(v) for v in row] for row in rows]
    weighted = [[sizes[k] * v for k, v in enumerate(bar)] for bar in bars]
    for i, values in enumerate(rows):
        for j in range(i, r):
            if dot(values, weighted[j]) != (G.order if i == j else 0):
                raise AssertionError(
                    f"orthogonality failure in {G.name} at ({i},{j})")
    # column orthogonality: one dot of chi(g) by conj(chi(g)) over chars
    for k in range(r):
        total = dot([row[k] for row in rows], [bar[k] for bar in bars])
        expected = Fraction(G.order, sizes[k])
        if total != expected:
            raise AssertionError(f"column orthogonality failure at {k}")
