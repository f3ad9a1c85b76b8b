"""Finite fields F_q (q <= 64), small GL_n(F_q) with their standard
subgroups, the additive trace measure, Kondo-Gauss sums, Weil characters,
Gauss-sum identities along field extensions, and the double-coset count
for pairs of parabolic subgroups.

Field elements are integer indices into a fixed enumeration, and each
field reads its products from one discrete-log table; matrices are tuples
of tuples of indices, so they are hashable and canonical.  Matrices
multiply row by row through lookup tables of the row space F_q^m.
"""

from __future__ import annotations

import itertools
import math
import operator
from array import array
from fractions import Fraction
from functools import lru_cache

from .chars import ClassFunction, elementwise, numerical_invariant
from .cyclo import Cyclo, _prime_divisors, integer, is_prime, zeta
from .groups import FiniteGroupTable, check_group_order
from .symgroup import kmatrix_solutions, w_of_kmatrix

__all__ = ["Fq", "build_field", "GLTable", "gl_group", "gl_order",
           "psi_measure", "kondo_measure", "weil_character",
           "weil_theta_exponents", "gauss_sum", "hasse_davenport_check",
           "verify_bruhat_bijection",
           "mat_mul", "mat_inv", "mat_det", "mat_identity", "mat_trace",
           "block_diagonal", "diagonal_blocks",
           "central_character"]

# fixed irreducible polynomials (coefficients ascending, monic) so that
# serialized data is reproducible bit for bit
_IRREDUCIBLE = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 1, 1, 0, 1),
    (3, 2): (2, 2, 1),
    (3, 3): (1, 2, 0, 1),
    (5, 2): (2, 4, 1),
    (7, 2): (3, 6, 1),
}


class Fq:
    """The field with p^d elements; elements are indices 0..q-1 with
    0 = zero and 1 = one.  The generator is the least index of order q - 1,
    found by polynomial products mod _IRREDUCIBLE[(p, d)]; mul, inv, pow
    and element_order read its powers and their inverse, dlog."""

    def __init__(self, p: int, d: int = 1):
        # before is_prime trial-divides p; p^7 > 64 for any prime p
        if p > 64 or p ** min(d, 7) > 64:
            raise ValueError(f"field size {p}^{d} exceeds the bound 64")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        q = p ** d
        self.p, self.d, self.q = p, d, q
        modulus = _IRREDUCIBLE[(p, d)] if d > 1 else None
        # index = c0 + c1 p + ... (constant coefficient first)
        self.elements = []
        for k in range(q):
            digits, t = [], k
            for _ in range(d):
                digits.append(t % p)
                t //= p
            self.elements.append(tuple(digits))
        self.index = {e: i for i, e in enumerate(self.elements)}
        self._modulus = modulus
        # digit by digit mod p (XOR when p = 2): the constant digit, and
        # the others from the addition table of F_p^(d-1)
        high = build_field(p, d - 1).add_table if d > 1 else [[0]]
        self.add_table = [[(x + y) % p + p * high[x // p][y // p]
                           for y in range(q)] for x in range(q)]
        self.neg_table = [self.index[tuple((-c) % p for c in a)]
                          for a in self.elements]
        # the generator g is the least unit of order q - 1; its q - 1
        # powers exp[k] = g^k and their inverse dlog give * and inv
        for g in range(1, q):
            exp, x = [1], g
            while x != 1 and len(exp) < q - 1:
                exp.append(x)
                x = self.index[self._poly_mul(self.elements[x],
                                              self.elements[g])]
            if x == 1 and len(exp) == q - 1:
                break
        else:
            raise AssertionError(f"F_{p}^{d}: modulus {modulus} is reducible")
        self.generator, self._exp = g, exp
        self.dlog = log = {x: k for k, x in enumerate(exp)}
        self.mul_table = [[0] * q] + [
            [0] + [exp[(log[a] + log[b]) % (q - 1)] for b in range(1, q)]
            for a in range(1, q)]
        self.inv_table = [None] + [exp[-log[a] % (q - 1)] for a in range(1, q)]
        self.trace_table = [self._trace(i) for i in range(q)]
        self.norm_table = [self._norm(i) for i in range(q)]
        self._rows = {}

    def _row_tables(self, m: int):
        """(vecs, code, add, scale) for the row space F_q^m: vecs lists
        the rows in itertools.product order, code maps a row to its
        position there, and add[u][v] and scale[c][v] are the codes of
        the sum u + v and the multiple c v.  Built once per m; the add
        table has q^(2m) entries, so GL(m, q) must be within the
        group-order cap."""
        tables = self._rows.get(m)
        if tables is None:
            check_group_order(f"GL({m},{self.q})", gl_order(m, self.q))
            vecs = list(itertools.product(range(self.q), repeat=m))
            code = {v: i for i, v in enumerate(vecs)}
            add = [[code[tuple(self.add_table[x][y] for x, y in zip(u, v))]
                    for v in vecs] for u in vecs]
            scale = [[code[tuple(self.mul_table[c][x] for x in v)]
                      for v in vecs] for c in range(self.q)]
            tables = self._rows[m] = (vecs, code, add, scale)
        return tables

    def _poly_mul(self, a, b):
        d, p = self.d, self.p
        prod = [0] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] = (prod[i + j] + x * y) % p
        if d > 1:
            mod = self._modulus
            for k in range(2 * d - 2, d - 1, -1):
                c = prod[k]
                if c:
                    for j in range(d + 1):
                        prod[k - d + j] = (prod[k - d + j] - c * mod[j]) % p
        return tuple(prod[:d])

    def add(self, i, j):
        return self.add_table[i][j]

    def sub(self, i, j):
        return self.add_table[i][self.neg_table[j]]

    def mul(self, i, j):
        return self.mul_table[i][j]

    def inv(self, i):
        if i == 0:
            raise ZeroDivisionError("inverse of zero field element")
        return self.inv_table[i]

    def pow(self, i, k):
        if i == 0:
            return 0 if k else 1
        return self._exp[self.dlog[i] * k % (self.q - 1)]

    def element_order(self, i):
        if i == 0:
            raise ValueError("zero has no multiplicative order")
        return (self.q - 1) // math.gcd(self.dlog[i], self.q - 1)

    def _trace(self, i) -> int:
        """Trace to the prime field as an integer 0..p-1."""
        total, x = 0, i
        for _ in range(self.d):
            total = self.add_table[total][x]
            x = self.pow(x, self.p)
        return self._prime_field_int(total, "trace")

    def _norm(self, i) -> int:
        """Norm to the prime field as an integer 0..p-1 (norm(0) = 0)."""
        e = (self.q - 1) // (self.p - 1)
        return self._prime_field_int(self.pow(i, e), "norm")

    def _prime_field_int(self, i, what) -> int:
        """Element i of the prime field as an integer 0..p-1."""
        coeffs = self.elements[i]
        if any(coeffs[1:]):
            raise AssertionError(f"{what} {coeffs} is not in F_{self.p}")
        return coeffs[0]

    def trace(self, i) -> int:
        return self.trace_table[i]

    def norm(self, i) -> int:
        return self.norm_table[i]

    def __repr__(self):
        return f"Fq({self.p}^{self.d})"


@lru_cache(maxsize=None)
def build_field(p: int, d: int = 1) -> Fq:
    return Fq(p, d)


# -- matrices ------------------------------------------------------------

def mat_identity(f: Fq, n: int):
    return tuple(tuple(1 if i == j else 0 for j in range(n))
                 for i in range(n))


def mat_mul(f: Fq, a, b):
    """The product a b; row i of it is the sum over t of a[i][t] b[t],
    read from the row tables of F_q^m, m the row length of b."""
    vecs, code, add, scale = f._row_tables(len(b[0]))
    rows = [code[row] for row in b]
    out = []
    for arow in a:
        acc = 0  # the zero row
        for x, row in zip(arow, rows):
            if x:
                acc = add[acc][scale[x][row]]
        out.append(vecs[acc])
    return tuple(out)


def mat_det(f: Fq, a) -> int:
    n = len(a)
    m = [list(row) for row in a]
    det = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = f.neg_table[det]
        det = f.mul_table[det][m[c][c]]
        inv = f.inv_table[m[c][c]]
        for i in range(c + 1, n):
            factor = f.mul_table[m[i][c]][inv]
            if factor:
                for j in range(c, n):
                    m[i][j] = f.sub(m[i][j], f.mul_table[factor][m[c][j]])
    return det


def mat_inv(f: Fq, a):
    n = len(a)
    m = [list(row) + [1 if i == j else 0 for j in range(n)]
         for i, row in enumerate(a)]
    for c in range(n):
        piv = next(i for i in range(c, n) if m[i][c])
        m[c], m[piv] = m[piv], m[c]
        inv = f.inv_table[m[c][c]]
        m[c] = [f.mul_table[inv][x] for x in m[c]]
        for i in range(n):
            if i != c and m[i][c]:
                factor = m[i][c]
                m[i] = [f.sub(x, f.mul_table[factor][y])
                        for x, y in zip(m[i], m[c])]
    return tuple(tuple(row[n:]) for row in m)


def mat_trace(f: Fq, a) -> int:
    total = 0
    for i in range(len(a)):
        total = f.add_table[total][a[i][i]]
    return total


def block_diagonal(x, y):
    """The block-diagonal matrix diag(x, y) of two square matrices."""
    a, b = len(x), len(y)
    return (tuple(tuple(row) + (0,) * b for row in x)
            + tuple((0,) * a + tuple(row) for row in y))


def diagonal_blocks(mat, a: int):
    """The two diagonal blocks of mat, of sizes a and len(mat) - a."""
    return (tuple(row[:a] for row in mat[:a]),
            tuple(row[a:] for row in mat[a:]))


def gl_order(n: int, q: int) -> int:
    out = 1
    for k in range(n):
        out *= q ** n - q ** k
    return out


def _gl_elements(f: Fq, n: int) -> list:
    """The invertible n x n matrices over f, in lexicographic order of
    their entries, as n columns of row codes: column i lists row i of
    every matrix.  The walk goes row by row: each row is a nonzero row
    code, in code order, outside the span of the rows above it."""
    vecs, _, add, scale = f._row_tables(n)
    # one byte per code where the q^n codes allow it, as they do for every
    # GL(n, q) within the default order cap but GL(2, 17); else two, as
    # q^n < 2^16 whenever the q^(2n) row sums fit in memory
    columns = [array("B" if len(vecs) <= 256 else "H") for _ in range(n)]

    def extend(rows, span):
        free = [r for r in range(1, len(vecs)) if r not in span]
        if len(rows) < n - 1:
            for r in free:
                extend(rows + (r,), {add[u][scale[c][r]]
                                     for u in span for c in range(f.q)})
            return
        # the last row: every free code, below one copy of the rows above
        for column, r in zip(columns, rows):
            column.extend([r] * len(free))
        columns[-1].extend(free)
    extend((), {0})
    return columns


class GLTable(FiniteGroupTable):
    """The table of GL_n(F_q) on its invertible matrices, given as the n
    columns of row codes (positions in the row list of `Fq._row_tables`)
    that `_gl_elements` walks, column i holding row i of every element in
    lexicographic order of their entries.  Beside the matrices it keeps
    those columns and a key table.  The key of a matrix with row codes
    c_1, ..., c_n is c_1 Q^(n-1) + ... + c_n, Q = q^n: its position among
    all q^(n^2) square matrices.  The key table is a list over those
    positions that sends each element's key to its index, None elsewhere;
    as |GL_n(F_q)| / q^(n^2) = prod (1 - q^-k) > 0.288, it holds fewer
    than 3.5 |GL_n(F_q)| entries, and it is sized after the group-order
    check.

    Right multiplication by s acts on each row separately, so its right
    action is read from s's row map v -> v s, a list of Q codes: Q
    products per generator of the Schreier tree, none per element.  The
    row map sends each column to the image rows' codes, one integer pass
    per column sums them into keys, and the key table gives each image's
    index; no matrix is built or hashed."""

    def __init__(self, f: Fq, n: int, columns):
        vecs = f._row_tables(n)[0]
        super().__init__(f"GL({n},{f.q})", zip(*(
            map(vecs.__getitem__, column) for column in columns)),
            lambda a, b: mat_mul(f, a, b), None, mat_identity(f, n))
        self.field = f
        self.n = n
        self._columns = columns
        self._key_index = [None] * len(vecs) ** n
        # the index dict's values are 0, 1, ... in element order; storing
        # them, not new integers, keeps one int object per index
        for i, key in zip(self.index.values(), self._keys(range(len(vecs)))):
            self._key_index[key] = i

    def _keys(self, rowmap):
        """The key of x s for every element x, in element order, where
        rowmap lists the code of v s for each row code v.  An iterator:
        the passes over the columns, each adding rowmap[c] Q^(n-i) for
        column i, run side by side, so no list of keys is built."""
        keys, place = None, 1
        for column in reversed(self._columns):
            images = map([r * place for r in rowmap].__getitem__, column)
            keys = (images if keys is None
                    else map(operator.add, images, keys))
            place *= len(rowmap)
        return keys

    def _right_array(self, s: int) -> list[int]:
        f, t = self.field, self.elements[s]
        vecs, code = f._row_tables(self.n)[:2]
        rowmap = [code[mat_mul(f, (v,), t)[0]] for v in vecs]
        return list(map(self._key_index.__getitem__, self._keys(rowmap)))


@lru_cache(maxsize=None)
def gl_group(n: int, q: int) -> GLTable:
    """GL_n(F_q) by full enumeration of its row codes, with the standard
    subgroups registered as closures of their generators: U(k,n-k),
    P(k,n-k), L(k,n-k), Z, D, B and Sigma, built from the transvections
    I + c E_ij (c in the additive basis p^t of F_q), the diagonal matrices
    with one entry the field generator g, the scalar g I and the adjacent
    transposition matrices.  The Schreier tree's right actions are read
    from the row codes through each generator's row map and the key table
    (GLTable), with no product or matrix hash per element."""
    if n < 1:
        raise ValueError(f"GL({n},{q}) needs n >= 1")
    check_group_order(f"GL({n},{q})", gl_order(n, q))
    f = build_field(*_prime_power(q))
    columns = _gl_elements(f, n)
    if len(columns[0]) != gl_order(n, q):
        raise AssertionError(f"{len(columns[0])} invertible matrices, "
                             f"not |GL({n},{q})| = {gl_order(n, q)}")
    G = GLTable(f, n, columns)

    def matrix(entries):
        """The index of the identity matrix with the given (i, j) -> value
        entries written over it."""
        return G.index[tuple(tuple(entries.get((i, j), int(i == j))
                                   for j in range(n)) for i in range(n))]

    def transvections(pairs):
        # I + c E_ij for c in the additive basis p^t of F_q
        return [matrix({ij: f.p ** t}) for ij in pairs for t in range(f.d)]

    diagonal = [matrix({(i, i): f.generator}) for i in range(n)]
    for k in range(1, n):
        top, bottom = range(k), range(k, n)
        levi = diagonal + transvections(
            [(i, j) for b in (top, bottom) for i in b for j in b if i != j])
        radical = transvections([(i, j) for i in top for j in bottom])
        G.subgroups[f"U({k},{n - k})"] = G.closure(radical)
        G.subgroups[f"P({k},{n - k})"] = G.closure(levi + radical)
        G.subgroups[f"L({k},{n - k})"] = G.closure(levi)
    G.subgroups["Z"] = G.closure(
        [matrix({(i, i): f.generator for i in range(n)})])
    G.subgroups["D"] = G.closure(diagonal)
    G.subgroups["B"] = G.closure(diagonal + transvections(
        [(i, j) for i in range(n) for j in range(i + 1, n)]))
    G.subgroups["Sigma"] = G.closure(
        [matrix({(i, i): 0, (i + 1, i + 1): 0, (i, i + 1): 1, (i + 1, i): 1})
         for i in range(n - 1)])
    return G


def _prime_power(q: int):
    primes = _prime_divisors(q)
    if len(primes) != 1:
        raise ValueError(f"{q} is not a prime power")
    p, = primes
    d = 1
    while p ** d < q:
        d += 1
    return p, d


# -- measure and Gauss sums ----------------------------------------------

def psi_measure(f: Fq, x) -> Cyclo:
    """zeta_p raised to the trace-of-matrix-trace of x."""
    return zeta(f.p, f.trace(mat_trace(f, x)))


def kondo_measure(G: FiniteGroupTable):
    """Psi on the element indices of G.  The Kondo-Gauss sum of a
    character chi is numerical_invariant(chi, kondo_measure(G)) when chi
    is known element by element, and numerical_invariant(chi,
    G.class_measure(kondo_measure(G))) when chi is a class function of G."""
    f = G.field
    return lambda i: psi_measure(f, G.elements[i])


def gauss_sum(f: Fq, lam: ClassFunction) -> Cyclo:
    """tau(lam) = sum over units of lam(x) zeta_p^{trace(x)}, for a unit
    character lam known element by element."""
    return numerical_invariant(lam, lambda x: zeta(f.p, f.trace(x)))


def unit_character(f: Fq, j: int) -> ClassFunction:
    """The j-th power character of the cyclic unit group."""
    values = {x: zeta(f.q - 1, j * f.dlog[x]) for x in range(1, f.q)}
    return elementwise(f"units of {f!r}", values, 1)


def hasse_davenport_check(p: int, m: int) -> dict:
    """Check -tau(lam o Norm) = (-1)^m tau(lam)^m over F_{p^m} for every
    character lam of the units of F_p."""
    if m < 1:
        raise ValueError(f"extension degree m = {m} < 1")
    base = build_field(p)
    ext = build_field(p, m)
    failures = []
    for j in range(p - 1):
        lam = unit_character(base, j)
        tau = gauss_sum(base, lam)
        lifted = elementwise(f"units of {ext!r}",
                             {y: lam(ext.norm(y)) for y in range(1, ext.q)}, 1)
        tau_ext = gauss_sum(ext, lifted)
        lhs = -tau_ext
        rhs = tau ** m * ((-1) ** m)
        if lhs != rhs:
            failures.append(j)
    return {"p": p, "m": m, "characters": p - 1, "failures": failures,
            "pass": not failures}


# -- Weil characters -------------------------------------------------------

def _nonsplit_torus(G: FiniteGroupTable):
    """The embedded unit group of the quadratic extension: matrices
    [[a, b s], [b, a]] with s the least non-square unit."""
    f = G.field
    q = f.q
    if q % 2 == 0:
        raise ValueError("odd q required for the quadratic embedding")
    squares = {f.mul(x, x) for x in range(1, q)}
    s = next(x for x in range(1, q) if x not in squares)
    torus = []
    for a in range(q):
        for b in range(q):
            if a == 0 and b == 0:
                continue
            mat = ((a, f.mul(b, s)), (b, a))
            if mat in G.index:
                torus.append(G.index[mat])
    if len(torus) != q * q - 1:
        raise AssertionError(f"nonsplit torus of order {len(torus)}, "
                             f"not {q * q - 1}")
    return torus


def weil_theta_exponents(q: int) -> list[int]:
    """Exponents j for which the j-th torus character is moved by the
    field Frobenius (the hypothesis for a Weil character)."""
    if q > 64:  # Fq's bound, before q is factored
        raise ValueError(f"field size {q} exceeds the bound 64")
    build_field(*_prime_power(q))  # a ValueError unless F_q is a field
    return [j for j in range(q * q - 1) if (j * q - j) % (q * q - 1) != 0]


def _torus_dlog(G: FiniteGroupTable, torus):
    """Discrete logs on the cyclic embedded torus."""
    order = len(torus)
    members = set(torus)
    for g in torus:
        chain = G.powers(g)
        if len(chain) == order and set(chain) == members:
            return {x: (k + 1) % order for k, x in enumerate(chain)}
    raise AssertionError("torus is not cyclic")


def _torus_character(G: FiniteGroupTable, j: int):
    """(torus, Theta): the nonsplit torus of G = GL(2,q) and its j-th
    character Theta as a map element index -> value."""
    torus = _nonsplit_torus(G)
    dlog = _torus_dlog(G, torus)
    return torus, {i: zeta(len(torus), j * dlog[i]) for i in torus}


def weil_character(q: int, j: int) -> ClassFunction:
    """The virtual character Ind_H(Theta x Psi) - Ind_T(Theta) for the
    j-th torus character Theta; a true irreducible character of degree
    q - 1 when Theta is moved by Frobenius."""
    if j not in weil_theta_exponents(q):
        raise ValueError(f"torus character {j} is Frobenius-invariant")
    G = gl_group(2, q)
    f = G.field
    torus, theta = _torus_character(G, j)
    # scalar-unipotent subgroup [[a, b], [0, a]] with the linear character
    # Theta(a) Psi(b/a); linearity needs the equal diagonal entries
    top = [G.index[((a, b), (0, a))] for a in range(1, q) for b in range(q)]
    chi_top = {}
    for i in top:
        (a, b), _ = G.elements[i]
        scalar = G.index[((a, 0), (0, a))]
        chi_top[i] = theta[scalar] * zeta(f.p, f.trace(f.mul(b, f.inv(a))))
    ind_top = G.induced_character(top, chi_top)
    ind_torus = G.induced_character(torus, theta)
    return ind_top - ind_torus


def weil_identity_check(q: int, j: int) -> dict:
    """Both sides of W_{GL_2}(r(Theta)) = -q W_{torus}(Theta), exactly."""
    G = gl_group(2, q)
    _, theta = _torus_character(G, j)
    r_theta = weil_character(q, j)
    if r_theta.degree() != q - 1:
        raise AssertionError(f"Weil character of degree {r_theta.degree()}, "
                             f"not {q - 1}")
    psi = kondo_measure(G)
    lhs = numerical_invariant(r_theta, G.class_measure(psi))
    rhs = -q * numerical_invariant(
        elementwise(G.name, theta, G.identity_idx), psi)
    return {"q": q, "theta": j, "lhs": lhs, "rhs": rhs, "pass": lhs == rhs}


def verify_kondo_induction(n: int, q: int) -> dict:
    """W of a linear character of a cyclic subgroup equals W of its
    induction to the whole group, for the Kondo measure; exhaustive over
    all cyclic subgroups and all of their characters (see
    FiniteGroupTable.cyclic_induction_check)."""
    G = gl_group(n, q)
    cases, found = G.cyclic_induction_check(kondo_measure(G))
    failures = [{"generator": g, "character": j} for g, j in found]
    return {"check": "kondo-induction", "n": n, "q": q, "cases": cases,
            "failures": failures, "pass": not failures}


def verify_kondo_multiplicative(q: int) -> dict:
    """W on the diagonally embedded GL_1 x GL_1 inside GL_2 factors as
    the product of the two GL_1 values, for every pair of unit
    characters."""
    G = gl_group(2, q)
    f = G.field
    psi = kondo_measure(G)
    diag = sorted(G.subgroups["D"])
    cases = 0
    failures = []
    for j1 in range(q - 1):
        for j2 in range(q - 1):
            lam1 = unit_character(f, j1)
            lam2 = unit_character(f, j2)
            chi = {i: lam1(G.elements[i][0][0]) * lam2(G.elements[i][1][1])
                   for i in diag}
            lhs = numerical_invariant(
                elementwise(G.name, chi, G.identity_idx), psi)
            cases += 1
            if lhs != gauss_sum(f, lam1) * gauss_sum(f, lam2):
                failures.append({"j1": j1, "j2": j2})
    return {"check": "kondo-multiplicative", "q": q, "cases": cases,
            "failures": failures, "pass": not failures}


def central_character(G: FiniteGroupTable, chi: ClassFunction) -> dict:
    """Scalar action of the center on an irreducible: z -> chi(z)/deg."""
    inv_deg = Fraction(1, integer(chi.degree()))
    return {z: chi.values[G.class_of(z)] * inv_deg
            for z in G.subgroups["Z"]}


# -- Bruhat double cosets ---------------------------------------------------

def permutation_matrix(f: Fq, w):
    """Matrix of a permutation w (Perm on 1..m): column j holds 1 in
    row w(j)."""
    m = w.n
    return tuple(tuple(1 if w(j + 1) == i + 1 else 0 for j in range(m))
                 for i in range(m))


def verify_bruhat_bijection(a: int, alpha: int, m: int, q: int) -> dict:
    """Brute-force P_{a,m-a} \\ GL_m / P_{alpha,m-alpha} and compare with
    the 2x2 matrix solutions; the canonical permutation representatives
    must hit each parabolic double coset exactly once."""
    G = gl_group(m, q)
    f = G.field
    left = (G.subgroups[f"P({a},{m - a})"] if 0 < a < m
            else frozenset(range(G.order)))
    right = (G.subgroups[f"P({alpha},{m - alpha})"] if 0 < alpha < m
             else frozenset(range(G.order)))
    cosets = G.double_cosets(left, right)
    sols = kmatrix_solutions(a, alpha, m)
    coset_of = {}
    for label, (_, members) in enumerate(cosets):
        for x in members:
            coset_of[x] = label
    hit = []
    for k in sols:
        w = w_of_kmatrix(k, a, alpha, m)
        hit.append(coset_of[G.index[permutation_matrix(f, w)]])
    ok = (len(cosets) == len(sols) and len(set(hit)) == len(sols))
    return {"a": a, "alpha": alpha, "m": m, "q": q,
            "cosets": len(cosets), "solutions": len(sols),
            "bijection": ok, "pass": ok}
