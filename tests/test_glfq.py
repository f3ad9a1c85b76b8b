import itertools
import os
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from pshlab import glfq
from pshlab.chars import elementwise, numerical_invariant
from pshlab.cyclo import Cyclo, is_prime, zeta
from pshlab.glfq import (_IRREDUCIBLE, Fq, _gl_elements, _prime_power,
                         build_field, gauss_sum, gl_group,
                         gl_order, hasse_davenport_check, kondo_measure,
                         mat_det, mat_identity, mat_inv, mat_mul, mat_trace,
                         permutation_matrix, psi_measure, unit_character,
                         verify_bruhat_bijection, verify_kondo_induction,
                         verify_kondo_multiplicative, weil_character,
                         weil_identity_check, weil_theta_exponents)
from pshlab.groups import FiniteGroupTable
from pshlab.symgroup import Perm, kmatrix_solutions, w_of_kmatrix


def test_prime_field():
    f = build_field(7)
    assert f.q == 7
    for x in range(1, 7):
        assert f.mul(x, f.inv(x)) == 1
        assert f.trace(x) == x
        assert f.norm(x) == x


def test_prime_power_splits_exactly_the_prime_powers():
    for q in range(-2, 300):
        powers = [(p, d) for p in range(2, q + 1) if is_prime(p)
                  for d in range(1, 9) if p ** d == q]
        if powers:
            assert _prime_power(q) == powers[0], q
        else:
            with pytest.raises(ValueError, match=f"^{q} is not a prime"):
                _prime_power(q)


def test_extension_field():
    f = build_field(3, 2)
    assert f.q == 9
    # trace and norm are onto and multiplicative/additive
    assert {f.norm(x) for x in range(1, 9)} == {1, 2}
    assert {f.trace(x) for x in range(9)} == {0, 1, 2}
    for x in range(1, 9):
        for y in range(1, 9):
            assert f.norm(f.mul(x, y)) == (f.norm(x) * f.norm(y)) % 3
            assert f.trace(f.add(x, y)) == (f.trace(x) + f.trace(y)) % 3
    # dlog inverts powers of the generator
    g = next(x for x in range(1, 9) if f.element_order(x) == 8)
    assert f.dlog[f.pow(g, 5)] % 8 == (5 * f.dlog[g]) % 8


def polynomial_oracle(p, d, modulus):
    """add, mul and neg on indices of F_p[x]/(modulus) by schoolbook
    polynomial arithmetic: index c0 + c1 p + ... is c0 + c1 x + ..."""
    def poly(i):
        return [i // p ** k % p for k in range(d)]

    def index(coeffs):
        return sum(c % p * p ** k for k, c in enumerate(coeffs))

    def mul(a, b):
        prod = [0] * (2 * d - 1)
        for i, x in enumerate(poly(a)):
            for j, y in enumerate(poly(b)):
                prod[i + j] += x * y
        # x^k = x^(k-d) (x^d - modulus), from the top degree down
        for k in range(2 * d - 2, d - 1, -1):
            c = prod[k]
            for j in range(d + 1):
                prod[k - d + j] -= c * modulus[j]
        return index(prod[:d])

    def add(a, b):
        return index(x + y for x, y in zip(poly(a), poly(b)))

    def neg(a):
        return index(-x for x in poly(a))
    return add, mul, neg


ALL_FIELDS = ([(p, 1) for p in range(2, 62) if is_prime(p)]
              + sorted(_IRREDUCIBLE))


@pytest.mark.parametrize("p,d", ALL_FIELDS)
def test_field_tables_match_polynomial_oracle(p, d):
    f = build_field(p, d)
    q = f.q
    add, mul, neg = polynomial_oracle(p, d, _IRREDUCIBLE.get((p, d)))
    for a in range(q):
        assert f.neg_table[a] == neg(a)
        assert f.add_table[a] == [add(a, b) for b in range(q)]
        assert f.mul_table[a] == [mul(a, b) for b in range(q)]
    assert f.inv_table[0] is None
    for a in range(1, q):
        assert mul(a, f.inv_table[a]) == 1
    powers = {}
    for a in range(1, q):
        row, x = [1], a
        while x != 1:
            row.append(x)
            x = mul(x, a)
        powers[a] = row
        assert f.element_order(a) == len(row)
        assert [f.pow(a, k) for k in range(2 * q)] == [
            row[k % len(row)] for k in range(2 * q)]
    g = min(a for a in range(1, q) if len(powers[a]) == q - 1)
    assert f.generator == g
    assert f.dlog == {x: k for k, x in enumerate(powers[g])}
    assert [f.pow(0, k) for k in range(3)] == [1, 0, 0]
    with pytest.raises(ValueError):
        f.element_order(0)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


@pytest.mark.parametrize("p,d,modulus", [(2, 2, (1, 0, 1)),
                                         (2, 6, (1, 0, 0, 0, 0, 0, 1))])
def test_reducible_modulus_fails_as_a_structured_error(p, d, modulus,
                                                       monkeypatch):
    # (x + 1)^2 and (x^3 + 1)^2 over F_2 have zero divisors, so no unit
    # has order q - 1; Fq bypasses the build_field cache
    monkeypatch.setitem(_IRREDUCIBLE, (p, d), modulus)
    with pytest.raises(AssertionError,
                       match=rf"F_{p}\^{d}: .*{re.escape(str(modulus))}"):
        Fq(p, d)


def test_matrix_helpers():
    f = build_field(3)
    a = ((1, 2), (0, 1))
    assert mat_mul(f, a, mat_identity(f, 2)) == a
    assert mat_mul(f, a, mat_inv(f, a)) == mat_identity(f, 2)
    assert mat_det(f, a) == 1
    assert mat_trace(f, a) == 2


def oracle_mul(f, a, b):
    """The matrix product by the textbook triple loop over the field
    tables."""
    out = []
    for i in range(len(a)):
        row = []
        for j in range(len(b[0])):
            total = 0
            for t in range(len(b)):
                total = f.add_table[total][f.mul_table[a[i][t]][b[t][j]]]
            row.append(total)
        out.append(tuple(row))
    return tuple(out)


@pytest.mark.parametrize("p,d", [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3),
                                 (3, 2)])
def test_mat_mul_matches_triple_loop(p, d, monkeypatch):
    f = build_field(p, d)
    rng = random.Random(100 * p + d)
    # a 3x3 product reads the row tables of F_q^3, which the group-order
    # cap admits only when GL(3,q) is within it
    monkeypatch.setenv("PSHLAB_MAX_GROUP_ORDER",
                       str(max(gl_order(3, f.q), 100000)))

    def random_matrix(rows, cols):
        return tuple(tuple(rng.randrange(f.q) for _ in range(cols))
                     for _ in range(rows))
    for x in range(f.q):
        for y in range(f.q):
            assert mat_mul(f, ((x,),), ((y,),)) == oracle_mul(
                f, ((x,),), ((y,),))
    for n, k, m in [(2, 2, 2), (3, 3, 3), (2, 3, 1)]:
        for _ in range(60):
            a, b = random_matrix(n, k), random_matrix(k, m)
            assert mat_mul(f, a, b) == oracle_mul(f, a, b), (a, b)


def test_mat_mul_on_gl_2_4_generators():
    G = gl_group(2, 4)
    f = G.field
    gens = G.small_generators(range(G.order))
    for g in gens:
        x = G.elements[g]
        for y in G.elements:
            assert mat_mul(f, x, y) == oracle_mul(f, x, y)
            assert mat_mul(f, y, x) == oracle_mul(f, y, x)


def test_row_tables_respect_group_order_cap():
    # |GL(2,3)| = 48 is within the lowered cap, |GL(3,3)| = 11232 is not;
    # the refused request allocates no table
    code = ("from pshlab.glfq import build_field, mat_identity, mat_mul\n"
            "f = build_field(3)\n"
            "two = mat_identity(f, 2)\n"
            "assert mat_mul(f, two, two) == two\n"
            "three = mat_identity(f, 3)\n"
            "try:\n"
            "    mat_mul(f, three, three)\n"
            "except ResourceWarning as exc:\n"
            "    raise SystemExit(0 if 'GL(3,3)' in str(exc)\n"
            "                     and sorted(f._rows) == [2] else 1)\n"
            "raise SystemExit(1)\n")
    env = dict(os.environ, PSHLAB_MAX_GROUP_ORDER="1000")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_gl_elements_match_the_determinant_filter():
    # every GL(n,q) with q^(n^2) <= 3^9 over a field pshlab builds
    for q in range(2, 65):
        try:
            f = build_field(*_prime_power(q))
        except ValueError:  # not a prime power
            continue
        for n in (1, 2, 3):
            if q ** (n * n) > 3 ** 9:
                continue
            by_det = [a for a in (
                tuple(entries[i * n:(i + 1) * n] for i in range(n))
                for entries in itertools.product(range(q), repeat=n * n))
                if mat_det(f, a)]
            vecs = f._row_tables(n)[0]
            assert list(zip(*(map(vecs.__getitem__, column) for column
                              in _gl_elements(f, n)))) == by_det, (n, q)


# every GL(n, q) that the tier-1 tests build
TIER1_GL = [(1, 2), (1, 3), (1, 4), (1, 5), (2, 2), (2, 3), (2, 4), (2, 5),
            (3, 2), (3, 3)]


def right_array_mismatches(G):
    """The elements s, among the tree generators and a spread of others,
    whose right array read from row codes differs from the one the
    multiplication callback gives, one product per element."""
    gens = [r[G.identity_idx] for r in G._schreier_tree()[0]]
    spread = range(0, G.order, max(1, G.order // 8))
    return [s for s in dict.fromkeys(gens + list(spread))
            if G._right_array(s) != FiniteGroupTable._right_array(G, s)]


def entry_key(G, x):
    """The position of element x among all q^(n^2) square matrices: its
    entries, row by row, as the digits of a base-q number."""
    key = 0
    for row in G.elements[x]:
        for entry in row:
            key = key * G.field.q + entry
    return key


@pytest.mark.parametrize("n,q", TIER1_GL)
def test_row_code_right_arrays_match_the_callback(n, q):
    assert right_array_mismatches(gl_group(n, q)) == []


@pytest.mark.parametrize("n,q", TIER1_GL)
def test_key_table_sends_each_key_to_its_element(n, q):
    G = gl_group(n, q)
    table = G._key_index
    assert len(table) == q ** (n * n)
    assert [table[entry_key(G, x)] for x in range(G.order)] == list(
        range(G.order))
    assert sum(i is not None for i in table) == G.order
    # the columns hold the row codes of every element
    vecs = G.field._row_tables(n)[0]
    assert [tuple(vecs[c[x]] for c in G._columns)
            for x in range(G.order)] == G.elements


def test_two_byte_columns_on_gl_2_17():
    # GL(2,17), of order 78,336, is the one group within the default cap
    # whose 17^2 row codes do not fit in a byte
    G = gl_group.__wrapped__(2, 17)
    assert [c.typecode for c in G._columns] == ["H", "H"]
    assert max(G._columns[0]) == 17 ** 2 - 1
    assert all(G._key_index[entry_key(G, x)] == x for x in range(G.order))
    gens = [r[G.identity_idx] for r in G._schreier_tree()[0]]
    assert all(G._right_array(s) == FiniteGroupTable._right_array(G, s)
               for s in gens)
    assert gl_group(2, 3)._columns[0].typecode == "B"


def test_a_swapped_key_table_entry_fails_the_comparison():
    # a fresh GL(2,3) whose key table sends the first and the last
    # matrix to each other's index: every right array stays a
    # permutation, but a wrong one
    G = gl_group.__wrapped__(2, 3)
    assert right_array_mismatches(G) == []
    table = G._key_index
    a, b = entry_key(G, 0), entry_key(G, G.order - 1)
    table[a], table[b] = table[b], table[a]
    assert sorted(G._right_array(G.order - 1)) == list(range(G.order))
    assert right_array_mismatches(G) != []


def test_gl_order():
    assert gl_order(1, 5) == 4
    assert gl_order(2, 2) == 6
    assert gl_order(2, 3) == 48
    assert gl_order(3, 2) == 168
    assert gl_group(2, 3).order == 48


def test_registered_parabolics():
    G = gl_group(2, 2)
    for name in ("U(1,1)", "P(1,1)", "L(1,1)", "Z", "D", "B", "Sigma"):
        assert name in G.subgroups
    assert len(G.subgroups["B"]) == 2 * 1 * 1 * 2 // 2  # q=2: (q-1)^2 q = 2
    assert len(G.subgroups["Sigma"]) == 2


def subgroup_predicates(n):
    """Each registered subgroup of GL(n, q) as a predicate on matrices:
    the oracle for the generator closures gl_group builds."""
    def zero_below(a, k):  # the block upper triangular shape over k
        return all(a[i][j] == 0 for i in range(k, n) for j in range(k))

    def zero_off(a, k):  # block diagonal over k
        return zero_below(a, k) and all(
            a[i][j] == 0 for i in range(k) for j in range(k, n))

    def unipotent(a, k):  # identity outside the top right block
        return all(a[i][j] == int(i == j) for i in range(n) for j in range(n)
                   if not (i < k <= j))

    out = {}
    for k in range(1, n):
        out[f"U({k},{n - k})"] = lambda a, k=k: unipotent(a, k)
        out[f"P({k},{n - k})"] = lambda a, k=k: zero_below(a, k)
        out[f"L({k},{n - k})"] = lambda a, k=k: zero_off(a, k)
    out["Z"] = lambda a: all(a[i][j] == (a[0][0] if i == j else 0)
                             for i in range(n) for j in range(n))
    out["D"] = lambda a: all(a[i][j] == 0 for i in range(n)
                             for j in range(n) if i != j)
    out["B"] = lambda a: all(a[i][j] == 0 for i in range(n)
                             for j in range(i))
    out["Sigma"] = lambda a: (all(sum(1 for x in row if x) == 1 for row in a)
                              and all(x in (0, 1) for row in a for x in row))
    return out


@pytest.mark.parametrize("n,q", [(1, 2), (1, 5), (2, 2), (2, 3), (2, 4),
                                 (2, 5), (3, 2), (3, 3)])
def test_registered_subgroups_match_their_predicates(n, q):
    G = gl_group(n, q)
    predicates = subgroup_predicates(n)
    assert list(G.subgroups) == list(predicates)
    for name, member in predicates.items():
        expected = frozenset(i for i, a in enumerate(G.elements) if member(a))
        assert G.subgroups[name] == expected, (n, q, name)


def test_psi_measure_values():
    f3 = build_field(3)
    zero = ((0, 0), (0, 0))
    assert psi_measure(f3, zero) == 1
    assert psi_measure(f3, mat_identity(f3, 2)) == zeta(3, 2)
    assert psi_measure(f3, ((1, 0), (0, 2))) == 1
    f5 = build_field(5)
    assert psi_measure(f5, mat_identity(f5, 3)) == zeta(5, 3)


def test_kondo_trivial_gl1():
    G = gl_group(1, 5)
    chi = {i: 1 for i in range(G.order)}
    assert numerical_invariant(elementwise(G.name, chi, G.identity_idx),
                               kondo_measure(G)) == -1
    trivial = G.class_function({c: 1 for c in range(len(G.classes()))})
    assert numerical_invariant(
        trivial, G.class_measure(kondo_measure(G))) == -1


def test_kondo_scales_with_dimension():
    G = gl_group(1, 5)
    chi = {i: 2 for i in range(G.order)}
    assert numerical_invariant(elementwise(G.name, chi, G.identity_idx),
                               kondo_measure(G)) == -1


def test_gauss_sum_quadratic():
    f = build_field(5)
    lam = unit_character(f, 2)  # the quadratic character
    g = gauss_sum(f, lam)
    assert (g * g).rational_value() == 5


def test_hasse_davenport():
    assert hasse_davenport_check(3, 2)["pass"]
    assert hasse_davenport_check(5, 2)["pass"]


def test_weil_character():
    exps = weil_theta_exponents(3)
    assert all((j * 3 - j) % 8 != 0 for j in exps)
    j = exps[0]
    chi = weil_character(3, j)
    assert chi.degree() == 2
    G = gl_group(2, 3)
    # a true character: unit norm and nonnegative degree
    assert chi.inner(chi) == 1
    report = weil_identity_check(3, j)
    assert report["pass"]
    assert report["lhs"] == report["rhs"]
    with pytest.raises(ValueError):
        weil_character(3, 0)
    # every unit of an even field is a square: no quadratic torus
    with pytest.raises(ValueError):
        weil_identity_check(4, 1)


def test_kondo_induction_and_product():
    assert verify_kondo_induction(2, 2)["pass"]
    assert verify_kondo_multiplicative(2)["pass"]


def test_permutation_matrix():
    f = build_field(2)
    w = Perm.from_cycles(3, [(1, 2)])
    m = permutation_matrix(f, w)
    for j in range(3):
        col = [m[i][j] for i in range(3)]
        assert col[w(j + 1) - 1] == 1
        assert sum(col) == 1


def test_bruhat_bijection_small():
    for a in range(3):
        for alpha in range(3):
            assert verify_bruhat_bijection(a, alpha, 2, 2)["pass"]
    assert verify_bruhat_bijection(1, 2, 3, 3)["pass"]


def test_a_planted_representative_fails_the_bruhat_bijection(monkeypatch):
    # one K-matrix's representative replaced by the identity permutation:
    # two solutions then hit the identity's double coset
    assert verify_bruhat_bijection(1, 1, 3, 3)["bijection"] is True
    planted = next(k for k in kmatrix_solutions(1, 1, 3)
                   if w_of_kmatrix(k, 1, 1, 3) != Perm.identity(3))
    real = glfq.w_of_kmatrix

    def planted_w(k, a, alpha, m):
        return Perm.identity(m) if k == planted else real(k, a, alpha, m)
    monkeypatch.setattr(glfq, "w_of_kmatrix", planted_w)
    report = verify_bruhat_bijection(1, 1, 3, 3)
    assert report["cosets"] == report["solutions"] == 2
    assert report["bijection"] is False and report["pass"] is False


def test_induced_character_chain():
    # inducing in stages agrees with inducing in one step
    G = gl_group(2, 3)
    Z = sorted(G.subgroups["Z"])
    D = sorted(G.subgroups["D"])
    chi = {z: 1 for z in Z}
    via_d = G.induced_character(Z, chi)
    sub_ind = {}
    for d in D:
        total = Fraction(0)
        for y in D:
            c = G.mul(G.mul(y, d), G.inv(y))
            if c in chi:
                total += chi[c]
        sub_ind[d] = total / len(Z)
    direct = G.induced_character(D, sub_ind)
    assert via_d == direct
