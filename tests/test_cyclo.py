import math
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pshlab.cyclo import (Cyclo, conj, cyclotomic_poly, integer, inverse,
                          scalar, scalar_json, zeta)


def euler_phi(n):
    return len(cyclotomic_poly(n)) - 1


def test_zeta_powers():
    assert zeta(4) ** 2 == -1
    assert zeta(1) == 1
    assert zeta(2) == -1
    assert zeta(3) ** 3 == 1
    assert zeta(8) ** 4 == -1


def test_root_sums():
    for n in (3, 4, 5, 6, 12):
        total = Cyclo.rational(0)
        for k in range(n):
            total = total + zeta(n, k)
        assert total == 0


def test_cyclotomic_poly():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def test_conductor_reduction():
    # zeta_6 = 1 + zeta_3 lives in a proper subfield chain
    z = zeta(6) + zeta(6, 5)
    assert z.is_rational()
    assert z.rational_value() == 1
    assert (zeta(4) * zeta(4, 3)).rational_value() == 1


def test_rational_mixing():
    z = zeta(5)
    assert z + 0 == z
    assert 1 + z == z + 1
    assert 2 * z == z + z
    assert z - z == 0
    assert z * Fraction(1, 2) + z * Fraction(1, 2) == z


def test_inverse_and_conj():
    for n in (3, 5, 8):
        for k in range(1, n):
            z = zeta(n, k)
            assert z * z.inv() == 1
            assert z.conj() == z.inv()
            norm = z * z.conj()
            assert norm.rational_value() == 1


def test_rational_cyclo_hashes_like_the_rational():
    assert len({zeta(4) ** 2, -1}) == 1
    assert hash(Cyclo(6, [Fraction(1, 2)])) == hash(Fraction(1, 2))
    assert zeta(3) != 0 and zeta(3) != 1
    assert zeta(6) + zeta(6, 5) == 1


@pytest.mark.parametrize("v,normal,conjugate,inv", [
    (3, 3, 3, Fraction(1, 3)),
    (-1, -1, -1, -1),
    (Fraction(4, 2), 2, 2, Fraction(1, 2)),
    (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), 2),
    (zeta(4) ** 2, -1, -1, -1),
    (Cyclo(6, [Fraction(1, 2)]), Fraction(1, 2), Fraction(1, 2), 2),
    (zeta(3), zeta(3), zeta(3, 2), zeta(3, 2)),
])
def test_scalar_helpers(v, normal, conjugate, inv):
    s = scalar(v)
    assert s == normal and type(s) is type(normal)
    assert conj(v) == conjugate
    assert inverse(v) == inv
    if type(normal) is int:
        assert integer(v) == normal and type(integer(v)) is int
    else:
        with pytest.raises(AssertionError):
            integer(v)


def test_integer_check_survives_optimize():
    code = ("from fractions import Fraction\n"
            "from pshlab.cyclo import integer\n"
            "try:\n"
            "    integer(Fraction(1, 2))\n"
            "except AssertionError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_galois():
    z = zeta(5)
    x = z + 2 * z ** 2
    assert x.galois(2) == zeta(5, 2) + 2 * zeta(5, 4)
    # galois permutes roots, fixing rationals
    assert Cyclo.rational(7).galois(3) == 7


def test_gauss_sum_square():
    # the quadratic Gauss sum over F_5 squares to 5
    g = sum((zeta(5, k * k) for k in range(1, 5)), zeta(5, 0))
    assert (g * g).rational_value() == 5


def test_json_roundtrip():
    x = zeta(12, 5) + Fraction(3, 2)
    assert Cyclo.from_json(x.to_json()) == x
    assert Cyclo.from_json(Cyclo.rational(-2).to_json()) == -2


def test_json_is_conductor_independent():
    values = [zeta(3), zeta(6) ** 2, zeta(3).lift(12)]
    assert len({v.n for v in values}) == 3
    blobs = [v.to_json() for v in values]
    assert blobs[0] == blobs[1] == blobs[2]
    assert blobs[0]["conductor"] == 3
    assert all(Cyclo.from_json(b) == v for b, v in zip(blobs, values))


def test_scalar_json():
    assert scalar_json(zeta(6) ** 2) == zeta(3).to_json()
    for v in (3, Fraction(4, 2), -1):
        assert type(scalar_json(v)) is int and scalar_json(v) == v
    assert scalar_json(Fraction(-1, 3)) == "-1/3"


def test_to_complex():
    re, im = zeta(4).to_complex()
    assert abs(re) < 1e-12 and abs(im - 1) < 1e-12


coeff = st.integers(min_value=-3, max_value=3)


@settings(max_examples=50, deadline=None)
@given(st.lists(coeff, min_size=4, max_size=4),
       st.lists(coeff, min_size=4, max_size=4),
       st.lists(coeff, min_size=4, max_size=4))
def test_ring_axioms(a, b, c):
    x = Cyclo(12, [Fraction(v) for v in a])
    y = Cyclo(12, [Fraction(v) for v in b])
    z = Cyclo(12, [Fraction(v) for v in c])
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x


def test_division():
    z = zeta(7)
    assert (z / z) == 1
    with pytest.raises(ZeroDivisionError):
        Cyclo.rational(0).inv()


# -- property tests against the Fraction arithmetic of the earlier design --
#
# The oracle below is the Fraction reducer Cyclo used before it stored
# integer numerators over one denominator, with +, *, lift, galois, repr
# and the solve_exact inverse and minimal-conductor reduction written on
# top of it.  It shares no arithmetic with the module under test.

CONDUCTORS = (1, 4, 5, 12, 24, 120)


def oracle_reduce(n, dense):
    """Reduce Fraction coefficients (ascending powers of zeta_n) mod Phi_n."""
    phi = cyclotomic_poly(n)
    deg = len(phi) - 1
    # first fold zeta^n = 1
    if len(dense) > n:
        folded = [Fraction(0)] * n
        for k, c in enumerate(dense):
            folded[k % n] += c
        dense = folded
    dense = list(dense) + [Fraction(0)] * max(0, deg - len(dense))
    for i in range(len(dense) - 1, deg - 1, -1):
        c = dense[i]
        if c:
            for j in range(deg + 1):
                dense[i - deg + j] -= c * phi[j]
    return tuple(dense[:deg])


def oracle(n, coeffs):
    return oracle_reduce(n, [Fraction(c) for c in coeffs])


def oracle_lift(n, coeffs, m):
    dense = [Fraction(0)] * m
    for k, c in enumerate(coeffs):
        dense[(k * (m // n)) % m] += c
    return oracle_reduce(m, dense)


def oracle_galois(n, coeffs, j):
    dense = [Fraction(0)] * n
    for k, c in enumerate(coeffs):
        dense[(k * j) % n] += c
    return oracle_reduce(n, dense)


def oracle_mul(n, a, b):
    out = [Fraction(0)] * (2 * len(a))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return oracle_reduce(n, out)


def oracle_repr(n, coeffs):
    if not any(coeffs[1:]):
        return f"Cyclo({coeffs[0]})"
    terms = [f"{c}*z{n}^{k}" for k, c in enumerate(coeffs) if c]
    return "Cyclo(" + " + ".join(terms) + ")"


def oracle_inverse(n, coeffs):
    """The inverse by one exact solve of x * y = 1, as Cyclo.inv did."""
    from pshlab.linalg import solve_exact
    deg = len(coeffs)
    units = [[Fraction(int(k == j)) for k in range(deg)]
             for j in range(deg)]
    cols = [oracle_mul(n, coeffs, u) for u in units]
    a = [[cols[j][i] for j in range(deg)] for i in range(deg)]
    return tuple(solve_exact(a, [Fraction(1)] + [Fraction(0)] * (deg - 1)))


def oracle_reduced(n, coeffs):
    """(d, coefficients at d) for the least conductor d | n holding the
    value, by one exact solve per divisor of n, as Cyclo.reduced did."""
    from pshlab.linalg import solve_exact
    for d in (d for d in range(1, n + 1) if n % d == 0):
        deg = euler_phi(d)
        basis = [oracle_lift(d, [Fraction(int(i == k)) for i in range(deg)],
                             n) for k in range(deg)]
        a = [[basis[j][i] for j in range(deg)] for i in range(len(coeffs))]
        x = solve_exact(a, list(coeffs))
        if x is not None:
            return d, tuple(x)


small = st.one_of(st.integers(-3, 3),
                  st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)))


@st.composite
def elements(draw, conductors=CONDUCTORS):
    """(n, raw coefficients); lists longer than phi(n), and for small n
    longer than n, exercise the reduction and the zeta^n = 1 fold."""
    n = draw(st.sampled_from(conductors))
    size = draw(st.integers(0, min(n + 2, 40)))
    return n, draw(st.lists(small, min_size=size, max_size=size))


@settings(max_examples=60, deadline=None)
@given(elements())
def test_construction_and_repr_match_oracle(el):
    n, raw = el
    x = Cyclo(n, raw)
    expected = oracle(n, raw)
    assert x.n == n and x.coeffs == expected
    assert repr(x) == oracle_repr(n, expected)
    assert Cyclo.from_terms(n, dict(enumerate(raw))).coeffs == expected
    assert all(type(c) is int for c in x.num) and x.den > 0
    assert math.gcd(x.den, *x.num) == 1


@settings(max_examples=60, deadline=None)
@given(elements(), elements())
def test_ring_operations_match_oracle(ea, eb):
    (na, ra), (nb, rb) = ea, eb
    x, y = Cyclo(na, ra), Cyclo(nb, rb)
    m = math.lcm(na, nb)
    a = oracle_lift(na, oracle(na, ra), m)
    b = oracle_lift(nb, oracle(nb, rb), m)
    for got, want in ((x + y, [p + q for p, q in zip(a, b)]),
                      (x - y, [p - q for p, q in zip(a, b)]),
                      (x * y, oracle_mul(m, a, b))):
        assert got.n == m and got.coeffs == tuple(want)
        assert repr(got) == oracle_repr(m, tuple(want))
    assert (-x).coeffs == tuple(-c for c in oracle(na, ra))


@settings(max_examples=60, deadline=None)
@given(elements(), st.data())
def test_galois_and_lift_match_oracle(el, data):
    n, raw = el
    x = Cyclo(n, raw)
    a = oracle(n, raw)
    j = data.draw(st.sampled_from(
        [j for j in range(1, n + 1) if math.gcd(j, n) == 1]))
    assert x.galois(j).coeffs == oracle_galois(n, a, j)
    assert x.conj().coeffs == oracle_galois(n, a, n - 1)
    m = data.draw(st.sampled_from([m for m in CONDUCTORS if m % n == 0]))
    assert x.lift(m).n == m and x.lift(m).coeffs == oracle_lift(n, a, m)


@settings(max_examples=30, deadline=None)
@given(elements())
def test_inverse_matches_the_solve_exact_inverse(el):
    n, raw = el
    x = Cyclo(n, raw)
    if x.is_zero():
        return
    y = x.inv()
    assert x * y == 1
    assert y.n == n and y.coeffs == oracle_inverse(n, oracle(n, raw))


@st.composite
def equal_pairs(draw):
    """One value written at two conductors, both multiples of the
    conductor it was drawn at."""
    d, raw = draw(elements())
    over = [m for m in CONDUCTORS if m % d == 0]
    v = Cyclo(d, raw)
    return v.lift(draw(st.sampled_from(over))), \
        v.lift(draw(st.sampled_from(over)))


@settings(max_examples=40, deadline=None)
@given(equal_pairs(), elements())
def test_equal_values_hash_and_serialise_equal(pair, other):
    a, b = pair
    c = Cyclo(*other)
    assert a == b
    for u, v in ((a, b), (a, c), (b, c)):
        if u == v:
            assert hash(u) == hash(v)
            assert u.to_json() == v.to_json()
    if a.is_rational():
        assert hash(a) == hash(a.rational_value())


def subfield_values():
    """A value drawn from every subfield Q(zeta_d), d | n, and lifted to
    n, for the conductors n below."""
    rng = random.Random(13)
    for n in (*range(1, 61), 84, 120, 168):
        for d in (d for d in range(1, n + 1) if n % d == 0):
            den = rng.choice((1, 2, 3, 6))
            raw = [Fraction(rng.choice((0, 0, 1, -1, 2, -3)), den)
                   for _ in range(euler_phi(d))]
            yield Cyclo(d, raw).lift(n)


def test_reduced_matches_the_solve_exact_reducer():
    chains = [zeta(3).lift(12),                     # 12 -> 6 -> 3
              (zeta(5) + Fraction(1, 2)).lift(60),  # 60 -> 30 -> 15 -> 5
              Cyclo(60, [Fraction(-7, 4)])]         # down to 1
    for x in [*chains, *subfield_values()]:
        d, coeffs = oracle_reduced(x.n, x.coeffs)
        den = math.lcm(*(c.denominator for c in coeffs))
        r = x.reduced()
        assert (r.n, r.num, r.den) == (
            d, tuple(c.numerator * (den // c.denominator) for c in coeffs),
            den), x
    assert [x.reduced().n for x in chains] == [3, 5, 1]


def test_a_zeta_7_value_at_conductor_84_serialises_at_7():
    # a cuspidal character value of GL(3,2), stored where the Dixon table
    # computes it
    b7 = zeta(7) + zeta(7, 2) + zeta(7, 4)
    x = b7.lift(84)
    assert x.n == 84 and "z84" in repr(x)
    assert x.reduced().n == 7
    assert x.to_json() == b7.to_json() and x.to_json()["conductor"] == 7
    assert hash(x) == hash(b7)


def test_inverse_rejects_a_wrong_conjugate(monkeypatch):
    # a galois that returns x itself makes the "norm" x^phi(n), which is
    # not rational for 2 + zeta_5
    monkeypatch.setattr(Cyclo, "galois", lambda self, j: self)
    with pytest.raises(AssertionError, match="has no inverse"):
        (2 + zeta(5)).inv()


def test_inverse_check_survives_optimize():
    code = ("from pshlab.cyclo import Cyclo, zeta\n"
            "Cyclo.galois = lambda self, j: self\n"
            "try:\n"
            "    (2 + zeta(5)).inv()\n"
            "except AssertionError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
