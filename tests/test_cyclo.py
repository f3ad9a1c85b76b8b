import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pshlab.cyclo import (Cyclo, conj, cyclotomic_poly, euler_phi, integer,
                          inverse, scalar, scalar_json, zeta)


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
    assert euler_phi(12) == 4


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
