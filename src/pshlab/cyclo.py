"""Exact arithmetic in the cyclotomic fields Q(zeta_N), and the one
definition of how an exact scalar behaves.

A Cyclo is stored as a polynomial in zeta_N reduced modulo the N-th
cyclotomic polynomial, with Fraction coefficients.  This canonical form
makes equality over a common conductor a structural comparison; values at
different conductors are compared after lifting to the lcm.  A rational
value is (r, 0, ..., 0) at every conductor, so it compares and hashes
like the int or Fraction r.

An exact scalar is an int, a Fraction or a Cyclo.  scalar() gives its
normal form: an int when the value is an integer, a Fraction when it is
rational, and otherwise the Cyclo itself.  conj(), inverse(), integer()
and scalar_json() act on all three types, so no other module needs to
know which type a value has except to display it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

__all__ = ["Cyclo", "zeta", "one", "zero", "scalar", "conj", "inverse",
           "integer", "scalar_json"]


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, ascending degree, monic."""
    if n < 1:
        raise ValueError("conductor must be >= 1")
    # (x^n - 1) / prod_{d | n, d < n} Phi_d, exact integer division
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    for d in range(1, n):
        if n % d == 0:
            num = _polydiv_exact(num, cyclotomic_poly(d))
    return tuple(num)


def _polydiv_exact(num, den):
    """Divide integer polynomials exactly (den monic), ascending coeffs."""
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        out[i - dd] = c
        if c:
            for j, b in enumerate(den):
                num[i - dd + j] -= c * b
    if any(num[:dd]):
        raise AssertionError("inexact polynomial division")
    return out


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    return len(cyclotomic_poly(n)) - 1


def _reduce_mod_phi(n, dense):
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


class Cyclo:
    """An element of Q(zeta_n) in canonical reduced form."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs):
        if n < 1:
            raise ValueError("conductor must be >= 1")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs",
                           _reduce_mod_phi(n, [Fraction(c) for c in coeffs]))

    def __setattr__(self, *a):
        raise AttributeError("Cyclo values are immutable")

    # -- constructors ------------------------------------------------

    @staticmethod
    def rational(q) -> "Cyclo":
        return Cyclo(1, [Fraction(q)])

    @staticmethod
    def from_terms(n: int, terms: dict) -> "Cyclo":
        """Build sum_{k} terms[k] * zeta_n^k."""
        dense = [Fraction(0)] * n
        for k, c in terms.items():
            dense[k % n] += Fraction(c)
        return Cyclo(n, dense)

    # -- conductor handling -------------------------------------------

    def lift(self, m: int) -> "Cyclo":
        """The same value written at conductor m (n | m)."""
        if m % self.n:
            raise ValueError(f"{self.n} does not divide {m}")
        if m == self.n:
            return self
        step = m // self.n
        dense = [Fraction(0)] * m
        for k, c in enumerate(self.coeffs):
            dense[(k * step) % m] += c
        return Cyclo(m, dense)

    def try_conductor(self, d: int) -> "Cyclo | None":
        """Rewrite at conductor d | n if the value lies in Q(zeta_d)."""
        if self.n % d:
            raise ValueError(f"{d} does not divide {self.n}")
        if d == self.n:
            return self
        from .linalg import solve_exact
        basis = [Cyclo.from_terms(d, {k: 1}).lift(self.n).coeffs
                 for k in range(euler_phi(d))]
        cols = len(basis)
        rows = euler_phi(self.n)
        a = [[basis[j][i] for j in range(cols)] for i in range(rows)]
        b = list(self.coeffs)
        x = solve_exact(a, b)
        if x is None:
            return None
        return Cyclo(d, x)

    def reduced(self) -> "Cyclo":
        """Canonical minimal-conductor form."""
        for d in sorted(_divisors(self.n)):
            r = self.try_conductor(d)
            if r is not None:
                return r
        return self

    # -- arithmetic ----------------------------------------------------

    def _pair(self, other):
        if not isinstance(other, Cyclo):
            other = Cyclo.rational(other)
        m = math.lcm(self.n, other.n)
        return self.lift(m), other.lift(m)

    def __add__(self, other):
        a, b = self._pair(other)
        return Cyclo(a.n, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self._pair(other)
        return Cyclo(a.n, [x - y for x, y in zip(a.coeffs, b.coeffs)])

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Cyclo(self.n, [-c for c in self.coeffs])

    def __mul__(self, other):
        a, b = self._pair(other)
        out = [Fraction(0)] * (2 * len(a.coeffs))
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    if y:
                        out[i + j] += x * y
        return Cyclo(a.n, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Cyclo):
            other = Cyclo.rational(other)
        return self * other.inv()

    def __rtruediv__(self, other):
        return self.inv() * other

    def __pow__(self, k: int):
        if k < 0:
            return self.inv() ** (-k)
        acc = Cyclo.rational(1)
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    def inv(self) -> "Cyclo":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        from .linalg import solve_exact
        deg = len(self.coeffs)
        cols = []
        for j in range(deg):
            col = (self * Cyclo.from_terms(self.n, {j: 1})).coeffs
            cols.append(col)
        a = [[cols[j][i] for j in range(deg)] for i in range(deg)]
        b = [Fraction(1)] + [Fraction(0)] * (deg - 1)
        x = solve_exact(a, b)
        if x is None:
            raise AssertionError(
                f"{self!r} has no inverse in Q(zeta_{self.n})")
        return Cyclo(self.n, x)

    def galois(self, j: int) -> "Cyclo":
        """Apply zeta_n -> zeta_n^j (requires gcd(j, n) = 1)."""
        if math.gcd(j, self.n) != 1:
            raise ValueError("not a Galois automorphism")
        dense = [Fraction(0)] * self.n
        for k, c in enumerate(self.coeffs):
            dense[(k * j) % self.n] += c
        return Cyclo(self.n, dense)

    def conj(self) -> "Cyclo":
        """Complex conjugation zeta_n -> zeta_n^{-1}."""
        if self.n == 1:
            return self
        return self.galois(self.n - 1)

    # -- predicates / conversion ---------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def to_complex(self) -> tuple[float, float]:
        """Decimal approximation (re, im), |error| < 1e-12 at desk scale."""
        # 50 guard bits of extra precision via integer-scaled trig
        re = im = 0.0
        for k, c in enumerate(self.coeffs):
            if c:
                ang = 2.0 * math.pi * k / self.n
                re += float(c) * math.cos(ang)
                im += float(c) * math.sin(ang)
        return (re, im)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        if not isinstance(other, Cyclo):
            return NotImplemented
        a, b = self._pair(other)
        return a.coeffs == b.coeffs

    def __hash__(self):
        if self.is_rational():
            return hash(self.coeffs[0])
        r = self.reduced()
        return hash((r.n, r.coeffs))

    def __repr__(self):
        if self.is_rational():
            return f"Cyclo({self.rational_value()})"
        terms = [f"{c}*z{self.n}^{k}" for k, c in enumerate(self.coeffs) if c]
        return "Cyclo(" + " + ".join(terms) + ")"

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        """The value at its minimal conductor, so equal values serialise
        equal."""
        r = self.reduced()
        coeffs = list(r.coeffs) + [Fraction(0)] * (r.n - len(r.coeffs))
        return {"conductor": r.n,
                "coeffs": [[str(c.numerator), str(c.denominator)]
                           for c in coeffs]}

    @staticmethod
    def from_json(obj: dict) -> "Cyclo":
        return Cyclo(obj["conductor"],
                     [Fraction(int(num), int(den))
                      for num, den in obj["coeffs"]])


def _divisors(n):
    out = []
    for d in range(1, int(math.isqrt(n)) + 1):
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
    return out


def is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, int(math.isqrt(n)) + 1))


def zeta(n: int, k: int = 1) -> Cyclo:
    """The root of unity zeta_n^k in canonical form."""
    if n < 1:
        raise ValueError("conductor must be >= 1")
    return Cyclo.from_terms(n, {k % n: 1})


def scalar(v):
    """The normal form of an exact scalar: an int when v is an integer, a
    Fraction when v is rational, and otherwise the Cyclo v itself."""
    if type(v) is int:
        return v
    if isinstance(v, Cyclo):
        if not v.is_rational():
            return v
        v = v.coeffs[0]
    return v.numerator if v.denominator == 1 else v


def conj(v):
    """The complex conjugate of an exact scalar."""
    return v.conj() if isinstance(v, Cyclo) else v


def inverse(v):
    """1/v for an exact scalar; the rationals 1 and -1 are their own
    inverses and are returned unchanged."""
    if isinstance(v, Cyclo):
        return v.inv()
    return v if v in (1, -1) else Fraction(1, v)


def integer(v) -> int:
    """scalar(v) as an int; raises AssertionError (also under python -O)
    when v is not an integer."""
    v = scalar(v)
    if type(v) is not int:
        raise AssertionError(f"{v!r} is not an integer")
    return v


def scalar_json(v):
    """The JSON form of an exact scalar: a Cyclo as its to_json gives it,
    an integral value as an int, any other rational as the text "a/b"."""
    if isinstance(v, Cyclo):
        return v.to_json()
    v = Fraction(v)
    return v.numerator if v.denominator == 1 else str(v)


zero = Cyclo.rational(0)
one = Cyclo.rational(1)
