"""Exact arithmetic in the cyclotomic fields Q(zeta_N), and the one
definition of how an exact scalar behaves.

A Cyclo at conductor n is stored as a tuple num of phi(n) integer
numerators and one integer denominator den > 0 with gcd(den, num) = 1:
its value is sum_k (num[k] / den) * zeta_n^k, a polynomial in zeta_n
reduced modulo the n-th cyclotomic polynomial Phi_n.  Phi_n is monic with
integer coefficients, so reduction, lifting to a multiple conductor,
Galois conjugation and + - * all stay in ints, and only the denominator
is shared.  This form is canonical, so equality over a common conductor
compares (num, den) structurally; values at different conductors are
compared after lifting to the lcm.  The inverse is the product of the
other Galois conjugates over the rational norm.  A rational value is
(r, 0, ..., 0) at every conductor, so it compares and hashes like the int
or Fraction r.  The Fraction coefficients (coeffs) are derived on demand
for display and JSON.  hash and to_json write a value at its minimal
conductor, found one prime at a time by integer traces to subfields
(reduced).

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
def _phi_tail(n: int):
    """phi(n) and the nonzero lower terms (j, c) of Phi_n = x^phi + ..."""
    phi = cyclotomic_poly(n)
    deg = len(phi) - 1
    return deg, tuple((j, c) for j, c in enumerate(phi[:deg]) if c)


def _reduce(n, dense):
    """Reduce int coefficients (ascending powers of zeta_n) mod Phi_n;
    the list dense is reused."""
    deg, tail = _phi_tail(n)
    # first fold zeta^n = 1
    if len(dense) > n:
        folded = dense[:n]
        for k in range(n, len(dense)):
            folded[k % n] += dense[k]
        dense = folded
    for i in range(len(dense) - 1, deg - 1, -1):
        c = dense[i]
        if c:
            base = i - deg
            for j, p in tail:
                dense[base + j] -= c * p
    if len(dense) < deg:
        dense += [0] * (deg - len(dense))
    else:
        del dense[deg:]
    return dense


def _make(n, num, den=1):
    """The Cyclo (sum_k num[k] zeta_n^k) / den, from numerators already
    reduced mod Phi_n and den > 0."""
    x = _new(Cyclo)
    _fill(x, n, num, den)
    return x


def _fill(x, n, num, den):
    g = math.gcd(den, *num)
    if g != 1:
        num = [c // g for c in num]
        den //= g
    _set_n(x, n)
    _set_num(x, tuple(num))
    _set_den(x, den)


class Cyclo:
    """An element of Q(zeta_n) in canonical reduced form."""

    __slots__ = ("n", "num", "den")

    def __init__(self, n: int, coeffs):
        """The value sum_k coeffs[k] zeta_n^k; coefficients are ints or
        anything Fraction accepts."""
        if n < 1:
            raise ValueError("conductor must be >= 1")
        coeffs = [c if isinstance(c, int) else Fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in coeffs))
        num = [c.numerator * (den // c.denominator) for c in coeffs]
        _fill(self, n, _reduce(n, num), den)

    def __setattr__(self, *a):
        raise AttributeError("Cyclo values are immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The power-basis coefficients as Fractions."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    # -- constructors ------------------------------------------------

    @staticmethod
    def rational(q) -> "Cyclo":
        if type(q) is not int:
            q = Fraction(q)
        return _make(1, (q.numerator,), q.denominator)

    @staticmethod
    def from_terms(n: int, terms: dict) -> "Cyclo":
        """Build sum_{k} terms[k] * zeta_n^k."""
        dense = [0] * n
        for k, c in terms.items():
            dense[k % n] += c if isinstance(c, int) else Fraction(c)
        if all(type(c) is int for c in dense):
            return _make(n, _reduce(n, dense))
        return Cyclo(n, dense)

    # -- conductor handling -------------------------------------------

    def lift(self, m: int) -> "Cyclo":
        """The same value written at conductor m (n | m)."""
        if m % self.n:
            raise ValueError(f"{self.n} does not divide {m}")
        if m == self.n:
            return self
        step = m // self.n
        dense = [0] * m
        for k, c in enumerate(self.num):
            dense[k * step] = c
        return _make(m, _reduce(m, dense), self.den)

    def reduced(self) -> "Cyclo":
        """Canonical minimal-conductor form.

        One prime p | n at a time, the value moves from Q(zeta_m) down to
        Q(zeta_{m/p}) while its trace over that extension, divided by the
        degree, lifts back to the value.  Q(zeta_a) and Q(zeta_b) meet in
        Q(zeta_gcd(a, b)), so the conductors holding the value are closed
        under gcd and this greedy descent ends at the least of them."""
        x = self
        for p in _prime_divisors(self.n):
            while x.n % p == 0:
                y = x._trace_down(p)
                if y.lift(x.n) != x:
                    break
                x = y
        return x

    def _trace_down(self, p: int) -> "Cyclo":
        """The trace from Q(zeta_n) to Q(zeta_{n/p}) over its degree, for
        a prime p | n."""
        m = self.n // p
        if m % p == 0:
            # zeta_n^k has trace 0 unless p | k, when it is zeta_m^(k/p)
            return _make(m, self.num[::p], self.den)
        # zeta_n^k = zeta_p^a zeta_m^(k/p mod m), with p | a iff p | k
        inv = pow(p, -1, m)
        dense = [0] * m
        for k, c in enumerate(self.num):
            if c:
                dense[k * inv % m] += c * (p - 1) if k % p == 0 else -c
        return _make(m, _reduce(m, dense), self.den * (p - 1))

    # -- arithmetic ----------------------------------------------------

    def _pair(self, other):
        if not isinstance(other, Cyclo):
            other = Cyclo.rational(other)
        if self.n == other.n:
            return self, other
        m = math.lcm(self.n, other.n)
        return self.lift(m), other.lift(m)

    def __add__(self, other):
        if type(other) is int:
            num = list(self.num)
            num[0] += other * self.den
            return _make(self.n, num, self.den)
        a, b = self._pair(other)
        da, db = a.den, b.den
        if da == db:
            return _make(a.n, [x + y for x, y in zip(a.num, b.num)], da)
        return _make(a.n, [x * db + y * da for x, y in zip(a.num, b.num)],
                     da * db)

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self._pair(other)
        da, db = a.den, b.den
        if da == db:
            return _make(a.n, [x - y for x, y in zip(a.num, b.num)], da)
        return _make(a.n, [x * db - y * da for x, y in zip(a.num, b.num)],
                     da * db)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return _make(self.n, [-c for c in self.num], self.den)

    def __mul__(self, other):
        if type(other) is int:
            return _make(self.n, [c * other for c in self.num], self.den)
        a, b = self._pair(other)
        an = a.num
        bn = [(j, y) for j, y in enumerate(b.num) if y]
        out = [0] * (2 * len(an) - 1)
        for i, x in enumerate(an):
            if x:
                for j, y in bn:
                    out[i + j] += x * y
        return _make(a.n, _reduce(a.n, out), a.den * b.den)

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
        """1/x = prod_{j != 1} sigma_j(x) / N(x), with the norm
        N(x) = x prod_{j != 1} sigma_j(x) over j in (Z/n)^x."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        n = self.n
        if self.is_rational():
            top, bottom = [self.den] + [0] * (len(self.num) - 1), self.num[0]
        else:
            rest = None
            for j in range(2, n):
                if math.gcd(j, n) == 1:
                    s = self.galois(j)
                    rest = s if rest is None else rest * s
            norm = self * rest
            if not norm.is_rational():
                raise AssertionError(
                    f"{self!r} has no inverse in Q(zeta_{n})")
            r = norm.num[0]
            top, bottom = [c * norm.den for c in rest.num], rest.den * r
        if bottom < 0:
            top, bottom = [-c for c in top], -bottom
        return _make(n, top, bottom)

    def galois(self, j: int) -> "Cyclo":
        """Apply zeta_n -> zeta_n^j (requires gcd(j, n) = 1)."""
        n = self.n
        if math.gcd(j, n) != 1:
            raise ValueError("not a Galois automorphism")
        dense = [0] * n
        for k, c in enumerate(self.num):
            dense[(k * j) % n] = c
        return _make(n, _reduce(n, dense), self.den)

    def conj(self) -> "Cyclo":
        """Complex conjugation zeta_n -> zeta_n^{-1}."""
        if self.n == 1:
            return self
        return self.galois(self.n - 1)

    # -- predicates / conversion ---------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    def to_complex(self) -> tuple[float, float]:
        """Float approximation (re, im), |error| < 1e-12 at desk scale."""
        re = im = 0.0
        for k, c in enumerate(self.coeffs):
            if c:
                ang = 2.0 * math.pi * k / self.n
                re += float(c) * math.cos(ang)
                im += float(c) * math.sin(ang)
        return (re, im)

    def __eq__(self, other):
        if isinstance(other, int):
            return (self.den == 1 and self.num[0] == other
                    and self.is_rational())
        if isinstance(other, Fraction):
            return (self.den == other.denominator
                    and self.num[0] == other.numerator
                    and self.is_rational())
        if not isinstance(other, Cyclo):
            return NotImplemented
        a, b = self._pair(other)
        return a.den == b.den and a.num == b.num

    def __hash__(self):
        if self.is_rational():
            return hash(Fraction(self.num[0], self.den))
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


_new = object.__new__
_set_n = Cyclo.n.__set__
_set_num = Cyclo.num.__set__
_set_den = Cyclo.den.__set__


@lru_cache(maxsize=None)
def _prime_divisors(n):
    return tuple(p for p in range(2, n + 1) if n % p == 0 and is_prime(p))


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
        return v.num[0] if v.den == 1 else Fraction(v.num[0], v.den)
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
