"""Permutations, cycle types and the double cosets of two-block Young
subgroups.

The K-matrix invariant realizes the bijection between
(Sigma_a x Sigma_{m-a}) \\ Sigma_m / (Sigma_alpha x Sigma_{m-alpha})
and 2x2 matrices of non-negative integers with prescribed row and column
sums, together with the explicit block-interchange representative w(k);
young_double_coset_check verifies it over all of Sigma_m.
"""

from __future__ import annotations

import itertools
import math

from .groups import check_group_order

__all__ = ["Perm", "cycles_of", "sign_of", "centralizer_order", "class_size",
           "KMatrix", "kmatrix_solutions", "kmatrix_of", "w_of_kmatrix",
           "young_double_coset_check"]


class Perm:
    """A permutation of {1..n}, stored as the tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection of 1..{n}: {images}")
        object.__setattr__(self, "images", images)

    def __setattr__(self, *a):
        raise AttributeError("Perm is immutable")

    @staticmethod
    def identity(n: int) -> "Perm":
        return Perm(range(1, n + 1))

    @staticmethod
    def from_cycles(n: int, cycles) -> "Perm":
        images = list(range(1, n + 1))
        for cyc in cycles:
            for k, x in enumerate(cyc):
                images[x - 1] = cyc[(k + 1) % len(cyc)]
        return Perm(images)

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x - 1]

    def __mul__(self, other: "Perm") -> "Perm":
        """(self * other)(x) = self(other(x))."""
        return Perm(tuple(self.images[y - 1] for y in other.images))

    def inv(self) -> "Perm":
        out = [0] * self.n
        for x, y in enumerate(self.images, start=1):
            out[y - 1] = x
        return Perm(out)

    def cycle_type(self) -> tuple[int, ...]:
        return tuple(sorted(map(len, cycles_of(self.images)), reverse=True))

    def __eq__(self, other):
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Perm{self.images}"


def cycles_of(images) -> list[tuple[int, ...]]:
    """Disjoint cycles, fixed points included, of the permutation of 1..n
    with the given tuple of images, each starting at its least element,
    in order of least element."""
    seen = [False] * len(images)
    out = []
    for start in range(1, len(images) + 1):
        if seen[start - 1]:
            continue
        cyc = [start]
        seen[start - 1] = True
        x = images[start - 1]
        while x != start:
            cyc.append(x)
            seen[x - 1] = True
            x = images[x - 1]
        out.append(tuple(cyc))
    return out


def sign_of(images) -> int:
    """The sign of the permutation of 1..n with the given tuple of images:
    -1 to the power n minus the number of cycles."""
    return -1 if (len(images) - len(cycles_of(images))) % 2 else 1


def centralizer_order(ctype) -> int:
    """Order of the centralizer in Sym(n) of a permutation of cycle type
    ctype: the product of i^r r! over parts i of multiplicity r."""
    mult = {}
    for part in ctype:
        mult[part] = mult.get(part, 0) + 1
    out = 1
    for i, r in mult.items():
        out *= i ** r * math.factorial(r)
    return out


def class_size(n: int, ctype) -> int:
    return math.factorial(n) // centralizer_order(ctype)


def class_representative(n: int, ctype) -> Perm:
    """Canonical representative: cycles of decreasing length on ascending
    consecutive elements."""
    cycles, k = [], 1
    for part in ctype:
        cycles.append(tuple(range(k, k + part)))
        k += part
    return Perm.from_cycles(n, cycles)


class KMatrix:
    """2x2 non-negative integer matrix with row sums (alpha, m-alpha) and
    column sums (a, m-a); the invariant separating Young double cosets."""

    __slots__ = ("k11", "k12", "k21", "k22")

    def __init__(self, k11, k12, k21, k22):
        for v in (k11, k12, k21, k22):
            if v < 0:
                raise ValueError("KMatrix entries must be non-negative")
        object.__setattr__(self, "k11", k11)
        object.__setattr__(self, "k12", k12)
        object.__setattr__(self, "k21", k21)
        object.__setattr__(self, "k22", k22)

    def __setattr__(self, *a):
        raise AttributeError("KMatrix is immutable")

    def as_tuple(self):
        return (self.k11, self.k12, self.k21, self.k22)

    def __eq__(self, other):
        return isinstance(other, KMatrix) and self.as_tuple() == other.as_tuple()

    def __hash__(self):
        return hash(self.as_tuple())

    def __repr__(self):
        return f"KMatrix(k11={self.k11}, k12={self.k12}, k21={self.k21}, k22={self.k22})"


def kmatrix_solutions(a: int, alpha: int, m: int) -> list[KMatrix]:
    if not (0 <= a <= m and 0 <= alpha <= m):
        raise ValueError("need 0 <= a, alpha <= m")
    out = []
    for k11 in range(max(0, a + alpha - m), min(a, alpha) + 1):
        out.append(KMatrix(k11, alpha - k11, a - k11, m - alpha - (a - k11)))
    return out


def kmatrix_of(g: Perm, a: int, alpha: int, m: int) -> KMatrix:
    """k_{t,v} = #(g(J_t) ∩ I_v) with J_1 = {1..alpha}, I_1 = {1..a}."""
    k11 = sum(1 for x in range(1, alpha + 1) if g(x) <= a)
    k21 = a - k11
    return KMatrix(k11, alpha - k11, k21, m - alpha - k21)


def w_of_kmatrix(k: KMatrix, a: int, alpha: int, m: int) -> Perm:
    """The canonical representative: identity on the two diagonal blocks,
    order-preserving interchange of the off-diagonal blocks."""
    images = [0] * m
    # J blocks (domain): J11 = 1..k11, J12 = k11+1..alpha,
    #                    J21 = alpha+1..alpha+k21, J22 = rest
    # I blocks (range):  I11 = 1..k11, I21 = k11+1..a,
    #                    I12 = a+1..a+k12, I22 = rest
    for t, x in enumerate(range(1, k.k11 + 1)):
        images[x - 1] = 1 + t
    for t, x in enumerate(range(k.k11 + 1, alpha + 1)):
        images[x - 1] = a + 1 + t
    for t, x in enumerate(range(alpha + 1, alpha + k.k21 + 1)):
        images[x - 1] = k.k11 + 1 + t
    for t, x in enumerate(range(alpha + k.k21 + 1, m + 1)):
        images[x - 1] = a + k.k12 + 1 + t
    return Perm(images)


def young_double_coset_check(m: int) -> dict:
    """For every a, alpha <= m, the matrix invariant takes exactly the
    solution values on Sigma_m, and each canonical representative w(k)
    has invariant k: the invariant separates the double cosets of the
    two-block Young subgroups and the representatives hit every value."""
    check_group_order(f"Sym({m})", math.factorial(m))
    perms = [Perm(images)
             for images in itertools.permutations(range(1, m + 1))]
    ok = True
    for a in range(m + 1):
        for alpha in range(m + 1):
            sols = kmatrix_solutions(a, alpha, m)
            seen = {kmatrix_of(g, a, alpha, m) for g in perms}
            reps_ok = all(
                kmatrix_of(w_of_kmatrix(k, a, alpha, m), a, alpha, m) == k
                for k in sols)
            ok = ok and reps_ok and seen == set(sols)
    return {"check": "young-double-cosets", "m": m, "pass": ok}
