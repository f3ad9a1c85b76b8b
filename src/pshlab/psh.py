"""Graded self-adjoint Hopf structures on representation rings, with
three concrete instances: symmetric groups, wreath products, and small
general linear groups over finite fields.

Everything is computed at the level of exact characters; a basis label is
an irreducible character, a PshElement is an integer combination of
(degree, label) pairs, and products/coproducts are induction/restriction
decomposed by Schur inner products.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .cyclo import conj, integer, scalar
from .symgroup import centralizer_order

__all__ = ["PshElement", "PshStructure", "psh_inner", "verify_self_adjoint",
           "verify_hopf", "verify_positivity", "verify_cocommutativity",
           "primitives", "decompose", "symmetric_instance", "wreath_instance",
           "gl_instance", "verify_fibred_grading"]

UNIT = "1"


class PshElement:
    """Finitely supported integer combination of (degree, label) pairs."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict | None = None):
        clean = {k: v for k, v in (coeffs or {}).items() if v}
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, *a):
        raise AttributeError("PshElement is immutable")

    @staticmethod
    def basis(degree: int, label) -> "PshElement":
        return PshElement({(degree, label): 1})

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        return PshElement(out)

    def __sub__(self, other):
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) - v
        return PshElement(out)

    def scale(self, c: int) -> "PshElement":
        return PshElement({k: c * v for k, v in self.coeffs.items()})

    def is_positive(self) -> bool:
        return all(v >= 0 for v in self.coeffs.values())

    def __eq__(self, other):
        return isinstance(other, PshElement) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self):
        return f"PshElement({self.coeffs})"


def psh_inner(x: PshElement, y: PshElement) -> int:
    return sum(v * y.coeffs.get(k, 0) for k, v in x.coeffs.items())


class PshStructure:
    """basis_fn(n) -> ordered labels; product_fn(da, la, db, lb) ->
    PshElement in degree da+db; coproduct_fn(d, l) -> dict mapping
    ((da, la), (db, lb)) -> coefficient, covering all splits da+db = d."""

    def __init__(self, name: str, maxdeg: int, basis_fn, product_fn,
                 coproduct_fn):
        self.name = name
        self.maxdeg = maxdeg
        self._basis_fn = basis_fn
        self._product_fn = product_fn
        self._coproduct_fn = coproduct_fn
        self._prod_cache: dict = {}
        self._cop_cache: dict = {}

    def basis(self, n: int):
        if n == 0:
            return [UNIT]
        return self._basis_fn(n)

    def product(self, da, la, db, lb) -> PshElement:
        if da == 0:
            return PshElement.basis(db, lb)
        if db == 0:
            return PshElement.basis(da, la)
        key = (da, la, db, lb)
        if key not in self._prod_cache:
            self._prod_cache[key] = self._product_fn(da, la, db, lb)
        return self._prod_cache[key]

    def coproduct(self, d, l) -> dict:
        if d == 0:
            return {((0, UNIT), (0, UNIT)): 1}
        key = (d, l)
        if key not in self._cop_cache:
            self._cop_cache[key] = self._coproduct_fn(d, l)
        return self._cop_cache[key]

    def product_elem(self, x: PshElement, y: PshElement) -> PshElement:
        out = PshElement()
        for (da, la), cx in x.coeffs.items():
            for (db, lb), cy in y.coeffs.items():
                out = out + self.product(da, la, db, lb).scale(cx * cy)
        return out

    def coproduct_elem(self, x: PshElement) -> dict:
        out: dict = {}
        for (d, l), c in x.coeffs.items():
            for pair, v in self.coproduct(d, l).items():
                out[pair] = out.get(pair, 0) + c * v
        return {k: v for k, v in out.items() if v}


# -- generic verifiers -----------------------------------------------------

def verify_self_adjoint(R: PshStructure, maxdeg: int | None = None) -> dict:
    """<m(x ox y), z> must equal the (x, y) coefficient of m*(z) for all
    basis triples with deg x + deg y = deg z <= maxdeg."""
    maxdeg = maxdeg or R.maxdeg
    cases = 0
    failures = []
    for n in range(0, maxdeg + 1):
        for a in range(0, n + 1):
            for la in R.basis(a):
                for lb in R.basis(n - a):
                    prod = R.product(a, la, n - a, lb)
                    for lz in R.basis(n):
                        lhs = prod.coeffs.get((n, lz), 0)
                        rhs = R.coproduct(n, lz).get(
                            ((a, la), (n - a, lb)), 0)
                        cases += 1
                        if lhs != rhs:
                            failures.append(
                                {"x": (a, la), "y": (n - a, lb),
                                 "z": (n, lz), "lhs": lhs, "rhs": rhs})
    return {"check": "self-adjoint", "instance": R.name, "maxdeg": maxdeg,
            "cases": cases, "failures": failures, "pass": not failures}


def _tensor4_from_pair(R, cop_x, cop_y):
    """(m ox m)(1 ox T ox 1)(m* ox m*)(x ox y) collected by split."""
    out: dict = {}
    for ((a1, l1), (b1, k1)), cx in cop_x.items():
        for ((a2, l2), (b2, k2)), cy in cop_y.items():
            left = R.product(a1, l1, a2, l2)
            right = R.product(b1, k1, b2, k2)
            for kl, vl in left.coeffs.items():
                for kr, vr in right.coeffs.items():
                    key = (kl, kr)
                    out[key] = out.get(key, 0) + cx * cy * vl * vr
    return {k: v for k, v in out.items() if v}


def verify_hopf(R: PshStructure, maxdeg: int | None = None) -> dict:
    """Hopf compatibility m* m = (m ox m)(1 ox T ox 1)(m* ox m*) on all
    basis pairs, plus associativity of m, coassociativity of m*, and the
    unit/counit laws."""
    maxdeg = maxdeg or R.maxdeg
    cases = 0
    failures = []
    # compatibility
    for n in range(0, maxdeg + 1):
        for a in range(0, n + 1):
            for la in R.basis(a):
                for lb in R.basis(n - a):
                    x = PshElement.basis(a, la)
                    y = PshElement.basis(n - a, lb)
                    route1 = R.coproduct_elem(R.product_elem(x, y))
                    route2 = _tensor4_from_pair(
                        R, R.coproduct(a, la), R.coproduct(n - a, lb))
                    cases += 1
                    if route1 != route2:
                        failures.append({"kind": "compatibility",
                                         "x": (a, la), "y": (n - a, lb)})
    # associativity on basis triples
    for n in range(0, maxdeg + 1):
        for a in range(0, n + 1):
            for b in range(0, n - a + 1):
                c = n - a - b
                for la in R.basis(a):
                    for lb in R.basis(b):
                        for lc in R.basis(c):
                            x, y, z = (PshElement.basis(a, la),
                                       PshElement.basis(b, lb),
                                       PshElement.basis(c, lc))
                            cases += 1
                            if (R.product_elem(R.product_elem(x, y), z)
                                    != R.product_elem(
                                        x, R.product_elem(y, z))):
                                failures.append(
                                    {"kind": "associativity",
                                     "triple": [(a, la), (b, lb), (c, lc)]})
    # coassociativity
    for n in range(0, maxdeg + 1):
        for l in R.basis(n):
            left: dict = {}
            right: dict = {}
            for ((a, la), (b, lb)), c0 in R.coproduct(n, l).items():
                for ((a1, l1), (a2, l2)), c1 in R.coproduct(a, la).items():
                    key = ((a1, l1), (a2, l2), (b, lb))
                    left[key] = left.get(key, 0) + c0 * c1
                for ((b1, k1), (b2, k2)), c1 in R.coproduct(b, lb).items():
                    key = ((a, la), (b1, k1), (b2, k2))
                    right[key] = right.get(key, 0) + c0 * c1
            left = {k: v for k, v in left.items() if v}
            right = {k: v for k, v in right.items() if v}
            cases += 1
            if left != right:
                failures.append({"kind": "coassociativity", "label": (n, l)})
    # unit and counit laws
    for n in range(0, maxdeg + 1):
        for l in R.basis(n):
            x = PshElement.basis(n, l)
            cases += 1
            if R.product_elem(PshElement.basis(0, UNIT), x) != x:
                failures.append({"kind": "unit", "label": (n, l)})
            extreme = R.coproduct(n, l).get(((0, UNIT), (n, l)), 0)
            cases += 1
            if extreme != 1:
                failures.append({"kind": "counit", "label": (n, l)})
    return {"check": "hopf", "instance": R.name, "maxdeg": maxdeg,
            "cases": cases, "failures": failures, "pass": not failures}


def verify_positivity(R: PshStructure, maxdeg: int | None = None) -> dict:
    maxdeg = maxdeg or R.maxdeg
    cases = 0
    failures = []
    for n in range(0, maxdeg + 1):
        for a in range(0, n + 1):
            for la in R.basis(a):
                for lb in R.basis(n - a):
                    cases += 1
                    if not R.product(a, la, n - a, lb).is_positive():
                        failures.append({"kind": "product",
                                         "pair": [(a, la), (n - a, lb)]})
        for l in R.basis(n):
            cases += 1
            if any(v < 0 for v in R.coproduct(n, l).values()):
                failures.append({"kind": "coproduct", "label": (n, l)})
    return {"check": "positivity", "instance": R.name, "maxdeg": maxdeg,
            "cases": cases, "failures": failures, "pass": not failures}


def verify_cocommutativity(R: PshStructure, maxdeg: int | None = None) -> dict:
    maxdeg = maxdeg or R.maxdeg
    cases = 0
    failures = []
    for n in range(0, maxdeg + 1):
        for l in R.basis(n):
            cop = R.coproduct(n, l)
            flipped = {(b, a): v for (a, b), v in cop.items()}
            cases += 1
            if cop != flipped:
                failures.append({"label": (n, l)})
    return {"check": "cocommutativity", "instance": R.name,
            "maxdeg": maxdeg, "cases": cases, "failures": failures,
            "pass": not failures}


def primitives(R: PshStructure, n: int):
    """Basis labels in degree n whose coproduct has only the two extreme
    components."""
    out = []
    for l in R.basis(n):
        cop = R.coproduct(n, l)
        extremes = {((0, UNIT), (n, l)), ((n, l), (0, UNIT))}
        if set(cop) <= extremes:
            out.append(l)
    return out


def decompose(R: PshStructure, maxdeg: int | None = None) -> dict:
    """Assign each basis label to the block of the primitive whose powers
    contain it; returns {"blocks": {(deg, prim): [labels]},
    "unresolved": [labels]}."""
    maxdeg = maxdeg or R.maxdeg
    prims = []
    for d in range(1, maxdeg + 1):
        prims.extend((d, p) for p in primitives(R, d))
    blocks = {prim: [] for prim in prims}
    unresolved = []
    for n in range(1, maxdeg + 1):
        for l in R.basis(n):
            homes = []
            for (d, p) in prims:
                if n % d:
                    continue
                power = PshElement.basis(0, UNIT)
                for _ in range(n // d):
                    power = R.product_elem(power, PshElement.basis(d, p))
                if psh_inner(PshElement.basis(n, l), power):
                    homes.append((d, p))
            if len(homes) == 1:
                blocks[homes[0]].append((n, l))
            elif not homes:
                unresolved.append((n, l))
            else:
                # a label may meet powers of several primitives only if
                # the instance violates the block decomposition
                unresolved.append((n, l))
    return {"instance": R.name, "maxdeg": maxdeg, "blocks": blocks,
            "unresolved": unresolved}


# -- symmetric instance ------------------------------------------------------

@lru_cache(maxsize=None)
def symmetric_instance(maxdeg: int = 6) -> PshStructure:
    from .combinat import partitions
    from .specht import induce_young, specht_character

    def basis_fn(n):
        return list(partitions(n))

    def product_fn(k, lam, nk, mu):
        n = k + nk
        induced = induce_young(specht_character(lam), specht_character(mu))
        out = {}
        for nu in partitions(n):
            c = integer(induced.inner(specht_character(nu)))
            if c:
                out[(n, nu)] = c
        return PshElement(out)

    def coproduct_fn(n, lam):
        chi = specht_character(lam)
        out = {((0, UNIT), (n, lam)): 1, ((n, lam), (0, UNIT)): 1}
        for a in range(1, n):
            b = n - a
            for mu in partitions(a):
                for nu in partitions(b):
                    total = 0
                    for t1 in partitions(a):
                        for t2 in partitions(b):
                            merged = tuple(sorted(t1 + t2, reverse=True))
                            total += (Fraction(
                                factorial(a) * factorial(b),
                                centralizer_order(t1)
                                * centralizer_order(t2))
                                * chi.values[merged]
                                * specht_character(mu).values[t1]
                                * specht_character(nu).values[t2])
                    c = integer(Fraction(total, factorial(a) * factorial(b)))
                    if c:
                        out[((a, mu), (b, nu))] = c
        return out

    return PshStructure("symmetric", maxdeg, basis_fn, product_fn,
                        coproduct_fn)


# -- instances backed by FiniteGroupTables -----------------------------------

class _TableInstance:
    """Shared machinery for instances whose degree-n piece is the
    character ring of an explicit group with a block embedding of
    group(a) x group(b) into group(a+b).

    The parabolic subgroup P is the embedded group(a) x group(b) times the
    radical registered as "U(a,b)"; towers that register none (wreath
    products) have the trivial radical.  The product induces the inflated
    tensor character from P, and a coproduct component averages over the
    radical coset, which for a trivial radical is plain restriction."""

    def __init__(self, name, maxdeg, group_fn, embed):
        self.name = name
        self.maxdeg = maxdeg
        self.group_fn = group_fn
        self.embed = embed

    def basis(self, n):
        return list(range(len(self.group_fn(n).character_table())))

    def _parabolic(self, a, b):
        """The radical of group(a+b) over the blocks (sorted indices), and
        (xa, xb, index of embed(xa, xb)) for every pair of block
        elements."""
        G = self.group_fn(a + b)
        Ga, Gb = self.group_fn(a), self.group_fn(b)
        radical = sorted(G.subgroups.get(f"U({a},{b})", [G.identity_idx]))
        pairs = [(xa, xb, G.index[self.embed(Ga.elements[xa],
                                             Gb.elements[xb])])
                 for xa in range(Ga.order) for xb in range(Gb.order)]
        return radical, pairs

    def product(self, a, la, b, lb):
        G = self.group_fn(a + b)
        Ga, Gb = self.group_fn(a), self.group_fn(b)
        chi1 = Ga.character_table()[la]
        chi2 = Gb.character_table()[lb]
        radical, pairs = self._parabolic(a, b)
        chi = {}
        for xa, xb, i in pairs:
            v = chi1.values[Ga.class_of(xa)] * chi2.values[Gb.class_of(xb)]
            for u in radical:
                chi[G.mul(i, u)] = v
        induced = G.induced_character(chi.keys(), chi)
        out = {}
        for k, irr in enumerate(G.character_table()):
            c = integer(induced.inner(irr))
            if c:
                out[(a + b, k)] = c
        return PshElement(out)

    def coproduct(self, n, l):
        G = self.group_fn(n)
        chi = G.character_table()[l]
        out = {((0, UNIT), (n, l)): 1, ((n, l), (0, UNIT)): 1}
        for a in range(1, n):
            b = n - a
            Ga, Gb = self.group_fn(a), self.group_fn(b)
            radical, pairs = self._parabolic(a, b)
            table = {}
            for xa, xb, x in pairs:
                total = sum(chi.values[G.class_of(G.mul(x, u))]
                            for u in radical)
                table[(xa, xb)] = scalar(total * Fraction(1, len(radical)))
            for i, irr_a in enumerate(Ga.character_table()):
                for j, irr_b in enumerate(Gb.character_table()):
                    total = 0
                    for (xa, xb), v in table.items():
                        total = (total + v
                                 * conj(irr_a.values[Ga.class_of(xa)])
                                 * conj(irr_b.values[Gb.class_of(xb)]))
                    c = integer(total * Fraction(1, Ga.order * Gb.order))
                    if c:
                        out[((a, i), (b, j))] = c
        return out

    def structure(self) -> PshStructure:
        return PshStructure(self.name, self.maxdeg, self.basis,
                            self.product, self.coproduct)


@lru_cache(maxsize=None)
def wreath_instance(h_name: str = "C2", maxdeg: int = 3) -> PshStructure:
    """PSH structure on the wreath products of the named base group;
    currently the base registry contains C2 and the unit groups of small
    fields via GL(1, q)."""
    from .wreath import wreath_group
    H = _base_group(h_name)

    def group_fn(n):
        return wreath_group(H, n)

    def embed(x, y):
        (sig1, al1), (sig2, al2) = x, y
        sig = tuple(sig1) + tuple(s + len(sig1) for s in sig2)
        return (sig, tuple(al1) + tuple(al2))

    inst = _TableInstance(f"wreath({h_name})", maxdeg, group_fn, embed)
    return inst.structure()


def _base_group(name: str):
    from .groups import FiniteGroupTable
    if name == "C2":
        return FiniteGroupTable("C2", [0, 1], lambda a, b: (a + b) % 2,
                                lambda a: a, 0)
    if name.startswith("GL(1,"):
        from .glfq import gl_group
        q = int(name[5:-1])
        return gl_group(1, q)
    raise ValueError(f"unknown wreath base group {name!r}")


@lru_cache(maxsize=None)
def gl_instance(q: int, maxdeg: int = 2) -> PshStructure:
    """PSH structure on GL_n(F_q): product = parabolic induction of the
    inflated tensor character, coproduct component = unipotent-radical
    fixed points."""
    from .glfq import block_diagonal, gl_group

    def group_fn(n):
        return gl_group(n, q)

    inst = _TableInstance(f"GL(q={q})", maxdeg, group_fn, block_diagonal)
    return inst.structure()


def verify_fibred_grading(q: int = 3) -> dict:
    """Central characters multiply under the product GL_1 x GL_1 -> GL_2:
    every constituent of the product of two degree-1 labels has central
    character equal to the product of theirs."""
    from .glfq import central_character, gl_group
    R = gl_instance(q, 2)
    G1 = gl_group(1, q)
    G2 = gl_group(2, q)
    cases = 0
    failures = []
    table1 = G1.character_table()
    table2 = G2.character_table()
    for i, chi_a in enumerate(table1):
        for j, chi_b in enumerate(table1):
            prod = R.product(1, i, 1, j)
            for (deg, k), c in prod.coeffs.items():
                cc = central_character(G2, table2[k])
                cases += 1
                for z in G2.subgroups["Z"]:
                    zmat = G2.elements[z]
                    scalar = zmat[0][0]
                    z1 = G1.index[((scalar,),)]
                    expected = (chi_a.values[G1.class_of(z1)]
                                * chi_b.values[G1.class_of(z1)])
                    if cc[z] != expected:
                        failures.append({"pair": (i, j), "constituent": k})
                        break
    return {"check": "fibred-grading", "instance": f"GL(q={q})",
            "cases": cases, "failures": failures, "pass": not failures}
