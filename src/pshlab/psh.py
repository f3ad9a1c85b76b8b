"""Graded self-adjoint Hopf structures on representation rings, with
three concrete towers: symmetric groups, wreath products, and small
general linear groups over finite fields.

Everything is computed at the level of exact characters; a basis label is
an irreducible character, and a PshElement is an integer combination of
(degree, label) pairs.  One PshStructure serves every tower: the product
is induction decomposed into irreducibles by the inner product, and the
coproduct is restriction, given on pairs of classes of the two factors,
decomposed the same way.  A tower supplies only its irreducibles, its
induction and its restriction.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .cyclo import conj, integer, scalar

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
    """A tower of groups G_n, n = 1..maxdeg, given by three functions.

    irreducibles(n) maps each basis label of degree n to its irreducible
    character, a ClassFunction; induce(a, chi, b, psi) is the character
    of G_(a+b) induced from chi x psi on the block subgroup G_a x G_b (and
    inflated over its radical, if the tower has one); restrict(n, chi, a)
    maps each pair (x, y) of class labels of G_a and G_(n-a) to the value
    R(x, y) of chi restricted to G_a x G_b (averaged over the radical).

    The product decomposes the induced character against irreducibles(a+b)
    by ClassFunction.inner; the coproduct decomposes the restriction,
    (1/|G_a||G_b|) sum of |x||y| R(x, y) conj alpha(x) conj beta(y) over
    the class pairs.  Neither is derived from the other, so
    verify_self_adjoint compares two independent routes."""

    def __init__(self, name: str, maxdeg: int, irreducibles, induce,
                 restrict):
        self.name = name
        self.maxdeg = maxdeg
        self.irreducibles = lru_cache(maxsize=None)(irreducibles)
        self.induce = induce
        self.restrict = restrict
        self._prod_cache: dict = {}
        self._cop_cache: dict = {}

    def basis(self, n: int):
        if n == 0:
            return [UNIT]
        return list(self.irreducibles(n))

    def product(self, da, la, db, lb) -> PshElement:
        if da == 0:
            return PshElement.basis(db, lb)
        if db == 0:
            return PshElement.basis(da, la)
        key = (da, la, db, lb)
        out = self._prod_cache.get(key)
        if out is None:
            induced = self.induce(da, self.irreducibles(da)[la],
                                  db, self.irreducibles(db)[lb])
            n = da + db
            out = self._prod_cache[key] = PshElement(
                {(n, l): integer(induced.inner(irr))
                 for l, irr in self.irreducibles(n).items()})
        return out

    def coproduct(self, d, l) -> dict:
        if d == 0:
            return {((0, UNIT), (0, UNIT)): 1}
        key = (d, l)
        out = self._cop_cache.get(key)
        if out is None:
            out = {((0, UNIT), (d, l)): 1, ((d, l), (0, UNIT)): 1}
            chi = self.irreducibles(d)[l]
            for a in range(1, d):
                table = self.restrict(d, chi, a)
                for la, alpha in self.irreducibles(a).items():
                    for lb, beta in self.irreducibles(d - a).items():
                        total = sum(alpha.sizes[x] * beta.sizes[y] * v
                                    * conj(alpha.values[x])
                                    * conj(beta.values[y])
                                    for (x, y), v in table.items())
                        c = integer(total * Fraction(
                            1, alpha.order * beta.order))
                        if c:
                            out[((a, la), (d - a, lb))] = c
            self._cop_cache[key] = out
        return out

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

def verify_self_adjoint(R: PshStructure) -> dict:
    """<m(x ox y), z> must equal the (x, y) coefficient of m*(z) for all
    basis triples with deg x + deg y = deg z <= R.maxdeg."""
    maxdeg = R.maxdeg
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


def verify_hopf(R: PshStructure) -> dict:
    """Hopf compatibility m* m = (m ox m)(1 ox T ox 1)(m* ox m*) on all
    basis pairs, plus associativity of m, coassociativity of m*, and the
    unit/counit laws."""
    maxdeg = R.maxdeg
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


def verify_positivity(R: PshStructure) -> dict:
    maxdeg = R.maxdeg
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


def verify_cocommutativity(R: PshStructure) -> dict:
    maxdeg = R.maxdeg
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


def decompose(R: PshStructure) -> dict:
    """Assign each basis label to the block of the primitive whose powers
    contain it; returns {"blocks": {(deg, prim): [labels]},
    "unresolved": [labels]}."""
    maxdeg = R.maxdeg
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


# -- the three towers --------------------------------------------------------

@lru_cache(maxsize=None)
def symmetric_instance(maxdeg: int = 6) -> PshStructure:
    """PSH structure on the symmetric groups: Specht characters, Young
    induction, and restriction chi(t1 u t2) on cycle-type pairs."""
    from .combinat import partitions
    from .specht import induce_young, specht_character

    def irreducibles(n):
        return {lam: specht_character(lam) for lam in partitions(n)}

    def induce(a, chi, b, psi):
        return induce_young(chi, psi)

    def restrict(n, chi, a):
        return {(t1, t2): chi.values[tuple(sorted(t1 + t2, reverse=True))]
                for t1 in partitions(a) for t2 in partitions(n - a)}

    return PshStructure("symmetric", maxdeg, irreducibles, induce, restrict)


def _table_tower(group_fn, embed):
    """(irreducibles, induce, restrict) for a tower of FiniteGroupTables
    group_fn(n) with a block embedding embed(x, y) of group(a) x group(b)
    into group(a+b).

    The parabolic subgroup P is the embedded group(a) x group(b) times the
    radical registered as "U(a,b)"; towers that register none (wreath
    products) have the trivial radical.  Induction is from P of the
    inflated tensor character.  Restriction averages chi over the radical
    coset of the embedded pair; the Levi subgroup normalises the radical,
    so that average is a class function of it and is read at one
    representative pair per class pair."""

    def radical(G, a, b):
        return sorted(G.subgroups.get(f"U({a},{b})", [G.identity_idx]))

    def irreducibles(n):
        return dict(enumerate(group_fn(n).character_table()))

    def induce(a, chi, b, psi):
        G, Ga, Gb = group_fn(a + b), group_fn(a), group_fn(b)
        U = radical(G, a, b)
        values = {}
        for xa in range(Ga.order):
            for xb in range(Gb.order):
                v = chi.values[Ga.class_of(xa)] * psi.values[Gb.class_of(xb)]
                i = G.index[embed(Ga.elements[xa], Gb.elements[xb])]
                for u in U:
                    values[G.mul(i, u)] = v
        return G.induced_character(values.keys(), values)

    def restrict(n, chi, a):
        G, Ga, Gb = group_fn(n), group_fn(a), group_fn(n - a)
        U = radical(G, a, n - a)
        out = {}
        for x, xa in enumerate(Ga.class_reps()):
            for y, xb in enumerate(Gb.class_reps()):
                i = G.index[embed(Ga.elements[xa], Gb.elements[xb])]
                total = sum(chi.values[G.class_of(G.mul(i, u))] for u in U)
                out[(x, y)] = scalar(total * Fraction(1, len(U)))
        return out

    return irreducibles, induce, restrict


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

    return PshStructure(f"wreath({h_name})", maxdeg,
                        *_table_tower(group_fn, embed))


def _base_group(name: str):
    from .groups import FiniteGroupTable
    if name == "C2":
        return FiniteGroupTable("C2", [0, 1], lambda a, b: (a + b) % 2,
                                None, 0)
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

    return PshStructure(f"GL(q={q})", maxdeg,
                        *_table_tower(group_fn, block_diagonal))


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
