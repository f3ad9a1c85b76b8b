"""Length-weighted character sums on symmetric groups and their wreath
generalization.

W^x averages chi(h) x^(number of cycles of h) over a subgroup of Sigma_n;
for irreducible Specht characters this produces the monic node-product
polynomial f_lambda.  The wreath version twists each cycle by a root of
unity read off the trace of the product of the matrix components, and is
famously not inductive: the module exhibits the explicit counterexample.
Both are chars.numerical_invariant with their own measure.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .chars import numerical_invariant
from .combinat import add_node, addable_nodes, conjugate, partitions
from .cyclo import Cyclo, dot, scalar, zeta
from .symgroup import Perm, cycles_of

__all__ = ["Poly", "X", "w_x_sym", "f_lambda",
           "verify_mezzadri", "verify_psh_multiplicativity",
           "lambda_invariant", "wreath_invariant", "mu_invariant_formula",
           "specht_wreath_invariant", "wreath_theorem_check",
           "wreath_counterexample_report"]


class Poly:
    """Polynomial in one indeterminate with exact rational or cyclotomic
    coefficients, stored ascending with no trailing zeros."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [scalar(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    @staticmethod
    def const(c) -> "Poly":
        return Poly([c])

    @staticmethod
    def monomial(k: int) -> "Poly":
        """x^k."""
        return Poly([0] * k + [1])

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0] * (n - len(other.coeffs))
        return Poly([x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(other)
        return self + other.scale(-1)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        out = [0] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(out)

    __rmul__ = __mul__

    def scale(self, c) -> "Poly":
        return Poly([c * a for a in self.coeffs])

    def x_scale(self, c) -> "Poly":
        """Substitute x -> c x."""
        out = []
        power = 1
        for a in self.coeffs:
            out.append(a * power)
            power = power * c
        return Poly(out)

    def negate_x(self) -> "Poly":
        return self.x_scale(-1)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(other)
        return (len(self.coeffs) == len(other.coeffs)
                and all(a == b for a, b in zip(self.coeffs, other.coeffs)))

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly({list(self.coeffs)})"

    def pretty(self) -> str:
        if not self.coeffs:
            return "0"
        out = ""
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = " + "
            if not isinstance(c, Cyclo) and c < 0:
                sign = " - "
                c = -c
            if i == 0:
                term = str(c)
            else:
                xs = "x" if i == 1 else f"x^{i}"
                term = xs if c == 1 else f"{c}*{xs}"
            if not out:
                out = term if sign == " + " else "-" + term
            else:
                out += sign + term
        return out or "0"

    def to_json(self):
        out = []
        for c in self.coeffs:
            if isinstance(c, Cyclo):
                out.append(c.to_json())
            else:
                fc = Fraction(c)
                out.append([str(fc.numerator), str(fc.denominator)])
        return out

    def approx(self):
        """Float (or complex-pair) coefficient list for display."""
        out = []
        for c in self.coeffs:
            if isinstance(c, Cyclo):
                out.append(c.to_complex())
            else:
                out.append(float(c))
        return out


X = Poly([0, 1])


def _all_perms(n: int):
    for images in itertools.permutations(range(1, n + 1)):
        yield Perm(images)


def w_x_sym(chi) -> Poly:
    """w_x over the whole of Sigma_n for a class function keyed by cycle
    type: the measure is x^(number of cycles)."""
    return numerical_invariant(chi, lambda lam: Poly.monomial(len(lam)))


def verify_induction_invariance(n: int) -> dict:
    """w_x is unchanged by inducing from a cyclic subgroup up to the full
    symmetric group: exhaustive over all cyclic subgroups of Sigma_n and
    all of their linear characters (see
    FiniteGroupTable.cyclic_induction_check)."""
    from .groups import FiniteGroupTable
    from .specht import check_sym_order
    check_sym_order(n)
    G = FiniteGroupTable(f"Sym({n})", _all_perms(n), lambda a, b: a * b,
                         None, Perm.identity(n))
    cases, found = G.cyclic_induction_check(
        lambda i: Poly.monomial(len(G.elements[i].cycle_type())))
    failures = [{"generator": G.elements[g].images, "character": j}
                for g, j in found]
    return {"check": "induction-invariance", "n": n, "cases": cases,
            "failures": failures, "pass": not failures}


def f_lambda(lam) -> Poly:
    """Product of (x - i + j) over the nodes (i, j) of the diagram."""
    out = Poly.const(1)
    for i, part in enumerate(lam, start=1):
        for j in range(1, part + 1):
            out = out * Poly([j - i, 1])
    return out


def verify_mezzadri(n: int) -> dict:
    """For every partition of n: the brute-force w_x equals f_lambda, the
    conjugate identity holds, the addable-node dimension sum vanishes, and
    the branching recursion for f holds."""
    from .specht import specht_character, specht_dim
    checks = []
    ok = True
    for lam in partitions(n):
        brute = w_x_sym(specht_character(lam))
        target = f_lambda(lam)
        match = brute == target
        conj_ok = brute == f_lambda(conjugate(lam)).negate_x().scale(
            (-1) ** n)
        checks.append({"lambda": lam, "w_x": brute.to_json(),
                       "f_lambda": target.to_json(), "match": match,
                       "conjugate_identity": conj_ok})
        ok = ok and match and conj_ok
    node_sums = []
    for mu in partitions(n):
        total = 0
        rhs = Poly()
        for (i, j) in addable_nodes(mu):
            lam = add_node(mu, (i, j))
            total += specht_dim(lam) * (i - j)
            rhs = rhs + f_lambda(lam).scale(specht_dim(lam))
        lhs = (X * f_lambda(mu)).scale((n + 1) * specht_dim(mu))
        node_sums.append({"mu": mu, "node_sum": total,
                          "branching_recursion": lhs == rhs})
        ok = ok and total == 0 and lhs == rhs
    return {"check": "mezzadri", "n": n, "per_partition": checks,
            "node_sums": node_sums, "pass": ok}


def verify_psh_multiplicativity(k: int, n: int) -> dict:
    """w_x of the induced product character factors as the product of the
    w_x's; also the one-step induction multiplies by x."""
    from .specht import induce_young, specht_character
    checks = []
    ok = True
    for lam in partitions(k):
        for mu in partitions(n - k):
            induced = induce_young(specht_character(lam),
                                   specht_character(mu))
            lhs = w_x_sym(induced)
            rhs = f_lambda(lam) * f_lambda(mu)
            checks.append({"pair": [lam, mu], "match": lhs == rhs})
            ok = ok and lhs == rhs
    one_step = []
    for lam in partitions(n - 1):
        induced = induce_young(specht_character(lam),
                               specht_character((1,)))
        lhs = w_x_sym(induced)
        match = lhs == X * f_lambda(lam)
        one_step.append({"lambda": lam, "match": match})
        ok = ok and match
    return {"check": "psh-multiplicativity", "k": k, "n": n,
            "pairs": checks, "one_step": one_step, "pass": ok}


# -- wreath products of matrix groups ----------------------------------------

def lambda_invariant(H, element) -> Cyclo:
    """Product over the cycles of the permutation part of
    zeta_p^(trace of the product of the matrix components on the cycle):
    zeta_p to the sum of those traces."""
    from .glfq import mat_identity, mat_mul, mat_trace
    sig, alphas = element
    f = H.field
    exponent = 0
    for cyc in cycles_of(sig):
        prod = mat_identity(f, len(H.elements[0]))
        for pos in cyc:
            prod = mat_mul(f, prod, H.elements[alphas[pos - 1]])
        exponent += f.trace(mat_trace(f, prod))
    return zeta(f.p, exponent)


def mu_invariant_formula(H, w_elt, y_elt) -> Cyclo:
    """Twist of the conjugate y^-1 w y computed from w's own matrix
    components along the cycles of the conjugated permutation: the
    lambda_invariant of (conjugated permutation, w's components)."""
    sig, alphas = w_elt
    sig2 = y_elt[0]
    n = len(sig)
    inv2 = [0] * n
    for i, v in enumerate(sig2, start=1):
        inv2[v - 1] = i
    conj_sig = tuple(inv2[sig[sig2[i - 1] - 1] - 1] for i in range(1, n + 1))
    return lambda_invariant(H, (conj_sig, alphas))


def wreath_invariant(H, G, chi) -> Poly:
    """(1/dim) sum over G of chi(X) x^(cycles of sigma) twist(X), for a
    table G of wreath elements over H and a class function chi of G."""
    def measure(i):
        x = G.elements[i]
        return Poly.monomial(len(cycles_of(x[0]))).scale(
            lambda_invariant(H, x))
    return numerical_invariant(chi, G.class_measure(measure))


def _wreath_setup(n: int, q: int = 3):
    from .glfq import gl_group
    from .wreath import wreath_group
    H = gl_group(1, q)
    J = wreath_group(H, n)
    return H, J


def specht_wreath_invariant(lam, q: int = 3) -> Poly:
    """The wreath invariant of the Specht character of lam, induced from
    the permutation subgroup Sigma_n up the full wreath product of
    GL(1,q), n = |lam|."""
    from .specht import specht_character
    n = sum(lam)
    H, J = _wreath_setup(n, q)
    chi = specht_character(lam)
    ident = (H.identity_idx,) * n
    on_sub = {i: chi.values[Perm(sig).cycle_type()]
              for i, (sig, alphas) in enumerate(J.elements)
              if alphas == ident}
    return wreath_invariant(H, J, J.induced_character(on_sub.keys(), on_sub))


def wreath_theorem_check(n: int, q: int = 3) -> dict:
    """The invariant of the representation induced from a Specht module
    up the full wreath product equals f_lambda evaluated at
    x zeta_p^(m d)."""
    H, _ = _wreath_setup(n, q)
    p, d = H.field.p, H.field.d
    m = len(H.elements[0])
    twist = zeta(p, (m * d) % p)
    checks = []
    ok = True
    for lam in partitions(n):
        lhs = specht_wreath_invariant(lam, q)
        match = lhs == f_lambda(lam).x_scale(twist)
        checks.append({"lambda": lam, "match": match})
        ok = ok and match
    return {"check": "wreath-theorem", "n": n, "q": q,
            "per_partition": checks, "pass": ok}


def _counterexample_groups(q: int = 3):
    """The index-6 subgroup generated by the transposition of the first
    two slots and matrix components supported there, inside the full
    3-fold wreath product.  GL(1,2) is trivial, so q = 2 has no
    counterexample and is refused."""
    H, J = _wreath_setup(3, q)
    if H.order == 1:
        raise ValueError(f"GL(1,{q}) is trivial: no character can differ")
    G = J.subgroup([i for i, (sig, al) in enumerate(J.elements)
                    if sig[2] == 3 and al[2] == H.identity_idx],
                   f"CounterexampleG(q={q})")
    return H, J, G


def induced_invariant_conjugate_route(H, J, G, chi_fn, dim) -> Poly:
    """The invariant of the induced character evaluated by unfolding the
    induction into a double sum over (W, Y) in G x J, with the cycle twist
    of each conjugate read off the conjugated-cycle index formula.

    Note: this is NOT the same as applying the plain definition to the
    induced character.  The cycle twist is a class function (the trace of
    a product along a cycle is conjugation invariant), so the plain
    definition is induction invariant; the conjugated-cycle indexing used
    here breaks that and is what produces the recorded failure.  That
    measure depends on the conjugator and is not a class function, so
    this route stays a double sum over elements instead of
    chars.numerical_invariant: one cyclo.dot of chi(W) by the twist per
    power of x."""
    by_cycles: dict = {}
    for w_elt in G.elements:
        value = chi_fn(w_elt)
        values, twists = by_cycles.setdefault(len(cycles_of(w_elt[0])),
                                              ([], []))
        for y_elt in J.elements:
            values.append(value)
            twists.append(mu_invariant_formula(H, w_elt, y_elt))
    total = Poly([dot(*by_cycles[k]) if k in by_cycles else 0
                  for k in range(max(by_cycles) + 1)])
    return total.scale(Fraction(1, J.order * int(dim)))


def wreath_counterexample_report(q: int = 3) -> dict:
    """For every irreducible of the small subgroup: reproduce the
    closed-form expansions of dim * W for both the subgroup invariant and
    the conjugated-cycle evaluation of the induced one, and exhibit the
    failure of induction invariance for at least one character.

    Also records that the definition-level invariant of the induced
    character coincides with the subgroup invariant (the per-cycle twist
    is a class function), so the failure is specific to the
    conjugated-cycle indexed route."""
    H, J, G = _counterexample_groups(q)
    p = H.field.p
    m = len(H.elements[0])
    d = H.field.d
    twist = zeta(p, (m * d) % p)
    id3 = (1, 2, 3)
    swap = (2, 1, 3)
    checks = []
    any_diff = False
    ok = True
    for idx, chi in enumerate(G.character_table()):
        dim = chi.values[0]

        def chi_g(x, chi=chi):
            return chi.values[G.class_of(G.index[x])]

        w_g = wreath_invariant(H, G, chi)

        # closed-form expansion of dim * W over the small group: cubic
        # term from sigma = identity, quadratic term from the swap
        expr1 = Poly()
        # closed-form expansion of dim * W of the induced character via
        # the conjugated-cycle route: the cubic term survives unchanged;
        # the quadratic term splits by whether the conjugator fixes the
        # third slot (2 of 6 do), giving weights 1/3 and 2/3
        expr2 = Poly()
        w_prod = Fraction(1, 3)
        w_sum = Fraction(2, 3)
        for a1 in range(H.order):
            for a2 in range(H.order):
                tr_sum = H.field.add(
                    H.field.trace(H.elements[a1][0][0]),
                    H.field.trace(H.elements[a2][0][0]))
                tr_prod = H.field.trace(H.field.mul(
                    H.elements[a1][0][0], H.elements[a2][0][0]))
                alpha = (a1, a2, H.identity_idx)
                cubic = Poly([0, 0, 0, 1]).scale(
                    chi_g((id3, alpha)) * zeta(p, tr_sum) * twist)
                expr1 = expr1 + cubic
                expr2 = expr2 + cubic
                expr1 = expr1 + Poly([0, 0, 1]).scale(
                    chi_g((swap, alpha)) * zeta(p, tr_prod) * twist)
                expr2 = expr2 + Poly([0, 0, 1]).scale(
                    w_prod * chi_g((swap, alpha)) * zeta(p, tr_prod)
                    * twist)
                expr2 = expr2 + Poly([0, 0, 1]).scale(
                    w_sum * chi_g((swap, alpha)) * zeta(p, tr_sum))
        match1 = w_g.scale(dim) == expr1

        # induced character up the full wreath product; plain definition
        sub = [J.index[x] for x in G.elements]
        on_sub = {J.index[x]: chi_g(x) for x in G.elements}
        w_j_def = wreath_invariant(H, J, J.induced_character(sub, on_sub))

        # conjugated-cycle double-sum route
        w_j_conj = induced_invariant_conjugate_route(H, J, G, chi_g, dim)
        match2 = w_j_conj.scale(dim) == expr2

        differs = w_g != w_j_conj
        any_diff = any_diff or differs
        ok = ok and match1 and match2
        checks.append({"character": idx, "dim": dim,
                       "expansion_small": match1,
                       "expansion_induced": match2,
                       "definition_route_invariant": w_j_def == w_g,
                       "invariance_fails": differs})
    return {"check": "wreath-counterexample", "q": q,
            "per_character": checks, "some_character_differs": any_diff,
            "pass": ok and any_diff}
