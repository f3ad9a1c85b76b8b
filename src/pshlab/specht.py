"""Permutation modules on tabloids, polytabloids, and their exact
linear algebra: standard bases, matrix actions, characters and branching.

Vectors in the tabloid module M^mu are finitely supported dicts
Tabloid -> Fraction/int; the tabloid basis is orthonormal for the
invariant bilinear form, so inner products are plain dot products of
coordinates.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from .chars import ClassFunction
from .combinat import (Tableau, addable_nodes, add_node, all_tabloids,
                       partitions, remove_node, removable_nodes,
                       standard_tableaux)
from .cyclo import integer
from .groups import check_group_order
from .linalg import det_exact, rank_exact, solve_columns
from .symgroup import (Perm, centralizer_order, class_representative,
                       class_size, sign_of)

__all__ = ["polytabloid", "apply_kappa", "standard_basis", "specht_dim",
           "specht_action", "specht_character", "permutation_character",
           "sym_class_sizes", "sym_character_table", "induce_young",
           "restrict_character", "verify_branching",
           "submodule_theorem_check", "kappa_multiple_check",
           "tabloid_adjacency_check", "character_table_rows"]


def _column_stabilizer(t: Tableau):
    """Yield (images, sign) over the column stabilizer of t."""
    n = t.n
    per_col = [[dict(zip(col, arrangement))
                for arrangement in itertools.permutations(col)]
               for col in t.columns()]
    for combo in itertools.product(*per_col):
        images = list(range(1, n + 1))
        for mapping in combo:
            for src, dst in mapping.items():
                images[src - 1] = dst
        images = tuple(images)
        yield images, sign_of(images)


def polytabloid(t: Tableau) -> dict:
    """e_t as a map Tabloid -> +-1."""
    return apply_kappa(t, {t.tabloid(): 1})


def apply_kappa(t: Tableau, vec: dict) -> dict:
    """Apply the signed column-stabilizer sum of t to a tabloid vector."""
    out: dict = {}
    for images, sign in _column_stabilizer(t):
        for tab, c in vec.items():
            moved = tab.apply(images)
            out[moved] = out.get(moved, 0) + sign * c
    return {k: v for k, v in out.items() if v}


def apply_perm(sigma: Perm, vec: dict) -> dict:
    out: dict = {}
    for tab, c in vec.items():
        moved = tab.apply(sigma.images)
        out[moved] = out.get(moved, 0) + c
    return {k: v for k, v in out.items() if v}


@lru_cache(maxsize=None)
def standard_basis(mu: tuple):
    """(tabloids, index, standard tableaux, rows) where rows[i] are the
    coordinates of the i-th standard polytabloid in the tabloid basis.
    The rank must equal the number of standard tableaux."""
    tabloids = all_tabloids(mu)
    index = {tab: k for k, tab in enumerate(tabloids)}
    std = standard_tableaux(mu)
    rows = []
    for t in std:
        coords = [0] * len(tabloids)
        for tab, c in polytabloid(t).items():
            coords[index[tab]] = c
        rows.append(coords)
    if rank_exact(rows) != len(std):
        raise AssertionError(
            f"standard polytabloids of {mu} are linearly dependent")
    return tabloids, index, std, rows


def specht_dim(mu: tuple) -> int:
    return len(standard_tableaux(mu))


def specht_action(sigma: Perm, mu: tuple):
    """Matrix of sigma on the standard polytabloid basis: column j holds
    the coordinates of sigma . e_{t_j}."""
    tabloids, index, std, rows = standard_basis(mu)
    d = len(std)
    # solve basis^T x = sigma(e_t) for each standard t
    a = [[rows[j][i] for j in range(d)] for i in range(len(tabloids))]
    targets = []
    for t in std:
        coords = [0] * len(tabloids)
        for tab, c in apply_perm(sigma, polytabloid(t)).items():
            coords[index[tab]] = c
        targets.append(coords)
    sols = solve_columns(a, targets)
    if any(s is None for s in sols):
        raise AssertionError(
            f"action of {sigma} does not preserve the span for {mu}")
    return [[sols[j][i] for j in range(d)] for i in range(d)]


def sym_class_sizes(n: int) -> dict:
    return {lam: class_size(n, lam) for lam in partitions(n)}


def _group_id(n: int) -> str:
    return f"Sym({n})"


@lru_cache(maxsize=None)
def specht_character(mu: tuple) -> ClassFunction:
    """Character of the Specht module, one exact trace per cycle type."""
    n = sum(mu)
    values = {}
    for lam in partitions(n):
        rep = class_representative(n, lam)
        mat = specht_action(rep, mu)
        values[lam] = integer(sum(mat[i][i] for i in range(len(mat))))
    return ClassFunction(_group_id(n), values, sym_class_sizes(n),
                         (1,) * n)


@lru_cache(maxsize=None)
def permutation_character(mu: tuple) -> ClassFunction:
    """Character of the tabloid permutation module: fixed-tabloid counts."""
    n = sum(mu)
    tabloids = all_tabloids(mu)
    values = {}
    for lam in partitions(n):
        rep = class_representative(n, lam)
        values[lam] = sum(1 for tab in tabloids
                          if tab.apply(rep.images) == tab)
    return ClassFunction(_group_id(n), values, sym_class_sizes(n),
                         (1,) * n)


def sign_character(n: int) -> ClassFunction:
    values = {lam: (-1) ** (n - len(lam)) for lam in partitions(n)}
    return ClassFunction(_group_id(n), values, sym_class_sizes(n), (1,) * n)


def induce_young(chi1: ClassFunction, chi2: ClassFunction) -> ClassFunction:
    """Induce chi1 x chi2 from the Young subgroup Sym(k) x Sym(n-k) up to
    Sym(n), for class functions keyed by cycle type.  The value at nu sums
    z(nu) / (z(nu1) z(nu2)) chi1(nu1) chi2(nu2), z the centraliser order,
    over the distinct ways of splitting the cycles of nu into a cycle type
    nu1 of k and nu2 of n-k."""
    k = len(chi1.identity)
    n = k + len(chi2.identity)
    values = {}
    for nu in partitions(n):
        total = 0
        seen = set()
        for mask in range(1 << len(nu)):
            # a subsequence of nu is again sorted descending
            nu1 = tuple(p for i, p in enumerate(nu) if mask >> i & 1)
            if sum(nu1) != k or nu1 in seen:
                continue
            seen.add(nu1)
            nu2 = tuple(p for i, p in enumerate(nu) if not mask >> i & 1)
            total += (Fraction(centralizer_order(nu),
                               centralizer_order(nu1)
                               * centralizer_order(nu2))
                      * chi1.values[nu1] * chi2.values[nu2])
        values[nu] = integer(total)
    return ClassFunction(_group_id(n), values, sym_class_sizes(n), (1,) * n)


def restrict_character(chi: ClassFunction, n: int) -> ClassFunction:
    """Restrict from Sym(n) one step down to Sym(n-1)."""
    values = {}
    for lam in partitions(n - 1):
        extended = tuple(sorted(lam + (1,), reverse=True))
        values[lam] = chi.values[extended]
    return ClassFunction(_group_id(n - 1), values, sym_class_sizes(n - 1),
                         (1,) * (n - 1))


def verify_branching(mu: tuple) -> dict:
    """Check both branching directions for the Specht character of mu."""
    n = sum(mu)
    up = induce_young(specht_character(mu), specht_character((1,)))
    up_expected = None
    for node in sorted(addable_nodes(mu)):
        term = specht_character(add_node(mu, node))
        up_expected = term if up_expected is None else up_expected + term
    ok_up = up == up_expected
    ok_down = True
    if n > 1:
        down = restrict_character(specht_character(mu), n)
        down_expected = None
        for node in sorted(removable_nodes(mu)):
            term = specht_character(remove_node(mu, node))
            down_expected = (term if down_expected is None
                             else down_expected + term)
        ok_down = down == down_expected
    return {"mu": mu, "induction": ok_up, "restriction": ok_down,
            "pass": ok_up and ok_down}


def gram_matrix(mu: tuple):
    _, _, std, rows = standard_basis(mu)
    d = len(std)
    return [[sum(rows[i][k] * rows[j][k] for k in range(len(rows[0])))
             for j in range(d)] for i in range(d)]


def kappa_multiple_check(mu: tuple) -> bool:
    """For every tableau t of shape mu and every tabloid basis vector u,
    the signed column sum of t applied to u is a scalar multiple of e_t."""
    tabloids, index, std, _ = standard_basis(mu)
    from .combinat import all_tableaux
    for t in all_tableaux(mu):
        e = polytabloid(t)
        for u in tabloids:
            image = apply_kappa(t, {u: 1})
            if not image:
                continue
            if set(image) != set(e):
                return False
            ratios = {Fraction(image[k], e[k]) for k in e}
            if len(ratios) != 1:
                return False
    return True


def tabloid_adjacency_check(mu: tuple) -> bool:
    """For every tableau t of shape mu in which x-1 sits in a strictly
    lower row than x, no tabloid of shape mu lies strictly between the
    tabloid of t and the tabloid of t with x-1 and x swapped, in the
    m-count dominance order."""
    from .combinat import all_tableaux, tabloid_lt
    n = sum(mu)
    tabloids = all_tabloids(mu)
    for t in all_tableaux(mu):
        row = t.row_of()
        for x in range(2, n + 1):
            if row[x - 1] <= row[x]:
                continue
            swap = list(range(1, n + 1))
            swap[x - 2], swap[x - 1] = x, x - 1
            lower = t.tabloid()
            upper = t.tabloid().apply(swap)
            if not tabloid_lt(lower, upper):
                return False
            for mid in tabloids:
                if tabloid_lt(lower, mid) and tabloid_lt(mid, upper):
                    return False
    return True


def submodule_theorem_check(mu: tuple) -> dict:
    """Gram nonsingularity of the standard polytabloid basis plus the
    kappa-multiple property; together these give irreducibility over Q."""
    gram = gram_matrix(mu)
    det = det_exact(gram)
    kappa = kappa_multiple_check(mu)
    return {"mu": mu, "gram_det": det, "gram_nonsingular": det != 0,
            "kappa_multiple": kappa, "pass": det != 0 and kappa}


def sym_character_table(n: int):
    """Rows = Specht characters in lex-descending partition order, columns
    = cycle-type classes in the same order."""
    parts = partitions(n)
    return [[specht_character(mu).values[lam] for lam in parts]
            for mu in parts]


def character_table_rows(n: int):
    """(row labels, column labels, integer matrix).  Checks the
    group-order cap on n! before any Specht work."""
    check_group_order(f"Sym({n})", math.factorial(n))
    parts = partitions(n)
    return parts, parts, sym_character_table(n)
