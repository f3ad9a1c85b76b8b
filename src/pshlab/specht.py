"""Permutation modules on tabloids, polytabloids, and their exact
linear algebra: standard bases, matrix actions, characters and branching.

Vectors in the tabloid module M^mu are finitely supported dicts from
tabloid keys (``Tabloid.key``, the row of each entry) to ints, and a
Specht module is held only in that sparse form: its standard
polytabloids, built once per shape by ``standard_basis``.  The tabloid
basis is orthonormal for the invariant bilinear form, so inner products
are sparse dot products.  A permutation moves a key through
``combinat._mover`` and nothing else.  Dimensions come from hook lengths,
Young induction from binomial weights, and the adjacency scan reads only
a window of m-count sums: none of the three enumerates tableaux or masks.
"""

from __future__ import annotations

import itertools
import math
import operator
from bisect import bisect_left, bisect_right
from functools import lru_cache

from .chars import ClassFunction
from .combinat import (Tableau, _mover, addable_nodes, add_node,
                       all_tableaux, all_tabloids, conjugate, partitions,
                       remove_node, removable_nodes, standard_tableaux,
                       tabloid_m_counts)
from .cyclo import integer
from .groups import check_group_order
from .linalg import det_exact
from .symgroup import Perm, class_representative, class_size, sign_of

__all__ = ["check_sym_order", "apply_kappa",
           "standard_basis", "specht_dim", "specht_action",
           "specht_character", "sym_class_sizes",
           "sym_character_table", "induce_young", "restrict_character",
           "verify_branching", "submodule_theorem_check",
           "kappa_multiple_check", "tabloid_adjacency_check",
           "character_table_rows"]


def check_sym_order(n: int) -> None:
    """Check the group-order cap on n!; every Specht and tabloid entry
    point calls it before it enumerates anything of Sym(n)."""
    check_group_order(_group_id(n), math.factorial(n))


@lru_cache(maxsize=None)
def _arrangement_signs(length: int) -> tuple:
    """The sign of each arrangement of a column of this length, in
    itertools.permutations order: it depends only on the positions
    permuted."""
    return tuple(sign_of(tuple(p + 1 for p in perm))
                 for perm in itertools.permutations(range(length)))


def _column_stabilizer(t: Tableau) -> list:
    """The column stabilizer of t as (move, sign) pairs (see
    combinat._mover), built from the arrangements of each column, signed
    from one table per column length."""
    per_col = [[(col, arr, sign) for arr, sign in zip(
                    itertools.permutations(col), _arrangement_signs(len(col)))]
               for col in t.columns()]
    out = []
    for combo in itertools.product(*per_col):
        inverse = list(range(t.n))
        sign = 1
        for col, arr, s in combo:
            sign *= s
            for c, a in zip(col, arr):  # the element sends c to a
                inverse[a - 1] = c - 1
        out.append((_mover(inverse), sign))
    return out


def apply_kappa(stabilizer: list, vec: dict) -> dict:
    """Apply the signed column sum of a tableau, given as its
    (move, sign) pairs, to a vector of tabloid keys."""
    out: dict = {}
    for key, c in vec.items():
        for move, sign in stabilizer:
            moved = move(key)
            out[moved] = out.get(moved, 0) + sign * c
    return {k: v for k, v in out.items() if v}


@lru_cache(maxsize=None)
def standard_basis(mu: tuple):
    """(std, heads, basis, below) for S^mu: the standard tableaux t_i,
    the key heads[i] of t_i's tabloid, the polytabloid basis[i] = e_{t_i}
    as a dict from tabloid key to int, and below[i], the pairs
    (k, basis[i][heads[k]]) for the k < i where that is nonzero.

    The standard tableaux come in ascending order of the sum of their
    tabloids' m-counts, a linear extension of dominance.  The coordinates
    at the heads then form a unitriangular matrix: e_{t_i} has 1 at its
    own head and no later head in its support, which is checked and
    proves the polytabloids independent."""
    check_sym_order(sum(mu))
    std = sorted(standard_tableaux(mu),
                 key=lambda t: sum(tabloid_m_counts(t.tabloid())))
    heads = [t.tabloid().key for t in std]
    basis = [apply_kappa(_column_stabilizer(t), {h: 1})
             for t, h in zip(std, heads)]
    below = []
    for i, e in enumerate(basis):
        hits = [(k, e[h]) for k, h in enumerate(heads) if h in e]
        if hits[-1:] != [(i, 1)]:
            raise AssertionError(
                f"standard polytabloids of {mu} are not unitriangular on "
                f"the standard tabloids at {std[i]}")
        below.append(hits[:-1])
    return std, heads, basis, below


def specht_dim(mu: tuple) -> int:
    """Standard tableaux of shape mu, counted by the hook length formula."""
    cols = conjugate(mu)
    return math.factorial(sum(mu)) // math.prod(
        p - j + cols[j] - i - 1 for i, p in enumerate(mu) for j in range(p))


def specht_action(sigma: Perm, mu: tuple):
    """Matrix of sigma on the standard polytabloid basis: column j holds
    the coordinates of sigma . e_{t_j}.

    The coordinates x of a vector v of S^mu solve v = sum_i x_i e_{t_i}
    at the standard tabloids, a unitriangular system, by integer
    back-substitution; the sum is then rebuilt on every tabloid and
    compared with v, which checks that v lies in the span."""
    _, heads, basis, below = standard_basis(mu)
    move = _mover([y - 1 for y in sigma.inv().images])
    columns = []
    for e in basis:
        image = {move(key): c for key, c in e.items()}
        x = [image.get(h, 0) for h in heads]
        for i in reversed(range(len(x))):
            if x[i]:
                for k, c in below[i]:
                    x[k] -= x[i] * c
        span: dict = {}
        for xi, e_i in zip(x, basis):
            if xi:
                for key, c in e_i.items():
                    span[key] = span.get(key, 0) + xi * c
        if {k: v for k, v in span.items() if v} != image:
            raise AssertionError(
                f"action of {sigma} does not preserve the span for {mu}")
        columns.append(x)
    return [list(row) for row in zip(*columns)]


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


def sign_character(n: int) -> ClassFunction:
    values = {lam: (-1) ** (n - len(lam)) for lam in partitions(n)}
    return ClassFunction(_group_id(n), values, sym_class_sizes(n), (1,) * n)


def induce_young(chi1: ClassFunction, chi2: ClassFunction) -> ClassFunction:
    """Induce chi1 x chi2 from the Young subgroup Sym(k) x Sym(n-k) up to
    Sym(n), for class functions keyed by cycle type.  The value at nu sums
    z(nu) / (z(nu1) z(nu2)) chi1(nu1) chi2(nu2), z the centraliser order,
    over the distinct splits of the cycles of nu into a cycle type nu1 of
    k and nu2 of n-k.  A split takes p_i of the m_i cycles of each length
    i, and the ratio of centraliser orders is the integer prod C(m_i, p_i)."""
    k = len(chi1.identity)
    n = k + len(chi2.identity)
    values = {}
    for nu in partitions(n):
        mult = [(i, len(list(g))) for i, g in itertools.groupby(nu)]
        total = 0
        for picks in itertools.product(*(range(m + 1) for _, m in mult)):
            if sum(i * p for (i, _), p in zip(mult, picks)) != k:
                continue
            nu1 = tuple(i for (i, _), p in zip(mult, picks) for _ in range(p))
            nu2 = tuple(i for (i, m), p in zip(mult, picks)
                        for _ in range(m - p))
            total += (math.prod(map(math.comb, (m for _, m in mult), picks))
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
    _, _, basis, _ = standard_basis(mu)
    return [[sum(c * f.get(k, 0) for k, c in e.items()) for f in basis]
            for e in basis]


def kappa_multiple_check(mu: tuple) -> bool:
    """For every tableau t of shape mu and every tabloid basis vector u,
    the signed column sum kappa_t applied to u is a scalar multiple of e_t
    (James's Lemma 4.6).

    kappa_t depends on t only through its column sets, so the tableaux are
    grouped by them and each class's column stabilizer is built once and
    applied once to every tabloid.  Every member t' of a class has its own
    e_{t'} = kappa_t{t'} among those images; each must be nonzero, and
    every nonzero image must be proportional to the first one.
    Proportionality among nonzero vectors is an equivalence relation, so
    this is the statement for every pair (t', u), one class at a time."""
    check_sym_order(sum(mu))
    keys = [tab.key for tab in all_tabloids(mu)]
    classes: dict = {}
    for t in all_tableaux(mu):
        classes.setdefault(frozenset(map(frozenset, t.columns())),
                           []).append(t)
    for members in classes.values():
        stabilizer = _column_stabilizer(members[0])
        own = {t.tabloid().key for t in members}
        e = None
        for u in keys:
            image = apply_kappa(stabilizer, {u: 1})
            if not image:
                if u in own:
                    return False
                continue
            if e is None:
                e = image
                k0, e0 = next(iter(e.items()))
            # image = c e iff image * e[k0] = image[k0] * e
            elif image.keys() != e.keys() or (
                    {k: v * e0 for k, v in image.items()}
                    != {k: image[k0] * c for k, c in e.items()}):
                return False
    return True


def tabloid_adjacency_check(mu: tuple) -> bool:
    """For every tableau t of shape mu in which x-1 sits in a strictly
    lower row than x, no tabloid of shape mu lies strictly between the
    tabloid of t and the tabloid of t with x-1 and x swapped, in the
    m-count dominance order.

    Both the condition and the swapped tabloid read t only through its
    tabloid, and every tabloid of shape mu is the tabloid of some
    tableau, so the sweep runs once per tabloid.  Each tabloid's m-count
    vector is computed once.  For integer vectors, a <= b componentwise
    with a != b forces sum(a) < sum(b), so for any count function each mid
    between lower and upper lies in the bisect window of the vectors
    ranked by sum that sum strictly between theirs: the scan reads only it."""
    n = sum(mu)
    check_sym_order(n)
    counts = {tab.key: tabloid_m_counts(tab) for tab in all_tabloids(mu)}
    ranked = sorted(counts.values(), key=sum)
    sums = list(map(sum, ranked))
    # swaps[x - 1] moves a key by the transposition of x and x+1
    swaps = [_mover([*range(x - 1), x, x - 1, *range(x + 1, n)])
             for x in range(1, n)]

    def below(a, b):
        return a != b and all(map(operator.le, a, b))

    for key, lower in counts.items():
        for x in range(1, n):
            # 0-based points x-1 and x are the entries x and x+1
            if key[x - 1] <= key[x]:
                continue
            upper = counts[swaps[x - 1](key)]
            if not below(lower, upper):
                return False
            window = ranked[bisect_right(sums, sum(lower)):
                            bisect_left(sums, sum(upper))]
            if any(below(lower, mid) and below(mid, upper) for mid in window):
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
    check_sym_order(n)
    parts = partitions(n)
    return parts, parts, sym_character_table(n)
