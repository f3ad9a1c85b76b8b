import itertools
import math
from fractions import Fraction

from pshlab.combinat import Tableau, conjugate, partitions, standard_tableaux
from pshlab.groups import FiniteGroupTable
from pshlab.linalg import rank_exact
from pshlab.specht import (induce_young, kappa_multiple_check,
                           permutation_character, polytabloid,
                           restrict_character, sign_character, specht_action,
                           specht_character, specht_dim, standard_basis,
                           submodule_theorem_check, sym_character_table,
                           tabloid_adjacency_check, verify_branching)
from pshlab.symgroup import Perm


def test_dims_small():
    assert specht_dim((3,)) == 1
    assert specht_dim((1, 1, 1)) == 1
    assert specht_dim((2, 1)) == 2
    assert specht_dim((3, 2)) == 5
    assert specht_dim((2, 2, 1)) == 5


def test_dim_equals_rank_of_polytabloid_span():
    for n in range(1, 6):
        for mu in partitions(n):
            _, _, std, rows = standard_basis(mu)
            assert rank_exact([list(r) for r in rows]) == len(std)
            assert len(std) == len(standard_tableaux(mu))


def test_sum_of_squares():
    for n in range(1, 7):
        assert sum(specht_dim(mu) ** 2 for mu in partitions(n)) \
            == math.factorial(n)


def test_polytabloid_example():
    t = Tableau(((1, 2), (3,)))
    e = polytabloid(t)
    # signed column sum over swapping 1 and 3
    assert sum(abs(v) for v in e.values()) == 2
    assert set(e.values()) == {1, -1}


def test_action_is_representation():
    mu = (2, 2)
    perms = [Perm(p) for p in
             __import__("itertools").permutations(range(1, 5))]
    for a in perms[:8]:
        for b in perms[:8]:
            ma = specht_action(a, mu)
            mb = specht_action(b, mu)
            mab = specht_action(a * b, mu)
            d = len(ma)
            prod = [[sum(ma[i][k] * mb[k][j] for k in range(d))
                     for j in range(d)] for i in range(d)]
            assert prod == mab


def test_character_table_sym3():
    assert sym_character_table(3) == [[1, 1, 1], [-1, 0, 2], [1, -1, 1]]


def test_orthonormality():
    for n in range(1, 6):
        chars = {mu: specht_character(mu) for mu in partitions(n)}
        for lam, c1 in chars.items():
            for mu, c2 in chars.items():
                assert c1.inner(c2) == (1 if lam == mu else 0)


def test_sign_conjugate():
    for n in range(1, 6):
        sgn = sign_character(n)
        for mu in partitions(n):
            assert specht_character(conjugate(mu)) \
                == specht_character(mu) * sgn


def test_permutation_character_contains_trivial():
    for mu in partitions(4):
        perm = permutation_character(mu)
        assert perm.inner(specht_character((4,))) >= 1
        assert perm.inner(specht_character(mu)) == 1


def test_branching():
    for n in range(1, 5):
        for mu in partitions(n):
            assert verify_branching(mu)["pass"]


def test_induce_restrict_adjoint():
    # Frobenius reciprocity across one level
    for mu in partitions(3):
        for lam in partitions(4):
            up = induce_young(specht_character(mu), specht_character((1,)))
            down = restrict_character(specht_character(lam), 4)
            assert up.inner(specht_character(lam)) \
                == specht_character(mu).inner(down)


def test_structure_checks():
    for n in range(1, 5):
        for mu in partitions(n):
            assert kappa_multiple_check(mu)
            assert tabloid_adjacency_check(mu)
            report = submodule_theorem_check(mu)
            assert report["pass"]
            assert report["gram_det"] != 0


def test_gram_det_positive():
    from pshlab.specht import gram_matrix
    from pshlab.linalg import det_exact
    for mu in partitions(4):
        assert det_exact(gram_matrix(mu)) > 0


def test_induce_young_matches_table_induction():
    # the Young-subgroup formula against class-sum induction from
    # Sym(k) x Sym(n-k) on a Sym(n) group table
    for n in range(2, 6):
        perms = [Perm(p) for p in itertools.permutations(range(1, n + 1))]
        G = FiniteGroupTable(f"S{n}", perms, lambda a, b: a * b,
                             lambda a: a.inv(), Perm.identity(n))
        for k in range(1, n):
            young = [i for i, s in enumerate(G.elements)
                     if all(s(x) <= k for x in range(1, k + 1))]
            assert len(young) == math.factorial(k) * math.factorial(n - k)
            for lam in partitions(k):
                for mu in partitions(n - k):
                    chi1, chi2 = specht_character(lam), specht_character(mu)
                    on_young = {}
                    for i in young:
                        images = G.elements[i].images
                        top = Perm(images[:k]).cycle_type()
                        bottom = Perm(tuple(x - k for x in images[k:]))
                        on_young[i] = (chi1.values[top]
                                       * chi2.values[bottom.cycle_type()])
                    by_table = G.induced_character(young, on_young)
                    by_formula = induce_young(chi1, chi2)
                    for label, members in enumerate(G.classes()):
                        ctype = G.elements[members[0]].cycle_type()
                        assert by_formula.values[ctype] \
                            == by_table.values[label], (lam, mu, ctype)
