import itertools

import pytest

from pshlab import symgroup
from pshlab.symgroup import (KMatrix, Perm, cycles_of, kmatrix_of,
                             kmatrix_solutions, sign_of, w_of_kmatrix,
                             young_double_coset_check)


def young_subgroup(m: int, a: int) -> list[Perm]:
    """Sigma({1..a}) x Sigma({a+1..m}) as explicit permutations."""
    out = []
    for p in itertools.permutations(range(1, a + 1)):
        for s in itertools.permutations(range(a + 1, m + 1)):
            out.append(Perm(p + s))
    return out


def test_perm_basics():
    a = Perm((2, 3, 1))
    b = Perm((2, 1, 3))
    assert (a * b)(1) == a(b(1))
    assert (a * b).images == tuple(a(b(x)) for x in (1, 2, 3))
    assert a * a.inv() == Perm.identity(3)
    assert Perm.from_cycles(5, [(1, 2, 4)]).images == (2, 4, 3, 1, 5)


def test_cycle_data():
    g = Perm.from_cycles(7, [(1, 2, 4, 5), (3, 6, 7)])
    assert g.cycle_type() == (4, 3)
    assert sign_of(g.images) == (-1) ** (3 + 2)
    assert cycles_of(g.images) == [(1, 2, 4, 5), (3, 6, 7)]
    assert Perm.identity(4).cycle_type() == (1, 1, 1, 1)


def test_sign_multiplicative():
    perms = [Perm(p) for p in itertools.permutations(range(1, 5))]
    for a in perms[:8]:
        for b in perms[:8]:
            assert sign_of((a * b).images) \
                == sign_of(a.images) * sign_of(b.images)


def test_kmatrix_solution_counts():
    assert len(kmatrix_solutions(1, 1, 2)) == 2
    assert len(kmatrix_solutions(0, 2, 3)) == 1
    # constraint rows and columns
    for k in kmatrix_solutions(2, 3, 5):
        assert k.k11 + k.k12 == 3
        assert k.k21 + k.k22 == 2
        assert k.k11 + k.k21 == 2
        assert k.k12 + k.k22 == 3


def test_block_example_representative():
    k = KMatrix(1, 3, 2, 1)
    w = w_of_kmatrix(k, 3, 4, 7)
    assert w.images == (1, 4, 5, 6, 2, 3, 7)
    # the matrix with column j supported in row w(j)
    mat = tuple(tuple(1 if w(j + 1) == i + 1 else 0 for j in range(7))
                for i in range(7))
    assert mat == ((1, 0, 0, 0, 0, 0, 0),
                   (0, 0, 0, 0, 1, 0, 0),
                   (0, 0, 0, 0, 0, 1, 0),
                   (0, 1, 0, 0, 0, 0, 0),
                   (0, 0, 1, 0, 0, 0, 0),
                   (0, 0, 0, 1, 0, 0, 0),
                   (0, 0, 0, 0, 0, 0, 1))
    assert kmatrix_of(w, 3, 4, 7) == k


def test_representatives_fixed_points():
    for m in range(1, 6):
        for a in range(m + 1):
            for alpha in range(m + 1):
                for k in kmatrix_solutions(a, alpha, m):
                    w = w_of_kmatrix(k, a, alpha, m)
                    assert kmatrix_of(w, a, alpha, m) == k


def test_kmatrix_separates_double_cosets():
    m = 5
    for a in range(m + 1):
        for alpha in range(m + 1):
            left = young_subgroup(m, a)
            right = young_subgroup(m, alpha)
            sols = set(kmatrix_solutions(a, alpha, m))
            # the invariant is constant on double cosets and hits every
            # solution exactly once over a full set of representatives
            reps = {}
            for images in itertools.permutations(range(1, m + 1)):
                g = Perm(images)
                k = kmatrix_of(g, a, alpha, m)
                assert k in sols
                reps.setdefault(k, g)
            assert set(reps) == sols
            for k, g in reps.items():
                w = w_of_kmatrix(k, a, alpha, m)
                coset = {(u * w * h).images for u in left for h in right}
                assert g.images in coset


def test_young_double_coset_check():
    for m in range(1, 6):
        assert young_double_coset_check(m) == {
            "check": "young-double-cosets", "m": m, "pass": True}


def test_young_double_coset_check_respects_group_order_cap(monkeypatch):
    # |Sym(4)| = 24 is over the cap: no permutation is enumerated
    monkeypatch.setenv("PSHLAB_MAX_GROUP_ORDER", "10")
    with pytest.raises(ResourceWarning):
        young_double_coset_check(4)
    assert young_double_coset_check(3)["pass"]


def test_young_double_coset_check_sees_a_wrong_representative(monkeypatch):
    # every w(k) the identity: its invariant is k only for the one k of
    # the identity's double coset
    monkeypatch.setattr(symgroup, "w_of_kmatrix",
                        lambda k, a, alpha, m: Perm.identity(m))
    assert young_double_coset_check(3)["pass"] is False
