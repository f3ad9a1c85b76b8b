import pytest

from pshlab.psh import (PshElement, PshStructure, decompose, gl_instance,
                        primitives, psh_inner, symmetric_instance, verify_cocommutativity,
                        verify_fibred_grading, verify_hopf, verify_positivity,
                        verify_self_adjoint, wreath_instance)


def _all_verifiers(R):
    for check in (verify_self_adjoint, verify_hopf, verify_positivity,
                  verify_cocommutativity):
        report = check(R)
        assert report["pass"], report
        assert report["cases"] > 0


def test_symmetric_axioms():
    _all_verifiers(symmetric_instance(4))


def test_symmetric_pieri_square():
    R = symmetric_instance(4)
    x = PshElement.basis(1, (1,))
    prod = R.product_elem(x, x)
    assert prod == PshElement({(2, (2,)): 1, (2, (1, 1)): 1})


def test_symmetric_coproduct_hook():
    R = symmetric_instance(4)
    cop = R.coproduct(3, (2, 1))
    assert cop[((1, (1,)), (2, (2,)))] == 1
    assert cop[((1, (1,)), (2, (1, 1)))] == 1
    assert cop[((2, (2,)), (1, (1,)))] == 1
    assert cop[((2, (1, 1)), (1, (1,)))] == 1
    assert all(v > 0 for v in cop.values())


def test_symmetric_primitives():
    R = symmetric_instance(4)
    assert primitives(R, 1) == [(1,)]
    assert primitives(R, 2) == []
    dec = decompose(R)
    assert not dec["unresolved"]
    # one primitive generates everything
    assert set(dec["blocks"]) == {(1, (1,))}


def test_inner_product():
    x = PshElement({(2, "a"): 2, (2, "b"): 1})
    y = PshElement({(2, "a"): 3})
    assert psh_inner(x, y) == 6


def test_wreath_axioms():
    _all_verifiers(wreath_instance("C2", 2))


def test_gl_axioms():
    _all_verifiers(gl_instance(2, 2))
    _all_verifiers(gl_instance(3, 2))


def test_gl_has_cuspidal_generators():
    R = gl_instance(2, 2)
    assert primitives(R, 1)
    assert primitives(R, 2)


def test_fibred_grading():
    report = verify_fibred_grading(3)
    assert report["pass"], report


# negative controls: a defect planted in one route of a fresh structure
# (not the cached instance) must fail verify_self_adjoint at its case

PLANTED = [(symmetric_instance, (3,), (1, (1,)), (2, (2,)), (3, (2, 1))),
           (gl_instance, (3, 2), (1, 0), (1, 1), (2, 7))]


def _fresh(R, induce=None, restrict=None):
    return PshStructure("planted", R.maxdeg, R.irreducibles,
                        induce or R.induce, restrict or R.restrict)


def _only_failure(report, x, y, z):
    assert not report["pass"]
    assert [(f["x"], f["y"], f["z"]) for f in report["failures"]] == [(x, y, z)]
    assert report["failures"][0]["lhs"] != report["failures"][0]["rhs"]


@pytest.mark.parametrize("instance,args,x,y,z", PLANTED)
def test_planted_restriction_fails_self_adjoint(instance, args, x, y, z):
    R = instance(*args)
    (a, la), (b, lb), (n, lz) = x, y, z
    alpha, beta = R.irreducibles(a)[la], R.irreducibles(b)[lb]

    def restrict(m, chi, k):
        table = R.restrict(m, chi, k)
        if (m, k) == (n, a) and chi == R.irreducibles(n)[lz]:
            # an extra alpha x beta in the restriction of z
            table = {(u, v): val + alpha.values[u] * beta.values[v]
                     for (u, v), val in table.items()}
        return table

    assert verify_self_adjoint(_fresh(R))["pass"]
    _only_failure(verify_self_adjoint(_fresh(R, restrict=restrict)), x, y, z)


@pytest.mark.parametrize("instance,args,x,y,z", PLANTED)
def test_planted_induction_fails_self_adjoint(instance, args, x, y, z):
    R = instance(*args)
    (a, la), (b, lb), (n, lz) = x, y, z
    alpha, beta = R.irreducibles(a)[la], R.irreducibles(b)[lb]

    def induce(da, chi, db, psi):
        out = R.induce(da, chi, db, psi)
        if (da, db) == (a, b) and chi == alpha and psi == beta:
            out = out + R.irreducibles(n)[lz]  # an extra z in x y
        return out

    _only_failure(verify_self_adjoint(_fresh(R, induce=induce)), x, y, z)
