from fractions import Fraction

import pytest

from pshlab.chars import elementwise
from pshlab.glfq import verify_kondo_induction
from pshlab.groups import FiniteGroupTable
from pshlab.invariants import (Poly, X, f_lambda,
                               verify_induction_invariance, verify_mezzadri,
                               verify_psh_multiplicativity, w_x_sym,
                               wreath_counterexample_report,
                               wreath_theorem_check)
from pshlab.specht import specht_character
from pshlab.symgroup import Perm


def degree(p):
    """The degree of a Poly, -1 for zero: coefficients are stored with no
    trailing zeros."""
    return len(p.coeffs) - 1


def test_poly_arithmetic():
    p = Poly([1, 2])       # 1 + 2x
    q = Poly([0, 0, 1])    # x^2
    assert p + q == Poly([1, 2, 1])
    assert p * p == Poly([1, 4, 4])
    assert (p - p) == Poly()
    assert p.scale(Fraction(1, 2)) == Poly([Fraction(1, 2), 1])
    assert q.x_scale(2) == Poly([0, 0, 4])
    assert Poly([0, 1]).negate_x() == Poly([0, -1])
    assert X == Poly([0, 1])
    assert degree(Poly([1, 2])) == 1 and degree(Poly([0, 0])) == -1


def test_poly_pretty_and_json():
    assert f_lambda((2, 1)).pretty() == "x^3 - x"
    assert Poly([0, 1]).to_json() == [["0", "1"], ["1", "1"]]
    approx = Poly([1, 1]).approx()
    assert approx[0] == 1.0 and approx[1] == 1.0


def test_psi_x():
    # the w_x measure x^(number of cycles) at one element h: the invariant
    # of the point mass on the cycle type of h
    for h, expected in ((Perm.identity(3), Poly([0, 0, 0, 1])),
                        (Perm.from_cycles(3, [(1, 2, 3)]), Poly([0, 1]))):
        point = elementwise("Sym(3)", {h.cycle_type(): 1}, h.cycle_type())
        assert w_x_sym(point) == expected


def test_f_lambda_oracles():
    assert f_lambda((2, 1)) == Poly([0, -1, 0, 1])          # x^3 - x
    assert f_lambda((3,)) == Poly([0, 2, 3, 1])             # x(x+1)(x+2)
    assert f_lambda((1, 1, 1)) == Poly([0, 2, -3, 1])       # x(x-1)(x-2)
    assert f_lambda((3, 2)) == Poly([0, 0, -2, -1, 2, 1])


def test_w_x_matches_f_lambda():
    for n in range(1, 5):
        report = verify_mezzadri(n)
        assert report["pass"], report
    assert w_x_sym(specht_character((2, 1))) == Poly([0, -1, 0, 1])


def test_w_x_trivial_character():
    # trivial character of the two-element subgroup {e, (12)} in degree 2;
    # the normalization divides by the dimension, not the subgroup order
    elems = [Perm.identity(2), Perm.from_cycles(2, [(1, 2)])]
    chi = elementwise("Sym(2)", {h.cycle_type(): 1 for h in elems}, (1, 1))
    assert w_x_sym(chi) == Poly([0, 1, 1])


def test_induction_invariance():
    assert verify_induction_invariance(3)["pass"]


def test_induction_checks_fail_on_a_wrong_class_reading(monkeypatch):
    # every class reads the measure at the identity: both sides still
    # agree for any class-function measure, so only this kind of defect,
    # in induction or in the class reading, can make the checks fail
    monkeypatch.setattr(FiniteGroupTable, "class_measure",
                        lambda self, fn: lambda label: fn(self.identity_idx))
    for report in (verify_kondo_induction(2, 2),
                   verify_induction_invariance(3)):
        assert not report["pass"]
        assert report["failures"] and set(report["failures"][0]) == {
            "generator", "character"}


def test_induction_invariance_respects_group_order_cap(monkeypatch):
    # |Sym(4)| = 24 is over the cap, checked before any permutation is built
    monkeypatch.setenv("PSHLAB_MAX_GROUP_ORDER", "10")
    with pytest.raises(ResourceWarning):
        verify_induction_invariance(4)


def test_psh_multiplicativity():
    report = verify_psh_multiplicativity(1, 3)
    assert report["pass"], report


def test_wreath_theorem_small():
    for n in (1, 2):
        report = wreath_theorem_check(n)
        assert report["pass"], report


def test_wreath_counterexample():
    report = wreath_counterexample_report()
    assert report["pass"]
    assert report["some_character_differs"]
