"""End-to-end acceptance checks against frozen oracles.

Every check here uses exact arithmetic; numeric values are frozen
literals computed independently of the code under test.
"""

import functools
import itertools
import json
import subprocess
import sys
import time

from pshlab.combinat import (all_tableaux, combinatorial_lemma_check,
                             conjugate, dominates, partitions,
                             standard_tableaux)
from pshlab.glfq import (gl_group, hasse_davenport_check, permutation_matrix,
                         verify_bruhat_bijection, verify_kondo_induction,
                         verify_kondo_multiplicative, weil_identity_check,
                         weil_theta_exponents)
from pshlab.hyperhecke import (verify_apply_faithful, verify_associativity,
                               verify_hopflike, verify_normal_form)
from pshlab.invariants import (verify_mezzadri, wreath_counterexample_report,
                               wreath_theorem_check)
from pshlab.linalg import rank_exact
from pshlab.psh import (gl_instance, symmetric_instance,
                        verify_cocommutativity, verify_hopf,
                        verify_positivity, verify_self_adjoint,
                        wreath_instance)
from pshlab.specht import (character_table_rows, kappa_multiple_check,
                           sign_character, specht_character, standard_basis,
                           tabloid_adjacency_check, verify_branching)
from pshlab.symgroup import (KMatrix, Perm, kmatrix_of, kmatrix_solutions,
                             w_of_kmatrix)

SYM5_TABLE = [
    [1, 1, 1, 1, 1, 1, 1],
    [-1, 0, -1, 1, 0, 2, 4],
    [0, -1, 1, -1, 1, 1, 5],
    [1, 0, 0, 0, -2, 0, 6],
    [0, 1, -1, -1, 1, -1, 5],
    [-1, 0, 1, 1, 0, -2, 4],
    [1, -1, -1, 1, 1, -1, 1],
]


def test_criterion_1_sym5_table():
    start = time.monotonic()
    rows, cols, table = character_table_rows(5)
    elapsed = time.monotonic() - start
    assert rows == cols == partitions(5)
    assert table == SYM5_TABLE
    assert sum(len(r) for r in table) == 49
    assert elapsed < 1.0
    # same 49 entries through the command-line entry point
    proc = subprocess.run([sys.executable, "-m", "pshlab.cli", "chartable",
                           "Sym(5)", "--json"], capture_output=True,
                          text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["table"] == SYM5_TABLE


def test_criterion_2_dimension_polynomials():
    start = time.monotonic()
    for n in range(1, 7):
        report = verify_mezzadri(n)
        assert report["pass"], report
        assert all(c["match"] for c in report["per_partition"])
    assert time.monotonic() - start < 60.0


def test_criterion_3_psh_axioms():
    instances = [symmetric_instance(6), wreath_instance("C2", 3),
                 gl_instance(2, 2), gl_instance(3, 2)]
    for R in instances:
        for check in (verify_self_adjoint, verify_hopf, verify_positivity,
                      verify_cocommutativity):
            report = check(R)
            assert report["pass"], (R.name, report)
            assert report["cases"] > 0


def test_criterion_4a_gauss_induction_invariance():
    for q in (2, 3):
        report = verify_kondo_induction(2, q)
        assert report["pass"], report
        assert report["cases"] > 0
        assert not report["failures"]


def test_criterion_4b_weil_identity():
    for j in weil_theta_exponents(3):
        report = weil_identity_check(3, j)
        assert report["pass"], report
        assert report["lhs"] == report["rhs"]


def test_criterion_4c_gauss_multiplicativity():
    for q in (2, 3):
        report = verify_kondo_multiplicative(q)
        assert report["pass"], report
        assert report["cases"] > 0


def test_criterion_5_norm_lift_gauss_sums():
    for p, m in ((3, 2), (5, 2), (3, 3)):
        report = hasse_davenport_check(p, m)
        assert report["pass"], report
        assert report["characters"] == p - 1


def test_criterion_6_parabolic_double_cosets():
    for q in (2, 3):
        for m in range(1, 4):
            for a in range(m + 1):
                for alpha in range(m + 1):
                    report = verify_bruhat_bijection(a, alpha, m, q)
                    assert report["pass"], report


@functools.lru_cache(maxsize=None)
def _adjacent_moves(m):
    """For each i < m, the moves of Sym(m), listed as the image tuples of
    itertools.permutations, by the transposition (i, i+1): on the left it
    swaps the values i and i+1 of an image tuple, on the right the
    positions i and i+1.  Returns m!, the left moves and the right moves,
    each a dict i -> list sending a tuple's position in the listing to its
    image's."""
    perms = list(itertools.permutations(range(1, m + 1)))
    index = {p: k for k, p in enumerate(perms)}
    left, right = {}, {}
    for i in range(1, m):
        swap = {i: i + 1, i + 1: i}
        left[i] = [index[tuple(swap.get(v, v) for v in p)] for p in perms]
        right[i] = [index[p[:i - 1] + (p[i], p[i - 1]) + p[i + 1:]]
                    for p in perms]
    return len(perms), left, right


def _young_coset_count(m, a, alpha):
    """Independent double-coset count by orbit search over all of Sym(m),
    using adjacent-transposition generators of the two Young subgroups."""
    order, left, right = _adjacent_moves(m)
    moves = ([left[i] for i in range(1, m) if i + 1 <= a or i > a]
             + [right[i] for i in range(1, m) if i + 1 <= alpha or i > alpha])
    seen = [False] * order
    count = 0
    for start in range(order):
        if seen[start]:
            continue
        count += 1
        stack = [start]
        seen[start] = True
        while stack:
            x = stack.pop()
            for move in moves:
                y = move[x]
                if not seen[y]:
                    seen[y] = True
                    stack.append(y)
    return count


def test_criterion_6_young_exhaustive():
    for m in range(1, 8):
        for a in range(m + 1):
            for alpha in range(m + 1):
                assert _young_coset_count(m, a, alpha) == \
                    len(kmatrix_solutions(a, alpha, m)), (m, a, alpha)


def test_criterion_6_block_matrix_example():
    k = KMatrix(1, 3, 2, 1)
    w = w_of_kmatrix(k, 3, 4, 7)
    assert w.images == (1, 4, 5, 6, 2, 3, 7)
    from pshlab.glfq import build_field
    mat = permutation_matrix(build_field(2), w)
    assert mat == ((1, 0, 0, 0, 0, 0, 0),
                   (0, 0, 0, 0, 1, 0, 0),
                   (0, 0, 0, 0, 0, 1, 0),
                   (0, 1, 0, 0, 0, 0, 0),
                   (0, 0, 1, 0, 0, 0, 0),
                   (0, 0, 0, 1, 0, 0, 0),
                   (0, 0, 0, 0, 0, 0, 1))
    assert kmatrix_of(w, 3, 4, 7) == k


def test_criterion_7_module_dimensions():
    for n in range(1, 8):
        for mu in partitions(n):
            std, _, basis, _ = standard_basis(mu)
            keys = sorted({k for e in basis for k in e})
            rows = [[e.get(k, 0) for k in keys] for e in basis]
            assert rank_exact(rows) == len(std)
            assert len(std) == len(standard_tableaux(mu))


def test_criterion_7_branching():
    for n in range(1, 6):
        for mu in partitions(n):
            report = verify_branching(mu)
            assert report["pass"], report


def test_criterion_7_orthonormality():
    for n in range(1, 7):
        chars = [specht_character(mu) for mu in partitions(n)]
        for i, c1 in enumerate(chars):
            for j, c2 in enumerate(chars):
                assert c1.inner(c2) == (1 if i == j else 0)


def test_criterion_7_sign_conjugate():
    for n in range(1, 7):
        sgn = sign_character(n)
        for mu in partitions(n):
            assert specht_character(conjugate(mu)) \
                == specht_character(mu) * sgn


def test_criterion_7_lemmas_exhaustive():
    for n in range(1, 6):
        for lam in partitions(n):
            for mu in partitions(n):
                mu_tableaux = all_tableaux(mu)
                for t1 in all_tableaux(lam):
                    column_of = t1.column_of()
                    for t2 in mu_tableaux:
                        if combinatorial_lemma_check(column_of, t2):
                            assert dominates(lam, mu)
    for n in range(1, 6):
        for mu in partitions(n):
            assert kappa_multiple_check(mu)
            assert tabloid_adjacency_check(mu)


def test_criterion_8_wreath_counterexample():
    report = wreath_counterexample_report(3)
    assert report["pass"], report
    assert report["some_character_differs"]
    for case in report["per_character"]:
        assert case["expansion_small"]
        assert case["expansion_induced"]
        assert case["definition_route_invariant"]
    assert any(case["invariance_fails"]
               for case in report["per_character"])


def test_criterion_9_wreath_invariant_formula():
    for n in (1, 2, 3):
        report = wreath_theorem_check(n, 3)
        assert report["pass"], report
        assert all(c["match"] for c in report["per_partition"])


def test_criterion_10_hecke_reports():
    G2 = gl_group(2, 2)
    assert verify_normal_form(G2)["pass"]
    assert verify_associativity(G2)["pass"]
    assert verify_apply_faithful(G2)["pass"]
    G3 = gl_group(2, 3)
    assert verify_normal_form(G3)["pass"]
    assert verify_associativity(G3)["pass"]
    assert verify_apply_faithful(G3)["pass"]


def test_criterion_10_coproduct_compatibility_findings():
    report = verify_hopflike(2, 2)
    # exploratory: equality of the two routes is recorded, never asserted
    assert report["pass"]
    assert report["generator_pairs"] >= 1
    assert len(report["findings"]) == report["generator_pairs"]
    for finding in report["findings"]:
        assert isinstance(finding["equal"], bool)
        assert "route1" in finding and "route2" in finding
