import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pshlab.linalg import det_exact, rank_exact, solve_columns, solve_exact

# small integers make singular matrices and inconsistent systems common
entry = st.one_of(st.integers(-2, 2).map(Fraction),
                  st.fractions(min_value=-3, max_value=3, max_denominator=4))


def matrices(max_rows=4, max_cols=5):
    return st.integers(1, max_rows).flatmap(
        lambda r: st.integers(1, max_cols).flatmap(
            lambda c: st.lists(st.lists(entry, min_size=c, max_size=c),
                               min_size=r, max_size=r)))


def leibniz(a):
    """The determinant as the signed sum over all permutations."""
    n = len(a)
    total = Fraction(0)
    for p in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                         if p[i] > p[j])
        term = Fraction(-1 if inversions % 2 else 1)
        for i in range(n):
            term *= a[i][p[i]]
        total += term
    return total


def minor_rank(a):
    """The size of the largest square submatrix with nonzero determinant."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    for k in range(min(rows, cols), 0, -1):
        for rs in itertools.combinations(range(rows), k):
            for cs in itertools.combinations(range(cols), k):
                if leibniz([[a[i][j] for j in cs] for i in rs]):
                    return k
    return 0


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(entry, min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_det_matches_leibniz(a):
    assert det_exact(a) == leibniz(a)


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rank_matches_largest_nonzero_minor(a):
    assert rank_exact(a) == minor_rank(a)


@settings(max_examples=60, deadline=None)
@given(matrices().flatmap(lambda a: st.tuples(
    st.just(a),
    st.lists(st.lists(entry, min_size=len(a), max_size=len(a)),
             min_size=1, max_size=3))))
def test_solve_columns_solves_or_reports_inconsistency(case):
    a, bs = case
    sols = solve_columns(a, bs)
    assert len(sols) == len(bs)
    rank_a = minor_rank(a)
    for b, x in zip(bs, sols):
        augmented = [row + [b[i]] for i, row in enumerate(a)]
        assert (x is None) == (minor_rank(augmented) > rank_a)
        if x is not None:
            assert all(sum(c * v for c, v in zip(row, x)) == b[i]
                       for i, row in enumerate(a))
    assert solve_exact(a, bs[0]) == sols[0]


def test_edge_cases():
    assert det_exact([]) == 1
    assert rank_exact([]) == 0
    assert rank_exact([[]]) == 0
    assert det_exact([[Fraction(1, 2), 1], [1, 2]]) == 0
    for a in ([[1, 2]], [[1], [2]], [[1, 2], [3]]):
        with pytest.raises(ValueError):
            det_exact(a)
